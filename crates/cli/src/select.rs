//! Parsing of the flags the model commands share. Each flag is parsed
//! once, into the engine value the command's query carries; table titles
//! read their names back from those values.

use crate::args::{err, Args, CliError};
use parspeed_engine::{ArchKind, MachineSpec, PartitionShape, StencilSpec};

/// Architecture by CLI name. The name table lives in [`ArchKind`], so the
/// CLI and the wire accept the same alias set.
pub fn arch_kind(name: &str) -> Result<ArchKind, CliError> {
    ArchKind::parse(name).map_err(err)
}

/// Stencil by CLI name.
pub fn stencil_spec(name: &str) -> Result<StencilSpec, CliError> {
    StencilSpec::parse(name).map_err(err)
}

/// The display name a table title prints for a stencil (`--stencil`
/// names only catalog stencils).
pub fn stencil_title(spec: StencilSpec) -> &'static str {
    spec.to_stencil().map_or("custom", |s| s.name())
}

/// Partition shape by CLI name.
pub fn shape_key(name: &str) -> Result<PartitionShape, CliError> {
    PartitionShape::parse(name).map_err(err)
}

/// The machine flags as one [`MachineSpec`]: `--flex32` starts from the
/// measured `c/b ≈ 1000` overhead regime, and each override applies on
/// top. [`MachineSpec::resolve`] gives the parameters a title's model is
/// built from.
pub fn machine_spec(args: &Args) -> Result<MachineSpec, CliError> {
    Ok(MachineSpec {
        flex32: args.switch("flex32"),
        tfp: args.f64_opt("tfp")?,
        b: args.f64_opt("b")?,
        c: args.f64_opt("c")?,
        alpha: args.f64_opt("alpha")?,
        beta: args.f64_opt("beta")?,
        packet: args.usize_opt("packet")?,
        w: args.f64_opt("w")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_core::MachineParams;

    #[test]
    fn stencil_and_shape_names_resolve() {
        assert_eq!(stencil_title(stencil_spec("5pt").unwrap()), "5-point");
        assert_eq!(stencil_title(stencil_spec("9pt-box").unwrap()), "9-point box");
        assert_eq!(shape_key("strip").unwrap(), PartitionShape::Strip);
        assert!(stencil_spec("7pt").is_err());
        assert!(shape_key("hexagon").is_err());
    }

    #[test]
    fn every_listed_architecture_constructs() {
        let m = MachineParams::paper_defaults();
        for kind in ArchKind::all() {
            assert!(!arch_kind(kind.name()).unwrap().model(&m).name().is_empty());
        }
        assert!(arch_kind("torus").is_err());
    }

    const MACHINE_KEYS: &[&str] = &["tfp", "b", "c", "alpha", "beta", "packet", "w"];

    #[test]
    fn machine_overrides_apply() {
        let args = Args::parse(
            &["--b".into(), "2e-6".into(), "--c".into(), "1e-7".into()],
            MACHINE_KEYS,
            &["flex32"],
        )
        .unwrap();
        let m = machine_spec(&args).unwrap().resolve();
        assert_eq!(m.bus.b, 2e-6);
        assert_eq!(m.bus.c, 1e-7);
        assert_eq!(m.tfp, MachineParams::paper_defaults().tfp);
    }

    #[test]
    fn flex32_regime_applies_before_overrides() {
        let args = Args::parse(&["--flex32".into()], MACHINE_KEYS, &["flex32"]).unwrap();
        let m = machine_spec(&args).unwrap().resolve();
        assert!((m.bus.c / m.bus.b - 1000.0).abs() < 1e-9);
    }
}
