//! E13 — model vs discrete-event simulation across every architecture.

use crate::report::{pct, secs, Report, Table};
use parspeed_arch::validate::validate_all;
use parspeed_core::MachineParams;
use parspeed_stencil::Stencil;

/// Regenerates the validation table.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let (n, procs): (usize, &[usize]) = if quick { (64, &[4, 16]) } else { (128, &[4, 16, 64]) };
    let rows = validate_all(&m, n, &Stencil::five_point(), procs);

    let mut t = Table::new(
        format!("Closed form vs event simulation (n = {n}, 5-point)"),
        &["architecture", "shape", "P", "model", "simulated", "rel. dev.", "bound"],
    );
    let mut worst: f64 = 0.0;
    for r in &rows {
        worst = worst.max(r.rel_err() / r.tolerance());
        t.row(vec![
            r.arch.into(),
            r.shape.name().into(),
            r.p.to_string(),
            secs(r.model),
            secs(r.sim),
            pct(r.rel_err()),
            pct(r.tolerance()),
        ]);
    }
    let mut out = Report::default();
    out.table("e13_validate_desim.csv", &t);
    out.text.push_str(&format!(
        "\nEvery deviation sits inside its bound (worst at {:.0}% of bound).\n\
         The residual gap is the paper's own idealization: closed forms charge\n\
         every partition interior-volume traffic, while domain-edge partitions\n\
         move less — a deficit that decays as 1/P (strips) or 1/√P (squares).\n",
        100.0 * worst
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_rows_within_bounds() {
        let r = super::run(true).text;
        assert!(r.contains("hypercube"));
        assert!(r.contains("switching network"));
        assert!(!r.contains("NaN"));
    }

    #[test]
    fn csv_every_deviation_is_within_its_bound() {
        use crate::experiments::csv::series;
        let s = series(&super::run(true), "e13_validate_desim.csv");
        let (model, sim) = (s.numbers("model"), s.numbers("simulated"));
        let (dev, bound) = (s.numbers("rel. dev."), s.numbers("bound"));
        for i in 0..s.rows.len() {
            assert!(dev[i] <= bound[i], "{:?}", s.rows[i]);
            // Closed forms charge edge partitions interior traffic, so the
            // simulation never runs slower than the model.
            assert!(sim[i] <= model[i], "{:?}", s.rows[i]);
            assert!(((model[i] - sim[i]) / model[i] - dev[i]).abs() <= 2e-3, "{:?}", s.rows[i]);
        }
        let mut archs = s.column("architecture");
        archs.sort_unstable();
        archs.dedup();
        assert_eq!(archs.len(), 6, "{archs:?}");
    }
}
