//! Hardware parameter sets for the four architecture classes.
//!
//! The paper never tabulates its Fig-7/Fig-8 constants legibly (the scan is
//! damaged), so the defaults here are *calibrated* to the two quantitative
//! anchors the text does state (§6.1): on a 256×256 grid with square
//! partitions and `c = 0`, the synchronous bus should optimally use 14
//! processors with the 5-point stencil and 22 with the 9-point box. With
//! `E(5pt) = 6` and `E(9pt) = 12` (`Stencil::calibrated_e`) this pins
//! `Tfp/b = 0.13642`. Absolute magnitudes are chosen to be 1987-plausible
//! (µs-scale bus word cycles, ms-scale message startup) but only *ratios*
//! enter any claim the reproduction checks.

/// Shared-bus machine constants (FLEX/32-class, §6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusParams {
    /// Bus cycle time per word, seconds (`b` in the paper).
    pub b: f64,
    /// Fixed per-word overhead — address calculation plus bus-access
    /// overhead, seconds (`c` in the paper). Measured `c/b ≈ 1000` on the
    /// FLEX/32; the paper's figures use the `c = 0` idealization.
    pub c: f64,
}

impl BusParams {
    /// The `c = 0` idealization used for the paper's closed-form optima.
    pub fn ideal(b: f64) -> Self {
        Self { b, c: 0.0 }
    }

    /// FLEX/32-like regime: `c = 1000·b` (§6.1 measurement).
    pub fn flex32(b: f64) -> Self {
        Self { b, c: 1000.0 * b }
    }
}

/// Message-passing machine constants (Intel-iPSC-class hypercube or a
/// nearest-neighbour mesh, §§4–5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypercubeParams {
    /// Per-packet transmission cost, seconds (`α`).
    pub alpha: f64,
    /// Per-message startup cost, seconds (`β`).
    pub beta: f64,
    /// Packet capacity in words (grid-point values).
    pub packet_words: usize,
}

/// Banyan switching-network constants (RP3/Butterfly-class, §7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchParams {
    /// Per-stage switch traversal time, seconds (`w`).
    pub w: f64,
}

/// A full machine description: per-flop time plus the communication
/// constants of each architecture class, so one parameter set drives every
/// model side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Seconds per floating-point operation (`Tfp`).
    pub tfp: f64,
    /// Shared-bus constants.
    pub bus: BusParams,
    /// Hypercube message constants.
    pub hypercube: HypercubeParams,
    /// Mesh message constants (nearest-neighbour; same form as hypercube).
    pub mesh: HypercubeParams,
    /// Switching-network constants.
    pub switch: SwitchParams,
}

impl MachineParams {
    /// The calibrated defaults used by every reproduction experiment
    /// (see module docs; ratios are what matter).
    pub fn paper_defaults() -> Self {
        let b = 1.0e-6;
        Self {
            tfp: 0.13642 * b,
            bus: BusParams::ideal(b),
            hypercube: HypercubeParams { alpha: 5.0e-5, beta: 1.0e-3, packet_words: 128 },
            mesh: HypercubeParams { alpha: 5.0e-5, beta: 5.0e-4, packet_words: 128 },
            switch: SwitchParams { w: 0.5e-6 },
        }
    }

    /// Defaults with the FLEX/32 overhead regime (`c = 1000·b`) instead of
    /// the `c = 0` idealization.
    pub fn flex32_defaults() -> Self {
        let mut m = Self::paper_defaults();
        m.bus = BusParams::flex32(m.bus.b);
        m
    }

    /// Returns a copy with the bus cycle time scaled by `factor`
    /// (leverage experiments, §6.1).
    pub fn with_bus_speedup(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.bus.b /= factor;
        self
    }

    /// Returns a copy with the floating-point speed scaled by `factor`.
    pub fn with_flop_speedup(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.tfp /= factor;
        self
    }

    /// Returns a copy with the per-word bus overhead `c` set explicitly.
    pub fn with_bus_overhead(mut self, c: f64) -> Self {
        assert!(c >= 0.0);
        self.bus.c = c;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_anchor_five_point() {
        // N_max = (E·Tfp·n / (4·k·b))^(2/3) must be ≈14 for the 5-point
        // stencil at n = 256 (paper §6.1).
        let m = MachineParams::paper_defaults();
        let nmax = (6.0 * m.tfp * 256.0 / (4.0 * m.bus.b)).powf(2.0 / 3.0);
        assert!((nmax - 14.0).abs() < 0.5, "got {nmax}");
    }

    #[test]
    fn calibration_anchor_nine_point() {
        let m = MachineParams::paper_defaults();
        let nmax = (12.0 * m.tfp * 256.0 / (4.0 * m.bus.b)).powf(2.0 / 3.0);
        assert!((nmax - 22.0).abs() < 0.5, "got {nmax}");
    }

    #[test]
    fn flex32_regime_has_huge_overhead_ratio() {
        let m = MachineParams::flex32_defaults();
        assert!((m.bus.c / m.bus.b - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn speed_scaling_helpers() {
        let m = MachineParams::paper_defaults();
        let fast_bus = m.with_bus_speedup(2.0);
        assert!((fast_bus.bus.b - m.bus.b / 2.0).abs() < 1e-18);
        let fast_fp = m.with_flop_speedup(4.0);
        assert!((fast_fp.tfp - m.tfp / 4.0).abs() < 1e-18);
        let with_c = m.with_bus_overhead(3.0e-6);
        assert_eq!(with_c.bus.c, 3.0e-6);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_speedup_factor() {
        let _ = MachineParams::paper_defaults().with_bus_speedup(0.0);
    }
}
