//! Minimal problem size that gainfully uses all `N` processors (Fig. 7).
//!
//! Treating the paper's use-fewer-than-all conditions as equalities and
//! solving for `n`:
//!
//! ```text
//! sync bus,  strips : n_min = 4·k·b·N²     / (E·Tfp)      (from ineq. 4)
//! async bus, strips : n_min = 2·k·b·N²     / (E·Tfp)
//! sync bus,  squares: n_min = 4·k·b·N^{3/2} / (E·Tfp)      (from ineq. 6)
//! async bus, squares: identical to sync (same s̃)
//! ```
//!
//! Fig. 7 plots `log₂(n_min²)` against `N` for the three bus variants and
//! both stencils. Hypercube, mesh and fixed switching networks have no such
//! threshold: their cycle time decreases in the processor count for any
//! problem large enough to beat the one-processor extreme, so every grid
//! that parallelizes at all "gainfully uses" the full machine.

use crate::{ArchModel, AsyncBus, MachineParams, ProcessorBudget, SyncBus, Workload};
use parspeed_stencil::PartitionShape;

/// The bus variants of Fig. 7, in the paper's (a)/(b)/(c) order plus the
/// async-square companion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusVariant {
    /// Fig. 7(a): synchronous bus, strip partitions.
    SyncStrip,
    /// Fig. 7(b): asynchronous bus, strip partitions.
    AsyncStrip,
    /// Fig. 7(c): synchronous bus, square partitions.
    SyncSquare,
    /// Companion: asynchronous bus, square partitions (same threshold as
    /// synchronous — the optima coincide).
    AsyncSquare,
}

impl BusVariant {
    /// All variants, Fig. 7 order first.
    pub fn all() -> [BusVariant; 4] {
        [
            BusVariant::SyncStrip,
            BusVariant::AsyncStrip,
            BusVariant::SyncSquare,
            BusVariant::AsyncSquare,
        ]
    }

    /// The name the wire and the command line use.
    pub fn name(&self) -> &'static str {
        match self {
            BusVariant::SyncStrip => "sync-strip",
            BusVariant::AsyncStrip => "async-strip",
            BusVariant::SyncSquare => "sync-square",
            BusVariant::AsyncSquare => "async-square",
        }
    }

    /// Parses a [`name`](BusVariant::name).
    pub fn parse(name: &str) -> Result<Self, String> {
        BusVariant::all().into_iter().find(|v| v.name() == name).ok_or_else(|| {
            format!(
                "unknown minsize variant `{name}`; one of: sync-strip, async-strip, \
                 sync-square, async-square"
            )
        })
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            BusVariant::SyncStrip => "synchronous, strip",
            BusVariant::AsyncStrip => "asynchronous, strip",
            BusVariant::SyncSquare => "synchronous, square",
            BusVariant::AsyncSquare => "asynchronous, square",
        }
    }

    /// The partition shape of the variant.
    pub fn shape(&self) -> PartitionShape {
        match self {
            BusVariant::SyncStrip | BusVariant::AsyncStrip => PartitionShape::Strip,
            BusVariant::SyncSquare | BusVariant::AsyncSquare => PartitionShape::Square,
        }
    }
}

/// Closed-form minimal grid side `n` (continuous) at which all `n_procs`
/// processors are gainfully used for the given stencil constants.
pub fn min_grid_side(m: &MachineParams, e: f64, k: f64, n_procs: usize, v: BusVariant) -> f64 {
    let np = n_procs as f64;
    let b = m.bus.b;
    match v {
        BusVariant::SyncStrip => 4.0 * k * b * np * np / (e * m.tfp),
        BusVariant::AsyncStrip => 2.0 * k * b * np * np / (e * m.tfp),
        BusVariant::SyncSquare | BusVariant::AsyncSquare => {
            4.0 * k * b * np.powf(1.5) / (e * m.tfp)
        }
    }
}

/// Fig. 7's ordinate: `log₂(n_min²)`.
pub fn min_problem_size_log2(
    m: &MachineParams,
    e: f64,
    k: f64,
    n_procs: usize,
    v: BusVariant,
) -> f64 {
    let n = min_grid_side(m, e, k, n_procs, v);
    (n * n).log2()
}

/// Numerically verified minimal grid side: the smallest integer `n` whose
/// optimizer output actually uses all `n_procs` processors. Cross-checks
/// the closed forms; `O(log)` probes of the optimizer.
pub fn min_grid_side_verified(
    m: &MachineParams,
    e: f64,
    k: usize,
    n_procs: usize,
    v: BusVariant,
) -> usize {
    let uses_all = |n: usize| -> bool {
        let w = Workload::with_constants(n, v.shape(), e, k);
        match v {
            BusVariant::SyncStrip | BusVariant::SyncSquare => {
                SyncBus::new(m).optimize(&w, ProcessorBudget::Limited(n_procs)).used_all
            }
            BusVariant::AsyncStrip | BusVariant::AsyncSquare => {
                AsyncBus::new(m).optimize(&w, ProcessorBudget::Limited(n_procs)).used_all
            }
        }
    };
    // Exponential bracket then binary search. Monotone: bigger grids only
    // make full utilization more attractive.
    let mut hi = n_procs.max(2);
    while !uses_all(hi) {
        hi *= 2;
        assert!(hi < 1 << 26, "no full-utilization grid found");
    }
    let mut lo = n_procs.max(2) / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if uses_all(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_strip_threshold_is_half_of_sync() {
        let m = MachineParams::paper_defaults();
        let s = min_grid_side(&m, 6.0, 1.0, 16, BusVariant::SyncStrip);
        let a = min_grid_side(&m, 6.0, 1.0, 16, BusVariant::AsyncStrip);
        assert!((s / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn squares_need_much_smaller_grids_than_strips() {
        // N^{3/2} vs N²: squares reach full utilization far earlier.
        let m = MachineParams::paper_defaults();
        for np in [8usize, 16, 24] {
            let strip = min_grid_side(&m, 6.0, 1.0, np, BusVariant::SyncStrip);
            let square = min_grid_side(&m, 6.0, 1.0, np, BusVariant::SyncSquare);
            assert!(square < strip, "N={np}");
        }
    }

    #[test]
    fn paper_anchor_256_grid_needs_14_processors() {
        // Inverting: at N = 14 the square threshold should be ≈256.
        let m = MachineParams::paper_defaults();
        let n = min_grid_side(&m, 6.0, 1.0, 14, BusVariant::SyncSquare);
        assert!((n - 256.0).abs() / 256.0 < 0.02, "n_min = {n}");
    }

    #[test]
    fn higher_order_stencils_lower_the_threshold() {
        // E(9pt) = 2·E(5pt): more compute per point ⇒ a smaller grid
        // already saturates the machine (Fig. 7's two panels).
        let m = MachineParams::paper_defaults();
        for v in BusVariant::all() {
            let n5 = min_grid_side(&m, 6.0, 1.0, 16, v);
            let n9 = min_grid_side(&m, 12.0, 1.0, 16, v);
            assert!((n5 / n9 - 2.0).abs() < 1e-12, "{}", v.label());
        }
    }

    #[test]
    fn verified_thresholds_track_closed_forms() {
        let m = MachineParams::paper_defaults();
        for (v, np) in [
            (BusVariant::SyncSquare, 8usize),
            (BusVariant::SyncSquare, 14),
            (BusVariant::AsyncSquare, 8),
        ] {
            let closed = min_grid_side(&m, 6.0, 1.0, np, v);
            let verified = min_grid_side_verified(&m, 6.0, 1, np, v) as f64;
            let rel = (verified - closed).abs() / closed;
            // Integer processor granularity near small N shifts the
            // threshold by up to one allocation step.
            assert!(rel < 0.15, "{} N={np}: closed {closed} verified {verified}", v.label());
        }
    }

    #[test]
    fn log2_ordinate_matches_side() {
        let m = MachineParams::paper_defaults();
        let n = min_grid_side(&m, 6.0, 1.0, 16, BusVariant::SyncStrip);
        let l = min_problem_size_log2(&m, 6.0, 1.0, 16, BusVariant::SyncStrip);
        assert!((l - (n * n).log2()).abs() < 1e-12);
    }

    #[test]
    fn fig7_curves_are_increasing_in_n() {
        let m = MachineParams::paper_defaults();
        for v in BusVariant::all() {
            let mut prev = 0.0;
            for np in (4..=24).step_by(4) {
                let l = min_problem_size_log2(&m, 6.0, 1.0, np, v);
                assert!(l > prev, "{} N={np}", v.label());
                prev = l;
            }
        }
    }
}
