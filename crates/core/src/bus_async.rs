//! Asynchronous shared-bus model (§6.2).
//!
//! The bus accepts posted writes: a processor reads its boundary points
//! synchronously (half of the synchronous `t_ta`), then computes — boundary
//! points first, each written to global memory as soon as it is updated. If
//! the bus cannot drain the offered write load before computation ends, the
//! iteration waits for the backlog:
//!
//! ```text
//! t_cycle = t_read + max(E·A·Tfp, b·B_total)
//! ```
//!
//! with `B_total` the write load summed over processors. The optimum sits
//! where compute exactly hides the backlog. Against the synchronous bus the
//! optimal speedup improves ×√2 for strips and ×1.5 for squares; letting
//! reads overlap as well ([`OverlapMode::ReadsAndWrites`]) buys a further
//! ×1.26 for squares and ×√2 for strips (§6.2's "additional" improvement;
//! the scan's garbled "126%" is read as this ×1.26 factor).

use crate::{ArchModel, BusParams, MachineParams, Workload};
use parspeed_stencil::PartitionShape;

/// Which phases overlap computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapMode {
    /// The paper's main §6.2 machine: synchronous reads, posted writes.
    #[default]
    WritesOnly,
    /// The paper's relaxation: half the points update during the read
    /// phase, half during the write phase (analysed at `c = 0`).
    ReadsAndWrites,
}

/// The asynchronous-bus architecture model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncBus {
    tfp: f64,
    bus: BusParams,
    mode: OverlapMode,
}

impl AsyncBus {
    /// Builds the model (writes-only overlap, the paper's default).
    pub fn new(m: &MachineParams) -> Self {
        Self { tfp: m.tfp, bus: m.bus, mode: OverlapMode::WritesOnly }
    }

    /// Builds the model with a chosen overlap mode.
    pub fn with_mode(m: &MachineParams, mode: OverlapMode) -> Self {
        Self { tfp: m.tfp, bus: m.bus, mode }
    }

    /// The overlap mode in use.
    pub fn mode(&self) -> OverlapMode {
        self.mode
    }

    /// Synchronous read phase: half the synchronous-bus transfer time.
    pub fn read_time(&self, w: &Workload, area: f64) -> f64 {
        let p = w.points() / area;
        w.one_way_words(area) * (self.bus.c + self.bus.b * p)
    }

    /// Bus time to drain the write load offered by all processors.
    pub fn write_backlog(&self, w: &Workload, area: f64) -> f64 {
        let p = w.points() / area;
        self.bus.b * w.one_way_words(area) * p
    }

    /// Continuous optimal area: where compute exactly covers the backlog.
    ///
    /// Strips: `A* = √(2n³bk/(E·Tfp))` — a factor √2 below the synchronous
    /// optimum (eq. 3). Squares: `s̃ = (4kbn²/(E·Tfp))^{1/3}`, identical to
    /// the synchronous value. Exact for `c = 0`; for `c > 0` the strip
    /// value remains exact (both read terms fall with `A` at the matched
    /// rate) and the square value is the paper's stated optimum.
    pub fn optimal_area(&self, w: &Workload) -> f64 {
        let n = w.n as f64;
        let k = w.k as f64;
        let (e, b) = (w.e_flops, self.bus.b);
        match (w.shape, self.mode) {
            (PartitionShape::Strip, OverlapMode::WritesOnly) => {
                (2.0 * n.powi(3) * b * k / (e * self.tfp)).sqrt()
            }
            (PartitionShape::Strip, OverlapMode::ReadsAndWrites) => {
                // E·A·Tfp/2 = 2n³bk/A ⇒ A = √(4n³bk/(E·Tfp)).
                (4.0 * n.powi(3) * b * k / (e * self.tfp)).sqrt()
            }
            (PartitionShape::Square, OverlapMode::WritesOnly) => {
                let s = (4.0 * k * b * n * n / (e * self.tfp)).powf(1.0 / 3.0);
                s * s
            }
            (PartitionShape::Square, OverlapMode::ReadsAndWrites) => {
                // E·s²·Tfp/2 = 4kbn²/s ⇒ s³ = 8kbn²/(E·Tfp).
                let s = (8.0 * k * b * n * n / (e * self.tfp)).powf(1.0 / 3.0);
                s * s
            }
        }
    }

    /// Optimal cycle time with processors unconstrained. When the interior
    /// optimum is worse than one processor (the paper's case (3)), the
    /// sequential time wins.
    pub fn optimal_cycle_unbounded(&self, w: &Workload) -> f64 {
        self.cycle_time(w, self.optimal_area(w).min(w.points())).min(self.seq_time(w))
    }

    /// Optimal speedup with processors unconstrained.
    pub fn optimal_speedup_unbounded(&self, w: &Workload) -> f64 {
        self.seq_time(w) / self.optimal_cycle_unbounded(w)
    }

    /// §6.2's use-fewer-than-all condition for strips:
    /// `N²·b/Tfp > E·n/(2k)`.
    pub fn uses_fewer_than(&self, w: &Workload, n_procs: usize) -> bool {
        self.optimal_area(w) > w.points() / n_procs as f64
    }
}

impl ArchModel for AsyncBus {
    fn name(&self) -> &'static str {
        match self.mode {
            OverlapMode::WritesOnly => "asynchronous bus",
            OverlapMode::ReadsAndWrites => "asynchronous bus (full overlap)",
        }
    }

    fn tfp(&self) -> f64 {
        self.tfp
    }

    fn cycle_time(&self, w: &Workload, area: f64) -> f64 {
        assert!(area > 0.0, "area must be positive");
        if area >= w.points() {
            return self.seq_time(w);
        }
        let compute = w.e_flops * area * self.tfp;
        match self.mode {
            OverlapMode::WritesOnly => {
                self.read_time(w, area) + compute.max(self.write_backlog(w, area))
            }
            OverlapMode::ReadsAndWrites => {
                // Half the points update while reads stream, half while
                // writes drain; each phase is bus-limited or compute-limited.
                let half = 0.5 * compute;
                let traffic = self.write_backlog(w, area);
                half.max(traffic) + half.max(traffic)
            }
        }
    }

    fn closed_form_optimal_area(&self, w: &Workload) -> Option<f64> {
        // Exact at c = 0 (and for strips at any c); defer to numeric search
        // otherwise.
        if self.bus.c == 0.0 || w.shape == PartitionShape::Strip {
            Some(self.optimal_area(w))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convex::is_unimodal_sampled;
    use crate::SyncBus;
    use parspeed_stencil::Stencil;

    fn models() -> (SyncBus, AsyncBus) {
        let m = MachineParams::paper_defaults();
        (SyncBus::new(&m), AsyncBus::new(&m))
    }

    fn wl(n: usize, shape: PartitionShape) -> Workload {
        Workload::new(n, &Stencil::five_point(), shape)
    }

    #[test]
    fn strip_optimum_is_sync_over_sqrt2() {
        let (sync, async_) = models();
        let w = wl(256, PartitionShape::Strip);
        let ratio = sync.optimal_strip_area(&w) / async_.optimal_area(&w);
        assert!((ratio - 2.0f64.sqrt()).abs() < 1e-12, "ratio {ratio}");
    }

    #[test]
    fn square_optimum_equals_sync() {
        let (sync, async_) = models();
        let w = wl(256, PartitionShape::Square);
        let s_sync = sync.optimal_square_side(&w);
        let a_async = async_.optimal_area(&w);
        assert!((s_sync * s_sync - a_async).abs() / a_async < 1e-12);
    }

    #[test]
    fn speedup_factor_sqrt2_for_strips() {
        let (sync, async_) = models();
        let w = wl(512, PartitionShape::Strip);
        let f = async_.optimal_speedup_unbounded(&w) / sync.optimal_speedup_unbounded(&w);
        assert!((f - 2.0f64.sqrt()).abs() < 1e-9, "factor {f}");
    }

    #[test]
    fn speedup_factor_1_5_for_squares() {
        let (sync, async_) = models();
        let w = wl(512, PartitionShape::Square);
        let f = async_.optimal_speedup_unbounded(&w) / sync.optimal_speedup_unbounded(&w);
        assert!((f - 1.5).abs() < 1e-9, "factor {f}");
    }

    #[test]
    fn full_overlap_buys_1_26_for_squares() {
        // 2 / 2^(2/3) ≈ 1.2599 — the §6.2 "additional improvement".
        let m = MachineParams::paper_defaults();
        let writes = AsyncBus::new(&m);
        let full = AsyncBus::with_mode(&m, OverlapMode::ReadsAndWrites);
        let w = wl(512, PartitionShape::Square);
        let f = full.optimal_speedup_unbounded(&w) / writes.optimal_speedup_unbounded(&w);
        assert!((f - 2.0 / 2.0f64.powf(2.0 / 3.0)).abs() < 1e-9, "factor {f}");
    }

    #[test]
    fn full_overlap_buys_sqrt2_for_strips() {
        let m = MachineParams::paper_defaults();
        let writes = AsyncBus::new(&m);
        let full = AsyncBus::with_mode(&m, OverlapMode::ReadsAndWrites);
        let w = wl(512, PartitionShape::Strip);
        let f = full.optimal_speedup_unbounded(&w) / writes.optimal_speedup_unbounded(&w);
        assert!((f - 2.0f64.sqrt()).abs() < 1e-9, "factor {f}");
    }

    #[test]
    fn async_never_slower_than_sync() {
        let (sync, async_) = models();
        for shape in [PartitionShape::Strip, PartitionShape::Square] {
            let w = wl(256, shape);
            for p in [2usize, 4, 8, 16, 64, 256] {
                let area = w.points() / p as f64;
                assert!(
                    async_.cycle_time(&w, area) <= sync.cycle_time(&w, area) + 1e-18,
                    "{shape:?} P={p}"
                );
            }
        }
    }

    #[test]
    fn cycle_time_is_unimodal() {
        let (_, async_) = models();
        for shape in [PartitionShape::Strip, PartitionShape::Square] {
            let w = wl(128, shape);
            assert!(
                is_unimodal_sampled(4.0, 128.0 * 128.0 - 1.0, 3000, 1e-12, |a| async_
                    .cycle_time(&w, a)),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn optimum_balances_compute_and_backlog() {
        let (_, async_) = models();
        for shape in [PartitionShape::Strip, PartitionShape::Square] {
            let w = wl(256, shape);
            let a = async_.optimal_area(&w);
            let compute = w.e_flops * a * async_.tfp();
            let backlog = async_.write_backlog(&w, a);
            assert!((compute - backlog).abs() / compute < 1e-9, "{shape:?}");
        }
    }

    #[test]
    fn scaling_exponents_unchanged_by_asynchrony() {
        // §6.2: "optimal asynchronous bus performance is a constant factor
        // better" — Θ((n²)^{1/4}) strips, Θ((n²)^{1/3}) squares still.
        let (_, async_) = models();
        let s1 = async_.optimal_speedup_unbounded(&wl(256, PartitionShape::Strip));
        let s2 = async_.optimal_speedup_unbounded(&wl(1024, PartitionShape::Strip));
        assert!((s2 / s1 - 2.0).abs() < 1e-6, "strips quadrupling n² twice: {}", s2 / s1);
        let q1 = async_.optimal_speedup_unbounded(&wl(256, PartitionShape::Square));
        let q2 = async_.optimal_speedup_unbounded(&wl(2048, PartitionShape::Square));
        // n² × 64 ⇒ speedup × 4 for the cube-root law.
        assert!((q2 / q1 - 4.0).abs() < 1e-6, "squares: {}", q2 / q1);
    }

    #[test]
    fn strip_condition_halves_the_threshold() {
        // Async strips: fewer than N processors iff N²b/Tfp > E·n/(2k) —
        // half the synchronous right-hand side, so the async machine keeps
        // all processors busy on smaller grids.
        let m = MachineParams::paper_defaults();
        let (sync, async_) = (SyncBus::new(&m), AsyncBus::new(&m));
        // Pick n where sync leaves processors idle but async does not.
        let nprocs = 32;
        let mut seen_split = false;
        for n in (64..4096).step_by(64) {
            let w = wl(n, PartitionShape::Strip);
            if sync.uses_fewer_than(&w, nprocs) && !async_.uses_fewer_than(&w, nprocs) {
                seen_split = true;
                break;
            }
        }
        assert!(seen_split, "expected a grid-size window where only sync idles processors");
    }
}
