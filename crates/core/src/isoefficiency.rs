//! Isoefficiency analysis — the modern framing of the paper's §§4–7
//! fixed-`N` results.
//!
//! The paper shows speedup → `N` as the grid grows for every architecture;
//! *how fast* the problem must grow to hold efficiency constant is the
//! isoefficiency function introduced shortly after (Grama/Gupta/Kumar),
//! and it falls straight out of the paper's formulas:
//!
//! * hypercube/mesh, squares: `E = 1/(1 + c·√N/n)` ⇒ `n ∝ √N`, work
//!   `W = Θ(N)` — **linear isoefficiency**, the best possible;
//! * hypercube/mesh, strips: `n ∝ N` ⇒ `W = Θ(N²)`;
//! * synchronous bus, strips (eq. 5): `E = 1/(1 + 4bkN²/(E·Tfp·n))` ⇒
//!   `n ∝ N²`, `W = Θ(N⁴)`;
//! * synchronous bus, squares: `n ∝ N^{3/2}`, `W = Θ(N³)`;
//! * banyan, squares: `n ∝ √(N·log N)`, `W = Θ(N log N)`.
//!
//! [`min_grid_for_efficiency`] computes the threshold numerically from any
//! [`ArchModel`]; [`isoefficiency_exponent`] fits the growth exponent
//! `d log W / d log N` so the table above can be asserted.

use crate::{ArchModel, Workload};

/// The smallest grid side `n` at which `model` reaches `efficiency`
/// (speedup / N) on exactly `n_procs` processors, or `None` when no side
/// up to [`Workload::MAX_SIDE`] reaches it.
///
/// Efficiency is monotone nondecreasing in `n` for every model in this
/// workspace (communication per point shrinks as partitions grow), so an
/// exponential bracket plus binary search is exact.
///
/// # Panics
///
/// Panics if `efficiency` is outside `(0, 1)`.
pub fn min_grid_for_efficiency<M: ArchModel + ?Sized>(
    model: &M,
    template: &Workload,
    n_procs: usize,
    efficiency: f64,
) -> Option<usize> {
    assert!(efficiency > 0.0 && efficiency < 1.0, "need 0 < efficiency < 1");
    assert!(n_procs >= 1);
    let eff_at = |n: usize| -> f64 {
        let w = template.scaled_to(n);
        let area = w.points() / n_procs as f64;
        model.speedup_at(&w, area) / n_procs as f64
    };
    // Bracket: grow until the target efficiency is met, capped where n²
    // stops fitting.
    let mut hi = n_procs.clamp(2, Workload::MAX_SIDE);
    while eff_at(hi) < efficiency {
        if hi == Workload::MAX_SIDE {
            return None;
        }
        hi = (2 * hi).min(Workload::MAX_SIDE);
    }
    let mut lo = 1usize;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if eff_at(mid) >= efficiency {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Fits the isoefficiency exponent `d log W / d log N` (with `W = n²`,
/// the paper's work measure up to constants) over the given processor
/// counts at fixed target efficiency.
///
/// # Panics
///
/// Panics if a processor count cannot reach `efficiency` on a grid of at
/// most [`Workload::MAX_SIDE`] sides.
pub fn isoefficiency_exponent<M: ArchModel + ?Sized>(
    model: &M,
    template: &Workload,
    procs: &[usize],
    efficiency: f64,
) -> f64 {
    assert!(procs.len() >= 2);
    let points: Vec<(usize, usize)> = procs
        .iter()
        .map(|&p| {
            let n = min_grid_for_efficiency(model, template, p, efficiency)
                .unwrap_or_else(|| panic!("efficiency {efficiency} unreachable on {p} processors"));
            (p, n)
        })
        .collect();
    fit_work_exponent(&points)
}

/// Least-squares slope of `ln(n²)` against `ln N` over precomputed
/// `(N, min n)` threshold points — the fit [`isoefficiency_exponent`]
/// applies after computing the thresholds itself. Exposed so callers that
/// already hold the thresholds (e.g. from a batched engine) fit the same
/// exponent bit-for-bit.
///
/// # Panics
///
/// Panics on fewer than two points.
pub fn fit_work_exponent(points: &[(usize, usize)]) -> f64 {
    assert!(points.len() >= 2);
    let pts: Vec<(f64, f64)> =
        points.iter().map(|&(p, n)| ((p as f64).ln(), ((n * n) as f64).ln())).collect();
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / pts.len() as f64;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
    let num: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let den: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Banyan, BusParams, Hypercube, HypercubeParams, MachineParams, SyncBus};
    use parspeed_stencil::{PartitionShape, Stencil};

    /// Message constants without the huge β so the asymptotic regime is
    /// reachable at test-sized grids.
    fn fast_machine() -> MachineParams {
        MachineParams {
            tfp: 1.0e-7,
            bus: BusParams::ideal(1.0e-6),
            hypercube: HypercubeParams { alpha: 1.0e-6, beta: 1.0e-5, packet_words: 128 },
            mesh: HypercubeParams { alpha: 1.0e-6, beta: 1.0e-5, packet_words: 128 },
            switch: crate::SwitchParams { w: 0.5e-6 },
        }
    }

    fn wl(shape: PartitionShape) -> Workload {
        Workload::new(2, &Stencil::five_point(), shape)
    }

    #[test]
    fn threshold_is_monotone_in_target() {
        let m = fast_machine();
        let bus = SyncBus::new(&m);
        let w = wl(PartitionShape::Square);
        let n50 = min_grid_for_efficiency(&bus, &w, 16, 0.5).unwrap();
        let n80 = min_grid_for_efficiency(&bus, &w, 16, 0.8).unwrap();
        let n95 = min_grid_for_efficiency(&bus, &w, 16, 0.95).unwrap();
        assert!(n50 < n80 && n80 < n95, "{n50} {n80} {n95}");
    }

    #[test]
    fn efficiency_is_met_at_and_not_below_threshold() {
        let m = fast_machine();
        let bus = SyncBus::new(&m);
        let w = wl(PartitionShape::Strip);
        let p = 8usize;
        let n = min_grid_for_efficiency(&bus, &w, p, 0.7).unwrap();
        let eff = |nn: usize| {
            let w = w.scaled_to(nn);
            bus.speedup_at(&w, w.points() / p as f64) / p as f64
        };
        assert!(eff(n) >= 0.7);
        assert!(eff(n - 1) < 0.7);
    }

    #[test]
    fn targets_past_the_largest_side_answer_none() {
        let m = fast_machine();
        let bus = SyncBus::new(&m);
        let strips = wl(PartitionShape::Strip);
        // Strips need n ≈ 6.7·N² here: past `Workload::MAX_SIDE` at N = 2²⁰.
        assert_eq!(min_grid_for_efficiency(&bus, &strips, 1 << 20, 0.5), None);
        assert_eq!(min_grid_for_efficiency(&bus, &strips, 1 << 10, 0.5), Some(6_990_507));
        // A processor count past the bound starts the bracket at it.
        let squares = wl(PartitionShape::Square);
        assert_eq!(min_grid_for_efficiency(&Banyan::new(&m), &squares, usize::MAX, 0.5), None);
    }

    #[test]
    fn sync_bus_strips_have_quartic_isoefficiency() {
        // E = 1/(1 + 4bkN²/(E·Tfp·n)) ⇒ n ∝ N² ⇒ W = n² ∝ N⁴.
        let m = fast_machine();
        let bus = SyncBus::new(&m);
        let e = isoefficiency_exponent(&bus, &wl(PartitionShape::Strip), &[8, 16, 32, 64], 0.5);
        assert!((e - 4.0).abs() < 0.1, "exponent {e}");
    }

    #[test]
    fn sync_bus_squares_have_cubic_isoefficiency() {
        let m = fast_machine();
        let bus = SyncBus::new(&m);
        let e = isoefficiency_exponent(&bus, &wl(PartitionShape::Square), &[8, 16, 32, 64], 0.5);
        assert!((e - 3.0).abs() < 0.1, "exponent {e}");
    }

    #[test]
    fn hypercube_squares_have_near_linear_isoefficiency() {
        // With β ≈ 0 the per-neighbour cost is ∝ s·k ⇒ E = 1/(1 + c√N/n)
        // ⇒ W ∝ N. Packet rounding and β add a small upward bias.
        let m = fast_machine();
        let cube = Hypercube::new(&m);
        let e =
            isoefficiency_exponent(&cube, &wl(PartitionShape::Square), &[16, 64, 256, 1024], 0.5);
        assert!(e > 0.85 && e < 1.35, "exponent {e}");
    }

    #[test]
    fn hypercube_strips_pay_quadratic_isoefficiency() {
        // Strip messages are n·k words regardless of P ⇒ n ∝ N ⇒ W ∝ N².
        // The bandwidth term must dominate to see the asymptote, so use a
        // startup-free, unpacketized machine (β > 0 shifts the small-n
        // regime to W ∝ N — worth knowing, but not the asymptotic law).
        let mut m = fast_machine();
        m.hypercube = HypercubeParams { alpha: 1.0e-6, beta: 0.0, packet_words: 1 };
        let cube = Hypercube::new(&m);
        let e = isoefficiency_exponent(&cube, &wl(PartitionShape::Strip), &[8, 16, 32, 64], 0.5);
        assert!((e - 2.0).abs() < 0.25, "exponent {e}");
    }

    #[test]
    fn startup_dominated_hypercube_looks_linear_at_small_n() {
        // The finite-size effect the previous test dodges: with ms-scale β
        // and test-scale grids, E = 1/(1 + 4βN/(E·n²·Tfp)) gives W ∝ N.
        let m = fast_machine();
        let cube = Hypercube::new(&m);
        let e = isoefficiency_exponent(&cube, &wl(PartitionShape::Strip), &[8, 16, 32], 0.5);
        assert!(e < 1.3, "exponent {e} should be startup-dominated here");
    }

    #[test]
    fn banyan_squares_sit_just_above_linear() {
        // W ∝ N·log N: exponent slightly above 1 on a finite sweep.
        let m = fast_machine();
        let net = Banyan::new(&m);
        let e =
            isoefficiency_exponent(&net, &wl(PartitionShape::Square), &[16, 64, 256, 1024], 0.5);
        assert!(e > 1.0 && e < 1.45, "exponent {e}");
    }

    #[test]
    fn architecture_ordering_of_scalability() {
        // Lower isoefficiency exponent = more scalable. The paper's §8
        // hierarchy, restated: hypercube ≺ banyan ≺ bus-squares ≺ bus-strips.
        let m = fast_machine();
        let cube = isoefficiency_exponent(
            &Hypercube::new(&m),
            &wl(PartitionShape::Square),
            &[16, 64, 256],
            0.5,
        );
        let ban = isoefficiency_exponent(
            &Banyan::new(&m),
            &wl(PartitionShape::Square),
            &[16, 64, 256],
            0.5,
        );
        let busq = isoefficiency_exponent(
            &SyncBus::new(&m),
            &wl(PartitionShape::Square),
            &[16, 64, 256],
            0.5,
        );
        let bust = isoefficiency_exponent(
            &SyncBus::new(&m),
            &wl(PartitionShape::Strip),
            &[16, 64, 256],
            0.5,
        );
        assert!(cube < ban + 0.2, "cube {cube} vs banyan {ban}");
        assert!(ban < busq, "banyan {ban} vs bus squares {busq}");
        assert!(busq < bust, "bus squares {busq} vs strips {bust}");
    }

    #[test]
    #[should_panic(expected = "0 < efficiency < 1")]
    fn rejects_bad_target() {
        let m = fast_machine();
        let _ = min_grid_for_efficiency(&SyncBus::new(&m), &wl(PartitionShape::Strip), 4, 1.5);
    }
}
