//! Self-sizing: the paper's optimizer predicts the fleet size.
//!
//! The sharded tier has exactly the structure of the paper's
//! processor-allocation problem. A serving workload with `D` distinct
//! hot keys is the problem instance; a shard with room for `C` cached
//! results is a processor with bounded local memory (§3–§4); and the
//! measured serving time over a fleet of `P` shards decomposes the way
//! eq. (2) decomposes a parallel iteration:
//!
//! ```text
//! T(P) = W/P  +  γ·P  +  β
//!        ↑work that   ↑per-shard     ↑per-request floor no
//!        shards split  coordination   fleet size removes
//! ```
//!
//! The synchronous-bus **strip** model is *literally this curve*: with an
//! `n×n` grid, 5-point stencil (`E = 6`, `k = 1`) and strip area
//! `A = n²/P`,
//!
//! ```text
//! t(A) = 6·A·tfp + 4n³·b/A + 4n·c  =  (6n²tfp)/P + (4n·b)·P + 4n·c
//! ```
//!
//! So pick `n = √D` (one grid point per distinct key), least-squares fit
//! `(W, γ, β)` to a measured sweep, and the machine override
//! `{tfp = W/6D, b = γ/4n, c = β/4n}` makes `Query::Optimize` minimize
//! the *fitted serving curve* — under the per-shard memory budget
//! `3C + 4n` words, which is exactly [`MemoryBudget::partition_words`]
//! at `A = C`: a fleet is memory-feasible iff every shard's key share
//! fits its cache (`D/P ≤ C`). The §5 machinery that sizes a processor
//! fleet — interior optimum, strip quantization, memory floor,
//! infeasibility — sizes the serving fleet unchanged.
//!
//! [`MemoryBudget::partition_words`]: parspeed_core::MemoryBudget::partition_words

use parspeed_engine::{
    ArchKind, Engine, EvalValue, MachineSpec, ParspeedError, PartitionShape, Query, Response,
    StencilSpec, WorkloadSpec,
};

/// What the fleet serves: the workload's cache-relevant profile. The
/// live numbers come from the router's `topology` record (`resident`
/// per member) or from a planned deployment.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Distinct canonical cache keys the workload touches (`D`).
    pub distinct_keys: usize,
    /// Result-cache entries one shard holds (`C`) — the per-processor
    /// memory constraint.
    pub shard_capacity: usize,
}

impl WorkloadProfile {
    /// The memory floor: the fewest shards whose aggregate cache holds
    /// every distinct key, `⌈D/C⌉` — the serving twin of
    /// `MemoryBudget::min_processors`.
    pub fn memory_floor(&self) -> usize {
        assert!(self.shard_capacity >= 1, "a shard needs a nonzero cache");
        self.distinct_keys.div_ceil(self.shard_capacity).max(1)
    }

    /// The grid side the profile maps onto: `n = √D`, one grid point
    /// per distinct key (rounded — exact when `D` is a perfect square).
    pub fn grid_side(&self) -> usize {
        (self.distinct_keys as f64).sqrt().round().max(1.0) as usize
    }
}

/// One measured point of a shard sweep: the same workload served by a
/// `shards`-backend fleet in `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Fleet size this point was measured at.
    pub shards: usize,
    /// Wall-clock seconds to serve the workload.
    pub seconds: f64,
    /// The measurement raced a fleet degradation (a shard lost or
    /// breaker-opened mid-run, visible as a non-empty `lost` list in
    /// the `topology` record): the time is real but was not served by
    /// `shards` healthy backends, so [`fit`] excludes it.
    pub degraded: bool,
}

/// The fitted serving curve `T(P) = scatter/P + coordination·P + floor`.
#[derive(Debug, Clone, Copy)]
pub struct FleetModel {
    /// `W`: work that divides across shards (cache-miss evaluation).
    pub scatter: f64,
    /// `γ`: per-shard cost of running a wider fleet (scatter/gather
    /// coordination, colder per-shard batches).
    pub coordination: f64,
    /// `β`: per-workload floor no fleet size removes.
    pub floor: f64,
}

impl FleetModel {
    /// The fitted curve evaluated at a fleet size.
    pub fn seconds_at(&self, shards: usize) -> f64 {
        let p = shards as f64;
        self.scatter / p + self.coordination * p + self.floor
    }
}

/// Least-squares fit of `T(P) = W/P + γ·P + β` over a measured sweep
/// (basis `1/P, P, 1`). Samples flagged [`SweepPoint::degraded`] are
/// excluded first — a time measured against a partially-lost fleet is
/// not a point on the healthy curve. Needs at least three distinct
/// *clean* fleet sizes; `None` otherwise. Coefficients are clamped to
/// the model's domain (`tfp, b > 0`, `c ≥ 0` downstream), so a noisy
/// sweep still maps to a valid machine.
pub fn fit(points: &[SweepPoint]) -> Option<FleetModel> {
    let clean: Vec<SweepPoint> = points.iter().copied().filter(|p| !p.degraded).collect();
    let mut distinct: Vec<usize> = clean.iter().map(|p| p.shards).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 3 {
        return None;
    }
    // Normal equations for the 3-parameter basis.
    let basis = |p: f64| [1.0 / p, p, 1.0];
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for pt in &clean {
        let row = basis(pt.shards as f64);
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += row[i] * row[j];
            }
            atb[i] += row[i] * pt.seconds;
        }
    }
    let x = solve3(ata, atb)?;
    Some(FleetModel { scatter: x[0], coordination: x[1], floor: x[2] })
}

/// Gaussian elimination with partial pivoting on a 3×3 system.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col];
        for row in col + 1..3 {
            let f = a[row][col] / pivot_row[col];
            for (k, &pv) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut sum = b[row];
        for k in row + 1..3 {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

/// The `Query::Optimize` whose answer is the predicted fleet size: the
/// profile becomes the grid and the memory budget, the fitted curve
/// becomes the machine. With `model: None` (no sweep measured yet) the
/// machine is communication-dominated, so the optimizer answers the
/// pure memory floor — the smallest fleet whose aggregate cache holds
/// the workload.
///
/// The query is an ordinary wire query: send it through the router
/// itself (or any server) and the fleet sizes itself over its own
/// serving stack.
pub fn sizing_query(
    profile: WorkloadProfile,
    model: Option<FleetModel>,
    max_shards: usize,
) -> Query {
    let n = profile.grid_side();
    let d = (n * n) as f64;
    let machine = match model {
        Some(m) => MachineSpec {
            tfp: Some((m.scatter / (6.0 * d)).max(1e-30)),
            b: Some((m.coordination / (4.0 * n as f64)).max(1e-30)),
            c: Some((m.floor / (4.0 * n as f64)).max(0.0)),
            ..MachineSpec::default()
        },
        // Neutral: communication dwarfs computation, so smaller fleets
        // always win and the memory floor decides alone.
        None => {
            MachineSpec { tfp: Some(1e-12), b: Some(1.0), c: Some(0.0), ..MachineSpec::default() }
        }
    };
    Query::Optimize {
        arch: ArchKind::SyncBus,
        machine,
        workload: WorkloadSpec { n, stencil: StencilSpec::FivePoint, shape: PartitionShape::Strip },
        procs: Some(max_shards),
        memory_words: Some((3 * profile.shard_capacity + 4 * n) as f64),
    }
}

/// The optimizer's answer, translated back into serving terms.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// The predicted optimal fleet size.
    pub shards: usize,
    /// The memory floor the answer respected (`⌈D/C⌉`).
    pub memory_floor: usize,
    /// Model speedup of the predicted fleet over one shard.
    pub speedup: f64,
    /// The fitted curve the prediction minimized, when a sweep was
    /// measured.
    pub model: Option<FleetModel>,
}

/// Predicts the optimal fleet size for a workload profile: fit the
/// sweep (points below the memory floor are excluded — the model does
/// not apply where the problem does not fit memory), map onto the strip
/// machine, and let `Query::Optimize` answer. With fewer than three
/// feasible sweep sizes the prediction degrades to the memory floor.
///
/// `Err` is the optimizer's own verdict — notably `infeasible` when
/// even `max_shards` caches cannot hold the workload, with the paper's
/// "problem does not fit" taxonomy intact.
pub fn predict(
    profile: WorkloadProfile,
    sweep: &[SweepPoint],
    max_shards: usize,
) -> Result<Prediction, ParspeedError> {
    let floor = profile.memory_floor();
    let feasible: Vec<SweepPoint> = sweep.iter().copied().filter(|p| p.shards >= floor).collect();
    let model = fit(&feasible);
    let query = sizing_query(profile, model, max_shards);
    match Engine::default().run_batch(&[query]).responses.pop() {
        Some(Response::Single(Ok(EvalValue::Optimum { processors, speedup, .. }))) => {
            Ok(Prediction { shards: processors, memory_floor: floor, speedup, model })
        }
        Some(Response::Single(Err(e))) => Err(e),
        other => {
            Err(ParspeedError::invalid(format!("sizing query answered unexpectedly: {other:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic sweep straight off the curve.
    fn sweep_from(model: FleetModel, sizes: &[usize]) -> Vec<SweepPoint> {
        sizes
            .iter()
            .map(|&shards| SweepPoint {
                shards,
                seconds: model.seconds_at(shards),
                degraded: false,
            })
            .collect()
    }

    #[test]
    fn fit_recovers_exact_coefficients() {
        let truth = FleetModel { scatter: 12.0, coordination: 0.25, floor: 3.0 };
        let got = fit(&sweep_from(truth, &[2, 3, 4, 6, 8])).unwrap();
        assert!((got.scatter - truth.scatter).abs() < 1e-9, "{got:?}");
        assert!((got.coordination - truth.coordination).abs() < 1e-9, "{got:?}");
        assert!((got.floor - truth.floor).abs() < 1e-9, "{got:?}");
    }

    #[test]
    fn fit_needs_three_distinct_fleet_sizes() {
        let truth = FleetModel { scatter: 12.0, coordination: 0.25, floor: 3.0 };
        assert!(fit(&sweep_from(truth, &[2, 4])).is_none());
        // Repeats of the same size do not count as new information.
        assert!(fit(&sweep_from(truth, &[2, 2, 4, 4])).is_none());
    }

    #[test]
    fn degraded_samples_are_excluded_from_the_fit() {
        let truth = FleetModel { scatter: 12.0, coordination: 0.25, floor: 3.0 };
        let mut sweep = sweep_from(truth, &[2, 3, 4, 6]);
        // A wildly wrong time measured while a shard was lost: flagged
        // degraded, it must not bend the fitted curve at all.
        sweep.push(SweepPoint { shards: 8, seconds: 1e6, degraded: true });
        let got = fit(&sweep).unwrap();
        assert!((got.scatter - truth.scatter).abs() < 1e-9, "{got:?}");
        assert!((got.coordination - truth.coordination).abs() < 1e-9, "{got:?}");
        assert!((got.floor - truth.floor).abs() < 1e-9, "{got:?}");
        // Degraded points do not count toward the three-size minimum.
        let mut thin = sweep_from(truth, &[2, 4]);
        thin.push(SweepPoint { shards: 6, seconds: truth.seconds_at(6), degraded: true });
        assert!(fit(&thin).is_none(), "a degraded point must not satisfy the minimum");
    }

    #[test]
    fn shard_loss_mid_sweep_flags_the_sample_as_degraded() {
        use crate::{Router, RouterConfig};
        use parspeed_server::ServerConfig;
        use std::time::{Duration, Instant};

        // Three clean synthetic points, plus one measured *live* against
        // a real fleet that loses a shard mid-measurement. The topology
        // record's `lost` list is the degradation signal the measuring
        // client reads.
        let profile = WorkloadProfile { distinct_keys: 144, shard_capacity: 36 };
        let truth = FleetModel { scatter: 36.0, coordination: 1.0, floor: 0.5 };
        let mut sweep = sweep_from(truth, &[4, 6, 8]);

        let router = Router::start(RouterConfig {
            shards: 6,
            backend: ServerConfig { window: Duration::from_micros(200), ..ServerConfig::default() },
            ..RouterConfig::default()
        });
        let client = router.client();
        let t0 = Instant::now();
        for (i, n) in (64..96).enumerate() {
            if i == 16 {
                router.kill_shard(0).expect("shard 0 was live");
            }
            let q = Query::Optimize {
                arch: ArchKind::SyncBus,
                machine: MachineSpec::default(),
                workload: WorkloadSpec {
                    n,
                    stencil: StencilSpec::FivePoint,
                    shape: PartitionShape::Square,
                },
                procs: Some(32),
                memory_words: None,
            };
            assert!(matches!(client.call(q), Response::Single(Ok(_))));
        }
        let seconds = t0.elapsed().as_secs_f64().max(1e-9);
        let lost = {
            let topo = router.topology();
            !matches!(topo.get("lost"), Some(parspeed_engine::jsonl::Json::Arr(l)) if l.is_empty())
        };
        assert!(lost, "the kill must be visible in the topology record");
        sweep.push(SweepPoint { shards: 6, seconds, degraded: lost });
        router.shutdown();

        // The degraded live sample changes nothing: the prediction is
        // the clean sweep's prediction.
        let with = predict(profile, &sweep, 8).unwrap();
        let without = predict(profile, &sweep[..3], 8).unwrap();
        assert_eq!(with.shards, without.shards);
        assert_eq!(with.shards, 6, "{with:?}");
    }

    #[test]
    fn prediction_matches_the_curves_interior_optimum() {
        // W/P + γP is minimized at P* = √(W/γ); pick W = 36γ → P* = 6,
        // a strip-feasible size for n = 12 and above the floor ⌈144/36⌉ = 4.
        let profile = WorkloadProfile { distinct_keys: 144, shard_capacity: 36 };
        let truth = FleetModel { scatter: 36.0, coordination: 1.0, floor: 0.5 };
        let sweep = sweep_from(truth, &[4, 6, 8]);
        let p = predict(profile, &sweep, 8).unwrap();
        assert_eq!(p.memory_floor, 4);
        assert_eq!(p.shards, 6, "{p:?}");
        assert!(p.speedup > 1.0);
    }

    #[test]
    fn memory_floor_overrides_a_smaller_interior_optimum() {
        // W = 4γ → P* = 2, but 144 keys over 36-entry caches need 4 shards.
        let profile = WorkloadProfile { distinct_keys: 144, shard_capacity: 36 };
        let truth = FleetModel { scatter: 4.0, coordination: 1.0, floor: 0.5 };
        let sweep = sweep_from(truth, &[4, 6, 8]);
        let p = predict(profile, &sweep, 8).unwrap();
        assert_eq!(p.shards, 4, "{p:?}");
    }

    #[test]
    fn no_sweep_degrades_to_the_memory_floor() {
        let profile = WorkloadProfile { distinct_keys: 144, shard_capacity: 36 };
        let p = predict(profile, &[], 8).unwrap();
        assert!(p.model.is_none());
        assert_eq!(p.shards, p.memory_floor);
        assert_eq!(p.shards, 4);
    }

    #[test]
    fn an_unholdable_workload_is_the_papers_infeasibility() {
        // 1024 keys, 16-entry caches, at most 4 shards: 64 cached keys
        // total can never hold the workload.
        let profile = WorkloadProfile { distinct_keys: 1024, shard_capacity: 16 };
        let err = predict(profile, &[], 4).unwrap_err();
        assert_eq!(err.kind(), "infeasible");
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn sizing_query_is_an_ordinary_wire_query() {
        // The prediction can ride the serving stack it predicts for.
        let profile = WorkloadProfile { distinct_keys: 64, shard_capacity: 16 };
        let query = sizing_query(profile, None, 8);
        let hash = parspeed_engine::routing_hash(&query);
        assert_eq!(hash, parspeed_engine::routing_hash(&query.clone()));
    }
}
