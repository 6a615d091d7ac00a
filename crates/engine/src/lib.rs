//! `parspeed-engine` — the service surface of the workspace: a
//! batched, cached, parallel query engine over the models, simulators,
//! and solvers of the Nicol & Willard reproduction.
//!
//! The paper answers point queries — optimal processor count, minimum
//! gainful problem size, speedup — for one (architecture, workload) pair
//! at a time. At serving scale the unit of work is a *batch* of thousands
//! of such queries, most of them near-duplicates. This crate turns the
//! whole workspace into one serving-shaped subsystem:
//!
//! 1. **Queries** ([`request`], [`jsonl`]) — the public surface: typed
//!    [`Query`] values, written as literals or parsed from a wire line
//!    ([`jsonl::parse_query`]), and answered in batches by
//!    [`Engine::run_batch`], the one way in;
//! 2. **Planner** ([`plan`]) — expands macro-queries (grid sweeps,
//!    all-architecture compares) into atomic evaluations, canonicalizes
//!    each into an [`EvalKey`] (presets, named stencils, and equivalent
//!    explicit constants collapse together), and dedups the batch. A key
//!    is built from the model crates' own types — [`PartitionShape`],
//!    [`ProcessorBudget`], [`BusVariant`] and [`KernelKind`] — and from
//!    the three key types [`request`] adds for floats, which hash by
//!    their bits: [`F64Key`](request::F64Key), [`MachineKey`](request::MachineKey)
//!    and [`CheckKey`];
//! 3. **Cache** ([`cache`]) — a sharded LRU from canonical keys to
//!    outcomes with hit/miss/eviction counters, so repeated traffic
//!    short-circuits across batches;
//! 4. **Executor** ([`exec`]) — shards the remaining unique keys across a
//!    rayon thread pool and evaluates them: analytic queries through
//!    `parspeed-core`, event-level simulations through `parspeed-arch`,
//!    real solves through `parspeed-solver`/`parspeed-exec`. Impure
//!    queries (wall-clock measurements, experiment regenerations) run
//!    sequentially after the parallel phase and are never cached.
//!
//! Failures speak one language, [`ParspeedError`] ([`error`]), at every
//! layer. Responses are **bit-identical** to direct calls into the
//! underlying crates — canonicalization never rounds, the cache stores
//! exact outcomes, and the tests pin this down — and every batch returns
//! [`BatchTelemetry`] (wall time, queries/s, dedup factor, cache hit
//! rate).
//!
//! ```
//! use parspeed_engine::{
//!     ArchKind, Engine, MachineSpec, PartitionShape, Query, StencilSpec, WorkloadSpec,
//! };
//!
//! let engine = Engine::builder().build();
//! let q = Query::Optimize {
//!     arch: ArchKind::SyncBus,
//!     machine: MachineSpec::default(),
//!     workload: WorkloadSpec {
//!         n: 256,
//!         stencil: StencilSpec::FivePoint,
//!         shape: PartitionShape::Square,
//!     },
//!     procs: Some(64),
//!     memory_words: None,
//! };
//! // 1000 copies of the same query: one evaluation, 1000 answers.
//! let out = engine.run_batch(&vec![q; 1000]);
//! assert_eq!(out.telemetry.unique, 1);
//! assert_eq!(out.responses.len(), 1000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod exec;
pub mod fxhash;
pub mod jsonl;
pub mod plan;
pub mod request;
pub mod telemetry;
pub mod workloads;

pub use cache::CacheStatsSnapshot;
pub use error::ParspeedError;
pub use exec::{checkpoint_key, ExperimentRunner};
pub use fxhash::{FxBuildHasher, FxHasher};
pub use jsonl::WIRE_VERSION;
pub use parspeed_core::minsize::BusVariant;
pub use parspeed_core::ProcessorBudget;
pub use parspeed_obs::{Recorder, Stage};
pub use parspeed_solver::{CheckpointPolicy, CheckpointStore};
pub use parspeed_stencil::{KernelKind, PartitionShape};
pub use plan::{routing_hash, Plan, PlanTiming, PointLabel, Slot};
pub use request::{
    ArchKind, CheckKey, CheckSpec, EffectKey, EvalKey, EvalOutcome, EvalValue, Lever, MachineSpec,
    Query, SimArchKind, SolverKind, StencilSpec, WorkloadSpec,
};
pub use telemetry::BatchTelemetry;

use cache::ShardedLru;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// One response, in the input order of the batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An atomic query's outcome.
    Single(EvalOutcome),
    /// A macro-query's outcomes (sweep points or compared architectures),
    /// one per expanded point, in deterministic grid order.
    Sweep(Vec<(PointLabel, EvalOutcome)>),
    /// The query was malformed; nothing was evaluated for it.
    Invalid(ParspeedError),
}

impl Response {
    /// The single outcome, if this is an atomic response.
    pub fn single(&self) -> Option<&EvalOutcome> {
        match self {
            Response::Single(out) => Some(out),
            _ => None,
        }
    }

    /// The expanded points, if this is a macro-query response.
    pub fn sweep(&self) -> Option<&[(PointLabel, EvalOutcome)]> {
        match self {
            Response::Sweep(points) => Some(points),
            _ => None,
        }
    }
}

/// A batch's responses plus its telemetry.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// One response per input query, in input order.
    pub responses: Vec<Response>,
    /// What the pipeline did.
    pub telemetry: BatchTelemetry,
}

/// Configuration for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    cache_capacity: usize,
    cache_shards: usize,
    threads: usize,
    experiment_runner: Option<ExperimentRunner>,
    checkpoints: Option<(Arc<CheckpointStore>, CheckpointPolicy)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_shards: 16,
            threads: 0,
            experiment_runner: None,
            checkpoints: None,
        }
    }
}

/// The default result-cache capacity, in cached outcomes
/// (see [`EngineBuilder::cache_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

impl EngineBuilder {
    /// Total cached outcomes kept across batches. Defaults to
    /// [`DEFAULT_CACHE_CAPACITY`] (65 536 entries) — the CLI exposes this
    /// as `--cache-capacity` on `parspeed batch`, `serve` and `route`.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Number of cache shards (default 16).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Executor worker threads; 0 (default) sizes every parallel operation
    /// from its own work (rayon's `with_work`), 1 runs strictly
    /// sequentially, and any other count pins that many threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Registers the hook that serves [`Query::Experiment`] requests (the
    /// experiment harness lives above this crate). Without one, experiment
    /// queries answer [`ParspeedError::Unsupported`].
    pub fn experiment_runner(mut self, runner: ExperimentRunner) -> Self {
        self.experiment_runner = Some(runner);
        self
    }

    /// Enables checkpoint/restart for long solves: snapshots land in
    /// `store` at `policy`'s cadence, and a solve whose key already has a
    /// snapshot (left by an interrupted evaluation) resumes from it
    /// instead of restarting at iteration zero. Share one store
    /// (`Arc`-clone it into every engine of a fleet) so a solve killed on
    /// one shard resumes on the shard it fails over to. Resumed answers
    /// are bit-identical to uninterrupted ones; the reply carries
    /// `resumed_from` as provenance.
    pub fn checkpoints(mut self, store: Arc<CheckpointStore>, policy: CheckpointPolicy) -> Self {
        self.checkpoints = Some((store, policy));
        self
    }

    /// Builds the engine. A fixed thread count builds the worker pool
    /// here, once — the per-batch path only borrows it.
    pub fn build(self) -> Engine {
        let pool = (self.threads > 0).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(self.threads)
                .build()
                .expect("engine thread pool")
        });
        Engine {
            cache: ShardedLru::new(self.cache_capacity, self.cache_shards),
            threads: self.threads,
            pool,
            experiment_runner: self.experiment_runner,
            checkpoints: self.checkpoints,
            recorder: RwLock::new(None),
        }
    }
}

/// The query engine: owns the result cache; stateless otherwise. Batches
/// may be submitted from multiple threads (`&self`) through
/// [`run_batch`](Engine::run_batch), the one way in.
pub struct Engine {
    cache: ShardedLru<EvalKey, EvalOutcome>,
    threads: usize,
    pool: Option<rayon::ThreadPool>,
    experiment_runner: Option<ExperimentRunner>,
    checkpoints: Option<(Arc<CheckpointStore>, CheckpointPolicy)>,
    /// Per-stage latency recorder, installed by a serving layer (or any
    /// embedder) through [`Engine::set_recorder`]. `None` — the
    /// default — skips every clock read in [`run_batch`](Engine::run_batch),
    /// so the library path costs nothing when observability is off.
    recorder: RwLock<Option<Arc<dyn Recorder>>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts a configuration builder. Defaults: a result cache of
    /// [`DEFAULT_CACHE_CAPACITY`] (65 536) outcomes across 16 shards,
    /// executor parallelism sized per operation, and no experiment runner.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Runs one batch through plan → cache → execute → assemble and
    /// answers one response per query, in input order. This is the one
    /// way into the engine: the CLI and the serving tier's batcher both
    /// call it. Impure effect queries (thread measurements, experiments)
    /// execute sequentially after the parallel phase.
    ///
    /// With a [`Recorder`] installed (see [`set_recorder`](Engine::set_recorder))
    /// the phases report per-stage wall time: `plan` (expansion +
    /// canonicalization), `dedup` (interning), `cache` (probes +
    /// insertions), and `exec` (parallel evaluation + sequential
    /// effects). Without one, no clocks beyond the single telemetry
    /// timestamp are read.
    pub fn run_batch(&self, queries: &[Query]) -> BatchOutput {
        let recorder = self.recorder.read().unwrap().clone();
        let t0 = Instant::now();
        let plan = match &recorder {
            None => Plan::build(queries),
            Some(rec) => {
                let (plan, timing) = Plan::build_timed(queries);
                rec.record(Stage::Plan, timing.plan_nanos);
                rec.record(Stage::Dedup, timing.dedup_nanos);
                plan
            }
        };

        // Cache probe: split unique keys into hits and misses.
        let t_cache = recorder.as_ref().map(|_| Instant::now());
        let mut outcomes: Vec<Option<EvalOutcome>> = Vec::with_capacity(plan.unique.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, key) in plan.unique.iter().enumerate() {
            let cached = self.cache.get(key);
            if cached.is_none() {
                miss_idx.push(i);
            }
            outcomes.push(cached);
        }
        let cache_hits = plan.unique.len() - miss_idx.len();
        let mut cache_nanos = t_cache.map_or(0, |t| t.elapsed().as_nanos() as u64);

        // Evaluate the misses in parallel, in deterministic key order.
        let t_exec = recorder.as_ref().map(|_| Instant::now());
        let miss_keys: Vec<EvalKey> = miss_idx.iter().map(|&i| plan.unique[i]).collect();
        let ckpt = self.checkpoints.as_ref().map(|(store, policy)| (store.as_ref(), *policy));
        let fresh = exec::evaluate_all_ckpt(&miss_keys, self.pool.as_ref(), ckpt);
        let mut exec_nanos = t_exec.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let t_insert = recorder.as_ref().map(|_| Instant::now());
        for (&i, outcome) in miss_idx.iter().zip(fresh) {
            // The cache stores the normalized outcome: `resumed_from` is
            // provenance of *this* evaluation (the value itself is
            // bit-identical either way), and a later cache hit did not
            // resume anything.
            self.cache.insert(plan.unique[i], normalize_resume(&outcome));
            outcomes[i] = Some(outcome);
        }
        cache_nanos += t_insert.map_or(0, |t| t.elapsed().as_nanos() as u64);

        // Effects run after the parallel phase, one at a time, so
        // wall-clock measurements see a quiet machine.
        let t_effects = recorder.as_ref().map(|_| Instant::now());
        let effect_outcomes: Vec<EvalOutcome> = plan
            .effects
            .iter()
            .map(|effect| exec::run_effect(effect, self.experiment_runner))
            .collect();
        exec_nanos += t_effects.map_or(0, |t| t.elapsed().as_nanos() as u64);
        if let Some(rec) = &recorder {
            rec.record(Stage::Cache, cache_nanos);
            rec.record(Stage::Exec, exec_nanos);
        }

        // Assemble responses in input order.
        let resolve =
            |i: usize| -> EvalOutcome { outcomes[i].clone().expect("every unique key resolved") };
        let responses: Vec<Response> = plan
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Single(i) => Response::Single(resolve(*i)),
                Slot::Sweep(points) => Response::Sweep(
                    points.iter().map(|(label, i)| (label.clone(), resolve(*i))).collect(),
                ),
                Slot::Effect(i) => Response::Single(effect_outcomes[*i].clone()),
                Slot::Invalid(e) => Response::Invalid(e.clone()),
            })
            .collect();

        BatchOutput {
            responses,
            telemetry: BatchTelemetry {
                queries: queries.len(),
                atoms: plan.atoms,
                unique: plan.unique.len(),
                cache_hits,
                evaluated: miss_idx.len(),
                effects: plan.effects.len(),
                threads: self.threads,
                wall_seconds: t0.elapsed().as_secs_f64(),
            },
        }
    }

    /// Installs (or, with `None`, removes) the per-stage latency
    /// recorder [`run_batch`](Engine::run_batch) reports through. A
    /// serving layer installs its stage set here, so the engine never
    /// learns the server exists, and removes it when it shuts down.
    pub fn set_recorder(&self, recorder: Option<Arc<dyn Recorder>>) {
        *self.recorder.write().unwrap() = recorder;
    }

    /// True when `query` would be answered entirely from the result
    /// cache: every unique evaluation it plans to is resident, and the
    /// query is a pure evaluation (effect queries — thread
    /// measurements, experiments — are never cached, and invalid
    /// queries have nothing to serve). A pure peek: neither recency nor
    /// the hit/miss counters move, so probing is free of observable
    /// side effects. This is the engine half of the serving tier's
    /// brownout mode — under pressure a server can answer exactly the
    /// queries this says are warm and shed the rest.
    pub fn is_cached(&self, query: &Query) -> bool {
        let plan = Plan::build(std::slice::from_ref(query));
        match &plan.slots[0] {
            Slot::Effect(_) | Slot::Invalid(_) => false,
            Slot::Single(_) | Slot::Sweep(_) => {
                plan.unique.iter().all(|key| self.cache.contains(key))
            }
        }
    }

    /// The checkpoint store this engine snapshots into, when
    /// checkpoint/restart is enabled (see [`EngineBuilder::checkpoints`]).
    /// Serving layers aggregate its counters into their metrics.
    pub fn checkpoint_store(&self) -> Option<&Arc<CheckpointStore>> {
        self.checkpoints.as_ref().map(|(store, _)| store)
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// Live cached outcomes.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// The cache-ready copy of an outcome: a resumed solve is stored as if it
/// had run uninterrupted.
fn normalize_resume(outcome: &EvalOutcome) -> EvalOutcome {
    let mut normalized = outcome.clone();
    if let Ok(EvalValue::Solve { resumed_from: resumed @ Some(_), .. }) = &mut normalized {
        *resumed = None;
    }
    normalized
}

/// The naive baseline the engine is benchmarked against: evaluates every
/// atom of every query sequentially, with no dedup, no cache, and no
/// thread pool — exactly what a caller looping over direct point calls
/// would do. Effect queries run with no experiment runner (register one
/// through [`EngineBuilder::experiment_runner`] and use the engine for
/// those).
pub fn eval_naive(queries: &[Query]) -> Vec<Response> {
    queries
        .iter()
        .map(|q| {
            let plan = Plan::build(std::slice::from_ref(q));
            match &plan.slots[0] {
                Slot::Single(i) => Response::Single(exec::evaluate(&plan.unique[*i])),
                Slot::Sweep(points) => Response::Sweep(
                    points
                        .iter()
                        .map(|(label, i)| (label.clone(), exec::evaluate(&plan.unique[*i])))
                        .collect(),
                ),
                Slot::Effect(i) => Response::Single(exec::run_effect(&plan.effects[*i], None)),
                Slot::Invalid(e) => Response::Invalid(e.clone()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: usize, procs: Option<usize>) -> Query {
        Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs,
            memory_words: None,
        }
    }

    fn table1(n: usize) -> Query {
        Query::Table1 { machine: MachineSpec::default(), n, stencil: StencilSpec::FivePoint }
    }

    fn compare(n: usize) -> Query {
        Query::Compare {
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: None,
        }
    }

    #[test]
    fn batch_matches_naive_exactly() {
        let batch: Vec<Query> = (1..=50).map(|i| q(32 + 7 * i, Some(i))).collect();
        let engine = Engine::builder().build();
        let fast = engine.run_batch(&batch);
        let slow = eval_naive(&batch);
        assert_eq!(fast.responses, slow);
    }

    #[test]
    fn duplicates_cost_one_evaluation() {
        let engine = Engine::builder().build();
        let out = engine.run_batch(&vec![q(256, Some(64)); 500]);
        assert_eq!(out.telemetry.atoms, 500);
        assert_eq!(out.telemetry.unique, 1);
        assert_eq!(out.telemetry.evaluated, 1);
        assert!((out.telemetry.dedup_factor() - 500.0).abs() < 1e-12);
        let first = out.responses[0].clone();
        assert!(out.responses.iter().all(|r| *r == first));
    }

    #[test]
    fn cache_carries_across_batches_without_changing_answers() {
        let engine = Engine::builder().build();
        let batch: Vec<Query> = (1..=30).map(|i| q(64 * i, None)).collect();
        let cold = engine.run_batch(&batch);
        assert_eq!(cold.telemetry.cache_hits, 0);
        assert_eq!(cold.telemetry.evaluated, 30);
        let warm = engine.run_batch(&batch);
        assert_eq!(warm.telemetry.cache_hits, 30);
        assert_eq!(warm.telemetry.evaluated, 0);
        assert_eq!(cold.responses, warm.responses);
    }

    #[test]
    fn invalid_queries_answer_in_place_without_poisoning_the_batch() {
        let engine = Engine::builder().build();
        let out = engine.run_batch(&[q(128, None), q(0, None), q(256, None)]);
        assert!(matches!(out.responses[0], Response::Single(Ok(_))));
        assert!(
            matches!(&out.responses[1], Response::Invalid(e) if e.to_string().contains("positive"))
        );
        assert!(matches!(out.responses[2], Response::Single(Ok(_))));
        assert_eq!(out.telemetry.atoms, 2);
    }

    /// The server hands each response to the job whose query sat at
    /// that position, so a batch interleaving several clients' queries
    /// must answer each query at its own index, exactly as if it ran
    /// alone, with duplicates coalesced onto one evaluation.
    #[test]
    fn interleaved_batches_answer_by_position_and_share_duplicates() {
        let engine = Engine::builder().build();
        let batch = [q(256, None), table1(512), q(256, None), compare(128)];
        let out = engine.run_batch(&batch);
        assert_eq!(out.responses.len(), batch.len());
        for (i, query) in batch.iter().enumerate() {
            let alone = Engine::builder().build().run_batch(std::slice::from_ref(query));
            assert_eq!(out.responses[i], alone.responses[0], "slot {i}");
        }
        assert_eq!(out.responses[0], out.responses[2]);
        assert_eq!(out.telemetry.unique, out.telemetry.atoms - 1);
    }

    #[test]
    fn mixed_kind_requests_answer_in_order() {
        let engine = Engine::builder().build();
        let out = engine.run_batch(&[
            table1(512),
            compare(128),
            Query::MinSize {
                variant: BusVariant::SyncSquare,
                machine: MachineSpec::default(),
                e: 6.0,
                k: 1.0,
                procs: 14,
            },
        ]);
        assert!(matches!(&out.responses[0], Response::Single(Ok(EvalValue::Table1 { .. }))));
        assert!(matches!(&out.responses[1], Response::Sweep(points) if points.len() == 6));
        assert!(matches!(&out.responses[2], Response::Single(Ok(EvalValue::MinSize { .. }))));
    }

    #[test]
    fn an_overflowing_grid_side_answers_in_its_slot_only() {
        // 2³² squared wraps a usize, and a panic in one evaluation fails
        // the whole batch, so the planner refuses the side in its slot.
        let batch = [q(256, Some(64)), q(1 << 32, None), compare(128)];
        let out = Engine::builder().threads(1).build().run_batch(&batch);
        assert!(matches!(&out.responses[1], Response::Invalid(e) if e.kind() == "invalid_request"));
        for i in [0, 2] {
            let alone = Engine::builder().build().run_batch(std::slice::from_ref(&batch[i]));
            assert_eq!(out.responses[i], alone.responses[0], "slot {i}");
        }
    }

    #[test]
    fn is_cached_tracks_the_result_cache_without_touching_it() {
        let engine = Engine::builder().build();
        assert!(!engine.is_cached(&q(128, None)), "cold cache has nothing");
        engine.run_batch(&[q(128, None)]);
        let stats_before = engine.cache_stats();
        assert!(engine.is_cached(&q(128, None)));
        assert!(!engine.is_cached(&q(256, None)));
        // Probing moved no counters: it must be invisible on the
        // admission path.
        let stats_after = engine.cache_stats();
        assert_eq!(
            (stats_before.hits, stats_before.misses),
            (stats_after.hits, stats_after.misses)
        );
        // Invalid and effect queries are never "cached".
        assert!(!engine.is_cached(&q(0, None)));
        assert!(!engine.is_cached(&Query::Experiment { id: "e1".into(), quick: true }));
    }

    #[test]
    fn tiny_cache_still_answers_correctly() {
        let engine = Engine::builder().cache_capacity(2).cache_shards(1).build();
        let batch: Vec<Query> = (1..=20).map(|i| q(32 * i, None)).collect();
        let a = engine.run_batch(&batch);
        let b = engine.run_batch(&batch);
        assert_eq!(a.responses, b.responses);
        assert!(engine.cache_len() <= 2);
        assert!(engine.cache_stats().evictions > 0);
    }

    #[test]
    fn sequential_engine_matches_parallel_engine() {
        let batch: Vec<Query> = (1..=40).map(|i| q(48 * i, Some(i * 2))).collect();
        let seq = Engine::builder().threads(1).build().run_batch(&batch);
        let par = Engine::builder().threads(4).build().run_batch(&batch);
        assert_eq!(seq.responses, par.responses);
    }

    #[test]
    fn installed_recorder_attributes_engine_stages_without_changing_answers() {
        use parspeed_obs::StageSet;
        let engine = Engine::builder().build();
        let batch = vec![q(256, Some(64)); 100];
        let bare = engine.run_batch(&batch);

        let recorder = Arc::new(StageSet::new());
        engine.set_recorder(Some(recorder.clone()));
        let observed = engine.run_batch(&batch);
        assert_eq!(bare.responses, observed.responses);
        for stage in [Stage::Plan, Stage::Dedup, Stage::Cache, Stage::Exec] {
            assert_eq!(recorder.snapshot(stage).count(), 1, "one sample per batch for {stage:?}");
        }
        // The serving-layer stages are not the engine's to report.
        for stage in [Stage::Queue, Stage::Window, Stage::Route] {
            assert_eq!(recorder.snapshot(stage).count(), 0, "{stage:?} belongs to the server");
        }

        // Uninstalling stops attribution cold.
        engine.set_recorder(None);
        engine.run_batch(&batch);
        assert_eq!(recorder.snapshot(Stage::Plan).count(), 1);
    }

    #[test]
    fn effect_queries_execute_and_count_in_telemetry() {
        let engine = Engine::builder().build();
        let out = engine.run_batch(&[
            q(128, None),
            Query::Threads {
                n: 32,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Strip,
                threads: vec![1],
                iters: 1,
                repeats: 1,
            },
        ]);
        assert_eq!(out.telemetry.effects, 1);
        assert_eq!(out.telemetry.atoms, 1);
        assert!(matches!(
            &out.responses[1],
            Response::Single(Ok(EvalValue::Threads { points })) if points.len() == 1
        ));
    }
}
