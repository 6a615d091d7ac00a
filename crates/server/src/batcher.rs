//! The cross-client micro-batcher: a bounded submission queue with a
//! time/size window, drained by worker threads into single
//! [`Engine::run_batch`] batches.
//!
//! The window trades latency for problem size, exactly the paper's
//! optimal-speedup tradeoff applied to the serving layer: the first
//! request to arrive at an empty queue opens a window of
//! [`ServerConfig::window`]; until it closes, further requests from *any*
//! connection join the same pending set; the batch fires when the window
//! expires, when [`ServerConfig::max_batch`] requests are pending, or
//! immediately once the server is draining. One engine batch then pays
//! the planning/dedup/cache coordination cost once for everyone.
//!
//! Admission control is a hard bound on the pending set
//! ([`ServerConfig::queue_depth`]): a request arriving at a full queue is
//! answered in its own reply slot with an
//! [`overloaded`](parspeed_engine::ParspeedError::Overloaded) error — the
//! connection is never stalled or dropped, and nothing is ever admitted
//! that cannot be replied to. Draining behaves the same way: accepted
//! requests are all flushed, late ones get the overload answer.

use crate::conn::{ConnShared, ReplyShape};
use crate::metrics::{ns_between, MetricsSnapshot, ServerObs};
use crate::stats::{Counters, ServerStats};
use crate::ServerConfig;
use parspeed_chaos::{FaultAction, FaultPlan};
use parspeed_engine::{jsonl, Engine, ParspeedError, Query, Response};
use parspeed_obs::{ResilienceCounters, Stage, TraceEvent};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One admitted (or about-to-be-refused) request on its way to the
/// engine: the query plus everything needed to route its reply.
pub(crate) struct Job {
    /// The submitting connection.
    pub conn: Arc<ConnShared>,
    /// Connection-local sequence number: the reply slot, or for a
    /// [`ReplyTo::Complete`] job the submitter's tag.
    pub seq: u64,
    /// The parsed query.
    pub query: Query,
    /// Where the reply goes.
    pub reply_to: ReplyTo,
    /// When admission accepted the request (`queue` stage start).
    pub submitted: Instant,
    /// Absolute expiry: past it, the slot answers `deadline_exceeded`
    /// instead of entering the engine (`None` = no deadline).
    pub deadline: Option<Instant>,
}

/// Where a job's reply goes.
pub(crate) enum ReplyTo {
    /// The connection's reorder slot `seq`, in the slot's shape.
    Slot(ReplyShape),
    /// A completion the worker runs with the reply; no reorder slot.
    Complete(Box<dyn FnOnce(Response) + Send>),
}

#[derive(Default)]
struct SubmissionQueue {
    jobs: VecDeque<Job>,
    /// When the currently open window closes; `Some` iff jobs is
    /// non-empty.
    deadline: Option<Instant>,
    /// When the currently open window opened (`window` stage start);
    /// `Some` iff jobs is non-empty.
    opened: Option<Instant>,
    draining: bool,
}

/// Everything the workers, submitters, and frontends share.
pub(crate) struct Shared {
    pub engine: Arc<Engine>,
    pub cfg: ServerConfig,
    pub counters: Counters,
    /// Per-stage histograms, trace ring, batch ids. Shared with every
    /// connection (route timing) and installed into the engine.
    pub obs: Arc<ServerObs>,
    /// Recovery-action counters (the `metrics` op's `resilience`
    /// section): deadline misses, shed requests, caught panics.
    pub resilience: Arc<ResilienceCounters>,
    /// The installed fault plan, if any (`Server::install_fault_plan`).
    pub faults: Mutex<Option<Arc<FaultPlan>>>,
    /// Whether brownout (cache-only degradation) is currently active.
    /// Only moves when [`ServerConfig::brownout`] is set; updated under
    /// the queue lock, read lock-free by `metrics`.
    brownout_active: AtomicBool,
    /// Worker panics the fault plan has scheduled but not yet fired
    /// (consumed by the next batch, inside the panic shield).
    pending_panics: AtomicU64,
    /// Injected latency (ms) the next batch must sleep before serving.
    pending_delay_ms: AtomicU64,
    queue: Mutex<SubmissionQueue>,
    cv: Condvar,
}

impl Shared {
    pub fn new(engine: Arc<Engine>, cfg: ServerConfig) -> Self {
        if let Some(b) = cfg.brownout {
            assert!(b.exit < b.enter, "brownout exit watermark must be below enter");
        }
        Shared {
            engine,
            cfg,
            counters: Counters::default(),
            obs: Arc::new(ServerObs::new(cfg.observe, cfg.trace)),
            resilience: Arc::new(ResilienceCounters::new()),
            faults: Mutex::new(None),
            brownout_active: AtomicBool::new(false),
            pending_panics: AtomicU64::new(0),
            pending_delay_ms: AtomicU64::new(0),
            queue: Mutex::new(SubmissionQueue::default()),
            cv: Condvar::new(),
        }
    }

    /// Whether cache-only degradation is active right now.
    pub fn in_brownout(&self) -> bool {
        self.brownout_active.load(Ordering::Relaxed)
    }

    /// Admission control: queue the job, or answer its slot with an
    /// `overloaded` error on a full queue / draining server. Never
    /// blocks beyond the queue lock and never disconnects anyone.
    ///
    /// With brownout watermarks configured, pressure degrades service
    /// before refusing it outright: once the queue reaches the `enter`
    /// watermark, only requests the engine's result cache holds
    /// ([`Engine::is_cached`]) are admitted — cold ones shed with the
    /// overload answer — until the queue falls back to `exit`.
    pub fn submit(&self, job: Job) {
        self.counters.add(&self.counters.submitted, 1);
        if let Some(plan) = self.faults.lock().unwrap().clone() {
            self.apply_faults(&plan);
        }
        // The cache probe takes cache-shard locks and (for sweeps) a
        // plan expansion — do it before the queue lock, and only when
        // brownout is configured at all.
        let warm = self.cfg.brownout.is_some() && self.engine.is_cached(&job.query);
        let mut q = self.queue.lock().unwrap();
        if let Some(b) = self.cfg.brownout {
            if q.jobs.len() >= b.enter {
                self.brownout_active.store(true, Ordering::Relaxed);
            } else if q.jobs.len() <= b.exit {
                self.brownout_active.store(false, Ordering::Relaxed);
            }
        }
        let refusal = if q.draining {
            Some("server is draining for shutdown; request refused (not evaluated)".to_string())
        } else if q.jobs.len() >= self.cfg.queue_depth {
            Some(format!(
                "server overloaded: submission queue is full ({} pending); \
                 request refused (not evaluated), retry later",
                q.jobs.len()
            ))
        } else if self.brownout_active.load(Ordering::Relaxed) && !warm {
            ResilienceCounters::bump(&self.resilience.shed);
            Some(format!(
                "server in brownout (queue depth {} over watermark): cold request shed \
                 (not evaluated), retry later; cached requests still answer",
                q.jobs.len()
            ))
        } else {
            None
        };
        match refusal {
            None => {
                if q.jobs.is_empty() {
                    let now = Instant::now();
                    q.deadline = Some(now + self.cfg.window);
                    q.opened = Some(now);
                }
                q.jobs.push_back(job);
                self.counters.raise(&self.counters.queue_high_watermark, q.jobs.len() as u64);
                self.cv.notify_one();
            }
            Some(msg) => {
                drop(q);
                deliver_overload(job, msg, &self.counters, &self.obs);
            }
        }
    }

    /// Ticks the installed fault plan for one submission and arms the
    /// actions a standalone server can express: `panic` fires inside
    /// the next batch (under the panic shield), `delay` stalls the next
    /// batch. Ring-level actions are recorded and ignored — a lone
    /// server has no ring.
    fn apply_faults(&self, plan: &FaultPlan) {
        for action in plan.on_request() {
            match action {
                FaultAction::PanicWorker => {
                    self.pending_panics.fetch_add(1, Ordering::SeqCst);
                    plan.record("server: armed worker panic for the next batch");
                }
                FaultAction::DelayLane { shard, millis } => {
                    self.pending_delay_ms.fetch_add(millis, Ordering::SeqCst);
                    plan.record(format!("server: armed {millis} ms delay (lane {shard})"));
                }
                other => plan.record(format!("server: ignoring ring-level fault {other}")),
            }
        }
    }

    /// Whether the server is draining for shutdown.
    pub fn is_draining(&self) -> bool {
        self.queue.lock().unwrap().draining
    }

    /// A consistent counter snapshot: `queue_depth` and `draining` are
    /// read under one queue-lock acquisition (they can never disagree
    /// with each other), then the counters under their own ordering
    /// point (see [`Counters::snapshot`]).
    pub fn stats(&self) -> ServerStats {
        let (depth, draining) = {
            let q = self.queue.lock().unwrap();
            (q.jobs.len(), q.draining)
        };
        self.counters.snapshot(depth, draining)
    }

    /// The full observability snapshot (the `metrics` op).
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stats: self.stats(),
            stages: self.obs.stage_summaries(),
            resilience: self.resilience.snapshot(),
            brownout: self.in_brownout(),
            latency: self.obs.latency_summary(),
        }
    }

    /// The lightweight liveness record (the `health` op): uptime, the
    /// drain flag, and the shard id — one queue-lock acquisition, no
    /// counter snapshot — plus the additive `brownout` flag (cache-only
    /// degradation active right now). New fields append after the
    /// frozen six-field prefix, so positional probes of the original
    /// record keep working.
    pub fn health(&self) -> jsonl::Json {
        let mut json = crate::stats::health_to_json(
            self.obs.uptime_seconds(),
            self.is_draining(),
            self.cfg.shard,
        );
        if let jsonl::Json::Obj(fields) = &mut json {
            fields.push(("brownout".into(), jsonl::Json::Bool(self.in_brownout())));
        }
        json
    }

    /// Starts the drain: no further admissions; pending batches fire
    /// immediately; workers exit once the queue is empty.
    pub fn drain(&self) {
        self.queue.lock().unwrap().draining = true;
        self.cv.notify_all();
    }

    /// One worker thread: collect a window's batch, execute, route.
    pub fn worker_loop(&self) {
        loop {
            let (batch, opened, popped) = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if q.jobs.is_empty() {
                        if q.draining {
                            return;
                        }
                        q = self.cv.wait(q).unwrap();
                        continue;
                    }
                    let now = Instant::now();
                    let deadline = q.deadline.expect("deadline set while jobs pending");
                    if q.draining || q.jobs.len() >= self.cfg.max_batch || now >= deadline {
                        let take = q.jobs.len().min(self.cfg.max_batch);
                        let batch: Vec<Job> = q.jobs.drain(..take).collect();
                        let opened = q.opened.take().expect("opened set while jobs pending");
                        // Leftovers beyond max_batch already waited a full
                        // window — let the next batch fire immediately.
                        q.deadline = (!q.jobs.is_empty()).then_some(now);
                        q.opened = (!q.jobs.is_empty()).then_some(now);
                        if !q.jobs.is_empty() {
                            self.cv.notify_one();
                        }
                        break (batch, opened, now);
                    }
                    (q, _) = self.cv.wait_timeout(q, deadline - now).unwrap();
                }
            };
            // `queue` is per request (submit → popped with its batch);
            // `window` is per batch (window open → fire) and overlaps
            // the tail of `queue` by construction — end-to-end
            // accounting should sum `queue`, not both.
            for job in &batch {
                self.obs.record(Stage::Queue, ns_between(job.submitted, popped));
            }
            self.obs.record(Stage::Window, ns_between(opened, popped));
            self.execute(batch, popped);
        }
    }

    /// Runs one coalesced batch through the engine and routes every
    /// reply to its slot. `popped` is when the batch left the queue
    /// (the per-request `queue` stage end, used for trace events).
    ///
    /// Two failure paths resolve here, both in-slot: a job whose
    /// deadline expired while it queued answers `deadline_exceeded`
    /// without entering the engine, and a worker panic mid-batch (an
    /// engine bug, or an injected `panic` fault) is caught by a panic
    /// shield that answers every slot with the `internal` error and
    /// keeps the worker alive — an admitted request is answered no
    /// matter what happens to its batch.
    fn execute(&self, jobs: Vec<Job>, popped: Instant) {
        let c = &self.counters;

        // Injected straggler latency fires before the deadline check, so
        // a delayed batch can push queued requests past their budgets —
        // exactly the failure the deadline exists to bound.
        let delay_ms = self.pending_delay_ms.swap(0, Ordering::SeqCst);
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }

        let now = Instant::now();
        let (jobs, expired): (Vec<Job>, Vec<Job>) =
            jobs.into_iter().partition(|j| j.deadline.is_none_or(|d| now < d));
        if !expired.is_empty() {
            let _group = c.batch_group();
            c.add(&c.completed, expired.len() as u64);
            for job in expired {
                ResilienceCounters::bump(&self.resilience.deadline_missed);
                deliver(
                    job,
                    Response::Invalid(ParspeedError::deadline_exceeded(
                        "deadline expired while the request queued; result not produced \
                         (the request was not evaluated)",
                    )),
                    &self.obs,
                );
            }
        }
        if jobs.is_empty() {
            return;
        }

        let batch_id = self.obs.next_batch_id();
        let clients: HashSet<u64> = jobs.iter().map(|j| j.conn.id).collect();
        let queries: Vec<Query> = jobs.iter().map(|j| j.query.clone()).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let armed = self
                .pending_panics
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if armed {
                panic!("injected worker panic (fault plan)");
            }
            self.engine.run_batch(&queries)
        }));
        let out = outcome.ok();
        if out.is_none() {
            // The shield: the batch died mid-run, but every admitted
            // slot still answers, and this worker thread survives to
            // serve the next batch.
            ResilienceCounters::bump(&self.resilience.worker_panics);
            if let Some(plan) = self.faults.lock().unwrap().clone() {
                plan.record(format!(
                    "server: worker panic caught; {} slot(s) answered internal",
                    jobs.len()
                ));
            }
        }
        let telemetry = out.as_ref().map(|out| out.telemetry);
        let engine_nanos = telemetry.map_or(0, |t| (t.wall_seconds * 1e9) as u64);
        {
            // Post the whole batch's counters as one unit: a snapshot
            // either sees all of this batch or none.
            let _group = c.batch_group();
            c.add(&c.batches, 1);
            c.add(&c.batched_requests, jobs.len() as u64);
            c.raise(&c.max_batch_fill, jobs.len() as u64);
            if let Some(t) = telemetry {
                c.add(&c.atoms, t.atoms as u64);
                c.add(&c.unique, t.unique as u64);
                c.add(&c.cache_hits, t.cache_hits as u64);
                c.add(&c.engine_nanos, engine_nanos);
                if clients.len() > 1 {
                    c.add(&c.cross_client_batches, 1);
                    c.add(&c.cross_client_dedup_hits, (t.atoms - t.unique) as u64);
                }
            }
            c.add(&c.completed, jobs.len() as u64);
        }
        let Some(out) = out else {
            for job in jobs {
                deliver(
                    job,
                    Response::Invalid(ParspeedError::Internal(
                        "worker panicked while serving the batch; the request may or may \
                         not have been evaluated"
                            .into(),
                    )),
                    &self.obs,
                );
            }
            return;
        };
        if self.obs.tracing() {
            // Cache-hit attribution is batch-level: after dedup a cached
            // key may have served many requests at once, so per-request
            // blame is not well defined.
            let cache_hit = out.telemetry.cache_hits > 0;
            for job in &jobs {
                self.obs.trace_push(TraceEvent {
                    at_ns: self.obs.ns_since_epoch(job.submitted),
                    client: job.conn.id,
                    seq: job.seq,
                    op: jsonl::op_name(&job.query),
                    batch: batch_id,
                    cache_hit,
                    queue_ns: ns_between(job.submitted, popped),
                    batch_ns: engine_nanos,
                });
            }
        }
        for (job, response) in jobs.into_iter().zip(out.responses) {
            deliver(job, response, &self.obs);
        }
    }
}

/// Routes one response to its job's slot, or hands it to the job's
/// completion. The single delivery funnel — every reply passes here, so
/// the one end-to-end latency sample per request (admission to reply
/// routed, the `metrics` op's SLO percentiles) can never be missed or
/// doubled.
pub(crate) fn deliver(job: Job, response: Response, obs: &ServerObs) {
    obs.record_latency(ns_between(job.submitted, Instant::now()));
    match job.reply_to {
        ReplyTo::Slot(shape) => job.conn.answer(job.seq, &job.query, response, shape),
        ReplyTo::Complete(done) => done(response),
    }
}

/// Answers a refused job's slot with the documented `overloaded` error.
pub(crate) fn deliver_overload(job: Job, msg: String, counters: &Counters, obs: &ServerObs) {
    counters.add(&counters.overloaded, 1);
    deliver(job, Response::Invalid(ParspeedError::overloaded(msg)), obs);
}
