//! `parspeed-router` — the sharded serving tier: a consistent-hash
//! scatter/gather frontend over a fleet of [`parspeed_server::Server`]
//! backends, whose size the paper's own optimizer predicts.
//!
//! A single server already amortizes coordination cost across clients
//! (the micro-batcher) and across duplicate work (the engine's dedup and
//! result cache). What it cannot amortize is **capacity**: one backend
//! holds one result cache, and a workload with more distinct hot keys
//! than the cache holds thrashes — exactly the paper's per-processor
//! memory constraint (§3–§4) surfacing at the serving layer. The fix is
//! the paper's fix: partition the problem. The router owns `P` shard
//! backends, each a full server + engine, and routes every request by
//! consistent-hashing its **canonical cache key**
//! ([`parspeed_engine::routing_hash`]) onto a hash ring
//! ([`ring::HashRing`]). Duplicate traffic — however it is spelled —
//! always lands on the same shard, so the fleet's aggregate cache keeps
//! `P×` the keys warm and each shard's hit rate is what a dedicated
//! machine would see.
//!
//! The serving guarantees are the server's, extended across the fleet:
//!
//! * **per-connection ordered replies** — a backend reply settles its
//!   own origin slot, straight from the shard's batcher worker that
//!   produced it, through the exact seq-keyed reorder machinery
//!   ([`parspeed_server::ConnShared`]) a local server uses, so
//!   scattering across shards never reorders a connection's stream;
//! * **shard loss fails over, not disconnects** — killing a shard
//!   rebalances the ring (only the lost shard's keys move) and
//!   *redispatches* every retry-safe request in flight on it to the
//!   key's ring successor, with deterministic capped backoff
//!   ([`RetryPolicy`]); retry-unsafe requests (wall-clock measurements)
//!   answer the documented `overloaded` refusal carrying a
//!   machine-readable `retry_after_ms=` hint. No connection is ever
//!   dropped;
//! * **deadlines are answered, not dropped** — a request whose
//!   `deadline_ms` budget expires answers the `deadline_exceeded` kind
//!   in its own reply slot; the remaining budget travels with every
//!   (re)dispatch so a backend never computes an answer nobody waits
//!   for;
//! * **sick shards trip a breaker** — a shard that stalls or fails
//!   repeatedly is tripped out of the ring ([`BreakerPolicy`]),
//!   readmitted half-open at its probe time, and reclosed on the first
//!   healthy reply (failed probes double the interval);
//! * **graceful drain** — router shutdown refuses new work in-slot,
//!   flushes every in-flight reply, then drains each backend.
//!
//! Nothing waits on a thread other requests wait on. The router's one
//! timer thread owns everything that happens at a time rather than on a
//! reply:
//!
//! * failover backoff;
//! * replies held by an injected delay;
//! * stall trips;
//! * probe readmission — an open breaker goes half-open at its probe
//!   time whether or not traffic arrives.
//!
//! Besides the shards' batcher workers, a router runs that timer, one
//! event-loop thread per [`Router::listen`], and — with a
//! [`SupervisorPolicy`] — the supervisor, whose respawn probes and
//! warm-up replays block it.
//!
//! Each shard is one record: its backend (server, engine, client), the
//! requests in flight on it, its hot keys, its armed faults, and its
//! state (breaker, supervision, warm-up). One lock rule holds: a
//! shard's state may be held while taking the ring, and every other
//! lock is taken alone. No router lock is held across a call into an
//! engine, a server, a client, or the fault plan.
//!
//! Every recovery action counts into the fleet-level
//! [`parspeed_obs::ResilienceCounters`], answered on the wire by the
//! router-scoped `{"op":"metrics"}` record, and all of it is
//! deterministically testable: a seeded [`parspeed_chaos::FaultPlan`]
//! installed with [`Router::install_fault_plan`] kills shards, delays,
//! drops, or duplicates replies, and wedges lanes at scripted request
//! indices — the same seed replays the same event trace.
//!
//! The fleet is *self-sizing*: [`predict`] fits a measured shard sweep
//! to the paper's execution-time shape and runs `Query::Optimize` over
//! the fitted machine, so the same §5 machinery that sizes a processor
//! fleet sizes this one. `parspeed route --predict` exposes it, and the
//! serving-only `{"op":"topology"}` wire record reports the live fleet
//! (members, ring replicas, per-shard resident keys) that feeds it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod predict;
pub mod ring;

pub use fault::{BreakerPolicy, RetryPolicy, SupervisorPolicy};

use fault::{take_one, BreakerState, LaneFaults};
use parspeed_chaos::{mix, FaultAction, FaultPlan};
use parspeed_engine::{
    jsonl, routing_hash, ArchKind, CheckpointStore, Engine, MachineSpec, ParspeedError,
    PartitionShape, Query, Response, StencilSpec, WorkloadSpec, WIRE_VERSION,
};
use parspeed_obs::ResilienceCounters;
use parspeed_server::{
    health_to_json, spawn_event_loop, Admission, Client, ConnShared, EventLoopConfig, ReplyShape,
    Server, ServerConfig, ServerStats, WireHandler,
};
use ring::HashRing;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet shape and per-backend configuration. `parspeed route` exposes
/// every field as a flag.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Number of shard backends (`--shards`). The paper predicts this
    /// number — see [`predict`].
    pub shards: usize,
    /// Virtual ring points per shard (`--replicas`); more points smooth
    /// the key split across shards.
    pub replicas: usize,
    /// The configuration every shard's server runs with
    /// ([`ServerConfig::shard`] is overridden per backend).
    pub backend: ServerConfig,
    /// Deadline granted to every request that does not carry its own
    /// `deadline_ms` (`--deadline-ms`); `None` means no default.
    pub default_deadline: Option<Duration>,
    /// Retry/failover policy for requests lost with their shard.
    pub retry: RetryPolicy,
    /// Per-shard circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Shard supervision: `Some` runs the self-healing supervisor
    /// (respawn, cache-warm rejoin, eviction); `None` — the default —
    /// keeps the pre-supervision behavior where a killed shard stays
    /// dead.
    pub supervisor: Option<SupervisorPolicy>,
    /// Tuning of the event loop [`Router::listen`] attaches for the
    /// router's own frontend. (The shard backends' frontends are
    /// configured through [`RouterConfig::backend`].)
    pub event_loop: EventLoopConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 4,
            replicas: 64,
            backend: ServerConfig::default(),
            default_deadline: None,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            supervisor: None,
            event_loop: EventLoopConfig::default(),
        }
    }
}

/// Most recent distinct keys remembered per shard for cache-warm
/// rejoin. Keys only — the values are recomputed by the replacement —
/// so the memory bound is a ring of queries, not a result cache.
const HOT_KEYS_PER_SHARD: usize = 128;

/// How often the supervisor scans for lost shards.
const SUPERVISOR_TICK: Duration = Duration::from_millis(10);

/// One scattered request waiting for its shard's reply: the origin
/// reply slot plus everything needed to render into it — and the
/// resilience state (deadline budget, attempt count) that travels with
/// the slot across failovers.
struct Pending {
    conn: Arc<ConnShared>,
    seq: u64,
    query: Query,
    shape: ReplyShape,
    /// Absolute budget: expire answers `deadline_exceeded` in-slot.
    deadline: Option<Instant>,
    /// Dispatch attempts already burned (0 on first dispatch).
    attempts: u32,
    /// When this slot was last submitted to a shard (stall detection).
    submitted: Instant,
}

impl Pending {
    /// A request's first dispatch into origin slot `seq` of `conn`.
    fn new(
        conn: &Arc<ConnShared>,
        seq: u64,
        query: Query,
        shape: ReplyShape,
        deadline: Option<Instant>,
    ) -> Pending {
        let (attempts, submitted) = (0, Instant::now());
        Pending { conn: Arc::clone(conn), seq, query, shape, deadline, attempts, submitted }
    }

    /// Stable per-request token feeding the deterministic backoff
    /// jitter — the same request retries on the same schedule.
    fn token(&self) -> u64 {
        mix(self.conn.id).wrapping_add(self.seq)
    }

    /// Answers the origin reply slot.
    fn answer(self, response: Response) {
        self.conn.answer(self.seq, &self.query, response, self.shape);
    }

    fn refuse(self, msg: String) {
        self.answer(Response::Invalid(ParspeedError::overloaded(msg)));
    }

    fn expire(self, msg: String) {
        self.answer(Response::Invalid(ParspeedError::deadline_exceeded(msg)));
    }
}

/// One shard of the fleet: the backend serving it, the requests in
/// flight on it, and the state that decides whether the ring routes
/// here. Only `state` may be held while taking another lock (the ring).
struct Shard {
    /// The shard's *current* backend. A respawn installs the
    /// replacement in one assignment; readers hold the lock only long
    /// enough to clone an `Arc` out.
    backend: Mutex<Backend>,
    /// Requests in flight here by router request id (drawn under this
    /// lock, so the first entry is the oldest). A reply, a kill, a trip,
    /// and the stall check each take an entry at most once; a reply
    /// that finds its entry gone is late and is dropped.
    inflight: Mutex<BTreeMap<u64, Pending>>,
    /// The shard was killed: the ring no longer routes here and every
    /// pending slot has been taken for redispatch.
    lost: AtomicBool,
    /// Bounded ring of the most recent distinct keys routed here,
    /// newest at the back (see [`HOT_KEYS_PER_SHARD`]): the warmup set
    /// a replacement shard replays before rejoining the ring.
    hot: Mutex<VecDeque<(u64, Query)>>,
    /// Faults a chaos plan armed against this shard (all zero without
    /// one).
    faults: LaneFaults,
    /// Breaker, supervision, and warm-up progress.
    state: Mutex<ShardState>,
}

impl Shard {
    fn client(&self) -> Arc<Client> {
        Arc::clone(&self.backend.lock().unwrap().client)
    }

    fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.backend.lock().unwrap().engine)
    }

    /// Takes every entry, oldest first (a kill or a breaker trip).
    fn take_all(&self) -> Vec<Pending> {
        std::mem::take(&mut *self.inflight.lock().unwrap()).into_values().collect()
    }

    /// Remembers `query` in the hot-key ring (keys only, newest at the
    /// back, distinct by routing hash). Effect queries are excluded —
    /// replaying a wall-clock measurement is not a warmup.
    fn record_hot(&self, hash: u64, query: &Query) {
        if !query.retry_safe() {
            return;
        }
        let mut hot = self.hot.lock().unwrap();
        if let Some(pos) = hot.iter().position(|&(h, _)| h == hash) {
            hot.remove(pos);
        } else if hot.len() >= HOT_KEYS_PER_SHARD {
            hot.pop_front();
        }
        hot.push_back((hash, query.clone()));
    }
}

/// A shard's running backend: its server (`None` once a kill or the
/// shutdown drain took it), that server's engine, and the in-process
/// client the router submits through.
struct Backend {
    server: Option<Server>,
    engine: Arc<Engine>,
    client: Arc<Client>,
}

impl Backend {
    fn start(engine: Arc<Engine>, shard: usize, config: ServerConfig) -> Backend {
        let server =
            Server::start(Arc::clone(&engine), ServerConfig { shard: Some(shard), ..config });
        let client = Arc::new(server.client());
        Backend { server: Some(server), engine, client }
    }
}

/// Work the router timer runs when it is due: a failover waiting out
/// its backoff, or a reply held back by an injected `delay:S:MS`.
type Deferred = Box<dyn FnOnce(&Core) + Send>;

/// The timer's queue: deferred work by due time (ties in arrival
/// order), plus the stop flag the shutdown drain raises.
#[derive(Default)]
struct TimerQueue {
    due: Vec<(Instant, Deferred)>,
    stop: bool,
}

/// Everything about a shard that moves with time or supervision.
#[derive(Debug, Default)]
struct ShardState {
    breaker: BreakerState,
    /// When the shard was last lost (a kill), or a respawn attempt last
    /// failed: the supervisor's debounce and backoff count from here.
    lost_at: Option<Instant>,
    /// Respawn attempts burned (denied, failed, or successful).
    respawns: u32,
    /// Budget exhausted: the shard is out of the fleet for good.
    evicted: bool,
    warmup: WarmupStatus,
}

/// Per-shard warmup progress (the `warmup` wire op).
#[derive(Debug, Clone, Copy, Default)]
struct WarmupStatus {
    /// A warmup replay is running right now.
    active: bool,
    /// Keys this replay will push through the replacement.
    target: u64,
    /// Keys replayed so far (equal to `target` once complete).
    replayed: u64,
}

/// Everything the dispatchers, settling backend workers, the timer,
/// and the frontends share.
struct Core {
    /// This core, for the completions handed to backends (weak: a queued
    /// completion must not keep a dropped router alive).
    me: Weak<Core>,
    cfg: RouterConfig,
    ring: Mutex<HashRing>,
    shards: Vec<Shard>,
    epoch: Instant,
    draining: AtomicBool,
    /// Fleet-level recovery counters (the router-scoped `metrics` op).
    resilience: Arc<ResilienceCounters>,
    /// The installed deterministic fault plan, if any.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// Builds a shard's engine — kept so the supervisor can build
    /// replacements with the caller's exact wiring (cache capacity,
    /// shared checkpoint store, …).
    factory: Box<dyn Fn(usize) -> Arc<Engine> + Send + Sync>,
    /// Next connection id (TCP and in-process clients share the space).
    next_conn_id: AtomicU64,
    /// Next router request id (one per submission to a shard).
    next_request_id: AtomicU64,
    /// Deferred failovers and held replies (see [`Core::timer_loop`]).
    timer: Mutex<TimerQueue>,
    /// Wakes the timer for a new earliest deadline, a new probe time,
    /// or to stop.
    timer_cv: Condvar,
}

impl Core {
    /// Allocates a connection id. Relaxed: the id publishes no other
    /// data, and the atomic increment alone makes it unique.
    fn conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed)
    }

    fn plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().unwrap().clone()
    }

    /// Scatter: hash the query's canonical key onto the ring and hand it
    /// to the owning shard. Every refusal is answered in the request's
    /// own reply slot — dispatch never blocks beyond the in-flight lock
    /// and never drops a slot.
    fn dispatch(&self, mut pending: Pending) {
        if self.draining.load(Ordering::SeqCst) {
            pending
                .refuse("router is draining for shutdown; request refused (not evaluated)".into());
            return;
        }
        if pending.attempts == 0 {
            // First dispatch only: tick the fault plan (one scripted
            // index per admitted request) and grant the default budget.
            self.tick_faults();
            if pending.deadline.is_none() {
                // `checked_add` so an absurd configured budget saturates
                // to "no deadline" instead of panicking the frontend.
                pending.deadline =
                    self.cfg.default_deadline.and_then(|d| Instant::now().checked_add(d));
            }
        }
        if pending.deadline.is_some_and(|d| Instant::now() >= d) {
            ResilienceCounters::bump(&self.resilience.deadline_missed);
            pending.expire(
                "deadline expired before any shard was reached; \
                 request refused (not evaluated)"
                    .into(),
            );
            return;
        }
        let hash = routing_hash(&pending.query);
        loop {
            let Some(shard) = self.ring.lock().unwrap().route(hash) else {
                pending.refuse(
                    "no shard available: every backend was lost; \
                     request refused (not evaluated)"
                        .into(),
                );
                return;
            };
            let s = &self.shards[shard];
            s.record_hot(hash, &pending.query);
            let mut inflight = s.inflight.lock().unwrap();
            if s.lost.load(Ordering::SeqCst) {
                // Lost between the ring lookup and the in-flight lock;
                // the ring has already rebalanced — route again.
                continue;
            }
            // Relaxed: the id publishes no data, and the in-flight lock
            // orders a shard's draws.
            let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
            pending.submitted = Instant::now();
            let (query, deadline) = (pending.query.clone(), pending.deadline);
            inflight.insert(id, pending);
            drop(inflight);
            // Outside the in-flight lock: a refusing backend settles
            // before `submit_then` returns. The deadline budget travels
            // along.
            let core = Weak::clone(&self.me);
            s.client().submit_then(query, deadline, id, move |response| {
                if let Some(core) = core.upgrade() {
                    core.settle(shard, id, response);
                }
            });
            return;
        }
    }

    /// Fires any fault-plan triggers due at this request index. Called
    /// once per admitted request (never on retries).
    fn tick_faults(&self) {
        let Some(plan) = self.plan() else { return };
        for action in plan.on_request() {
            let in_range = match action {
                FaultAction::KillShard { shard }
                | FaultAction::DelayLane { shard, .. }
                | FaultAction::DropReply { shard }
                | FaultAction::DuplicateReply { shard }
                | FaultAction::WedgeLane { shard }
                | FaultAction::RespawnDeny { shard }
                | FaultAction::CrashLoop { shard, .. } => shard < self.cfg.shards,
                FaultAction::PanicWorker => true,
            };
            if !in_range {
                plan.record(format!("router: ignoring fault {action} (shard out of range)"));
                continue;
            }
            match action {
                FaultAction::KillShard { shard } => {
                    self.kill_shard(shard);
                }
                FaultAction::DelayLane { shard, millis } => {
                    self.shards[shard].faults.delay_ms.fetch_add(millis, Ordering::SeqCst);
                    plan.record(format!("router: armed {millis} ms reply delay on lane {shard}"));
                }
                FaultAction::DropReply { shard } => {
                    self.shards[shard].faults.drop_next.fetch_add(1, Ordering::SeqCst);
                    plan.record(format!("router: armed a reply drop on lane {shard}"));
                }
                FaultAction::DuplicateReply { shard } => {
                    self.shards[shard].faults.dup_next.fetch_add(1, Ordering::SeqCst);
                    plan.record(format!("router: armed a duplicate reply on lane {shard}"));
                }
                FaultAction::WedgeLane { shard } => {
                    self.shards[shard].faults.wedged.store(true, Ordering::SeqCst);
                    plan.record(format!("router: wedged lane {shard} (replies will stall)"));
                }
                FaultAction::RespawnDeny { shard } => {
                    self.shards[shard].faults.respawn_deny.fetch_add(1, Ordering::SeqCst);
                    plan.record(format!("router: armed a respawn denial on shard {shard}"));
                }
                FaultAction::CrashLoop { shard, times } => {
                    // One kill now, `times - 1` more armed against each
                    // future rejoin: the deterministic crash-loop.
                    let rejoins = times.saturating_sub(1);
                    self.shards[shard].faults.crashloop.store(rejoins, Ordering::SeqCst);
                    plan.record(format!("router: crash-looping shard {shard} ({times} kill(s))"));
                    self.kill_shard(shard);
                }
                FaultAction::PanicWorker => {
                    plan.record(
                        "router: ignoring worker-level fault \
                         (install the plan on a shard server)",
                    );
                }
            }
        }
    }

    /// Records the health of one delivered reply into the shard's
    /// breaker: a healthy reply recloses a half-open breaker (or resets
    /// the failure streak); an `internal`-kind reply counts toward the
    /// trip threshold, and fails a probe outright.
    fn note_reply(&self, shard: usize, healthy: bool) {
        let mut state = self.shards[shard].state.lock().unwrap();
        match (state.breaker, healthy) {
            (BreakerState::HalfOpen { .. }, true) => {
                state.breaker = BreakerState::Closed { failures: 0 };
                ResilienceCounters::bump(&self.resilience.breaker_reclosed);
                drop(state);
                if let Some(plan) = self.plan() {
                    plan.record(format!(
                        "router: breaker reclosed on shard {shard} (probe succeeded)"
                    ));
                }
            }
            (BreakerState::Closed { failures }, true) if failures > 0 => {
                state.breaker = BreakerState::Closed { failures: 0 };
            }
            (BreakerState::Closed { failures }, false) => {
                if failures + 1 >= self.cfg.breaker.failure_threshold {
                    state.breaker = BreakerState::Closed { failures: 0 };
                    drop(state);
                    self.trip_shard(shard, "consecutive failures");
                } else {
                    state.breaker = BreakerState::Closed { failures: failures + 1 };
                }
            }
            (BreakerState::HalfOpen { .. }, false) => {
                drop(state);
                self.trip_shard(shard, "probe failed");
            }
            // Late replies from an already-open breaker, and healthy
            // replies on a clean closed breaker: nothing to record.
            _ => {}
        }
    }

    /// Trips one shard's breaker open: out of the ring, in-flight slots
    /// redispatched (their late backend replies will find nothing to
    /// settle). The shard's server keeps running — the timer readmits
    /// it at the probe time.
    fn trip_shard(&self, shard: usize, why: &str) {
        let s = &self.shards[shard];
        if s.lost.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut state = s.state.lock().unwrap();
            let interval = match state.breaker {
                BreakerState::Open { .. } => return, // already tripped
                BreakerState::Closed { .. } => self.cfg.breaker.probe_after,
                // A failed probe doubles the wait before the next one.
                BreakerState::HalfOpen { probe_interval } => probe_interval * 2,
            };
            state.breaker = BreakerState::Open {
                probe_at: Instant::now() + interval,
                probe_interval: interval,
            };
            self.ring.lock().unwrap().remove(shard);
        }
        // The new probe time enters the timer's next wait. (A timer in
        // the middle of its pass misses this, and readmits up to one nap
        // late.)
        self.timer_cv.notify_one();
        ResilienceCounters::bump(&self.resilience.breaker_opened);
        let drained = s.take_all();
        if let Some(plan) = self.plan() {
            plan.record(format!(
                "router: breaker opened on shard {shard} ({why}); \
                 {} in-flight redispatched",
                drained.len()
            ));
        }
        for p in drained {
            self.redispatch(p, shard);
        }
    }

    /// Retries one slot whose shard failed under it: immediate failover
    /// on the first attempt, deterministic capped backoff after — held
    /// on the timer, never slept on the caller's thread — with the
    /// documented in-slot refusals when the budget, the attempt cap, or
    /// retry-safety says stop.
    fn redispatch(&self, mut p: Pending, from_shard: usize) {
        p.attempts += 1;
        let r = self.cfg.retry;
        if p.deadline.is_some_and(|d| Instant::now() >= d) {
            ResilienceCounters::bump(&self.resilience.deadline_missed);
            p.expire(format!(
                "deadline expired while failing over from shard {from_shard}; \
                 result not produced (the request may or may not have been evaluated)"
            ));
            return;
        }
        // The client-facing hint: the deterministic wait the next
        // attempt would use — never zero, which would read as "hammer
        // the router immediately".
        let hint = parspeed_chaos::backoff_ms(
            r.backoff_base_ms,
            r.backoff_cap_ms,
            p.attempts + 1,
            r.seed,
            p.token(),
        )
        .max(1);
        if !p.query.retry_safe() {
            p.refuse(format!(
                "shard {from_shard} was lost with the request in flight; not evaluated — \
                 this query measures wall-clock time and is not retry-safe; \
                 the ring has rebalanced, retry_after_ms={hint}"
            ));
            return;
        }
        if p.attempts >= r.max_attempts {
            let attempts = p.attempts;
            p.refuse(format!(
                "shard {from_shard} was lost with the request in flight; not evaluated — \
                 {attempts} dispatch attempts exhausted; \
                 the ring has rebalanced, retry_after_ms={hint}"
            ));
            return;
        }
        ResilienceCounters::bump(&self.resilience.retries);
        if !self.ring.lock().unwrap().members().contains(&from_shard) {
            // The shard left the ring: this retry lands on the key's
            // ring successor, not the same backend.
            ResilienceCounters::bump(&self.resilience.failovers);
        }
        let wait = parspeed_chaos::backoff_ms(
            r.backoff_base_ms,
            r.backoff_cap_ms,
            p.attempts,
            r.seed,
            p.token(),
        );
        if wait > 0 {
            let at = Instant::now() + Duration::from_millis(wait);
            self.defer(at, Box::new(move |core| core.dispatch(p)));
        } else {
            self.dispatch(p);
        }
    }

    /// Kills one shard: ring removal, in-flight redispatch, backend
    /// drain. Returns the backend's final stats, or `None` if the shard
    /// was already out of the ring.
    fn kill_shard(&self, shard: usize) -> Option<ServerStats> {
        assert!(shard < self.cfg.shards, "shard {shard} out of range");
        let s = &self.shards[shard];
        {
            // Under the shard's state, so no probe readmits it between
            // the ring removal and the flag.
            let mut state = s.state.lock().unwrap();
            let mut ring = self.ring.lock().unwrap();
            if !ring.members().contains(&shard) {
                return None;
            }
            ring.remove(shard);
            // Flag, then drain: a racing dispatcher either inserted
            // before the drain or sees the flag under the in-flight lock
            // and re-routes.
            s.lost.store(true, Ordering::SeqCst);
            state.lost_at = Some(Instant::now());
        }
        // Claim the backend before redispatching (so a concurrent
        // supervisor respawn can never install a replacement we would
        // then tear down), but shut it down only after: failovers
        // answer at the survivors' speed, not the corpse's.
        let server = s.backend.lock().unwrap().server.take();
        let drained = s.take_all();
        if let Some(plan) = self.plan() {
            plan.record(format!(
                "router: shard {shard} lost; {} in-flight slot(s) redispatched",
                drained.len()
            ));
        }
        for p in drained {
            self.redispatch(p, shard);
        }
        server.map(Server::shutdown)
    }

    /// The router's own `health` record: uptime and drain flag, shard
    /// `null` (the router is the front, not a backend) — plus the
    /// additive `breakers` summary (one state word per shard). New
    /// fields append after the frozen six-field prefix; positional
    /// parsers of the original record keep working.
    fn health(&self) -> jsonl::Json {
        let mut json = health_to_json(
            self.epoch.elapsed().as_secs_f64(),
            self.draining.load(Ordering::SeqCst),
            None,
        );
        if let jsonl::Json::Obj(fields) = &mut json {
            fields.push((
                "breakers".into(),
                jsonl::Json::Arr(
                    self.shard_states().into_iter().map(|s| jsonl::Json::Str(s.into())).collect(),
                ),
            ));
        }
        json
    }

    /// The router-scoped `metrics` record: the fleet-level resilience
    /// counters plus each shard's breaker state. Per-shard serving
    /// metrics still live on the shards (`stats`/`trace` refuse here).
    fn metrics(&self) -> jsonl::Json {
        let breakers: Vec<jsonl::Json> = self
            .shard_states()
            .into_iter()
            .enumerate()
            .map(|(shard, state)| {
                jsonl::Json::Obj(vec![
                    ("shard".into(), jsonl::Json::Num(shard as f64)),
                    ("state".into(), jsonl::Json::Str(state.into())),
                ])
            })
            .collect();
        // The checkpoint counters live on the (typically fleet-shared)
        // store, not the router; fold them in, counting each distinct
        // store once.
        let mut snapshot = self.resilience.snapshot();
        let mut seen: Vec<*const CheckpointStore> = Vec::new();
        for shard in &self.shards {
            let engine = shard.engine();
            if let Some(store) = engine.checkpoint_store() {
                let ptr = Arc::as_ptr(store);
                if seen.contains(&ptr) {
                    continue;
                }
                seen.push(ptr);
                snapshot.checkpoints_taken += store.taken();
                snapshot.resumes += store.resumes();
            }
        }
        let resilience = jsonl::Json::Obj(
            snapshot
                .fields()
                .iter()
                .map(|&(k, v)| (k.to_string(), jsonl::Json::Num(v as f64)))
                .collect(),
        );
        jsonl::Json::Obj(vec![
            ("version".into(), jsonl::Json::Num(WIRE_VERSION as f64)),
            ("op".into(), jsonl::Json::Str("metrics".into())),
            ("scope".into(), jsonl::Json::Str("router".into())),
            ("resilience".into(), resilience),
            ("breakers".into(), jsonl::Json::Arr(breakers)),
        ])
    }

    /// Live cached outcomes per ring member, `(shard, resident keys)`.
    fn resident_keys(&self) -> Vec<(usize, usize)> {
        let members = self.ring.lock().unwrap().members().to_vec();
        members.into_iter().map(|s| (s, self.shards[s].engine().cache_len())).collect()
    }

    /// The serving-only `topology` record: the live fleet as the ring
    /// sees it, plus each member's resident cache keys — the live
    /// workload profile [`predict`] sizes fleets from.
    fn topology(&self) -> jsonl::Json {
        let resident = self.resident_keys();
        let num = |n: usize| jsonl::Json::Num(n as f64);
        let lost = (0..self.cfg.shards).filter(|s| !resident.iter().any(|&(m, _)| m == *s));
        jsonl::Json::Obj(vec![
            ("version".into(), jsonl::Json::Num(WIRE_VERSION as f64)),
            ("op".into(), jsonl::Json::Str("topology".into())),
            ("shards".into(), num(resident.len())),
            ("replicas".into(), num(self.cfg.replicas)),
            ("members".into(), jsonl::Json::Arr(resident.iter().map(|&(s, _)| num(s)).collect())),
            ("lost".into(), jsonl::Json::Arr(lost.map(num).collect())),
            ("resident".into(), jsonl::Json::Arr(resident.iter().map(|&(_, n)| num(n)).collect())),
        ])
    }

    /// Settles request `id` with its backend reply, on the backend
    /// worker that produced it, applying any armed injected faults on
    /// the way.
    fn settle(&self, shard: usize, id: u64, response: Response) {
        let s = &self.shards[shard];
        // An injected wedge: the shard holds its replies back, as a hung
        // backend connection would — only the stall trip (which
        // redispatches the waiting slots) gets them out.
        if s.faults.wedged.load(Ordering::SeqCst) {
            return;
        }
        // Gone means a kill or trip already redispatched the slot.
        let Some(p) = s.inflight.lock().unwrap().remove(&id) else { return };
        if take_one(&s.faults.drop_next) {
            // Injected reply drop: the backend's answer evaporates;
            // the slot retries instead of waiting forever.
            ResilienceCounters::bump(&self.resilience.replies_dropped);
            if let Some(plan) = self.plan() {
                plan.record(format!("router: dropped a reply on lane {shard}; slot redispatched"));
            }
            self.redispatch(p, shard);
            return;
        }
        if take_one(&s.faults.dup_next) {
            // Injected duplicate: the reply "arrives twice"; the
            // second copy is suppressed — every slot is delivered
            // exactly once, never routed twice.
            ResilienceCounters::bump(&self.resilience.duplicates_suppressed);
            if let Some(plan) = self.plan() {
                plan.record(format!("router: suppressed a duplicate reply on lane {shard}"));
            }
        }
        let delay = s.faults.delay_ms.swap(0, Ordering::SeqCst);
        if delay > 0 {
            let at = Instant::now() + Duration::from_millis(delay);
            self.defer(at, Box::new(move |core| core.finish(shard, p, response)));
            return;
        }
        self.finish(shard, p, response);
    }

    /// Delivers one settled reply into its origin slot.
    fn finish(&self, shard: usize, p: Pending, response: Response) {
        // Book-keep before delivering: a closed-loop client that just
        // saw its reply must also see the counters it caused.
        let healthy = !matches!(&response, Response::Invalid(e) if e.kind() == "internal");
        self.note_reply(shard, healthy);
        p.answer(response);
    }

    /// Holds `work` on the timer until `at`, waking the timer only when
    /// `at` is its new earliest deadline.
    fn defer(&self, at: Instant, work: Deferred) {
        let mut timer = self.timer.lock().unwrap();
        let i = timer.due.partition_point(|&(due, _)| due <= at);
        timer.due.insert(i, (at, work));
        drop(timer);
        if i == 0 {
            self.timer_cv.notify_one();
        }
    }

    /// The timer thread: runs deferred work when due, then passes over
    /// the shards ([`Core::tick_shards`]). It sleeps until its earliest
    /// deadline or probe time but never longer than half the stall
    /// threshold, so dispatch never has to wake it. Exits once the
    /// shutdown drain raised `stop` and nothing is held; probe times
    /// never hold it.
    fn timer_loop(&self) {
        let nap = (self.cfg.breaker.stall_after / 2).max(Duration::from_millis(1));
        let mut timer = self.timer.lock().unwrap();
        loop {
            let now = Instant::now();
            if timer.due.first().is_some_and(|&(at, _)| at <= now) {
                let (_, work) = timer.due.remove(0);
                drop(timer);
                work(self);
                timer = self.timer.lock().unwrap();
                continue;
            }
            if timer.stop && timer.due.is_empty() {
                return;
            }
            drop(timer);
            let wake = self.tick_shards(now, now + nap);
            timer = self.timer.lock().unwrap();
            let wake = timer.due.first().map_or(wake, |&(at, _)| wake.min(at));
            let left = wake.saturating_duration_since(Instant::now());
            timer = self.timer_cv.wait_timeout(timer, left).unwrap().0;
        }
    }

    /// The timer's pass over the shards: trips every shard whose oldest
    /// in-flight request has waited the stall threshold with no reply
    /// at all, and readmits every open breaker whose probe time has
    /// come — half-open, back in the ring, wedge healed. Returns the
    /// earlier of `wake` and the next time either could happen.
    fn tick_shards(&self, now: Instant, mut wake: Instant) -> Instant {
        for (shard, s) in self.shards.iter().enumerate() {
            let oldest = s.inflight.lock().unwrap().values().next().map(|p| p.submitted);
            if let Some(at) = oldest.map(|t| t + self.cfg.breaker.stall_after) {
                if at <= now {
                    self.trip_shard(shard, "reply stall");
                } else {
                    wake = wake.min(at);
                }
            }
            let mut state = s.state.lock().unwrap();
            let BreakerState::Open { probe_at, probe_interval } = state.breaker else { continue };
            // A lost shard waits for the supervisor, not for its probe.
            if s.lost.load(Ordering::SeqCst) {
                continue;
            }
            if probe_at > now {
                wake = wake.min(probe_at);
                continue;
            }
            state.breaker = BreakerState::HalfOpen { probe_interval };
            // A readmitted shard consumes replies again (an injected
            // wedge is healed by the probe).
            s.faults.wedged.store(false, Ordering::SeqCst);
            self.ring.lock().unwrap().add(shard);
            drop(state);
            if let Some(plan) = self.plan() {
                plan.record(format!("router: shard {shard} readmitted half-open for a probe"));
            }
        }
        wake
    }

    /// The supervisor thread: scans for lost shards and heals them.
    /// Wedged-but-alive shards are deliberately not its business — the
    /// stall breaker already trips, probes, and recloses those; the
    /// supervisor handles the one failure the breaker cannot: the
    /// server is *gone*.
    fn supervisor_loop(&self) {
        let Some(policy) = self.cfg.supervisor else { return };
        while !self.draining.load(Ordering::SeqCst) {
            for shard in 0..self.cfg.shards {
                self.supervise_shard(shard, policy);
            }
            std::thread::sleep(SUPERVISOR_TICK);
        }
    }

    /// One supervision step for one shard: debounce the loss, spend (or
    /// exhaust) the respawn budget, respawn.
    fn supervise_shard(&self, shard: usize, policy: SupervisorPolicy) {
        let s = &self.shards[shard];
        if !s.lost.load(Ordering::SeqCst) {
            return;
        }
        let attempt = {
            let mut state = s.state.lock().unwrap();
            if state.evicted {
                return;
            }
            if state.respawns >= policy.max_respawns {
                state.evicted = true;
                let spent = state.respawns;
                drop(state);
                // Machine-readable: the one line an operator's tooling
                // greps for when a shard leaves the fleet for good.
                if let Some(plan) = self.plan() {
                    plan.record(format!(
                        "{{\"event\":\"shard-evicted\",\"shard\":{shard},\"respawns\":{spent}}}"
                    ));
                }
                return;
            }
            let lost_at = *state.lost_at.get_or_insert_with(Instant::now);
            let attempt = state.respawns + 1;
            // Deterministic-jitter backoff on top of the debounce floor:
            // attempt 1 waits only `respawn_after`, later attempts add
            // the capped `backoff_ms` schedule.
            let base = policy.respawn_backoff.as_millis() as u64;
            let jitter = parspeed_chaos::backoff_ms(
                base,
                base.saturating_mul(32),
                attempt,
                self.cfg.retry.seed,
                mix(shard as u64),
            );
            if lost_at.elapsed() < policy.respawn_after + Duration::from_millis(jitter) {
                return;
            }
            state.respawns = attempt; // every attempt spends budget
            attempt
        };
        // A scripted denial (chaos `respawn-deny:S`): the attempt burns
        // with no replacement — capacity was refused.
        if take_one(&s.faults.respawn_deny) {
            s.state.lock().unwrap().lost_at = Some(Instant::now());
            if let Some(plan) = self.plan() {
                plan.record(format!("router: respawn of shard {shard} denied (attempt {attempt})"));
            }
            return;
        }
        self.respawn_shard(shard, attempt, policy);
    }

    /// Spawns a replacement shard: fresh server + engine from the
    /// factory, readiness probe, cache-warm replay, and — only once all
    /// of that held — readmission to the ring. A failure at any step
    /// abandons the replacement and leaves the ring exactly as it was:
    /// the ring changes at most once per successful respawn, never
    /// half-way.
    fn respawn_shard(&self, shard: usize, attempt: u32, policy: SupervisorPolicy) {
        let s = &self.shards[shard];
        let abandon = |fresh: Backend, why: &str| {
            if let Some(server) = fresh.server {
                server.shutdown();
            }
            {
                let mut state = s.state.lock().unwrap();
                state.lost_at = Some(Instant::now());
                state.warmup.active = false;
            }
            if let Some(plan) = self.plan() {
                plan.record(format!(
                    "router: respawn of shard {shard} abandoned ({why}, attempt {attempt})"
                ));
            }
        };
        let fresh = Backend::start((self.factory)(shard), shard, self.cfg.backend);

        // Readiness: the replacement must answer a real query before it
        // can own keys.
        fresh.client.submit(Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n: 64,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(4),
            memory_words: None,
        });
        if fresh.client.recv_timeout(self.cfg.breaker.stall_after).is_none() {
            abandon(fresh, "readiness probe stalled");
            return;
        }

        // Cache-warm rejoin: replay the warm fraction of the shard's
        // hot keys, newest first. Keys only — the replacement computes
        // every value through the normal engine path, so its replies
        // are bit-identical to any other shard's.
        let keys: Vec<Query> = {
            let hot = s.hot.lock().unwrap();
            let want = ((hot.len() as f64) * policy.warm_fraction.clamp(0.0, 1.0)).ceil() as usize;
            hot.iter().rev().take(want).map(|(_, q)| q.clone()).collect()
        };
        s.state.lock().unwrap().warmup =
            WarmupStatus { active: true, target: keys.len() as u64, replayed: 0 };
        for query in &keys {
            fresh.client.submit(query.clone());
            if fresh.client.recv_timeout(self.cfg.breaker.stall_after).is_none() {
                abandon(fresh, "warmup replay stalled");
                return;
            }
            ResilienceCounters::bump(&self.resilience.warmup_keys_replayed);
            s.state.lock().unwrap().warmup.replayed += 1;
        }

        // Install: the backend in place, injected faults cleared,
        // breaker closed — and only then the ring readmission that
        // routes traffic here. The replaced backend (the kill took its
        // server) drops outside the lock.
        let dead = std::mem::replace(&mut *s.backend.lock().unwrap(), fresh);
        drop(dead);
        // Faults armed against the lost server die with it; denials and
        // crash-loops stay armed for the supervisor's next attempts.
        s.faults.delay_ms.store(0, Ordering::SeqCst);
        s.faults.drop_next.store(0, Ordering::SeqCst);
        s.faults.dup_next.store(0, Ordering::SeqCst);
        s.faults.wedged.store(false, Ordering::SeqCst);
        {
            let mut state = s.state.lock().unwrap();
            state.warmup.active = false;
            state.breaker = BreakerState::Closed { failures: 0 };
            s.lost.store(false, Ordering::SeqCst);
            self.ring.lock().unwrap().add(shard);
        }
        ResilienceCounters::bump(&self.resilience.respawns);
        if let Some(plan) = self.plan() {
            plan.record(format!(
                "router: shard {shard} respawned and rejoined the ring \
                 (attempt {attempt}, {} key(s) warm)",
                keys.len()
            ));
        }
        // An armed crash-loop (chaos `crashloop:S:N`): the replacement
        // dies on arrival, spending another respawn from the budget.
        if take_one(&s.faults.crashloop) {
            if let Some(plan) = self.plan() {
                plan.record(format!("router: crash-loop killed shard {shard} again"));
            }
            self.kill_shard(shard);
        }
    }

    /// Each shard's one-word condition for `metrics` and `health`:
    /// `evicted` dominates `lost` dominates the breaker state.
    fn shard_states(&self) -> Vec<&'static str> {
        let word = |s: &Shard| {
            let state = s.state.lock().unwrap();
            if state.evicted {
                "evicted"
            } else if s.lost.load(Ordering::SeqCst) {
                "lost"
            } else {
                state.breaker.name()
            }
        };
        self.shards.iter().map(word).collect()
    }

    /// The `warmup` wire record: per-shard cache-warm rejoin progress.
    fn warmup(&self) -> jsonl::Json {
        let shards: Vec<jsonl::Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let w = s.state.lock().unwrap().warmup;
                jsonl::Json::Obj(vec![
                    ("shard".into(), jsonl::Json::Num(shard as f64)),
                    ("active".into(), jsonl::Json::Bool(w.active)),
                    ("target".into(), jsonl::Json::Num(w.target as f64)),
                    ("replayed".into(), jsonl::Json::Num(w.replayed as f64)),
                ])
            })
            .collect();
        jsonl::Json::Obj(vec![
            ("version".into(), jsonl::Json::Num(WIRE_VERSION as f64)),
            ("op".into(), jsonl::Json::Str("warmup".into())),
            ("shards".into(), jsonl::Json::Arr(shards)),
        ])
    }
}

/// The running router: shard servers, the timer, the supervisor, and
/// any TCP frontends attached. Dropping it without
/// [`shutdown`](Router::shutdown) leaks the fleet's threads — call
/// `shutdown`.
pub struct Router {
    core: Arc<Core>,
    timer: JoinHandle<()>,
    supervisor: Option<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
}

impl Router {
    /// Starts a fleet of `config.shards` backends, each over its own
    /// default [`Engine`].
    pub fn start(config: RouterConfig) -> Router {
        Self::start_with(config, |_| Arc::new(Engine::default()))
    }

    /// Starts the fleet with one engine per shard from `factory` —
    /// benches and tests use this to pin per-shard cache capacity (the
    /// paper's per-processor memory constraint).
    pub fn start_with(
        config: RouterConfig,
        factory: impl Fn(usize) -> Arc<Engine> + Send + Sync + 'static,
    ) -> Router {
        assert!(config.shards >= 1, "router needs at least one shard");
        let shards = (0..config.shards)
            .map(|shard| Shard {
                backend: Mutex::new(Backend::start(factory(shard), shard, config.backend)),
                inflight: Mutex::new(BTreeMap::new()),
                lost: AtomicBool::new(false),
                hot: Mutex::new(VecDeque::new()),
                faults: LaneFaults::default(),
                state: Mutex::new(ShardState::default()),
            })
            .collect();
        let core = Arc::new_cyclic(|me| Core {
            me: Weak::clone(me),
            cfg: config,
            ring: Mutex::new(HashRing::with_shards(config.shards, config.replicas)),
            shards,
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            resilience: Arc::new(ResilienceCounters::new()),
            faults: Mutex::new(None),
            factory: Box::new(factory),
            next_conn_id: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
            timer: Mutex::new(TimerQueue::default()),
            timer_cv: Condvar::new(),
        });
        let timer = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("parspeed-router-timer".into())
                .spawn(move || core.timer_loop())
                .expect("spawn router timer thread")
        };
        let supervisor = core.cfg.supervisor.is_some().then(|| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("parspeed-supervisor".into())
                .spawn(move || core.supervisor_loop())
                .expect("spawn supervisor thread")
        });
        Router { core, timer, supervisor, acceptors: Vec::new() }
    }

    /// The fleet configuration this router was started with.
    pub fn config(&self) -> &RouterConfig {
        &self.core.cfg
    }

    /// The fleet-level resilience counters: every retry, failover,
    /// missed deadline, breaker transition, and suppressed duplicate.
    pub fn resilience(&self) -> Arc<ResilienceCounters> {
        Arc::clone(&self.core.resilience)
    }

    /// The router-scoped `metrics` record (also answered on the wire).
    pub fn metrics(&self) -> jsonl::Json {
        self.core.metrics()
    }

    /// The `warmup` record: per-shard cache-warm rejoin progress (also
    /// answered on the wire).
    pub fn warmup(&self) -> jsonl::Json {
        self.core.warmup()
    }

    /// Shards the supervisor permanently evicted (respawn budget
    /// exhausted). Empty without a supervisor.
    pub fn evicted_shards(&self) -> Vec<usize> {
        let states = self.core.shard_states().into_iter().enumerate();
        states.filter(|&(_, state)| state == "evicted").map(|(shard, _)| shard).collect()
    }

    /// Installs (or clears, with `None`) a deterministic fault plan:
    /// scripted kills, delays, drops, duplicates, and wedges fire at
    /// their request indices, and every recovery action is recorded to
    /// the plan's event trace — the same seed replays the same trace.
    pub fn install_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.core.faults.lock().unwrap() = plan;
    }

    /// Live cached outcomes per ring member, `(shard, resident keys)` —
    /// the affinity evidence: with key-affinity routing the sum equals
    /// the workload's distinct key count, with no key cached twice.
    pub fn resident_keys(&self) -> Vec<(usize, usize)> {
        self.core.resident_keys()
    }

    /// The serving-only `topology` record (also answered on the wire).
    pub fn topology(&self) -> jsonl::Json {
        self.core.topology()
    }

    /// Opens an in-process connection: typed queries scattered across
    /// the fleet, replies gathered back in submission order — the exact
    /// semantics of a TCP connection, without the wire.
    pub fn client(&self) -> RouterClient {
        let conn = Arc::new(ConnShared::new(self.core.conn_id()));
        RouterClient { conn, core: Arc::clone(&self.core) }
    }

    /// Kills one shard: removes it from the ring (only its keys remap —
    /// every other key keeps its warm backend), *redispatches* every
    /// retry-safe request in flight on it to the key's ring successor
    /// (retry-unsafe ones answer the documented `overloaded` refusal
    /// with a `retry_after_ms=` hint), and drains its server. Returns
    /// the backend's final stats, or `None` if the shard was already
    /// gone.
    pub fn kill_shard(&self, shard: usize) -> Option<ServerStats> {
        self.core.kill_shard(shard)
    }

    /// Binds `addr` and accepts wire-v2 JSONL connections on a
    /// background event-loop thread — the same wire a single server
    /// speaks, so clients cannot tell a router from a server (except by
    /// asking: `topology` and the router-scoped `metrics` answer here,
    /// `stats`/`trace` only answer on a shard). Returns the bound
    /// address (so `:0` works).
    pub fn listen(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let handler: Arc<dyn WireHandler> =
            Arc::new(RouterHandler { core: Arc::clone(&self.core) });
        let thread = spawn_event_loop(
            listener,
            handler,
            self.core.cfg.event_loop,
            "parspeed-route-eventloop".into(),
        )?;
        self.acceptors.push(thread);
        Ok(local)
    }

    /// Graceful drain: refuses new work in-slot, flushes every in-flight
    /// reply through its origin slot, drains every surviving backend,
    /// tears down connections, joins every thread. Returns each
    /// surviving shard's final server stats.
    pub fn shutdown(self) -> Vec<(usize, ServerStats)> {
        self.core.draining.store(true, Ordering::SeqCst);
        for acceptor in self.acceptors {
            let _ = acceptor.join();
        }
        // The supervisor exits on the drain flag; stop it first so no
        // respawn races the teardown below.
        if let Some(supervisor) = self.supervisor {
            let _ = supervisor.join();
        }
        // Wait for every shard to settle: backends are still running, so
        // every in-flight request gets its real reply (a wedged shard's
        // stall trip answers its slots).
        for s in &self.core.shards {
            while !s.inflight.lock().unwrap().is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Drain the backends before stopping the timer: their workers,
        // still finishing a reply that just left its shard, are the only
        // other threads that defer (a held reply, a dropped reply's retry).
        let servers: Vec<_> =
            self.core.shards.iter().map(|s| s.backend.lock().unwrap().server.take()).collect();
        let stats = servers
            .into_iter()
            .enumerate()
            .filter_map(|(shard, server)| server.map(|s| (shard, s.shutdown())))
            .collect();
        // Held work still runs when due (a deferred failover now answers
        // the draining refusal); the timer exits once nothing is held.
        self.core.timer.lock().unwrap().stop = true;
        self.core.timer_cv.notify_one();
        let _ = self.timer.join();
        stats
    }
}

/// An in-process connection to the router: typed queries in, typed
/// responses out, gathered in submission order — the router-side twin
/// of [`parspeed_server::Client`].
pub struct RouterClient {
    conn: Arc<ConnShared>,
    core: Arc<Core>,
}

impl RouterClient {
    /// Submits one query, returning its connection-local sequence
    /// number. Never blocks beyond the in-flight lock: refusals (draining
    /// router, empty ring) are answered in the reply slot like any
    /// other reply.
    pub fn submit(&self, query: Query) -> u64 {
        self.submit_with_deadline(query, None)
    }

    /// [`submit`](Self::submit) with an absolute deadline: if the
    /// budget expires before any shard answers — across queueing,
    /// batching, and failover — the slot answers the
    /// `deadline_exceeded` kind instead of blocking forever.
    pub fn submit_with_deadline(&self, query: Query, deadline: Option<Instant>) -> u64 {
        let seq = self.conn.alloc_seq();
        self.core.dispatch(Pending::new(&self.conn, seq, query, ReplyShape::Typed, deadline));
        seq
    }

    /// Receives the next reply in submission order, blocking until it
    /// is released. Panics if nothing is outstanding.
    pub fn recv(&self) -> (u64, Response) {
        self.conn.recv_typed(None).expect("in-process connections never reach EOF")
    }

    /// [`recv`](Self::recv) with a deadline; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, Response)> {
        self.conn.recv_typed(Some(timeout))
    }

    /// Submit one query and wait for its reply.
    pub fn call(&self, query: Query) -> Response {
        let seq = self.submit(query);
        let (got, response) = self.recv();
        assert_eq!(got, seq, "per-connection ordering violated");
        response
    }

    /// Submit one query with a deadline and wait for its reply (which
    /// may be the in-slot `deadline_exceeded` answer).
    pub fn call_with_deadline(&self, query: Query, deadline: Instant) -> Response {
        let seq = self.submit_with_deadline(query, Some(deadline));
        let (got, response) = self.recv();
        assert_eq!(got, seq, "per-connection ordering violated");
        response
    }
}

/// Glues the shared event loop to the router core: same accept, buffer,
/// backpressure, and line-dispatch machinery as a server's frontend,
/// with the router's own serving-only ops and parsed queries scattered
/// into the fleet instead of a batcher.
struct RouterHandler {
    core: Arc<Core>,
}

impl WireHandler for RouterHandler {
    fn connect(&self) -> Arc<ConnShared> {
        let id = self.core.conn_id();
        Arc::new(ConnShared::new(id).with_resilience(Arc::clone(&self.core.resilience)))
    }

    /// The router-only differences from a server's ops: `topology`
    /// (unknown to a shard), `metrics` (the router-scoped resilience
    /// record), `warmup`, and `stats`/`trace` (per-shard state the router
    /// refuses to misattribute; its shards run in-process and listen on
    /// no address, so their counters come out only at drain).
    fn serving_op(&self, op: &str, line_no: usize) -> Option<String> {
        let reply = match op {
            "health" => self.core.health(),
            "topology" => self.core.topology(),
            "metrics" => self.core.metrics(),
            "warmup" => self.core.warmup(),
            "stats" | "trace" => {
                let e = jsonl::LineError {
                    version: WIRE_VERSION,
                    error: ParspeedError::unsupported(format!(
                        "op \"{op}\" reports per-shard state, and a router's shards run \
                         in-process with no address of their own; \"metrics\" answers the \
                         router's record, and `parspeed route --stats` prints each shard's \
                         counters when the router drains"
                    )),
                };
                return Some(jsonl::render_parse_error(&e, line_no));
            }
            _ => return None,
        };
        Some(reply.render())
    }

    fn admit(&self, conn: &Arc<ConnShared>, a: Admission, shed: Option<&str>) {
        let shape = ReplyShape::Line { version: a.version, line_no: a.line_no };
        let pending = Pending::new(conn, a.seq, a.query, shape, a.deadline);
        match shed {
            Some(msg) => pending.refuse(msg.to_string()),
            None => self.core.dispatch(pending),
        }
    }

    fn disconnect(&self, conn: &Arc<ConnShared>) {
        conn.mark_eof();
    }

    fn draining(&self) -> bool {
        self.core.draining.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_engine::EvalValue;

    fn optimize(n: usize) -> Query {
        Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(64),
            memory_words: None,
        }
    }

    #[test]
    fn round_trip_through_the_fleet_matches_the_engine() {
        let router = Router::start(RouterConfig { shards: 3, ..RouterConfig::default() });
        let client = router.client();
        match client.call(optimize(256)) {
            Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
                assert_eq!(processors, 14) // the paper's §6.1 anchor
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = router.shutdown();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|(_, s)| s.completed).sum::<u64>(), 1);
    }

    #[test]
    fn topology_wire_shape_is_frozen() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        let client = router.client();
        client.call(optimize(256));
        let json = router.topology();
        // The shape contract wire clients depend on: field order included.
        let jsonl::Json::Obj(fields) = &json else { panic!("topology is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "op", "shards", "replicas", "members", "lost", "resident"]);
        let rendered = json.render();
        assert!(rendered.starts_with(r#"{"version":2,"op":"topology","shards":2,"#), "{rendered}");
        assert!(rendered.contains(r#""members":[0,1],"lost":[]"#), "{rendered}");
        // One query was cached somewhere in the fleet.
        let total: usize = router.resident_keys().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1);
        router.shutdown();
    }

    #[test]
    fn warmup_wire_shape_is_frozen() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        // Every byte, as wire clients read it.
        let expect = concat!(
            r#"{"version":2,"op":"warmup","shards":["#,
            r#"{"shard":0,"active":false,"target":0,"replayed":0},"#,
            r#"{"shard":1,"active":false,"target":0,"replayed":0}]}"#,
        );
        assert_eq!(router.warmup().render(), expect);
        router.shutdown();
    }

    #[test]
    fn router_metrics_reports_resilience_and_breakers() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        let json = router.metrics();
        let jsonl::Json::Obj(fields) = &json else { panic!("metrics is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "op", "scope", "resilience", "breakers"]);
        let rendered = json.render();
        assert!(rendered.contains(r#""scope":"router""#), "{rendered}");
        assert!(rendered.contains(r#""retries":0"#), "{rendered}");
        assert!(rendered.contains(r#"{"shard":0,"state":"closed"}"#), "{rendered}");
        router.kill_shard(1);
        let rendered = router.metrics().render();
        assert!(rendered.contains(r#"{"shard":1,"state":"lost"}"#), "{rendered}");
        router.shutdown();
    }

    #[test]
    fn submissions_while_draining_get_the_refusal_in_slot() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        let client = router.client();
        client.call(optimize(128));
        router.shutdown();
        match client.call(optimize(256)) {
            Response::Invalid(e) => {
                assert_eq!(e.kind(), "overloaded");
                assert!(e.to_string().contains("draining"), "{e}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
