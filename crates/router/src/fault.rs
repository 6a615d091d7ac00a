//! Retry, failover, and circuit-breaker policy for the router.
//!
//! The router's resilience story has three deterministic pieces, all
//! configured here and executed in `lib.rs`:
//!
//! * **Retry with capped exponential backoff** ([`RetryPolicy`]): when a
//!   shard is lost with a request in flight, a retry-safe request
//!   ([`parspeed_engine::Query::retry_safe`]) fails over to the key's
//!   ring successor. The first failover is immediate; later attempts
//!   back off on the deterministic schedule of
//!   [`parspeed_chaos::backoff_ms`], so the same seed replays the same
//!   waits. The router's timer thread holds a backing-off request; no
//!   other thread ever sleeps the wait.
//! * **Per-shard circuit breaker** ([`BreakerPolicy`]):
//!   a shard that stalls (its oldest in-flight request exceeds
//!   `stall_after` with no reply) or fails repeatedly (consecutive
//!   `internal`-kind replies reach `failure_threshold`) is tripped out
//!   of the ring. In-flight requests on the tripped shard redispatch;
//!   `probe_after` later the router's timer readmits the shard
//!   half-open, whether or not traffic arrives, and one successful
//!   reply recloses the breaker. A failed probe re-opens it with a
//!   doubled probe interval.
//! * **Deadlines**: a request whose budget expires before any shard
//!   answers is refused in-slot with the `deadline_exceeded` kind; the
//!   remaining budget travels to the backend with every (re)dispatch.
//! * **Shard supervision** ([`SupervisorPolicy`]): a *lost* shard (its
//!   server is gone — a wedged-but-alive shard is the breaker's
//!   problem) is respawned by the router's supervisor: a fresh
//!   server + engine, a readiness probe, a cache-warm replay of the
//!   shard's hot keys, and only then readmission to the ring. Respawn
//!   attempts are budgeted and backed off on the same deterministic
//!   schedule as retries; a shard that keeps dying is permanently
//!   evicted — the ring shrinks once, it never flaps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Retry/failover policy for requests lost with a shard
/// (`parspeed route` exposes every field as a flag).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total dispatch attempts per request (first try included); when
    /// exhausted the request answers `overloaded` with a
    /// machine-readable `retry_after_ms=` hint.
    pub max_attempts: u32,
    /// Backoff base in milliseconds: attempt 3 waits up to `base`,
    /// attempt 4 up to `2×base`, … (the first failover never waits).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic backoff jitter — the same seed and
    /// the same traffic replay the same waits.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff_base_ms: 2, backoff_cap_ms: 50, seed: 0 }
    }
}

/// Per-shard circuit-breaker policy.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive `internal`-kind replies that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker waits before the timer readmits the
    /// shard half-open for a probe. Doubles on every failed probe.
    pub probe_after: Duration,
    /// A shard whose oldest in-flight request has waited this long with
    /// no reply at all is declared stalled and tripped.
    pub stall_after: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            probe_after: Duration::from_millis(250),
            stall_after: Duration::from_secs(1),
        }
    }
}

/// Shard supervision: when and how the router respawns a lost shard.
///
/// `parspeed route` exposes these as `--respawn-after-ms`,
/// `--max-respawns`, and `--warm-fraction`.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// How long a shard must have been continuously lost before the
    /// first respawn attempt (debounce — also the floor between
    /// attempts).
    pub respawn_after: Duration,
    /// Respawn attempts granted per shard over the router's lifetime.
    /// A shard observed lost with its budget spent is permanently
    /// evicted: a machine-readable event is recorded and the ring
    /// never readmits it.
    pub max_respawns: u32,
    /// Backoff base between consecutive respawn attempts of the same
    /// shard; later attempts wait on the deterministic
    /// [`parspeed_chaos::backoff_ms`] schedule (capped at 32× the
    /// base), so a crash-looping shard degrades to eviction without
    /// ever flapping the ring.
    pub respawn_backoff: Duration,
    /// Fraction (`0.0`..=`1.0`) of the shard's recorded hot keys the
    /// replacement must have replayed — recomputed through the normal
    /// engine path, so replies stay bit-identical — before it rejoins
    /// the ring.
    pub warm_fraction: f64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            respawn_after: Duration::from_millis(50),
            max_respawns: 3,
            respawn_backoff: Duration::from_millis(100),
            warm_fraction: 0.5,
        }
    }
}

/// The chaos-only state a fault plan arms against one shard's lane:
/// injected reply stalls, drops, duplicates, and wedges, plus the
/// supervisor-level respawn denials and crash-loops. All zero (nothing
/// armed) by default.
#[derive(Debug, Default)]
pub(crate) struct LaneFaults {
    /// Milliseconds the timer holds the next reply back (one-shot).
    pub(crate) delay_ms: AtomicU64,
    /// Replies to drop (the slot redispatches).
    pub(crate) drop_next: AtomicU64,
    /// Replies to treat as duplicated (the second copy is suppressed).
    pub(crate) dup_next: AtomicU64,
    /// The lane holds every reply back, like a hung connection — only
    /// the stall trip gets its slots out.
    pub(crate) wedged: AtomicBool,
    /// Upcoming respawn attempts to deny (each denial burns one attempt
    /// from the respawn budget).
    pub(crate) respawn_deny: AtomicU64,
    /// Times to kill the replacement right after it rejoins — a
    /// deterministic crash-loop.
    pub(crate) crashloop: AtomicU64,
}

/// Consumes one unit of a countdown: `true` (and one less) when it was
/// positive, `false` (unchanged) at zero.
pub(crate) fn take_one(counter: &AtomicU64) -> bool {
    counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
}

/// One shard's breaker state. `Closed` routes normally; `Open` is out
/// of the ring awaiting its probe time; `HalfOpen` is back in the ring
/// on probation — the next reply decides.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BreakerState {
    /// Healthy; counts consecutive failed replies toward the threshold.
    Closed { failures: u32 },
    /// Tripped out of the ring until the probe instant.
    Open { probe_at: std::time::Instant, probe_interval: Duration },
    /// Readmitted on probation; carries the interval to double if the
    /// probe fails.
    HalfOpen { probe_interval: Duration },
}

impl Default for BreakerState {
    fn default() -> Self {
        BreakerState::Closed { failures: 0 }
    }
}

impl BreakerState {
    /// The wire name of this state (router `metrics` record).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half-open",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_state_wire_names_are_stable() {
        let now = std::time::Instant::now();
        let states = [
            BreakerState::Closed { failures: 0 },
            BreakerState::Open { probe_at: now, probe_interval: Duration::from_millis(250) },
            BreakerState::HalfOpen { probe_interval: Duration::from_millis(500) },
        ];
        let names: Vec<&str> = states.iter().map(BreakerState::name).collect();
        assert_eq!(names, ["closed", "open", "half-open"]);
    }
}
