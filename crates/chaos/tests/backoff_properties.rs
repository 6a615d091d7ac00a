//! Property tests for the deterministic backoff schedule — the one
//! function every retry, probe, and respawn wait in the serving tier
//! flows through. The contract the router (and its operators) lean on:
//! the schedule is a pure function of its inputs, the first failover
//! never waits, and no wait ever exceeds the configured cap.

use parspeed_chaos::backoff_ms;
use proptest::prelude::*;

/// The attempt's un-jittered ceiling: `base` doubled per attempt past
/// the second, saturating at `cap` — restated independently here so the
/// tests do not just mirror the implementation.
fn ceiling(base: u64, cap: u64, attempt: u32) -> u64 {
    2u64.saturating_pow(attempt.saturating_sub(2)).saturating_mul(base).min(cap)
}

proptest! {
    /// Same inputs, same wait: the schedule is a pure function, so the
    /// same seed and the same traffic replay the same timeline.
    #[test]
    fn deterministic_per_seed(
        base in 0u64..10_000,
        cap in 0u64..100_000,
        attempt in 0u32..64,
        seed in 0u64..u64::MAX,
        token in 0u64..u64::MAX,
    ) {
        let a = backoff_ms(base, cap, attempt, seed, token);
        let b = backoff_ms(base, cap, attempt, seed, token);
        prop_assert_eq!(a, b);
    }

    /// A seed reshuffles the jitter but never the envelope: every wait
    /// lands in the attempt's `[ceiling/2, ceiling]` window.
    #[test]
    fn jitter_stays_inside_the_envelope(
        base in 1u64..10_000,
        extra in 0u64..100_000,
        attempt in 2u32..64,
        seed in 0u64..u64::MAX,
        token in 0u64..u64::MAX,
    ) {
        let raw = ceiling(base, base + extra, attempt);
        let wait = backoff_ms(base, base + extra, attempt, seed, token);
        prop_assert!(wait >= raw / 2, "wait {} below envelope floor {}", wait, raw / 2);
        prop_assert!(wait <= raw, "wait {} above envelope ceiling {}", wait, raw);
    }

    /// The first attempt — and the degenerate zero-base schedule —
    /// never waits: failover is immediate, backoff starts at attempt 2.
    #[test]
    fn first_attempt_is_immediate(
        base in 0u64..10_000,
        cap in 0u64..100_000,
        attempt in 0u32..2,
        seed in 0u64..u64::MAX,
        token in 0u64..u64::MAX,
    ) {
        prop_assert_eq!(backoff_ms(base, cap, attempt, seed, token), 0);
        prop_assert_eq!(backoff_ms(0, cap, 40, seed, token), 0);
    }

    /// No wait ever exceeds the cap (when the cap is sane, i.e. at
    /// least the base), and the un-jittered ceiling is monotone in the
    /// attempt number until it saturates at the cap — a later attempt
    /// never promises a *shorter* maximum wait.
    #[test]
    fn capped_and_monotone(
        base in 1u64..10_000,
        extra in 0u64..100_000,
        seed in 0u64..u64::MAX,
        token in 0u64..u64::MAX,
    ) {
        let cap = base + extra;
        let mut prev_ceiling = 0u64;
        for attempt in 2u32..64 {
            let raw = ceiling(base, cap, attempt);
            let wait = backoff_ms(base, cap, attempt, seed, token);
            prop_assert!(wait <= cap, "attempt {}: wait {} exceeds cap {}", attempt, wait, cap);
            prop_assert!(
                raw >= prev_ceiling,
                "attempt {}: ceiling {} shrank from {}",
                attempt, raw, prev_ceiling
            );
            prev_ceiling = raw;
        }
    }
}
