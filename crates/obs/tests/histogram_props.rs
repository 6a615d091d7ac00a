//! Property tests for the histogram core: sharded recording must be
//! observationally identical to single-threaded recording, quantiles
//! must agree with a sorted-sample reference at bucket resolution, and
//! bucket boundaries must be exact at powers of two.

use parspeed_obs::{Histogram, HistogramSnapshot, ShardedHistogram};
use proptest::prelude::*;

/// The bucket upper bound a value maps to: what `quantile` reports when
/// that value is the rank sample (before the max cap).
fn bucket_hi_of(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        let b = 64 - v.leading_zeros() as usize;
        if b == 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }
}

/// The sorted-sample reference for `quantile(q)`: the bucket upper
/// bound of the rank-`⌈q·n⌉` sample, capped at the true maximum.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    bucket_hi_of(sorted[rank - 1]).min(*sorted.last().unwrap())
}

proptest! {
    #[test]
    fn merged_shards_quantile_match_a_single_threaded_reference(
        values in prop::collection::vec(0u64..5_000_000_000, 0..400),
        threads in 1usize..7,
    ) {
        // Shard the values across real threads (round-robin deal).
        let sharded = ShardedHistogram::new();
        std::thread::scope(|scope| {
            let sharded = &sharded;
            for t in 0..threads {
                let chunk: Vec<u64> =
                    values.iter().copied().skip(t).step_by(threads).collect();
                scope.spawn(move || {
                    for v in chunk {
                        sharded.record(v);
                    }
                });
            }
        });

        // Single-threaded reference over the same multiset.
        let single = Histogram::new();
        for &v in &values {
            single.record(v);
        }

        let merged = sharded.snapshot();
        let reference = single.snapshot();
        prop_assert_eq!(merged, reference);

        // And both agree with the sorted-sample reference quantiles.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(merged.quantile(q), reference_quantile(&sorted, q));
        }
    }

    #[test]
    fn merging_snapshots_is_exact(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        // Snapshot-level merge and atomic-level merge agree with the
        // all-in-one histogram exactly.
        let mut snap = ha.snapshot();
        snap.merge(&hb.snapshot());
        prop_assert_eq!(snap, hall.snapshot());
        ha.merge_from(&hb);
        prop_assert_eq!(ha.snapshot(), hall.snapshot());
    }

    #[test]
    fn power_of_two_boundaries_are_exact(k in 0u32..63) {
        // 2^k and 2^k - 1 must land in adjacent buckets: recording each
        // alone gives p50 = value's own bucket_hi (capped at max).
        let v = 1u64 << k;
        let at = Histogram::new();
        at.record(v);
        prop_assert_eq!(at.snapshot().p50(), v, "2^{} reports itself", k);
        if v > 1 {
            let below = Histogram::new();
            below.record(v - 1);
            // v-1 is its bucket's upper bound: reported exactly.
            prop_assert_eq!(below.snapshot().p50(), v - 1);
            // And the two buckets are distinct: together, p50 of the
            // 2-sample histogram is the lower value, p999 the upper.
            let both = Histogram::new();
            both.record(v);
            both.record(v - 1);
            prop_assert_eq!(both.snapshot().p50(), v - 1);
            prop_assert_eq!(both.snapshot().p999(), v);
        }
    }

    #[test]
    fn count_and_total_are_exact(values in prop::collection::vec(0u64..10_000_000, 0..300)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.total, values.iter().sum::<u64>());
        prop_assert_eq!(snap.max, values.iter().copied().max().unwrap_or(0));
    }
}

#[test]
fn empty_and_one_sample_edges() {
    let empty = HistogramSnapshot::default();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.quantile(0.5), 0);
    assert_eq!(empty.render(), "(empty histogram)");

    for v in [0u64, 1, 2, 3, 1023, 1024, u64::MAX] {
        let h = Histogram::new();
        h.record(v);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        // A single sample is every quantile, reported exactly (the max
        // cap collapses the bucket bound onto the sample).
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(snap.quantile(q), v, "single sample {v} at q={q}");
        }
    }
}
