//! Per-batch telemetry: what the pipeline did and how fast.

use std::fmt;

/// Measurements for one [`run_batch`](crate::Engine::run_batch) call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTelemetry {
    /// Input queries in the batch (sweeps count once here).
    pub queries: usize,
    /// Atomic evaluations after sweep expansion, before dedup.
    pub atoms: usize,
    /// Unique evaluation keys after dedup.
    pub unique: usize,
    /// Unique keys served from the cache.
    pub cache_hits: usize,
    /// Unique keys actually evaluated this batch.
    pub evaluated: usize,
    /// Impure effects (measurements, experiment runs) executed this
    /// batch — never deduplicated or cached.
    pub effects: usize,
    /// Worker threads targeted by the executor (0 = machine default).
    pub threads: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl BatchTelemetry {
    /// Atoms per unique evaluation (1.0 when nothing repeats).
    pub fn dedup_factor(&self) -> f64 {
        if self.unique == 0 {
            1.0
        } else {
            self.atoms as f64 / self.unique as f64
        }
    }

    /// Fraction of unique keys served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.unique as f64
        }
    }

    /// Answered atoms per second of wall time.
    pub fn queries_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.atoms as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

impl fmt::Display for BatchTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries → {} atoms → {} unique ({:.1}× dedup), {} cache hits \
             ({:.0}% of unique), {} evaluated in {:.3} ms ({:.0} queries/s)",
            self.queries,
            self.atoms,
            self.unique,
            self.dedup_factor(),
            self.cache_hits,
            100.0 * self.hit_rate(),
            self.evaluated,
            self.wall_seconds * 1e3,
            self.queries_per_second(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> BatchTelemetry {
        BatchTelemetry {
            queries: 10,
            atoms: 100,
            unique: 25,
            cache_hits: 5,
            evaluated: 20,
            effects: 0,
            threads: 4,
            wall_seconds: 0.05,
        }
    }

    #[test]
    fn derived_ratios() {
        let t = t();
        assert!((t.dedup_factor() - 4.0).abs() < 1e-12);
        assert!((t.hit_rate() - 0.2).abs() < 1e-12);
        assert!((t.queries_per_second() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let z = BatchTelemetry {
            queries: 0,
            atoms: 0,
            unique: 0,
            cache_hits: 0,
            evaluated: 0,
            effects: 0,
            threads: 0,
            wall_seconds: 0.0,
        };
        assert_eq!(z.dedup_factor(), 1.0);
        assert_eq!(z.hit_rate(), 0.0);
        assert!(z.queries_per_second().is_infinite());
    }

    #[test]
    fn display_mentions_the_load_bearing_numbers() {
        let s = t().to_string();
        assert!(s.contains("100 atoms"));
        assert!(s.contains("4.0× dedup"));
        assert!(s.contains("5 cache hits"));
    }
}
