//! Adaptive convergence-check scheduling (§4, the mechanism of Saltz,
//! Naik & Nicol \[13\]).
//!
//! Stationary iterations decay geometrically once the dominant mode takes
//! over: `diff_k ≈ C·ρ^k`. Two observed checks `(k₁, d₁)`, `(k₂, d₂)` give
//! the rate estimate `ρ̂ = (d₂/d₁)^{1/(k₂−k₁)}` and hence a *predicted*
//! convergence iteration `k* = k₂ + ln(tol/d₂)/ln ρ̂`. The adaptive
//! scheduler jumps a safety fraction of the way to `k*` instead of probing
//! blindly, which is how \[13\] reduced the "extremely high" checking cost
//! to "an insignificant amount": almost all checks land where convergence
//! actually happens.
//!
//! [`CheckScheduler`] is the feedback-driven interface, re-exported from
//! `parspeed-solver`, whose one check-scheduled loop
//! (`parspeed_solver::run_schedule`, which runs all six solvers)
//! consults it;
//! [`CheckPolicy`](crate::CheckPolicy) implements it by ignoring the
//! feedback, and [`AdaptiveChecker`] implements the rate estimator.

pub use parspeed_solver::CheckScheduler;

/// The rate-estimating scheduler of \[13\].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveChecker {
    /// First check iteration (skips the pre-asymptotic transient).
    pub first: usize,
    /// Smallest allowed gap between checks.
    pub min_interval: usize,
    /// Largest allowed gap — a wrong rate estimate can only cost this much
    /// overshoot.
    pub max_interval: usize,
    /// Fraction of the predicted distance-to-convergence to jump
    /// (`0 < safety ≤ 1`); below 1 trades extra checks for less overshoot.
    pub safety: f64,
    last: Option<(usize, f64)>,
    rate: Option<f64>,
}

impl Default for AdaptiveChecker {
    fn default() -> Self {
        Self { first: 8, min_interval: 4, max_interval: 4096, safety: 0.9, last: None, rate: None }
    }
}

impl AdaptiveChecker {
    /// The current rate estimate `ρ̂`: available once two informative
    /// (strictly decaying) checks have been seen.
    pub fn estimated_rate(&self) -> Option<f64> {
        self.rate
    }
}

impl CheckScheduler for AdaptiveChecker {
    fn first_check(&mut self) -> usize {
        self.first.max(1)
    }

    fn next_after(&mut self, checked_at: usize, diff: f64, tol: f64) -> usize {
        assert!(self.safety > 0.0 && self.safety <= 1.0, "safety must be in (0, 1]");
        let fallback = checked_at + (checked_at / 2).clamp(self.min_interval, self.max_interval);
        let next = match self.last {
            Some((k_prev, d_prev))
                if diff > 0.0 && d_prev > diff && checked_at > k_prev && tol > 0.0 =>
            {
                // ρ̂ from the last two observations; predicted convergence.
                let span = (checked_at - k_prev) as f64;
                let rho = (diff / d_prev).powf(1.0 / span);
                self.rate = Some(rho);
                let remaining = (tol / diff).ln() / rho.ln(); // iterations to go
                if remaining.is_finite() && remaining > 0.0 {
                    let jump = (self.safety * remaining).ceil() as usize;
                    checked_at + jump.clamp(self.min_interval, self.max_interval)
                } else {
                    fallback
                }
            }
            // No usable history (first check, or residual not decaying):
            // geometric growth until the asymptotic regime shows.
            _ => fallback,
        };
        self.last = Some((checked_at, diff));
        next.max(checked_at + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckPolicy;

    /// Drive a scheduler against an exact geometric decay and report
    /// (checks used, converged-at iteration, first iteration where
    /// diff < tol).
    fn drive(mut s: impl CheckScheduler, rho: f64, c0: f64, tol: f64) -> (usize, usize, usize) {
        let diff = |k: usize| c0 * rho.powi(k as i32);
        let exact = ((tol / c0).ln() / rho.ln()).ceil() as usize;
        let mut k = s.first_check();
        let mut checks = 0usize;
        loop {
            checks += 1;
            let d = diff(k);
            if d < tol {
                return (checks, k, exact);
            }
            k = s.next_after(k, d, tol);
            assert!(checks < 100_000, "scheduler failed to converge");
        }
    }

    #[test]
    fn adaptive_uses_very_few_checks_on_clean_decay() {
        let (checks, at, exact) = drive(AdaptiveChecker::default(), 0.999, 1.0, 1e-10);
        // exact ≈ 23025 iterations; blind Every(64) would use ~360 checks.
        assert!(checks <= 12, "adaptive used {checks} checks");
        assert!(at >= exact, "declared convergence early: {at} < {exact}");
        assert!(
            at - exact <= exact / 10 + 64,
            "overshoot too large: stopped at {at}, exact {exact}"
        );
    }

    #[test]
    fn adaptive_beats_geometric_policy_checks() {
        let (a_checks, ..) = drive(AdaptiveChecker::default(), 0.9995, 1.0, 1e-8);
        let (g_checks, ..) = drive(CheckPolicy::geometric(), 0.9995, 1.0, 1e-8);
        assert!(a_checks * 5 <= g_checks, "adaptive {a_checks} vs geometric {g_checks} checks");
    }

    #[test]
    fn rate_estimate_matches_the_true_decay() {
        let mut s = AdaptiveChecker::default();
        let rho = 0.98f64;
        let diff = |k: usize| 3.0 * rho.powi(k as i32);
        let mut k = s.first_check();
        for _ in 0..4 {
            k = s.next_after(k, diff(k), 1e-12);
        }
        let est = s.estimated_rate().expect("two informative checks seen");
        assert!((est - rho).abs() < 1e-9, "estimated {est}, true {rho}");
    }

    #[test]
    fn safety_below_one_checks_earlier() {
        let cautious = AdaptiveChecker { safety: 0.5, ..Default::default() };
        let bold = AdaptiveChecker { safety: 1.0, ..Default::default() };
        let (c_checks, c_at, exact) = drive(cautious, 0.995, 1.0, 1e-9);
        let (b_checks, ..) = drive(bold, 0.995, 1.0, 1e-9);
        assert!(c_checks >= b_checks);
        assert!(c_at >= exact);
    }

    #[test]
    fn non_decaying_residuals_fall_back_to_geometric_growth() {
        let mut s = AdaptiveChecker::default();
        let mut k = s.first_check();
        let mut gaps = Vec::new();
        for _ in 0..6 {
            let next = s.next_after(k, 1.0, 1e-8); // flat residual
            gaps.push(next - k);
            k = next;
        }
        assert!(s.estimated_rate().is_none());
        // Gaps grow (geometric fallback) but never exceed the cap.
        assert!(gaps.windows(2).all(|w| w[1] >= w[0]));
        assert!(gaps.iter().all(|&g| g <= 4096));
    }

    #[test]
    fn next_check_is_always_strictly_later() {
        let mut s = AdaptiveChecker { min_interval: 1, ..Default::default() };
        // Converging extremely fast: predicted remaining < 1.
        let n1 = s.next_after(10, 1e-3, 0.9e-3);
        assert!(n1 > 10);
        let mut p = CheckPolicy::Every(1);
        assert!(CheckScheduler::next_after(&mut p, 7, 0.5, 1e-9) == 8);
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn rejects_bad_safety() {
        let mut s = AdaptiveChecker { safety: 0.0, ..Default::default() };
        let _ = s.next_after(1, 0.5, 1e-9);
    }
}
