//! Root finding for the paper's optimality conditions.
//!
//! The synchronous-bus square-partition optimum solves the cubic
//! `E·Tfp·s³ + 4k(c·s² − b·n²) = 0` (§6.1). With all parameters positive
//! the polynomial has exactly one positive root (it is −4kbn² at 0 and
//! increases without bound), found here by safeguarded Newton.

/// Finds the largest root of `a₃x³ + a₂x² + a₀ = 0` with `a₃ ≥ 0`,
/// `a₂ ≥ 0`, `a₀ ≤ 0`: the unique positive one when `a₀ < 0`, and 0 when
/// `a₀ = 0` (nothing to communicate). A root past `f64`'s range (free
/// computation, `a₃` underflowed to 0) is infinite.
///
/// Newton iteration with a bisection safeguard on a bracket that always
/// contains the root; converges to relative `1e-14`.
pub fn positive_cubic_root(a3: f64, a2: f64, a0: f64) -> f64 {
    assert!(a3 >= 0.0 && a2 >= 0.0 && a0 <= 0.0, "cubic not in the paper's form");
    if a0 == 0.0 {
        return 0.0;
    }
    let p = |x: f64| a3 * x * x * x + a2 * x * x + a0;
    let dp = |x: f64| 3.0 * a3 * x * x + 2.0 * a2 * x;
    // Bracket: p(0) = a0 < 0; grow hi until positive.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while p(hi) < 0.0 {
        hi *= 2.0;
        if hi.is_infinite() {
            return hi;
        }
    }
    let mut x = hi * 0.5;
    for _ in 0..200 {
        let fx = p(x);
        if fx > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        let d = dp(x);
        let newton = if d > 0.0 { x - fx / d } else { f64::NAN };
        x = if newton.is_finite() && newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
        if (hi - lo) <= 1e-14 * hi.max(1e-300) {
            break;
        }
    }
    x
}

/// Solves the paper's §6.1 cubic for the optimal square side:
/// `E·Tfp·s³ + 4k(c·s² − b·n²) = 0`.
pub fn optimal_square_side(e: f64, tfp: f64, k: f64, c: f64, b: f64, n: f64) -> f64 {
    positive_cubic_root(e * tfp, 4.0 * k * c, -4.0 * k * b * n * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_cubic() {
        // x³ - 8 = 0 → x = 2.
        let r = positive_cubic_root(1.0, 0.0, -8.0);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solves_with_quadratic_term() {
        // x³ + x² - 12 = 0 → x = 2 (8 + 4 - 12).
        let r = positive_cubic_root(1.0, 1.0, -12.0);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn c_zero_matches_closed_form() {
        // With c = 0 the paper's optimum is s̃ = (4kbn²/(E·Tfp))^(1/3).
        let (e, tfp, k, b, n) = (6.0, 1.4e-7, 1.0, 1.0e-6, 256.0);
        let s = optimal_square_side(e, tfp, k, 0.0, b, n);
        let closed = (4.0 * k * b * n * n / (e * tfp)).powf(1.0 / 3.0);
        assert!((s - closed).abs() / closed < 1e-12);
    }

    #[test]
    fn overhead_shrinks_the_optimal_side() {
        // Positive c makes communication cheaper per point *relative to the
        // c=0 curve's balance*, pulling the optimal side down: the cubic's
        // root decreases in c.
        let (e, tfp, k, b, n) = (6.0, 1.4e-7, 1.0, 1.0e-6, 256.0);
        let s0 = optimal_square_side(e, tfp, k, 0.0, b, n);
        let s1 = optimal_square_side(e, tfp, k, 1.0e-6, b, n);
        let s2 = optimal_square_side(e, tfp, k, 1.0e-3, b, n);
        assert!(s1 < s0);
        assert!(s2 < s1);
    }

    #[test]
    fn residual_is_tiny() {
        let (a3, a2, a0) = (2.5e-7, 3.0e-6, -0.26);
        let r = positive_cubic_root(a3, a2, a0);
        let res = a3 * r * r * r + a2 * r * r + a0;
        assert!(res.abs() < 1e-10 * a0.abs());
    }

    #[test]
    fn degenerate_cubics_answer_their_limits() {
        // No communication: the root is 0 (use every processor).
        assert_eq!(positive_cubic_root(1.0, 1.0, 0.0), 0.0);
        // Free computation: x² = 12/3.
        assert!((positive_cubic_root(0.0, 3.0, -12.0) - 2.0).abs() < 1e-12);
        // Free computation and no overhead: no finite root.
        assert_eq!(positive_cubic_root(0.0, 0.0, -1.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "paper's form")]
    fn rejects_wrong_sign_pattern() {
        let _ = positive_cubic_root(1.0, 0.0, 8.0);
    }
}
