//! Normal (Lyapunov CLT) approximation of the triangle-support
//! distribution (Section 5.3, Equation 13).
//!
//! When the clique count `c_△` (and hence the variance of ζ) is large,
//! Lyapunov's central limit theorem applies to the non-identically
//! distributed Bernoulli sum: `(ζ − μ) / σ` is approximately standard
//! normal, so `Pr[ζ ≥ k] ≈ 1 − Φ((k − μ) / σ)`.

/// Standard normal cumulative distribution function Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function, Abramowitz–Stegun approximation 7.1.26
/// (absolute error < 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// `Pr[ζ ≥ k]` under the normal approximation with the given mean and
/// variance of ζ.  A zero variance degenerates to a point mass at the
/// mean.
pub fn tail(mean: f64, variance: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let k = k as f64;
    if variance <= f64::EPSILON {
        return if k <= mean { 1.0 } else { 0.0 };
    }
    let z = (k - mean) / variance.sqrt();
    (1.0 - normal_cdf(z)).clamp(0.0, 1.0)
}

/// The largest `k ≤ max_support` such that
/// `triangle_prob · Pr[ζ ≥ k] ≥ theta` under the normal approximation.
pub fn max_k(triangle_prob: f64, completion_probs: &[f64], theta: f64) -> u32 {
    if triangle_prob < theta {
        return 0;
    }
    let mean = super::stats::mean(completion_probs);
    let variance = super::stats::variance(completion_probs);
    let max_support = completion_probs.len();
    let mut best = 0u32;
    for k in 0..=max_support {
        if triangle_prob * tail(mean, variance, k) >= theta {
            best = k as u32;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::rs::dp;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, expected) in cases {
            assert!((erf(x) - expected).abs() < 1e-6, "erf({x})");
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841344746),
            (-1.0, 0.158655254),
            (1.959964, 0.975),
            (-3.0, 0.001349898),
        ];
        for (x, expected) in cases {
            assert!((normal_cdf(x) - expected).abs() < 1e-5, "Phi({x})");
        }
    }

    #[test]
    fn tail_monotone_in_k() {
        let mut last = 1.0;
        for k in 0..50usize {
            let t = tail(20.0, 9.0, k);
            assert!(t <= last + 1e-12);
            assert!((0.0..=1.0).contains(&t));
            last = t;
        }
    }

    #[test]
    fn degenerate_variance() {
        assert_eq!(tail(5.0, 0.0, 3), 1.0);
        assert_eq!(tail(5.0, 0.0, 5), 1.0);
        assert_eq!(tail(5.0, 0.0, 6), 0.0);
    }

    #[test]
    fn approximates_dp_for_large_counts() {
        // 300 moderately sized probabilities: the CLT condition (1) of the
        // hybrid framework.  Compare the tail around the mean.
        let probs: Vec<f64> = (0..300)
            .map(|i| 0.3 + 0.4 * ((i % 10) as f64) / 10.0)
            .collect();
        let exact = dp::support_tail(&probs);
        let mean = crate::approx::stats::mean(&probs);
        let var = crate::approx::stats::variance(&probs);
        for k in [100usize, 140, 150, 160, 200] {
            let approx = tail(mean, var, k);
            assert!(
                (approx - exact[k]).abs() < 0.05,
                "k={k}: clt {approx} vs exact {}",
                exact[k]
            );
        }
    }

    #[test]
    fn max_k_close_to_dp_for_large_counts() {
        let probs: Vec<f64> = (0..250)
            .map(|i| 0.2 + 0.5 * ((i % 7) as f64) / 7.0)
            .collect();
        for theta in [0.1, 0.3, 0.5] {
            let exact = dp::max_k(0.95, &probs, theta);
            let approx = max_k(0.95, &probs, theta);
            assert!(
                (exact as i64 - approx as i64).abs() <= 1,
                "theta {theta}: exact {exact} approx {approx}"
            );
        }
    }

    #[test]
    fn max_k_zero_when_triangle_unlikely() {
        assert_eq!(max_k(0.01, &[0.5; 300], 0.5), 0);
    }
}
