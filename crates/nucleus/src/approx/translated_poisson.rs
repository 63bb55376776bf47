//! Translated Poisson approximation (Section 5.3, Equations 11–12).
//!
//! When the `Pr(E_i)` are not small, the plain Poisson approximation's
//! variance `λ = μ` overshoots the true variance `σ² = μ − Σ Pr(E_i)²`.
//! The translated Poisson variable
//! `Y = ⌊λ₂⌋ + Π_{λ − ⌊λ₂⌋}` with `λ₂ = λ − σ²` matches the mean exactly
//! and the variance within 1 (Equation 11), and its tail follows the same
//! incremental recurrence as the plain Poisson after shifting by `⌊λ₂⌋`.

use super::poisson;

/// Parameters of the translated Poisson approximation for a given mean and
/// variance of ζ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranslatedPoisson {
    /// Integer shift `⌊λ₂⌋ = ⌊μ − σ²⌋`.
    pub shift: i64,
    /// Parameter of the Poisson part, `λ − ⌊λ₂⌋`.
    pub poisson_lambda: f64,
}

impl TranslatedPoisson {
    /// Builds the approximation from the mean and variance of ζ.
    pub fn from_moments(mean: f64, variance: f64) -> Self {
        let lambda2 = mean - variance;
        let shift = lambda2.floor() as i64;
        let shift = shift.max(0);
        TranslatedPoisson {
            shift,
            poisson_lambda: (mean - shift as f64).max(0.0),
        }
    }

    /// `Pr[Y ≥ k]`.
    pub fn tail(&self, k: usize) -> f64 {
        let k = k as i64;
        let residual = k - self.shift;
        if residual <= 0 {
            1.0
        } else {
            poisson::tail(self.poisson_lambda, residual as usize)
        }
    }

    /// The largest `k ≤ max_support` such that
    /// `triangle_prob · Pr[Y ≥ k] ≥ theta`.
    pub fn max_k(&self, triangle_prob: f64, max_support: usize, theta: f64) -> u32 {
        if triangle_prob < theta {
            return 0;
        }
        let mut best = 0u32;
        for k in 0..=max_support {
            if triangle_prob * self.tail(k) >= theta {
                best = k as u32;
            } else {
                break;
            }
        }
        best
    }
}

/// Convenience: the largest qualifying `k` directly from the completion
/// probabilities.
pub fn max_k(triangle_prob: f64, completion_probs: &[f64], theta: f64) -> u32 {
    let mean = super::stats::mean(completion_probs);
    let variance = super::stats::variance(completion_probs);
    TranslatedPoisson::from_moments(mean, variance).max_k(
        triangle_prob,
        completion_probs.len(),
        theta,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::stats;
    use ugraph::rs::dp;

    #[test]
    fn moments_are_approximately_preserved() {
        let probs = vec![0.6; 40];
        let mean = stats::mean(&probs);
        let var = stats::variance(&probs);
        let tp = TranslatedPoisson::from_moments(mean, var);
        // Mean of Y = shift + poisson_lambda = mean (up to flooring).
        let y_mean = tp.shift as f64 + tp.poisson_lambda;
        assert!((y_mean - mean).abs() < 1e-9);
        // Variance of Y = poisson_lambda, within 1 of the true variance
        // (Equation 11).
        assert!((tp.poisson_lambda - var).abs() < 1.0);
    }

    #[test]
    fn tail_is_one_below_the_shift() {
        let tp = TranslatedPoisson::from_moments(10.0, 2.0);
        assert!(tp.shift >= 7);
        assert_eq!(tp.tail(0), 1.0);
        assert_eq!(tp.tail(tp.shift as usize), 1.0);
        assert!(tp.tail(tp.shift as usize + 40) < 1e-6);
    }

    #[test]
    fn tail_monotone() {
        let tp = TranslatedPoisson::from_moments(8.0, 3.0);
        let mut last = 1.0;
        for k in 0..30 {
            let t = tp.tail(k);
            assert!(t <= last + 1e-12);
            last = t;
        }
    }

    #[test]
    fn degenerate_certain_events() {
        // All events certain: mean = c, variance = 0 → Y = c exactly.
        let probs = vec![1.0; 5];
        let tp = TranslatedPoisson::from_moments(stats::mean(&probs), stats::variance(&probs));
        assert_eq!(tp.shift, 5);
        assert_eq!(tp.tail(5), 1.0);
        assert!(tp.tail(6) < 1.0);
    }

    #[test]
    fn closer_to_dp_than_poisson_for_large_probs() {
        // Large Pr(E_i): the translated Poisson should track the exact DP
        // tail better than the plain Poisson (the motivation of the
        // construction).
        let probs = vec![0.8; 50];
        let exact = dp::support_tail(&probs);
        let lambda = stats::mean(&probs);
        let tp = TranslatedPoisson::from_moments(lambda, stats::variance(&probs));
        let mut err_tp = 0.0;
        let mut err_poisson = 0.0;
        for (k, &e) in exact.iter().enumerate() {
            err_tp += (tp.tail(k) - e).abs();
            err_poisson += (super::poisson::tail(lambda, k) - e).abs();
        }
        assert!(
            err_tp < err_poisson,
            "translated {err_tp} should beat plain {err_poisson}"
        );
    }

    #[test]
    fn max_k_consistent_with_tail() {
        let probs = vec![0.7; 30];
        let tri = 0.9;
        let theta = 0.25;
        let k = max_k(tri, &probs, theta);
        let tp = TranslatedPoisson::from_moments(stats::mean(&probs), stats::variance(&probs));
        assert!(tri * tp.tail(k as usize) >= theta);
        if (k as usize) < probs.len() {
            assert!(tri * tp.tail(k as usize + 1) < theta);
        }
    }

    #[test]
    fn max_k_zero_when_triangle_unlikely() {
        assert_eq!(max_k(0.01, &[0.9, 0.9, 0.9], 0.5), 0);
    }
}
