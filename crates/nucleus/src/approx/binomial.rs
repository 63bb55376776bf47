//! Binomial approximation of the triangle-support distribution
//! (Section 5.3, Equations 14–15).
//!
//! When the completion probabilities `Pr(E_i)` are close to each other,
//! the Poisson-binomial sum ζ is well approximated by a Binomial
//! distribution with `n = c` trials and success probability `p = μ / n`
//! (Ehm 1991).  Tail probabilities follow the multiplicative recurrence of
//! Equation 15, giving `O(c)` evaluation.

/// `Pr[B(n, p) = k]`, computed stably through logarithms for large `n`.
pub fn pmf(n: usize, p: f64, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_choose = super::poisson::ln_factorial(n)
        - super::poisson::ln_factorial(k)
        - super::poisson::ln_factorial(n - k);
    (ln_choose + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// `Pr[B(n, p) ≥ k]`.
pub fn tail(n: usize, p: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // Accumulate the CDF below k with the recurrence of Equation 15.
    let mut cdf = 0.0;
    let mut mass = pmf(n, p, 0);
    for j in 0..k {
        if j > 0 {
            mass = mass * ((n - j + 1) as f64 * p) / (j as f64 * (1.0 - p));
        }
        cdf += mass;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// The largest `k ≤ n` such that `triangle_prob · Pr[B(n, p) ≥ k] ≥ theta`
/// where `n` is the number of completion events and `p = μ / n`.
pub fn max_k(triangle_prob: f64, completion_probs: &[f64], theta: f64) -> u32 {
    if triangle_prob < theta {
        return 0;
    }
    let n = completion_probs.len();
    if n == 0 {
        return 0;
    }
    let p = super::stats::mean(completion_probs) / n as f64;
    if p >= 1.0 {
        return n as u32;
    }
    let mut best = 0u32;
    let mut cdf = 0.0f64;
    let mut mass = pmf(n, p, 0);
    for k in 0..=n {
        let tail_k = (1.0 - cdf).clamp(0.0, 1.0);
        if triangle_prob * tail_k >= theta {
            best = k as u32;
        } else {
            break;
        }
        if k < n {
            if k > 0 {
                mass = mass * ((n - k + 1) as f64 * p) / (k as f64 * (1.0 - p));
            }
            cdf += mass;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::rs::dp;

    fn choose(n: usize, k: usize) -> f64 {
        if k > n {
            return 0.0;
        }
        let mut r = 1.0;
        for i in 0..k {
            r = r * (n - i) as f64 / (i + 1) as f64;
        }
        r
    }

    #[test]
    fn pmf_matches_direct_formula() {
        let (n, p): (usize, f64) = (10, 0.3);
        for k in 0..=n {
            let direct = choose(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
            assert!((pmf(n, p, k) - direct).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn pmf_degenerate_p() {
        assert_eq!(pmf(5, 0.0, 0), 1.0);
        assert_eq!(pmf(5, 0.0, 1), 0.0);
        assert_eq!(pmf(5, 1.0, 5), 1.0);
        assert_eq!(pmf(5, 1.0, 4), 0.0);
        assert_eq!(pmf(5, 0.5, 6), 0.0);
    }

    #[test]
    fn tail_boundaries() {
        assert_eq!(tail(10, 0.4, 0), 1.0);
        assert_eq!(tail(10, 0.4, 11), 0.0);
        assert!((tail(10, 0.4, 10) - 0.4f64.powi(10)).abs() < 1e-12);
    }

    #[test]
    fn tail_complements_cdf() {
        let (n, p): (usize, f64) = (12, 0.6);
        for k in 1..=n {
            let cdf: f64 = (0..k).map(|j| pmf(n, p, j)).sum();
            assert!((tail(n, p, k) - (1.0 - cdf)).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn exact_for_identical_completion_probs() {
        // With identical Pr(E_i), the Binomial approximation is exact.
        let probs = vec![0.35; 15];
        let exact = dp::support_tail(&probs);
        for (k, &e) in exact.iter().enumerate() {
            assert!((tail(15, 0.35, k) - e).abs() < 1e-9, "k={k}");
        }
        for theta in [0.05, 0.2, 0.5, 0.8] {
            assert_eq!(
                max_k(0.9, &probs, theta),
                dp::max_k(0.9, &probs, theta),
                "theta={theta}"
            );
        }
    }

    #[test]
    fn max_k_zero_and_full_cases() {
        assert_eq!(max_k(0.05, &[0.9; 4], 0.1), 0);
        assert_eq!(max_k(1.0, &[], 0.5), 0);
        assert_eq!(max_k(1.0, &[1.0, 1.0, 1.0], 0.9), 3);
    }

    #[test]
    fn max_k_monotone_in_theta() {
        let probs = [0.5, 0.55, 0.45, 0.5, 0.52];
        let mut last = u32::MAX;
        for theta in [0.05, 0.1, 0.3, 0.6, 0.9] {
            let k = max_k(0.95, &probs, theta);
            assert!(k <= last);
            last = k;
        }
    }
}
