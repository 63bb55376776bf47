//! Exact Poisson-binomial dynamic programming shared by every rank of
//! the (r,s)-nucleus family.
//!
//! For an element with completion events `E_1, …, E_c` (4-clique
//! completions of a triangle, wedge closures of an edge, incident edges
//! of a vertex — see [`super::RsSupport`]), let `ζ = Σ E_i`.  The DP
//! table `X(k, j)` — the probability that exactly `k` of the first `j`
//! events hold — satisfies
//!
//! ```text
//! X(k, j) = Pr(E_j)·X(k−1, j−1) + (1 − Pr(E_j))·X(k, j−1)
//! ```
//!
//! with `X(0, 0) = 1`.  Multiplying the tail by the element's own
//! existence probability gives `Pr(X_{𝒢,e} ≥ k)` (Proposition 5.1 of the
//! nucleus paper for r = 3; the same algebra at r = 1 is Bonchi et al.'s
//! η-degree and at r = 2 Huang et al.'s γ-support).  The full table costs
//! `O(c²)` per element.

/// Reusable buffers for the DP tables.
///
/// The peeling engine evaluates the DP thousands of times; allocating a
/// fresh pmf/tail vector per evaluation dominated the allocator profile.
/// A `DpScratch` is grown once to the largest support encountered and
/// reused, so the steady state allocates nothing.  The arithmetic is the
/// exact sequence of operations of the allocating entry points, so scores
/// computed through a scratch are bit-identical to them.
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    pmf: Vec<f64>,
    tail: Vec<f64>,
}

impl DpScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Fills `self.pmf` with `Pr[ζ = k]` for `k = 0..=c`.
    fn fill_pmf(&mut self, completion_probs: &[f64]) {
        let c = completion_probs.len();
        self.pmf.clear();
        self.pmf.resize(c + 1, 0.0);
        self.pmf[0] = 1.0;
        for (j, &p) in completion_probs.iter().enumerate() {
            for k in (0..=j + 1).rev() {
                let keep = if k <= j { self.pmf[k] * (1.0 - p) } else { 0.0 };
                let take = if k > 0 { self.pmf[k - 1] * p } else { 0.0 };
                self.pmf[k] = keep + take;
            }
        }
    }

    /// Fills `self.pmf` and `self.tail` (`Pr[ζ ≥ k]` for `k = 0..=c`).
    fn fill_tail(&mut self, completion_probs: &[f64]) {
        self.fill_pmf(completion_probs);
        self.tail.clear();
        self.tail.resize(self.pmf.len(), 0.0);
        let mut acc = 0.0;
        for k in (0..self.pmf.len()).rev() {
            acc += self.pmf[k];
            self.tail[k] = acc.min(1.0);
        }
    }

    /// The tail `Pr[ζ ≥ k]` for `k = 0..=c`, computed into the scratch:
    /// the exact table [`max_k_with_scratch`] cuts at a threshold.
    pub fn tail(&mut self, completion_probs: &[f64]) -> &[f64] {
        self.fill_tail(completion_probs);
        &self.tail
    }
}

/// Bytes of DP-table scratch required for a support of size `c`: the pmf
/// and tail vectors, `c + 1` entries of 8 bytes each.  A *logical*
/// requirement (element count, not allocator capacity), so it is
/// independent of evaluation order and thread count — which keeps the
/// `peak_scratch_bytes` perf counter deterministic.
pub fn table_bytes(c: usize) -> usize {
    2 * (c + 1) * std::mem::size_of::<f64>()
}

/// Probability mass function of `ζ` (the number of completion events that
/// materialize).  Entry `k` is `Pr[ζ = k]` for `k = 0..=c`.
pub fn support_pmf(completion_probs: &[f64]) -> Vec<f64> {
    let mut scratch = DpScratch::new();
    scratch.fill_pmf(completion_probs);
    scratch.pmf
}

/// Tail probabilities of `ζ`: entry `k` is `Pr[ζ ≥ k]` for `k = 0..=c`.
pub fn support_tail(completion_probs: &[f64]) -> Vec<f64> {
    let mut scratch = DpScratch::new();
    scratch.fill_tail(completion_probs);
    scratch.tail
}

/// `Pr(X_{𝒢,e} ≥ k)` for a single `k`: `Pr(e) · Pr[ζ ≥ k]` where
/// `element_prob` is the existence probability of the conditioning
/// element itself (Proposition 5.1 of the nucleus paper at rank 3).
pub fn local_tail_probability(element_prob: f64, completion_probs: &[f64], k: usize) -> f64 {
    if k > completion_probs.len() {
        return 0.0;
    }
    element_prob * support_tail(completion_probs)[k]
}

/// The initial score of an element: the largest `k` such that
/// `Pr(e) · Pr[ζ ≥ k] ≥ θ`, or `0` when even `k = 0` fails (i.e. the
/// element itself exists with probability below `θ`).
pub fn max_k(element_prob: f64, completion_probs: &[f64], theta: f64) -> u32 {
    max_k_with_scratch(&mut DpScratch::new(), element_prob, completion_probs, theta)
}

/// [`max_k`] evaluated through a reusable [`DpScratch`].  Performs the
/// identical arithmetic, so the returned score is bit-for-bit the same;
/// only the allocations differ.
pub fn max_k_with_scratch(
    scratch: &mut DpScratch,
    element_prob: f64,
    completion_probs: &[f64],
    theta: f64,
) -> u32 {
    if element_prob < theta {
        return 0;
    }
    let mut best = 0u32;
    for (k, &t) in scratch.tail(completion_probs).iter().enumerate() {
        if element_prob * t >= theta {
            best = k as u32;
        } else {
            break; // tails are non-increasing in k
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn pmf_of_no_events() {
        assert_eq!(support_pmf(&[]), vec![1.0]);
        assert_eq!(support_tail(&[]), vec![1.0]);
    }

    #[test]
    fn pmf_matches_exhaustive_enumeration() {
        let probs = [0.3, 0.7, 0.45];
        let pmf = support_pmf(&probs);
        let mut expected = [0.0f64; 4];
        for mask in 0u32..8 {
            let mut p = 1.0;
            let mut cnt = 0usize;
            for (i, &pi) in probs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= pi;
                    cnt += 1;
                } else {
                    p *= 1.0 - pi;
                }
            }
            expected[cnt] += p;
        }
        for k in 0..4 {
            assert_close(pmf[k], expected[k]);
        }
        assert_close(pmf.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn tail_is_monotone() {
        let probs = [0.2, 0.9, 0.5, 0.5, 0.1];
        let tail = support_tail(&probs);
        assert_close(tail[0], 1.0);
        for w in tail.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
    }

    #[test]
    fn max_k_basics() {
        // Pr(e) = 1, one event with Pr(E) = 0.5, θ = 0.42 → k = 1.
        assert_eq!(max_k(1.0, &[0.5], 0.42), 1);
        assert_eq!(max_k(1.0, &[0.5], 0.6), 0);
        // Element below the threshold scores 0 without touching the DP.
        assert_eq!(max_k(0.05, &[0.9, 0.9], 0.1), 0);
        let probs = vec![1.0; 7];
        assert_eq!(max_k(1.0, &probs, 0.99), 7);
        assert_eq!(max_k(0.5, &probs, 0.4), 7);
        assert_eq!(max_k(0.5, &probs, 0.6), 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_sizes() {
        // A shared scratch cycled through shrinking and growing supports
        // must return exactly what fresh allocations return.
        let mut scratch = DpScratch::new();
        let supports: Vec<Vec<f64>> = vec![
            vec![0.3, 0.7, 0.45, 0.99, 0.01],
            vec![0.5],
            vec![],
            vec![0.9; 12],
            vec![0.2, 0.8],
        ];
        for probs in &supports {
            for theta in [0.05, 0.3, 0.7] {
                assert_eq!(
                    max_k_with_scratch(&mut scratch, 0.9, probs, theta),
                    max_k(0.9, probs, theta),
                    "c={} theta={theta}",
                    probs.len()
                );
            }
        }
    }

    #[test]
    fn table_bytes_counts_both_tables() {
        assert_eq!(table_bytes(0), 16);
        assert_eq!(table_bytes(4), 80);
    }

    #[test]
    fn max_k_is_monotone_in_theta() {
        let probs = [0.6, 0.7, 0.8, 0.3, 0.9];
        let mut last = u32::MAX;
        for theta in [0.05, 0.1, 0.2, 0.4, 0.6, 0.8] {
            let k = max_k(0.9, &probs, theta);
            assert!(k <= last);
            last = k;
        }
    }
}
