//! Figure 6 — average relative error of the statistical approximations
//! under the conditions they are designed for, at θ = 0.3:
//!
//! * **6a** — Binomial vs CLT vs Poisson when all `Pr(E_i) ∈ (0, 0.1]`,
//!   for `c ∈ {25, 50, 100}`.
//! * **6b** — Poisson vs Translated Poisson for `c = 50` as the range of
//!   `Pr(E_i)` grows from `(0, 0.1]` to `(0, 1]`.
//! * **6c** — Binomial when the variance ratio is close to 1 (probabilities
//!   close to each other), for `c ∈ {25, 50, 100}`.
//!
//! Relative error is measured on the quantity the decomposition actually
//! consumes: the largest `k` with `Pr[ζ ≥ k] ≥ θ` (the probabilistic
//! support score), comparing each approximation against the exact DP.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nucleus::approx::{max_k_with_method, ApproxMethod};
use ugraph::rs::dp;

use crate::runner::{format_table, ExperimentContext};

/// Threshold fixed by the figure.
pub const THETA: f64 = 0.3;
/// Number of sampled synthetic triangles per configuration.
pub const SAMPLES: usize = 1000;

/// One cell: a method, a configuration label, and the mean relative error.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// Which sub-figure the cell belongs to (`"6a"`, `"6b"`, `"6c"`).
    pub panel: &'static str,
    /// Configuration label (e.g. `c=50` or the probability range).
    pub config: String,
    /// Approximation method.
    pub method: ApproxMethod,
    /// Mean relative error of the support score vs DP.
    pub relative_error: f64,
}

/// The full Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// All cells across the three panels.
    pub cells: Vec<Fig6Cell>,
}

fn mean_relative_error<R: Rng>(
    rng: &mut R,
    method: ApproxMethod,
    c: usize,
    prob_low: f64,
    prob_high: f64,
    samples: usize,
) -> f64 {
    let mut total = 0.0f64;
    let mut counted = 0usize;
    for _ in 0..samples {
        let probs: Vec<f64> = (0..c)
            .map(|_| rng.gen_range(prob_low..=prob_high))
            .collect();
        let exact = dp::max_k(1.0, &probs, THETA);
        if exact == 0 {
            continue;
        }
        let approx = max_k_with_method(method, 1.0, &probs, THETA);
        total += (approx as f64 - exact as f64).abs() / exact as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Like [`mean_relative_error`] but with probabilities clustered around a
/// random centre (so the variance ratio is close to 1 — panel 6c).
fn mean_relative_error_clustered<R: Rng>(
    rng: &mut R,
    method: ApproxMethod,
    c: usize,
    samples: usize,
) -> f64 {
    let mut total = 0.0f64;
    let mut counted = 0usize;
    for _ in 0..samples {
        let centre: f64 = rng.gen_range(0.15..0.85);
        let spread = 0.02f64;
        let probs: Vec<f64> = (0..c)
            .map(|_| (centre + rng.gen_range(-spread..=spread)).clamp(0.01, 0.99))
            .collect();
        let exact = dp::max_k(1.0, &probs, THETA);
        if exact == 0 {
            continue;
        }
        let approx = max_k_with_method(method, 1.0, &probs, THETA);
        total += (approx as f64 - exact as f64).abs() / exact as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Runs all three panels.
pub fn run(ctx: &ExperimentContext, samples: usize) -> Fig6 {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed.wrapping_add(0x6f6f));
    let mut cells = Vec::new();

    // Panel 6a: small Pr(E_i), c in {25, 50, 100}.
    for &c in &[25usize, 50, 100] {
        for method in [
            ApproxMethod::Binomial,
            ApproxMethod::Clt,
            ApproxMethod::Poisson,
        ] {
            let err = mean_relative_error(&mut rng, method, c, 0.001, 0.1, samples);
            cells.push(Fig6Cell {
                panel: "6a",
                config: format!("c={c}"),
                method,
                relative_error: err,
            });
        }
    }

    // Panel 6b: c = 50, growing probability ranges.
    for &high in &[0.1f64, 0.25, 0.5, 1.0] {
        for method in [ApproxMethod::Poisson, ApproxMethod::TranslatedPoisson] {
            let err = mean_relative_error(&mut rng, method, 50, 0.001, high, samples);
            cells.push(Fig6Cell {
                panel: "6b",
                config: format!("Pr(Ei)<={high}"),
                method,
                relative_error: err,
            });
        }
    }

    // Panel 6c: probabilities close to each other, c in {25, 50, 100}.
    for &c in &[25usize, 50, 100] {
        let err = mean_relative_error_clustered(&mut rng, ApproxMethod::Binomial, c, samples);
        cells.push(Fig6Cell {
            panel: "6c",
            config: format!("c={c}"),
            method: ApproxMethod::Binomial,
            relative_error: err,
        });
    }

    Fig6 { cells }
}

impl Fig6 {
    /// Formats the three panels as one table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.panel.to_string(),
                    c.config.clone(),
                    c.method.to_string(),
                    format!("{:.4}", c.relative_error),
                ]
            })
            .collect();
        format!(
            "Figure 6: average relative error of the approximations (theta = {THETA})\n{}",
            format_table(&["panel", "config", "method", "rel. error"], &rows)
        )
    }

    /// Qualitative checks mirroring the paper's observations:
    /// Poisson/Binomial beat CLT for small probabilities (6a), the
    /// Translated Poisson is at least as good as the plain Poisson for
    /// large probabilities (6b), and the Binomial error stays small in its
    /// regime (6c).  Returns the violated claims.
    pub fn check_shape(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let get = |panel: &str, config: &str, method: ApproxMethod| -> Option<f64> {
            self.cells
                .iter()
                .find(|c| c.panel == panel && c.config == config && c.method == method)
                .map(|c| c.relative_error)
        };
        for c in ["c=25", "c=50", "c=100"] {
            if let (Some(p), Some(clt)) = (
                get("6a", c, ApproxMethod::Poisson),
                get("6a", c, ApproxMethod::Clt),
            ) {
                if p > clt + 0.02 {
                    violations.push(format!(
                        "6a {c}: Poisson ({p:.3}) worse than CLT ({clt:.3})"
                    ));
                }
            }
        }
        if let (Some(p), Some(tp)) = (
            get("6b", "Pr(Ei)<=1", ApproxMethod::Poisson),
            get("6b", "Pr(Ei)<=1", ApproxMethod::TranslatedPoisson),
        ) {
            if tp > p + 0.02 {
                violations.push(format!(
                    "6b full range: Translated Poisson ({tp:.3}) worse than Poisson ({p:.3})"
                ));
            }
        }
        for c in self.cells.iter().filter(|c| c.panel == "6c") {
            if c.relative_error > 0.05 {
                violations.push(format!(
                    "6c {}: Binomial error {:.3} above 0.05",
                    c.config, c.relative_error
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_datasets::Scale;

    #[test]
    fn shapes_match_the_paper_with_small_sample_counts() {
        let ctx = ExperimentContext::new(Scale::Tiny, 2);
        let fig = run(&ctx, 120);
        assert_eq!(fig.cells.len(), 9 + 8 + 3);
        let violations = fig.check_shape();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(fig.format().contains("Figure 6"));
    }
}
