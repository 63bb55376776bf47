//! Configuration types for the probabilistic nucleus decompositions.

use ugraph::Parallelism;

use crate::error::{NucleusError, Result, ThetaGridError};

/// Hyperparameters of the hybrid approximation framework (Section 5.3).
///
/// The conditions, checked in order for every triangle support query
/// (where `c` is the number of 4-cliques containing the triangle and
/// `Pr(E_i)` are the completion probabilities):
///
/// 1. `c ≥ a` → Lyapunov CLT (normal) approximation,
/// 2. `c < b` and all `Pr(E_i) < c_max` → Poisson approximation,
/// 3. `Σ Pr(E_i)² > 1` → Translated Poisson approximation,
/// 4. variance ratio ≥ `d` → Binomial approximation,
/// 5. otherwise → exact dynamic programming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxThresholds {
    /// Clique-count threshold `A` above which CLT is used.
    pub a: usize,
    /// Clique-count threshold `B` below which Poisson may be used.
    pub b: usize,
    /// Probability threshold `C` below which Poisson may be used.
    pub c_max: f64,
    /// Variance-ratio threshold `D` above which Binomial may be used.
    pub d: f64,
}

impl Default for ApproxThresholds {
    /// The values identified in the paper: `A = 200`, `B = 100`,
    /// `C = 0.25`, `D = 0.9`.
    fn default() -> Self {
        ApproxThresholds {
            a: 200,
            b: 100,
            c_max: 0.25,
            d: 0.9,
        }
    }
}

/// How the per-triangle support scores `κ` are computed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScoreMethod {
    /// Exact dynamic programming for every triangle (the `DP` algorithm of
    /// the paper).
    #[default]
    DynamicProgramming,
    /// The hybrid statistical approximation framework (the `AP` algorithm
    /// of the paper), falling back to dynamic programming when no
    /// approximation condition holds.
    Hybrid(ApproxThresholds),
}

/// Validates a scoring method's hyperparameters (shared by
/// [`DecompConfig`](crate::decomp::DecompConfig) and [`SweepConfig`]).
pub(crate) fn validate_method(method: &ScoreMethod) -> Result<()> {
    if let ScoreMethod::Hybrid(t) = method {
        if !(t.c_max > 0.0 && t.c_max <= 1.0) {
            return Err(NucleusError::InvalidThreshold {
                name: "approx.c_max",
                value: t.c_max,
            });
        }
        if !(t.d > 0.0 && t.d <= 1.0) {
            return Err(NucleusError::InvalidThreshold {
                name: "approx.d",
                value: t.d,
            });
        }
    }
    Ok(())
}

/// Validates a θ grid: non-empty, every entry finite and in `(0, 1]`,
/// sorted strictly ascending (no duplicates).  Each malformed mode maps
/// to its own [`ThetaGridError`] variant.
pub fn validate_theta_grid(thetas: &[f64]) -> Result<()> {
    if thetas.is_empty() {
        return Err(NucleusError::InvalidThetaGrid(ThetaGridError::Empty));
    }
    for (index, &value) in thetas.iter().enumerate() {
        if value.is_nan() {
            return Err(NucleusError::InvalidThetaGrid(ThetaGridError::NaN {
                index,
            }));
        }
        if !(value > 0.0 && value <= 1.0) {
            return Err(NucleusError::InvalidThetaGrid(ThetaGridError::OutOfRange {
                index,
                value,
            }));
        }
    }
    for index in 1..thetas.len() {
        if thetas[index] < thetas[index - 1] {
            return Err(NucleusError::InvalidThetaGrid(ThetaGridError::NotSorted {
                index,
            }));
        }
        if thetas[index] == thetas[index - 1] {
            return Err(NucleusError::InvalidThetaGrid(ThetaGridError::Duplicate {
                index,
                value: thetas[index],
            }));
        }
    }
    Ok(())
}

/// Configuration of a threshold-sweep decomposition
/// ([`DecompSweep`](crate::decomp::DecompSweep)): one support build
/// amortized across a whole grid of thresholds, at any rank of the
/// (r,s)-nucleus family.
///
/// The constructors default to the nucleus rank, and a single-threshold
/// [`DecompConfig`](crate::decomp::DecompConfig) expands into one via
/// [`DecompConfig::sweep`](crate::decomp::DecompConfig::sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The (r,s) instance to sweep.  The grid entries are interpreted as
    /// this rank's threshold (η, γ or θ).
    pub rank: crate::decomp::Rank,
    /// The threshold grid, sorted strictly ascending, every entry in
    /// `(0, 1]`.
    pub thetas: Vec<f64>,
    /// How support scores are computed (shared by every grid point).
    /// [`ScoreMethod::Hybrid`] is calibrated for the nucleus rank and
    /// rejected elsewhere.
    pub method: ScoreMethod,
    /// Parallelism of the support build and of the per-threshold peels
    /// (grids with ≥ 2 points peel grid points concurrently).  Results
    /// are bit-identical for every setting.
    pub parallelism: Parallelism,
}

impl SweepConfig {
    /// Exact-DP sweep over the given grid, at the nucleus rank.
    pub fn exact(thetas: Vec<f64>) -> Self {
        SweepConfig {
            rank: crate::decomp::Rank::Nucleus,
            thetas,
            method: ScoreMethod::DynamicProgramming,
            parallelism: Parallelism::Auto,
        }
    }

    /// Hybrid-approximation sweep with the paper's default
    /// hyperparameters, at the nucleus rank.
    pub fn approximate(thetas: Vec<f64>) -> Self {
        SweepConfig {
            rank: crate::decomp::Rank::Nucleus,
            thetas,
            method: ScoreMethod::Hybrid(ApproxThresholds::default()),
            parallelism: Parallelism::Auto,
        }
    }

    /// Selects the (r,s) instance the grid sweeps.
    pub fn with_rank(mut self, rank: crate::decomp::Rank) -> Self {
        self.rank = rank;
        self
    }

    /// Sets the parallelism of the sweep.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Validates the grid ([`validate_theta_grid`]), the scoring method's
    /// hyperparameters, and the method/rank combination (hybrid scoring
    /// is nucleus-only).
    pub fn validate(&self) -> Result<()> {
        validate_theta_grid(&self.thetas)?;
        validate_method(&self.method)?;
        if self.rank != crate::decomp::Rank::Nucleus
            && matches!(self.method, ScoreMethod::Hybrid(_))
        {
            return Err(NucleusError::UnsupportedMethod {
                rank: self.rank.as_str(),
                method: "hybrid",
            });
        }
        Ok(())
    }
}

/// Monte-Carlo sampling configuration for the global and weakly-global
/// algorithms (Algorithms 2 and 3).
///
/// By Hoeffding's inequality (Lemma 4), `n ≥ ⌈ln(2/δ) / (2ε²)⌉` samples
/// give an estimate within `ε` of the true probability with confidence
/// `1 − δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Additive error bound ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Optional explicit sample-count override (the paper uses `n = 200`
    /// for ε = δ = 0.1).
    pub num_samples_override: Option<usize>,
    /// RNG seed for reproducible sampling.
    pub seed: u64,
}

impl SamplingConfig {
    /// Creates a configuration with the given error bound and confidence.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        SamplingConfig {
            epsilon,
            delta,
            num_samples_override: None,
            seed: 0x5eed,
        }
    }

    /// Overrides the Hoeffding-derived number of samples.
    pub fn with_num_samples(mut self, n: usize) -> Self {
        self.num_samples_override = Some(n);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of possible worlds to sample (Lemma 4), or the override.
    pub fn num_samples(&self) -> usize {
        if let Some(n) = self.num_samples_override {
            return n;
        }
        crate::sampling::hoeffding_sample_size(self.epsilon, self.delta)
    }

    /// Validates ε, δ and that at least one world is sampled: with none,
    /// every estimate would be `0 / 0` and fail every θ test.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) || self.epsilon.is_nan() {
            return Err(NucleusError::InvalidThreshold {
                name: "epsilon",
                value: self.epsilon,
            });
        }
        if !(self.delta > 0.0 && self.delta <= 1.0) || self.delta.is_nan() {
            return Err(NucleusError::InvalidThreshold {
                name: "delta",
                value: self.delta,
            });
        }
        if self.num_samples() == 0 {
            return Err(NucleusError::InvalidThreshold {
                name: "num_samples",
                value: 0.0,
            });
        }
        Ok(())
    }
}

impl Default for SamplingConfig {
    /// ε = 0.1, δ = 0.1 as in the paper's experiments.
    fn default() -> Self {
        SamplingConfig::new(0.1, 0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_match_paper() {
        let t = ApproxThresholds::default();
        assert_eq!(t.a, 200);
        assert_eq!(t.b, 100);
        assert_eq!(t.c_max, 0.25);
        assert_eq!(t.d, 0.9);
    }

    #[test]
    fn sweep_config_constructors() {
        let e = SweepConfig::exact(vec![0.1, 0.3, 0.9]);
        assert_eq!(e.method, ScoreMethod::DynamicProgramming);
        assert_eq!(e.parallelism, Parallelism::Auto);
        assert!(e.validate().is_ok());
        let a = SweepConfig::approximate(vec![0.2]).with_parallelism(Parallelism::Sequential);
        assert!(matches!(a.method, ScoreMethod::Hybrid(_)));
        assert_eq!(a.parallelism, Parallelism::Sequential);
        assert!(a.validate().is_ok());
        // A grid touching the boundaries of (0, 1] is valid.
        assert!(SweepConfig::exact(vec![f64::MIN_POSITIVE, 1.0])
            .validate()
            .is_ok());
    }

    #[test]
    fn sweep_config_rank_defaults_to_nucleus_and_is_settable() {
        use crate::decomp::Rank;
        assert_eq!(SweepConfig::exact(vec![0.5]).rank, Rank::Nucleus);
        assert_eq!(SweepConfig::approximate(vec![0.5]).rank, Rank::Nucleus);
        let c = SweepConfig::exact(vec![0.5]).with_rank(Rank::Truss);
        assert_eq!(c.rank, Rank::Truss);
        assert!(c.validate().is_ok());
        // Hybrid scoring is calibrated for the nucleus rank only.
        assert_eq!(
            SweepConfig::approximate(vec![0.5])
                .with_rank(Rank::Core)
                .validate(),
            Err(NucleusError::UnsupportedMethod {
                rank: "core",
                method: "hybrid",
            })
        );
    }

    #[test]
    fn empty_grid_is_rejected() {
        assert_eq!(
            SweepConfig::exact(vec![]).validate(),
            Err(NucleusError::InvalidThetaGrid(ThetaGridError::Empty))
        );
    }

    #[test]
    fn nan_grid_entry_is_rejected() {
        assert_eq!(
            SweepConfig::exact(vec![0.1, f64::NAN, 0.5]).validate(),
            Err(NucleusError::InvalidThetaGrid(ThetaGridError::NaN {
                index: 1
            }))
        );
    }

    #[test]
    fn out_of_range_grid_entries_are_rejected() {
        for (grid, index, value) in [
            (vec![0.0, 0.5], 0, 0.0),
            (vec![-0.2, 0.5], 0, -0.2),
            (vec![0.5, 1.5], 1, 1.5),
            (vec![0.5, f64::INFINITY], 1, f64::INFINITY),
        ] {
            assert_eq!(
                SweepConfig::exact(grid).validate(),
                Err(NucleusError::InvalidThetaGrid(ThetaGridError::OutOfRange {
                    index,
                    value
                }))
            );
        }
    }

    #[test]
    fn unsorted_grid_is_rejected() {
        assert_eq!(
            SweepConfig::exact(vec![0.5, 0.2, 0.8]).validate(),
            Err(NucleusError::InvalidThetaGrid(ThetaGridError::NotSorted {
                index: 1
            }))
        );
    }

    #[test]
    fn duplicate_grid_entry_is_rejected() {
        assert_eq!(
            SweepConfig::exact(vec![0.2, 0.5, 0.5]).validate(),
            Err(NucleusError::InvalidThetaGrid(ThetaGridError::Duplicate {
                index: 2,
                value: 0.5
            }))
        );
    }

    #[test]
    fn sweep_config_validates_method_thresholds_too() {
        let mut cfg = SweepConfig::approximate(vec![0.5]);
        if let ScoreMethod::Hybrid(ref mut t) = cfg.method {
            t.c_max = 0.0;
        }
        assert!(matches!(
            cfg.validate(),
            Err(NucleusError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn sampling_config_sample_count() {
        let cfg = SamplingConfig::new(0.1, 0.1);
        // ln(20)/(2*0.01) = 149.8 → 150.
        assert_eq!(cfg.num_samples(), 150);
        let cfg = cfg.with_num_samples(200);
        assert_eq!(cfg.num_samples(), 200);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sampling_config_validation() {
        assert!(SamplingConfig::new(0.0, 0.1).validate().is_err());
        assert!(SamplingConfig::new(0.1, 0.0).validate().is_err());
        assert!(SamplingConfig::new(0.1, 1.5).validate().is_err());
        assert!(SamplingConfig::new(0.2, 0.05).validate().is_ok());
    }

    #[test]
    fn zero_samples_are_rejected() {
        let zero = NucleusError::InvalidThreshold {
            name: "num_samples",
            value: 0.0,
        };
        let cfg = SamplingConfig::default().with_num_samples(0);
        assert_eq!(cfg.validate(), Err(zero));
        assert!(cfg.with_num_samples(1).validate().is_ok());
        // ε and δ are checked first.
        assert!(matches!(
            SamplingConfig::new(0.0, 0.1).with_num_samples(0).validate(),
            Err(NucleusError::InvalidThreshold {
                name: "epsilon",
                ..
            })
        ));
    }

    #[test]
    fn sampling_seed_is_configurable() {
        let cfg = SamplingConfig::default().with_seed(7);
        assert_eq!(cfg.seed, 7);
    }
}
