//! Unified (r,s)-decomposition surface.
//!
//! The paper's ℓ-NuDecomp is the (3,4) instance of the (r,s)-nucleus
//! family (Sarıyüce et al.); the probabilistic (k,η)-core (Bonchi et
//! al.) is (1,2) and the local (k,γ)-truss (Huang et al.) is (2,3) —
//! the same peel-with-Poisson-binomial-DP shape at every rank.  This
//! module is the one entry point that computes any of them on the
//! shared engine of [`ugraph::rs`]:
//!
//! * [`Rank`] selects the instance,
//! * [`DecompConfig`] is the builder-style configuration (rank,
//!   threshold, scoring method, parallelism), validated into the typed
//!   errors of [`crate::error`],
//! * [`Decomposition::compute`] runs one threshold,
//! * [`DecompSweep::compute`] amortizes one support build across a whole
//!   threshold grid, for any rank,
//! * [`RankSupport`] / [`DecompHandle`] keep a built support resident in
//!   memory and shareable across threads (`Arc`-based), so a serving
//!   process can answer many queries off one build; the handle also
//!   caches the support's threshold-independent [`TailTable`], so each
//!   element's DP runs once however many thresholds are asked.
//!
//! Outputs are **bit-identical** to the frozen eager engines of
//! [`crate::reference`]: the supports gather the same floats in the same
//! order, the DP is the same arithmetic (an initial score read off the
//! tail table is the DP's own cut of the same tail), and the deferred
//! peel reaches the same fixpoint as the eager references (the DP scorer
//! is monotone under cell removal, which makes the peeling fixpoint
//! schedule-independent).  Hybrid points, whose scorer is not monotone,
//! peel on the references' own schedule ([`rs::peel_eager`]).
//! Differential proptests in `tests/rs_engine_equivalence.rs` and in
//! [`crate::reference`] enforce this per rank.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use detdecomp::NucleusSubgraph;
use ugraph::rs::{
    self, CoreSupport, DpScratch, PeelStats, RsSupport, TailScratch, TailTable, TrussSupport,
};
use ugraph::update::GraphDelta;
use ugraph::{
    apply_edge_updates, par, ConnectedComponents, EdgeId, EdgeSubgraph, EdgeUpdate, Parallelism,
    UncertainGraph,
};

use crate::approx::{self, ApproxMethod};
use crate::config::{validate_method, ApproxThresholds, ScoreMethod, SweepConfig};
use crate::error::{NucleusError, Result};
use crate::local::nuclei;
use crate::support::SupportStructure;

/// Which member of the (r,s)-nucleus family to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rank {
    /// (1,2): vertices scored by incident edges — the probabilistic
    /// (k,η)-core.
    Core,
    /// (2,3): edges scored by triangles — the local probabilistic
    /// (k,γ)-truss.
    Truss,
    /// (3,4): triangles scored by 4-cliques — the paper's ℓ-NuDecomp.
    Nucleus,
}

impl Rank {
    /// The element clique size `r`.
    pub fn r(&self) -> usize {
        match self {
            Rank::Core => 1,
            Rank::Truss => 2,
            Rank::Nucleus => 3,
        }
    }

    /// The cell clique size `s = r + 1`.
    pub fn s(&self) -> usize {
        self.r() + 1
    }

    /// Lower-case name (`core`, `truss`, `nucleus`), as accepted by
    /// [`FromStr`] and emitted in bench reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Rank::Core => "core",
            Rank::Truss => "truss",
            Rank::Nucleus => "nucleus",
        }
    }

    /// Conventional name of this rank's probability threshold: `eta`
    /// for the core, `gamma` for the truss, `theta` for the nucleus.
    pub fn threshold_name(&self) -> &'static str {
        match self {
            Rank::Core => "eta",
            Rank::Truss => "gamma",
            Rank::Nucleus => "theta",
        }
    }

    /// What the peeled elements are (`vertices`, `edges`, `triangles`).
    pub fn element_name(&self) -> &'static str {
        match self {
            Rank::Core => "vertices",
            Rank::Truss => "edges",
            Rank::Nucleus => "triangles",
        }
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rank name that [`Rank::from_str`] did not recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownRankError(pub String);

impl fmt::Display for UnknownRankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown rank '{}' (expected 'core', 'truss' or 'nucleus')",
            self.0
        )
    }
}

impl std::error::Error for UnknownRankError {}

impl FromStr for Rank {
    type Err = UnknownRankError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "core" => Ok(Rank::Core),
            "truss" => Ok(Rank::Truss),
            "nucleus" => Ok(Rank::Nucleus),
            other => Err(UnknownRankError(other.to_string())),
        }
    }
}

/// Builder-style configuration of a single-threshold (r,s)
/// decomposition.
///
/// Construct with [`core`](Self::core) / [`truss`](Self::truss) /
/// [`nucleus`](Self::nucleus), refine with the `with_*` methods, and
/// hand to [`Decomposition::compute`] — which validates into the typed
/// errors of [`NucleusError`] before touching the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompConfig {
    /// The (r,s) instance to compute.
    pub rank: Rank,
    /// The probability threshold (η, γ or θ depending on the rank),
    /// required in `(0, 1]`.
    pub threshold: f64,
    /// How scores are computed.  [`ScoreMethod::Hybrid`] is calibrated
    /// for the (3,4) rank and rejected elsewhere.
    pub method: ScoreMethod,
    /// Parallelism of the support build and initial scoring pass.
    /// Results are bit-identical for every setting.
    pub parallelism: Parallelism,
}

impl DecompConfig {
    fn new(rank: Rank, threshold: f64) -> Self {
        DecompConfig {
            rank,
            threshold,
            method: ScoreMethod::DynamicProgramming,
            parallelism: Parallelism::Auto,
        }
    }

    /// Probabilistic (k,η)-core configuration.
    pub fn core(eta: f64) -> Self {
        Self::new(Rank::Core, eta)
    }

    /// Local probabilistic (k,γ)-truss configuration.
    pub fn truss(gamma: f64) -> Self {
        Self::new(Rank::Truss, gamma)
    }

    /// ℓ-NuDecomp configuration.
    pub fn nucleus(theta: f64) -> Self {
        Self::new(Rank::Nucleus, theta)
    }

    /// Sets the scoring method ([`ScoreMethod::Hybrid`] is only valid at
    /// [`Rank::Nucleus`]; validation rejects it elsewhere).
    pub fn with_method(mut self, method: ScoreMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the parallelism of the support build and scoring passes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Validates the threshold range, the method/rank combination and
    /// the hybrid scorer's hyperparameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.threshold > 0.0 && self.threshold <= 1.0) || self.threshold.is_nan() {
            return Err(NucleusError::InvalidThreshold {
                name: self.rank.threshold_name(),
                value: self.threshold,
            });
        }
        if self.rank != Rank::Nucleus && matches!(self.method, ScoreMethod::Hybrid(_)) {
            return Err(NucleusError::UnsupportedMethod {
                rank: self.rank.as_str(),
                method: "hybrid",
            });
        }
        validate_method(&self.method)
    }

    /// Expands this single-threshold configuration into a [`SweepConfig`]
    /// over `grid` (the grid replaces [`threshold`](Self::threshold);
    /// rank, method and parallelism carry over).  This is the one
    /// conversion between the two validated builders.
    pub fn sweep(&self, grid: Vec<f64>) -> SweepConfig {
        SweepConfig {
            rank: self.rank,
            thetas: grid,
            method: self.method,
            parallelism: self.parallelism,
        }
    }
}

/// The rank-specific support structure behind a decomposition: the
/// threshold-independent part of the computation (element/cell
/// enumeration and completion probabilities), built once and shared —
/// across grid points by [`DecompSweep`], across threads by
/// [`DecompHandle`].
#[derive(Debug, Clone)]
pub enum RankSupport {
    /// (1,2): vertices and their incident edges.
    Core(CoreSupport),
    /// (2,3): edges and their triangles.
    Truss(TrussSupport),
    /// (3,4): triangles and their 4-cliques (the paper's
    /// [`SupportStructure`]).
    Nucleus(SupportStructure),
}

impl RankSupport {
    /// Builds the support for `rank` with the given parallelism.
    pub fn build(graph: &UncertainGraph, rank: Rank, parallelism: Parallelism) -> Self {
        match rank {
            Rank::Core => RankSupport::Core(CoreSupport::build(graph)),
            Rank::Truss => RankSupport::Truss(TrussSupport::build(graph, parallelism)),
            Rank::Nucleus => RankSupport::Nucleus(SupportStructure::build_with(graph, parallelism)),
        }
    }

    /// The rank this support was built for.
    pub fn rank(&self) -> Rank {
        match self {
            RankSupport::Core(_) => Rank::Core,
            RankSupport::Truss(_) => Rank::Truss,
            RankSupport::Nucleus(_) => Rank::Nucleus,
        }
    }

    /// Number of peelable elements (vertices, edges or triangles).
    pub fn num_elements(&self) -> usize {
        match self {
            RankSupport::Core(s) => s.num_elements(),
            RankSupport::Truss(s) => s.num_elements(),
            RankSupport::Nucleus(s) => s.num_triangles(),
        }
    }

    /// The nucleus-rank [`SupportStructure`], when this is one.
    pub fn as_nucleus(&self) -> Option<&SupportStructure> {
        match self {
            RankSupport::Nucleus(s) => Some(s),
            _ => None,
        }
    }

    /// Like [`as_nucleus`](Self::as_nucleus), but other ranks produce the
    /// typed [`NucleusError::RankMismatch`].
    pub(crate) fn require_nucleus(&self) -> Result<&SupportStructure> {
        self.as_nucleus().ok_or(NucleusError::RankMismatch {
            expected: Rank::Nucleus.as_str(),
            got: self.rank().as_str(),
        })
    }

    /// Runs every element's DP once into the threshold-independent table
    /// the exact-DP points read their initial scores from.
    fn tail_table(&self, parallelism: Parallelism) -> TailTable {
        match self {
            RankSupport::Core(s) => TailTable::build(s, parallelism),
            RankSupport::Truss(s) => TailTable::build(s, parallelism),
            RankSupport::Nucleus(s) => TailTable::build(s, parallelism),
        }
    }

    /// Repairs the support after an edge-update batch instead of
    /// rebuilding it, and computes the damage region of the bounded
    /// re-peel.
    ///
    /// `old_graph` must be the graph this support was built from and
    /// `delta` the result of [`apply_edge_updates`] on it.  The truss and
    /// nucleus supports are patched around the batch
    /// ([`TrussSupport::repair`], [`SupportStructure::repair`]); the core
    /// support, a plain scan of the edge table, is rebuilt
    /// ([`CoreSupport::repair`]).  The repaired support is bit-identical
    /// to `RankSupport::build(&delta.graph, …)`.
    /// `affected` is the seed set, found by [`rs::affected_elements`]
    /// among the patch's candidates — the elements within one cell of a
    /// touched edge — and `region` its [`rs::component_closure`].
    pub fn repair(&self, old_graph: &UncertainGraph, delta: &GraphDelta) -> SupportRepair {
        match self {
            RankSupport::Core(old) => SupportRepair::new(
                old,
                CoreSupport::repair(old_graph, delta),
                RankSupport::Core,
            ),
            RankSupport::Truss(old) => {
                SupportRepair::new(old, old.repair(old_graph, delta), RankSupport::Truss)
            }
            RankSupport::Nucleus(old) => {
                SupportRepair::new(old, old.repair(old_graph, delta), RankSupport::Nucleus)
            }
        }
    }
}

/// Result of [`RankSupport::repair`]: the repaired support plus the
/// bounded re-peel's bookkeeping.
#[derive(Debug, Clone)]
pub struct SupportRepair {
    /// The repaired support, bit-identical to a fresh build on the
    /// updated graph.
    pub support: RankSupport,
    /// For every new element id: its old id, or `None` for elements the
    /// batch created.
    pub new_to_old: Vec<Option<u32>>,
    /// Elements whose initial score may differ from the old run (sorted
    /// new ids) — the seed set `D`.
    pub affected: Vec<u32>,
    /// Component closure `R` of the seed set: the elements the bounded
    /// re-peel actually re-scores (sorted new ids).  Scores outside `R`
    /// carry over bitwise.
    pub region: Vec<u32>,
}

impl SupportRepair {
    /// Tests the patch's candidates against `old`, closes the affected
    /// set and wraps the patched support.
    fn new<S: RsSupport>(old: &S, patch: rs::SupportPatch<S>, wrap: fn(S) -> RankSupport) -> Self {
        let rs::SupportPatch {
            support,
            new_to_old,
            candidates,
        } = patch;
        let affected = rs::affected_elements(old, &support, &new_to_old, &candidates);
        let region = rs::component_closure(&support, &affected);
        SupportRepair {
            support: wrap(support),
            new_to_old,
            affected,
            region,
        }
    }

    /// The repaired support's [`TailTable`], carried over from `old`,
    /// the table of the support before the batch
    /// ([`TailTable::repair`]).
    fn tail_table(&self, old: &TailTable) -> TailTable {
        let (ids, affected) = (&self.new_to_old, &self.affected);
        match &self.support {
            RankSupport::Core(s) => old.repair(s, ids, affected),
            RankSupport::Truss(s) => old.repair(s, ids, affected),
            RankSupport::Nucleus(s) => old.repair(s, ids, affected),
        }
    }
}

/// Deterministic counters of one [`DecompSweep::apply_updates`] /
/// [`DecompHandle::apply_updates`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Net-inserted edges of the batch.
    pub inserted_edges: usize,
    /// Net-removed edges of the batch.
    pub removed_edges: usize,
    /// Surviving edges whose probability changed.
    pub reweighted_edges: usize,
    /// Size of the affected seed set `D`.
    pub affected_elements: usize,
    /// Size of the re-peeled region `R`.
    pub region_elements: usize,
    /// Score evaluations the update performed across all grid points:
    /// initial-score evaluations plus peeling re-evaluations.  A full
    /// rebuild would have spent `grid · num_elements` initial
    /// evaluations plus the full-peel `dp_calls`; the repair path spends
    /// `grid · |D|` plus the region-peel `dp_calls`.
    pub repair_dp_calls: usize,
    /// Grid points refreshed through the bounded re-peel.
    pub repaired_points: usize,
    /// Grid points recomputed from scratch (the hybrid scorer's
    /// approximations are not monotone under cell removal, so its points
    /// cannot be repaired regionally).
    pub recomputed_points: usize,
}

/// Result of [`DecompSweep::apply_updates`]: the updated graph (the
/// caller's graph is borrowed immutably and replaced by this one) plus
/// the update's counters.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The post-update graph, to be used for subsequent queries and
    /// further update batches.
    pub graph: UncertainGraph,
    /// Deterministic repair counters.
    pub report: UpdateReport,
}

/// Result of [`DecompHandle::apply_updates`]: a new handle over the
/// repaired support plus the updated graph.
#[derive(Debug, Clone)]
pub struct HandleUpdate {
    /// Handle over the repaired support.
    pub handle: DecompHandle,
    /// The post-update graph.
    pub graph: UncertainGraph,
    /// Batch and repair-size counters (the point counters are zero: a
    /// handle holds no computed points).
    pub report: UpdateReport,
}

/// Everything one threshold produces: the per-point payload shared by
/// [`Decomposition`] and [`DecompSweep`].
#[derive(Debug, Clone)]
struct Point {
    scores: Vec<u32>,
    initial_scores: Vec<u32>,
    method_counts: HashMap<ApproxMethod, usize>,
    stats: PeelStats,
}

/// Runs one threshold over a borrowed support, on the generic engines of
/// [`ugraph::rs`].  Exact-DP points read their initial scores from the
/// support's [`TailTable`] — built into `tails` on first use, so every
/// point computed over one support shares it — and peel deferred
/// ([`generic_point`]).  Hybrid points score every element at the
/// threshold and peel eagerly ([`hybrid_point`]); they never build a
/// table.  Either way the result is bit-identical to the frozen engines
/// of [`crate::reference`].
fn compute_point(
    support: &RankSupport,
    tails: &OnceLock<TailTable>,
    threshold: f64,
    method: ScoreMethod,
    parallelism: Parallelism,
) -> Point {
    match method {
        ScoreMethod::DynamicProgramming => {
            let tails = tails.get_or_init(|| support.tail_table(parallelism));
            match support {
                RankSupport::Core(s) => generic_point(s, tails, threshold),
                RankSupport::Truss(s) => generic_point(s, tails, threshold),
                RankSupport::Nucleus(s) => generic_point(s, tails, threshold),
            }
        }
        ScoreMethod::Hybrid(thresholds) => match support {
            RankSupport::Core(s) => hybrid_point(s, threshold, &thresholds, parallelism),
            RankSupport::Truss(s) => hybrid_point(s, threshold, &thresholds, parallelism),
            RankSupport::Nucleus(s) => hybrid_point(s, threshold, &thresholds, parallelism),
        },
    }
}

/// The exact-DP threshold run: initial scores read off `tails` (the
/// table of `support`), then the deferred bucket-queue peel.
fn generic_point<S: RsSupport>(support: &S, tails: &TailTable, threshold: f64) -> Point {
    let (kappa, init_peak) = tails.initial_scores(support, threshold);
    let initial_scores = kappa.clone();

    let mut scratch = TailScratch::new();
    let (scores, mut stats) = rs::peel_deferred(support, kappa, |t, cell_dead| {
        scratch.score(support, t, threshold, |c| !cell_dead[c as usize])
    });
    stats.peak_scratch_bytes = scratch.peak_bytes().max(init_peak);

    // Counts of elements scored by each method: empty when there is
    // nothing to score, matching the Hybrid scorer's per-element tally.
    let n = support.num_elements();
    let mut method_counts = HashMap::new();
    if n > 0 {
        method_counts.insert(ApproxMethod::DynamicProgramming, n);
    }
    Point {
        scores,
        initial_scores,
        method_counts,
        stats,
    }
}

/// Every scoring method, in declaration (discriminant) order: slot `i`
/// of the Hybrid pass's tally counts `METHODS[i]`.
const METHODS: [ApproxMethod; 5] = [
    ApproxMethod::Poisson,
    ApproxMethod::TranslatedPoisson,
    ApproxMethod::Binomial,
    ApproxMethod::Clt,
    ApproxMethod::DynamicProgramming,
];

/// The Hybrid threshold run: every element scored at `threshold` by the
/// hybrid selector ([`approx::hybrid_max_k_with_scratch`]), then the
/// eager peel.  The statistical approximations are not monotone under
/// cell removal (dropping a low-probability event can *raise* a Binomial
/// tail estimate) and each element's method depends on its completion
/// probabilities, so neither the threshold-independent table nor the
/// deferred schedule applies.
///
/// The scoring pass runs in ordered parallel chunks with one
/// [`TailScratch`] each ([`par::par_map_init`]), so scores, method counts
/// and the scratch peak are identical for every [`Parallelism`].
fn hybrid_point<S: RsSupport + Sync>(
    support: &S,
    threshold: f64,
    thresholds: &ApproxThresholds,
    parallelism: Parallelism,
) -> Point {
    // The DP tables are filled only when the selector picked the DP and
    // the element clears the threshold.
    let kernel = |dp: &mut DpScratch, element_prob: f64, probs: &[f64]| {
        let (k, method) =
            approx::hybrid_max_k_with_scratch(dp, element_prob, probs, threshold, thresholds);
        let dp_tables = method == ApproxMethod::DynamicProgramming && element_prob >= threshold;
        ((k, method), dp_tables)
    };
    let scored: Vec<(u32, ApproxMethod, usize)> = par::par_map_init(
        parallelism,
        support.num_elements(),
        TailScratch::new,
        |scratch, t| {
            let (k, method) = scratch.score_with(support, t as u32, |_| true, kernel);
            (k, method, scratch.peak_bytes())
        },
    );
    let mut kappa = Vec::with_capacity(scored.len());
    let mut tally = [0usize; METHODS.len()];
    let mut init_peak = 0usize;
    for (k, method, peak) in scored {
        kappa.push(k);
        tally[method as usize] += 1;
        // Per-item peaks are running per-chunk maxima; their maximum is
        // the maximum over single evaluations, whatever the chunking.
        init_peak = init_peak.max(peak);
    }
    let initial_scores = kappa.clone();

    let mut scratch = TailScratch::new();
    let (scores, mut stats) = rs::peel_eager(support, kappa, |t, cell_dead| {
        scratch
            .score_with(support, t, |c| !cell_dead[c as usize], kernel)
            .0
    });
    stats.peak_scratch_bytes = scratch.peak_bytes().max(init_peak);

    // One entry per method that scored at least one element.
    let method_counts = METHODS
        .into_iter()
        .zip(tally)
        .filter(|&(_, n)| n > 0)
        .collect();
    Point {
        scores,
        initial_scores,
        method_counts,
        stats,
    }
}

/// The parallelism inside one grid point: points run in parallel when
/// there are several, each scoring sequentially inside (nesting parallel
/// scans would oversubscribe without changing results); a single point
/// gets the whole setting.
fn point_parallelism(grid_len: usize, parallelism: Parallelism) -> Parallelism {
    if grid_len >= 2 {
        Parallelism::Sequential
    } else {
        parallelism
    }
}

/// Every grid point of `config` over `support`, in grid order.  An
/// exact-DP grid reads every point's initial scores from one
/// [`TailTable`], taken from `tails` or built into it up front.
fn grid_points(
    support: &RankSupport,
    tails: &OnceLock<TailTable>,
    config: &SweepConfig,
) -> Vec<Point> {
    let grid_len = config.thetas.len();
    let inner = point_parallelism(grid_len, config.parallelism);
    if config.method == ScoreMethod::DynamicProgramming {
        // Build the table with the sweep's own parallelism before the
        // grid workers share it.
        tails.get_or_init(|| support.tail_table(config.parallelism));
    }
    par::par_map(config.parallelism, grid_len, |gi| {
        compute_point(support, tails, config.thetas[gi], config.method, inner)
    })
}

/// Refreshes every grid point after a support repair through the bounded
/// re-peel: fresh initial scores for the affected set `D` only, a
/// [`rs::RegionSupport`] peel over the component closure `R`, and carried
/// old scores everywhere else.  Returns the new points plus the total
/// score evaluations spent (`grid · |D|` initial evaluations plus the
/// region peels' `dp_calls`).
///
/// Valid for the exact-DP scorer at every rank: affected elements get the
/// same float gather as a fresh run, clean elements have bit-identical
/// inputs, and the peel fixpoint is component-local — so scores and
/// initial scores are bit-identical to a from-scratch sweep on the
/// updated graph.  The per-point [`PeelStats`] describe the repair run
/// itself (deterministic for every thread count), not the fresh peel.
fn repair_points<S: RsSupport + Sync>(
    support: &S,
    repair: &SupportRepair,
    old_points: &[Point],
    config: &SweepConfig,
) -> (Vec<Point>, usize) {
    let SupportRepair {
        new_to_old,
        affected,
        region,
        ..
    } = repair;
    let (thetas, parallelism) = (&config.thetas, config.parallelism);
    let n = support.num_elements();
    let mut affected_mask = vec![false; n];
    for &t in affected {
        affected_mask[t as usize] = true;
    }
    let mut in_region = vec![false; n];
    for &t in region {
        in_region[t as usize] = true;
    }
    let region_view = rs::RegionSupport::new(support, region.to_vec());

    let grid_len = thetas.len();
    let inner = point_parallelism(grid_len, parallelism);
    let points: Vec<Point> = par::par_map(parallelism, grid_len, |gi| {
        let threshold = thetas[gi];
        let old = &old_points[gi];

        // Fresh initial evaluations for the affected elements, over the
        // full repaired support (same gather as a from-scratch pass).
        let fresh: Vec<(u32, usize)> =
            par::par_map_init(inner, affected.len(), TailScratch::new, |scratch, i| {
                let k = scratch.score(support, affected[i], threshold, |_| true);
                (k, scratch.peak_bytes())
            });
        let mut initial_scores: Vec<u32> = (0..n)
            .map(|t| {
                if affected_mask[t] {
                    0 // overwritten below
                } else {
                    // Clean elements always have an old counterpart.
                    old.initial_scores[new_to_old[t].unwrap() as usize]
                }
            })
            .collect();
        let mut init_peak = 0usize;
        for (i, &(k, peak)) in fresh.iter().enumerate() {
            initial_scores[affected[i] as usize] = k;
            init_peak = init_peak.max(peak);
        }

        // Bounded re-peel of the region off its initial scores.
        let kappa: Vec<u32> = region.iter().map(|&t| initial_scores[t as usize]).collect();
        let mut scratch = TailScratch::new();
        let (region_scores, mut stats) = rs::peel_deferred(&region_view, kappa, |t, cell_dead| {
            scratch.score(&region_view, t, threshold, |c| !cell_dead[c as usize])
        });
        stats.peak_scratch_bytes = scratch.peak_bytes().max(init_peak);

        // Scatter the re-peeled scores; everything outside the region
        // carries its old final score bitwise.
        let mut scores: Vec<u32> = (0..n)
            .map(|t| {
                if in_region[t] {
                    0 // overwritten below
                } else {
                    old.scores[new_to_old[t].unwrap() as usize]
                }
            })
            .collect();
        for (i, &t) in region.iter().enumerate() {
            scores[t as usize] = region_scores[i];
        }

        // Mirror a fresh compute exactly: no method entry when the
        // updated grid point has nothing to score.
        let mut method_counts = HashMap::new();
        if n > 0 {
            method_counts.insert(ApproxMethod::DynamicProgramming, n);
        }
        Point {
            scores,
            initial_scores,
            method_counts,
            stats,
        }
    });
    let dp_calls = points
        .iter()
        .map(|p| affected.len() + p.stats.dp_calls)
        .sum();
    (points, dp_calls)
}

/// A cheaply clonable, thread-shareable handle to a built
/// [`RankSupport`]: the resident object a serving process keeps in
/// memory.  Every computation borrows the shared support — no rebuilds,
/// no copies — and is bit-identical to a from-scratch run at the same
/// configuration.
///
/// The handle also caches the support's [`TailTable`]: the first
/// exact-DP [`compute_at`](Self::compute_at) or [`sweep`](Self::sweep)
/// runs every element's Poisson-binomial DP once, and every later
/// exact-DP point — through this handle or any clone of it — reads its
/// initial scores from that table instead of re-running the DP.  The
/// table lives as long as the last clone of the handle and holds one
/// `f64` per element–cell incidence plus `n + 1` `u32` offsets: about
/// 0.7 MB for a 44k-edge graph at the nucleus rank (41k triangles, 17k
/// 4-cliques), and about 2.4 MB for the nucleus and truss ranks of a
/// 74k-edge graph together.  Hybrid points never build it.  A handle
/// over a repaired support ([`repaired`](Self::repaired), which
/// [`apply_updates`](Self::apply_updates) returns) starts with the old
/// handle's table carried over when that one was built — clean rows
/// copied, affected rows run again — and otherwise with an empty cache.
#[derive(Debug, Clone)]
pub struct DecompHandle {
    support: Arc<RankSupport>,
    tails: Arc<OnceLock<TailTable>>,
}

impl DecompHandle {
    /// Builds the support for `rank` and wraps it in a handle.
    pub fn build(graph: &UncertainGraph, rank: Rank, parallelism: Parallelism) -> Self {
        Self::from_support(Arc::new(RankSupport::build(graph, rank, parallelism)))
    }

    /// Wraps an already-built (and possibly already-shared) support.  The
    /// new handle's table cache starts empty.
    pub fn from_support(support: Arc<RankSupport>) -> Self {
        DecompHandle {
            support,
            tails: Arc::new(OnceLock::new()),
        }
    }

    /// A handle over `repair`'s support, which must be a repair of this
    /// handle's ([`RankSupport::repair`]).  When this handle has built its
    /// [`TailTable`], the new handle starts with it carried over
    /// ([`TailTable::repair`]), bit-identical to the table its first
    /// exact-DP point would otherwise build; otherwise its cache starts
    /// empty.
    pub fn repaired(&self, repair: SupportRepair) -> Self {
        let tails = OnceLock::new();
        if let Some(old) = self.tails.get() {
            let _ = tails.set(repair.tail_table(old));
        }
        DecompHandle {
            support: Arc::new(repair.support),
            tails: Arc::new(tails),
        }
    }

    /// The rank the handle's support was built for.
    pub fn rank(&self) -> Rank {
        self.support.rank()
    }

    /// Number of peelable elements.
    pub fn num_elements(&self) -> usize {
        self.support.num_elements()
    }

    /// The shared support.
    pub fn support(&self) -> &Arc<RankSupport> {
        &self.support
    }

    fn check_rank(&self, requested: Rank) -> Result<()> {
        if requested != self.rank() {
            return Err(NucleusError::RankMismatch {
                expected: requested.as_str(),
                got: self.rank().as_str(),
            });
        }
        Ok(())
    }

    /// Computes one threshold over the shared support.  Errors with
    /// [`NucleusError::RankMismatch`] when `config.rank` differs from the
    /// handle's rank.
    pub fn compute_at(&self, config: &DecompConfig) -> Result<Decomposition> {
        config.validate()?;
        self.check_rank(config.rank)?;
        let point = compute_point(
            &self.support,
            &self.tails,
            config.threshold,
            config.method,
            config.parallelism,
        );
        Ok(Decomposition {
            config: *config,
            support: Arc::clone(&self.support),
            initial_scores: point.initial_scores,
            scores: point.scores,
            method_counts: point.method_counts,
            stats: point.stats,
        })
    }

    /// Sweeps a whole grid over the shared support (no new build:
    /// [`DecompSweep::support_builds`] reports 0), reading exact-DP
    /// initial scores from the handle's cached table.
    pub fn sweep(&self, config: &SweepConfig) -> Result<DecompSweep> {
        config.validate()?;
        self.check_rank(config.rank)?;
        Ok(DecompSweep::over_support(
            Arc::clone(&self.support),
            &self.tails,
            config,
            0,
        ))
    }

    /// Applies an edge-update batch: validates it against `graph` (which
    /// must be the graph this handle's support was built from), repairs
    /// the support incrementally and returns a new handle over it
    /// ([`repaired`](Self::repaired)) together with the updated graph.
    /// The batch is atomic — on any [`NucleusError::Update`] nothing is
    /// modified — and the repaired support is bit-identical to a fresh
    /// build on the updated graph.
    pub fn apply_updates(
        &self,
        graph: &UncertainGraph,
        updates: &[EdgeUpdate],
    ) -> Result<HandleUpdate> {
        let delta = apply_edge_updates(graph, updates)?;
        let repair = self.support.repair(graph, &delta);
        let report = UpdateReport {
            inserted_edges: delta.inserted.len(),
            removed_edges: delta.removed,
            reweighted_edges: delta.reweighted,
            affected_elements: repair.affected.len(),
            region_elements: repair.region.len(),
            repair_dp_calls: 0,
            repaired_points: 0,
            recomputed_points: 0,
        };
        Ok(HandleUpdate {
            handle: self.repaired(repair),
            graph: delta.graph,
            report,
        })
    }
}

/// Result of a unified (r,s) decomposition: the decomposition number of
/// every element (core number, truss number or ℓ-nucleusness, indexed by
/// vertex, edge or triangle id), the engine's deterministic perf
/// counters, and the support it was computed over (shared with the
/// [`DecompHandle`] that computed it, never copied).
#[derive(Debug, Clone)]
pub struct Decomposition {
    config: DecompConfig,
    support: Arc<RankSupport>,
    initial_scores: Vec<u32>,
    scores: Vec<u32>,
    method_counts: HashMap<ApproxMethod, usize>,
    stats: PeelStats,
}

impl Decomposition {
    /// Computes the decomposition selected by `config`, validating the
    /// configuration first.
    pub fn compute(graph: &UncertainGraph, config: &DecompConfig) -> Result<Self> {
        // Fail fast before the expensive support build.
        config.validate()?;
        DecompHandle::build(graph, config.rank, config.parallelism).compute_at(config)
    }

    /// The validated configuration the decomposition ran with.
    pub fn config(&self) -> &DecompConfig {
        &self.config
    }

    /// The rank that was computed.
    pub fn rank(&self) -> Rank {
        self.config.rank
    }

    /// Decomposition number of element `id` (vertex, edge or triangle id
    /// depending on the rank).
    pub fn score(&self, id: u32) -> u32 {
        self.scores[id as usize]
    }

    /// Decomposition number of every element, indexed by element id.
    pub fn scores(&self) -> &[u32] {
        &self.scores
    }

    /// The initial scores (before peeling), indexed by element id.
    pub fn initial_scores(&self) -> &[u32] {
        &self.initial_scores
    }

    /// The largest decomposition number.
    pub fn max_score(&self) -> u32 {
        self.scores.iter().copied().max().unwrap_or(0)
    }

    /// Number of peeled elements.
    pub fn num_elements(&self) -> usize {
        self.scores.len()
    }

    /// Evaluation method of each element's initial score computation.
    pub fn method_counts(&self) -> &HashMap<ApproxMethod, usize> {
        &self.method_counts
    }

    /// Deterministic perf counters of the peeling engine.
    pub fn peel_stats(&self) -> &PeelStats {
        &self.stats
    }

    /// The nucleus-rank [`SupportStructure`] (triangles, 4-cliques,
    /// completion probabilities), when this is a nucleus decomposition.
    pub fn nucleus_support(&self) -> Option<&SupportStructure> {
        self.support.as_nucleus()
    }

    /// The maximal ℓ-(k,θ)-nuclei for `k ≥ 1` — nucleus rank only; other
    /// ranks produce [`NucleusError::RankMismatch`].  `graph` must be the
    /// graph the decomposition was computed from.
    pub fn k_nuclei(&self, graph: &UncertainGraph, k: u32) -> Result<Vec<NucleusSubgraph>> {
        let support = self.require_nucleus()?;
        Ok(nuclei::extract_k_nuclei(graph, support, &self.scores, k))
    }

    /// The nucleus-rank support, or [`NucleusError::RankMismatch`].
    pub(crate) fn require_nucleus(&self) -> Result<&SupportStructure> {
        self.support.require_nucleus()
    }

    /// The maximal connected k-subgraphs at any rank, for `k ≥ 1`: the
    /// connected (k,η)-cores (vertex-induced, at least 2 vertices), the
    /// connected (k,γ)-trusses (edge-induced, at least 3 vertices) or the
    /// ℓ-(k,θ)-nuclei.  `graph` must be the graph the decomposition was
    /// computed from.
    pub fn k_subgraphs(&self, graph: &UncertainGraph, k: u32) -> Vec<EdgeSubgraph> {
        match &*self.support {
            RankSupport::Core(_) => {
                let in_core: Vec<bool> = self.scores.iter().map(|&c| c >= k).collect();
                if !in_core.contains(&true) {
                    return Vec::new();
                }
                let components = ConnectedComponents::over_vertices(graph, |v| in_core[v as usize]);
                components
                    .vertex_sets()
                    .into_iter()
                    .filter(|set| set.len() > 1)
                    .map(|set| EdgeSubgraph::induced_by_vertices(graph, &set))
                    .collect()
            }
            RankSupport::Truss(_) => {
                let edges: Vec<EdgeId> = (0..self.scores.len() as EdgeId)
                    .filter(|&e| self.scores[e as usize] >= k)
                    .collect();
                if edges.is_empty() {
                    return Vec::new();
                }
                let sub = EdgeSubgraph::induced_by_edges(graph, &edges);
                let components = ConnectedComponents::new(sub.graph());
                components
                    .vertex_sets()
                    .into_iter()
                    .filter(|set| set.len() > 2)
                    .map(|set| {
                        let original: Vec<_> =
                            set.iter().map(|&v| sub.original_vertex(v)).collect();
                        let comp_edges: Vec<EdgeId> = edges
                            .iter()
                            .copied()
                            .filter(|&e| {
                                let edge = graph.edge(e);
                                original.contains(&edge.u) && original.contains(&edge.v)
                            })
                            .collect();
                        EdgeSubgraph::induced_by_edges(graph, &comp_edges)
                    })
                    .collect()
            }
            RankSupport::Nucleus(s) => nuclei::extract_k_nuclei(graph, s, &self.scores, k)
                .into_iter()
                .map(|n| n.subgraph)
                .collect(),
        }
    }
}

/// A threshold sweep at any rank: one support build amortized across a
/// whole grid, per-point scores, method counts and [`PeelStats`],
/// queryable in O(log grid).
///
/// This is the one sweep engine of the workspace.  Every per-point
/// result is bit-identical to an independent [`Decomposition::compute`]
/// at that threshold, for every parallelism setting, and the exact-DP
/// rows are non-increasing in the threshold (a larger threshold can only
/// shrink every tail set).  [`support_builds`](Self::support_builds)
/// makes the amortization CI-gateable: `experiments thetasweep` emits it
/// and `bench-compare` pins it to 1.
#[derive(Debug, Clone)]
pub struct DecompSweep {
    support: Arc<RankSupport>,
    config: SweepConfig,
    points: Vec<Point>,
    support_builds: usize,
}

impl DecompSweep {
    /// Sweeps `config.thetas` (interpreted as `config.rank`'s threshold
    /// grid: η, γ or θ values).  The grid is validated like a θ grid —
    /// non-empty, finite, in `(0, 1]`, strictly ascending — and the
    /// method/rank combination like a [`DecompConfig`].
    pub fn compute(graph: &UncertainGraph, config: &SweepConfig) -> Result<Self> {
        config.validate()?;
        let support = Arc::new(RankSupport::build(graph, config.rank, config.parallelism));
        Ok(Self::over_support(support, &OnceLock::new(), config, 1))
    }

    /// Runs the (already validated) sweep over a shared support, reading
    /// exact-DP initial scores from the table in `tails`.
    pub(crate) fn over_support(
        support: Arc<RankSupport>,
        tails: &OnceLock<TailTable>,
        config: &SweepConfig,
        support_builds: usize,
    ) -> Self {
        let points = grid_points(&support, tails, config);
        let sweep = DecompSweep {
            support,
            config: config.clone(),
            points,
            support_builds,
        };
        // The DP scorer is provably monotone in the threshold (a larger
        // threshold shrinks every tail set); catch any engine regression
        // early in debug builds.
        #[cfg(debug_assertions)]
        if sweep.config.method == ScoreMethod::DynamicProgramming {
            debug_assert!(
                sweep.is_monotone_in_threshold(),
                "exact-DP sweep scores must be non-increasing in the threshold"
            );
        }
        sweep
    }

    /// The configuration the sweep was computed with.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// The rank the sweep was computed at.
    pub fn rank(&self) -> Rank {
        self.config.rank
    }

    /// The threshold grid, sorted ascending.
    pub fn thresholds(&self) -> &[f64] {
        &self.config.thetas
    }

    /// Number of grid points.
    pub fn grid_len(&self) -> usize {
        self.points.len()
    }

    /// Number of peeled elements (shared by every grid point).
    pub fn num_elements(&self) -> usize {
        self.support.num_elements()
    }

    /// The shared support.
    pub fn support(&self) -> &Arc<RankSupport> {
        &self.support
    }

    /// The nucleus-rank [`SupportStructure`], when this is a nucleus
    /// sweep.
    pub fn nucleus_support(&self) -> Option<&SupportStructure> {
        self.support.as_nucleus()
    }

    /// Support builds the engine performed — pinned to 1 by the CI perf
    /// gate, the whole point of the sweep.  0 when the support was shared
    /// through a [`DecompHandle`].
    pub fn support_builds(&self) -> usize {
        self.support_builds
    }

    /// Grid position of `threshold` (exact match, O(log grid) binary
    /// search over the sorted grid), or `None` when it is not a grid
    /// point.
    pub fn grid_index_of(&self, threshold: f64) -> Option<usize> {
        self.config
            .thetas
            .binary_search_by(|probe| {
                probe
                    .partial_cmp(&threshold)
                    .unwrap_or(std::cmp::Ordering::Less)
            })
            .ok()
    }

    /// Like [`grid_index_of`](Self::grid_index_of), but off-grid lookups
    /// produce the typed [`NucleusError::ThresholdOffGrid`].
    pub fn require_grid_index(&self, threshold: f64) -> Result<usize> {
        self.grid_index_of(threshold)
            .ok_or(NucleusError::ThresholdOffGrid {
                name: self.config.rank.threshold_name(),
                value: threshold,
            })
    }

    /// Decomposition numbers at grid point `index`.
    pub fn scores_at_index(&self, index: usize) -> &[u32] {
        &self.points[index].scores
    }

    /// Decomposition numbers at `threshold`, or `None` off the grid.
    pub fn scores_at(&self, threshold: f64) -> Option<&[u32]> {
        self.grid_index_of(threshold)
            .map(|i| self.scores_at_index(i))
    }

    /// Initial scores at grid point `index`.
    pub fn initial_scores_at_index(&self, index: usize) -> &[u32] {
        &self.points[index].initial_scores
    }

    /// Initial scores at `threshold`, or `None` off the grid.
    pub fn initial_scores_at(&self, threshold: f64) -> Option<&[u32]> {
        self.grid_index_of(threshold)
            .map(|i| self.initial_scores_at_index(i))
    }

    /// Evaluation-method counts at grid point `index`.
    pub fn method_counts_at_index(&self, index: usize) -> &HashMap<ApproxMethod, usize> {
        &self.points[index].method_counts
    }

    /// The largest decomposition number at grid point `index`.
    pub fn max_score_at_index(&self, index: usize) -> u32 {
        self.points[index].scores.iter().copied().max().unwrap_or(0)
    }

    /// The largest decomposition number at `threshold`, or `None` off
    /// the grid.
    pub fn max_score_at(&self, threshold: f64) -> Option<u32> {
        self.grid_index_of(threshold)
            .map(|i| self.max_score_at_index(i))
    }

    /// Peeling perf counters at grid point `index`.
    pub fn peel_stats_at_index(&self, index: usize) -> &PeelStats {
        &self.points[index].stats
    }

    /// Peeling perf counters of every grid point, in grid order.
    pub fn peel_stats(&self) -> Vec<PeelStats> {
        self.points.iter().map(|p| p.stats).collect()
    }

    /// Sum of peeling-time score recomputations across the grid.
    pub fn total_dp_calls(&self) -> usize {
        self.points.iter().map(|p| p.stats.dp_calls).sum()
    }

    /// `true` when every element's score row (final and initial) is
    /// non-increasing as the threshold grows across the grid.  Always
    /// holds for the exact-DP scorer at every rank.
    pub fn is_monotone_in_threshold(&self) -> bool {
        let n = self.num_elements();
        self.points.windows(2).all(|w| {
            (0..n).all(|t| {
                w[1].scores[t] <= w[0].scores[t] && w[1].initial_scores[t] <= w[0].initial_scores[t]
            })
        })
    }

    /// Applies an edge-update batch to the sweep in place.
    ///
    /// `graph` must be the graph this sweep was computed from; `updates`
    /// is validated against it atomically (on [`NucleusError::Update`]
    /// the sweep is untouched).  The support is repaired incrementally
    /// ([`RankSupport::repair`]) and every grid point is refreshed
    /// through the bounded re-peel: only the affected elements are
    /// re-scored and only their components re-peeled, yet scores,
    /// initial scores and method counts are bit-identical to a
    /// from-scratch [`DecompSweep::compute`] on the updated graph.  The
    /// per-point [`PeelStats`] afterwards describe the repair run (still
    /// deterministic for every thread count).
    ///
    /// The hybrid scorer's statistical approximations are not monotone
    /// under cell removal, so hybrid sweeps recompute every point on the
    /// repaired support instead ([`UpdateReport::recomputed_points`]).
    ///
    /// Returns the updated graph (use it for subsequent queries and
    /// further batches) and the deterministic repair counters.
    pub fn apply_updates(
        &mut self,
        graph: &UncertainGraph,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateOutcome> {
        let delta = apply_edge_updates(graph, updates)?;
        let repair = self.support.repair(graph, &delta);
        let grid_len = self.config.thetas.len();

        let hybrid = matches!(self.config.method, ScoreMethod::Hybrid(_));
        let (points, repair_dp_calls) = if hybrid {
            let points = grid_points(&repair.support, &OnceLock::new(), &self.config);
            let n = repair.support.num_elements();
            let calls = points.iter().map(|p| n + p.stats.dp_calls).sum();
            (points, calls)
        } else {
            match &repair.support {
                RankSupport::Core(s) => repair_points(s, &repair, &self.points, &self.config),
                RankSupport::Truss(s) => repair_points(s, &repair, &self.points, &self.config),
                RankSupport::Nucleus(s) => repair_points(s, &repair, &self.points, &self.config),
            }
        };

        let report = UpdateReport {
            inserted_edges: delta.inserted.len(),
            removed_edges: delta.removed,
            reweighted_edges: delta.reweighted,
            affected_elements: repair.affected.len(),
            region_elements: repair.region.len(),
            repair_dp_calls,
            repaired_points: if hybrid { 0 } else { grid_len },
            recomputed_points: if hybrid { grid_len } else { 0 },
        };
        self.support = Arc::new(repair.support);
        self.points = points;
        // The repaired sweep must satisfy the same invariant a fresh
        // exact-DP sweep does.
        #[cfg(debug_assertions)]
        if self.config.method == ScoreMethod::DynamicProgramming {
            debug_assert!(
                self.is_monotone_in_threshold(),
                "repaired exact-DP sweep scores must be non-increasing in the threshold"
            );
        }
        Ok(UpdateOutcome {
            graph: delta.graph,
            report,
        })
    }

    /// The maximal ℓ-(k,θ)-nuclei at `threshold` — nucleus-rank sweeps
    /// only.  Errors with [`NucleusError::RankMismatch`] at other ranks
    /// and [`NucleusError::ThresholdOffGrid`] off the grid.
    pub fn k_nuclei_at(
        &self,
        graph: &UncertainGraph,
        threshold: f64,
        k: u32,
    ) -> Result<Vec<NucleusSubgraph>> {
        let support = self.support.require_nucleus()?;
        let gi = self.require_grid_index(threshold)?;
        Ok(nuclei::extract_k_nuclei(
            graph,
            support,
            &self.points[gi].scores,
            k,
        ))
    }
}

// The `pub(crate)` helpers (graph builders, the brute-force oracles and
// the certain view) are shared with the deterministic-number tests of
// `core_decomp`, `truss`, `nucleus` and `local`.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ugraph::generators::ProbabilityModel;
    use ugraph::{FourCliqueEnumerator, GraphBuilder, TriangleId, TriangleIndex};

    pub(crate) fn complete(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn rank_metadata() {
        assert_eq!(Rank::Core.r(), 1);
        assert_eq!(Rank::Core.s(), 2);
        assert_eq!(Rank::Truss.r(), 2);
        assert_eq!(Rank::Nucleus.s(), 4);
        assert_eq!(Rank::Truss.threshold_name(), "gamma");
        assert_eq!(Rank::Nucleus.to_string(), "nucleus");
        assert_eq!(Rank::Core.element_name(), "vertices");
        assert_eq!("truss".parse::<Rank>(), Ok(Rank::Truss));
        let err = "triangle".parse::<Rank>().unwrap_err();
        assert!(err.to_string().contains("unknown rank 'triangle'"));
    }

    #[test]
    fn config_validation_uses_rank_specific_threshold_names() {
        for (config, name) in [
            (DecompConfig::core(0.0), "eta"),
            (DecompConfig::truss(1.5), "gamma"),
            (DecompConfig::nucleus(f64::NAN), "theta"),
        ] {
            match config.validate() {
                Err(NucleusError::InvalidThreshold { name: got, .. }) => {
                    assert_eq!(got, name)
                }
                other => panic!("expected InvalidThreshold, got {other:?}"),
            }
        }
    }

    #[test]
    fn hybrid_method_is_nucleus_only() {
        let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
        assert_eq!(
            DecompConfig::core(0.5).with_method(hybrid).validate(),
            Err(NucleusError::UnsupportedMethod {
                rank: "core",
                method: "hybrid",
            })
        );
        assert_eq!(
            DecompConfig::truss(0.5).with_method(hybrid).validate(),
            Err(NucleusError::UnsupportedMethod {
                rank: "truss",
                method: "hybrid",
            })
        );
        assert!(DecompConfig::nucleus(0.5)
            .with_method(hybrid)
            .validate()
            .is_ok());
    }

    #[test]
    fn certain_k5_has_known_core_truss_nucleus_numbers() {
        let g = complete(5, 1.0);
        let core = Decomposition::compute(&g, &DecompConfig::core(0.9)).unwrap();
        assert_eq!(core.rank(), Rank::Core);
        assert!(core.scores().iter().all(|&s| s == 4), "{:?}", core.scores());
        let truss = Decomposition::compute(&g, &DecompConfig::truss(0.9)).unwrap();
        assert!(truss.scores().iter().all(|&s| s == 3));
        let nucleus = Decomposition::compute(&g, &DecompConfig::nucleus(0.9)).unwrap();
        assert!(nucleus.scores().iter().all(|&s| s == 2));
        assert_eq!(core.num_elements(), 5);
        assert_eq!(truss.num_elements(), 10);
        assert_eq!(nucleus.num_elements(), 10);
    }

    #[test]
    fn initial_scores_bound_final_scores_at_every_rank() {
        let g = complete(6, 0.6);
        for config in [
            DecompConfig::core(0.3),
            DecompConfig::truss(0.3),
            DecompConfig::nucleus(0.3),
        ] {
            let d = Decomposition::compute(&g, &config).unwrap();
            assert_eq!(
                d.method_counts()[&ApproxMethod::DynamicProgramming],
                d.num_elements()
            );
            for t in 0..d.num_elements() {
                assert!(d.scores()[t] <= d.initial_scores()[t], "{:?}", config.rank);
            }
            assert_eq!(d.max_score(), d.scores().iter().copied().max().unwrap());
            assert_eq!(d.score(0), d.scores()[0]);
        }
    }

    #[test]
    fn results_are_parallelism_independent_at_every_rank() {
        let g = complete(7, 0.65);
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let base = Decomposition::compute(
                &g,
                &DecompConfig::new(rank, 0.2).with_parallelism(Parallelism::Sequential),
            )
            .unwrap();
            for threads in [2, 8] {
                let par = Decomposition::compute(
                    &g,
                    &DecompConfig::new(rank, 0.2).with_parallelism(Parallelism::fixed(threads)),
                )
                .unwrap();
                assert_eq!(par.scores(), base.scores(), "{rank} x{threads}");
                assert_eq!(par.initial_scores(), base.initial_scores());
                assert_eq!(par.peel_stats(), base.peel_stats());
            }
        }
    }

    #[test]
    fn one_handle_and_its_clone_share_one_tail_table_at_every_rank() {
        let g = complete(7, 0.65);
        // Shuffled, with repeats and the grid's upper end.
        let thetas = [0.4, 0.05, 0.9, 0.4, 0.2, 0.05, 1.0, 0.65];
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let handle = DecompHandle::build(&g, rank, Parallelism::Sequential);
            let clone = handle.clone();
            assert!(handle.tails.get().is_none(), "{rank}: the table is lazy");
            let mut first: Option<*const TailTable> = None;
            for (i, &threshold) in thetas.iter().enumerate() {
                let via = if i % 2 == 0 { &handle } else { &clone };
                let config = DecompConfig::new(rank, threshold);
                let shared = via.compute_at(&config).unwrap();
                first.get_or_insert_with(|| handle.tails.get().expect("built by the first call"));
                let fresh = Decomposition::compute(&g, &config).unwrap();
                assert_eq!(shared.scores(), fresh.scores(), "{rank} @ {threshold}");
                assert_eq!(shared.initial_scores(), fresh.initial_scores());
                assert_eq!(shared.method_counts(), fresh.method_counts());
                assert_eq!(shared.peel_stats(), fresh.peel_stats());
            }
            assert!(Arc::ptr_eq(&handle.tails, &clone.tails), "{rank}");
            let table = clone.tails.get().expect("filled");
            assert!(std::ptr::eq(first.unwrap(), table), "{rank}: one build");
            assert_eq!(table.len(), handle.num_elements());
        }

        // Hybrid points never build a table.
        let handle = DecompHandle::build(&g, Rank::Nucleus, Parallelism::Sequential);
        let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
        let config = DecompConfig::nucleus(0.3).with_method(hybrid);
        let approx = handle.compute_at(&config).unwrap();
        assert_eq!(
            approx.scores(),
            Decomposition::compute(&g, &config).unwrap().scores()
        );
        assert!(handle.tails.get().is_none());
    }

    #[test]
    fn sweep_matches_independent_runs_at_every_rank() {
        let g = complete(6, 0.7);
        let grid = vec![0.1, 0.3, 0.6, 0.9];
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let sweep = DecompSweep::compute(&g, &SweepConfig::exact(grid.clone()).with_rank(rank))
                .unwrap();
            assert_eq!(sweep.rank(), rank);
            assert_eq!(sweep.grid_len(), grid.len());
            assert_eq!(sweep.support_builds(), 1, "{rank}");
            assert_eq!(sweep.thresholds(), &grid[..]);
            let stats = sweep.peel_stats();
            for (gi, &threshold) in grid.iter().enumerate() {
                let solo = Decomposition::compute(&g, &DecompConfig::new(rank, threshold)).unwrap();
                assert_eq!(
                    sweep.scores_at_index(gi),
                    solo.scores(),
                    "{rank} @ {threshold}"
                );
                assert_eq!(sweep.initial_scores_at_index(gi), solo.initial_scores());
                assert_eq!(&stats[gi], solo.peel_stats());
            }
            assert_eq!(
                sweep.total_dp_calls(),
                stats.iter().map(|s| s.dp_calls).sum::<usize>()
            );
            assert_eq!(sweep.num_elements(), sweep.scores_at_index(0).len());
        }
    }

    #[test]
    fn sweep_rejects_malformed_grids_and_methods() {
        let g = complete(4, 0.5);
        assert!(matches!(
            DecompSweep::compute(&g, &SweepConfig::exact(vec![]).with_rank(Rank::Core)),
            Err(NucleusError::InvalidThetaGrid(_))
        ));
        assert!(matches!(
            DecompSweep::compute(
                &g,
                &SweepConfig::exact(vec![0.5, 0.2]).with_rank(Rank::Truss)
            ),
            Err(NucleusError::InvalidThetaGrid(_))
        ));
        assert!(matches!(
            DecompSweep::compute(
                &g,
                &SweepConfig::approximate(vec![0.5]).with_rank(Rank::Core)
            ),
            Err(NucleusError::UnsupportedMethod {
                rank: "core",
                method: "hybrid",
            })
        ));
        assert!(DecompSweep::compute(&g, &SweepConfig::approximate(vec![0.5])).is_ok());
    }

    #[test]
    fn handle_computations_share_one_support_and_stay_bit_identical() {
        let g = complete(6, 0.7);
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let handle = DecompHandle::build(&g, rank, Parallelism::Auto);
            assert_eq!(handle.rank(), rank);
            assert_eq!(Arc::strong_count(handle.support()), 1);
            let clone = handle.clone();
            assert_eq!(Arc::strong_count(handle.support()), 2);

            // Single-threshold runs off the shared support match
            // from-scratch runs exactly.
            let at = clone.compute_at(&DecompConfig::new(rank, 0.25)).unwrap();
            let solo = Decomposition::compute(&g, &DecompConfig::new(rank, 0.25)).unwrap();
            assert_eq!(at.scores(), solo.scores());
            assert_eq!(at.initial_scores(), solo.initial_scores());
            assert_eq!(at.method_counts(), solo.method_counts());
            assert_eq!(at.peel_stats(), solo.peel_stats());

            // A handle sweep performs zero new builds and matches a
            // from-scratch sweep exactly.
            let config = SweepConfig::exact(vec![0.1, 0.4, 0.8]).with_rank(rank);
            let shared = handle.sweep(&config).unwrap();
            assert_eq!(shared.support_builds(), 0);
            let fresh = DecompSweep::compute(&g, &config).unwrap();
            assert_eq!(fresh.support_builds(), 1);
            for gi in 0..config.thetas.len() {
                assert_eq!(shared.scores_at_index(gi), fresh.scores_at_index(gi));
                assert_eq!(
                    shared.initial_scores_at_index(gi),
                    fresh.initial_scores_at_index(gi)
                );
                assert_eq!(
                    shared.method_counts_at_index(gi),
                    fresh.method_counts_at_index(gi)
                );
                assert_eq!(
                    shared.peel_stats_at_index(gi),
                    fresh.peel_stats_at_index(gi)
                );
            }
        }
    }

    #[test]
    fn handle_rejects_cross_rank_requests() {
        let g = complete(5, 0.6);
        let handle = DecompHandle::build(&g, Rank::Truss, Parallelism::Sequential);
        assert!(matches!(
            handle.compute_at(&DecompConfig::core(0.5)),
            Err(NucleusError::RankMismatch {
                expected: "core",
                got: "truss",
            })
        ));
        assert!(matches!(
            handle.sweep(&SweepConfig::exact(vec![0.5])),
            Err(NucleusError::RankMismatch {
                expected: "nucleus",
                got: "truss",
            })
        ));
    }

    #[test]
    fn sweep_grid_lookups_and_nuclei_queries() {
        let g = complete(5, 0.9);
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(vec![0.1, 0.5])).unwrap();
        assert_eq!(sweep.grid_index_of(0.5), Some(1));
        assert_eq!(sweep.grid_index_of(0.3), None);
        assert!(sweep.scores_at(0.3).is_none());
        assert!(sweep.initial_scores_at(0.1).is_some());
        assert_eq!(
            sweep.max_score_at(0.1).unwrap(),
            sweep.max_score_at_index(0)
        );
        assert_eq!(
            sweep.require_grid_index(0.3),
            Err(NucleusError::ThresholdOffGrid {
                name: "theta",
                value: 0.3,
            })
        );
        assert!(sweep.nucleus_support().is_some());
        let solo = Decomposition::compute(&g, &DecompConfig::nucleus(0.1)).unwrap();
        let nuclei = sweep.k_nuclei_at(&g, 0.1, 1).unwrap();
        let expected = solo.k_nuclei(&g, 1).unwrap();
        assert_eq!(nuclei.len(), expected.len());
        for (a, b) in nuclei.iter().zip(&expected) {
            assert_eq!(a.cliques, b.cliques);
        }
        assert!(matches!(
            sweep.k_nuclei_at(&g, 0.3, 1),
            Err(NucleusError::ThresholdOffGrid { .. })
        ));

        let truss = DecompSweep::compute(&g, &SweepConfig::exact(vec![0.5]).with_rank(Rank::Truss))
            .unwrap();
        assert!(truss.nucleus_support().is_none());
        assert!(matches!(
            truss.k_nuclei_at(&g, 0.5, 1),
            Err(NucleusError::RankMismatch {
                expected: "nucleus",
                got: "truss",
            })
        ));
    }

    #[test]
    fn decomp_config_expands_into_a_sweep_config() {
        let single = DecompConfig::truss(0.5).with_parallelism(Parallelism::Sequential);
        let sweep = single.sweep(vec![0.2, 0.5, 0.9]);
        assert_eq!(sweep.rank, Rank::Truss);
        assert_eq!(sweep.thetas, vec![0.2, 0.5, 0.9]);
        assert_eq!(sweep.method, single.method);
        assert_eq!(sweep.parallelism, Parallelism::Sequential);
        assert!(sweep.validate().is_ok());
    }

    #[test]
    fn apply_updates_matches_a_fresh_sweep_at_every_rank() {
        // Two K4s sharing a vertex plus a pendant edge: several
        // components, triangles and one 4-clique per block.
        let mut b = GraphBuilder::new();
        for &(u, v, p) in &[
            (0u32, 1u32, 0.9),
            (0, 2, 0.8),
            (0, 3, 0.7),
            (1, 2, 0.6),
            (1, 3, 0.5),
            (2, 3, 0.4),
            (3, 4, 0.9),
            (3, 5, 0.8),
            (4, 5, 0.7),
            (4, 6, 0.6),
            (5, 6, 0.5),
            (0, 7, 0.9),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build();
        let batch = [
            EdgeUpdate::Insert {
                u: 3,
                v: 6,
                p: 0.45,
            },
            EdgeUpdate::Delete { u: 2, v: 3 },
            EdgeUpdate::Reweight {
                u: 0,
                v: 1,
                p: 0.15,
            },
        ];
        let grid = vec![0.05, 0.2, 0.5];
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let config = SweepConfig::exact(grid.clone()).with_rank(rank);
            let mut sweep = DecompSweep::compute(&g, &config).unwrap();
            let outcome = sweep.apply_updates(&g, &batch).unwrap();
            let report = outcome.report;
            assert_eq!(report.inserted_edges, 1, "{rank}");
            assert_eq!(report.removed_edges, 1);
            assert_eq!(report.reweighted_edges, 1);
            assert_eq!(report.repaired_points, grid.len());
            assert_eq!(report.recomputed_points, 0);
            assert!(report.affected_elements <= report.region_elements);

            let fresh = DecompSweep::compute(&outcome.graph, &config).unwrap();
            for (gi, theta) in grid.iter().enumerate() {
                assert_eq!(
                    sweep.scores_at_index(gi),
                    fresh.scores_at_index(gi),
                    "{rank} @ {theta}"
                );
                assert_eq!(
                    sweep.initial_scores_at_index(gi),
                    fresh.initial_scores_at_index(gi)
                );
                assert_eq!(
                    sweep.method_counts_at_index(gi),
                    fresh.method_counts_at_index(gi)
                );
            }

            // The repair path must beat a rebuild on score evaluations:
            // a rebuild spends grid·n initial evaluations plus the full
            // peels' dp_calls.
            let rebuild_calls: usize = grid.len() * fresh.num_elements()
                + fresh.peel_stats().iter().map(|s| s.dp_calls).sum::<usize>();
            assert!(
                report.repair_dp_calls <= rebuild_calls,
                "{rank}: repair {} > rebuild {rebuild_calls}",
                report.repair_dp_calls
            );

            // A second batch applies on top of the updated graph.
            let undo = [EdgeUpdate::Insert { u: 2, v: 3, p: 0.4 }];
            let outcome2 = sweep.apply_updates(&outcome.graph, &undo).unwrap();
            let fresh2 = DecompSweep::compute(&outcome2.graph, &config).unwrap();
            for gi in 0..grid.len() {
                assert_eq!(sweep.scores_at_index(gi), fresh2.scores_at_index(gi));
            }
        }
    }

    #[test]
    fn apply_updates_is_thread_count_independent() {
        let g = complete(7, 0.65);
        let batch = [
            EdgeUpdate::Delete { u: 0, v: 1 },
            EdgeUpdate::Reweight { u: 2, v: 3, p: 0.2 },
        ];
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let config = SweepConfig::exact(vec![0.1, 0.4]).with_rank(rank);
            let mut base = DecompSweep::compute(
                &g,
                &SweepConfig {
                    parallelism: Parallelism::Sequential,
                    ..config.clone()
                },
            )
            .unwrap();
            let base_outcome = base.apply_updates(&g, &batch).unwrap();
            for threads in [2, 8] {
                let mut par_sweep = DecompSweep::compute(
                    &g,
                    &SweepConfig {
                        parallelism: Parallelism::fixed(threads),
                        ..config.clone()
                    },
                )
                .unwrap();
                let outcome = par_sweep.apply_updates(&g, &batch).unwrap();
                assert_eq!(outcome.report, base_outcome.report, "{rank} x{threads}");
                for gi in 0..2 {
                    assert_eq!(
                        par_sweep.scores_at_index(gi),
                        base.scores_at_index(gi),
                        "{rank} x{threads}"
                    );
                    assert_eq!(
                        par_sweep.peel_stats_at_index(gi),
                        base.peel_stats_at_index(gi),
                        "{rank} x{threads}: repair PeelStats must be deterministic"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_updates_rejects_bad_batches_atomically() {
        let g = complete(5, 0.6);
        let config = SweepConfig::exact(vec![0.3]).with_rank(Rank::Truss);
        let mut sweep = DecompSweep::compute(&g, &config).unwrap();
        let before: Vec<u32> = sweep.scores_at_index(0).to_vec();
        // Second entry references an off-graph vertex: the whole batch
        // must be rejected with the typed error and index.
        let batch = [
            EdgeUpdate::Delete { u: 0, v: 1 },
            EdgeUpdate::Insert {
                u: 0,
                v: 99,
                p: 0.5,
            },
        ];
        match sweep.apply_updates(&g, &batch) {
            Err(NucleusError::Update(ugraph::UpdateError::OffGraphEndpoint {
                index: 1,
                vertex: 99,
                ..
            })) => {}
            other => panic!("expected OffGraphEndpoint, got {other:?}"),
        }
        assert_eq!(sweep.scores_at_index(0), &before[..], "sweep untouched");
    }

    #[test]
    fn hybrid_sweeps_recompute_points_on_update() {
        let g = complete(6, 0.7);
        let config = SweepConfig::approximate(vec![0.2, 0.6]);
        let mut sweep = DecompSweep::compute(&g, &config).unwrap();
        let batch = [EdgeUpdate::Delete { u: 0, v: 1 }];
        let outcome = sweep.apply_updates(&g, &batch).unwrap();
        assert_eq!(outcome.report.repaired_points, 0);
        assert_eq!(outcome.report.recomputed_points, 2);
        let fresh = DecompSweep::compute(&outcome.graph, &config).unwrap();
        for gi in 0..2 {
            assert_eq!(sweep.scores_at_index(gi), fresh.scores_at_index(gi));
            assert_eq!(
                sweep.method_counts_at_index(gi),
                fresh.method_counts_at_index(gi)
            );
            assert_eq!(
                sweep.peel_stats_at_index(gi),
                fresh.peel_stats_at_index(gi),
                "recomputed points carry full-run stats"
            );
        }
    }

    #[test]
    fn handle_updates_produce_a_repaired_handle() {
        let g = complete(6, 0.7);
        let handle = DecompHandle::build(&g, Rank::Truss, Parallelism::Sequential);
        let batch = [EdgeUpdate::Delete { u: 0, v: 1 }];
        let update = handle.apply_updates(&g, &batch).unwrap();
        assert_eq!(update.report.removed_edges, 1);
        assert_eq!(update.report.repaired_points, 0);
        assert_eq!(update.graph.num_edges(), g.num_edges() - 1);
        // Queries off the repaired handle match a fresh build.
        let config = DecompConfig::truss(0.3);
        let repaired = update.handle.compute_at(&config).unwrap();
        let fresh = Decomposition::compute(&update.graph, &config).unwrap();
        assert_eq!(repaired.scores(), fresh.scores());
        assert_eq!(repaired.initial_scores(), fresh.initial_scores());
        assert_eq!(repaired.peel_stats(), fresh.peel_stats());
    }

    #[test]
    fn a_repaired_handle_carries_a_built_table_at_every_rank() {
        let g = complete(7, 0.65);
        let batch = [
            EdgeUpdate::Delete { u: 0, v: 1 },
            EdgeUpdate::Reweight { u: 2, v: 3, p: 0.3 },
        ];
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let handle = DecompHandle::build(&g, rank, Parallelism::Sequential);
            let lazy = handle.apply_updates(&g, &batch).unwrap().handle;
            assert!(lazy.tails.get().is_none(), "{rank}: nothing to carry");

            let config = DecompConfig::new(rank, 0.2);
            handle.compute_at(&config).unwrap();
            let update = handle.apply_updates(&g, &batch).unwrap();
            let carried = update.handle.tails.get().expect("carried over");
            let fresh = DecompHandle::build(&update.graph, rank, Parallelism::Sequential);
            let built = fresh.support.tail_table(Parallelism::Sequential);
            assert_eq!(carried.len(), built.len(), "{rank}");
            for t in 0..built.len() as u32 {
                let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(carried.row(t)), bits(built.row(t)), "{rank}: row {t}");
            }
            let repaired = update.handle.compute_at(&config).unwrap();
            let fresh = fresh.compute_at(&config).unwrap();
            assert_eq!(repaired.scores(), fresh.scores(), "{rank}");
            assert_eq!(repaired.initial_scores(), fresh.initial_scores(), "{rank}");
        }
    }

    #[test]
    fn scores_monotone_in_threshold_at_every_rank() {
        let g = complete(6, 0.6);
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let sweep = DecompSweep::compute(
                &g,
                &SweepConfig::exact(vec![0.05, 0.2, 0.5, 0.8]).with_rank(rank),
            )
            .unwrap();
            for gi in 1..sweep.grid_len() {
                for t in 0..sweep.num_elements() {
                    assert!(
                        sweep.scores_at_index(gi)[t] <= sweep.scores_at_index(gi - 1)[t],
                        "{rank}: scores must be non-increasing in the threshold"
                    );
                }
            }
        }
    }

    #[test]
    fn decomp_config_validates_hybrid_hyperparameters() {
        for bad in [0.0, 1.1, f64::NAN] {
            assert!(DecompConfig::nucleus(bad).validate().is_err(), "{bad}");
        }
        let with =
            |t: ApproxThresholds| DecompConfig::nucleus(0.5).with_method(ScoreMethod::Hybrid(t));
        let defaults = ApproxThresholds::default();
        assert!(with(defaults).validate().is_ok());
        for (bad, name) in [
            (
                ApproxThresholds {
                    c_max: 0.0,
                    ..defaults
                },
                "approx.c_max",
            ),
            (ApproxThresholds { d: 2.0, ..defaults }, "approx.d"),
        ] {
            match with(bad).validate() {
                Err(NucleusError::InvalidThreshold { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected InvalidThreshold, got {other:?}"),
            }
        }
    }

    #[test]
    fn compute_at_shares_the_handle_support() {
        let g = complete(5, 0.8);
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let handle = DecompHandle::build(&g, rank, Parallelism::Sequential);
            let d = handle.compute_at(&DecompConfig::new(rank, 0.3)).unwrap();
            assert!(Arc::ptr_eq(&d.support, handle.support()), "{rank}");
            assert_eq!(d.nucleus_support().is_some(), rank == Rank::Nucleus);
        }
    }

    #[test]
    fn k_nuclei_is_nucleus_rank_only() {
        let g = complete(5, 0.9);
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let d = Decomposition::compute(&g, &DecompConfig::new(rank, 0.1)).unwrap();
            match d.k_nuclei(&g, 1) {
                Ok(nuclei) => {
                    assert_eq!(rank, Rank::Nucleus);
                    assert_eq!(nuclei.len(), 1);
                }
                Err(e) => assert_eq!(
                    e,
                    NucleusError::RankMismatch {
                        expected: "nucleus",
                        got: rank.as_str(),
                    }
                ),
            }
        }
    }

    /// Two disjoint K5s with high probabilities, plus a weak pendant
    /// vertex attached to each clique.
    fn two_k5s_with_pendants() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5u32] {
            for i in 0..5u32 {
                for j in (i + 1)..5u32 {
                    b.add_edge(base + i, base + j, 0.9).unwrap();
                }
            }
        }
        b.add_edge(4, 10, 0.1).unwrap();
        b.add_edge(9, 11, 0.1).unwrap();
        b.build()
    }

    #[test]
    fn k_subgraphs_extract_both_k5s_at_every_rank() {
        let g = two_k5s_with_pendants();
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let d = Decomposition::compute(&g, &DecompConfig::new(rank, 0.5)).unwrap();
            let k = d.max_score().max(1);
            let subs = d.k_subgraphs(&g, k);
            assert_eq!(subs.len(), 2, "{rank}");
            for sub in &subs {
                assert_eq!(sub.num_vertices(), 5, "{rank}");
                assert_eq!(sub.num_edges(), 10, "{rank}");
            }
            if rank == Rank::Nucleus {
                let nuclei = d.k_nuclei(&g, k).unwrap();
                assert_eq!(nuclei.len(), subs.len());
                for (n, sub) in nuclei.iter().zip(&subs) {
                    assert_eq!(n.subgraph.original_vertices(), sub.original_vertices());
                    assert_eq!(n.subgraph.num_edges(), sub.num_edges());
                }
            }
        }
    }

    // The nucleus rank's two peels: the exact DP's deferred one against
    // the eager schedule, and the Hybrid point across thread counts.

    /// The exact-DP point every rank runs: initial κ off the support's
    /// tail table, then the deferred peel.
    fn exact_point(support: &SupportStructure, theta: f64) -> Point {
        let tails = TailTable::build(support, Parallelism::Sequential);
        generic_point(support, &tails, theta)
    }

    /// The exact DP peeled on the eager schedule from `kappa`.
    fn eager_dp(support: &SupportStructure, theta: f64, kappa: Vec<u32>) -> (Vec<u32>, PeelStats) {
        let mut scratch = TailScratch::new();
        rs::peel_eager(support, kappa, |t, dead| {
            scratch.score(support, t, theta, |c| !dead[c as usize])
        })
    }

    #[test]
    fn methods_are_listed_in_discriminant_order() {
        for (i, &method) in METHODS.iter().enumerate() {
            assert_eq!(method as usize, i, "{method}");
        }
    }

    #[test]
    fn deferred_engine_skips_recomputes_via_the_cheap_bound() {
        // K5, every edge certain, θ small: every triangle has κ = 2 and
        // the whole graph peels at level 2.  Every pop of a dirty
        // triangle happens at level 2 with bound min(κ=2, alive) ≤ 2, so
        // the cheap bound resolves every single one — zero DP
        // recomputations against 5 · 3 = 15 (actually fewer after the
        // kappa ≤ level skip) in the eager engine.
        let g = complete(5, 1.0);
        let support = SupportStructure::build(&g);
        let point = exact_point(&support, 0.5);
        assert!(point.initial_scores.iter().all(|&k| k == 2));
        assert!(point.scores.iter().all(|&s| s == 2));
        assert_eq!(point.stats.dp_calls, 0, "cheap bound must defeat every pop");
        assert!(point.stats.recompute_skips > 0);
        assert!(point.stats.buckets_touched >= 1);
        // No recompute ran, so the peel-phase scratch was never used: the
        // whole peak is the initial pass's, as the table scan counts it.
        let tails = TailTable::build(&support, Parallelism::Sequential);
        let (_, init_peak) = tails.initial_scores(&support, 0.5);
        assert!(init_peak > 0);
        assert_eq!(point.stats.peak_scratch_bytes, init_peak);

        let (eager_scores, eager_stats) = eager_dp(&support, 0.5, point.initial_scores);
        assert_eq!(point.scores, eager_scores);
        // The eager engine dodges these pops through its own kappa ≤
        // level check and counts them as skips too.
        assert_eq!(eager_stats.dp_calls, 0);
        assert!(eager_stats.recompute_skips > 0);
    }

    #[test]
    fn deferred_engine_recomputes_when_the_bound_is_inconclusive() {
        // K5 on {0,1,2,4,5} plus a pendant 4-clique {0,1,2,3}: the hub
        // triangle (0,1,2) starts at κ = 3, the pendant's side triangles
        // at κ = 1, the other K5 triangles at κ = 2.  Peeling the pendant
        // at level 1 kills one hub clique, requeueing the hub at level 1
        // where its bound min(κ=3, alive=2) = 2 > 1 is inconclusive: the
        // engine must run one batched DP to learn the hub now sits at 2.
        let mut b = GraphBuilder::new();
        for &u in &[0u32, 1, 2, 4, 5] {
            for &v in &[0u32, 1, 2, 4, 5] {
                if u < v {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
        }
        for &u in &[0u32, 1, 2] {
            b.add_edge(u, 3, 1.0).unwrap();
        }
        let g = b.build();
        let support = SupportStructure::build(&g);
        let point = exact_point(&support, 0.5);
        // The table's initial κ is the per-triangle DP pass's.
        let mut scratch = TailScratch::new();
        let per_triangle: Vec<u32> = (0..support.num_triangles() as u32)
            .map(|t| scratch.score(&support, t, 0.5, |_| true))
            .collect();
        assert_eq!(per_triangle, point.initial_scores);
        let (eager, eager_stats) = eager_dp(&support, 0.5, point.initial_scores.clone());
        assert_eq!(point.scores, eager);
        assert!(
            point.stats.dp_calls > 0,
            "inconclusive bounds must recompute"
        );
        assert!(
            point.stats.dp_calls <= eager_stats.dp_calls,
            "deferral must never recompute more than the eager engine \
             ({} vs {})",
            point.stats.dp_calls,
            eager_stats.dp_calls
        );
        assert!(point.stats.peak_scratch_bytes > 0);
    }

    #[test]
    fn stats_are_deterministic_across_repeat_runs() {
        let g = complete(6, 0.7);
        let support = SupportStructure::build(&g);
        let a = exact_point(&support, 0.2);
        let b = exact_point(&support, 0.2);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn initial_pass_is_identical_for_every_parallelism() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let cfg = ugraph::generators::PlantedCliqueConfig {
            num_vertices: 40,
            background_edges: 80,
            num_communities: 4,
            community_size: (5, 8),
            overlap: 2,
        };
        let edges = ugraph::generators::planted_clique_edges(&cfg, &mut rng);
        let g = ugraph::generators::assign_probabilities(&edges, 40, &uniform(0.2), &mut rng);
        let support = SupportStructure::build(&g);
        // Small A and B spread the triangles over several methods, so the
        // per-method tally is exercised beyond its DP slot.
        let thresholds = ApproxThresholds {
            a: 5,
            b: 3,
            ..ApproxThresholds::default()
        };
        let base = hybrid_point(&support, 0.15, &thresholds, Parallelism::Sequential);
        assert!(base.method_counts.len() >= 3, "{:?}", base.method_counts);
        assert!(base.method_counts.values().all(|&n| n > 0));
        assert_eq!(
            base.method_counts.values().sum::<usize>(),
            support.num_triangles()
        );
        let exact =
            TailTable::build(&support, Parallelism::Sequential).initial_scores(&support, 0.15);
        for threads in [1, 2, 8] {
            let par = hybrid_point(&support, 0.15, &thresholds, Parallelism::fixed(threads));
            assert_eq!(par.scores, base.scores, "threads = {threads}");
            assert_eq!(par.initial_scores, base.initial_scores);
            assert_eq!(par.method_counts, base.method_counts);
            assert_eq!(par.stats, base.stats);
            let tails = TailTable::build(&support, Parallelism::fixed(threads));
            assert_eq!(tails.initial_scores(&support, 0.15), exact);
        }
    }

    // Nucleus-rank sweeps: per-point results, grid lookups and nuclei
    // queries against single-threshold decompositions.

    fn nucleus(g: &UncertainGraph, config: DecompConfig) -> Decomposition {
        Decomposition::compute(g, &config).unwrap()
    }

    #[test]
    fn sweep_matches_independent_runs_on_a_fixture() {
        let g = complete(6, 0.7);
        let grid = vec![0.05, 0.2, 0.4, 0.6, 0.9];
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(grid.clone())).unwrap();
        assert_eq!(sweep.support_builds(), 1);
        assert_eq!(sweep.grid_len(), 5);
        for (gi, &theta) in grid.iter().enumerate() {
            let solo = nucleus(&g, DecompConfig::nucleus(theta));
            assert_eq!(sweep.scores_at(theta).unwrap(), solo.scores());
            assert_eq!(
                sweep.initial_scores_at(theta).unwrap(),
                solo.initial_scores()
            );
            assert_eq!(sweep.method_counts_at_index(gi), solo.method_counts());
            assert_eq!(sweep.peel_stats_at_index(gi), solo.peel_stats());
            assert_eq!(sweep.max_score_at(theta).unwrap(), solo.max_score());
        }
    }

    #[test]
    fn sweep_over_a_prebuilt_support_reports_zero_builds() {
        let g = complete(5, 0.8);
        let config = SweepConfig::exact(vec![0.1, 0.5]);
        let support = Arc::new(RankSupport::Nucleus(SupportStructure::build(&g)));
        let shared = DecompHandle::from_support(support).sweep(&config).unwrap();
        assert_eq!(shared.support_builds(), 0);
        let direct = DecompSweep::compute(&g, &config).unwrap();
        assert_eq!(direct.support_builds(), 1);
        for gi in 0..shared.grid_len() {
            assert_eq!(shared.scores_at_index(gi), direct.scores_at_index(gi));
            assert_eq!(
                shared.initial_scores_at_index(gi),
                direct.initial_scores_at_index(gi)
            );
        }
    }

    #[test]
    fn grid_lookup_is_exact_match_only() {
        let g = complete(5, 0.6);
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(vec![0.1, 0.3, 0.7])).unwrap();
        assert_eq!(sweep.grid_index_of(0.3), Some(1));
        assert_eq!(sweep.grid_index_of(0.2), None);
        assert_eq!(sweep.grid_index_of(f64::NAN), None);
        assert!(sweep.scores_at(0.2).is_none());
        assert!(sweep.initial_scores_at(0.31).is_none());
        assert!(sweep.max_score_at(0.0).is_none());
        assert_eq!(sweep.thresholds(), &[0.1, 0.3, 0.7]);
    }

    #[test]
    fn invalid_grids_are_rejected_before_any_work() {
        let g = complete(4, 0.5);
        assert_eq!(
            DecompSweep::compute(&g, &SweepConfig::exact(vec![])).unwrap_err(),
            NucleusError::InvalidThetaGrid(crate::ThetaGridError::Empty)
        );
        assert!(SweepConfig::exact(vec![0.5, 0.1]).validate().is_err());
    }

    #[test]
    fn monotone_rows_and_per_triangle_queries() {
        let g = complete(6, 0.65);
        let sweep =
            DecompSweep::compute(&g, &SweepConfig::exact(vec![0.05, 0.2, 0.5, 0.8])).unwrap();
        assert!(sweep.is_monotone_in_threshold());
        let row: Vec<u32> = (0..sweep.grid_len())
            .map(|gi| sweep.scores_at_index(gi)[0])
            .collect();
        assert_eq!(row.len(), 4);
        assert!(row.windows(2).all(|w| w[1] <= w[0]));
        let index = sweep.nucleus_support().unwrap().triangle_index();
        assert!(index.id_of(&ugraph::Triangle::new(90, 91, 92)).is_none());
    }

    #[test]
    fn k_nuclei_queries_match_single_theta_decompositions() {
        let g = complete(5, 0.9);
        let grid = vec![0.1, 0.5];
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(grid.clone())).unwrap();
        for &theta in &grid {
            let solo = nucleus(&g, DecompConfig::nucleus(theta));
            for k in 1..=2 {
                let from_sweep = sweep.k_nuclei_at(&g, theta, k).unwrap();
                let from_solo = solo.k_nuclei(&g, k).unwrap();
                assert_eq!(from_sweep.len(), from_solo.len());
                for (a, b) in from_sweep.iter().zip(&from_solo) {
                    assert_eq!(a.cliques, b.cliques);
                    assert_eq!(a.triangles, b.triangles);
                }
            }
        }
        assert!(sweep.k_nuclei_at(&g, 0.33, 1).is_err());
    }

    #[test]
    fn sweep_is_identical_for_every_parallelism() {
        let g = complete(7, 0.6);
        let config = SweepConfig::exact(vec![0.05, 0.15, 0.4, 0.75]);
        let base = DecompSweep::compute(
            &g,
            &config.clone().with_parallelism(Parallelism::Sequential),
        )
        .unwrap();
        for threads in [2, 8] {
            let par = DecompSweep::compute(
                &g,
                &config.clone().with_parallelism(Parallelism::fixed(threads)),
            )
            .unwrap();
            for gi in 0..config.thetas.len() {
                assert_eq!(
                    par.scores_at_index(gi),
                    base.scores_at_index(gi),
                    "threads = {threads}"
                );
                assert_eq!(
                    par.initial_scores_at_index(gi),
                    base.initial_scores_at_index(gi)
                );
                assert_eq!(par.peel_stats_at_index(gi), base.peel_stats_at_index(gi));
            }
        }
    }

    #[test]
    fn single_point_grid_equals_a_plain_decomposition() {
        let g = complete(6, 0.7);
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(vec![0.25])).unwrap();
        let solo = nucleus(&g, DecompConfig::nucleus(0.25));
        assert_eq!(sweep.grid_len(), 1);
        assert_eq!(sweep.scores_at(0.25).unwrap(), solo.scores());
        assert_eq!(sweep.total_dp_calls(), solo.peel_stats().dp_calls);
    }

    #[test]
    fn empty_graph_sweeps_cleanly() {
        let g = UncertainGraph::empty(4);
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(vec![0.1, 0.9])).unwrap();
        assert_eq!(sweep.num_elements(), 0);
        assert_eq!(sweep.max_score_at(0.1), Some(0));
        assert!(sweep.is_monotone_in_threshold());
        assert!(sweep.k_nuclei_at(&g, 0.9, 1).unwrap().is_empty());
    }

    #[test]
    fn hybrid_sweep_matches_independent_hybrid_runs() {
        let g = complete(7, 0.55);
        let grid = vec![0.05, 0.3, 0.7];
        let sweep = DecompSweep::compute(&g, &SweepConfig::approximate(grid.clone())).unwrap();
        let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
        for (gi, &theta) in grid.iter().enumerate() {
            let solo = nucleus(&g, DecompConfig::nucleus(theta).with_method(hybrid));
            assert_eq!(sweep.scores_at(theta).unwrap(), solo.scores());
            assert_eq!(sweep.method_counts_at_index(gi), solo.method_counts());
        }
    }

    // The Table 3 baselines: the probabilistic (k,η)-core (Bonchi et
    // al.) and the local (k,γ)-truss (Huang et al.) at ranks (1,2) and
    // (2,3).

    fn scores(g: &UncertainGraph, config: DecompConfig) -> Vec<u32> {
        Decomposition::compute(g, &config)
            .unwrap()
            .scores()
            .to_vec()
    }

    /// A G(n, m) graph whose edge probabilities are drawn from `model`.
    pub(crate) fn random_graph(
        seed: u64,
        n: usize,
        m: usize,
        model: ProbabilityModel,
    ) -> UncertainGraph {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let edges = ugraph::generators::gnm_edges(n, m, &mut rng);
        ugraph::generators::assign_probabilities(&edges, n, &model, &mut rng)
    }

    const CERTAIN: ProbabilityModel = ProbabilityModel::Constant(1.0);

    pub(crate) fn uniform(low: f64) -> ProbabilityModel {
        ProbabilityModel::Uniform { low, high: 1.0 }
    }

    /// Deterministic core numbers via the naive iterative algorithm.
    pub(crate) fn naive_core(graph: &UncertainGraph) -> Vec<u32> {
        let n = graph.num_vertices();
        let mut core = vec![0u32; n];
        for k in 1..=graph.max_degree() as u32 {
            let mut alive = vec![true; n];
            loop {
                let mut changed = false;
                for v in 0..n {
                    let deg = graph
                        .neighbors(v as u32)
                        .iter()
                        .filter(|&&u| alive[u as usize])
                        .count() as u32;
                    if alive[v] && deg < k {
                        alive[v] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for v in 0..n {
                if alive[v] {
                    core[v] = k;
                }
            }
        }
        core
    }

    /// Deterministic truss numbers via naive iterative filtering (support
    /// convention).
    pub(crate) fn naive_truss(graph: &UncertainGraph) -> Vec<u32> {
        let m = graph.num_edges();
        let mut truss = vec![0u32; m];
        for k in 1..=graph.max_degree() as u32 {
            let mut alive = vec![true; m];
            loop {
                let mut changed = false;
                for e in 0..m {
                    let edge = graph.edge(e as EdgeId);
                    let sup = graph
                        .common_neighbors(edge.u, edge.v)
                        .iter()
                        .filter(|&&w| {
                            alive[graph.edge_id(edge.u, w).unwrap() as usize]
                                && alive[graph.edge_id(edge.v, w).unwrap() as usize]
                        })
                        .count() as u32;
                    if alive[e] && sup < k {
                        alive[e] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for e in 0..m {
                if alive[e] {
                    truss[e] = k;
                }
            }
        }
        truss
    }

    /// Deterministic nucleusness via naive iterative filtering: for each
    /// k, drop the triangles in fewer than k 4-cliques of surviving
    /// triangles until none is short.
    pub(crate) fn naive_nucleusness(graph: &UncertainGraph) -> Vec<u32> {
        let index = TriangleIndex::build(graph);
        let cliques = FourCliqueEnumerator::new(graph).into_cliques();
        let clique_tris: Vec<Vec<TriangleId>> = cliques
            .iter()
            .map(|c| {
                c.triangles()
                    .iter()
                    .map(|t| index.id_of(t).unwrap())
                    .collect()
            })
            .collect();
        let nt = index.len();
        let mut result = vec![0u32; nt];
        for k in 1..=cliques.len() as u32 {
            let mut alive = vec![true; nt];
            loop {
                let mut changed = false;
                for t in 0..nt {
                    if !alive[t] {
                        continue;
                    }
                    let sup = clique_tris
                        .iter()
                        .filter(|tris| {
                            tris.iter().all(|&x| alive[x as usize])
                                && tris.contains(&(t as TriangleId))
                        })
                        .count() as u32;
                    if sup < k {
                        alive[t] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for t in 0..nt {
                if alive[t] {
                    result[t] = k;
                }
            }
        }
        result
    }

    /// The decomposition at threshold 1.0 of the certain view of `g`
    /// (every edge at p = 1): its scores are the deterministic core, truss
    /// or nucleus numbers of `g`.
    pub(crate) fn certain(g: &UncertainGraph, rank: Rank) -> Decomposition {
        let certain = ugraph::PossibleWorld::full(g).materialize(g);
        Decomposition::compute(&certain, &DecompConfig::new(rank, 1.0)).unwrap()
    }

    /// K4 on {0,1,2,3} plus the `extra` edges, every edge at p = 1.
    pub(crate) fn k4_plus(extra: &[(u32, u32)]) -> UncertainGraph {
        let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut b = GraphBuilder::new();
        for &(u, v) in k4.iter().chain(extra) {
            b.add_edge(u, v, 1.0).unwrap();
        }
        b.build()
    }

    fn assert_malformed_threshold_rejected(config: fn(f64) -> DecompConfig, name: &str) {
        let g = complete(4, 0.9);
        for bad in [0.0, -0.25, 1.5, f64::NAN] {
            match Decomposition::compute(&g, &config(bad)) {
                Err(NucleusError::InvalidThreshold { name: got, value }) => {
                    assert_eq!(got, name);
                    assert!(value.is_nan() == bad.is_nan() && (bad.is_nan() || value == bad));
                }
                other => panic!("{name}={bad} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn certain_graph_matches_deterministic_core() {
        // With all probabilities 1 and any η ≤ 1, the η-core equals the
        // deterministic core.
        let g = random_graph(31, 40, 160, CERTAIN);
        assert_eq!(scores(&g, DecompConfig::core(0.7)), naive_core(&g));
    }

    #[test]
    fn core_matches_frozen_reference_on_k6() {
        let g = complete(6, 0.6);
        assert_eq!(
            scores(&g, DecompConfig::core(0.3)),
            crate::reference::eta_core_numbers(&g, 0.3)
        );
    }

    #[test]
    fn malformed_eta_is_rejected_with_typed_error() {
        assert_malformed_threshold_rejected(DecompConfig::core, "eta");
    }

    #[test]
    fn eta_degree_drops_with_threshold() {
        // A star with 4 leaves, each edge p = 0.5.  Pr[deg >= 2] = 0.6875,
        // Pr[deg >= 3] = 0.3125.
        let mut b = GraphBuilder::new();
        for leaf in 1..=4u32 {
            b.add_edge(0, leaf, 0.5).unwrap();
        }
        let g = b.build();
        let lenient = scores(&g, DecompConfig::core(0.3));
        let strict = scores(&g, DecompConfig::core(0.7));
        assert!(lenient[0] >= strict[0]);
        // Leaves can have at most η-degree 1 (p = 0.5 < 0.7 means 0 for strict).
        assert_eq!(strict[1], 0);
    }

    #[test]
    fn clique_with_low_probabilities_has_smaller_core() {
        let high = Decomposition::compute(&complete(6, 0.95), &DecompConfig::core(0.5)).unwrap();
        let low = Decomposition::compute(&complete(6, 0.3), &DecompConfig::core(0.5)).unwrap();
        assert!(high.max_score() > low.max_score());
        assert_eq!(high.num_elements(), 6);
    }

    #[test]
    fn core_of_an_empty_graph() {
        let g = UncertainGraph::empty(3);
        let d = Decomposition::compute(&g, &DecompConfig::core(0.5)).unwrap();
        assert_eq!(d.scores(), &[0, 0, 0]);
        assert_eq!(d.max_score(), 0);
        assert!(d.k_subgraphs(&g, 1).is_empty());
    }

    #[test]
    fn core_numbers_monotone_in_eta() {
        let g = random_graph(5, 30, 120, uniform(0.2));
        let loose = scores(&g, DecompConfig::core(0.1));
        let tight = scores(&g, DecompConfig::core(0.9));
        for v in 0..30 {
            assert!(
                loose[v] >= tight[v],
                "vertex {v}: eta=0.1 gives {} < eta=0.9 gives {}",
                loose[v],
                tight[v]
            );
        }
    }

    #[test]
    fn eta_core_never_exceeds_deterministic_core() {
        let g = random_graph(13, 30, 110, uniform(0.2));
        let prob = scores(&g, DecompConfig::core(0.4));
        for (v, &d) in naive_core(&g).iter().enumerate() {
            assert!(prob[v] <= d);
        }
    }

    #[test]
    fn certain_graph_matches_deterministic_truss() {
        let g = random_graph(41, 25, 100, CERTAIN);
        assert_eq!(scores(&g, DecompConfig::truss(0.6)), naive_truss(&g));
    }

    #[test]
    fn truss_matches_frozen_reference_on_k6() {
        let g = complete(6, 0.7);
        assert_eq!(
            scores(&g, DecompConfig::truss(0.2)),
            crate::reference::gamma_truss_numbers(&g, 0.2)
        );
    }

    #[test]
    fn malformed_gamma_is_rejected_with_typed_error() {
        assert_malformed_threshold_rejected(DecompConfig::truss, "gamma");
    }

    #[test]
    fn truss_of_empty_and_triangle_free_graphs() {
        let g = UncertainGraph::empty(4);
        assert_eq!(scores(&g, DecompConfig::truss(0.5)), Vec::<u32>::new());

        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.9).unwrap();
        let path = b.build();
        let d = Decomposition::compute(&path, &DecompConfig::truss(0.5)).unwrap();
        assert!(d.scores().iter().all(|&t| t == 0));
        assert!(d.k_subgraphs(&path, 1).is_empty());
    }

    #[test]
    fn gamma_truss_number_decreases_with_gamma() {
        let g = complete(6, 0.7);
        let loose = scores(&g, DecompConfig::truss(0.05));
        let tight = scores(&g, DecompConfig::truss(0.9));
        assert!(loose.iter().zip(&tight).all(|(l, t)| l >= t));
    }

    #[test]
    fn gamma_truss_never_exceeds_deterministic_truss() {
        let g = random_graph(43, 20, 90, uniform(0.3));
        let prob = scores(&g, DecompConfig::truss(0.3));
        for (e, &d) in naive_truss(&g).iter().enumerate() {
            assert!(prob[e] <= d);
        }
    }

    #[test]
    fn single_triangle_support() {
        // One triangle with p = 0.8 everywhere.
        // Pr[X_e >= 1] = 0.8 * 0.64 = 0.512.
        let g = complete(3, 0.8);
        assert!(scores(&g, DecompConfig::truss(0.5)).iter().all(|&t| t == 1));
        assert!(scores(&g, DecompConfig::truss(0.6)).iter().all(|&t| t == 0));
    }

    #[test]
    fn subgraph_extraction_keeps_dense_component() {
        // A K5 with strong probabilities plus a weak triangle attached.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, 0.95).unwrap();
            }
        }
        b.add_edge(4, 5, 0.2).unwrap();
        b.add_edge(4, 6, 0.2).unwrap();
        b.add_edge(5, 6, 0.2).unwrap();
        let g = b.build();
        let d = Decomposition::compute(&g, &DecompConfig::truss(0.5)).unwrap();
        let k = d.max_score();
        assert!(k >= 2);
        let trusses = d.k_subgraphs(&g, k);
        assert_eq!(trusses.len(), 1);
        assert_eq!(trusses[0].num_vertices(), 5);
        assert_eq!(trusses[0].num_edges(), 10);
    }

    #[test]
    fn max_truss_and_truss_subgraphs() {
        let g = complete(5, 0.9);
        let d = Decomposition::compute(&g, &DecompConfig::truss(0.3)).unwrap();
        assert!(d.max_score() >= 2);
        assert_eq!(d.k_subgraphs(&g, 1)[0].num_edges(), 10);
        assert!(d.k_subgraphs(&g, d.max_score() + 1).is_empty());
    }
}
