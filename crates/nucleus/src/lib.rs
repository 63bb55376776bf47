//! # nucleus — probabilistic nucleus decomposition
//!
//! Reproduction of the algorithms of *"Nucleus Decomposition in
//! Probabilistic Graphs: Hardness and Algorithms"* (Esfahani, Srinivasan,
//! Thomo, Wu — ICDE 2022): the local, global and weakly-global
//! k-(3,4)-nucleus decompositions of a probabilistic graph.
//!
//! ## The three semantics
//!
//! For a probabilistic subgraph `H`, a triangle `△` of `H`, threshold
//! `θ ∈ (0, 1]` and integer `k ≥ 0` (Definitions 4 and 5):
//!
//! * **local** (`ℓ`): `Pr[△ exists and is contained in ≥ k 4-cliques of
//!   the sampled world] ≥ θ` for every triangle of `H` — computable in
//!   polynomial time ([`local`]).
//! * **global** (`g`): the sampled world must itself be a deterministic
//!   k-nucleus containing `△` — #P-hard, approximated by Monte-Carlo
//!   sampling over pruned candidates ([`global`]).
//! * **weakly-global** (`w`): the sampled world must contain a
//!   deterministic k-nucleus containing `△` — NP-hard, approximated the
//!   same way ([`weakly_global`]).
//!
//! ## Quick start
//!
//! ```
//! use nucleus::{DecompConfig, Decomposition};
//! use ugraph::GraphBuilder;
//!
//! // A probabilistic 5-clique.
//! let mut b = GraphBuilder::new();
//! for u in 0..5u32 {
//!     for v in (u + 1)..5u32 {
//!         b.add_edge(u, v, 0.8).unwrap();
//!     }
//! }
//! let graph = b.build();
//!
//! let decomp = Decomposition::compute(&graph, &DecompConfig::nucleus(0.1)).unwrap();
//! assert_eq!(decomp.max_score(), 2);
//! let nuclei = decomp.k_nuclei(&graph, 2).unwrap();
//! assert_eq!(nuclei.len(), 1);
//! assert_eq!(nuclei[0].num_vertices(), 5);
//!
//! // The same engine computes the Table 3 baselines: the (k,η)-core and
//! // the local (k,γ)-truss.
//! let core = Decomposition::compute(&graph, &DecompConfig::core(0.1)).unwrap();
//! assert_eq!(core.k_subgraphs(&graph, core.max_score()).len(), 1);
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`support`] | 5.1 | per-triangle 4-clique completion probabilities |
//! | [`decomp`] | 5, 7.4 | the one (r,s) surface: [`DecompConfig`], [`Decomposition`], [`DecompSweep`] (one support build amortized over a threshold grid) and [`DecompHandle`] over core/truss/nucleus |
//! | [`local`] | 5.1–5.2 | ℓ-NuDecomp (Algorithm 1) as the nucleus rank of [`decomp`], and ℓ-(k,θ)-nuclei extraction ([`NucleusSubgraph`]) |
//! | [`approx`] | 5.3 | Poisson / Translated-Poisson / Binomial / CLT approximations and the hybrid selector |
//! | [`global`] | 6 | Algorithm 2 (Monte-Carlo g-(k,θ)-nuclei) |
//! | [`weakly_global`] | 6 | Algorithm 3 (Monte-Carlo w-(k,θ)-nuclei) |
//! | [`sampling`] | 6, Lemma 4 | Hoeffding sample sizes, world sampling, compiled candidate world checks |
//! | [`exact`] | 3–5 | the oracles (ground truth for tests): every monotone peel's scores from their definition, exhaustive possible-world tails and the per-world k-nucleus checks |
//! | [`hardness`] | 4 | executable reduction gadgets (reliability → g, k-clique → w) |

pub mod approx;
pub mod config;
pub mod decomp;
pub mod error;
pub mod exact;
pub mod global;
pub mod hardness;
pub mod local;
#[doc(hidden)]
pub mod reference;
pub mod sampling;
pub mod support;
pub mod weakly_global;

// Tests of the deterministic core, truss and (3,4)-nucleus numbers (the
// scores at threshold 1.0 of the certain view of a graph) and of the
// deterministic k-nuclei.
#[cfg(test)]
mod core_decomp;
#[cfg(test)]
mod nucleus;
#[cfg(test)]
mod truss;

pub use approx::ApproxMethod;
pub use config::{ApproxThresholds, SamplingConfig, ScoreMethod, SweepConfig};
pub use decomp::{
    DecompConfig, DecompHandle, DecompSweep, Decomposition, Rank, RankSupport, SupportRepair,
    UnknownRankError, UpdateOutcome, UpdateReport,
};
pub use error::{NucleusError, Result, ThetaGridError};
pub use global::{global_nuclei, GlobalConfig, GlobalNucleus};
pub use local::nuclei::NucleusSubgraph;
pub use support::SupportStructure;
pub use ugraph::rs::PeelStats;
// Re-exported so update callers don't need a direct `ugraph` dependency.
pub use ugraph::{EdgeUpdate, UpdateError};
pub use weakly_global::{weakly_global_nuclei, WeaklyGlobalNucleus};
