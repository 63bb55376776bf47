//! # prob-nucleus-repro
//!
//! Umbrella crate of the reproduction of *"Nucleus Decomposition in
//! Probabilistic Graphs: Hardness and Algorithms"* (Esfahani, Srinivasan,
//! Thomo, Wu — ICDE 2022).  It re-exports the workspace crates so that the
//! examples and integration tests can use a single dependency:
//!
//! * [`ugraph`] — probabilistic graph substrate (representation, cliques,
//!   possible worlds, metrics, generators, I/O),
//! * [`nucleus`] — the paper's contribution: local (exact DP + statistical
//!   approximations), global and weakly-global nucleus decompositions, and
//!   the same engine's probabilistic (k,η)-core and (k,γ)-truss baselines;
//!   the deterministic core, truss and nucleus numbers are
//!   [`Decomposition`] at threshold 1.0 on the certain view of a graph,
//!   and [`nucleus::exact`] holds the oracles that check them all against
//!   their definitions,
//! * [`nd_datasets`] — synthetic emulations of the paper's datasets.
//!
//! ```
//! use prob_nucleus_repro::ugraph::GraphBuilder;
//! use prob_nucleus_repro::{DecompConfig, Decomposition};
//!
//! let mut b = GraphBuilder::new();
//! for u in 0..5u32 {
//!     for v in (u + 1)..5u32 {
//!         b.add_edge(u, v, 0.9).unwrap();
//!     }
//! }
//! let graph = b.build();
//! let local = Decomposition::compute(&graph, &DecompConfig::nucleus(0.2)).unwrap();
//! assert_eq!(local.max_score(), 2);
//! let truss = Decomposition::compute(&graph, &DecompConfig::truss(0.2)).unwrap();
//! assert_eq!(truss.k_subgraphs(&graph, truss.max_score()).len(), 1);
//! ```
//!
//! The facade denies `deprecated` lints, so every caller that goes
//! through this crate stays on the fallible [`Decomposition::compute`]
//! surface.

#![deny(deprecated)]

pub use nd_datasets;
pub use nucleus;
pub use ugraph;

/// Convenience re-export of the parallelism knob used across the
/// enumeration and decomposition entry points.
pub use ugraph::Parallelism;

/// Convenience re-exports of the unified (r,s)-decomposition surface: one
/// builder-style config and one engine covering the (k,η)-core, local
/// (k,γ)-truss and ℓ-nucleus decompositions plus their threshold sweeps.
pub use nucleus::{DecompConfig, DecompHandle, DecompSweep, Decomposition, Rank, RankSupport};
