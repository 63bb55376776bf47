//! # ugraph — probabilistic (uncertain) graph substrate
//!
//! This crate provides the graph infrastructure that the probabilistic
//! nucleus decomposition of Esfahani et al. (ICDE 2022) is built on:
//!
//! * [`UncertainGraph`] — a compact CSR representation of an undirected
//!   graph in which every edge carries an independent existence
//!   probability `p ∈ (0, 1]`.
//! * [`GraphBuilder`] — incremental construction with de-duplication.
//! * [`PossibleWorld`] — deterministic instantiations of an uncertain graph
//!   obtained by flipping a biased coin per edge, together with their
//!   existence probability (Equation 1 of the paper).
//! * Triangle and 4-clique enumeration ([`triangles`], [`cliques`]) — the
//!   `r = 3`, `s = 4` higher-order structures used by the (3,4)-nucleus.
//! * Parallel execution substrate ([`par`]) — a zero-dependency, scoped-
//!   thread chunked parallel-for with atomic chunk claiming that drives the
//!   `*_with` variants of the enumerators.  Every parallel result is
//!   bit-identical to the sequential one; the degree of parallelism is
//!   chosen through [`Parallelism`].
//! * Connectivity utilities ([`connectivity`]) — union-find and BFS
//!   components, used by every decomposition to report maximal connected
//!   subgraphs.
//! * Quality metrics ([`metrics`]) — probabilistic density (PD) and
//!   probabilistic clustering coefficient (PCC) from Section 7.4.
//! * Generic (r,s)-nucleus engine ([`rs`]) — the support-structure trait
//!   ([`rs::RsSupport`]), its (1,2) and (2,3) implementations, the shared
//!   Poisson-binomial DP ([`rs::dp`]) and the deferred bucket-queue peel
//!   that `nucleus` instantiates at every rank.
//! * Random generators ([`generators`]) and ingestion/persistence
//!   ([`io`]) — SNAP edge lists, Konect TSV, versioned `.ugsnap` binary
//!   snapshots with checksums, and pluggable edge-probability models.
//! * Edge updates ([`update`]) — atomic, typed-error batches of
//!   insert/delete/re-weight mutations producing a new graph plus the
//!   edge-id [`update::GraphDelta`] the incremental support-repair
//!   paths consume.
//!
//! The crate is deliberately free of any decomposition logic; it is the
//! substrate `nucleus` builds on.
//!
//! # Unsafe-code discipline
//!
//! The crate denies `unsafe_code` globally; the single exception is the
//! private `mem` module, which isolates the `mmap(2)` syscall and the
//! typed zero-copy views the snapshot reader builds over mapped files.
//! Everything `unsafe` can be audited in that one file.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cliques;
pub mod connectivity;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub(crate) mod mem;
pub mod metrics;
pub mod par;
pub mod possible_world;
pub mod rs;
pub mod subgraph;
pub mod triangles;
pub mod update;

pub use builder::GraphBuilder;
pub use cliques::{FourClique, FourCliqueEnumerator};
pub use connectivity::{ConnectedComponents, UnionFind};
pub use error::{GraphError, IdOverflow, SnapshotError};
pub use graph::{Edge, EdgeId, UncertainGraph, VertexId};
pub use io::{EdgeProbabilityModel, InputFormat};
pub use par::Parallelism;
pub use possible_world::{PossibleWorld, WorldSampler};
pub use subgraph::EdgeSubgraph;
pub use triangles::{Triangle, TriangleId, TriangleIndex};
pub use update::{apply_edge_updates, EdgeUpdate, GraphDelta, TouchedEdges, UpdateError};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
