//! # detdecomp — deterministic dense-subgraph decompositions
//!
//! Deterministic k-core, k-truss and k-(3,4)-nucleus decompositions over
//! the structure of an [`ugraph::UncertainGraph`] (edge probabilities are
//! ignored).  These serve two roles in the reproduction of Esfahani et al.
//! (ICDE 2022):
//!
//! 1. They are the **definitional reference** for the per-world checks of
//!    the probabilistic global and weakly-global algorithms (Algorithms 2
//!    and 3).  The Monte-Carlo estimators judge each sampled world on a
//!    compiled candidate (`nucleus::sampling`), not on a materialized
//!    graph; [`is_k_nucleus_lenient`] and [`NucleusDecomposition`] judge
//!    the materialized worlds of the exhaustive possible-world oracle
//!    (`nucleus::exact`), against which those compiled checks are tested.
//! 2. They are the deterministic **baselines** that the probabilistic
//!    notions generalize: `k-(1,2)`-nucleus is the k-core and
//!    `k-(2,3)`-nucleus is the k-truss, which the integration tests verify
//!    against the dedicated implementations in [`core_decomp`] and
//!    [`truss`].
//!
//! Conventions: throughout this workspace the *support form* of the
//! definitions is used — a k-core requires degree ≥ k, a k-truss requires
//! every edge to be in ≥ k triangles, and a k-(3,4)-nucleus requires every
//! triangle to be in ≥ k 4-cliques (Definition 3 of the paper).

pub mod core_decomp;
pub mod nucleus;
pub mod reference;
pub mod truss;

pub use core_decomp::CoreDecomposition;
pub use nucleus::{is_k_nucleus, is_k_nucleus_lenient, NucleusDecomposition, NucleusSubgraph};
pub use truss::TrussDecomposition;
