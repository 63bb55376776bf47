//! # detdecomp — deterministic k-(3,4)-nuclei
//!
//! The deterministic k-(3,4)-nucleus (Definition 3 of Esfahani et al.,
//! ICDE 2022) over the structure of an [`ugraph::UncertainGraph`] (edge
//! probabilities are ignored):
//!
//! * [`nucleus::extract_k_nuclei`] groups the 4-cliques whose triangles
//!   all score ≥ k into the maximal k-nuclei ([`NucleusSubgraph`]); the
//!   ℓ-nuclei of `nucleus` are extracted the same way.
//! * [`is_k_nucleus_lenient`] and [`is_k_nucleus`] judge whether a whole
//!   graph is a k-nucleus.  The lenient form is the global indicator the
//!   exhaustive possible-world oracle (`nucleus::exact`) evaluates on
//!   every materialized world, against which the compiled Monte-Carlo
//!   checks of `nucleus::sampling` are tested.
//! * [`reference`](mod@reference) freezes the deterministic core, truss
//!   and (3,4)-nucleus peels.  The numbers themselves come from
//!   `nucleus::Decomposition` at threshold 1.0 on the certain view of a
//!   graph (`PossibleWorld::full(&g).materialize(&g)`, every edge at
//!   p = 1), where every probabilistic score is the alive-cell count; the
//!   differential tests pin that to these peels.
//!
//! Conventions: throughout this workspace the *support form* of the
//! definitions is used — a k-core requires degree ≥ k, a k-truss requires
//! every edge to be in ≥ k triangles, and a k-(3,4)-nucleus requires every
//! triangle to be in ≥ k 4-cliques (Definition 3 of the paper).

pub mod nucleus;
// The frozen file's doc comment still links the engine wrappers its peels
// were copied from; the wrappers are gone and the file stays byte for byte.
#[allow(rustdoc::broken_intra_doc_links)]
pub mod reference;

pub use nucleus::{is_k_nucleus, is_k_nucleus_lenient, NucleusSubgraph};
