//! # nd-datasets — synthetic emulations of the paper's datasets
//!
//! The experiments of the paper run on six real uncertain graphs (Table 1:
//! *krogan, dblp, flickr, pokec, biomine, ljournal-2008*), which are not
//! redistributable with this reproduction.  This crate generates
//! **synthetic stand-ins** that preserve the properties the algorithms are
//! sensitive to:
//!
//! * the *structure class* — protein-interaction networks are small and
//!   locally clustered, co-authorship graphs are unions of many small
//!   cliques, social networks have heavy-tailed degree distributions — and
//! * the *edge-probability model* — Jaccard similarities (flickr),
//!   exponential functions of collaboration counts (dblp), experimental
//!   confidence scores (krogan, biomine), or uniform probabilities
//!   (pokec, ljournal), matching Section 7.1 of the paper.
//!
//! Each dataset is generated at a configurable [`Scale`] so that every
//! experiment finishes on a laptop, and every generator is seeded so the
//! whole evaluation is reproducible bit-for-bit.
//!
//! Real on-disk graphs sit beside the synthetic registry: an
//! [`ExternalDataset`] wraps a file path, input format and
//! edge-probability model (with cached `.ugsnap` snapshot
//! materialization).
//!
//! ```
//! use nd_datasets::{PaperDataset, Scale};
//!
//! let graph = PaperDataset::Krogan.generate(Scale::Tiny, 42);
//! assert!(graph.num_edges() > 100);
//! let stats = nd_datasets::stats::table1_row(PaperDataset::Krogan, &graph);
//! assert_eq!(stats.name, "krogan");
//! ```

pub mod external;
pub mod registry;
pub mod spec;
pub mod stats;

pub use external::ExternalDataset;
pub use registry::PaperDataset;
pub use spec::{DatasetSpec, Scale, StructureModel};
pub use stats::{stats_row, table1_row, Table1Row};
