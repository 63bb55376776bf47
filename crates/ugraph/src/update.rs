//! Edge updates against a built [`UncertainGraph`].
//!
//! [`UncertainGraph`] is a frozen CSR — cheap to query, impossible to
//! mutate in place.  This module is the bridge to the streaming scenario:
//! a batch of [`EdgeUpdate`]s is validated as a whole (typed
//! [`UpdateError`]s, no partial application), applied to produce a fresh
//! graph, and described by a [`GraphDelta`] that downstream support
//! structures consume to repair themselves incrementally instead of
//! rebuilding.
//!
//! Semantics:
//!
//! * The vertex set is fixed: endpoints must be `< num_vertices`
//!   ([`UpdateError::OffGraphEndpoint`] otherwise).  Growing the vertex
//!   set is a re-ingest, not an update.
//! * Updates apply **sequentially** within the batch: inserting an edge
//!   deleted earlier in the same batch is legal (and nets out to a
//!   re-weight or a no-op), inserting an edge that currently exists is
//!   [`UpdateError::EdgeExists`], deleting or re-weighting a missing one
//!   is [`UpdateError::EdgeMissing`].
//! * The batch is atomic: the first invalid update aborts the whole
//!   application with its index, and nothing changes.
//!
//! The [`GraphDelta`] reports *net* effects — an insert-then-delete of
//! the same edge inside one batch is invisible to consumers — because the
//! repair paths only care about how the final edge set differs from the
//! original one.

use std::collections::BTreeMap;
use std::fmt;

use crate::graph::{Edge, EdgeId, UncertainGraph, VertexId};

/// One edge mutation.  Endpoints are unordered (`{u, v}`); probabilities
/// obey the same `(0, 1]` contract as [`GraphBuilder::add_edge`](crate::GraphBuilder::add_edge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate {
    /// Add the edge `{u, v}` with existence probability `p`.
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Existence probability, in `(0, 1]`.
        p: f64,
    },
    /// Remove the edge `{u, v}`.
    Delete {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Change the existence probability of the edge `{u, v}` to `p`.
    Reweight {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// New existence probability, in `(0, 1]`.
        p: f64,
    },
}

impl EdgeUpdate {
    /// The endpoints as a canonical `(min, max)` pair.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        let (u, v) = match *self {
            EdgeUpdate::Insert { u, v, .. }
            | EdgeUpdate::Delete { u, v }
            | EdgeUpdate::Reweight { u, v, .. } => (u, v),
        };
        (u.min(v), u.max(v))
    }

    /// Lower-case operation name (`insert`, `delete`, `reweight`), as
    /// spelled on the wire and in bench reports.
    pub fn op(&self) -> &'static str {
        match self {
            EdgeUpdate::Insert { .. } => "insert",
            EdgeUpdate::Delete { .. } => "delete",
            EdgeUpdate::Reweight { .. } => "reweight",
        }
    }
}

/// Why a batch of [`EdgeUpdate`]s was rejected.  Every variant carries
/// the index of the offending update within the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateError {
    /// An endpoint is not a vertex of the graph (the vertex set is
    /// fixed under updates).
    OffGraphEndpoint {
        /// Position of the offending update within the batch.
        index: usize,
        /// The out-of-range endpoint.
        vertex: VertexId,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// Both endpoints are the same vertex.
    SelfLoop {
        /// Position of the offending update within the batch.
        index: usize,
        /// The repeated endpoint.
        vertex: VertexId,
    },
    /// The probability is NaN or outside `(0, 1]`.
    InvalidProbability {
        /// Position of the offending update within the batch.
        index: usize,
        /// Canonical endpoints of the edge.
        edge: (VertexId, VertexId),
        /// The rejected probability.
        p: f64,
    },
    /// An insert names an edge that exists at this point of the batch.
    EdgeExists {
        /// Position of the offending update within the batch.
        index: usize,
        /// Canonical endpoints of the edge.
        edge: (VertexId, VertexId),
    },
    /// A delete or re-weight names an edge that does not exist at this
    /// point of the batch.
    EdgeMissing {
        /// Position of the offending update within the batch.
        index: usize,
        /// Canonical endpoints of the edge.
        edge: (VertexId, VertexId),
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::OffGraphEndpoint {
                index,
                vertex,
                num_vertices,
            } => write!(
                f,
                "update {index}: endpoint {vertex} is off the graph \
                 (vertex set is fixed at {num_vertices} vertices)"
            ),
            UpdateError::SelfLoop { index, vertex } => {
                write!(f, "update {index}: self-loop at vertex {vertex}")
            }
            UpdateError::InvalidProbability { index, edge, p } => write!(
                f,
                "update {index}: probability {p} for edge ({}, {}) is outside (0, 1]",
                edge.0, edge.1
            ),
            UpdateError::EdgeExists { index, edge } => write!(
                f,
                "update {index}: edge ({}, {}) already exists",
                edge.0, edge.1
            ),
            UpdateError::EdgeMissing { index, edge } => write!(
                f,
                "update {index}: edge ({}, {}) does not exist",
                edge.0, edge.1
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The net effect of applying a validated update batch: the new graph
/// plus the edge-id correspondence the support-repair paths consume.
///
/// Edge ids are dense and lexicographic by canonical endpoint pair, so
/// inserting or deleting any edge shifts the ids of every later edge —
/// the maps below translate between the two id spaces.
#[derive(Debug, Clone)]
pub struct GraphDelta {
    /// The updated graph (same vertex set, new edge set).
    pub graph: UncertainGraph,
    /// For every old edge id: its id in the new graph, or `None` when
    /// the edge was (net) removed.  Surviving edges keep their endpoints
    /// but may carry a different probability.
    pub old_to_new: Vec<Option<EdgeId>>,
    /// For every new edge id: its id in the old graph, or `None` when
    /// the edge was (net) inserted.
    pub new_to_old: Vec<Option<EdgeId>>,
    /// Canonical endpoint pairs of the net-inserted edges (present in
    /// the new graph, absent from the old one), sorted lexicographically.
    /// This is exactly the seed set the incremental triangle/4-clique
    /// enumerations expand around.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Number of net-removed edges.
    pub removed: usize,
    /// Number of surviving edges whose probability bits changed.
    pub reweighted: usize,
}

impl GraphDelta {
    /// `true` when the batch netted out to nothing: same edge set, same
    /// probabilities, identical edge ids.
    pub fn is_noop(&self) -> bool {
        self.inserted.is_empty() && self.removed == 0 && self.reweighted == 0
    }
}

/// Validates `updates` against `graph` and applies them, producing the
/// new graph and the net [`GraphDelta`].  The batch is atomic: any
/// invalid update rejects the whole batch with a typed [`UpdateError`]
/// carrying its index.
///
/// The batch is validated against an overlay that holds only the keys it
/// touches; any other key is looked up in `graph`.  One merge of the old
/// edge table with the overlay then yields the new table, both id maps
/// and the net counts.
pub fn apply_edge_updates(
    graph: &UncertainGraph,
    updates: &[EdgeUpdate],
) -> Result<GraphDelta, UpdateError> {
    let n = graph.num_vertices();
    // Each touched key's probability before the batch and after the
    // updates so far (`None` = absent).
    let mut overlay: BTreeMap<(VertexId, VertexId), (Option<f64>, Option<f64>)> = BTreeMap::new();

    for (index, update) in updates.iter().enumerate() {
        let (u, v) = update.endpoints();
        if u == v {
            return Err(UpdateError::SelfLoop { index, vertex: u });
        }
        for vertex in [u, v] {
            if vertex as usize >= n {
                return Err(UpdateError::OffGraphEndpoint {
                    index,
                    vertex,
                    num_vertices: n,
                });
            }
        }
        let (_, now) = overlay.entry((u, v)).or_insert_with(|| {
            let p = graph.edge_probability(u, v);
            (p, p)
        });
        match *update {
            EdgeUpdate::Insert { p, .. } => {
                check_probability(index, (u, v), p)?;
                if now.is_some() {
                    return Err(UpdateError::EdgeExists {
                        index,
                        edge: (u, v),
                    });
                }
                *now = Some(p);
            }
            EdgeUpdate::Delete { .. } => {
                if now.take().is_none() {
                    return Err(UpdateError::EdgeMissing {
                        index,
                        edge: (u, v),
                    });
                }
            }
            EdgeUpdate::Reweight { p, .. } => {
                check_probability(index, (u, v), p)?;
                if now.is_none() {
                    return Err(UpdateError::EdgeMissing {
                        index,
                        edge: (u, v),
                    });
                }
                *now = Some(p);
            }
        }
    }

    // The net counts come first, so the new table has its exact length.
    let removed = overlay
        .values()
        .filter(|(before, after)| before.is_some() && after.is_none())
        .count();
    let inserted: Vec<(VertexId, VertexId)> = overlay
        .iter()
        .filter(|(_, (before, after))| before.is_none() && after.is_some())
        .map(|(&key, _)| key)
        .collect();
    let old_edges = graph.edges();
    let new_len = old_edges.len() - removed + inserted.len();
    let mut edges = Vec::with_capacity(new_len);
    let mut old_to_new = Vec::with_capacity(old_edges.len());
    let mut new_to_old = Vec::with_capacity(new_len);
    let mut reweighted = 0usize;

    // Both the old table and the overlay are sorted by canonical pair.
    // Before each touched key (and after the last), the untouched run of
    // old edges carries over whole.
    let mut oi = 0usize;
    for touched in overlay.iter().map(Some).chain([None]) {
        let end = match touched {
            Some((key, _)) => oi + old_edges[oi..].partition_point(|e| (e.u, e.v) < *key),
            None => old_edges.len(),
        };
        let first = edges.len();
        old_to_new.extend((first..first + end - oi).map(|id| Some(id as EdgeId)));
        new_to_old.extend((oi..end).map(|id| Some(id as EdgeId)));
        edges.extend_from_slice(&old_edges[oi..end]);
        oi = end;
        let Some((&(u, v), &(before, after))) = touched else {
            break;
        };
        match (before, after) {
            (Some(old_p), Some(p)) => {
                if old_p.to_bits() != p.to_bits() {
                    reweighted += 1;
                }
                old_to_new.push(Some(edges.len() as EdgeId));
                new_to_old.push(Some(oi as EdgeId));
                edges.push(Edge { u, v, p });
                oi += 1;
            }
            (Some(_), None) => {
                old_to_new.push(None);
                oi += 1;
            }
            (None, Some(p)) => {
                new_to_old.push(None);
                edges.push(Edge { u, v, p });
            }
            // Inserted, then deleted again within the batch.
            (None, None) => {}
        }
    }
    debug_assert_eq!(edges.len(), new_len);

    Ok(GraphDelta {
        graph: UncertainGraph::from_sorted_edges(n, edges),
        old_to_new,
        new_to_old,
        inserted,
        removed,
        reweighted,
    })
}

/// The `(0, 1]` contract of inserted and re-weighted probabilities.
fn check_probability(index: usize, edge: (VertexId, VertexId), p: f64) -> Result<(), UpdateError> {
    if !(p > 0.0 && p <= 1.0) || p.is_nan() {
        return Err(UpdateError::InvalidProbability { index, edge, p });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> UncertainGraph {
        // Two triangles sharing edge {1, 2}.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(1, 2, 0.7).unwrap();
        b.add_edge(1, 3, 0.6).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn insert_delete_reweight_round_trip() {
        let g = diamond();
        let delta = apply_edge_updates(
            &g,
            &[
                EdgeUpdate::Insert { u: 3, v: 0, p: 0.4 },
                EdgeUpdate::Delete { u: 2, v: 0 },
                EdgeUpdate::Reweight {
                    u: 2,
                    v: 1,
                    p: 0.65,
                },
            ],
        )
        .unwrap();
        assert_eq!(delta.graph.num_vertices(), 4);
        assert_eq!(delta.graph.num_edges(), 5);
        assert_eq!(delta.inserted, vec![(0, 3)]);
        assert_eq!(delta.removed, 1);
        assert_eq!(delta.reweighted, 1);
        assert!(!delta.is_noop());
        assert_eq!(delta.graph.edge_probability(0, 3), Some(0.4));
        assert_eq!(delta.graph.edge_probability(0, 2), None);
        assert_eq!(delta.graph.edge_probability(1, 2), Some(0.65));

        // Id maps invert each other on survivors.
        for (o, slot) in delta.old_to_new.iter().enumerate() {
            if let Some(n) = slot {
                assert_eq!(delta.new_to_old[*n as usize], Some(o as EdgeId));
                let old_e = g.edge(o as EdgeId);
                let new_e = delta.graph.edge(*n);
                assert_eq!((old_e.u, old_e.v), (new_e.u, new_e.v));
            }
        }
        // {0,2} was removed: its old id maps to None.
        let e02 = g.edge_id(0, 2).unwrap();
        assert_eq!(delta.old_to_new[e02 as usize], None);
        // {0,3} is new: its new id maps back to None.
        let e03 = delta.graph.edge_id(0, 3).unwrap();
        assert_eq!(delta.new_to_old[e03 as usize], None);
    }

    #[test]
    fn batch_is_sequential_and_nets_out() {
        let g = diamond();
        // Insert-then-delete of the same (new) edge nets to a no-op;
        // delete-then-insert of an existing edge nets to a re-weight.
        let delta = apply_edge_updates(
            &g,
            &[
                EdgeUpdate::Insert { u: 0, v: 3, p: 0.3 },
                EdgeUpdate::Delete { u: 0, v: 3 },
                EdgeUpdate::Delete { u: 0, v: 1 },
                EdgeUpdate::Insert {
                    u: 1,
                    v: 0,
                    p: 0.45,
                },
            ],
        )
        .unwrap();
        assert!(delta.inserted.is_empty());
        assert_eq!(delta.removed, 0);
        assert_eq!(delta.reweighted, 1);
        assert_eq!(delta.graph.edge_probability(0, 1), Some(0.45));
        assert_eq!(delta.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn empty_batch_is_an_identity_noop() {
        let g = diamond();
        let delta = apply_edge_updates(&g, &[]).unwrap();
        assert!(delta.is_noop());
        assert!(delta.graph.same_structure(&g));
        for (i, slot) in delta.old_to_new.iter().enumerate() {
            assert_eq!(*slot, Some(i as EdgeId));
        }
    }

    #[test]
    fn typed_errors_carry_the_batch_index() {
        let g = diamond();
        let cases: [(Vec<EdgeUpdate>, UpdateError); 6] = [
            (
                vec![EdgeUpdate::Insert { u: 0, v: 9, p: 0.5 }],
                UpdateError::OffGraphEndpoint {
                    index: 0,
                    vertex: 9,
                    num_vertices: 4,
                },
            ),
            (
                vec![
                    EdgeUpdate::Delete { u: 0, v: 1 },
                    EdgeUpdate::Delete { u: 2, v: 2 },
                ],
                UpdateError::SelfLoop {
                    index: 1,
                    vertex: 2,
                },
            ),
            (
                vec![EdgeUpdate::Insert { u: 0, v: 3, p: 0.0 }],
                UpdateError::InvalidProbability {
                    index: 0,
                    edge: (0, 3),
                    p: 0.0,
                },
            ),
            (
                vec![EdgeUpdate::Reweight { u: 0, v: 1, p: 1.5 }],
                UpdateError::InvalidProbability {
                    index: 0,
                    edge: (0, 1),
                    p: 1.5,
                },
            ),
            (
                vec![EdgeUpdate::Insert { u: 1, v: 0, p: 0.5 }],
                UpdateError::EdgeExists {
                    index: 0,
                    edge: (0, 1),
                },
            ),
            (
                vec![
                    EdgeUpdate::Delete { u: 0, v: 1 },
                    EdgeUpdate::Delete { u: 0, v: 1 },
                ],
                UpdateError::EdgeMissing {
                    index: 1,
                    edge: (0, 1),
                },
            ),
        ];
        for (batch, expected) in cases {
            assert_eq!(apply_edge_updates(&g, &batch).unwrap_err(), expected);
            // Atomicity: the rejected batch mutated nothing observable
            // (the source graph is untouched by construction; what
            // matters is that no delta escaped).
        }
        // Duplicate inserts inside one batch: the second one errors.
        let err = apply_edge_updates(
            &g,
            &[
                EdgeUpdate::Insert { u: 0, v: 3, p: 0.5 },
                EdgeUpdate::Insert { u: 3, v: 0, p: 0.6 },
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            UpdateError::EdgeExists {
                index: 1,
                edge: (0, 3),
            }
        );
        // NaN probability is rejected.
        assert!(matches!(
            apply_edge_updates(
                &g,
                &[EdgeUpdate::Insert {
                    u: 0,
                    v: 3,
                    p: f64::NAN
                }]
            ),
            Err(UpdateError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn display_messages_name_the_edge_and_index() {
        let cases: [(UpdateError, &str); 5] = [
            (
                UpdateError::OffGraphEndpoint {
                    index: 3,
                    vertex: 17,
                    num_vertices: 10,
                },
                "endpoint 17",
            ),
            (
                UpdateError::SelfLoop {
                    index: 0,
                    vertex: 2,
                },
                "self-loop",
            ),
            (
                UpdateError::InvalidProbability {
                    index: 1,
                    edge: (2, 5),
                    p: -0.5,
                },
                "outside (0, 1]",
            ),
            (
                UpdateError::EdgeExists {
                    index: 2,
                    edge: (1, 4),
                },
                "already exists",
            ),
            (
                UpdateError::EdgeMissing {
                    index: 4,
                    edge: (0, 9),
                },
                "does not exist",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn update_accessors() {
        let ins = EdgeUpdate::Insert { u: 5, v: 2, p: 0.5 };
        assert_eq!(ins.endpoints(), (2, 5));
        assert_eq!(ins.op(), "insert");
        assert_eq!(EdgeUpdate::Delete { u: 1, v: 2 }.op(), "delete");
        assert_eq!(EdgeUpdate::Reweight { u: 1, v: 2, p: 0.1 }.op(), "reweight");
    }
}
