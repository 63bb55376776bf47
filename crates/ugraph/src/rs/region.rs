//! Bounded re-peel machinery for incremental updates.
//!
//! After an edge-update batch, the repaired support structure differs
//! from the old one only around the touched edges.  Re-running the whole
//! peel would be correct but wasteful; this module computes how far the
//! damage can propagate and restricts the re-peel to that region:
//!
//! 1. A support repair patches the old support around the batch and
//!    returns a [`SupportPatch`]: the new support, the element id map
//!    and the sorted *candidates* — the new elements, the elements whose
//!    own probability changed, and the surviving members of every cell
//!    the batch killed, added or re-weighted.  Every other element keeps
//!    a bitwise identical gather.  [`affected_elements`] tests the
//!    candidates alone (existence-probability bits, cell lists,
//!    completion-probability bits) and returns the set `D` of elements
//!    whose *initial* score could differ.
//! 2. [`component_closure`] expands `D` to the union `R` of its
//!    connected components in the element–cell hypergraph.  Peeling is a
//!    component-local fixpoint: an element's final score depends only on
//!    its component, so components disjoint from `D` are bitwise
//!    unchanged and their old scores carry over.
//! 3. [`RegionSupport`] presents `R` as a dense [`RsSupport`] so the
//!    ordinary [`peel_deferred`](super::peel_deferred) engine re-peels
//!    just the region — same bucket queue, same dirty marking, same
//!    alive counters, same counters discipline.
//!
//! Closing `D` to whole components (rather than, say, a fixed-radius
//! ball) is what makes the carried scores *bit*-identical rather than
//! approximately right: within an untouched component every float the
//! scorer consumes has identical bits, and the peeling fixpoint is
//! schedule-independent for monotone scorers.

use super::RsSupport;

/// A support patched around an update batch, with what the bounded
/// re-peel needs to find its seed set.
#[derive(Debug, Clone)]
pub struct SupportPatch<S> {
    /// The patched support, bit-identical to a fresh build on the
    /// updated graph.
    pub support: S,
    /// For every new element id: its old id, or `None` for elements the
    /// batch created.
    pub new_to_old: Vec<Option<u32>>,
    /// The only elements whose gather can differ from the old support's
    /// (sorted new ids, no repeats): every element outside the list has
    /// an old counterpart with the same probability and a positionally
    /// identical cell list.
    pub candidates: Vec<u32>,
}

/// The `candidates` of `new` whose initial score is not guaranteed to
/// equal their old score — the seed set `D` of the bounded re-peel,
/// sorted ascending.
///
/// `new_to_old[t]` maps a new element id to its old id (`None` for
/// elements with no old counterpart).  A candidate is *clean* (excluded)
/// iff it has an old counterpart with identical existence-probability
/// bits and a positionally identical cell list: same length, and at every
/// position the same cell (member elements map to the old member
/// elements, in order) with identical completion-probability bits.
/// Everything else — new elements, elements that gained or lost a cell,
/// elements touched by a re-weight — is affected.  The elements outside
/// `candidates` must be clean (a [`SupportPatch`] guarantees it), so the
/// result equals the same test over every element.
pub fn affected_elements<S: RsSupport>(
    old: &S,
    new: &S,
    new_to_old: &[Option<u32>],
    candidates: &[u32],
) -> Vec<u32> {
    debug_assert_eq!(new_to_old.len(), new.num_elements());
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    let mut affected = Vec::new();
    'elements: for &t in candidates {
        let Some(ot) = new_to_old[t as usize] else {
            affected.push(t);
            continue;
        };
        if new.element_prob(t).to_bits() != old.element_prob(ot).to_bits() {
            affected.push(t);
            continue;
        }
        let new_cells = new.cells_of(t);
        let old_cells = old.cells_of(ot);
        if new_cells.len() != old_cells.len() {
            affected.push(t);
            continue;
        }
        for (&nc, &oc) in new_cells.iter().zip(old_cells) {
            if new.completion_prob(nc, t).to_bits() != old.completion_prob(oc, ot).to_bits() {
                affected.push(t);
                continue 'elements;
            }
            let new_members = new.cell_elements(nc);
            let old_members = old.cell_elements(oc);
            if new_members.len() != old_members.len() {
                affected.push(t);
                continue 'elements;
            }
            for (&nm, &om) in new_members.iter().zip(old_members) {
                if new_to_old[nm as usize] != Some(om) {
                    affected.push(t);
                    continue 'elements;
                }
            }
        }
    }
    affected
}

/// Expands `seeds` to the union of their connected components in the
/// element–cell hypergraph of `support` (two elements are adjacent when
/// they share a cell).  Returns the component union sorted ascending; it
/// always contains every seed.
pub fn component_closure<S: RsSupport>(support: &S, seeds: &[u32]) -> Vec<u32> {
    let mut element_seen = vec![false; support.num_elements()];
    let mut cell_seen = vec![false; support.num_cells()];
    let mut stack: Vec<u32> = Vec::new();
    for &s in seeds {
        if !element_seen[s as usize] {
            element_seen[s as usize] = true;
            stack.push(s);
        }
    }
    while let Some(t) = stack.pop() {
        for &c in support.cells_of(t) {
            if cell_seen[c as usize] {
                continue;
            }
            cell_seen[c as usize] = true;
            for &other in support.cell_elements(c) {
                if !element_seen[other as usize] {
                    element_seen[other as usize] = true;
                    stack.push(other);
                }
            }
        }
    }
    // Scanning the seen flags writes the region already sorted.
    (0..support.num_elements() as u32)
        .filter(|&t| element_seen[t as usize])
        .collect()
}

/// A component-closed subset of a support, densely re-indexed so the
/// ordinary peeling engine can run on it unchanged.
///
/// `elements` must be sorted, duplicate-free and closed under cell
/// co-membership (i.e. a [`component_closure`] result): every cell of a
/// member element must have all its member elements inside the region.
/// Cell lists keep their base order positionally, so completion
/// probabilities are gathered in exactly the order the full support
/// would gather them — the DP is order-sensitive at the last ulp.
#[derive(Debug)]
pub struct RegionSupport<'a, S> {
    base: &'a S,
    /// Sorted global element ids; local id = position.
    elements: Vec<u32>,
    /// Sorted global cell ids; local id = position.
    cells: Vec<u32>,
    /// Local cell ids per local element, in base `cells_of` order.
    cells_of: Vec<Vec<u32>>,
    /// Local element ids per local cell, in base `cell_elements` order.
    cell_elements: Vec<Vec<u32>>,
}

impl<'a, S: RsSupport> RegionSupport<'a, S> {
    /// Restricts `base` to the component-closed `elements` (sorted
    /// ascending).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the region is not closed: a cell of
    /// a member element has a member outside the region.
    pub fn new(base: &'a S, elements: Vec<u32>) -> Self {
        debug_assert!(elements.windows(2).all(|w| w[0] < w[1]));
        let mut element_local = vec![u32::MAX; base.num_elements()];
        for (i, &g) in elements.iter().enumerate() {
            element_local[g as usize] = i as u32;
        }
        let mut cells: Vec<u32> = elements
            .iter()
            .flat_map(|&g| base.cells_of(g).iter().copied())
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let mut cell_local = vec![u32::MAX; base.num_cells()];
        for (i, &c) in cells.iter().enumerate() {
            cell_local[c as usize] = i as u32;
        }
        let cells_of = elements
            .iter()
            .map(|&g| {
                base.cells_of(g)
                    .iter()
                    .map(|&c| cell_local[c as usize])
                    .collect()
            })
            .collect();
        let cell_elements = cells
            .iter()
            .map(|&c| {
                base.cell_elements(c)
                    .iter()
                    .map(|&t| {
                        let local = element_local[t as usize];
                        debug_assert_ne!(
                            local,
                            u32::MAX,
                            "region is not closed under cell co-membership"
                        );
                        local
                    })
                    .collect()
            })
            .collect();
        RegionSupport {
            base,
            elements,
            cells,
            cells_of,
            cell_elements,
        }
    }

    /// The sorted global element ids of the region; the element at
    /// position `i` has local id `i`.
    pub fn global_elements(&self) -> &[u32] {
        &self.elements
    }
}

impl<S: RsSupport> RsSupport for RegionSupport<'_, S> {
    fn num_elements(&self) -> usize {
        self.elements.len()
    }

    fn num_cells(&self) -> usize {
        self.cells.len()
    }

    fn element_prob(&self, t: u32) -> f64 {
        self.base.element_prob(self.elements[t as usize])
    }

    fn cells_of(&self, t: u32) -> &[u32] {
        &self.cells_of[t as usize]
    }

    fn cell_elements(&self, c: u32) -> &[u32] {
        &self.cell_elements[c as usize]
    }

    fn completion_prob(&self, c: u32, t: u32) -> f64 {
        self.base
            .completion_prob(self.cells[c as usize], self.elements[t as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::super::{peel_deferred, CoreSupport, TailScratch, TrussSupport};
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::par::Parallelism;
    use crate::update::{apply_edge_updates, EdgeUpdate};
    use crate::UncertainGraph;

    /// Two separate components: a triangle {0,1,2} and a path 3–4–5.
    fn two_components() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(1, 2, 0.7).unwrap();
        b.add_edge(3, 4, 0.6).unwrap();
        b.add_edge(4, 5, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn reweight_affects_only_the_touched_component() {
        let g = two_components();
        let old = TrussSupport::build(&g, Parallelism::Sequential);
        let delta = apply_edge_updates(&g, &[EdgeUpdate::Reweight { u: 0, v: 1, p: 0.4 }]).unwrap();
        let patch = old.repair(&g, &delta);
        let new = patch.support;
        let affected = affected_elements(&old, &new, &patch.new_to_old, &patch.candidates);
        // All three triangle edges see changed bits (element prob for
        // {0,1}, completion probs for the others); the path edges are
        // clean.
        let tri_edges: Vec<u32> = [(0, 1), (0, 2), (1, 2)]
            .iter()
            .map(|&(u, v)| delta.graph.edge_id(u, v).unwrap())
            .collect();
        let mut expected = tri_edges.clone();
        expected.sort_unstable();
        assert_eq!(affected, expected);
        // The closure stays inside the triangle component.
        let region = component_closure(&new, &affected);
        assert_eq!(region, expected);
    }

    #[test]
    fn closure_pulls_in_whole_components_and_region_peel_matches_full() {
        // A 4-clique (dense component) plus an isolated triangle.
        let mut b = GraphBuilder::new();
        for &(u, v, p) in &[
            (0u32, 1u32, 0.9),
            (0, 2, 0.8),
            (0, 3, 0.7),
            (1, 2, 0.65),
            (1, 3, 0.6),
            (2, 3, 0.55),
            (4, 5, 0.5),
            (4, 6, 0.45),
            (5, 6, 0.4),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build();
        let support = TrussSupport::build(&g, Parallelism::Sequential);
        let gamma = 0.1;

        // Full-graph run.
        let n = support.num_elements();
        let mut scratch = TailScratch::new();
        let kappa: Vec<u32> = (0..n as u32)
            .map(|t| scratch.score(&support, t, gamma, |_| true))
            .collect();
        let (full_scores, _) = peel_deferred(&support, kappa.clone(), |t, dead| {
            scratch.score(&support, t, gamma, |c| !dead[c as usize])
        });

        // Seed with one clique edge: the closure must grab the whole
        // clique component and nothing of the triangle component.
        let seed = g.edge_id(0, 1).unwrap();
        let region_ids = component_closure(&support, &[seed]);
        assert_eq!(region_ids.len(), 6);
        assert!(region_ids.iter().all(|&e| {
            let edge = g.edge(e);
            edge.u <= 3 && edge.v <= 3
        }));

        // Region re-peel reproduces the full-graph scores on the region.
        let region = RegionSupport::new(&support, region_ids.clone());
        assert_eq!(region.num_elements(), 6);
        let region_kappa: Vec<u32> = region_ids.iter().map(|&g| kappa[g as usize]).collect();
        let mut scratch2 = TailScratch::new();
        let (region_scores, _) = peel_deferred(&region, region_kappa, |t, dead| {
            scratch2.score(&region, t, gamma, |c| !dead[c as usize])
        });
        for (i, &gid) in region_ids.iter().enumerate() {
            assert_eq!(region_scores[i], full_scores[gid as usize]);
        }
        assert_eq!(region.global_elements(), region_ids.as_slice());
    }

    #[test]
    fn core_support_diff_flags_only_changed_vertices() {
        let g = two_components();
        let old = CoreSupport::build(&g);
        let delta = apply_edge_updates(&g, &[EdgeUpdate::Delete { u: 4, v: 5 }]).unwrap();
        let new = CoreSupport::build(&delta.graph);
        // (1,2) elements are vertices: the identity map.  Every vertex
        // is a candidate, so the test runs over all of them.
        let all: Vec<u32> = (0..new.num_elements() as u32).collect();
        let ids: Vec<Option<u32>> = all.iter().copied().map(Some).collect();
        let affected = affected_elements(&old, &new, &ids, &all);
        // Vertices 4 and 5 lost their shared edge; 3 keeps {3,4} but its
        // cell (edge) ids shifted — cell identity is tracked through the
        // member elements, which are unchanged vertices, so 3 is clean.
        assert_eq!(affected, vec![4, 5]);
        // The repair's candidates are the deleted edge's endpoints.
        assert_eq!(CoreSupport::repair(&g, &delta).candidates, affected);
        let region = component_closure(&new, &affected);
        assert_eq!(region, vec![3, 4, 5]);
    }

    #[test]
    fn empty_seed_set_yields_an_empty_region() {
        let g = two_components();
        let support = TrussSupport::build(&g, Parallelism::Sequential);
        assert!(component_closure(&support, &[]).is_empty());
        let region = RegionSupport::new(&support, Vec::new());
        assert_eq!(region.num_elements(), 0);
        assert_eq!(region.num_cells(), 0);
        let (scores, stats) = peel_deferred(&region, Vec::new(), |_, _| 0);
        assert!(scores.is_empty());
        assert_eq!(stats.dp_calls, 0);
    }
}
