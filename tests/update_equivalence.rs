//! Differential test suite for incremental edge-update maintenance.
//!
//! The contract under test: [`DecompSweep::apply_updates`] — validate a
//! batch, repair the support, refresh every grid point through the
//! bounded re-peel — must be **bit-identical** to throwing the sweep
//! away and recomputing from scratch on the updated graph.  Enforced on
//! random graphs with random valid-by-construction batches (mixes of
//! inserts, deletes and reweights, including the empty batch):
//!
//! * at every rank — (1,2) core, (2,3) truss, (3,4) nucleus — with the
//!   exact-DP scorer, at 1, 2 and 8 worker threads: scores, initial
//!   scores and method counts per grid point, plus the repair's own
//!   [`UpdateReport`] and per-point [`PeelStats`] identical across
//!   thread counts (the repair is deterministic, not just its results);
//! * for the hybrid scorer at the nucleus rank (whose points are
//!   recomputed on the repaired support rather than regionally
//!   repaired, but must match a fresh hybrid sweep bit for bit);
//! * through [`DecompHandle::apply_updates`], the resident-service
//!   entry point, whose repaired handle must answer per-threshold
//!   queries identically to a handle built fresh on the updated graph.
//!
//! Adversarial deterministic cases ride along: a batch that deletes
//! every edge, a rejected batch that must leave the sweep untouched,
//! and the empty batch as a true noop.
//!
//! Underneath all of it, [`apply_edge_updates`] itself is checked
//! against a one-update-at-a-time reference over an ordered map, on
//! batches with invalid updates at random positions and with a key
//! deleted and re-inserted (or inserted and deleted) within one batch:
//! the same new graph, id maps and net counts, or the same typed error.
//!
//! Case counts scale with `PROPTEST_CASES` (64 locally, 1024 in the
//! thorough CI job).

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::{
    DecompConfig, DecompHandle, DecompSweep, NucleusError, Rank, RankSupport, SupportRepair,
    SupportStructure, SweepConfig,
};
use prob_nucleus_repro::ugraph::rs::{RsSupport, TailTable};
use prob_nucleus_repro::ugraph::{
    apply_edge_updates, EdgeUpdate, GraphBuilder, Parallelism, UncertainGraph, UpdateError,
};

/// Thread counts every property is exercised at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every rank, lowest first.
const RANKS: [Rank; 3] = [Rank::Core, Rank::Truss, Rank::Nucleus];

/// The grid every sweep maintains across its update.
const GRID: [f64; 3] = [0.15, 0.5, 0.9];

/// A random probabilistic graph dense enough to grow 4-cliques.
fn arb_graph(max_v: u32, density: f64) -> impl Strategy<Value = UncertainGraph> {
    (4..=max_v)
        .prop_flat_map(move |n| {
            let pairs: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            let m = pairs.len();
            (
                Just(pairs),
                proptest::collection::vec(0.0f64..1.0, m),
                proptest::collection::vec(0.01f64..=1.0, m),
            )
        })
        .prop_map(move |(pairs, coin, probs)| {
            let mut b = GraphBuilder::new();
            for (i, (u, v)) in pairs.into_iter().enumerate() {
                if coin[i] < density {
                    b.add_edge(u, v, probs[i]).unwrap();
                }
            }
            b.build()
        })
}

/// A graph plus a valid-by-construction update batch: every existing
/// edge is independently deleted (p≈0.2) or reweighted (p≈0.2), every
/// absent pair independently inserted (p≈0.25).  Each pair appears at
/// most once, so the batch is valid in any order; the empty batch (a
/// noop) occurs naturally.
fn arb_graph_and_batch(
    max_v: u32,
    density: f64,
) -> impl Strategy<Value = (UncertainGraph, Vec<EdgeUpdate>)> {
    arb_graph(max_v, density).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        let present: std::collections::HashSet<(u32, u32)> =
            g.edges().iter().map(|e| (e.u, e.v)).collect();
        let absent: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|p| !present.contains(p))
            .collect();
        let m = g.num_edges();
        let k = absent.len();
        // Nested pairs of triples: the vendored proptest implements
        // Strategy for tuples only up to arity 5.
        (
            (
                Just(g),
                Just(absent),
                proptest::collection::vec(0.0f64..1.0, m.max(1)),
            ),
            (
                proptest::collection::vec(0.01f64..=1.0, m.max(1)),
                proptest::collection::vec(0.0f64..1.0, k.max(1)),
                proptest::collection::vec(0.01f64..=1.0, k.max(1)),
            ),
        )
            .prop_map(|((g, absent, action), (new_p, ins_coin, ins_p))| {
                let mut batch = Vec::new();
                for (i, e) in g.edges().iter().enumerate() {
                    if action[i] < 0.2 {
                        batch.push(EdgeUpdate::Delete { u: e.u, v: e.v });
                    } else if action[i] < 0.4 {
                        batch.push(EdgeUpdate::Reweight {
                            u: e.u,
                            v: e.v,
                            p: new_p[i],
                        });
                    }
                }
                for (j, &(u, v)) in absent.iter().enumerate() {
                    if ins_coin[j] < 0.25 {
                        batch.push(EdgeUpdate::Insert { u, v, p: ins_p[j] });
                    }
                }
                (g, batch)
            })
    })
}

/// Probabilities the rendered batches draw from.
const VALID_P: [f64; 6] = [0.5, 0.25, 0.9, 1.0, 0.125, 0.05];
/// Probabilities outside `(0, 1]`.
const INVALID_P: [f64; 4] = [0.0, -0.5, 1.5, f64::NAN];

/// Renders raw draws into a batch over `g` that is valid update by
/// update: inserts of absent pairs, deletes and re-weights of present
/// ones (sometimes to the same probability), a delete followed by a
/// re-insert of one key, an insert followed by a delete of one key,
/// either orientation.  When `messy`,
/// some draws become an invalid update instead — an off-graph endpoint,
/// a self-loop, an out-of-range probability, an insert of a present key
/// or a delete of an absent one — wherever they land in the batch.
fn render_batch(g: &UncertainGraph, raw: &[(u32, u32, u32, u32)], messy: bool) -> Vec<EdgeUpdate> {
    let n = g.num_vertices() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let mut present: std::collections::BTreeSet<(u32, u32)> =
        g.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut batch = Vec::new();
    for &(kind, a, b, c) in raw {
        let p = VALID_P[c as usize % VALID_P.len()];
        let start = (a * 10 + b) as usize;
        let orient = |(u, v): (u32, u32)| if a % 2 == 0 { (u, v) } else { (v, u) };
        let existing = (!present.is_empty())
            .then(|| orient(*present.iter().nth(start % present.len()).unwrap()));
        let absent = (0..pairs.len())
            .map(|i| pairs[(start + i) % pairs.len()])
            .find(|pair| !present.contains(pair))
            .map(orient);
        if messy && kind >= 10 {
            // An edgeless graph has no vertices: vertex 0 is off it too.
            let vertex = a % n.max(1);
            let update = match (c % 5, existing, absent) {
                (0, _, _) => EdgeUpdate::Insert {
                    u: vertex,
                    v: n + b,
                    p,
                },
                (1, _, _) => EdgeUpdate::Delete {
                    u: vertex,
                    v: vertex,
                },
                (2, Some((u, v)), _) => EdgeUpdate::Reweight {
                    u,
                    v,
                    p: INVALID_P[b as usize % INVALID_P.len()],
                },
                (3, Some((u, v)), _) => EdgeUpdate::Insert { u, v, p },
                (_, _, Some((u, v))) => EdgeUpdate::Delete { u, v },
                _ => continue,
            };
            batch.push(update);
            continue;
        }
        let canonical = |(u, v): (u32, u32)| (u.min(v), u.max(v));
        // Now and then a present edge keeps its old probability, which
        // does not count as a re-weight.
        let keep_or = |u: u32, v: u32, p: f64| match g.edge_probability(u, v) {
            Some(old) if c == 0 => old,
            _ => p,
        };
        match (kind % 5, existing, absent) {
            (0, _, Some((u, v))) => {
                batch.push(EdgeUpdate::Insert { u, v, p });
                present.insert(canonical((u, v)));
            }
            (1, Some((u, v)), _) => {
                batch.push(EdgeUpdate::Delete { u, v });
                present.remove(&canonical((u, v)));
            }
            (2, Some((u, v)), _) => batch.push(EdgeUpdate::Reweight {
                u,
                v,
                p: keep_or(u, v, p),
            }),
            (3, Some((u, v)), _) => {
                batch.push(EdgeUpdate::Delete { u, v });
                batch.push(EdgeUpdate::Insert {
                    u,
                    v,
                    p: keep_or(u, v, p),
                });
            }
            (4, _, Some((u, v))) => {
                batch.push(EdgeUpdate::Insert { u, v, p });
                batch.push(EdgeUpdate::Delete { u, v });
            }
            _ => {}
        }
    }
    batch
}

/// A small graph plus a rendered batch.
fn arb_graph_and_messy_batch() -> impl Strategy<Value = (UncertainGraph, Vec<EdgeUpdate>)> {
    arb_graph(8, 0.5)
        .prop_flat_map(|g| {
            (
                Just(g),
                proptest::collection::vec((0u32..12, 0u32..10, 0u32..10, 0u32..8), 0..12),
                0u32..2,
            )
        })
        .prop_map(|(g, raw, messy)| {
            let batch = render_batch(&g, &raw, messy == 1);
            (g, batch)
        })
}

/// What a batch must produce, computed the slow way.
#[derive(Debug, PartialEq)]
struct ExpectedDelta {
    /// `(u, v, probability bits)` of the new edge table.
    table: Vec<(u32, u32, u64)>,
    old_to_new: Vec<Option<u32>>,
    new_to_old: Vec<Option<u32>>,
    inserted: Vec<(u32, u32)>,
    removed: usize,
    reweighted: usize,
}

/// Applies `batch` one update at a time over an ordered map of every
/// edge, with the checks in the documented order.
fn reference_apply(g: &UncertainGraph, batch: &[EdgeUpdate]) -> Result<ExpectedDelta, UpdateError> {
    use std::collections::BTreeMap;

    let n = g.num_vertices();
    let old: BTreeMap<(u32, u32), f64> = g.edges().iter().map(|e| ((e.u, e.v), e.p)).collect();
    let mut edges = old.clone();
    for (index, update) in batch.iter().enumerate() {
        let (u, v) = update.endpoints();
        if u == v {
            return Err(UpdateError::SelfLoop { index, vertex: u });
        }
        if let Some(vertex) = [u, v].into_iter().find(|&x| x as usize >= n) {
            return Err(UpdateError::OffGraphEndpoint {
                index,
                vertex,
                num_vertices: n,
            });
        }
        let invalid = |p: f64| !(p > 0.0 && p <= 1.0) || p.is_nan();
        match *update {
            EdgeUpdate::Insert { p, .. } | EdgeUpdate::Reweight { p, .. } if invalid(p) => {
                return Err(UpdateError::InvalidProbability {
                    index,
                    edge: (u, v),
                    p,
                });
            }
            EdgeUpdate::Insert { p, .. } => {
                if edges.insert((u, v), p).is_some() {
                    return Err(UpdateError::EdgeExists {
                        index,
                        edge: (u, v),
                    });
                }
            }
            EdgeUpdate::Delete { .. } => {
                if edges.remove(&(u, v)).is_none() {
                    return Err(UpdateError::EdgeMissing {
                        index,
                        edge: (u, v),
                    });
                }
            }
            EdgeUpdate::Reweight { p, .. } => match edges.get_mut(&(u, v)) {
                Some(slot) => *slot = p,
                None => {
                    return Err(UpdateError::EdgeMissing {
                        index,
                        edge: (u, v),
                    })
                }
            },
        }
    }
    let new_ids: BTreeMap<(u32, u32), u32> = edges
        .keys()
        .enumerate()
        .map(|(id, &k)| (k, id as u32))
        .collect();
    let old_ids: BTreeMap<(u32, u32), u32> = old
        .keys()
        .enumerate()
        .map(|(id, &k)| (k, id as u32))
        .collect();
    Ok(ExpectedDelta {
        table: edges
            .iter()
            .map(|(&(u, v), p)| (u, v, p.to_bits()))
            .collect(),
        old_to_new: old.keys().map(|k| new_ids.get(k).copied()).collect(),
        new_to_old: edges.keys().map(|k| old_ids.get(k).copied()).collect(),
        inserted: edges
            .keys()
            .filter(|k| !old.contains_key(k))
            .copied()
            .collect(),
        removed: old.keys().filter(|k| !edges.contains_key(k)).count(),
        reweighted: edges
            .iter()
            .filter(|(k, p)| old.get(k).is_some_and(|q| q.to_bits() != p.to_bits()))
            .count(),
    })
}

/// An update error as a comparable string; probabilities compare by
/// their bits (NaN never equals itself).
fn update_error_key(error: &UpdateError) -> String {
    match error {
        UpdateError::InvalidProbability { index, edge, p } => {
            format!("InvalidProbability {index} {edge:?} {:#x}", p.to_bits())
        }
        other => format!("{other:?}"),
    }
}

/// Each adjacency run of `graph` is the one rebuilt independently from
/// its own edge table.
fn assert_adjacency_follows_the_table(graph: &UncertainGraph) {
    let mut runs: Vec<Vec<(u32, u64, u32)>> = vec![Vec::new(); graph.num_vertices()];
    for (id, e) in graph.edges().iter().enumerate() {
        runs[e.u as usize].push((e.v, e.p.to_bits(), id as u32));
        runs[e.v as usize].push((e.u, e.p.to_bits(), id as u32));
    }
    for (w, run) in runs.iter_mut().enumerate() {
        run.sort_unstable();
        let got: Vec<(u32, u64, u32)> = graph
            .neighbor_entries(w as u32)
            .map(|(x, p, id)| (x, p.to_bits(), id))
            .collect();
        assert_eq!(&got, run, "adjacency of vertex {w}");
    }
}

/// The elements of `new` whose initial score is not guaranteed to equal
/// their old score, found by testing every element: the seed set a
/// repair's candidates must reproduce.  An element is clean iff it has
/// an old counterpart with identical existence-probability bits and a
/// positionally identical cell list (same cells, members mapping to the
/// old members in order, identical completion-probability bits).
fn full_diff<S: RsSupport>(old: &S, new: &S, new_to_old: &[Option<u32>]) -> Vec<u32> {
    (0..new.num_elements() as u32)
        .filter(|&t| {
            let Some(ot) = new_to_old[t as usize] else {
                return true;
            };
            let (new_cells, old_cells) = (new.cells_of(t), old.cells_of(ot));
            new.element_prob(t).to_bits() != old.element_prob(ot).to_bits()
                || new_cells.len() != old_cells.len()
                || new_cells.iter().zip(old_cells).any(|(&nc, &oc)| {
                    let members = new
                        .cell_elements(nc)
                        .iter()
                        .map(|&m| new_to_old[m as usize]);
                    new.completion_prob(nc, t).to_bits() != old.completion_prob(oc, ot).to_bits()
                        || !members.eq(old.cell_elements(oc).iter().map(|&m| Some(m)))
                })
        })
        .collect()
}

/// For every element of the sorted `new` list, its position in the
/// sorted `old` list, or `None` when it is not there.
fn merge_ids<T: Ord>(old: &[T], new: &[T]) -> Vec<Option<u32>> {
    let mut i = 0;
    new.iter()
        .map(|t| {
            while old.get(i).is_some_and(|o| o < t) {
                i += 1;
            }
            (old.get(i) == Some(t)).then_some(i as u32)
        })
        .collect()
}

/// The old support of `rank` on `g` and its repair after `batch`, or
/// `None` when the batch is rejected.
fn repaired(
    g: &UncertainGraph,
    batch: &[EdgeUpdate],
    rank: Rank,
) -> Option<(RankSupport, SupportRepair)> {
    let delta = apply_edge_updates(g, batch).ok()?;
    let old = RankSupport::build(g, rank, Parallelism::Sequential);
    let repair = old.repair(g, &delta);
    Some((old, repair))
}

/// Two graphs with a batch each: a valid batch drawn edge by edge, and a
/// rendered one with deletes followed by re-inserts, inserts followed by
/// deletes and re-weights to the same bits (possibly rejected as a
/// whole).
fn arb_both_batches() -> impl Strategy<Value = [(UncertainGraph, Vec<EdgeUpdate>); 2]> {
    (arb_graph_and_batch(9, 0.7), arb_graph_and_messy_batch())
        .prop_map(|(valid, messy)| [valid, messy])
}

/// Every row, as bits, of the table carried over from `old`'s table to
/// `new` and of the table built fresh on `new`.
fn carried_and_fresh_rows<S: RsSupport + Sync>(
    old: &S,
    new: &S,
    repair: &SupportRepair,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let carried = TailTable::build(old, Parallelism::Sequential).repair(
        new,
        &repair.new_to_old,
        &repair.affected,
    );
    let fresh = TailTable::build(new, Parallelism::Sequential);
    let bits = |table: &TailTable| {
        (0..new.num_elements() as u32)
            .map(|t| table.row(t).iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    (bits(&carried), bits(&fresh))
}

/// The differential check at one rank: apply the batch incrementally at
/// every thread count, recompute from scratch on the updated graph, and
/// demand bit-identity of every observable — plus determinism of the
/// repair's own counters across thread counts.
fn assert_update_matches_recompute(
    g: &UncertainGraph,
    batch: &[EdgeUpdate],
    config_for: impl Fn(Vec<f64>) -> SweepConfig,
) {
    let base = config_for(GRID.to_vec());
    let mut reference: Option<(prob_nucleus_repro::nucleus::UpdateReport, Vec<_>)> = None;
    for threads in THREAD_COUNTS {
        let config = base.clone().with_parallelism(Parallelism::fixed(threads));
        let mut sweep = DecompSweep::compute(g, &config).expect("valid sweep config");
        let outcome = sweep.apply_updates(g, batch).expect("batch is valid");

        // The from-scratch oracle runs sequentially; fresh results are
        // thread-count-independent anyway (tests/parallel_equivalence.rs).
        let fresh = DecompSweep::compute(
            &outcome.graph,
            &base.clone().with_parallelism(Parallelism::Sequential),
        )
        .expect("valid sweep config");
        prop_assert_eq!(sweep.num_elements(), fresh.num_elements());
        for (gi, theta) in GRID.iter().enumerate() {
            prop_assert_eq!(
                sweep.scores_at_index(gi),
                fresh.scores_at_index(gi),
                "scores at threshold {} diverged from the rebuild ({} threads, batch {:?})",
                theta,
                threads,
                batch
            );
            prop_assert_eq!(
                sweep.initial_scores_at_index(gi),
                fresh.initial_scores_at_index(gi),
                "initial scores at threshold {} diverged ({} threads)",
                theta,
                threads
            );
            prop_assert_eq!(
                sweep.method_counts_at_index(gi),
                fresh.method_counts_at_index(gi)
            );
        }

        // The repair itself is deterministic: identical counters and
        // per-point peel stats at every thread count.
        let stats = sweep.peel_stats();
        match &reference {
            None => reference = Some((outcome.report, stats)),
            Some((report, ref_stats)) => {
                prop_assert_eq!(report, &outcome.report, "UpdateReport varies with threads");
                prop_assert_eq!(ref_stats, &stats, "repair PeelStats vary with threads");
            }
        }
    }
}

proptest! {
    // 64 cases by default, scaled up via PROPTEST_CASES in CI's thorough
    // job.
    #![proptest_config(ProptestConfig::default())]

    /// Exact-DP incremental updates are bit-identical to a from-scratch
    /// sweep at the core rank, for every thread count.
    #[test]
    fn dp_core_update_bit_identical_to_recompute(
        case in arb_graph_and_batch(10, 0.6),
    ) {
        let (g, batch) = case;
        assert_update_matches_recompute(&g, &batch, |thetas| {
            SweepConfig::exact(thetas).with_rank(Rank::Core)
        });
    }

    /// Same contract at the truss rank (elements are edges: the batch
    /// creates and destroys elements, exercising the id remap).
    #[test]
    fn dp_truss_update_bit_identical_to_recompute(
        case in arb_graph_and_batch(10, 0.65),
    ) {
        let (g, batch) = case;
        assert_update_matches_recompute(&g, &batch, |thetas| {
            SweepConfig::exact(thetas).with_rank(Rank::Truss)
        });
    }

    /// Same contract at the nucleus rank (elements are triangles, cells
    /// are 4-cliques — the deepest structural repair).
    #[test]
    fn dp_nucleus_update_bit_identical_to_recompute(
        case in arb_graph_and_batch(9, 0.75),
    ) {
        let (g, batch) = case;
        assert_update_matches_recompute(&g, &batch, |thetas| {
            SweepConfig::exact(thetas).with_rank(Rank::Nucleus)
        });
    }

    /// Hybrid-scorer sweeps recompute their points on the repaired
    /// support; the result must still match a fresh hybrid sweep on the
    /// updated graph bit for bit.
    #[test]
    fn hybrid_nucleus_update_bit_identical_to_recompute(
        case in arb_graph_and_batch(8, 0.8),
    ) {
        let (g, batch) = case;
        let mut sweep = DecompSweep::compute(&g, &SweepConfig::approximate(GRID.to_vec()))
            .expect("valid sweep config");
        let outcome = sweep.apply_updates(&g, &batch).expect("batch is valid");
        prop_assert_eq!(outcome.report.repaired_points, 0);
        prop_assert_eq!(outcome.report.recomputed_points, GRID.len());
        let fresh = DecompSweep::compute(&outcome.graph, &SweepConfig::approximate(GRID.to_vec()))
            .expect("valid sweep config");
        for gi in 0..GRID.len() {
            prop_assert_eq!(sweep.scores_at_index(gi), fresh.scores_at_index(gi));
            prop_assert_eq!(
                sweep.initial_scores_at_index(gi),
                fresh.initial_scores_at_index(gi)
            );
            prop_assert_eq!(
                sweep.method_counts_at_index(gi),
                fresh.method_counts_at_index(gi)
            );
        }
    }

    /// The resident-service entry point: a handle repaired by
    /// [`DecompHandle::apply_updates`] answers per-threshold queries
    /// identically to a handle built fresh on the updated graph.  The old
    /// handle computes a point first, so its tail table is built and the
    /// repaired handle starts with it carried over.
    #[test]
    fn handle_update_answers_like_a_fresh_handle(
        case in arb_graph_and_batch(10, 0.65),
    ) {
        let (g, batch) = case;
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let handle = DecompHandle::build(&g, rank, Parallelism::Sequential);
            let config = DecompConfig {
                rank,
                ..DecompConfig::core(GRID[0])
            };
            handle.compute_at(&config).expect("valid config");
            let updated = handle
                .apply_updates(&g, &batch)
                .expect("batch is valid");
            let fresh = DecompHandle::build(&updated.graph, rank, Parallelism::Sequential);
            prop_assert_eq!(updated.handle.num_elements(), fresh.num_elements());
            for &theta in &GRID {
                let config = DecompConfig {
                    rank,
                    ..DecompConfig::core(theta)
                };
                let a = updated.handle.compute_at(&config).expect("valid config");
                let b = fresh.compute_at(&config).expect("valid config");
                prop_assert_eq!(
                    a.scores(),
                    b.scores(),
                    "{} handle diverged at threshold {}",
                    rank,
                    theta
                );
                prop_assert_eq!(a.initial_scores(), b.initial_scores());
            }
        }
    }

    /// The affected set a repair finds among its candidates — the
    /// elements within one cell of a touched edge — equals the test over
    /// every element, at every rank.  At the nucleus rank, the element
    /// map the triangle merge yields equals a linear merge of the two
    /// triangle arrays.
    #[test]
    fn patched_affected_set_equals_the_full_diff(cases in arb_both_batches()) {
        for ((g, batch), rank) in cases.iter().flat_map(|case| RANKS.map(|rank| (case, rank))) {
            let Some((old, repair)) = repaired(g, batch, rank) else {
                continue;
            };
            let ids = &repair.new_to_old;
            let want = match (&old, &repair.support) {
                (RankSupport::Core(o), RankSupport::Core(n)) => full_diff(o, n, ids),
                (RankSupport::Truss(o), RankSupport::Truss(n)) => full_diff(o, n, ids),
                (RankSupport::Nucleus(o), RankSupport::Nucleus(n)) => {
                    let triangles = |s: &SupportStructure| s.triangle_index().triangles().to_vec();
                    let merged = merge_ids(&triangles(o), &triangles(n));
                    prop_assert_eq!(ids, &merged, "batch {:?}", batch);
                    full_diff(o, n, ids)
                }
                _ => unreachable!("a repair keeps its rank"),
            };
            prop_assert_eq!(&repair.affected, &want, "{} batch {:?}", rank, batch);
        }
    }

    /// A tail table carried over a repair equals the table built fresh
    /// on the repaired support, row for row and bit for bit.
    #[test]
    fn patched_tail_table_equals_a_fresh_build(cases in arb_both_batches()) {
        for ((g, batch), rank) in cases.iter().flat_map(|case| RANKS.map(|rank| (case, rank))) {
            let Some((old, repair)) = repaired(g, batch, rank) else {
                continue;
            };
            let (carried, fresh) = match (&old, &repair.support) {
                (RankSupport::Core(o), RankSupport::Core(n)) => carried_and_fresh_rows(o, n, &repair),
                (RankSupport::Truss(o), RankSupport::Truss(n)) => {
                    carried_and_fresh_rows(o, n, &repair)
                }
                (RankSupport::Nucleus(o), RankSupport::Nucleus(n)) => {
                    carried_and_fresh_rows(o, n, &repair)
                }
                _ => unreachable!("a repair keeps its rank"),
            };
            prop_assert_eq!(carried, fresh, "{} batch {:?}", rank, batch);
        }
    }

    /// `apply_edge_updates` matches the sequential reference: the same
    /// new table and adjacency, id maps and net counts, or the same typed
    /// error.
    #[test]
    fn apply_edge_updates_matches_a_sequential_reference(
        case in arb_graph_and_messy_batch(),
    ) {
        let (g, batch) = case;
        match (apply_edge_updates(&g, &batch), reference_apply(&g, &batch)) {
            (Ok(delta), Ok(want)) => {
                prop_assert_eq!(delta.graph.num_vertices(), g.num_vertices());
                let got = ExpectedDelta {
                    table: delta
                        .graph
                        .edges()
                        .iter()
                        .map(|e| (e.u, e.v, e.p.to_bits()))
                        .collect(),
                    old_to_new: delta.old_to_new.clone(),
                    new_to_old: delta.new_to_old.clone(),
                    inserted: delta.inserted.clone(),
                    removed: delta.removed,
                    reweighted: delta.reweighted,
                };
                prop_assert_eq!(got, want, "batch {:?}", batch);
                assert_adjacency_follows_the_table(&delta.graph);
            }
            (Err(got), Err(want)) => prop_assert_eq!(
                update_error_key(&got),
                update_error_key(&want),
                "batch {:?}",
                batch
            ),
            (got, want) => prop_assert!(
                false,
                "batch {batch:?}: got {:?}, want {want:?}",
                got.map(|delta| delta.graph.num_edges())
            ),
        }
    }

    /// A rejected batch must leave the sweep untouched — same scores,
    /// same grid, usable for further updates.
    #[test]
    fn rejected_batches_leave_the_sweep_untouched(
        case in arb_graph_and_batch(9, 0.65),
    ) {
        let (g, mut batch) = case;
        // Poison the tail of an otherwise valid batch.
        batch.push(EdgeUpdate::Delete { u: 0, v: 999 });
        let config = SweepConfig::exact(GRID.to_vec()).with_rank(Rank::Truss);
        let mut sweep = DecompSweep::compute(&g, &config).expect("valid sweep config");
        let before: Vec<Vec<u32>> = (0..GRID.len())
            .map(|gi| sweep.scores_at_index(gi).to_vec())
            .collect();
        match sweep.apply_updates(&g, &batch) {
            Err(NucleusError::Update(UpdateError::OffGraphEndpoint { vertex: 999, .. })) => {}
            other => prop_assert!(false, "expected OffGraphEndpoint, got {:?}", other.err()),
        }
        for (gi, old) in before.iter().enumerate() {
            prop_assert_eq!(sweep.scores_at_index(gi), &old[..]);
        }
        // Still fully functional: the valid prefix applies cleanly.
        batch.pop();
        let outcome = sweep.apply_updates(&g, &batch).expect("valid prefix applies");
        let fresh = DecompSweep::compute(&outcome.graph, &config).expect("valid sweep config");
        for gi in 0..GRID.len() {
            prop_assert_eq!(sweep.scores_at_index(gi), fresh.scores_at_index(gi));
        }
    }
}

/// Builds the deterministic 6-clique fixture the adversarial cases use.
fn clique(n: u32, p: f64) -> UncertainGraph {
    let mut b = GraphBuilder::new();
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build()
}

#[test]
fn deleting_every_edge_empties_every_rank() {
    let g = clique(6, 0.8);
    let batch: Vec<EdgeUpdate> = g
        .edges()
        .iter()
        .map(|e| EdgeUpdate::Delete { u: e.u, v: e.v })
        .collect();
    for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
        let config = SweepConfig::exact(GRID.to_vec()).with_rank(rank);
        let mut sweep = DecompSweep::compute(&g, &config).expect("valid sweep config");
        let outcome = sweep
            .apply_updates(&g, &batch)
            .expect("full deletion is valid");
        assert_eq!(outcome.graph.num_edges(), 0);
        assert_eq!(outcome.report.removed_edges, 15);
        let fresh = DecompSweep::compute(&outcome.graph, &config).expect("valid sweep config");
        assert_eq!(sweep.num_elements(), fresh.num_elements(), "{rank}");
        for gi in 0..GRID.len() {
            assert_eq!(
                sweep.scores_at_index(gi),
                fresh.scores_at_index(gi),
                "{rank}"
            );
        }
        // Core elements survive (vertices are fixed) with score 0; the
        // edge and triangle ranks lose every element.
        match rank {
            Rank::Core => {
                assert_eq!(sweep.num_elements(), 6);
                assert!(sweep.scores_at_index(0).iter().all(|&s| s == 0));
            }
            _ => assert_eq!(sweep.num_elements(), 0),
        }
    }
}

#[test]
fn empty_batch_is_a_true_noop() {
    let g = clique(5, 0.7);
    let config = SweepConfig::exact(GRID.to_vec()).with_rank(Rank::Nucleus);
    let mut sweep = DecompSweep::compute(&g, &config).expect("valid sweep config");
    let before: Vec<Vec<u32>> = (0..GRID.len())
        .map(|gi| sweep.scores_at_index(gi).to_vec())
        .collect();
    let outcome = sweep.apply_updates(&g, &[]).expect("empty batch is valid");
    assert_eq!(outcome.report.inserted_edges, 0);
    assert_eq!(outcome.report.removed_edges, 0);
    assert_eq!(outcome.report.reweighted_edges, 0);
    assert_eq!(outcome.report.affected_elements, 0);
    assert_eq!(outcome.report.region_elements, 0);
    assert_eq!(outcome.graph.num_edges(), 5 * 4 / 2);
    for (gi, old) in before.iter().enumerate() {
        assert_eq!(sweep.scores_at_index(gi), &old[..]);
    }
}

#[test]
fn conflicting_batches_are_rejected_atomically() {
    let g = clique(5, 0.7);
    let config = SweepConfig::exact(GRID.to_vec()).with_rank(Rank::Truss);
    let mut sweep = DecompSweep::compute(&g, &config).expect("valid sweep config");
    let before = sweep.scores_at_index(0).to_vec();
    // Double delete of the same edge: the second one hits a missing edge.
    let batch = [
        EdgeUpdate::Delete { u: 0, v: 1 },
        EdgeUpdate::Delete { u: 0, v: 1 },
    ];
    match sweep.apply_updates(&g, &batch) {
        Err(NucleusError::Update(UpdateError::EdgeMissing { index: 1, .. })) => {}
        other => panic!("expected EdgeMissing at index 1, got {:?}", other.err()),
    }
    // Insert of an edge that already exists.
    let batch = [EdgeUpdate::Insert { u: 0, v: 1, p: 0.5 }];
    match sweep.apply_updates(&g, &batch) {
        Err(NucleusError::Update(UpdateError::EdgeExists { index: 0, .. })) => {}
        other => panic!("expected EdgeExists at index 0, got {:?}", other.err()),
    }
    assert_eq!(sweep.scores_at_index(0), &before[..]);
}
