//! Generic (r,s)-nucleus peeling engine.
//!
//! The (r,s)-nucleus family (Sarıyüce et al.) parameterizes dense-subgraph
//! decompositions by a pair of clique sizes: every r-clique *element* is
//! scored by the s-cliques (*cells*) containing it, and elements are
//! peeled in non-decreasing score order.  The instances this workspace
//! cares about:
//!
//! | rank | element | cell | probabilistic decomposition |
//! |------|---------|------|-----------------------------|
//! | (1,2) | vertex | edge | (k,η)-core (Bonchi et al.) |
//! | (2,3) | edge | triangle | local (k,γ)-truss (Huang et al.) |
//! | (3,4) | triangle | 4-clique | ℓ-nucleus (Esfahani et al., the paper) |
//!
//! All three share one scoring shape — the largest `k` such that
//! `Pr(e) · Pr[ζ ≥ k] ≥ θ`, with `ζ` the Poisson-binomial sum of the
//! cell-completion events ([`dp`]) — and one peeling shape.  On a graph
//! whose edges all have p = 1 (the certain view,
//! [`PossibleWorld::full`](crate::PossibleWorld::full) materialized) the
//! tail is 1 up to the alive-cell count, so at any threshold the scores
//! are the deterministic k-core, k-truss and k-(3,4)-nucleus numbers.
//! This module hosts the shared machinery so that every engine
//! optimization (monotone bucket queue, deferred batched recompute,
//! scratch arenas, perf counters) lands on every rank at once:
//!
//! * [`RsSupport`] — the support-structure abstraction: cells per
//!   element, members per cell, completion probabilities, element
//!   existence probability.
//! * [`CoreSupport`] / [`TrussSupport`] — the (1,2) and (2,3)
//!   implementations (the (3,4) one is `nucleus::SupportStructure`).
//! * [`Incidence`] — the CSR cell lists the (2,3) and (3,4) supports
//!   store their element → cells incidence in.
//! * [`peel_deferred`] — the deferred bucket-queue peel, generic over the
//!   support and the (monotone) rescoring function.
//! * [`peel_eager`] — the eager heap peel, generic over the support and
//!   any rescoring function: the schedule of the frozen reference engine
//!   (`nucleus::reference::decompose`).
//! * [`region`] — the bounded re-peel machinery for incremental edge
//!   updates: the [`SupportPatch`] a support repair returns, the
//!   affected-set test over its candidates, component closure and the
//!   [`RegionSupport`] adapter that re-peels only the touched region on
//!   this same engine.
//! * [`TailScratch`] — the reusable gather-and-score arena the peels
//!   rescore through, with the Poisson-binomial tail as its default
//!   kernel.
//! * [`TailTable`] — every element's scaled tail, built once per support
//!   (and carried over a repair) and read at any threshold: the initial
//!   scores of every exact-DP point come from it.
//! * [`PeelStats`] — deterministic perf counters, identical for every
//!   thread count, gated in CI via committed bench baselines.
//!
//! Deferral requires the scorer to be *monotone*: removing a cell must
//! never raise the score (true for the exact DP — the Poisson-binomial
//! tail is pointwise dominated — and trivially for deterministic cell
//! counting).  Non-monotone scorers (the hybrid statistical
//! approximations of `nucleus`) must use [`peel_eager`] instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub mod core_support;
pub mod dp;
pub mod incidence;
pub mod region;
pub mod tail_table;
pub mod truss_support;

pub use core_support::CoreSupport;
pub use dp::DpScratch;
pub use incidence::Incidence;
pub use region::{affected_elements, component_closure, RegionSupport, SupportPatch};
pub use tail_table::TailTable;
pub use truss_support::TrussSupport;

/// The support structure of one (r,s) rank: for every r-clique *element*
/// (dense ids `0..num_elements`), the s-clique *cells* containing it
/// (dense ids `0..num_cells`), the elements of each cell, and the
/// probabilities the Poisson-binomial scorer consumes.
///
/// Contract required for bit-identical peeling across engines:
///
/// * [`cells_of`](Self::cells_of) lists cells in a fixed, build-order
///   deterministic order — the completion probabilities are gathered in
///   exactly this order, and the DP is order-sensitive at the last ulp.
/// * [`cell_elements`](Self::cell_elements) lists each cell's member
///   elements; an element appears in `cells_of(t)` iff `t` appears in
///   `cell_elements(c)`.
/// * [`completion_prob`](Self::completion_prob) is the probability that
///   the *rest* of cell `c` materializes given element `t` exists (the
///   event `E_i` of the paper's Section 5.1 at rank 3).
pub trait RsSupport {
    /// Number of elements being peeled.
    fn num_elements(&self) -> usize;

    /// Number of cells.
    fn num_cells(&self) -> usize;

    /// Existence probability of element `t` itself — the factor the tail
    /// is scaled by (`Pr(△)` at rank 3, the edge probability at rank 2,
    /// `1.0` at rank 1).
    fn element_prob(&self, t: u32) -> f64;

    /// Ids of the cells containing element `t`, in the fixed gather
    /// order.
    fn cells_of(&self, t: u32) -> &[u32];

    /// Ids of the elements of cell `c`.
    fn cell_elements(&self, c: u32) -> &[u32];

    /// Completion probability of cell `c` for its member element `t`.
    fn completion_prob(&self, c: u32, t: u32) -> f64;

    /// Deterministic support of element `t`: the number of cells
    /// containing it.
    fn support(&self, t: u32) -> usize {
        self.cells_of(t).len()
    }

    /// Clears `out` and fills it with the completion probabilities of the
    /// cells of `t` accepted by `filter`, in [`cells_of`](Self::cells_of)
    /// order.  The peeling engines' score recomputations run through this
    /// with a reused buffer, so the steady state allocates nothing.
    fn completion_probs_into<F>(&self, t: u32, mut filter: F, out: &mut Vec<f64>)
    where
        F: FnMut(u32) -> bool,
    {
        out.clear();
        for &c in self.cells_of(t) {
            if filter(c) {
                out.push(self.completion_prob(c, t));
            }
        }
    }
}

/// Deterministic perf counters of one peeling run.
///
/// Every field is a function of the graph and the configuration only —
/// independent of wall clock, thread count and allocator behaviour — so
/// the counters can be committed to a benchmark baseline and gated on in
/// CI (`experiments bench-compare`).  Process probes such as the peak
/// resident set are the bench layer's to read
/// ([`crate::metrics::peak_rss_bytes`]); the engine does no I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeelStats {
    /// Full score recomputations performed during peeling (DP or, for the
    /// hybrid scorer, whichever approximation was selected).  The initial
    /// score pass is not included: it is always exactly one evaluation
    /// per element.
    pub dp_calls: usize,
    /// Score recomputations avoided because the score was already pinned
    /// to the current level.  Deferred engine: pops of a dirty element
    /// resolved by the cheap `min(κ, alive)` bound alone.  Eager engine:
    /// per-neighbour `κ ≤ level` skips inside the cell-death loop (the
    /// reference implementation's own shortcut).  The two denominators
    /// differ, so don't compare this field across engine kinds.
    pub recompute_skips: usize,
    /// Distinct bucket-queue priorities that ever held an entry (0 for
    /// the eager heap engine, which has no buckets).
    pub buckets_touched: usize,
    /// Logical high-water mark, in bytes, of the per-evaluation scratch:
    /// the probability gather buffer plus — when the DP tables were
    /// actually filled — the pmf/tail tables.  Counted from requested
    /// element counts, not allocator capacities, so it is identical for
    /// every thread count.  Initial scores read from a [`TailTable`]
    /// count what the per-element DP pass would have needed
    /// ([`TailTable::initial_scores`]).
    pub peak_scratch_bytes: usize,
}

/// Monotone bucket priority queue over small integer priorities.
///
/// Priorities are bounded by the largest initial score and the drain
/// level never decreases, so the queue is a `Vec` of buckets scanned once
/// from priority 0 upward: push and pop are `O(1)`, and the whole peel
/// costs `O(max priority + pushes)` queue work.  Pushing below the
/// current drain level violates the monotone contract and is rejected in
/// debug builds.
///
/// Stale entries are the caller's concern (lazy deletion): the queue
/// never removes an entry early, callers skip entries whose recorded
/// priority no longer matches.
pub struct BucketQueue {
    buckets: Vec<Vec<u32>>,
    /// Bucket currently being drained.
    cursor: usize,
    /// Next unread index within `buckets[cursor]`.
    head: usize,
    /// Distinct priorities that ever received an entry.
    touched: usize,
}

impl BucketQueue {
    /// A queue accepting priorities `0..=max_priority`.
    pub fn new(max_priority: u32) -> Self {
        BucketQueue {
            buckets: vec![Vec::new(); max_priority as usize + 1],
            cursor: 0,
            head: 0,
            touched: 0,
        }
    }

    /// Inserts `id` at `priority`.  Monotone contract: `priority` must be
    /// at least the current drain level.
    pub fn push(&mut self, priority: u32, id: u32) {
        let b = priority as usize;
        debug_assert!(
            b >= self.cursor,
            "monotone bucket queue: push at {b} below drain level {}",
            self.cursor
        );
        if self.buckets[b].is_empty() {
            self.touched += 1;
        }
        self.buckets[b].push(id);
    }

    /// Pops the next entry in non-decreasing priority order: entries
    /// within one bucket come out in insertion (FIFO) order, including
    /// entries pushed at the drain level mid-drain.
    pub fn pop(&mut self) -> Option<(u32, u32)> {
        loop {
            let bucket = self.buckets.get_mut(self.cursor)?;
            if self.head < bucket.len() {
                let id = bucket[self.head];
                self.head += 1;
                return Some((self.cursor as u32, id));
            }
            // The drained bucket can never be pushed to again; release
            // its memory as the cursor leaves it.
            *bucket = Vec::new();
            self.cursor += 1;
            self.head = 0;
        }
    }

    /// Number of distinct priorities that ever held an entry.
    pub fn buckets_touched(&self) -> usize {
        self.touched
    }
}

/// The deferred bucket-queue peel, generic over the support structure and
/// the rescoring function.
///
/// `kappa` holds the initial score of every element (one evaluation per
/// element, typically computed in parallel by the caller); the return
/// value is the final decomposition number of every element (the drain
/// level at which it was processed) plus the engine's perf counters
/// (`peak_scratch_bytes` is left 0 — the caller owns the scratch and
/// folds its high-water mark in).
///
/// `rescore(t, cell_dead)` must return the score of element `t` over the
/// cells whose `cell_dead` entry is false, and must be **monotone**:
/// killing a cell never raises the score.  Monotonicity is what makes the
/// peeling fixpoint independent of the evaluation schedule, so the
/// deferred engine is bit-identical to an eager one.
///
/// Invariants, with `level` the current drain bucket:
///
/// * `kappa[t]` is the score of `t` over the cells alive at its last
///   evaluation — an upper bound on the current score.
/// * `alive[t]` counts the alive cells of `t`, so
///   `min(kappa[t], alive[t])` is a cheap upper bound on the current
///   score.
/// * every unprocessed element has exactly one live queue entry, at
///   `pos[t] ≥ level`; when a cell of `t` dies, `t` is requeued at the
///   current level (its score may have dropped arbitrarily far), where
///   the pop either skips via the cheap bound or recomputes once over
///   the batched deaths.
pub fn peel_deferred<S, R>(
    support: &S,
    mut kappa: Vec<u32>,
    mut rescore: R,
) -> (Vec<u32>, PeelStats)
where
    S: RsSupport,
    R: FnMut(u32, &[bool]) -> u32,
{
    let nt = kappa.len();
    let nc = support.num_cells();
    let mut stats = PeelStats::default();

    let mut scores = vec![0u32; nt];
    let mut processed = vec![false; nt];
    let mut dirty = vec![false; nt];
    let mut cell_dead = vec![false; nc];
    let mut alive: Vec<u32> = (0..nt).map(|t| support.support(t as u32) as u32).collect();

    let max_kappa = kappa.iter().copied().max().unwrap_or(0);
    let mut queue = BucketQueue::new(max_kappa);
    let mut pos: Vec<u32> = kappa.clone();
    for (t, &k) in kappa.iter().enumerate() {
        queue.push(k, t as u32);
    }

    while let Some((level, t)) = queue.pop() {
        let ti = t as usize;
        if processed[ti] || pos[ti] != level {
            continue; // lazily deleted stale entry
        }
        if dirty[ti] {
            let bound = kappa[ti].min(alive[ti]);
            if bound > level {
                // The batched recompute: one evaluation over the cells
                // still alive, covering every death since the last one.
                let fresh = rescore(t, &cell_dead);
                stats.dp_calls += 1;
                // min() for defence in depth: the scorer is monotone, so
                // fresh ≤ kappa[ti] already holds.
                kappa[ti] = fresh.min(kappa[ti]);
                dirty[ti] = false;
                if kappa[ti] > level {
                    // Still above the level: requeue at its exact score.
                    pos[ti] = kappa[ti];
                    queue.push(kappa[ti], t);
                    continue;
                }
            } else {
                // min(κ, alive) ≤ level pins the clamped score to the
                // level; the recompute could not change anything.
                stats.recompute_skips += 1;
            }
        }
        processed[ti] = true;
        scores[ti] = level;

        // Every cell through t ceases to exist; affected elements are
        // only marked, not rescored.
        for &c in support.cells_of(t) {
            if cell_dead[c as usize] {
                continue;
            }
            cell_dead[c as usize] = true;
            for &other in support.cell_elements(c) {
                let oi = other as usize;
                if other == t || processed[oi] {
                    continue;
                }
                alive[oi] -= 1;
                dirty[oi] = true;
                if pos[oi] > level {
                    // Its score may now be as low as the current level;
                    // requeue for (at most) one deferred recompute.
                    pos[oi] = level;
                    queue.push(level, other);
                }
            }
        }
    }

    stats.buckets_touched = queue.buckets_touched();
    (scores, stats)
}

/// The eager heap peel, generic over the support structure and the
/// rescoring function: the schedule of the frozen reference engine.
///
/// Arguments and return value are those of [`peel_deferred`]
/// (`buckets_touched` stays 0: the heap has no buckets).  The schedule
/// differs: each time a cell dies, every unprocessed member whose score
/// is still above the drain level is rescored at once over the cells
/// still alive, clamped to the level, and requeued only if its score
/// dropped.  `dp_calls` counts those rescorings and `recompute_skips` the
/// members skipped because their score was already at or below the
/// level.
///
/// `rescore(t, cell_dead)` need not be monotone.  A non-monotone scorer's
/// result depends on which cells are alive at each evaluation, so its
/// output is pinned by the evaluation schedule, and the schedule by the
/// pop order: lazy deletion in a `BinaryHeap<Reverse<(κ, id)>>`, which
/// pops elements in ascending `(κ, id)` order — equal-κ elements in
/// ascending id order.  The Hybrid scorer's bit-identity with
/// `nucleus::reference::decompose` rests on that order.
pub fn peel_eager<S, R>(support: &S, mut kappa: Vec<u32>, mut rescore: R) -> (Vec<u32>, PeelStats)
where
    S: RsSupport,
    R: FnMut(u32, &[bool]) -> u32,
{
    let nt = kappa.len();
    let mut stats = PeelStats::default();

    let mut scores = vec![0u32; nt];
    let mut processed = vec![false; nt];
    let mut cell_dead = vec![false; support.num_cells()];
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
        (0..nt).map(|t| Reverse((kappa[t], t as u32))).collect();
    let mut level = 0u32;

    while let Some(Reverse((s, t))) = heap.pop() {
        let ti = t as usize;
        if processed[ti] || s != kappa[ti] {
            continue; // lazily deleted stale entry
        }
        processed[ti] = true;
        level = level.max(s);
        scores[ti] = level;

        for &c in support.cells_of(t) {
            if cell_dead[c as usize] {
                continue;
            }
            cell_dead[c as usize] = true;
            for &other in support.cell_elements(c) {
                let oi = other as usize;
                if other == t || processed[oi] {
                    continue;
                }
                if kappa[oi] <= level {
                    stats.recompute_skips += 1;
                    continue;
                }
                let fresh = rescore(other, &cell_dead);
                stats.dp_calls += 1;
                let recomputed = fresh.max(level);
                if recomputed < kappa[oi] {
                    kappa[oi] = recomputed;
                    heap.push(Reverse((recomputed, other)));
                }
            }
        }
    }

    (scores, stats)
}

/// Reusable scoring arena: the probability gather buffer and the DP
/// pmf/tail tables are shared across evaluations, so the steady state
/// allocates nothing.  One per worker thread (initial pass) or per engine
/// (peeling).
///
/// [`score`](Self::score) is the exact arithmetic of gathering the
/// completion probabilities in cell order and running [`dp::max_k`], so
/// scores are bit-identical to the allocating entry points — and to the
/// definitional level-k filter (`nucleus::exact::definitional_scores`),
/// which gathers the same floats in the same order.
/// [`score_with`](Self::score_with) runs any other kernel over the same
/// gather.
#[derive(Debug, Clone, Default)]
pub struct TailScratch {
    probs: Vec<f64>,
    dp: DpScratch,
    peak_bytes: usize,
}

impl TailScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TailScratch::default()
    }

    /// Scores element `t` over the cells accepted by `filter`: the
    /// largest `k` with `element_prob · Pr[ζ ≥ k] ≥ threshold`.
    pub fn score<S, F>(&mut self, support: &S, t: u32, threshold: f64, filter: F) -> u32
    where
        S: RsSupport,
        F: FnMut(u32) -> bool,
    {
        self.score_with(support, t, filter, |dp, element_prob, probs| {
            let k = dp::max_k_with_scratch(dp, element_prob, probs, threshold);
            // `max_k` returns early for sub-threshold elements without
            // touching the tables.
            (k, element_prob >= threshold)
        })
    }

    /// Gathers the completion probabilities of element `t` over the
    /// cells accepted by `filter` and scores them with
    /// `kernel(dp_scratch, element_prob, probs)`, which returns its score
    /// and whether it filled the DP tables.  The gather buffer, plus the
    /// tables when filled, count towards [`peak_bytes`](Self::peak_bytes).
    #[inline]
    pub fn score_with<S, F, K, T>(&mut self, support: &S, t: u32, filter: F, kernel: K) -> T
    where
        S: RsSupport,
        F: FnMut(u32) -> bool,
        K: FnOnce(&mut DpScratch, f64, &[f64]) -> (T, bool),
    {
        support.completion_probs_into(t, filter, &mut self.probs);
        let (score, dp_tables) = kernel(&mut self.dp, support.element_prob(t), &self.probs);
        let c = self.probs.len();
        let needed =
            c * std::mem::size_of::<f64>() + if dp_tables { dp::table_bytes(c) } else { 0 };
        self.peak_bytes = self.peak_bytes.max(needed);
        score
    }

    /// Running maximum of the per-evaluation logical scratch requirement.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{self, ProbabilityModel};
    use crate::par::Parallelism;
    use rand::SeedableRng;

    /// The deterministic (monotone) rescore: the number of alive cells.
    fn alive_cells<S: RsSupport>(support: &S, t: u32, cell_dead: &[bool]) -> u32 {
        let cells = support.cells_of(t);
        cells.iter().filter(|&&c| !cell_dead[c as usize]).count() as u32
    }

    fn assert_eager_matches_deferred<S: RsSupport>(support: &S) {
        let kappa: Vec<u32> = (0..support.num_elements() as u32)
            .map(|t| support.support(t) as u32)
            .collect();
        let (deferred, deferred_stats) = peel_deferred(support, kappa.clone(), |t, dead| {
            alive_cells(support, t, dead)
        });
        let (eager, eager_stats) =
            peel_eager(support, kappa, |t, dead| alive_cells(support, t, dead));
        assert_eq!(eager, deferred);
        assert!(eager_stats.dp_calls > 0);
        assert!(
            eager_stats.dp_calls >= deferred_stats.dp_calls,
            "deferral must never rescore more than the eager schedule ({} vs {})",
            deferred_stats.dp_calls,
            eager_stats.dp_calls
        );
        assert_eq!(eager_stats.buckets_touched, 0);
    }

    #[test]
    fn eager_peel_matches_the_deferred_peel_on_a_monotone_rescore() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let edges = generators::gnm_edges(30, 120, &mut rng);
        let model = ProbabilityModel::Constant(1.0);
        let g = generators::assign_probabilities(&edges, 30, &model, &mut rng);
        assert_eager_matches_deferred(&CoreSupport::build(&g));
        assert_eager_matches_deferred(&TrussSupport::build(&g, Parallelism::Sequential));
    }

    #[test]
    fn eager_peel_pops_equal_scores_in_ascending_id_order() {
        // Edges {0,1}, {0,3} and {2,4}; vertices 1 and 2 start at κ = 1,
        // the rest at 9.  Popping 1 drops 0 to the level, so 0 and 2 both
        // wait at κ = 1, 2 queued first.  Ascending ids pop 0 first, whose
        // death rescores 3 before the death of 2 rescores 4.
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (0, 3), (2, 4)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let support = CoreSupport::build(&b.build());
        let mut rescored = Vec::new();
        let (scores, stats) = peel_eager(&support, vec![9, 1, 1, 9, 9], |t, dead| {
            rescored.push(t);
            alive_cells(&support, t, dead)
        });
        assert_eq!(rescored, vec![0, 3, 4]);
        assert_eq!(scores, vec![1; 5]);
        assert_eq!(stats.dp_calls, 3);
        assert_eq!(stats.recompute_skips, 0);
    }

    #[test]
    fn bucket_queue_pops_in_priority_then_fifo_order() {
        let mut q = BucketQueue::new(3);
        q.push(2, 10);
        q.push(0, 11);
        q.push(2, 12);
        q.push(3, 13);
        q.push(0, 14);
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped, vec![(0, 11), (0, 14), (2, 10), (2, 12), (3, 13)]);
        // Priorities 0, 2 and 3 held entries; 1 never did.
        assert_eq!(q.buckets_touched(), 3);
    }

    #[test]
    fn bucket_queue_accepts_pushes_at_the_drain_level() {
        let mut q = BucketQueue::new(2);
        q.push(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        // Mid-drain push at the current level must come out before any
        // higher bucket.
        q.push(1, 2);
        q.push(2, 3);
        assert_eq!(q.pop(), Some((1, 2)));
        assert_eq!(q.pop(), Some((2, 3)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "exhausted queue stays exhausted");
    }

    #[test]
    #[should_panic(expected = "monotone bucket queue")]
    #[cfg(debug_assertions)]
    fn bucket_queue_rejects_push_below_drain_level() {
        let mut q = BucketQueue::new(3);
        q.push(2, 1);
        assert_eq!(q.pop(), Some((2, 1)));
        q.push(1, 2);
    }

    #[test]
    fn empty_queue_and_zero_priority() {
        let mut q = BucketQueue::new(0);
        q.push(0, 7);
        assert_eq!(q.buckets_touched(), 1);
        assert_eq!(q.pop(), Some((0, 7)));
        assert_eq!(q.pop(), None);
        let mut empty = BucketQueue::new(5);
        assert_eq!(empty.pop(), None);
        assert_eq!(empty.buckets_touched(), 0);
    }
}
