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
//! cell-completion events ([`dp`]) — and one peeling shape.  This module
//! hosts the shared machinery so that every engine optimization (monotone
//! bucket queue, deferred batched recompute, scratch arenas, perf
//! counters) lands on every rank at once:
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
//! * [`region`] — the bounded re-peel machinery for incremental edge
//!   updates: affected-set diffing, component closure and the
//!   [`RegionSupport`] adapter that re-peels only the touched region on
//!   this same engine.
//! * [`TailScratch`] — the reusable Poisson-binomial tail scorer.
//! * [`PeelStats`] — deterministic perf counters, identical for every
//!   thread count, gated in CI via committed bench baselines.
//!
//! Deferral requires the scorer to be *monotone*: removing a cell must
//! never raise the score (true for the exact DP — the Poisson-binomial
//! tail is pointwise dominated — and trivially for deterministic cell
//! counting).  Non-monotone scorers (the hybrid statistical
//! approximations of `nucleus`) must use an eager schedule instead.

pub mod core_support;
pub mod dp;
pub mod incidence;
pub mod region;
pub mod truss_support;

pub use core_support::CoreSupport;
pub use dp::DpScratch;
pub use incidence::Incidence;
pub use region::{affected_elements, component_closure, RegionSupport};
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
/// CI (`experiments bench-compare`).
#[derive(Debug, Clone, Copy, Default)]
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
    /// every thread count.
    pub peak_scratch_bytes: usize,
    /// Process-wide peak resident set size in bytes (`VmHWM` from
    /// `/proc/self/status`, see [`crate::metrics::peak_rss_bytes`]), read
    /// once per decomposition point by the layer that runs the peel;
    /// [`peel_deferred`] itself does no I/O and leaves it 0, and so do
    /// platforms without that interface.
    /// Unlike every other field this one depends on the allocator and on
    /// what else the process already did, so it is **excluded from
    /// equality** (determinism tests compare the logical counters only)
    /// and benchmark gates treat it as a bounded environment probe, not an
    /// exact number.
    pub peak_rss_bytes: u64,
}

impl PartialEq for PeelStats {
    /// Logical counters only; `peak_rss_bytes` is an environment probe
    /// and deliberately ignored.
    fn eq(&self, other: &Self) -> bool {
        self.dp_calls == other.dp_calls
            && self.recompute_skips == other.recompute_skips
            && self.buckets_touched == other.buckets_touched
            && self.peak_scratch_bytes == other.peak_scratch_bytes
    }
}

impl Eq for PeelStats {}

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
/// (`peak_scratch_bytes` and `peak_rss_bytes` are left 0 — the caller
/// owns the scratch and folds its high-water mark in, and takes the
/// process probe if it wants one; the engine does no I/O).
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

/// Reusable Poisson-binomial tail scorer: the probability gather buffer
/// and the DP pmf/tail tables are shared across evaluations, so the
/// steady state allocates nothing.  One per worker thread (initial pass)
/// or per engine (peeling).
///
/// Scoring is the exact arithmetic of gathering the completion
/// probabilities in cell order and running [`dp::max_k`], so scores are
/// bit-identical to the allocating entry points — and to the frozen
/// per-rank reference implementations, which gather the same floats in
/// the same order.
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
        support.completion_probs_into(t, filter, &mut self.probs);
        let element_prob = support.element_prob(t);
        let k = dp::max_k_with_scratch(&mut self.dp, element_prob, &self.probs, threshold);
        // The DP tables are only materialized when the DP actually ran
        // (`max_k` returns early for sub-threshold elements without
        // touching them).
        let c = self.probs.len();
        let dp_tables = element_prob >= threshold;
        let needed =
            c * std::mem::size_of::<f64>() + if dp_tables { dp::table_bytes(c) } else { 0 };
        self.peak_bytes = self.peak_bytes.max(needed);
        k
    }

    /// Running maximum of the per-evaluation logical scratch requirement.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
