//! Threshold-independent initial scores.
//!
//! The initial score of an element is the largest `k` with
//! `Pr(e) · Pr[ζ ≥ k] ≥ θ` ([`dp::max_k`]).  The Poisson-binomial tail
//! `Pr[ζ ≥ k]` does not depend on `θ` — the threshold only picks where
//! to cut it — so a caller that scores one support at several thresholds
//! (a sweep, a resident server answering cache misses) can run every
//! element's DP once, keep the scaled tails in a [`TailTable`], and read
//! each threshold's initial scores off it by binary search.  After an
//! update batch the table is carried over to the repaired support
//! ([`TailTable::repair`]): only the affected elements' rows are run
//! again.

use super::dp::{self, DpScratch};
use super::RsSupport;
use crate::error::checked_id;
use crate::par::{self, Parallelism};

/// Every element's scaled tail `Pr(e) · Pr[ζ ≥ k]` for `k = 1..=c`
/// (`c` = [`RsSupport::support`]), in CSR form: one `f64` per
/// element–cell incidence plus `n + 1` `u32` offsets.
///
/// Built from the same gather and the same [`DpScratch`] arithmetic as
/// [`dp::max_k_with_scratch`], so every score read from the table is
/// bit-identical to running the DP at that threshold.  The `k = 0` entry
/// is not stored: a row is non-increasing and no entry exceeds `Pr(e)`,
/// so the score at `θ` is the number of leading entries `≥ θ` — `0`
/// both when `Pr(e) < θ` (the DP's early return) and when the first
/// tail entry already falls short (its loop's `break`).
#[derive(Debug, Clone)]
pub struct TailTable {
    /// Row `t` is `values[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<u32>,
    values: Vec<f64>,
}

impl TailTable {
    /// Runs every element's DP once.  Elements are scored in ordered
    /// parallel chunks, so the table is identical for every
    /// `parallelism`; the values are allocated at their exact size.
    ///
    /// # Panics
    ///
    /// Panics when the support holds more than `u32::MAX` element–cell
    /// incidences.
    pub fn build<S: RsSupport + Sync>(support: &S, parallelism: Parallelism) -> Self {
        let offsets = Self::offsets(support);
        let values = par::par_extend(parallelism, offsets.len() - 1, |range, out| {
            // Exact capacity: the sequential path is one chunk, and the
            // parallel merge sizes its output from the chunk lengths.
            out.reserve_exact((offsets[range.end] - offsets[range.start]) as usize);
            let mut probs = Vec::new();
            let mut dp = DpScratch::new();
            for t in range {
                let t = t as u32;
                support.completion_probs_into(t, |_| true, &mut probs);
                let element_prob = support.element_prob(t);
                out.extend(dp.tail(&probs)[1..].iter().map(|&tail| element_prob * tail));
            }
        });
        TailTable { offsets, values }
    }

    /// The table of a repaired support, carried over from `self` (the
    /// table of the support before the batch).  `new_to_old` and the
    /// sorted `affected` set are those of the repair (see
    /// [`affected_elements`](super::affected_elements)): a clean element
    /// has an old counterpart with a bitwise identical gather, so its row
    /// is copied — a run of clean elements with consecutive old ids in
    /// one slice — and only the affected rows run the DP.  The result is
    /// bit-identical to [`TailTable::build`] on `support`.
    ///
    /// # Panics
    ///
    /// Panics as [`TailTable::build`] does, or when an element outside
    /// `affected` has no old counterpart.
    pub fn repair<S: RsSupport>(
        &self,
        support: &S,
        new_to_old: &[Option<u32>],
        affected: &[u32],
    ) -> Self {
        let offsets = Self::offsets(support);
        let n = offsets.len() - 1;
        debug_assert_eq!(new_to_old.len(), n);
        let mut values = Vec::with_capacity(offsets[n] as usize);
        let (mut probs, mut dp) = (Vec::new(), DpScratch::new());
        let mut affected = affected.iter().map(|&t| t as usize).peekable();
        let mut t = 0;
        while t < n {
            let stop = affected.peek().copied().unwrap_or(n);
            if t == stop {
                // The row `build` computes.
                support.completion_probs_into(t as u32, |_| true, &mut probs);
                let element_prob = support.element_prob(t as u32);
                values.extend(dp.tail(&probs)[1..].iter().map(|&tail| element_prob * tail));
                affected.next();
                t += 1;
                continue;
            }
            let first = new_to_old[t].expect("a clean element has an old counterpart") as usize;
            let mut end = t + 1;
            while end < stop && new_to_old[end] == Some((first + end - t) as u32) {
                end += 1;
            }
            let span = self.offsets[first] as usize..self.offsets[first + end - t] as usize;
            values.extend_from_slice(&self.values[span]);
            t = end;
        }
        debug_assert_eq!(values.len(), offsets[n] as usize);
        TailTable { offsets, values }
    }

    /// The row offsets of `support`'s table.
    fn offsets<S: RsSupport>(support: &S) -> Vec<u32> {
        let n = support.num_elements();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0;
        offsets.push(0);
        for t in 0..n as u32 {
            total += support.support(t);
            offsets.push(
                checked_id("tail-table entry", total)
                    .expect("tail-table entry count exceeds the packed 32-bit offset space"),
            );
        }
        offsets
    }

    /// Element `t`'s row: `Pr(e) · Pr[ζ ≥ k]` for `k = 1..=c`.
    pub fn row(&self, t: u32) -> &[f64] {
        let span = &self.offsets[t as usize..t as usize + 2];
        &self.values[span[0] as usize..span[1] as usize]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the table has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The initial score of every element at `threshold` — bit-identical
    /// to [`dp::max_k`] over all its cells — plus the logical scratch
    /// peak a per-element DP pass would have reached (the
    /// `peak_scratch_bytes` accounting of
    /// [`TailScratch::score`](super::TailScratch::score): the gather
    /// buffer, plus the DP tables when `Pr(e) ≥ threshold`).  `support`
    /// must be the support the table was built from.
    pub fn initial_scores<S: RsSupport>(&self, support: &S, threshold: f64) -> (Vec<u32>, usize) {
        debug_assert_eq!(support.num_elements(), self.len());
        let mut peak = 0;
        let scores = self
            .offsets
            .windows(2)
            .enumerate()
            .map(|(t, span)| {
                let row = &self.values[span[0] as usize..span[1] as usize];
                // The DP tables are only filled when `Pr(e) ≥ θ`; the
                // gather buffer holds one probability per row entry.
                let tables = if support.element_prob(t as u32) >= threshold {
                    dp::table_bytes(row.len())
                } else {
                    0
                };
                peak = peak.max(std::mem::size_of_val(row) + tables);
                row.partition_point(|&x| x >= threshold) as u32
            })
            .collect();
        (scores, peak)
    }
}

#[cfg(test)]
mod tests {
    use super::super::TailScratch;
    use super::*;

    /// A support whose elements own private cells: element `t` is scored
    /// over exactly its listed completion probabilities.
    struct Lists {
        element_probs: Vec<f64>,
        offsets: Vec<usize>,
        cell_ids: Vec<u32>,
        owners: Vec<u32>,
        probs: Vec<f64>,
    }

    impl Lists {
        fn new(elements: &[(f64, Vec<f64>)]) -> Self {
            let mut lists = Lists {
                element_probs: Vec::new(),
                offsets: vec![0],
                cell_ids: Vec::new(),
                owners: Vec::new(),
                probs: Vec::new(),
            };
            for (t, (element_prob, probs)) in elements.iter().enumerate() {
                lists.element_probs.push(*element_prob);
                for &p in probs {
                    lists.cell_ids.push(lists.probs.len() as u32);
                    lists.owners.push(t as u32);
                    lists.probs.push(p);
                }
                lists.offsets.push(lists.probs.len());
            }
            lists
        }

        fn probs_of(&self, t: u32) -> &[f64] {
            &self.probs[self.offsets[t as usize]..self.offsets[t as usize + 1]]
        }
    }

    impl RsSupport for Lists {
        fn num_elements(&self) -> usize {
            self.element_probs.len()
        }

        fn num_cells(&self) -> usize {
            self.probs.len()
        }

        fn element_prob(&self, t: u32) -> f64 {
            self.element_probs[t as usize]
        }

        fn cells_of(&self, t: u32) -> &[u32] {
            &self.cell_ids[self.offsets[t as usize]..self.offsets[t as usize + 1]]
        }

        fn cell_elements(&self, c: u32) -> &[u32] {
            std::slice::from_ref(&self.owners[c as usize])
        }

        fn completion_prob(&self, c: u32, _t: u32) -> f64 {
            self.probs[c as usize]
        }
    }

    /// The next float above a non-negative finite `x`.
    fn above(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn bits(table: &TailTable) -> (Vec<u32>, Vec<u64>) {
        let values = table.values.iter().map(|x| x.to_bits()).collect();
        (table.offsets.clone(), values)
    }

    /// The table against the DP at `threshold`: every score, the scan's
    /// scratch peak against a full [`TailScratch`] pass.
    fn assert_matches_dp(support: &Lists, table: &TailTable, threshold: f64) {
        let (scores, peak) = table.initial_scores(support, threshold);
        let mut scratch = TailScratch::new();
        for t in 0..support.num_elements() as u32 {
            let expected = dp::max_k(support.element_prob(t), support.probs_of(t), threshold);
            assert_eq!(scores[t as usize], expected, "t = {t}, θ = {threshold}");
            assert_eq!(scratch.score(support, t, threshold, |_| true), expected);
        }
        assert_eq!(peak, scratch.peak_bytes(), "θ = {threshold}");
    }

    #[test]
    fn rows_hold_k_from_one_to_the_support() {
        let support = Lists::new(&[(0.5, vec![1.0, 1.0]), (1.0, vec![]), (0.8, vec![0.5])]);
        let table = TailTable::build(&support, Parallelism::Sequential);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        assert_eq!(table.row(0), &[0.5, 0.5]);
        assert!(table.row(1).is_empty());
        assert_eq!(table.row(2), &[0.8 * 0.5]);
        // θ equal to a stored entry counts it; just above it does not.
        assert_eq!(table.initial_scores(&support, 0.5).0, [2, 0, 0]);
        assert_eq!(table.initial_scores(&support, above(0.5)).0, [0, 0, 0]);
        assert_eq!(table.initial_scores(&support, 0.4).0, [2, 0, 1]);
        assert_eq!(table.initial_scores(&support, 1.0).0, [0, 0, 0]);
        for threshold in [0.1, 0.4, 0.5, 0.8, 1.0] {
            assert_matches_dp(&support, &table, threshold);
        }
        // The scratch peak counts the DP tables only for elements at or
        // above the threshold: at θ = 0.6 element 0 (2 cells, Pr 0.5)
        // contributes its gather alone, element 2 its tables too.
        let (_, peak) = table.initial_scores(&support, 0.6);
        assert_eq!(peak, 8 + dp::table_bytes(1));
    }

    #[test]
    fn an_empty_support_gives_an_empty_table() {
        let support = Lists::new(&[]);
        let table = TailTable::build(&support, Parallelism::fixed(4));
        assert!(table.is_empty());
        assert_eq!(table.initial_scores(&support, 0.5), (Vec::new(), 0));
    }

    /// The property suite: the table against the per-threshold DP on
    /// random completion lists, at thresholds that include stored
    /// entries, values above `Pr(e)` and `1.0`.  Scales with
    /// `PROPTEST_CASES` (64 by default).
    mod tail_table_vs_dp {
        use super::*;
        use proptest::prelude::*;

        /// A completion probability, with the endpoints drawn often.
        fn prob(kind: u8, p: f64) -> f64 {
            match kind {
                0 => 0.0,
                1 => 1.0,
                _ => p,
            }
        }

        fn arb_elements() -> impl Strategy<Value = Vec<(f64, Vec<f64>)>> {
            proptest::collection::vec(
                (
                    (0u8..6, 0.0f64..=1.0).prop_map(|(kind, p)| prob(kind + 1, p)),
                    proptest::collection::vec(
                        (0u8..6, 0.0f64..=1.0).prop_map(|(kind, p)| prob(kind, p)),
                        0..=40,
                    ),
                ),
                0..=12,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::default())]

            #[test]
            fn tail_table_matches_the_per_threshold_dp(
                elements in arb_elements(),
                random_thresholds in proptest::collection::vec(0.0f64..=1.0, 3),
            ) {
                let support = Lists::new(&elements);
                let table = TailTable::build(&support, Parallelism::Sequential);
                for threads in [2, 8] {
                    let parallel = TailTable::build(&support, Parallelism::fixed(threads));
                    prop_assert_eq!(bits(&parallel), bits(&table), "threads = {}", threads);
                }

                let mut thresholds: Vec<f64> = random_thresholds
                    .iter()
                    .map(|&x| x.max(f64::MIN_POSITIVE))
                    .collect();
                thresholds.push(1.0);
                for t in 0..support.num_elements() as u32 {
                    let element_prob = support.element_prob(t);
                    thresholds.push(above(element_prob));
                    // θ equal to stored entries: the first, a middle one
                    // and the last of the row.
                    let row = table.row(t);
                    for i in [0, row.len() / 2, row.len().saturating_sub(1)] {
                        if let Some(&x) = row.get(i) {
                            if x > 0.0 {
                                thresholds.push(x);
                            }
                        }
                    }
                }
                for &threshold in &thresholds {
                    assert_matches_dp(&support, &table, threshold);
                }
            }
        }
    }
}
