//! Compressed incidence lists shared by the support structures.
//!
//! A support structure answers "which cells contain element `t`?" for
//! every element.  Storing that as one `Vec` per element costs a heap
//! allocation and a 24-byte header each; [`Incidence`] stores all lists
//! in CSR form instead — one offset per list plus one flat `u32` array —
//! so a list is a plain slice and the whole structure is two
//! allocations.

use crate::error::checked_id;

/// Incidence lists in CSR form: list `i` is
/// `flat[offsets[i]..offsets[i + 1]]`.
///
/// Offsets are `u32`.  A structure with `n` cells of `K` members holds
/// `K · n` entries, which can pass `2^32` before the cell ids themselves
/// do, so both narrowings go through the checked constructor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Incidence {
    offsets: Vec<u32>,
    flat: Vec<u32>,
}

impl Incidence {
    /// Transposes `num_rows` rows of `K` members each: list `i` (for
    /// `i < num_lists`) holds the ids of the rows that contain `i`,
    /// ascending.  `row(r)` returns the members of row `r`; `kind` names
    /// the rows in the overflow message.
    ///
    /// # Panics
    ///
    /// Panics when a row id or the total entry count exceeds the `u32`
    /// id space, or when a member is `≥ num_lists`.
    pub fn transpose<const K: usize, F>(
        num_lists: usize,
        num_rows: usize,
        kind: &'static str,
        row: F,
    ) -> Self
    where
        F: Fn(usize) -> [u32; K],
    {
        if let Some(last) = num_rows.checked_sub(1) {
            checked_id(kind, last).expect("row count exceeds the packed 32-bit id space");
        }
        let total = checked_id(kind, num_rows * K)
            .expect("incidence entry count exceeds the packed 32-bit offset space");
        let mut offsets = vec![0u32; num_lists + 1];
        for r in 0..num_rows {
            for m in row(r) {
                offsets[m as usize + 1] += 1;
            }
        }
        for i in 0..num_lists {
            offsets[i + 1] += offsets[i];
        }
        debug_assert_eq!(offsets[num_lists], total);
        let mut cursor = offsets[..num_lists].to_vec();
        let mut flat = vec![0u32; total as usize];
        for r in 0..num_rows {
            for m in row(r) {
                let slot = &mut cursor[m as usize];
                flat[*slot as usize] = r as u32;
                *slot += 1;
            }
        }
        Incidence { offsets, flat }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when there are no lists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// List `i`.
    pub fn list(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_lists_rows_in_ascending_order() {
        let rows = [[0u32, 2], [1, 2], [0, 1], [2, 3]];
        let inc = Incidence::transpose(5, rows.len(), "row", |r| rows[r]);
        assert_eq!(inc.len(), 5);
        assert_eq!(inc.list(0), &[0, 2]);
        assert_eq!(inc.list(1), &[1, 2]);
        assert_eq!(inc.list(2), &[0, 1, 3]);
        assert_eq!(inc.list(3), &[3]);
        assert!(
            inc.list(4).is_empty(),
            "an isolated highest id gets an empty list"
        );
    }

    #[test]
    fn empty_inputs() {
        let inc = Incidence::transpose::<4, _>(3, 0, "row", |_| unreachable!());
        assert_eq!(inc.len(), 3);
        assert!((0..3).all(|i| inc.list(i).is_empty()));
        let none = Incidence::transpose::<4, _>(0, 0, "row", |_| unreachable!());
        assert!(none.is_empty());
    }
}
