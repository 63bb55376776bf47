//! Zero-dependency parallel execution substrate.
//!
//! The hot paths of the nucleus decomposition — triangle enumeration,
//! 4-clique enumeration and support-structure construction — are all
//! embarrassingly parallel scans over an index range (edges, triangles or
//! cliques).  This module provides the one primitive they need:
//! [`par_extend`], a chunked parallel-for over `0..n` built on
//! [`std::thread::scope`] with an atomic chunk-claiming counter, so idle
//! workers keep pulling chunks until the range is drained (self-scheduling
//! over index ranges — no channels, no allocator-heavy task queue).
//!
//! Determinism is non-negotiable for this codebase: every parallel result
//! must be **bit-identical** to the sequential one so that decompositions
//! stay reproducible across machines and thread counts.  Workers therefore
//! write into per-chunk local buffers which are concatenated in chunk
//! order after the scope joins; since chunks partition `0..n` in order,
//! the merged output is exactly what a sequential left-to-right pass
//! produces.
//!
//! How much parallelism to use is described by [`Parallelism`]:
//!
//! ```
//! use ugraph::par::{par_extend, Parallelism};
//!
//! let squares = par_extend(Parallelism::fixed(4), 10, |range, out| {
//!     for i in range {
//!         out.push(i * i);
//!     }
//! });
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! ```

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of chunks handed out per worker thread.  Oversubscription lets
/// the atomic claiming counter rebalance skewed workloads (a chunk of
/// high-degree vertices costs far more than one of low-degree vertices).
const CHUNKS_PER_THREAD: usize = 16;

/// Degree of parallelism for the enumeration and scoring hot paths.
///
/// The default is [`Parallelism::Auto`], which uses
/// [`std::thread::available_parallelism`].  [`Parallelism::Sequential`]
/// runs everything on the calling thread — useful for debugging,
/// single-threaded determinism of *execution* (results are bit-identical
/// in every mode), and as a baseline for speedup measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run on the calling thread, spawning nothing.
    Sequential,
    /// One worker per hardware thread reported by
    /// [`std::thread::available_parallelism`] (falls back to sequential
    /// when the query fails).
    #[default]
    Auto,
    /// Exactly this many worker threads.
    Fixed(NonZeroUsize),
}

impl Parallelism {
    /// A fixed thread count; `0` is treated as [`Parallelism::Sequential`].
    pub fn fixed(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(n) => Parallelism::Fixed(n),
            None => Parallelism::Sequential,
        }
    }

    /// The number of worker threads this setting resolves to (at least 1).
    pub fn num_threads(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.get(),
        }
    }

    /// `true` when this setting resolves to a single thread.
    pub fn is_sequential(&self) -> bool {
        self.num_threads() <= 1
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Sequential => write!(f, "sequential"),
            Parallelism::Auto => write!(f, "auto({})", self.num_threads()),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Chunked parallel-for over `0..n` producing an ordered `Vec<T>`.
///
/// `body` is called once per disjoint subrange of `0..n` (in-order ranges
/// that together cover the whole interval) and appends its results to the
/// provided buffer.  Buffers are concatenated in range order, so the
/// returned vector is **identical** to what
/// `let mut out = vec![]; body(0..n, &mut out);` produces — including
/// element order and floating-point bit patterns — regardless of thread
/// count or scheduling.
///
/// Work distribution: the range is split into about
/// `threads × CHUNKS_PER_THREAD` chunks and workers claim chunk indices
/// from a shared atomic counter until none remain.
///
/// # Panics
///
/// Propagates a panic from `body` to the caller.
pub fn par_extend<T, F>(par: Parallelism, n: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>) + Sync,
{
    par_extend_init(par, n, || (), |_, range, out| body(range, out))
}

/// [`par_extend`] with per-worker state: `init` runs at most once per
/// worker thread (once on the sequential path), and every chunk that
/// worker claims gets the same state, so `body` must leave it ready for
/// the next chunk.  This is the hook for scratch too large to build per
/// chunk: the triangle pass keeps one mark per vertex here.  The output
/// carries the ordered-merge guarantee of [`par_extend`].
///
/// # Panics
///
/// Propagates a panic from `init` or `body` to the caller.
pub(crate) fn par_extend_init<T, S, I, F>(par: Parallelism, n: usize, init: I, body: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>, &mut Vec<T>) + Sync,
{
    let threads = par.num_threads();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::new();
        body(&mut init(), 0..n, &mut out);
        return out;
    }

    let chunk = (n / (threads * CHUNKS_PER_THREAD)).max(1);
    let num_chunks = n.div_ceil(chunk);
    let workers = threads.min(num_chunks);
    let next = AtomicUsize::new(0);

    let mut tagged: Vec<(usize, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = None;
                    let mut mine: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_chunks {
                            break;
                        }
                        let lo = i * chunk;
                        let hi = ((i + 1) * chunk).min(n);
                        let mut buf = Vec::new();
                        body(state.get_or_insert_with(&init), lo..hi, &mut buf);
                        mine.push((i, buf));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(chunks) => chunks,
                // Re-raise with the original payload so callers see the
                // real assertion message, not a generic join error.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    tagged.sort_unstable_by_key(|(i, _)| *i);
    let total = tagged.iter().map(|(_, v)| v.len()).sum();
    let mut out = Vec::with_capacity(total);
    for (_, mut part) in tagged {
        out.append(&mut part);
    }
    out
}

/// Parallel index map: returns `[f(0), f(1), …, f(n-1)]`.
///
/// Convenience wrapper over [`par_extend`] with the same determinism
/// guarantee.
pub fn par_map<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_extend(par, n, |range, out| {
        out.reserve(range.len());
        for i in range {
            out.push(f(i));
        }
    })
}

/// Parallel index map with per-chunk worker state: like [`par_map`], but
/// `init` is called once per chunk and the produced state is threaded
/// through every `f` call of that chunk.  This is the hook scratch-buffer
/// arenas plug into: the nucleus scoring pass reuses one DP scratch per
/// chunk instead of allocating per triangle, while the ordered-merge
/// guarantee of [`par_extend`] keeps the output bit-identical to a
/// sequential left-to-right pass for every thread count.
pub fn par_map_init<T, S, I, F>(par: Parallelism, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    par_extend(par, n, |range, out| {
        let mut state = init();
        out.reserve(range.len());
        for i in range {
            out.push(f(&mut state, i));
        }
    })
}

/// Parallel sum of a per-range reducer: splits `0..n` into chunks, calls
/// `f(range)` for each and sums the partial results.  Used by counting
/// paths that never materialize their items.
pub fn par_count<F>(par: Parallelism, n: usize, f: F) -> usize
where
    F: Fn(Range<usize>) -> usize + Sync,
{
    par_extend(par, n, |range, out: &mut Vec<usize>| out.push(f(range)))
        .into_iter()
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Sequential.num_threads(), 1);
        assert!(Parallelism::Sequential.is_sequential());
        assert_eq!(Parallelism::fixed(0), Parallelism::Sequential);
        assert_eq!(Parallelism::fixed(4).num_threads(), 4);
        assert!(!Parallelism::fixed(4).is_sequential());
        assert!(Parallelism::Auto.num_threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn parallelism_display() {
        assert_eq!(Parallelism::Sequential.to_string(), "sequential");
        assert_eq!(Parallelism::fixed(3).to_string(), "3");
        assert!(Parallelism::Auto.to_string().starts_with("auto("));
    }

    #[test]
    fn empty_range() {
        for par in [Parallelism::Sequential, Parallelism::fixed(4)] {
            let out: Vec<u64> = par_extend(par, 0, |range, _| assert!(range.is_empty()));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn output_matches_sequential_for_every_thread_count() {
        // Variable-size per-index output exercises the merge logic.
        let body = |range: Range<usize>, out: &mut Vec<usize>| {
            for i in range {
                for j in 0..(i % 4) {
                    out.push(i * 10 + j);
                }
            }
        };
        let mut expected = Vec::new();
        body(0..1000, &mut expected);
        for threads in [1, 2, 3, 8, 64] {
            let got = par_extend(Parallelism::fixed(threads), 1000, body);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_matches_direct_map() {
        let f = |i: usize| (i as f64).sqrt();
        let expected: Vec<f64> = (0..257).map(f).collect();
        for threads in [1, 2, 8] {
            let got = par_map(Parallelism::fixed(threads), 257, f);
            // Bit-identical, not just approximately equal.
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().zip(&expected) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn par_map_init_reuses_state_within_chunks() {
        // The state counts how many indices the chunk has processed so
        // far; outputs must still merge in index order, and every index
        // must observe a state initialized at the chunk boundary (the
        // per-chunk counter never exceeds the chunk length).
        for threads in [1, 2, 4, 8] {
            let chunk = (1000 / (threads * CHUNKS_PER_THREAD)).max(1);
            let got = par_map_init(
                Parallelism::fixed(threads),
                1000,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            assert_eq!(got.len(), 1000);
            for (pos, &(i, seen)) in got.iter().enumerate() {
                assert_eq!(i, pos, "threads = {threads}");
                assert!(seen >= 1);
                if threads > 1 {
                    assert!(seen <= chunk, "state leaked across chunks");
                }
            }
        }
    }

    #[test]
    fn par_extend_init_keeps_one_state_per_worker() {
        // The state counts the indices its worker has processed: it is
        // built at most once per worker, and with more chunks than
        // workers some worker carries it across a chunk boundary.
        for threads in [1, 2, 8] {
            let chunk = (1000 / (threads * CHUNKS_PER_THREAD)).max(1);
            let inits = AtomicUsize::new(0);
            let got = par_extend_init(
                Parallelism::fixed(threads),
                1000,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, range, out| {
                    for i in range {
                        *seen += 1;
                        out.push((i, *seen));
                    }
                },
            );
            let indices: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..1000).collect::<Vec<_>>());
            assert!(inits.load(Ordering::Relaxed) <= threads);
            if threads > 1 {
                assert!(got.iter().any(|&(_, seen)| seen > chunk));
            }
        }
    }

    #[test]
    fn par_count_sums_partials() {
        for threads in [1, 2, 8] {
            let total = par_count(Parallelism::fixed(threads), 100, |r| {
                r.filter(|i| i % 3 == 0).count()
            });
            assert_eq!(total, 34, "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        let got = par_map(Parallelism::fixed(32), 3, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::fixed(2), 64, |i| {
                if i == 63 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
