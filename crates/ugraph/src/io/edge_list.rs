//! SNAP-style whitespace edge lists.
//!
//! The format used by most uncertain-graph datasets (including those
//! referenced by the paper): one edge per line, whitespace separated,
//! `u v p` where `p` is the existence probability.  Lines starting with
//! `#` or `%` (SNAP headers, comments) and blank lines are skipped.  A
//! two-column `u v` line is accepted and treated as a deterministic edge
//! under the default [`EdgeProbabilityModel::Column`].
//!
//! The parser is strict by default: self-loops and repeated edges are
//! rejected with typed [`GraphError`] variants instead of being
//! silently dropped or overridden.  Because many published SNAP datasets
//! are *directed* lists carrying both orientations of every edge,
//! [`DuplicatePolicy::MergeIdentical`] (what the ingestion dispatcher
//! uses) accepts repeats that agree on the value column and only rejects
//! conflicting ones.
//!
//! The reader borrows each line from one reused buffer and keeps one row
//! per data line in memory until it sorts the rows by canonical edge.
//! Repeats and probabilities are judged on the sorted rows, and the
//! de-duplicated table goes straight to the CSR constructor.  Errors are
//! still the ones a line-at-a-time reader reports: the first offending
//! line in file order decides, whether it holds a parse error, a
//! self-loop, an I/O or UTF-8 error, a rejected repeat (under
//! `MergeIdentical`, the first repeat whose value bits differ from the
//! edge's first occurrence), or an invalid probability on an edge's
//! first occurrence.  A repeat is judged as a duplicate before its
//! probability is looked at, and seeded probability models draw once per
//! distinct edge, in first-occurrence order.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::GraphError;
use crate::graph::{Edge, UncertainGraph};
use crate::io::prob_model::EdgeProbabilityModel;
use crate::Result;

/// What a repeated `{u, v}` line means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Any repeat is a [`GraphError::DuplicateEdge`] — the strict default
    /// of [`read_edge_list`], for inputs that must list every undirected
    /// edge exactly once.
    #[default]
    Reject,
    /// Repeats with an identical value column (or both without one) are
    /// collapsed into one edge; repeats that *conflict* are still a
    /// [`GraphError::DuplicateEdge`].  This is the right policy for
    /// directed SNAP downloads, which list `u v` and `v u` for every
    /// undirected edge.
    MergeIdentical,
}

/// Reads a probabilistic edge list with an explicit probability model and
/// duplicate policy.
///
/// # Example
///
/// ```
/// use ugraph::io::{DuplicatePolicy, EdgeProbabilityModel};
///
/// // A directed SNAP-style file: both orientations of the same edge.
/// let text = "# directed\n0 1\n1 0\n1 2 0.5\n";
/// let g = ugraph::io::read_edge_list_with_policy(
///     text.as_bytes(),
///     &EdgeProbabilityModel::Column,
///     DuplicatePolicy::MergeIdentical,
/// )
/// .unwrap();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_probability(0, 1), Some(1.0));
/// ```
pub fn read_edge_list_with_policy<R: Read>(
    reader: R,
    model: &EdgeProbabilityModel,
    policy: DuplicatePolicy,
) -> Result<UncertainGraph> {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    let mut rows = Rows::default();
    let mut line_no = 0usize;
    // The error that ended the scan, if a line (or the stream) failed.
    let stopped = loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break None,
            Ok(_) => line_no += 1,
            Err(e) => break Some(GraphError::from(e)),
        }
        let parsed = std::str::from_utf8(&line)
            .map_err(|_| invalid_utf8())
            .and_then(|text| parse_line(text, line_no));
        match parsed {
            Ok(Some((u, v, value))) => rows.push(u, v, value),
            Ok(None) => {}
            Err(e) => break Some(e),
        }
    };
    // Any error among the rows before the stop comes first in file order.
    let edges = rows.resolve(model, policy)?;
    if let Some(error) = stopped {
        return Err(error);
    }
    let n = edges.iter().map(|e| e.v as usize + 1).max().unwrap_or(0);
    Ok(UncertainGraph::from_sorted_edges(n, edges))
}

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> GraphError {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
    .into()
}

/// Parses one line: `None` for blank and comment lines, otherwise the
/// canonical endpoints (`u < v`) and the value column.
fn parse_line(line: &str, line_no: usize) -> Result<Option<(u32, u32, Option<f64>)>> {
    let mut parts = Fields::new(line).peekable();
    match parts.peek() {
        None => return Ok(None),
        Some(first) if first.starts_with('#') || first.starts_with('%') => return Ok(None),
        Some(_) => {}
    }
    let u = parse_field(parts.next(), line_no, "source vertex")?;
    let v = parse_field(parts.next(), line_no, "target vertex")?;
    let value = match parts.next() {
        Some(tok) => Some(tok.parse::<f64>().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("invalid probability '{tok}'"),
        })?),
        None => None,
    };
    if parts.next().is_some() {
        return Err(GraphError::Parse {
            line: line_no,
            message: "expected at most three columns (u v p)".to_string(),
        });
    }
    if u == v {
        return Err(GraphError::SelfLoop { vertex: u });
    }
    Ok(Some((u.min(v), u.max(v), value)))
}

/// The fields of a line, split exactly as `str::split_whitespace` splits
/// them: Unicode White_Space separates.  An ASCII line, where that is
/// just the six bytes of [`is_space`], is split byte by byte.
struct Fields<'a> {
    rest: &'a str,
    ascii: bool,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Self {
        Fields {
            rest: line,
            ascii: line.is_ascii(),
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest;
        let (start, end) = if self.ascii {
            let bytes = rest.as_bytes();
            let start = bytes.iter().position(|&b| !is_space(b))?;
            let len = bytes[start..].iter().position(|&b| is_space(b));
            (start, len.map_or(bytes.len(), |len| start + len))
        } else {
            let start = rest.find(|c: char| !c.is_whitespace())?;
            let len = rest[start..].find(char::is_whitespace);
            (start, len.map_or(rest.len(), |len| start + len))
        };
        self.rest = &rest[end..];
        Some(&rest[start..end])
    }
}

/// The ASCII characters with the Unicode White_Space property: tab, LF,
/// VT, FF, CR and space.
fn is_space(byte: u8) -> bool {
    matches!(byte, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// The data rows of a file, in file order.
#[derive(Default)]
struct Rows {
    /// `(u << 32 | v, ordinal)` per row, with `u < v`.
    keys: Vec<(u64, usize)>,
    /// The value column of each row, by ordinal (`None` = bare `u v`).
    values: Vec<Option<f64>>,
}

impl Rows {
    fn push(&mut self, u: u32, v: u32, value: Option<f64>) {
        self.keys
            .push(((u as u64) << 32 | v as u64, self.values.len()));
        self.values.push(value);
    }

    /// Sorts the rows and resolves them into the canonical edge table,
    /// or into the error a line-at-a-time reader would have met first:
    /// the earliest of the first rejected repeat and the first invalid
    /// probability.
    fn resolve(self, model: &EdgeProbabilityModel, policy: DuplicatePolicy) -> Result<Vec<Edge>> {
        let Rows { mut keys, values } = self;
        // Ordinals are unique, so each key's run comes out in file order.
        keys.sort_unstable();
        let bits = |ord: usize| values[ord].map(f64::to_bits);
        // Collapse each run to its first occurrence, noting the earliest
        // repeat the policy rejects.
        let mut rejected: Option<(usize, u64)> = None;
        keys.dedup_by(|&mut (key, ord), &mut (kept, first)| {
            if key != kept {
                return false;
            }
            let conflict = policy == DuplicatePolicy::Reject || bits(ord) != bits(first);
            if conflict && rejected.map_or(true, |(at, _)| ord < at) {
                rejected = Some((ord, key));
            }
            true
        });
        let mut edges: Vec<Edge> = keys
            .iter()
            .map(|&(key, _)| Edge {
                u: (key >> 32) as u32,
                v: key as u32,
                p: 0.0,
            })
            .collect();
        // Edge index by ordinal (`usize::MAX` on a repeat), so the
        // probability model meets the edges in the order the file
        // introduces them.
        let mut introduced = vec![usize::MAX; values.len()];
        for (index, &(_, first)) in keys.iter().enumerate() {
            introduced[first] = index;
        }
        // A line-at-a-time reader never gets past the rejected repeat.
        let stop = rejected.map_or(values.len(), |(at, _)| at);
        let mut assigner = model.assigner();
        for (ord, &index) in introduced[..stop].iter().enumerate() {
            if let Some(e) = edges.get_mut(index) {
                e.p = assigner.probability((e.u, e.v), values[ord])?;
            }
        }
        match rejected {
            Some((_, key)) => Err(GraphError::DuplicateEdge {
                edge: ((key >> 32) as u32, key as u32),
            }),
            None => Ok(edges),
        }
    }
}

/// Reads a probabilistic edge list from any reader, with an explicit
/// probability model and strict duplicate rejection.
///
/// # Example
///
/// ```
/// use ugraph::io::EdgeProbabilityModel;
///
/// let text = "# comment\n0 1 0.5\n\n1 2 0.75\n2 3\n";
/// let g = ugraph::io::read_edge_list_with(text.as_bytes(), &EdgeProbabilityModel::Column)
///     .unwrap();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.edge_probability(2, 3), Some(1.0));
/// ```
pub fn read_edge_list_with<R: Read>(
    reader: R,
    model: &EdgeProbabilityModel,
) -> Result<UncertainGraph> {
    read_edge_list_with_policy(reader, model, DuplicatePolicy::Reject)
}

/// Reads a probabilistic edge list, keeping the parsed probability column
/// ([`EdgeProbabilityModel::Column`]) and rejecting duplicates.
pub fn read_edge_list<R: Read>(reader: R) -> Result<UncertainGraph> {
    read_edge_list_with(reader, &EdgeProbabilityModel::Column)
}

fn parse_field(token: Option<&str>, line: usize, what: &str) -> Result<u32> {
    let tok = token.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    tok.parse::<u32>().map_err(|_| GraphError::Parse {
        line,
        message: format!("invalid {what} '{tok}'"),
    })
}

/// Reads a probabilistic edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<UncertainGraph> {
    let file = File::open(path)?;
    read_edge_list(file)
}

/// [`read_edge_list_file`] with an explicit probability model.
pub fn read_edge_list_file_with<P: AsRef<Path>>(
    path: P,
    model: &EdgeProbabilityModel,
) -> Result<UncertainGraph> {
    let file = File::open(path)?;
    read_edge_list_with(file, model)
}

/// Writes a graph as a probabilistic edge list (`u v p` per line).
pub fn write_edge_list<W: Write>(graph: &UncertainGraph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# probabilistic edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.edges() {
        writeln!(w, "{} {} {}", e.u, e.v, e.p)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a graph as a probabilistic edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &UncertainGraph, path: P) -> Result<()> {
    let file = File::create(path)?;
    write_edge_list(graph, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn read_basic_edge_list() {
        let text = "0 1 0.5\n1 2 0.25\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_probability(1, 2), Some(0.25));
    }

    #[test]
    fn read_skips_comments_and_blank_lines() {
        let text = "# header\n\n% more\n  \t\n0 1 0.5\n  # indented comment\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn read_two_column_lines_default_to_certain_edges() {
        let text = "0 1\n1 2 0.3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_probability(0, 1), Some(1.0));
        assert_eq!(g.edge_probability(1, 2), Some(0.3));
    }

    #[test]
    fn read_rejects_bad_lines() {
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("a b 0.5\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 0.5 9\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 1.5\n".as_bytes()).is_err());
        assert!(read_edge_list("3 3 0.5\n".as_bytes()).is_err());
    }

    #[test]
    fn self_loops_and_duplicates_are_typed_errors() {
        assert!(matches!(
            read_edge_list("4 4 0.5\n".as_bytes()).unwrap_err(),
            GraphError::SelfLoop { vertex: 4 }
        ));
        // A duplicate is rejected even when listed in the other
        // orientation or with a different probability.
        assert!(matches!(
            read_edge_list("0 1 0.5\n1 0 0.9\n".as_bytes()).unwrap_err(),
            GraphError::DuplicateEdge { edge: (0, 1) }
        ));
        assert!(matches!(
            read_edge_list("2 3\n2 3\n".as_bytes()).unwrap_err(),
            GraphError::DuplicateEdge { edge: (2, 3) }
        ));
    }

    #[test]
    fn merge_identical_accepts_directed_snap_listings() {
        // Directed SNAP file: both orientations, consistent values.
        let text = "0 1\n1 0\n1 2 0.5\n2 1 0.5\n0 2 0.25\n";
        let g = read_edge_list_with_policy(
            text.as_bytes(),
            &EdgeProbabilityModel::Column,
            DuplicatePolicy::MergeIdentical,
        )
        .unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_probability(0, 1), Some(1.0));
        assert_eq!(g.edge_probability(1, 2), Some(0.5));

        // Conflicting repeats are still typed errors.
        assert!(matches!(
            read_edge_list_with_policy(
                "0 1 0.5\n1 0 0.9\n".as_bytes(),
                &EdgeProbabilityModel::Column,
                DuplicatePolicy::MergeIdentical,
            )
            .unwrap_err(),
            GraphError::DuplicateEdge { edge: (0, 1) }
        ));
        // A bare repeat of a valued row conflicts too.
        assert!(read_edge_list_with_policy(
            "0 1 0.5\n1 0\n".as_bytes(),
            &EdgeProbabilityModel::Column,
            DuplicatePolicy::MergeIdentical,
        )
        .is_err());
    }

    #[test]
    fn merge_identical_draws_seeded_probabilities_once_per_edge() {
        let model = EdgeProbabilityModel::UniformSeeded {
            seed: 5,
            low: 0.1,
            high: 0.9,
        };
        // The duplicate must not advance the RNG stream: both inputs see
        // the same draws for (0,1) and (2,3).
        let a = read_edge_list_with_policy(
            "0 1\n1 0\n2 3\n".as_bytes(),
            &model,
            DuplicatePolicy::MergeIdentical,
        )
        .unwrap();
        let b =
            read_edge_list_with_policy("0 1\n2 3\n".as_bytes(), &model, DuplicatePolicy::Reject)
                .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_probability_is_typed() {
        assert!(matches!(
            read_edge_list("0 1 0\n".as_bytes()).unwrap_err(),
            GraphError::InvalidProbability { .. }
        ));
        assert!(matches!(
            read_edge_list("0 1 -0.5\n".as_bytes()).unwrap_err(),
            GraphError::InvalidProbability { .. }
        ));
    }

    #[test]
    fn parse_error_reports_line_number() {
        let err = read_edge_list("0 1 0.5\nbroken\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn probability_model_overrides_the_column() {
        let text = "0 1 0.5\n1 2\n";
        let g =
            read_edge_list_with(text.as_bytes(), &EdgeProbabilityModel::Constant(0.25)).unwrap();
        assert_eq!(g.edge_probability(0, 1), Some(0.25));
        assert_eq!(g.edge_probability(1, 2), Some(0.25));
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.125).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        let g = b.build();

        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_round_trip() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(2, 3, 0.75).unwrap();
        let g = b.build();
        let dir = std::env::temp_dir();
        let path = dir.join("ugraph_io_round_trip_test.txt");
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g, g2);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list_file("/nonexistent/definitely/missing.txt").unwrap_err();
        assert!(matches!(
            err,
            GraphError::Io {
                kind: io::ErrorKind::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn non_utf8_line_is_invalid_data() {
        let err = read_edge_list(&b"0 1 0.5\n1 \xff 0.5\n"[..]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Io {
                kind: io::ErrorKind::InvalidData,
                ..
            }
        ));
        assert_eq!(
            err.to_string(),
            "I/O error: stream did not contain valid UTF-8"
        );
    }
}
