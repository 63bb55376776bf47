//! Error type shared by all graph-construction and I/O operations.

use std::fmt;

/// Errors produced while building, loading, or manipulating an
/// [`UncertainGraph`](crate::UncertainGraph).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge probability was outside the half-open interval `(0, 1]`.
    InvalidProbability {
        /// Endpoints of the offending edge.
        edge: (u32, u32),
        /// The probability that was rejected.
        probability: f64,
    },
    /// A self-loop `(v, v)` was supplied where simple graphs are required.
    SelfLoop {
        /// The vertex of the self-loop.
        vertex: u32,
    },
    /// A vertex identifier referenced a vertex that does not exist.
    VertexOutOfBounds {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices in the graph.
        num_vertices: usize,
    },
    /// An edge `(u, v)` that was expected to exist is absent.
    MissingEdge {
        /// Endpoints of the missing edge.
        edge: (u32, u32),
    },
    /// An edge `{u, v}` appeared more than once where the input format
    /// requires each undirected edge to be listed exactly once.
    DuplicateEdge {
        /// Endpoints of the repeated edge, canonical `u < v`.
        edge: (u32, u32),
    },
    /// A textual edge-list line could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A binary `.ugsnap` snapshot could not be decoded.
    Snapshot(SnapshotError),
    /// A structure count overflowed the packed 32-bit id space.
    IdOverflow(IdOverflow),
    /// Wrapper around I/O failures while reading or writing edge lists.
    Io {
        /// The kind of the wrapped [`std::io::Error`], so callers can
        /// tell a missing file from invalid data without parsing text.
        kind: std::io::ErrorKind,
        /// The wrapped error's message.
        message: String,
    },
}

/// A structure count exceeded the 32-bit id space the packed records
/// use.
///
/// Triangles, 4-cliques and edges are addressed by dense `u32` ids
/// (half the memory of `usize` on 64-bit targets — the difference
/// between fitting a million-edge index in RAM or not).  The narrowing
/// from `usize` counts happens only through [`checked_id`], which
/// produces this typed error instead of silently wrapping past `2^32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdOverflow {
    /// What kind of id overflowed (`"triangle"`, `"4-clique"`, …).
    pub kind: &'static str,
    /// The index that did not fit.
    pub value: u64,
}

impl fmt::Display for IdOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} index {} exceeds the 32-bit id space",
            self.kind, self.value
        )
    }
}

impl std::error::Error for IdOverflow {}

impl From<IdOverflow> for GraphError {
    fn from(err: IdOverflow) -> Self {
        GraphError::IdOverflow(err)
    }
}

/// Checked narrowing of a `usize` index into a dense `u32` id.
///
/// The single gate every packed-id constructor goes through: returns
/// [`IdOverflow`] for indices past `u32::MAX` instead of truncating.
pub fn checked_id(kind: &'static str, index: usize) -> Result<u32, IdOverflow> {
    u32::try_from(index).map_err(|_| IdOverflow {
        kind,
        value: index as u64,
    })
}

/// Reasons a `.ugsnap` binary snapshot is rejected by
/// [`io::read_snapshot`](crate::io::read_snapshot).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The input ended before the declared payload (or is shorter than the
    /// fixed header).
    Truncated {
        /// Bytes the snapshot should occupy given its header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The first eight bytes are not the `UGSNAP\r\n` magic.
    BadMagic,
    /// The header declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The payload decoded but violates a structural invariant (offsets
    /// not monotone, neighbour out of bounds, non-canonical edge table…).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated snapshot: expected {expected} bytes, got {actual}"
                )
            }
            SnapshotError::BadMagic => write!(f, "missing UGSNAP magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidProbability { edge, probability } => write!(
                f,
                "edge ({}, {}) has invalid probability {probability}; expected p in (0, 1]",
                edge.0, edge.1
            ),
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed")
            }
            GraphError::VertexOutOfBounds {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is out of bounds for a graph with {num_vertices} vertices"
            ),
            GraphError::MissingEdge { edge } => {
                write!(f, "edge ({}, {}) does not exist", edge.0, edge.1)
            }
            GraphError::DuplicateEdge { edge } => {
                write!(f, "edge ({}, {}) is listed more than once", edge.0, edge.1)
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Snapshot(err) => write!(f, "snapshot error: {err}"),
            GraphError::IdOverflow(err) => write!(f, "id overflow: {err}"),
            GraphError::Io { message, .. } => write!(f, "I/O error: {message}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<SnapshotError> for GraphError {
    fn from(err: SnapshotError) -> Self {
        GraphError::Snapshot(err)
    }
}

impl From<std::io::Error> for GraphError {
    fn from(err: std::io::Error) -> Self {
        GraphError::Io {
            kind: err.kind(),
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_probability() {
        let err = GraphError::InvalidProbability {
            edge: (1, 2),
            probability: 1.5,
        };
        let text = err.to_string();
        assert!(text.contains("(1, 2)"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn display_self_loop() {
        let err = GraphError::SelfLoop { vertex: 7 };
        assert!(err.to_string().contains("7"));
    }

    #[test]
    fn display_out_of_bounds() {
        let err = GraphError::VertexOutOfBounds {
            vertex: 10,
            num_vertices: 5,
        };
        let text = err.to_string();
        assert!(text.contains("10") && text.contains("5"));
    }

    #[test]
    fn display_missing_edge_and_parse() {
        assert!(GraphError::MissingEdge { edge: (3, 4) }
            .to_string()
            .contains("(3, 4)"));
        let parse = GraphError::Parse {
            line: 12,
            message: "bad token".to_string(),
        };
        assert!(parse.to_string().contains("line 12"));
    }

    #[test]
    fn display_duplicate_edge() {
        let err = GraphError::DuplicateEdge { edge: (2, 9) };
        assert!(err.to_string().contains("(2, 9)"));
    }

    #[test]
    fn display_snapshot_errors() {
        let cases: Vec<(SnapshotError, &str)> = vec![
            (
                SnapshotError::Truncated {
                    expected: 100,
                    actual: 10,
                },
                "100",
            ),
            (SnapshotError::BadMagic, "magic"),
            (SnapshotError::UnsupportedVersion(9), "9"),
            (
                SnapshotError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "mismatch",
            ),
            (
                SnapshotError::Corrupt("bad offsets".to_string()),
                "bad offsets",
            ),
        ];
        for (err, needle) in cases {
            let wrapped: GraphError = err.into();
            let text = wrapped.to_string();
            assert!(text.contains(needle), "{text}");
            assert!(text.contains("snapshot"));
        }
    }

    #[test]
    fn checked_id_narrows_and_overflows_typed() {
        assert_eq!(checked_id("triangle", 0), Ok(0));
        assert_eq!(checked_id("triangle", u32::MAX as usize), Ok(u32::MAX));
        let err = checked_id("4-clique", u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind, "4-clique");
        assert_eq!(err.value, u32::MAX as u64 + 1);
        let wrapped: GraphError = err.into();
        let text = wrapped.to_string();
        assert!(
            text.contains("4-clique") && text.contains("32-bit"),
            "{text}"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let err: GraphError = io.into();
        assert!(matches!(
            err,
            GraphError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }
        ));
        assert_eq!(err.to_string(), "I/O error: nope");
    }
}
