//! Error type for the probabilistic nucleus decomposition.

use std::fmt;

/// Why a θ grid was rejected by [`SweepConfig`](crate::config::SweepConfig)
/// validation.  Each malformed mode is its own variant so callers (and
/// tests) can distinguish an empty grid from an unsorted one without
/// string matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThetaGridError {
    /// The grid has no entries.
    Empty,
    /// An entry is NaN.
    NaN {
        /// Position of the offending entry.
        index: usize,
    },
    /// An entry is outside the valid threshold range `(0, 1]`.
    OutOfRange {
        /// Position of the offending entry.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// An entry is smaller than its predecessor (the grid must be sorted
    /// ascending).
    NotSorted {
        /// Position of the entry that breaks the order.
        index: usize,
    },
    /// An entry equals its predecessor (grid points must be distinct).
    Duplicate {
        /// Position of the repeated entry.
        index: usize,
        /// The repeated value.
        value: f64,
    },
}

impl fmt::Display for ThetaGridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThetaGridError::Empty => write!(f, "theta grid is empty"),
            ThetaGridError::NaN { index } => {
                write!(f, "theta grid entry {index} is NaN")
            }
            ThetaGridError::OutOfRange { index, value } => {
                write!(f, "theta grid entry {index} is {value}, outside (0, 1]")
            }
            ThetaGridError::NotSorted { index } => {
                write!(
                    f,
                    "theta grid entry {index} is smaller than its predecessor \
                     (grid must be sorted ascending)"
                )
            }
            ThetaGridError::Duplicate { index, value } => {
                write!(f, "theta grid entry {index} duplicates the value {value}")
            }
        }
    }
}

/// Errors produced by the decomposition algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum NucleusError {
    /// A threshold parameter was outside its valid range.
    InvalidThreshold {
        /// Name of the parameter (`theta`, `epsilon`, `delta`, …).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A θ grid handed to the sweep engine was malformed.
    InvalidThetaGrid(ThetaGridError),
    /// The requested scoring method is not available at the requested
    /// rank of the (r,s)-nucleus family (the hybrid statistical
    /// approximations are calibrated for (3,4) only).
    UnsupportedMethod {
        /// The requested rank (`core`, `truss`, `nucleus`).
        rank: &'static str,
        /// The rejected scoring method.
        method: &'static str,
    },
    /// An operation was issued against a support handle, sweep or index
    /// built for a different rank of the (r,s)-nucleus family (e.g. a
    /// nucleus extraction against a truss sweep).
    RankMismatch {
        /// The rank the operation requires (`core`, `truss`, `nucleus`).
        expected: &'static str,
        /// The rank the handle was built for.
        got: &'static str,
    },
    /// A threshold queried on a sweep is not one of its grid points
    /// (sweep lookups are exact-match only).
    ThresholdOffGrid {
        /// Conventional name of the threshold (`eta`, `gamma`, `theta`).
        name: &'static str,
        /// The requested off-grid value.
        value: f64,
    },
    /// The requested operation needs an exhaustive enumeration of possible
    /// worlds, but the graph has too many edges.
    GraphTooLargeForExact {
        /// Number of edges of the offending graph.
        num_edges: usize,
        /// Maximum number of edges supported.
        max_edges: usize,
    },
    /// A precomputed local decomposition handed to the global or
    /// weakly-global algorithm was computed at a different θ than the
    /// algorithm's configuration, so its candidate space would be wrong.
    LocalThetaMismatch {
        /// θ of the global or weakly-global configuration.
        expected: f64,
        /// θ the local decomposition was computed with.
        got: f64,
    },
    /// A referenced triangle does not exist in the graph.
    UnknownTriangle {
        /// The vertices of the missing triangle.
        vertices: [u32; 3],
    },
    /// Propagated graph error.
    Graph(ugraph::GraphError),
    /// An edge-update batch was rejected before any state was modified.
    Update(ugraph::UpdateError),
}

impl fmt::Display for NucleusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NucleusError::InvalidThreshold { name, value } => {
                write!(f, "invalid value {value} for parameter '{name}'")
            }
            NucleusError::InvalidThetaGrid(e) => write!(f, "invalid theta grid: {e}"),
            NucleusError::UnsupportedMethod { rank, method } => write!(
                f,
                "scoring method '{method}' is not supported by the {rank} decomposition"
            ),
            NucleusError::RankMismatch { expected, got } => write!(
                f,
                "operation requires a {expected}-rank handle, but this one was built for {got}"
            ),
            NucleusError::ThresholdOffGrid { name, value } => write!(
                f,
                "{name} = {value} is not a grid point of this sweep (lookups are exact-match)"
            ),
            NucleusError::GraphTooLargeForExact {
                num_edges,
                max_edges,
            } => write!(
                f,
                "exact possible-world enumeration supports at most {max_edges} edges, got {num_edges}"
            ),
            NucleusError::LocalThetaMismatch { expected, got } => write!(
                f,
                "the local decomposition was computed at theta = {got}, \
                 but the configuration asks for theta = {expected}"
            ),
            NucleusError::UnknownTriangle { vertices } => write!(
                f,
                "triangle ({}, {}, {}) does not exist in the graph",
                vertices[0], vertices[1], vertices[2]
            ),
            NucleusError::Graph(e) => write!(f, "graph error: {e}"),
            NucleusError::Update(e) => write!(f, "update rejected: {e}"),
        }
    }
}

impl std::error::Error for NucleusError {}

impl From<ugraph::GraphError> for NucleusError {
    fn from(e: ugraph::GraphError) -> Self {
        NucleusError::Graph(e)
    }
}

impl From<ugraph::UpdateError> for NucleusError {
    fn from(e: ugraph::UpdateError) -> Self {
        NucleusError::Update(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NucleusError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NucleusError::InvalidThreshold {
            name: "theta",
            value: 1.5,
        };
        assert!(e.to_string().contains("theta"));

        let e = NucleusError::GraphTooLargeForExact {
            num_edges: 100,
            max_edges: 24,
        };
        assert!(e.to_string().contains("100"));

        let e = NucleusError::UnknownTriangle {
            vertices: [1, 2, 3],
        };
        assert!(e.to_string().contains("(1, 2, 3)"));

        let g: NucleusError = ugraph::GraphError::SelfLoop { vertex: 4 }.into();
        assert!(g.to_string().contains("graph error"));

        let e = NucleusError::RankMismatch {
            expected: "nucleus",
            got: "truss",
        };
        assert!(e.to_string().contains("nucleus"));
        assert!(e.to_string().contains("truss"));

        let e = NucleusError::LocalThetaMismatch {
            expected: 0.25,
            got: 0.5,
        };
        assert!(e.to_string().contains("0.25"));
        assert!(e.to_string().contains("0.5"));

        let e = NucleusError::ThresholdOffGrid {
            name: "theta",
            value: 0.33,
        };
        assert!(e.to_string().contains("0.33"));
        assert!(e.to_string().contains("theta"));

        let u: NucleusError = ugraph::UpdateError::EdgeMissing {
            index: 3,
            edge: (1, 2),
        }
        .into();
        assert!(u.to_string().starts_with("update rejected:"));
        assert!(u.to_string().contains('3'));
    }

    #[test]
    fn theta_grid_display_messages() {
        let cases: [(ThetaGridError, &str); 5] = [
            (ThetaGridError::Empty, "empty"),
            (ThetaGridError::NaN { index: 2 }, "NaN"),
            (
                ThetaGridError::OutOfRange {
                    index: 1,
                    value: 1.5,
                },
                "outside (0, 1]",
            ),
            (ThetaGridError::NotSorted { index: 3 }, "sorted"),
            (
                ThetaGridError::Duplicate {
                    index: 1,
                    value: 0.5,
                },
                "duplicates",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
            let wrapped = NucleusError::InvalidThetaGrid(e);
            assert!(wrapped.to_string().starts_with("invalid theta grid:"));
        }
    }
}
