//! Konect-style TSV edge lists.
//!
//! The [Konect](http://konect.cc) collection distributes graphs as
//! `out.*` TSV files: `%`-prefixed header/comment lines, then one edge
//! per line as `u v [weight [timestamp]]`, tab or space separated.  Two
//! properties distinguish the format from SNAP edge lists:
//!
//! * the third column is a *weight* (multiplicity, rating, count), not a
//!   probability, and
//! * the same edge may legitimately appear on many lines (temporal
//!   multi-edges); occurrences are aggregated by **summing weights**, so a
//!   repeated collaboration strengthens the edge exactly as the paper's
//!   exponential weight→probability treatment of DBLP expects.
//!
//! The aggregated weight is handed to the [`EdgeProbabilityModel`]; with
//! [`EdgeProbabilityModel::Column`] the (summed) weight must itself be a
//! valid probability.  Self-loops are rejected with a typed error.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::UncertainGraph;
use crate::io::prob_model::EdgeProbabilityModel;
use crate::Result;

/// Reads a Konect-style TSV from any reader.
///
/// # Example
///
/// ```
/// use ugraph::io::EdgeProbabilityModel;
///
/// // Two joint papers between 1 and 2, one between 2 and 3.
/// let text = "% sym positive\n1\t2\t1\t1091000000\n2\t3\n1\t2\t1\t1112000000\n";
/// let g = ugraph::io::read_konect(
///     text.as_bytes(),
///     &EdgeProbabilityModel::ExponentialWeight { scale: 5.0 },
/// )
/// .unwrap();
/// assert_eq!(g.num_edges(), 2);
/// // The doubled weight makes the (1, 2) edge more probable.
/// assert!(g.edge_probability(1, 2) > g.edge_probability(2, 3));
/// ```
pub fn read_konect<R: Read>(reader: R, model: &EdgeProbabilityModel) -> Result<UncertainGraph> {
    let reader = BufReader::new(reader);
    // First-occurrence order plus aggregated weights: iteration must not
    // depend on HashMap order or seeded models would be nondeterministic.
    let mut order: Vec<(u32, u32)> = Vec::new();
    let mut weights: HashMap<(u32, u32), (f64, bool)> = HashMap::new();
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = line_no + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u = parse_vertex(parts.next(), line_no, "source vertex")?;
        let v = parse_vertex(parts.next(), line_no, "target vertex")?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let weight = match parts.next() {
            Some(tok) => {
                let w = tok.parse::<f64>().map_err(|_| GraphError::Parse {
                    line: line_no,
                    message: format!("invalid weight '{tok}'"),
                })?;
                Some(w)
            }
            None => None,
        };
        // Column 4 is a timestamp; ignore it, but reject wider rows.
        let _timestamp = parts.next();
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "expected at most four columns (u v weight timestamp)".to_string(),
            });
        }
        let key = (u.min(v), u.max(v));
        let entry = weights.entry(key);
        match entry {
            std::collections::hash_map::Entry::Vacant(slot) => {
                order.push(key);
                slot.insert((weight.unwrap_or(1.0), weight.is_some()));
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let (total, explicit) = slot.get_mut();
                *total += weight.unwrap_or(1.0);
                *explicit = *explicit || weight.is_some();
            }
        }
    }

    let mut builder = GraphBuilder::new();
    let mut assigner = model.assigner();
    for key in order {
        let (total, explicit) = weights[&key];
        // Weightless multi-edges still aggregate: each occurrence counts 1.
        let value = if explicit || total != 1.0 {
            Some(total)
        } else {
            None
        };
        let p = assigner.probability(key, value)?;
        builder.add_edge(key.0, key.1, p)?;
    }
    Ok(builder.build())
}

fn parse_vertex(token: Option<&str>, line: usize, what: &str) -> Result<u32> {
    let tok = token.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    tok.parse::<u32>().map_err(|_| GraphError::Parse {
        line,
        message: format!("invalid {what} '{tok}'"),
    })
}

/// Reads a Konect-style TSV from a file path.
pub fn read_konect_file<P: AsRef<Path>>(
    path: P,
    model: &EdgeProbabilityModel,
) -> Result<UncertainGraph> {
    let file = File::open(path)?;
    read_konect(file, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_model() -> EdgeProbabilityModel {
        EdgeProbabilityModel::ExponentialWeight { scale: 5.0 }
    }

    #[test]
    fn parses_tabs_comments_and_default_weights() {
        let text = "% asym\n% 3 3\n1\t2\n2\t3\t4\n\n";
        let g = read_konect(text.as_bytes(), &exp_model()).unwrap();
        assert_eq!(g.num_edges(), 2);
        let p1 = g.edge_probability(1, 2).unwrap();
        let p4 = g.edge_probability(2, 3).unwrap();
        assert!((p1 - (1.0 - (-1.0f64 / 5.0).exp())).abs() < 1e-12);
        assert!((p4 - (1.0 - (-4.0f64 / 5.0).exp())).abs() < 1e-12);
    }

    #[test]
    fn duplicate_lines_aggregate_weights() {
        // Three occurrences of {1,2}: weights 1 (implicit) + 2 + 1 = 4.
        let text = "1 2\n2 1 2\n1 2 1 1091000000\n";
        let g = read_konect(text.as_bytes(), &exp_model()).unwrap();
        assert_eq!(g.num_edges(), 1);
        let p = g.edge_probability(1, 2).unwrap();
        assert!((p - (1.0 - (-4.0f64 / 5.0).exp())).abs() < 1e-12);
    }

    #[test]
    fn column_model_requires_probability_weights() {
        let ok = read_konect("1 2 0.5\n".as_bytes(), &EdgeProbabilityModel::Column).unwrap();
        assert_eq!(ok.edge_probability(1, 2), Some(0.5));
        // Aggregated 0.5 + 0.8 = 1.3 is not a probability.
        let err = read_konect(
            "1 2 0.5\n1 2 0.8\n".as_bytes(),
            &EdgeProbabilityModel::Column,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability { .. }));
    }

    #[test]
    fn rejects_malformed_rows() {
        let m = exp_model();
        assert!(matches!(
            read_konect("5 5\n".as_bytes(), &m).unwrap_err(),
            GraphError::SelfLoop { vertex: 5 }
        ));
        assert!(read_konect("1\n".as_bytes(), &m).is_err());
        assert!(read_konect("a 2\n".as_bytes(), &m).is_err());
        assert!(read_konect("1 2 x\n".as_bytes(), &m).is_err());
        assert!(read_konect("1 2 1 1 1\n".as_bytes(), &m).is_err());
    }

    #[test]
    fn aggregation_order_is_first_occurrence() {
        // With a seeded uniform model the probabilities depend only on
        // first-occurrence order, so permuting *later* duplicates must not
        // change the result.
        let model = EdgeProbabilityModel::UniformSeeded {
            seed: 3,
            low: 0.1,
            high: 0.9,
        };
        let a = read_konect("1 2\n3 4\n1 2\n".as_bytes(), &model).unwrap();
        let b = read_konect("1 2\n3 4\n3 4\n".as_bytes(), &model).unwrap();
        assert_eq!(a.edge_probability(1, 2), b.edge_probability(1, 2));
        assert_eq!(a.edge_probability(3, 4), b.edge_probability(3, 4));
    }

    #[test]
    fn file_reader_reports_missing_files() {
        let err = read_konect_file("/nonexistent/missing.tsv", &exp_model()).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }
        ));
    }
}
