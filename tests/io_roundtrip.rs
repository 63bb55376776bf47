//! Property-based round-trips for every IO format, plus malformed-input
//! coverage: each failure mode must surface as a typed
//! `ugraph::GraphError`, never a panic.
//!
//! * text: graph → edge list → graph is the identity (f64 `Display`
//!   round-trips exactly in Rust), and re-serializing the re-parsed graph
//!   reproduces the text;
//! * snapshot: graph → `.ugsnap` → graph is bit-identical, and the
//!   encoding is canonical (equal graphs produce equal bytes);
//! * konect: a graph serialized as weighted TSV re-parses identically
//!   under the column model;
//! * the sorting SNAP reader agrees with a line-at-a-time reference on
//!   random texts with injected faults: the same graph or the same error;
//! * the streaming snapshot file readers fail exactly as the byte reader
//!   does on truncated, corrupted and over-long files.

use proptest::prelude::*;

use prob_nucleus_repro::ugraph::io::{
    open_snapshot, read_edge_list, read_edge_list_with_policy, read_konect, read_snapshot_bytes,
    read_snapshot_file, read_snapshot_file_tagged, write_edge_list, write_snapshot,
    DuplicatePolicy, EdgeProbabilityModel,
};
use prob_nucleus_repro::ugraph::{Edge, GraphBuilder, GraphError, SnapshotError, UncertainGraph};

/// Writes `bytes` to a unique temp file and returns its path; callers
/// remove it when done.
fn temp_snapshot(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "nd_io_roundtrip_{tag}_{}_{}.ugsnap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Strategy: a random probabilistic graph built from an arbitrary subset
/// of vertex pairs with arbitrary valid probabilities.
fn arb_graph(max_v: u32) -> impl Strategy<Value = UncertainGraph> {
    (2..=max_v)
        .prop_flat_map(move |n| {
            let pairs: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            let m = pairs.len();
            (
                Just(pairs),
                proptest::collection::vec(0.0f64..1.0, m),
                // Probabilities over the full legal range (0, 1],
                // including exactly 1.0 and awkward tiny values.
                proptest::collection::vec(1e-9f64..=1.0, m),
            )
        })
        .prop_map(|(pairs, coin, probs)| {
            let mut b = GraphBuilder::new();
            for (i, (u, v)) in pairs.into_iter().enumerate() {
                if coin[i] < 0.45 {
                    b.add_edge(u, v, probs[i]).unwrap();
                }
            }
            b.build()
        })
}

fn to_text(graph: &UncertainGraph) -> String {
    let mut buf = Vec::new();
    write_edge_list(graph, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn to_snapshot(graph: &UncertainGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(graph, &mut buf).unwrap();
    buf
}

/// Separators between fields: every Unicode White_Space the reader must
/// split on, ASCII and not.
const SEPARATORS: [&str; 8] = [
    " ", "\t", "  ", " \t ", "\x0B", "\x0C", "\u{00A0}", "\u{3000}",
];

/// Value columns: the first eight are valid probabilities (four spell
/// the same 0.5), the rest are not (though some are valid weights).
const VALUES: [&str; 13] = [
    "0.5", "+0.5", "5e-1", ".5", "0.25", "1", "0.125", "1e-300", "1.5", "0", "-0.5", "nan", "-0",
];

/// Lines that are wrong on their own, whatever came before them.
const FAULTS: [&[u8]; 10] = [
    b"0 1 0.5 9",
    b"a b",
    b"0 x 0.5",
    b"1 2 0.5x",
    b"4294967296 1",
    b"3 3 0.5",
    b"5",
    b"+ 1",
    b"0 1 \xff",
    b"# comment \xc3",
];

/// Renders raw draws into an edge-list text: data lines over a few
/// vertices (so repeats are common, in both orientations, with equal and
/// with differing values), comments, blank lines, awkward whitespace,
/// CRLF endings and — when `faults` allows — lines that are wrong on
/// their own.  `faults`: 0 = none, 1 = invalid values, 2 = also bad lines.
fn render_text(lines: &[(u32, u32, u32, u32, u32)], faults: u32) -> Vec<u8> {
    let mut text = Vec::new();
    let mut data: Vec<(u32, u32, usize)> = Vec::new();
    let value_count = if faults == 0 { 8 } else { VALUES.len() };
    for &(kind, a, b, c, d) in lines {
        let sep = SEPARATORS[d as usize % SEPARATORS.len()];
        let mut line = String::new();
        if d & 8 != 0 {
            line.push_str(sep);
        }
        let field_line = |u: u32, v: u32, value: usize, line: &mut String| {
            line.push_str(&format!("{u}{sep}{v}"));
            if value < value_count {
                line.push_str(sep);
                line.push_str(VALUES[value]);
            }
        };
        match kind {
            // A data line (value index past `value_count` = no value).
            0..=54 => {
                let (u, v) = (a % 8, (a % 8 + 1 + b % 7) % 8);
                let value = c as usize % (value_count + 3);
                field_line(u, v, value, &mut line);
                data.push((u, v, value));
            }
            // A repeat of an earlier data line, either orientation, with
            // the same value or another one.
            55..=69 if !data.is_empty() => {
                let (u, v, value) = data[a as usize % data.len()];
                let (u, v) = if b % 2 == 0 { (u, v) } else { (v, u) };
                let value = if c < 8 {
                    value
                } else {
                    c as usize % (value_count + 3)
                };
                field_line(u, v, value, &mut line);
            }
            // A `+`-signed data line.
            55..=72 => line.push_str(&format!("+{}{sep}+{}", a % 8 + 10, b % 8 + 20)),
            73..=78 => line.push_str(if a % 2 == 0 { "# comment" } else { "% 3 3" }),
            79..=84 => {}
            _ if faults == 2 => {
                text.extend_from_slice(line.as_bytes());
                text.extend_from_slice(FAULTS[a as usize % FAULTS.len()]);
                text.extend_from_slice(if d & 4 != 0 { b"\r\n" } else { b"\n" });
                continue;
            }
            _ => line.push_str(&format!("{}{sep}{}", a % 8 + 30, b % 8 + 40)),
        }
        if d & 16 != 0 {
            line.push_str(sep);
        }
        text.extend_from_slice(line.as_bytes());
        text.extend_from_slice(if d & 4 != 0 { b"\r\n" } else { b"\n" });
    }
    text
}

/// Serves `bytes` in `chunk`-byte reads, then fails with an I/O error at
/// byte `fail_at` if it lies inside the input.
struct ChunkedReader<'a> {
    bytes: &'a [u8],
    at: usize,
    chunk: usize,
    fail_at: usize,
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at >= self.fail_at && self.at < self.bytes.len() {
            return Err(std::io::Error::other("injected read failure"));
        }
        let end = self
            .bytes
            .len()
            .min(self.at + self.chunk.min(buf.len()))
            .min(self.fail_at.max(self.at + 1));
        let n = end - self.at;
        buf[..n].copy_from_slice(&self.bytes[self.at..end]);
        self.at = end;
        Ok(n)
    }
}

/// The line-at-a-time reader, kept as the reference the sorting reader
/// must agree with: `BufRead::lines`, a `seen` map checked per line,
/// the probability model on each first occurrence.  Returns the
/// canonical edge table and the vertex count.
fn reference_read<R: std::io::Read>(
    reader: R,
    model: &EdgeProbabilityModel,
    policy: DuplicatePolicy,
) -> Result<(Vec<Edge>, usize), GraphError> {
    use std::collections::BTreeMap;
    use std::io::BufRead;

    let field = |tok: Option<&str>, line: usize, what: &str| -> Result<u32, GraphError> {
        let tok = tok.ok_or_else(|| GraphError::Parse {
            line,
            message: format!("missing {what}"),
        })?;
        tok.parse::<u32>().map_err(|_| GraphError::Parse {
            line,
            message: format!("invalid {what} '{tok}'"),
        })
    };
    let mut assigner = model.assigner();
    let mut seen: BTreeMap<(u32, u32), Option<u64>> = BTreeMap::new();
    let mut table: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (index, line) in std::io::BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let line_no = index + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u = field(parts.next(), line_no, "source vertex")?;
        let v = field(parts.next(), line_no, "target vertex")?;
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
        let key = (u.min(v), u.max(v));
        let bits = value.map(f64::to_bits);
        if let Some(&previous) = seen.get(&key) {
            match policy {
                DuplicatePolicy::MergeIdentical if previous == bits => continue,
                _ => return Err(GraphError::DuplicateEdge { edge: key }),
            }
        }
        seen.insert(key, bits);
        table.insert(key, assigner.probability(key, value)?);
    }
    let n = table
        .keys()
        .map(|&(_, v)| v as usize + 1)
        .max()
        .unwrap_or(0);
    let edges = table
        .into_iter()
        .map(|((u, v), p)| Edge { u, v, p })
        .collect();
    Ok((edges, n))
}

/// An error as a comparable string; probabilities compare by their bits
/// (NaN never equals itself).
fn error_key(error: &GraphError) -> String {
    match error {
        GraphError::InvalidProbability { edge, probability } => {
            format!("InvalidProbability {edge:?} {:#x}", probability.to_bits())
        }
        other => format!("{other:?}"),
    }
}

/// `graph` holds exactly `table` (bit for bit) over `n` vertices, and
/// each adjacency run is the one rebuilt from the table independently.
fn assert_graph_is_table(graph: &UncertainGraph, table: &[Edge], n: usize) {
    assert_eq!(graph.num_vertices(), n);
    let got: Vec<(u32, u32, u64)> = graph
        .edges()
        .iter()
        .map(|e| (e.u, e.v, e.p.to_bits()))
        .collect();
    let want: Vec<(u32, u32, u64)> = table.iter().map(|e| (e.u, e.v, e.p.to_bits())).collect();
    assert_eq!(got, want);
    let mut runs: Vec<Vec<(u32, u64, u32)>> = vec![Vec::new(); n];
    for (id, e) in table.iter().enumerate() {
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

/// The file readers must fail on `bytes` exactly as the byte reader did.
fn assert_file_readers_fail_alike(bytes: &[u8], expected: &GraphError) {
    let path = temp_snapshot("file_err", bytes);
    let plain = read_snapshot_file(&path).unwrap_err();
    let tagged = read_snapshot_file_tagged(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert_eq!(&plain, expected);
    assert_eq!(&tagged, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// text → graph → text and graph → text → graph are identities.
    #[test]
    fn text_round_trip_is_identity(g in arb_graph(12)) {
        prop_assume!(g.num_edges() > 0);
        let text = to_text(&g);
        let reparsed = read_edge_list(text.as_bytes()).unwrap();
        prop_assert_eq!(&reparsed, &g);
        for (a, b) in g.edges().iter().zip(reparsed.edges()) {
            prop_assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
        // Second serialization is byte-identical: text form is canonical.
        prop_assert_eq!(to_text(&reparsed), text);
    }

    /// graph → snapshot → graph is bit-identical, and the encoding is
    /// canonical.
    #[test]
    fn snapshot_round_trip_is_identity(g in arb_graph(12)) {
        let bytes = to_snapshot(&g);
        let reloaded = read_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(&reloaded, &g);
        for (a, b) in g.edges().iter().zip(reloaded.edges()) {
            prop_assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
        prop_assert_eq!(to_snapshot(&reloaded), bytes);
    }

    /// A graph serialized as Konect-style weighted TSV re-parses
    /// identically under the column model.
    #[test]
    fn konect_round_trip_is_identity(g in arb_graph(12)) {
        prop_assume!(g.num_edges() > 0);
        let mut tsv = String::from("% ugraph konect round-trip\n");
        for e in g.edges() {
            tsv.push_str(&format!("{}\t{}\t{}\n", e.u, e.v, e.p));
        }
        let reparsed = read_konect(tsv.as_bytes(), &EdgeProbabilityModel::Column).unwrap();
        prop_assert_eq!(&reparsed, &g);
    }

    /// Truncating a snapshot anywhere yields a typed error, never a panic
    /// or a wrong graph — the same one from the byte and file readers.
    #[test]
    fn truncated_snapshots_error_cleanly(g in arb_graph(8), cut in 0.0f64..1.0) {
        let bytes = to_snapshot(&g);
        let len = ((bytes.len() - 1) as f64 * cut) as usize;
        let err = read_snapshot_bytes(&bytes[..len]).unwrap_err();
        prop_assert!(matches!(
            err,
            GraphError::Snapshot(
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            )
        ), "{err:?}");
        assert_file_readers_fail_alike(&bytes[..len], &err);
    }

    /// Flipping any single byte of a snapshot is detected, with the same
    /// error from the byte and file readers.
    #[test]
    fn corrupted_snapshots_error_cleanly(g in arb_graph(8), pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = to_snapshot(&g);
        let at = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[at] ^= 1 << bit;
        let err = read_snapshot_bytes(&bytes).expect_err("a flipped bit must be detected");
        assert_file_readers_fail_alike(&bytes, &err);
    }

    /// Bytes after the checksum are refused, with the same error from the
    /// byte and file readers.
    #[test]
    fn overlong_snapshots_error_cleanly(g in arb_graph(8), extra in 1usize..24) {
        let mut bytes = to_snapshot(&g);
        bytes.resize(bytes.len() + extra, 0);
        let err = read_snapshot_bytes(&bytes).unwrap_err();
        prop_assert!(matches!(err, GraphError::Snapshot(SnapshotError::Corrupt(_))), "{err:?}");
        assert_file_readers_fail_alike(&bytes, &err);
    }

    /// The sorting reader agrees with the line-at-a-time reference on
    /// random texts with injected faults, read in random chunk sizes and
    /// sometimes cut short by an I/O error: the same canonical edge table
    /// and adjacency, or the same error — under both duplicate policies
    /// and all four probability models.
    #[test]
    fn edge_list_reader_matches_the_line_at_a_time_reference(
        lines in proptest::collection::vec(
            (0u32..100, 0u32..16, 0u32..16, 0u32..16, 0u32..32),
            0..24,
        ),
        faults in 0u32..3,
        chunk in 1usize..48,
        fail in 0u32..8,
        fail_pos in 0.0f64..1.0,
    ) {
        let text = render_text(&lines, faults);
        // One case in eight also fails the stream partway through.
        let fail_at = if fail == 0 {
            (text.len() as f64 * fail_pos) as usize
        } else {
            usize::MAX
        };
        let reader = || ChunkedReader { bytes: &text, at: 0, chunk, fail_at };
        let models = [
            EdgeProbabilityModel::Column,
            EdgeProbabilityModel::Constant(0.7),
            EdgeProbabilityModel::UniformSeeded { seed: 7, low: 0.1, high: 0.9 },
            EdgeProbabilityModel::ExponentialWeight { scale: 2.0 },
        ];
        for policy in [DuplicatePolicy::Reject, DuplicatePolicy::MergeIdentical] {
            for model in &models {
                let got = read_edge_list_with_policy(reader(), model, policy);
                let want = reference_read(reader(), model, policy);
                let text = String::from_utf8_lossy(&text);
                match (got, want) {
                    (Ok(graph), Ok((table, n))) => assert_graph_is_table(&graph, &table, n),
                    (Err(got), Err(want)) => prop_assert_eq!(
                        error_key(&got),
                        error_key(&want),
                        "{:?} {} on {:?}",
                        policy,
                        model,
                        text
                    ),
                    (got, want) => prop_assert!(
                        false,
                        "{policy:?} {model} on {text:?}: got {got:?}, want {want:?}"
                    ),
                }
            }
        }
    }

    /// The zero-copy reader produces the same graph as the owned decoder,
    /// bit for bit, for any graph — and on platforms with mmap it
    /// actually takes the mapped path.
    #[test]
    fn open_snapshot_matches_owned_reader(g in arb_graph(12)) {
        let bytes = to_snapshot(&g);
        let path = temp_snapshot("map_eq", &bytes);
        let owned = read_snapshot_bytes(&bytes).unwrap();
        let opened = open_snapshot(&path).unwrap();
        prop_assert_eq!(opened.graph(), &owned);
        prop_assert_eq!(opened.graph(), &g);
        for (a, b) in g.edges().iter().zip(opened.graph().edges()) {
            prop_assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        prop_assert!(opened.is_mapped(), "zero-copy path not taken on a mmap platform");
        drop(opened);
        std::fs::remove_file(&path).ok();
    }

    /// A truncated snapshot file yields a typed error through
    /// `open_snapshot` — never a graph, so corrupt input cannot reach the
    /// zero-copy path.
    #[test]
    fn truncated_files_never_reach_the_zero_copy_path(g in arb_graph(8), cut in 0.0f64..1.0) {
        let bytes = to_snapshot(&g);
        let len = ((bytes.len() - 1) as f64 * cut) as usize;
        let path = temp_snapshot("map_trunc", &bytes[..len]);
        let err = open_snapshot(&path).unwrap_err();
        prop_assert!(matches!(
            err,
            GraphError::Snapshot(
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            ) | GraphError::Io { .. }
        ), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    /// Any single-bit corruption of a snapshot file is rejected by
    /// `open_snapshot` with a typed error — the checksum is verified
    /// through the mapping before anything is borrowed.
    #[test]
    fn corrupted_files_never_reach_the_zero_copy_path(
        g in arb_graph(8), pos in 0.0f64..1.0, bit in 0u8..8,
    ) {
        let mut bytes = to_snapshot(&g);
        let at = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[at] ^= 1 << bit;
        let path = temp_snapshot("map_flip", &bytes);
        prop_assert!(open_snapshot(&path).is_err(), "flip at {at} undetected via mmap");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn malformed_text_inputs_are_typed_errors() {
    // Out-of-range probability.
    for text in ["0 1 1.0001\n", "0 1 0\n", "0 1 -1\n", "0 1 nan\n"] {
        assert!(
            matches!(
                read_edge_list(text.as_bytes()).unwrap_err(),
                GraphError::InvalidProbability { .. }
            ),
            "{text:?}"
        );
    }
    // Self-loop.
    assert!(matches!(
        read_edge_list("7 7 0.5\n".as_bytes()).unwrap_err(),
        GraphError::SelfLoop { vertex: 7 }
    ));
    // Duplicate edge (either orientation).
    assert!(matches!(
        read_edge_list("1 2 0.5\n2 1 0.5\n".as_bytes()).unwrap_err(),
        GraphError::DuplicateEdge { edge: (1, 2) }
    ));
    // Syntax problems carry the line number.
    match read_edge_list("0 1 0.5\n0 two 0.5\n".as_bytes()).unwrap_err() {
        GraphError::Parse { line, .. } => assert_eq!(line, 2),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn malformed_konect_inputs_are_typed_errors() {
    let m = EdgeProbabilityModel::Column;
    assert!(matches!(
        read_konect("3 3 0.5\n".as_bytes(), &m).unwrap_err(),
        GraphError::SelfLoop { vertex: 3 }
    ));
    // Aggregated weight exceeding 1 is not a probability under `column`.
    assert!(matches!(
        read_konect("1 2 0.9\n1 2 0.9\n".as_bytes(), &m).unwrap_err(),
        GraphError::InvalidProbability { .. }
    ));
    assert!(matches!(
        read_konect("1 2 0.5 0 extra\n".as_bytes(), &m).unwrap_err(),
        GraphError::Parse { .. }
    ));
}

/// Regression: an updated in-memory graph persisted at the dataset cache
/// path must not round-trip through a cache fingerprint that matches the
/// pre-update snapshot.  The v2 source tag makes the cache layer reject
/// the impostor and re-parse the source.
#[test]
fn updated_graph_written_at_cache_path_does_not_poison_load_cached() {
    use prob_nucleus_repro::nd_datasets::ExternalDataset;
    use prob_nucleus_repro::nucleus::EdgeUpdate;
    use prob_nucleus_repro::ugraph::io::EdgeProbabilityModel as Model;
    use prob_nucleus_repro::ugraph::io::{write_snapshot_file, InputFormat};
    use prob_nucleus_repro::ugraph::{apply_edge_updates, io};

    let dir = std::env::temp_dir().join("nd_io_roundtrip_update_staleness");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("graph.txt");
    std::fs::write(&source, "0 1 0.5\n1 2 0.75\n0 2 1\n").unwrap();

    let ds = ExternalDataset::new(&source, InputFormat::Snap, Model::Column);
    let original = ds.load_cached().unwrap();
    let cache = ds.snapshot_cache_path();
    assert!(cache.exists());

    // Apply an update batch and persist the updated graph at the cache
    // path — exactly the stale-write hazard.
    let delta =
        apply_edge_updates(&original, &[EdgeUpdate::Reweight { u: 0, v: 1, p: 0.1 }]).unwrap();
    write_snapshot_file(&delta.graph, &cache).unwrap();

    // The source file is unchanged, so its fingerprint (and thus the
    // cache *name*) still matches — but the tag does not, so the cache
    // layer must re-parse the original source.
    let reloaded = ds.load_cached().unwrap();
    assert_eq!(reloaded, original);
    assert_eq!(reloaded.edge_probability(0, 1), Some(0.5));

    // The healed cache carries the fingerprint tag again.
    let (_, tag) = io::read_snapshot_file_tagged(&cache).unwrap();
    assert_ne!(tag, io::UNTAGGED);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_header_failures_are_typed_errors() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1, 0.5).unwrap();
    let bytes = to_snapshot(&b.build());

    let mut bad_magic = bytes.clone();
    bad_magic[2] = b'X';
    assert!(matches!(
        read_snapshot_bytes(&bad_magic).unwrap_err(),
        GraphError::Snapshot(SnapshotError::BadMagic)
    ));

    let mut bad_version = bytes.clone();
    bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        read_snapshot_bytes(&bad_version).unwrap_err(),
        GraphError::Snapshot(SnapshotError::UnsupportedVersion(7))
    ));

    let mut bad_sum = bytes.clone();
    let last = bad_sum.len() - 1;
    bad_sum[last] ^= 0xFF;
    assert!(matches!(
        read_snapshot_bytes(&bad_sum).unwrap_err(),
        GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })
    ));

    let mut trailing = bytes;
    trailing.push(0);
    assert!(matches!(
        read_snapshot_bytes(&trailing).unwrap_err(),
        GraphError::Snapshot(SnapshotError::Corrupt(_))
    ));
}
