//! Versioned little-endian binary snapshots (`.ugsnap`).
//!
//! Parsing a large text edge list costs integer/float decoding plus a
//! full graph rebuild; a snapshot persists the [`UncertainGraph`] exactly
//! as it sits in memory (CSR arrays + canonical edge table), so reloading
//! is a handful of bulk reads — and, since format version 3, not even
//! that: every section is 8-byte aligned little-endian, so
//! [`open_snapshot`] can `mmap` the file and borrow the arrays **in
//! place** (zero-copy).  The layout, all little-endian:
//!
//! ```text
//! offset  size          field
//! 0       8             magic "UGSNAP\r\n" (CRLF guards against
//!                       text-mode transfer mangling, as in PNG)
//! 8       4             format version (u32, currently 3)
//! 12      4             reserved, must be zero
//! 16      8             source tag (u64, 0 = untagged)
//! 24      8             num_vertices n (u64)
//! 32      8             num_edges m (u64)
//! 40      8·(n+1)       CSR offsets (u64 each)
//! …       4·2m          CSR neighbour ids (u32 each)
//! …       4·2m          CSR neighbour edge ids (u32 each)
//! …       8·2m          CSR neighbour probabilities (f64 bits each)
//! …       16·m          edge table: u (u32), v (u32), p (f64 bits)
//! end−8   8             XXH64 checksum (seed 0) of every preceding byte
//! ```
//!
//! Every section starts at a multiple of 8 from the file start (the
//! header is 40 bytes and each section's byte length is a multiple of
//! 8), so a page-aligned mapping makes every section naturally aligned
//! for its element type.  See `docs/SNAPSHOT_FORMAT.md` for the
//! byte-level specification and the mmap safety argument.
//!
//! [`open_snapshot`] returns a [`SnapshotSource`] that says which path
//! was taken: `Mapped` when the file could be memory-mapped and borrowed
//! in place (checksum and structural validation still run once, over
//! the mapping), `Owned` when the platform lacks mmap or a section would
//! be misaligned — the reader then falls back to the ordinary decode.
//! Both paths produce bit-identical graphs.
//!
//! The **source tag** (since version 2) binds a snapshot to whatever it
//! was derived from.  Cache layers store a fingerprint of the source
//! there ([`write_snapshot_tagged`]) and refuse snapshots whose tag does
//! not match on reload ([`read_snapshot_bytes_tagged`]): a cache file
//! overwritten with a snapshot of a *different* graph — say, an
//! in-memory graph mutated by edge updates and persisted at the cached
//! path — no longer masquerades as the parse of the original source.
//! Plain [`write_snapshot`] writes tag 0 and plain [`read_snapshot`]
//! ignores the tag, so untagged round-trips are unaffected.
//!
//! Version 3 stores the per-neighbour probability array (versions 1–2
//! recovered it from the edge table): the mapped reader cannot
//! materialize anything, so the file carries all five arrays.  The
//! stored probabilities are still cross-checked bit-for-bit against the
//! edge table during validation, so a tampered probs section cannot
//! diverge from the source of truth.  Version 1 and 2 files are
//! rejected with [`SnapshotError::UnsupportedVersion`]; cache layers
//! fall back to re-parsing the source and rewrite a v3 cache.
//!
//! The reader verifies the magic, version, exact length, checksum, and
//! the structural invariants of the payload (monotone offsets, sorted
//! adjacency, canonical edge table, probabilities in `(0, 1]`),
//! returning a typed [`SnapshotError`] for every failure mode — corrupt
//! input can never panic, produce an invariant-violating graph, or
//! reach the zero-copy fast path.
//!
//! The owned reader ([`read_snapshot_file`], [`read_snapshot_bytes`] and
//! the fallback of [`open_snapshot`]) streams: it checks the header
//! against the input length (a file's from its metadata) before
//! allocating, then reads each section through one fixed 64 KiB buffer
//! straight into its typed vector, hashing it on the way with the
//! incremental [`Xxh64`].  The checks and their order are the same as
//! over a mapped file, so both paths return the same error for the same
//! bytes.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::error::{GraphError, SnapshotError};
use crate::graph::{Edge, EdgeId, UncertainGraph, VertexId};
use crate::io::hash::{xxh64, Xxh64};
use crate::mem::{mapped_section, Mapping};
use crate::Result;

/// The eight magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"UGSNAP\r\n";
/// The snapshot format version this build reads and writes.  Version 3
/// made every section 8-byte aligned (zero-copy mmap) and added the
/// stored probability section; version 2 added the 8-byte source tag.
/// Files of earlier versions are rejected with
/// [`SnapshotError::UnsupportedVersion`] (cache layers fall back to
/// re-parsing the source).
pub const SNAPSHOT_VERSION: u32 = 3;
/// The source tag of snapshots not bound to any source.
pub const UNTAGGED: u64 = 0;
/// Seed of the XXH64 trailer checksum.
const CHECKSUM_SEED: u64 = 0;
/// Bytes of magic + version + reserved + source tag + vertex/edge
/// counts.  A multiple of 8 so every section is naturally aligned.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;

/// Byte offsets of the five data sections and the total file length.
struct Layout {
    offsets: usize,
    neighbors: usize,
    neighbor_edges: usize,
    neighbor_probs: usize,
    edges: usize,
    total: usize,
}

fn layout(n: usize, m: usize) -> Layout {
    let offsets = HEADER_LEN;
    let neighbors = offsets + 8 * (n + 1);
    let neighbor_edges = neighbors + 4 * 2 * m;
    let neighbor_probs = neighbor_edges + 4 * 2 * m;
    let edges = neighbor_probs + 8 * 2 * m;
    let total = edges + 16 * m + 8;
    Layout {
        offsets,
        neighbors,
        neighbor_edges,
        neighbor_probs,
        edges,
        total,
    }
}

/// How [`open_snapshot`] materialized the graph.
///
/// Both variants hold a fully validated [`UncertainGraph`]; the
/// distinction is purely where the arrays live.  `Mapped` graphs borrow
/// the page cache through a read-only file mapping (kept alive by the
/// graph itself — the file handle may be dropped), `Owned` graphs hold
/// ordinary heap buffers.
#[derive(Debug)]
pub enum SnapshotSource {
    /// The arrays were decoded into owned heap buffers (no mmap on this
    /// platform, or a section failed the alignment check).
    Owned(UncertainGraph),
    /// The arrays borrow the memory-mapped file in place (zero-copy).
    Mapped(UncertainGraph),
}

impl SnapshotSource {
    /// The graph, however it is backed.
    pub fn graph(&self) -> &UncertainGraph {
        match self {
            SnapshotSource::Owned(g) | SnapshotSource::Mapped(g) => g,
        }
    }

    /// Consumes the source, returning the graph.
    pub fn into_graph(self) -> UncertainGraph {
        match self {
            SnapshotSource::Owned(g) | SnapshotSource::Mapped(g) => g,
        }
    }

    /// `true` for the zero-copy mapped variant.
    pub fn is_mapped(&self) -> bool {
        matches!(self, SnapshotSource::Mapped(_))
    }

    /// `"mapped"` or `"owned"`, for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotSource::Owned(_) => "owned",
            SnapshotSource::Mapped(_) => "mapped",
        }
    }
}

/// Serializes `graph` as an untagged `.ugsnap` snapshot into `writer`
/// (source tag [`UNTAGGED`]).
pub fn write_snapshot<W: Write>(graph: &UncertainGraph, writer: W) -> Result<()> {
    write_snapshot_tagged(graph, writer, UNTAGGED)
}

/// Serializes `graph` with an explicit source tag, binding the snapshot
/// to the source the tag fingerprints.
pub fn write_snapshot_tagged<W: Write>(
    graph: &UncertainGraph,
    writer: W,
    source_tag: u64,
) -> Result<()> {
    let (offsets, neighbors, probs, edge_ids) = graph.csr_parts();
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let mut payload = Vec::with_capacity(layout(n, m).total - 8);
    payload.extend_from_slice(&SNAPSHOT_MAGIC);
    payload.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes()); // reserved
    payload.extend_from_slice(&source_tag.to_le_bytes());
    payload.extend_from_slice(&(n as u64).to_le_bytes());
    payload.extend_from_slice(&(m as u64).to_le_bytes());
    for &o in offsets {
        payload.extend_from_slice(&(o as u64).to_le_bytes());
    }
    for &w in neighbors {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    for &e in edge_ids {
        payload.extend_from_slice(&e.to_le_bytes());
    }
    for &p in probs {
        payload.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    for e in graph.edges() {
        payload.extend_from_slice(&e.u.to_le_bytes());
        payload.extend_from_slice(&e.v.to_le_bytes());
        payload.extend_from_slice(&e.p.to_bits().to_le_bytes());
    }
    let checksum = xxh64(&payload, CHECKSUM_SEED);
    let mut w = writer;
    w.write_all(&payload)?;
    w.write_all(&checksum.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Writes an untagged `.ugsnap` snapshot to a file path.
pub fn write_snapshot_file<P: AsRef<Path>>(graph: &UncertainGraph, path: P) -> Result<()> {
    let file = File::create(path)?;
    write_snapshot(graph, file)
}

/// Writes a source-tagged `.ugsnap` snapshot to a file path.
pub fn write_snapshot_file_tagged<P: AsRef<Path>>(
    graph: &UncertainGraph,
    path: P,
    source_tag: u64,
) -> Result<()> {
    let file = File::create(path)?;
    write_snapshot_tagged(graph, file, source_tag)
}

fn corrupt(message: impl Into<String>) -> GraphError {
    GraphError::Snapshot(SnapshotError::Corrupt(message.into()))
}

/// Checks everything the header and the input's total length `len` can
/// tell, before anything is allocated: the length floor, magic, version,
/// reserved field, count plausibility and exact length.  `header` holds
/// the input's first [`HEADER_LEN`] bytes; it is not read when `len` is
/// below the floor.  Returns `(source_tag, n, m)`.
fn check_header(header: &[u8], len: usize) -> Result<(u64, usize, usize)> {
    if len < HEADER_LEN + 8 {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN + 8,
            actual: len,
        }
        .into());
    }
    if header[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic.into());
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version).into());
    }
    if header[12..16] != [0, 0, 0, 0] {
        return Err(corrupt("reserved header bytes are nonzero"));
    }
    let source_tag = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let n = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    let m = u64::from_le_bytes(header[32..40].try_into().expect("8 bytes"));
    // Bound the counts by what the input could possibly hold before
    // allocating anything, so a corrupt header cannot trigger an OOM.
    let max_conceivable = (len as u64).saturating_add(1);
    if n > max_conceivable || m > max_conceivable || n > u32::MAX as u64 || m > u32::MAX as u64 {
        return Err(corrupt(format!("implausible counts n={n} m={m}")));
    }
    let (n, m) = (n as usize, m as usize);
    let expected = layout(n, m).total;
    if len < expected {
        return Err(SnapshotError::Truncated {
            expected,
            actual: len,
        }
        .into());
    }
    if len > expected {
        return Err(corrupt(format!(
            "{} trailing bytes after the checksum",
            len - expected
        )));
    }
    Ok((source_tag, n, m))
}

/// [`check_header`] plus the trailer checksum, over a whole snapshot
/// in memory (the mapped file).  Returns `(source_tag, n, m)`.
fn check_envelope(data: &[u8]) -> Result<(u64, usize, usize)> {
    let header = &data[..HEADER_LEN.min(data.len())];
    let (source_tag, n, m) = check_header(header, data.len())?;
    let body = data.len() - 8;
    let stored = u64::from_le_bytes(data[body..].try_into().expect("8 bytes"));
    let computed = xxh64(&data[..body], CHECKSUM_SEED);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed }.into());
    }
    Ok((source_tag, n, m))
}

/// Deserializes a `.ugsnap` snapshot from a byte slice, ignoring the
/// source tag.
pub fn read_snapshot_bytes(data: &[u8]) -> Result<UncertainGraph> {
    read_snapshot_bytes_tagged(data).map(|(graph, _)| graph)
}

/// Deserializes a `.ugsnap` snapshot from a byte slice, returning the
/// graph together with its source tag so cache layers can verify the
/// snapshot really derives from the source they are about to stand in
/// for.
pub fn read_snapshot_bytes_tagged(data: &[u8]) -> Result<(UncertainGraph, u64)> {
    read_owned(data, data.len())
}

/// Bytes the owned decoder reads, hashes and decodes at a time.  A
/// multiple of every element size, so no element straddles two reads.
const STREAM_CHUNK: usize = 64 * 1024;

/// The owned decoder, for files and byte slices alike: reads a snapshot
/// of `len` bytes from `input`.  The header is checked before anything
/// is allocated; each section then streams through one fixed buffer into
/// its typed vector, hashed on the way; the trailer checksum is compared
/// next, and the structural validation runs last — the same checks in
/// the same order as over a mapped file.
fn read_owned<R: Read>(mut input: R, len: usize) -> Result<(UncertainGraph, u64)> {
    let mut header = [0u8; HEADER_LEN];
    if len >= HEADER_LEN + 8 {
        input.read_exact(&mut header)?;
    }
    let (source_tag, n, m) = check_header(&header, len)?;
    let mut stream = SectionStream {
        input,
        hasher: Xxh64::new(CHECKSUM_SEED),
        buf: vec![0u8; STREAM_CHUNK],
    };
    stream.hasher.update(&header);
    let offsets = stream.section(n + 1, 8, |b| le_u64(b) as usize)?;
    let neighbors = stream.section(2 * m, 4, le_u32)?;
    let neighbor_edges = stream.section(2 * m, 4, le_u32)?;
    let neighbor_probs = stream.section(2 * m, 8, |b| f64::from_bits(le_u64(b)))?;
    let edges = stream.section(m, 16, |b| Edge {
        u: le_u32(&b[0..4]),
        v: le_u32(&b[4..8]),
        p: f64::from_bits(le_u64(&b[8..16])),
    })?;
    let computed = stream.hasher.digest();
    let mut trailer = [0u8; 8];
    stream.input.read_exact(&mut trailer)?;
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed }.into());
    }
    validate(
        n,
        m,
        &offsets,
        &neighbors,
        &neighbor_edges,
        &neighbor_probs,
        &edges,
    )?;
    let graph = UncertainGraph::from_sections(
        offsets.into(),
        neighbors.into(),
        neighbor_probs.into(),
        neighbor_edges.into(),
        edges.into(),
    );
    Ok((graph, source_tag))
}

/// Sections streaming through the owned decoder's fixed buffer.
struct SectionStream<R> {
    input: R,
    hasher: Xxh64,
    buf: Vec<u8>,
}

impl<R: Read> SectionStream<R> {
    /// Reads `count` elements of `size` bytes each, hashing the bytes and
    /// decoding every element with `decode`.
    fn section<T>(
        &mut self,
        count: usize,
        size: usize,
        decode: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(count);
        let mut remaining = count * size;
        while remaining > 0 {
            let chunk = &mut self.buf[..remaining.min(STREAM_CHUNK)];
            self.input.read_exact(chunk)?;
            self.hasher.update(chunk);
            out.extend(chunk.chunks_exact(size).map(&decode));
            remaining -= chunk.len();
        }
        Ok(out)
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Streams a snapshot file through the owned decoder, its length taken
/// from the file's metadata.  Anything but a regular file (a pipe, say)
/// has no such length and is read whole first.
fn read_owned_file(mut file: File) -> Result<(UncertainGraph, u64)> {
    let meta = file.metadata()?;
    if meta.is_file() {
        let len = usize::try_from(meta.len()).unwrap_or(usize::MAX);
        return read_owned(file, len);
    }
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    read_snapshot_bytes_tagged(&data)
}

/// Structural validation of a decoded (or mapped) payload — everything
/// [`UncertainGraph`] relies on (binary search, merge intersection,
/// dense edge ids) must hold even for adversarial inputs with a valid
/// checksum.  The stored per-neighbour probabilities must agree
/// **bit-for-bit** with the canonical edge table, so the two copies the
/// v3 format carries can never diverge.
fn validate(
    n: usize,
    m: usize,
    offsets: &[usize],
    neighbors: &[VertexId],
    edge_ids: &[EdgeId],
    probs: &[f64],
    edges: &[Edge],
) -> Result<()> {
    if offsets.first() != Some(&0) || offsets[n] != 2 * m {
        return Err(corrupt("CSR offsets do not span the adjacency arrays"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("CSR offsets are not monotone"));
    }
    for (i, e) in edges.iter().enumerate() {
        if e.u >= e.v {
            return Err(corrupt(format!("edge {i} is not canonical (u < v)")));
        }
        if e.v as usize >= n {
            return Err(corrupt(format!("edge {i} endpoint {} out of bounds", e.v)));
        }
        if !(e.p > 0.0 && e.p <= 1.0) {
            return Err(corrupt(format!(
                "edge {i} probability {} out of range",
                e.p
            )));
        }
        if i > 0 && (edges[i - 1].u, edges[i - 1].v) >= (e.u, e.v) {
            return Err(corrupt("edge table is not sorted lexicographically"));
        }
    }
    for v in 0..n {
        let run = offsets[v]..offsets[v + 1];
        let mut prev: Option<VertexId> = None;
        for i in run {
            let w = neighbors[i];
            if w as usize >= n {
                return Err(corrupt(format!("neighbour {w} out of bounds")));
            }
            if prev.is_some_and(|p| p >= w) {
                return Err(corrupt(format!("adjacency of vertex {v} is not sorted")));
            }
            prev = Some(w);
            let eid = edge_ids[i] as usize;
            if eid >= m {
                return Err(corrupt(format!("edge id {eid} out of bounds")));
            }
            let e = &edges[eid];
            let (a, b) = (v as VertexId, w);
            if (e.u, e.v) != (a.min(b), a.max(b)) {
                return Err(corrupt(format!(
                    "adjacency entry ({v}, {w}) disagrees with edge {eid}"
                )));
            }
            if probs[i].to_bits() != e.p.to_bits() {
                return Err(corrupt(format!(
                    "stored probability at adjacency slot {i} disagrees with edge {eid}"
                )));
            }
        }
    }
    Ok(())
}

/// Opens a snapshot file through the fastest available path, ignoring
/// the source tag.  See [`open_snapshot_tagged`].
pub fn open_snapshot<P: AsRef<Path>>(path: P) -> Result<SnapshotSource> {
    open_snapshot_tagged(path).map(|(source, _)| source)
}

/// Opens a snapshot file through the fastest available path and returns
/// the source tag alongside.
///
/// On 64-bit little-endian Unix the file is memory-mapped, the checksum
/// and the full structural validation run **once** over the mapping,
/// and the graph's arrays borrow the mapping in place
/// ([`SnapshotSource::Mapped`]) — no per-element decode, no heap copy
/// of the payload.  When the platform cannot map, or any section would
/// be misaligned for its element type, the reader falls back to the
/// owned decode ([`SnapshotSource::Owned`]).  Every validation failure
/// is the same typed [`SnapshotError`] the byte reader produces;
/// corrupt input never reaches the zero-copy fast path.
pub fn open_snapshot_tagged<P: AsRef<Path>>(path: P) -> Result<(SnapshotSource, u64)> {
    let file = File::open(path)?;
    match Mapping::map_file(&file) {
        Ok(map) => {
            let map = Arc::new(map);
            let (source_tag, n, m) = check_envelope(map.bytes())?;
            match mapped_graph(&map, n, m)? {
                Some(graph) => Ok((SnapshotSource::Mapped(graph), source_tag)),
                // Misaligned section (cannot happen for files this
                // module wrote, but the check is what makes the unsafe
                // view sound): decode from the mapping instead.
                None => {
                    let (graph, _) = read_owned(map.bytes(), map.len())?;
                    Ok((SnapshotSource::Owned(graph), source_tag))
                }
            }
        }
        // No mmap on this platform (or an empty/unmappable file): take
        // the owned path, surfacing its typed errors.
        Err(_) => {
            let (graph, source_tag) = read_owned_file(file)?;
            Ok((SnapshotSource::Owned(graph), source_tag))
        }
    }
}

/// Builds zero-copy section views over a checksum-verified mapping and
/// validates them structurally.  Returns `Ok(None)` when any section
/// fails the alignment check (caller falls back to the owned decode).
fn mapped_graph(map: &Arc<Mapping>, n: usize, m: usize) -> Result<Option<UncertainGraph>> {
    let lay = layout(n, m);
    let offsets = mapped_section::<usize>(map, lay.offsets, n + 1);
    let neighbors = mapped_section::<VertexId>(map, lay.neighbors, 2 * m);
    let neighbor_edges = mapped_section::<EdgeId>(map, lay.neighbor_edges, 2 * m);
    let neighbor_probs = mapped_section::<f64>(map, lay.neighbor_probs, 2 * m);
    let edges = mapped_section::<Edge>(map, lay.edges, m);
    let (Some(offsets), Some(neighbors), Some(neighbor_edges), Some(neighbor_probs), Some(edges)) =
        (offsets, neighbors, neighbor_edges, neighbor_probs, edges)
    else {
        return Ok(None);
    };
    validate(
        n,
        m,
        &offsets,
        &neighbors,
        &neighbor_edges,
        &neighbor_probs,
        &edges,
    )?;
    Ok(Some(UncertainGraph::from_sections(
        offsets,
        neighbors,
        neighbor_probs,
        neighbor_edges,
        edges,
    )))
}

/// Deserializes a `.ugsnap` snapshot from any reader.
pub fn read_snapshot<R: Read>(reader: R) -> Result<UncertainGraph> {
    let mut data = Vec::new();
    let mut reader = reader;
    reader.read_to_end(&mut data)?;
    read_snapshot_bytes(&data)
}

/// Reads a `.ugsnap` snapshot from a file path into owned buffers.
/// Prefer [`open_snapshot`] where a borrowed, zero-copy graph is
/// acceptable.
pub fn read_snapshot_file<P: AsRef<Path>>(path: P) -> Result<UncertainGraph> {
    read_snapshot_file_tagged(path).map(|(graph, _)| graph)
}

/// Reads a `.ugsnap` snapshot and its source tag from a file path into
/// owned buffers, streaming the sections rather than reading the file
/// whole.
pub fn read_snapshot_file_tagged<P: AsRef<Path>>(path: P) -> Result<(UncertainGraph, u64)> {
    read_owned_file(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{assign_probabilities, gnm_edges, ProbabilityModel};
    use crate::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_graph() -> UncertainGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let edges = gnm_edges(40, 150, &mut rng);
        assign_probabilities(
            &edges,
            40,
            &ProbabilityModel::Uniform {
                low: 0.05,
                high: 1.0,
            },
            &mut rng,
        )
    }

    fn encode(graph: &UncertainGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(graph, &mut buf).unwrap();
        buf
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ugraph_snapshot_{tag}.ugsnap"))
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let g = sample_graph();
        let buf = encode(&g);
        let g2 = read_snapshot_bytes(&buf).unwrap();
        assert_eq!(g, g2);
        // Probabilities must survive bit-exactly, not just approximately.
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
    }

    #[test]
    fn round_trip_preserves_isolated_vertices_and_empty_graphs() {
        let mut b = GraphBuilder::with_vertices(10);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build();
        let g2 = read_snapshot_bytes(&encode(&g)).unwrap();
        assert_eq!(g2.num_vertices(), 10);
        assert_eq!(g, g2);

        let empty = UncertainGraph::empty(3);
        assert_eq!(read_snapshot_bytes(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn file_round_trip() {
        let g = sample_graph();
        let path = temp_path("round_trip");
        write_snapshot_file(&g, &path).unwrap();
        let g2 = read_snapshot_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g, g2);
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        // The alignment guarantee the zero-copy reader relies on: the
        // header and every section boundary sit at multiples of 8.
        for (n, m) in [(0usize, 0usize), (1, 0), (7, 13), (40, 150)] {
            let lay = layout(n, m);
            for off in [
                HEADER_LEN,
                lay.offsets,
                lay.neighbors,
                lay.neighbor_edges,
                lay.neighbor_probs,
                lay.edges,
                lay.total,
            ] {
                assert_eq!(off % 8, 0, "layout for n={n} m={m} misaligned");
            }
        }
    }

    #[test]
    fn open_snapshot_maps_and_matches_owned_bit_for_bit() {
        let g = sample_graph();
        let path = temp_path("open_mapped");
        write_snapshot_file(&g, &path).unwrap();
        let source = open_snapshot(&path).unwrap();
        // On 64-bit little-endian Unix (all CI targets) the fast path
        // must actually engage.
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        {
            assert!(source.is_mapped(), "expected the zero-copy path");
            assert_eq!(source.kind(), "mapped");
            assert!(source.graph().is_memory_mapped());
        }
        let owned = read_snapshot_file(&path).unwrap();
        assert!(!owned.is_memory_mapped());
        assert_eq!(source.graph(), &owned);
        for (a, b) in source.graph().edges().iter().zip(owned.edges()) {
            assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
        // The mapped graph must behave, not just compare equal — and
        // keep working after the path is gone (the mapping holds on).
        std::fs::remove_file(&path).ok();
        let g2 = source.into_graph();
        assert_eq!(g.count_triangles(), g2.count_triangles());
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn open_snapshot_returns_the_source_tag() {
        let g = sample_graph();
        let path = temp_path("open_tagged");
        write_snapshot_file_tagged(&g, &path, 0xFEED_F00D).unwrap();
        let (source, tag) = open_snapshot_tagged(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tag, 0xFEED_F00D);
        assert_eq!(source.graph(), &g);
    }

    #[test]
    fn open_snapshot_rejects_corruption_with_typed_errors() {
        // Corrupt files must produce the same typed errors through the
        // mmap path as through the byte reader — and never a graph.
        let g = sample_graph();
        let buf = encode(&g);
        let path = temp_path("open_corrupt");

        // Truncated file.
        std::fs::write(&path, &buf[..buf.len() / 2]).unwrap();
        assert!(matches!(
            open_snapshot(&path).unwrap_err(),
            GraphError::Snapshot(
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            )
        ));

        // Flipped payload byte.
        let mut bad = buf.clone();
        bad[HEADER_LEN + 3] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            open_snapshot(&path).unwrap_err(),
            GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })
        ));

        // Old version field.
        let mut bad = buf.clone();
        bad[8] = 2;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            open_snapshot(&path).unwrap_err(),
            GraphError::Snapshot(SnapshotError::UnsupportedVersion(2))
        ));

        // Missing file is a plain I/O error.
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            open_snapshot(&path).unwrap_err(),
            GraphError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn open_snapshot_handles_empty_graphs_via_fallback_or_map() {
        // An empty graph's snapshot is tiny but valid; whatever path the
        // platform takes must produce the same graph.
        let empty = UncertainGraph::empty(5);
        let path = temp_path("open_empty");
        write_snapshot_file(&empty, &path).unwrap();
        let source = open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(source.into_graph(), empty);
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let g = sample_graph();
        let buf = encode(&g);
        for len in [
            0,
            7,
            HEADER_LEN - 1,
            HEADER_LEN + 3,
            buf.len() / 2,
            buf.len() - 1,
        ] {
            let err = read_snapshot_bytes(&buf[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::Snapshot(
                        SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
                    )
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let g = sample_graph();
        let mut buf = encode(&g);
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_snapshot_bytes(&buf).unwrap_err(),
            GraphError::Snapshot(SnapshotError::BadMagic)
        ));
        let mut buf = encode(&g);
        buf[8] = 99;
        assert!(matches!(
            read_snapshot_bytes(&buf).unwrap_err(),
            GraphError::Snapshot(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        // Flip each byte in turn: the checksum (or, for trailer bytes,
        // the checksum comparison itself) must catch all of them.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        let g = b.build();
        let buf = encode(&g);
        for i in 12..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                read_snapshot_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn valid_checksum_with_corrupt_payload_is_rejected() {
        // Re-sign tampered payloads so only structural validation stands
        // between the reader and an invariant-violating graph.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        let g = b.build();
        let buf = encode(&g);
        let resign = |mut payload: Vec<u8>| {
            let len = payload.len();
            let sum = xxh64(&payload[..len - 8], CHECKSUM_SEED);
            payload[len - 8..].copy_from_slice(&sum.to_le_bytes());
            payload
        };

        // Out-of-range probability in the edge table (last edge's p).
        let mut bad = buf.clone();
        let p_at = bad.len() - 8 - 8;
        bad[p_at..p_at + 8].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert!(matches!(
            read_snapshot_bytes(&resign(bad)).unwrap_err(),
            GraphError::Snapshot(SnapshotError::Corrupt(_))
        ));

        // A stored probability that disagrees with the edge table.
        let lay = layout(g.num_vertices(), g.num_edges());
        let mut bad = buf.clone();
        bad[lay.neighbor_probs..lay.neighbor_probs + 8]
            .copy_from_slice(&0.999f64.to_bits().to_le_bytes());
        assert!(matches!(
            read_snapshot_bytes(&resign(bad)).unwrap_err(),
            GraphError::Snapshot(SnapshotError::Corrupt(_))
        ));

        // Non-monotone offsets.
        let mut bad = buf.clone();
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot_bytes(&resign(bad)).is_err());

        // Nonzero reserved bytes.
        let mut bad = buf.clone();
        bad[13] = 1;
        assert!(read_snapshot_bytes(&resign(bad)).is_err());

        // Implausible vertex count must not allocate.
        let mut bad = buf;
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot_bytes(&resign(bad)).is_err());
    }

    #[test]
    fn source_tags_round_trip_and_plain_writes_are_untagged() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_snapshot_tagged(&g, &mut buf, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        let (g2, tag) = read_snapshot_bytes_tagged(&buf).unwrap();
        assert_eq!(g, g2);
        assert_eq!(tag, 0xDEAD_BEEF_CAFE_F00D);
        // The untagged reader still accepts tagged snapshots.
        assert_eq!(read_snapshot_bytes(&buf).unwrap(), g);

        let (_, plain_tag) = read_snapshot_bytes_tagged(&encode(&g)).unwrap();
        assert_eq!(plain_tag, UNTAGGED);

        let path = temp_path("tagged");
        write_snapshot_file_tagged(&g, &path, 7).unwrap();
        let (g3, tag3) = read_snapshot_file_tagged(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g3, g);
        assert_eq!(tag3, 7);
    }

    #[test]
    fn old_version_snapshots_are_rejected_not_misread() {
        // Hand-build a version-2 snapshot (36-byte header, no stored
        // probability section): the reader must fail with
        // UnsupportedVersion, never reinterpret the old layout through
        // the v3 offsets.
        let mut payload = Vec::new();
        payload.extend_from_slice(&SNAPSHOT_MAGIC);
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes()); // v2 source tag
        payload.extend_from_slice(&2u64.to_le_bytes()); // n
        payload.extend_from_slice(&0u64.to_le_bytes()); // m
        for _ in 0..3 {
            payload.extend_from_slice(&0u64.to_le_bytes()); // offsets
        }
        let sum = xxh64(&payload, CHECKSUM_SEED);
        payload.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            read_snapshot_bytes(&payload).unwrap_err(),
            GraphError::Snapshot(SnapshotError::UnsupportedVersion(2))
        ));

        // Same through the mmap open path.
        let path = temp_path("old_version");
        std::fs::write(&path, &payload).unwrap();
        let err = open_snapshot(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            err,
            GraphError::Snapshot(SnapshotError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn graph_survives_use_after_reload() {
        // The reloaded graph must behave, not just compare equal.
        let g = sample_graph();
        let g2 = read_snapshot_bytes(&encode(&g)).unwrap();
        assert_eq!(g.count_triangles(), g2.count_triangles());
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }
}
