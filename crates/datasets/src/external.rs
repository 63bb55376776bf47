//! Real on-disk datasets beside the synthetic registry.
//!
//! [`ExternalDataset`] wraps a file path, an [`InputFormat`], and an
//! [`EdgeProbabilityModel`]: everything needed to turn a downloaded SNAP
//! or Konect file (or a previously written `.ugsnap` snapshot) into an
//! [`UncertainGraph`].
//!
//! Loading goes through a **snapshot cache**: the first load parses the
//! text file and writes `<file>.<fingerprint>.ugsnap` next to it; later
//! loads reload the snapshot, which skips text parsing and the graph
//! rebuild entirely.  The fingerprint covers the format, the probability
//! model *and an XXH64 hash of the source bytes*, so the same file
//! ingested under two models caches to two snapshots, and any change to
//! the source content — even one that preserves file size and mtime —
//! addresses a different cache entry and forces a re-parse.

use std::path::PathBuf;

use ugraph::io::{self, EdgeProbabilityModel, InputFormat};
use ugraph::UncertainGraph;

/// A dataset ingested from a file on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalDataset {
    /// Display name used in tables and reports (defaults to the file
    /// stem).
    pub name: String,
    /// Path of the source file.
    pub path: PathBuf,
    /// On-disk format of the source file.
    pub format: InputFormat,
    /// How edges obtain existence probabilities.
    pub probability: EdgeProbabilityModel,
}

impl ExternalDataset {
    /// Creates an external dataset named after the file stem.
    pub fn new<P: Into<PathBuf>>(
        path: P,
        format: InputFormat,
        probability: EdgeProbabilityModel,
    ) -> Self {
        let path = path.into();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "external".to_string());
        ExternalDataset {
            name,
            path,
            format,
            probability,
        }
    }

    /// Overrides the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Parses the source file directly, bypassing the snapshot cache.
    pub fn load(&self) -> ugraph::Result<UncertainGraph> {
        io::read_graph_file(&self.path, self.format, &self.probability)
    }

    /// Parses already-read source bytes (shared by [`Self::load_cached`],
    /// which needs the bytes anyway for the content hash).
    fn parse_bytes(&self, bytes: &[u8]) -> ugraph::Result<UncertainGraph> {
        match self.format {
            InputFormat::Snap => io::read_edge_list_with_policy(
                bytes,
                &self.probability,
                io::DuplicatePolicy::MergeIdentical,
            ),
            InputFormat::Konect => io::read_konect(bytes, &self.probability),
            InputFormat::Snapshot => io::read_snapshot_bytes(bytes),
        }
    }

    /// The snapshot cache of this dataset when its file holds `source`:
    /// the cache path and the source tag the cache is written with.
    /// Both derive from a fingerprint of the format, the probability
    /// model and the XXH64 of `source`, so no stale cache can ever be
    /// addressed, and [`Self::load_cached`] serves only a cache that
    /// carries the tag.
    pub fn snapshot_cache(&self, source: &[u8]) -> (PathBuf, u64) {
        let config = format!(
            "{}|{}|{:016x}",
            self.format,
            self.probability,
            io::xxh64(source, 0)
        );
        let tag = io::xxh64(config.as_bytes(), 0);
        let mut name = self
            .path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "graph".to_string());
        name.push_str(&format!(".{tag:016x}.ugsnap"));
        (self.path.with_file_name(name), tag)
    }

    /// Path of the cached snapshot for this (file content, format, model)
    /// triple.  Reads the source file to hash it; an unreadable source
    /// yields the cache name of empty content.
    pub fn snapshot_cache_path(&self) -> PathBuf {
        let source = std::fs::read(&self.path).unwrap_or_default();
        self.snapshot_cache(&source).0
    }

    /// Loads through the snapshot cache: reuses the cached snapshot
    /// addressed by the current source content when one exists, otherwise
    /// parses the source and writes the cache.
    ///
    /// Because the cache name embeds the source content hash, a modified
    /// source file — regardless of file timestamps, which archive
    /// extraction preserves and coarse filesystems round — simply misses
    /// the cache and is re-parsed.  A corrupt or unreadable cache also
    /// falls back to parsing; cache *write* failures are ignored (a
    /// read-only dataset directory must not break ingestion).
    /// Snapshot-format sources are already in their fastest form and load
    /// directly.
    ///
    /// The cache snapshot is written with the fingerprint as its source
    /// tag and the tag is verified on reload: a snapshot that merely
    /// *sits at* the cache path without having been derived from this
    /// source — e.g. an updated in-memory graph persisted there with the
    /// plain snapshot writer — fails the tag check and the source is
    /// re-parsed instead of silently serving the impostor.
    pub fn load_cached(&self) -> ugraph::Result<UncertainGraph> {
        if self.format == InputFormat::Snapshot {
            return self.load();
        }
        let bytes = std::fs::read(&self.path)?;
        let (cache, fingerprint) = self.snapshot_cache(&bytes);
        if let Ok((source, tag)) = io::open_snapshot_tagged(&cache) {
            if tag == fingerprint {
                return Ok(source.into_graph());
            }
        }
        let graph = self.parse_bytes(&bytes)?;
        let _ = io::write_snapshot_file_tagged(&graph, &cache, fingerprint);
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("nd_datasets_external_{tag}"));
            fs::remove_dir_all(&dir).ok();
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    fn write_sample(dir: &Path) -> PathBuf {
        let path = dir.join("tiny.txt");
        fs::write(&path, "# tiny\n0 1 0.5\n1 2 0.75\n0 2 1\n").unwrap();
        path
    }

    #[test]
    fn loads_and_names_from_file_stem() {
        let tmp = TempDir::new("load");
        let ds = ExternalDataset::new(
            write_sample(&tmp.0),
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        assert_eq!(ds.name, "tiny");
        let g = ds.load().unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_probability(0, 1), Some(0.5));
        let named = ds.clone().with_name("renamed");
        assert_eq!(named.name, "renamed");
    }

    #[test]
    fn cached_load_writes_then_reuses_a_snapshot() {
        let tmp = TempDir::new("cache");
        let ds = ExternalDataset::new(
            write_sample(&tmp.0),
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        let cache = ds.snapshot_cache_path();
        assert!(!cache.exists());
        let first = ds.load_cached().unwrap();
        assert!(cache.exists(), "first load must materialize the cache");
        let second = ds.load_cached().unwrap();
        assert_eq!(first, second);

        // A corrupt cache falls back to parsing and is rewritten.
        fs::write(&cache, b"garbage").unwrap();
        let third = ds.load_cached().unwrap();
        assert_eq!(first, third);
        let fourth = ugraph::io::read_snapshot_file(&cache).unwrap();
        assert_eq!(first, fourth);
    }

    #[test]
    fn distinct_models_use_distinct_caches() {
        let tmp = TempDir::new("fingerprint");
        let path = write_sample(&tmp.0);
        let column = ExternalDataset::new(&path, InputFormat::Snap, EdgeProbabilityModel::Column);
        let constant = ExternalDataset::new(
            &path,
            InputFormat::Snap,
            EdgeProbabilityModel::Constant(0.25),
        );
        assert_ne!(column.snapshot_cache_path(), constant.snapshot_cache_path());
        let a = column.load_cached().unwrap();
        let b = constant.load_cached().unwrap();
        assert_eq!(a.edge_probability(0, 1), Some(0.5));
        assert_eq!(b.edge_probability(0, 1), Some(0.25));
    }

    #[test]
    fn changed_source_content_misses_the_cache_regardless_of_mtime() {
        let tmp = TempDir::new("content_hash");
        let path = write_sample(&tmp.0);
        let ds = ExternalDataset::new(&path, InputFormat::Snap, EdgeProbabilityModel::Column);
        let first = ds.load_cached().unwrap();
        let first_cache = ds.snapshot_cache_path();
        assert!(first_cache.exists());

        // Replace the source with different content of the same byte
        // length — an mtime- or size-based check could miss this.
        fs::write(&path, "# tiny\n0 1 0.9\n1 2 0.75\n0 2 1\n").unwrap();
        let second = ds.load_cached().unwrap();
        assert_ne!(first, second);
        assert_eq!(second.edge_probability(0, 1), Some(0.9));
        assert_ne!(ds.snapshot_cache_path(), first_cache, "content-addressed");
    }

    #[test]
    fn untagged_snapshot_at_the_cache_path_is_not_served() {
        // A snapshot written at the cache path by something other than
        // the cache layer (e.g. an updated in-memory graph persisted
        // with the plain writer) must not be mistaken for the parse of
        // the source.
        let tmp = TempDir::new("impostor");
        let ds = ExternalDataset::new(
            write_sample(&tmp.0),
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        let original = ds.load_cached().unwrap();
        let cache = ds.snapshot_cache_path();
        assert!(cache.exists());

        // Overwrite the cache with a *different* graph, untagged.
        let mut b = ugraph::GraphBuilder::new();
        b.add_edge(0, 1, 0.123).unwrap();
        let impostor = b.build();
        ugraph::io::write_snapshot_file(&impostor, &cache).unwrap();

        let reloaded = ds.load_cached().unwrap();
        assert_eq!(reloaded, original, "tag mismatch must force a re-parse");
        assert_ne!(reloaded, impostor);
        // And the cache is healed with a properly tagged snapshot.
        let (healed, tag) = ugraph::io::read_snapshot_file_tagged(&cache).unwrap();
        assert_eq!(healed, original);
        assert_ne!(tag, ugraph::io::UNTAGGED);
    }

    #[test]
    fn snap_sources_tolerate_directed_listings() {
        let tmp = TempDir::new("directed");
        let path = tmp.0.join("directed.txt");
        fs::write(&path, "0 1\n1 0\n1 2\n2 1\n").unwrap();
        let ds = ExternalDataset::new(&path, InputFormat::Snap, EdgeProbabilityModel::Column);
        assert_eq!(ds.load_cached().unwrap().num_edges(), 2);
    }

    #[test]
    fn snapshot_sources_load_directly() {
        let tmp = TempDir::new("direct");
        let txt = ExternalDataset::new(
            write_sample(&tmp.0),
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        let graph = txt.load().unwrap();
        let snap_path = tmp.0.join("tiny.ugsnap");
        ugraph::io::write_snapshot_file(&graph, &snap_path).unwrap();
        let snap = ExternalDataset::new(
            &snap_path,
            InputFormat::Snapshot,
            EdgeProbabilityModel::Column,
        );
        assert_eq!(snap.load_cached().unwrap(), graph);
        // No extra cache file appears beside a snapshot source.
        assert!(!snap.snapshot_cache_path().exists());
    }

    #[test]
    fn load_errors_are_propagated() {
        let ds = ExternalDataset::new(
            "/nonexistent/missing.txt",
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        assert!(matches!(
            ds.load_cached().unwrap_err(),
            ugraph::GraphError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }
        ));
    }
}
