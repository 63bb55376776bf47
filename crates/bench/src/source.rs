//! The graph a 50k-edge bench driver runs on, and its timed ingest.
//!
//! `parbench`, `thetasweep`, `updates` and `serve` each take a
//! [`GraphSource`]: a seeded uniform G(n, m) graph, or a file loaded
//! through the `.ugsnap` snapshot cache of [`ExternalDataset`].  The
//! seed stays a field of each driver's config, because the reports (and
//! the update batch) read it whatever the source.

use nd_datasets::ExternalDataset;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::generators::{assign_probabilities, gnm_edges, ProbabilityModel};
use ugraph::io;
use ugraph::UncertainGraph;

use crate::runner::Timing;

/// Where a bench driver's graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// A seeded uniform G(n, m) graph from [`generate_graph`].
    Generated {
        /// Vertex count.
        vertices: usize,
        /// Edge count.
        edges: usize,
    },
    /// A file, loaded through the snapshot cache.
    File(ExternalDataset),
}

impl Default for GraphSource {
    /// 50k edges over 2k vertices (average degree 50, so triangles *and*
    /// 4-cliques are plentiful): the scale every driver measures at.
    fn default() -> Self {
        GraphSource::Generated {
            vertices: 2_000,
            edges: 50_000,
        }
    }
}

impl GraphSource {
    /// The graph: generated from `seed`, or read through
    /// [`ExternalDataset::load_cached`].
    pub fn load(&self, seed: u64) -> Result<UncertainGraph, IngestError> {
        match self {
            GraphSource::Generated { vertices, edges } => {
                Ok(generate_graph(*vertices, *edges, seed))
            }
            GraphSource::File(input) => input.load_cached().map_err(|error| IngestError::Load {
                path: input.path.clone(),
                error,
            }),
        }
    }

    /// The graph, with a file's ingest timed: text parse, snapshot-cache
    /// write, owned snapshot reload and mapped snapshot open, both
    /// reloaded graphs verified identical to the parsed one.  Each step
    /// runs `repeats` times (at least once) and keeps its best time.
    ///
    /// The cache is the one [`ExternalDataset::load_cached`] serves,
    /// written with its source tag.  Sources that already are snapshots
    /// skip the round trip (it would measure snapshot-vs-snapshot and
    /// litter the dataset directory), and an unwritable dataset
    /// directory degrades to a temp-dir cache — or, if even that fails,
    /// to no timings.
    pub fn ingest(
        &self,
        seed: u64,
        repeats: usize,
    ) -> Result<(UncertainGraph, Option<IngestTimings>), IngestError> {
        let GraphSource::File(input) = self else {
            return Ok((self.load(seed)?, None));
        };
        let load_error = |error| IngestError::Load {
            path: input.path.clone(),
            error,
        };
        let (parsed, parse_t) = Timing::best_of(repeats, || input.load());
        let graph = parsed.map_err(load_error)?;
        if input.format == ugraph::InputFormat::Snapshot {
            return Ok((graph, None));
        }
        let bytes = std::fs::read(&input.path).map_err(|e| load_error(e.into()))?;
        let (preferred, tag) = input.snapshot_cache(&bytes);
        let write = |path: &std::path::Path| {
            Timing::best_of(repeats, || {
                io::write_snapshot_file_tagged(&graph, path, tag)
            })
        };
        // A read-only dataset directory (load_cached tolerates this too)
        // falls back to the temp dir before giving up.
        let name = preferred.file_name().expect("a cache path names a file");
        let fallback = std::env::temp_dir().join(name);
        let (cache, write_t) = match write(&preferred) {
            (Ok(()), write_t) => (preferred, write_t),
            _ => match write(&fallback) {
                (Ok(()), write_t) => (fallback, write_t),
                (Err(e), _) => {
                    eprintln!(
                        "warning: cannot write a snapshot cache for {} ({e}); \
                         benchmarking without ingest timings",
                        input.path.display()
                    );
                    return Ok((graph, None));
                }
            },
        };
        let reload_error = |error| IngestError::SnapshotReload {
            path: cache.clone(),
            error,
        };
        let (reloaded, reload_t) = Timing::best_of(repeats, || io::read_snapshot_file(&cache));
        let reloaded = reloaded.map_err(reload_error)?;
        assert_eq!(
            graph,
            reloaded,
            "snapshot reload of {} diverged from the parsed graph",
            input.path.display()
        );
        // Differential check of the zero-copy path: the mapped graph must
        // be bit-identical to the parsed one, and its open time is the
        // tracked figure of merit of the mmap reader.
        let (mapped, mmap_t) = Timing::best_of(repeats, || io::open_snapshot(&cache));
        let mapped = mapped.map_err(reload_error)?;
        assert_eq!(
            graph,
            *mapped.graph(),
            "zero-copy snapshot open of {} diverged from the parsed graph",
            cache.display()
        );
        let timings = IngestTimings {
            parse_s: parse_t.seconds(),
            snapshot_write_s: write_t.seconds(),
            snapshot_reload_s: reload_t.seconds(),
            snapshot_mmap_s: mmap_t.seconds(),
            mmap_used: mapped.is_mapped(),
        };
        Ok((graph, Some(timings)))
    }

    /// The `# experiment:` line of a run of `experiment` (the subcommand
    /// and any knobs that precede the graph) on this source, followed
    /// by `knobs`; a generated graph's line ends with its seed.
    pub fn header(&self, experiment: &str, knobs: &str, seed: u64) -> String {
        match self {
            GraphSource::Generated { vertices, edges } => format!(
                "# experiment: {experiment}  vertices: {vertices}  edges: {edges}  {knobs}  seed: {seed}\n"
            ),
            GraphSource::File(input) => format!(
                "# experiment: {experiment}  input: {} ({})  {knobs}\n",
                input.path.display(),
                input.format
            ),
        }
    }
}

/// Generates the benchmark graph: G(n, m) structure with uniform edge
/// probabilities in `[0.2, 1.0]`, fully determined by `seed`.
pub fn generate_graph(vertices: usize, edges: usize, seed: u64) -> UncertainGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let structure = gnm_edges(vertices, edges, &mut rng);
    assign_probabilities(
        &structure,
        vertices,
        &ProbabilityModel::Uniform {
            low: 0.2,
            high: 1.0,
        },
        &mut rng,
    )
}

/// Why loading a bench graph failed.  Every `experiments` subcommand
/// that takes `--input` funnels through this one type, so a missing or
/// unreadable file produces the same message and the same non-zero exit
/// no matter which subcommand it was passed to.
#[derive(Debug)]
pub enum IngestError {
    /// The input file could not be parsed or read.
    Load {
        /// The file that failed.
        path: std::path::PathBuf,
        /// The underlying parse/IO error.
        error: ugraph::GraphError,
    },
    /// A snapshot cache we just wrote failed to read back.
    SnapshotReload {
        /// The cache file that failed.
        path: std::path::PathBuf,
        /// The underlying reload error.
        error: ugraph::GraphError,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Same wording as the generic experiments' --input path, so
            // the operator-visible message is subcommand-independent.
            IngestError::Load { path, error } => {
                write!(f, "cannot load {}: {error}", path.display())
            }
            IngestError::SnapshotReload { path, error } => {
                write!(f, "cannot reload snapshot {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Wall-clock costs of ingesting an input file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestTimings {
    /// Seconds to parse the source file (text parse for SNAP/Konect,
    /// snapshot read when the source already is a snapshot).
    pub parse_s: f64,
    /// Seconds to write the `.ugsnap` snapshot cache.
    pub snapshot_write_s: f64,
    /// Seconds to reload the graph from that snapshot through the owned
    /// byte-copying decoder.
    pub snapshot_reload_s: f64,
    /// Seconds to open the same snapshot through
    /// [`ugraph::io::open_snapshot`], which memory-maps and borrows the
    /// sections in place when the platform allows it.
    pub snapshot_mmap_s: f64,
    /// Whether the open actually took the zero-copy mapped path (`false`
    /// means the platform or file forced the owned fallback, so
    /// `snapshot_mmap_s` measures a second owned decode).
    pub mmap_used: bool,
}

impl IngestTimings {
    /// How much faster the snapshot reload is than the original parse —
    /// the figure of merit of the snapshot cache.
    pub fn reload_speedup(&self) -> f64 {
        self.parse_s / self.snapshot_reload_s.max(1e-9)
    }

    /// How much faster the zero-copy open is than the owned decode —
    /// the figure of merit of the mmap reader.
    pub fn mmap_speedup(&self) -> f64 {
        self.snapshot_reload_s / self.snapshot_mmap_s.max(1e-9)
    }
}
