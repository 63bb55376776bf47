//! Shared infrastructure for the experiment harness.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nd_datasets::{PaperDataset, Scale};
use ugraph::UncertainGraph;

/// An ingested graph overriding the synthetic registry for one run.
#[derive(Debug)]
struct ExternalGraph {
    name: String,
    graph: UncertainGraph,
}

/// Execution context shared by all experiments: dataset scale and seed,
/// plus an optional ingested graph that overrides the synthetic registry
/// (the `--input` flag of the `experiments` CLI).
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Dataset scale (tiny for smoke runs, small for the recorded results,
    /// medium for longer benchmarking sessions).
    pub scale: Scale,
    /// Seed used for dataset generation and Monte-Carlo sampling.
    pub seed: u64,
    external: Option<Arc<ExternalGraph>>,
}

impl ExperimentContext {
    /// Creates a context.
    pub fn new(scale: Scale, seed: u64) -> Self {
        ExperimentContext {
            scale,
            seed,
            external: None,
        }
    }

    /// Returns a context whose [`ExperimentContext::dataset`] always
    /// yields the given ingested graph, labelled `name` in every table.
    pub fn with_external_graph(mut self, name: impl Into<String>, graph: UncertainGraph) -> Self {
        self.external = Some(Arc::new(ExternalGraph {
            name: name.into(),
            graph,
        }));
        self
    }

    /// `true` when an ingested graph overrides the synthetic registry.
    pub fn is_external(&self) -> bool {
        self.external.is_some()
    }

    /// Generates a dataset under this context — or, when an external graph
    /// is installed, returns that graph regardless of `dataset`.
    pub fn dataset(&self, dataset: PaperDataset) -> UncertainGraph {
        match &self.external {
            Some(ext) => ext.graph.clone(),
            None => dataset.generate(self.scale, self.seed),
        }
    }

    /// Label for `dataset` in tables and figures: the external graph's
    /// name when one is installed, the paper name otherwise.
    pub fn dataset_name(&self, dataset: PaperDataset) -> String {
        match &self.external {
            Some(ext) => ext.name.clone(),
            None => dataset.name().to_string(),
        }
    }

    /// The dataset list a multi-dataset experiment should iterate: the
    /// requested paper datasets, collapsed to a single placeholder when an
    /// external graph overrides them all anyway.
    pub fn effective_datasets(&self, requested: &[PaperDataset]) -> Vec<PaperDataset> {
        if self.is_external() {
            requested.iter().take(1).copied().collect()
        } else {
            requested.to_vec()
        }
    }
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext::new(Scale::Small, 42)
    }
}

/// Wall-clock measurement of a closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
}

impl Timing {
    /// Runs `f` once and measures it, returning the result and the timing.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Timing) {
        let start = Instant::now();
        let out = f();
        (
            out,
            Timing {
                elapsed: start.elapsed(),
            },
        )
    }

    /// Runs `f` `repeats` times (at least once) and returns the last
    /// result with the best (shortest) timing.  Each earlier result is
    /// dropped before the next run starts.
    pub fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Timing) {
        let (mut out, mut best) = Timing::measure(&mut f);
        for _ in 1..repeats {
            drop(out);
            let (next, timing) = Timing::measure(&mut f);
            out = next;
            best = Timing {
                elapsed: best.elapsed.min(timing.elapsed),
            };
        }
        (out, best)
    }

    /// Elapsed seconds as a float.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Whether the measured run outlived `deadline`.  Nothing interrupts
    /// a run: the bench drivers only report the overrun.
    pub fn exceeded(&self, deadline: Duration) -> bool {
        self.elapsed > deadline
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.seconds())
    }
}

/// Formats a simple aligned table: a header row followed by data rows.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_generates_datasets() {
        let ctx = ExperimentContext::new(Scale::Tiny, 7);
        let g = ctx.dataset(PaperDataset::Krogan);
        assert!(g.num_edges() > 0);
        // Same context, same dataset.
        let g2 = ctx.dataset(PaperDataset::Krogan);
        assert_eq!(g, g2);
        assert!(!ctx.is_external());
        assert_eq!(ctx.dataset_name(PaperDataset::Krogan), "krogan");
        assert_eq!(ctx.effective_datasets(&PaperDataset::all()).len(), 6);
    }

    #[test]
    fn external_graph_overrides_every_dataset() {
        let mut b = ugraph::GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build();
        let ctx = ExperimentContext::new(Scale::Tiny, 7).with_external_graph("mygraph", g.clone());
        assert!(ctx.is_external());
        for ds in PaperDataset::all() {
            assert_eq!(ctx.dataset(ds), g);
            assert_eq!(ctx.dataset_name(ds), "mygraph");
        }
        assert_eq!(ctx.effective_datasets(&PaperDataset::all()).len(), 1);
        assert!(ctx.effective_datasets(&[]).is_empty());
    }

    #[test]
    fn timing_measures_elapsed_time() {
        let (value, t) = Timing::measure(|| {
            // A timed blocking wait on a channel that never delivers — not
            // a sleep-poll — keeps the workload deterministic in duration.
            let (_tx, rx) = std::sync::mpsc::channel::<()>();
            let _ = rx.recv_timeout(Duration::from_millis(10));
            42
        });
        assert_eq!(value, 42);
        assert!(t.seconds() >= 0.009);
        assert!(t.to_string().ends_with('s'));
    }

    #[test]
    fn deadline_exceeded_is_reported() {
        let (value, t) = Timing::measure(|| {
            let (_tx, rx) = std::sync::mpsc::channel::<()>();
            let _ = rx.recv_timeout(Duration::from_millis(50));
            "done"
        });
        // The workload still completes; the overrun is only flagged.
        assert_eq!(value, "done");
        assert!(t.exceeded(Duration::from_millis(5)));
        assert!(!t.exceeded(Duration::from_secs(30)));
        assert!(
            !t.exceeded(t.elapsed),
            "a run that meets its deadline is on time"
        );
    }

    #[test]
    fn table_formatting_aligns_columns() {
        let text = format_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["long-name".to_string(), "23456".to_string()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].contains("long-name"));
    }
}
