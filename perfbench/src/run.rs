//! What every workload shares: the run context, its report, and the
//! per-layer metric table.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ugraph::io::{self, EdgeProbabilityModel};
use ugraph::{FourCliqueEnumerator, Parallelism, TriangleIndex, UncertainGraph};

use crate::calib::{Calibrator, Timed};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::verify::Verifier;

/// Everything the benchmark runs on one thread.
pub const SEQ: Parallelism = Parallelism::Sequential;

/// Every per-layer metric, with its unit, in report order.  A layer a
/// workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("ingest.parse_ms", "ms"),
    ("ingest.open_ms", "ms"),
    ("support.triangle_index_ms", "ms"),
    ("support.triangles", "count"),
    ("support.four_clique_ms", "ms"),
    ("support.four_cliques", "count"),
    ("support.build_ms", "ms"),
    ("support.assembly_ms", "ms"),
    ("peel.ms", "ms"),
    ("peel.dp_calls", "count"),
    ("peel.recompute_skips", "count"),
    ("peel.skip_ratio", "ratio"),
    ("serve.max_score_at_ms", "ms"),
    ("serve.scores_at_ms", "ms"),
    ("serve.k_nuclei_at_ms", "ms"),
    ("serve.top_nuclei_ms", "ms"),
    ("serve.community_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("serve.apply_updates_ms", "ms"),
    ("repair.affected_elements", "count"),
    ("repair.region_elements", "count"),
    ("global.fg_ms", "ms"),
    ("global.wg_ms", "ms"),
    ("global.local_ms", "ms"),
    ("global.fg_nuclei", "count"),
    ("global.wg_nuclei", "count"),
    ("host.ref_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 7;

/// The state one workload run threads through its steps.
pub struct Ctx {
    pub seed: u64,
    /// Ops to run: a fixed count per workload and `--seconds`, never a
    /// time box, so every run does the same work.
    pub ops: usize,
    pub cal: Calibrator,
    pub tracer: Tracer,
    pub verifier: Verifier,
    /// Directory inside the checkout for files a run writes.
    pub work_dir: PathBuf,
}

/// What a workload hands back to the report.
#[derive(Default)]
pub struct Outcome {
    pub setup: Vec<Timed>,
    pub ops: Vec<Timed>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Parses SNAP-style text, keeping the probability column.
pub fn parse(text: &str) -> UncertainGraph {
    io::read_edge_list_with(text.as_bytes(), &EdgeProbabilityModel::Column)
        .expect("generated text is a valid edge list")
}

/// Median over `values`, or 0 for a layer with no samples.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The set-up of the workloads that ingest text: parses every text, in
/// [`SETUP_ROUNDS`] timed rounds, and returns the last round's graphs
/// with an outcome holding the rounds' timings and, in a traced run,
/// `ingest.parse_ms`.
pub fn parse_corpus(ctx: &mut Ctx, texts: &[String]) -> (Vec<UncertainGraph>, Outcome) {
    let (graphs, setup) = repeat_setup(ctx, SETUP_ROUNDS, |tracer| {
        let id = tracer.open_setup("setup");
        let graphs: Vec<UncertainGraph> = tracer.child("ingest.parse", id, || {
            texts.iter().map(|t| parse(t)).collect()
        });
        tracer.close(id);
        (graphs, id)
    });
    let mut out = Outcome {
        setup,
        ..Outcome::default()
    };
    if ctx.tracer.enabled() {
        let parse_ms = median_or_zero(&ctx.tracer.call_ms("ingest.parse"));
        out.layer("ingest.parse_ms", parse_ms);
    }
    (graphs, out)
}

/// The support and peel layers of a traced run.  `support.build_ms` and
/// `peel.ms` come from the `support.build` and `peel.compute_at` spans
/// the workload recorded.  The triangle index and the 4-clique
/// enumeration that a support build performs are timed on their own, as
/// derived probes on `graphs` outside every op, so that the build can be
/// split: `support.assembly_ms` is the build minus the two.  The peel
/// counters come from `peel`.
pub fn report_support_layers<'a>(
    ctx: &mut Ctx,
    out: &mut Outcome,
    graphs: impl IntoIterator<Item = &'a UncertainGraph>,
    peel: &PeelTally,
) {
    let (mut tri_counts, mut clique_counts) = (Vec::new(), Vec::new());
    for g in graphs {
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((id, tris, cliques), timed) = cal.measure(|| {
            let id = tracer.open_derived("derived.enumerations");
            let tris = tracer.child("support.triangle_index", id, || {
                TriangleIndex::build_with(g, SEQ).len()
            });
            let cliques = tracer.child("support.four_clique", id, || {
                FourCliqueEnumerator::with_parallelism(g, SEQ).len()
            });
            tracer.close(id);
            (id, tris, cliques)
        });
        ctx.tracer.set_factor(id, timed.factor());
        tri_counts.push(tris as f64);
        clique_counts.push(cliques as f64);
    }
    let median_call = |name: &str| median_or_zero(&ctx.tracer.call_ms(name));
    let (tri_ms, clique_ms) = (
        median_call("support.triangle_index"),
        median_call("support.four_clique"),
    );
    let build_ms = median_call("support.build");
    out.layer("support.triangle_index_ms", tri_ms);
    out.layer("support.four_clique_ms", clique_ms);
    out.layer("support.triangles", median_or_zero(&tri_counts));
    out.layer("support.four_cliques", median_or_zero(&clique_counts));
    out.layer("support.build_ms", build_ms);
    out.layer("support.assembly_ms", build_ms - tri_ms - clique_ms);
    out.layer("peel.ms", median_call("peel.compute_at"));
    peel.report(out);
}

/// Times `rounds` repetitions of a set-up step.  Each round drops the
/// previous round's result before it starts, so at most one copy is
/// resident; the last round's result is returned.
pub fn repeat_setup<T>(
    ctx: &mut Ctx,
    rounds: usize,
    mut step: impl FnMut(&mut Tracer) -> (T, Option<SpanId>),
) -> (T, Vec<Timed>) {
    let mut kept: Option<T> = None;
    let mut timings = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        drop(kept.take());
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((value, id), timed) = cal.measure(|| step(tracer));
        ctx.tracer.set_factor(id, timed.factor());
        timings.push(timed);
        kept = Some(value);
    }
    (kept.expect("at least one set-up round"), timings)
}

/// The peeling engine's own counters, one sample per decomposition.
#[derive(Default)]
pub struct PeelTally {
    dp_calls: Vec<f64>,
    skips: Vec<f64>,
}

impl PeelTally {
    pub fn add(&mut self, d: &nucleus::Decomposition) {
        let stats = d.peel_stats();
        self.dp_calls.push(stats.dp_calls as f64);
        self.skips.push(stats.recompute_skips as f64);
    }

    /// Medians per decomposition, and the share of score recomputations
    /// the engine skipped over the whole run.
    pub fn report(&self, out: &mut Outcome) {
        out.layer("peel.dp_calls", median_or_zero(&self.dp_calls));
        out.layer("peel.recompute_skips", median_or_zero(&self.skips));
        let dp: f64 = self.dp_calls.iter().sum();
        let skips: f64 = self.skips.iter().sum();
        let ratio = if dp + skips > 0.0 {
            skips / (dp + skips)
        } else {
            0.0
        };
        out.layer("peel.skip_ratio", ratio);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An untraced context for `ops` ops that checks `expected` digests.
    pub fn ctx(seed: u64, ops: usize, expected: Vec<u64>) -> Ctx {
        Ctx {
            seed,
            ops,
            cal: Calibrator::default(),
            tracer: Tracer::new(false, 0),
            verifier: Verifier::new(expected),
            work_dir: std::env::temp_dir(),
        }
    }
}
