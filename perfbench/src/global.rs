//! `global`: fully- and weakly-global nucleus decomposition of many
//! small PPI-like graphs.
//!
//! One op runs `global_nuclei` and then `weakly_global_nuclei` at k = 2,
//! θ = 0.001 with the paper's 200 possible-world samples.  Monte-Carlo
//! sampling carries nearly all of each op; it is the only workload that
//! runs it.

use std::collections::HashSet;

use nucleus::{
    global_nuclei, weakly_global_nuclei, DecompConfig, Decomposition, GlobalConfig, SamplingConfig,
};
use ugraph::{FourCliqueEnumerator, Triangle, TriangleIndex, UncertainGraph};

use crate::batch::corpus_texts;
use crate::gen::{GraphShape, Rng};
use crate::run::{median_or_zero, parse_corpus, Ctx, Outcome, SEQ};
use crate::verify::Digest;

/// About 1k edges: a sparse interaction backbone with four complexes,
/// each a 6-clique of mostly reliable edges.  Complexes of one size keep
/// the cost of an op within a factor of two across graphs and seeds.
pub const SHAPE: GraphShape = GraphShape {
    vertices: 450,
    attach: 2,
    closure: 0.3,
    communities: 4,
    community_size: (6, 6),
    density: 1.0,
};

pub const K: u32 = 2;
pub const THETA: f64 = 0.001;
/// The paper's n for ε = δ = 0.1.
pub const SAMPLES: usize = 200;

/// Ops per second of `--seconds`, sized so one run takes about
/// `--seconds` on a nominal host.
pub const OPS_PER_SECOND: f64 = 8.0;

fn config(seed: u64, op: usize) -> GlobalConfig {
    let sampling = SamplingConfig::default()
        .with_num_samples(SAMPLES)
        .with_seed(Rng::new(seed, 300 + op as u64).next_u64());
    GlobalConfig::new(THETA)
        .with_sampling(sampling)
        .with_parallelism(SEQ)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    run_with(ctx, &SHAPE)
}

pub(crate) fn run_with(ctx: &mut Ctx, shape: &GraphShape) -> Outcome {
    // One distinct graph per op.
    let texts = corpus_texts(ctx.seed, ctx.ops, shape);
    let (graphs, mut out) = parse_corpus(ctx, &texts);
    let local_config = DecompConfig::nucleus(THETA).with_parallelism(SEQ);
    let (mut fg_total, mut wg_total) = (0usize, 0usize);
    for (i, g) in graphs.iter().enumerate() {
        let cfg = config(ctx.seed, i);
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((id, fg, wg), timed) = cal.measure(|| {
            let id = tracer.open_op("op", i);
            let fg = tracer.child("global.fg", id, || global_nuclei(g, K, &cfg));
            let wg = tracer.child("global.wg", id, || weakly_global_nuclei(g, K, &cfg));
            tracer.close(id);
            (id, fg, wg)
        });
        ctx.tracer.set_factor(id, timed.factor());
        out.ops.push(timed);

        // The local decomposition at θ that the nuclei are checked
        // against, timed as a derived span for `global.local_ms`.
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((id, local), timed) = cal.measure(|| {
            let id = tracer.open_derived("derived.local");
            let local = tracer.child("global.local", id, || {
                Decomposition::compute(g, &local_config)
            });
            tracer.close(id);
            (id, local)
        });
        ctx.tracer.set_factor(id, timed.factor());

        let mut digest = Digest::default();
        let verdict = match (&fg, &wg, &local) {
            (Ok(fg), Ok(wg), Ok(local)) => {
                fg_total += fg.len();
                wg_total += wg.len();
                let fg = fg
                    .iter()
                    .map(|n| (n.k, &n.triangles[..], n.min_probability));
                let wg = wg
                    .iter()
                    .map(|n| (n.k, &n.triangles[..], n.min_probability));
                let backing = Backing::new(g, local);
                digest.u64(0xF6);
                let fg_ok = check_nuclei(&mut digest, fg, backing.as_ref().ok());
                digest.u64(0x36);
                let wg_ok = check_nuclei(&mut digest, wg, backing.as_ref().ok());
                backing.map(drop).and(fg_ok).and(wg_ok)
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e.to_string()),
        };
        ctx.verifier.check(digest.finish(), verdict);
    }
    if ctx.tracer.enabled() {
        for (layer, span) in [
            ("global.fg_ms", "global.fg"),
            ("global.wg_ms", "global.wg"),
            ("global.local_ms", "global.local"),
        ] {
            out.layer(layer, median_or_zero(&ctx.tracer.call_ms(span)));
        }
        out.layer("global.fg_nuclei", fg_total as f64);
        out.layer("global.wg_nuclei", wg_total as f64);
    }
    out
}

/// How strongly the local (ℓ) decomposition at θ backs each triangle of
/// a graph: the highest k such that the triangle lies in a 4-clique whose
/// four triangles all have ℓ-nucleusness at least k, or `None` for a
/// triangle in no 4-clique.  Every global nucleus must lie within it.
struct Backing {
    index: TriangleIndex,
    level: Vec<Option<u32>>,
}

impl Backing {
    fn new(g: &UncertainGraph, local: &Decomposition) -> Result<Self, String> {
        // The decomposition's element ids are the ids of the graph's
        // triangle index.
        let index = TriangleIndex::build_with(g, SEQ);
        let scores = local.scores();
        if scores.len() != index.len() {
            return Err(format!(
                "the local decomposition scores {} elements of {} triangles",
                scores.len(),
                index.len()
            ));
        }
        let mut level = vec![None; index.len()];
        for clique in FourCliqueEnumerator::with_parallelism(g, SEQ).cliques() {
            let ids = clique.triangles().map(|t| index.id_of(&t));
            let Some(ids) = ids.into_iter().collect::<Option<Vec<_>>>() else {
                return Err(format!(
                    "4-clique {clique:?} has a triangle not in the graph"
                ));
            };
            let min = ids.iter().map(|&id| scores[id as usize]).min();
            for id in ids {
                let l: &mut Option<u32> = &mut level[id as usize];
                *l = (*l).max(min);
            }
        }
        Ok(Backing { index, level })
    }

    /// Whether `t` lies in a 4-clique whose four triangles all have
    /// ℓ-nucleusness at least `k`.
    fn backs(&self, t: &Triangle, k: u32) -> bool {
        self.index
            .id_of(t)
            .and_then(|id| self.level[id as usize])
            .is_some_and(|l| l >= k)
    }
}

/// Folds each nucleus into the digest (its k, its sorted triangles and
/// its estimated probability) and checks that its probability reaches θ
/// and, given a `backing`, that every triangle of it is backed.
fn check_nuclei<'n>(
    digest: &mut Digest,
    nuclei: impl Iterator<Item = (u32, &'n [Triangle], f64)>,
    backing: Option<&Backing>,
) -> Result<(), String> {
    let mut verdict = Ok(());
    for (k, triangles, min_probability) in nuclei {
        let mut sorted: Vec<Triangle> = triangles.to_vec();
        sorted.sort_unstable();
        digest.u64(u64::from(k));
        digest.u64(sorted.len() as u64);
        for t in &sorted {
            digest.u32s(&t.vertices());
        }
        digest.u64(min_probability.to_bits());
        let distinct: HashSet<&Triangle> = sorted.iter().collect();
        if verdict.is_ok() {
            if distinct.len() != sorted.len() || sorted.is_empty() {
                verdict = Err(format!("a {k}-nucleus lists no or repeated triangles"));
            } else if min_probability < THETA {
                verdict = Err(format!(
                    "a {k}-nucleus has probability {min_probability} < θ"
                ));
            } else if let Some(t) = backing.and_then(|b| sorted.iter().find(|t| !b.backs(t, k))) {
                verdict = Err(format!(
                    "triangle {t:?} of a {k}-nucleus has no backing 4-clique"
                ));
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::ctx;

    #[test]
    fn backing_needs_a_four_clique_whose_triangles_all_reach_k() {
        // A 4-clique on 0..4 and a lone triangle on 4, 5, 6.
        let text = "0 1 0.9\n0 2 0.9\n0 3 0.9\n1 2 0.9\n1 3 0.9\n2 3 0.9\n\
                    4 5 0.9\n4 6 0.9\n5 6 0.9\n";
        let g = crate::run::parse(text);
        let config = DecompConfig::nucleus(THETA).with_parallelism(SEQ);
        let local = Decomposition::compute(&g, &config).expect("valid config");
        let backing = Backing::new(&g, &local).expect("consistent ids");
        // Each triangle of the 4-clique lies in that one clique only.
        assert!(backing.backs(&Triangle::new(0, 1, 2), 1));
        assert!(!backing.backs(&Triangle::new(0, 1, 2), 2));
        assert!(!backing.backs(&Triangle::new(4, 5, 6), 0));
        assert!(!backing.backs(&Triangle::new(0, 1, 4), 0));
    }

    #[test]
    fn global_ops_verify_and_repeat_their_digests() {
        let mut first = ctx(3, 3, Vec::new());
        run_with(&mut first, &SHAPE);
        assert_eq!(first.verifier.success_rate(), 1.0);
        let digests = crate::verify::parse_digests(&first.verifier.recorded_text("t")).unwrap();
        let mut second = ctx(3, 3, digests);
        run_with(&mut second, &SHAPE);
        assert_eq!(
            (second.verifier.attempted(), second.verifier.failed()),
            (3, 0)
        );
    }
}
