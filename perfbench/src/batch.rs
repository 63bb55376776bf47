//! `batch`: independent ℓ-NuDecomp runs over a corpus of distinct
//! clustered graphs.
//!
//! One op builds a graph's (3,4) support and computes the decomposition
//! at five thresholds on it.  No work is shared between ops, so the
//! support layers (triangle index, 4-clique enumeration, assembly) carry
//! most of each op, and ingest lands in `setup_s`.

use nucleus::{DecompConfig, DecompHandle, Decomposition, Rank};

use crate::gen::{self, GraphShape, Rng};
use crate::run::{parse_corpus, report_support_layers, Ctx, Outcome, PeelTally, SEQ};
use crate::verify::Digest;

/// About 44k edges, 42k triangles and 17k 4-cliques per graph.
/// Communities of nearly one size keep the corpus' work within a few
/// percent across seeds.
pub const SHAPE: GraphShape = GraphShape {
    vertices: 6000,
    attach: 5,
    closure: 0.6,
    communities: 120,
    community_size: (20, 26),
    density: 0.5,
};

/// Distinct graphs; op `i` decomposes graph `i % CORPUS`.
pub const CORPUS: usize = 16;

/// The thresholds each op computes, ascending.
pub const THETAS: [f64; 5] = [0.05, 0.1, 0.2, 0.3, 0.5];

/// Ops per second of `--seconds`, sized so one run takes about
/// `--seconds` on a nominal host.
pub const OPS_PER_SECOND: f64 = 7.0;

fn config(theta: f64) -> DecompConfig {
    DecompConfig::nucleus(theta).with_parallelism(SEQ)
}

pub fn corpus_texts(seed: u64, count: usize, shape: &GraphShape) -> Vec<String> {
    (0..count)
        .map(|i| gen::to_text(&gen::graph(shape, &mut Rng::new(seed, 100 + i as u64))))
        .collect()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    run_with(ctx, &SHAPE, CORPUS)
}

pub(crate) fn run_with(ctx: &mut Ctx, shape: &GraphShape, corpus: usize) -> Outcome {
    let texts = corpus_texts(ctx.seed, corpus, shape);
    let (graphs, mut out) = parse_corpus(ctx, &texts);
    let mut peel = PeelTally::default();
    for i in 0..ctx.ops {
        let g = &graphs[i % corpus];
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((id, handle, points), timed) = cal.measure(|| {
            let id = tracer.open_op("op", i);
            let handle = tracer.child("support.build", id, || {
                DecompHandle::build(g, Rank::Nucleus, SEQ)
            });
            let points: Vec<_> = THETAS
                .iter()
                .map(|&t| tracer.child("peel.compute_at", id, || handle.compute_at(&config(t))))
                .collect();
            tracer.close(id);
            (id, handle, points)
        });
        ctx.tracer.set_factor(id, timed.factor());
        out.ops.push(timed);
        let (digest, verdict) = check(&handle, &points);
        ctx.verifier.check(digest, verdict);
        points.iter().flatten().for_each(|d| peel.add(d));
    }
    if ctx.tracer.enabled() {
        report_support_layers(ctx, &mut out, &graphs, &peel);
    }
    out
}

/// Digest of the scores at every threshold, and the invariants every
/// input must satisfy: no error, scores at most the initial scores, and
/// scores non-increasing as the threshold rises.
fn check(
    handle: &DecompHandle,
    points: &[nucleus::Result<Decomposition>],
) -> (u64, Result<(), String>) {
    let mut digest = Digest::default();
    let mut previous: Option<&[u32]> = None;
    for (theta, point) in THETAS.iter().zip(points) {
        let d = match point {
            Ok(d) => d,
            Err(e) => return (digest.finish(), Err(format!("theta {theta}: {e}"))),
        };
        digest.u32s(d.scores());
        let verdict = if d.num_elements() != handle.num_elements() {
            Err("one score per triangle")
        } else if d
            .scores()
            .iter()
            .zip(d.initial_scores())
            .any(|(s, i)| s > i)
        {
            Err("a score exceeds its initial score")
        } else if previous.is_some_and(|p| d.scores().iter().zip(p).any(|(s, p)| s > p)) {
            Err("a score rose with the threshold")
        } else {
            Ok(())
        };
        if let Err(why) = verdict {
            return (digest.finish(), Err(format!("theta {theta}: {why}")));
        }
        previous = Some(d.scores());
    }
    (digest.finish(), Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::ctx;

    const TINY: GraphShape = GraphShape {
        vertices: 300,
        attach: 3,
        closure: 0.6,
        communities: 8,
        community_size: (6, 14),
        density: 0.6,
    };

    #[test]
    fn every_op_verifies_and_repeats_its_digests() {
        let mut first = ctx(11, 4, Vec::new());
        run_with(&mut first, &TINY, 2);
        assert_eq!(first.verifier.success_rate(), 1.0);
        let digests = crate::verify::parse_digests(&first.verifier.recorded_text("t")).unwrap();
        assert_eq!(digests[0], digests[2], "op 2 decomposes graph 0 again");

        let mut second = ctx(11, 4, digests);
        run_with(&mut second, &TINY, 2);
        assert_eq!(
            (second.verifier.attempted(), second.verifier.failed()),
            (4, 0)
        );
    }

    #[test]
    fn a_corrupted_digest_fails_its_op() {
        let mut first = ctx(12, 3, Vec::new());
        run_with(&mut first, &TINY, 3);
        let mut digests = crate::verify::parse_digests(&first.verifier.recorded_text("t")).unwrap();
        digests[1] ^= 1;
        let mut second = ctx(12, 3, digests);
        run_with(&mut second, &TINY, 3);
        assert_eq!(second.verifier.failed(), 1);
        assert!(second.verifier.success_rate() < 1.0);
    }
}
