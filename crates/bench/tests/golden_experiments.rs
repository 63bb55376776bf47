//! Golden regression snapshots of the experiment drivers.
//!
//! Every table and figure driver runs at the pinned context
//! (`Scale::Small`, seed 42) and its deterministic output is compared
//! byte-for-byte against a committed expectation under `tests/golden/`.
//! Future performance refactors (parallel peeling, snapshot caches, new
//! enumeration orders) therefore cannot silently change any result the
//! paper reproduction reports.
//!
//! Two kinds of snapshot:
//!
//! * tables/figures whose `format()` output is fully deterministic
//!   (table1, table2, table3, fig6, fig7, fig8) are pinned verbatim;
//! * fig4/fig5 print wall-clock timings, so their *deterministic
//!   projection* (datasets, thresholds, scores, nucleus counts) is pinned
//!   instead.
//!
//! The heavyweight drivers (table3, fig5, fig8 — global decompositions
//! with Monte-Carlo sampling) are `#[ignore]`d here and executed by the
//! `test-thorough` CI job in release mode.
//!
//! To regenerate after an *intentional* change:
//! `UPDATE_GOLDEN=1 cargo test --release -p nd-bench --test golden_experiments -- --include-ignored`

use nd_bench::runner::ExperimentContext;
use nd_bench::{fig4, fig5, fig6, fig7, fig8, table1, table2, table3, thetasweep};
use nd_datasets::{PaperDataset, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

fn ctx() -> ExperimentContext {
    ExperimentContext::new(Scale::Small, 42)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated golden snapshot {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "\n=== {name} deviates from its golden snapshot ===\n\
         If this change is intentional, regenerate with:\n\
         UPDATE_GOLDEN=1 cargo test --release -p nd-bench --test golden_experiments -- --include-ignored\n"
    );
}

#[test]
fn golden_table1() {
    check_golden(
        "table1_small_seed42",
        &table1::run(&ctx(), &PaperDataset::all()).format(),
    );
}

#[test]
fn golden_table2() {
    let t = table2::run(&ctx(), &PaperDataset::all());
    assert!(t.check_shape().is_empty(), "{:?}", t.check_shape());
    check_golden("table2_small_seed42", &t.format());
}

#[test]
#[ignore = "heavy (truss/core baselines over 3 small datasets); run by the test-thorough CI job"]
fn golden_table3() {
    let t = table3::run(
        &ctx(),
        &[
            PaperDataset::Dblp,
            PaperDataset::Pokec,
            PaperDataset::Biomine,
        ],
    );
    check_golden("table3_small_seed42", &t.format());
}

#[test]
fn golden_fig4_scores() {
    // fig4's table prints timings; pin the deterministic projection:
    // per (dataset, θ), the DP and AP maximum nucleus scores.
    let fig = fig4::run(&ctx(), &[PaperDataset::Krogan, PaperDataset::Dblp]);
    let mut digest = String::from("fig4 deterministic projection: dataset theta kmax_dp kmax_ap\n");
    for p in &fig.points {
        writeln!(
            digest,
            "{} {:.1} {} {}",
            p.dataset, p.theta, p.max_score_dp, p.max_score_ap
        )
        .unwrap();
    }
    check_golden("fig4_scores_small_seed42", &digest);
}

#[test]
#[ignore = "heavy (global + weakly-global with 200 samples); run by the test-thorough CI job"]
fn golden_fig5_nucleus_counts() {
    // fig5's table prints timings; pin the nucleus counts instead.
    let fig = fig5::run(
        &ctx(),
        &[PaperDataset::Krogan, PaperDataset::Flickr],
        2,
        200,
    );
    let mut digest = String::from("fig5 deterministic projection: dataset k fg_nuclei wg_nuclei\n");
    for p in &fig.points {
        writeln!(
            digest,
            "{} {} {} {}",
            p.dataset, p.k, p.fg_nuclei, p.wg_nuclei
        )
        .unwrap();
    }
    check_golden("fig5_counts_small_seed42", &digest);
}

#[test]
fn golden_fig6() {
    check_golden("fig6_seed42", &fig6::run(&ctx(), fig6::SAMPLES).format());
}

#[test]
fn golden_fig7() {
    check_golden(
        "fig7_small_seed42",
        &fig7::run(&ctx(), PaperDataset::Flickr).format(),
    );
}

#[test]
fn golden_thetasweep() {
    // The sweep table is fully deterministic (counters only, no wall
    // times) and run_table re-verifies every grid point against an
    // independent decomposition before reporting.
    let t = thetasweep::run_table(
        &ctx(),
        &[PaperDataset::Krogan, PaperDataset::Dblp],
        &[0.05, 0.1, 0.3, 0.6],
    );
    check_golden("thetasweep_small_seed42", &t.format());
}

#[test]
#[ignore = "heavy (sweep + per-theta verification over all six datasets); run by the test-thorough CI job"]
fn golden_thetasweep_all_datasets() {
    let t = thetasweep::run_table(
        &ctx(),
        &PaperDataset::all(),
        &[0.02, 0.05, 0.1, 0.2, 0.4, 0.8],
    );
    check_golden("thetasweep_all_small_seed42", &t.format());
}

#[test]
#[ignore = "heavy (three decomposition modes over k sweep); run by the test-thorough CI job"]
fn golden_fig8() {
    let fig = fig8::run(
        &ctx(),
        &[
            PaperDataset::Krogan,
            PaperDataset::Flickr,
            PaperDataset::Dblp,
        ],
        3,
        200,
    );
    check_golden("fig8_small_seed42", &fig.format());
}

#[test]
fn golden_matrix_dry_run() {
    // The scenario listing is the registry's public face: every
    // registered scenario in name order, with its workload and tags.
    // Pinning it makes adding/renaming a scenario a reviewed, visible
    // diff.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["matrix", "--dry-run"])
        .output()
        .expect("experiments binary runs");
    assert!(
        output.status.success(),
        "matrix --dry-run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    check_golden("matrix_dry_run", &String::from_utf8_lossy(&output.stdout));
}
