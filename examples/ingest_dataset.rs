//! Ingest a real-world edge list, cache it as a `.ugsnap` snapshot, and
//! run the local nucleus decomposition on it.
//!
//! Run with: `cargo run --example ingest_dataset`
//!
//! The example writes a small Konect-style TSV to a temp directory (in a
//! real workflow this is the downloaded dataset), ingests it with the
//! exponential weight→probability model the paper uses for DBLP, and
//! shows the snapshot cache kicking in on the second load.

use std::time::Instant;

use prob_nucleus_repro::nd_datasets::ExternalDataset;
use prob_nucleus_repro::ugraph::io::EdgeProbabilityModel;
use prob_nucleus_repro::ugraph::InputFormat;
use prob_nucleus_repro::{DecompConfig, Decomposition};

fn main() {
    let dir = std::env::temp_dir().join("nd_ingest_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("collab.tsv");

    // A toy co-authorship network: `u v weight` rows where the weight is
    // the number of joint papers; repeated rows accumulate.
    let mut tsv = String::from("% toy co-authorship network\n");
    for (u, v, w) in [
        (0, 1, 6),
        (0, 2, 5),
        (1, 2, 7),
        (0, 3, 4),
        (1, 3, 3),
        (2, 3, 5),
        (3, 4, 1),
        (4, 5, 2),
        (4, 6, 2),
        (5, 6, 3),
    ] {
        tsv.push_str(&format!("{u}\t{v}\t{w}\n"));
    }
    std::fs::write(&path, tsv).expect("write dataset");

    let dataset = ExternalDataset::new(
        &path,
        InputFormat::Konect,
        EdgeProbabilityModel::ExponentialWeight { scale: 5.0 },
    );

    // First load parses the TSV and writes the snapshot cache…
    let t = Instant::now();
    let graph = dataset.load_cached().expect("ingest dataset");
    println!(
        "parsed {}: {} vertices, {} edges in {:?}",
        dataset.name,
        graph.num_vertices(),
        graph.num_edges(),
        t.elapsed()
    );
    println!(
        "snapshot cache: {}",
        dataset.snapshot_cache_path().display()
    );

    // …the second load reads the snapshot instead.
    let t = Instant::now();
    let again = dataset.load_cached().expect("reload from snapshot");
    assert_eq!(graph, again);
    println!("reloaded from snapshot in {:?}", t.elapsed());

    // The ingested graph plugs straight into the decomposition stack.
    let local = Decomposition::compute(&graph, &DecompConfig::nucleus(0.05)).expect("decompose");
    println!(
        "local nucleus decomposition: {} triangles, max score {}",
        local.num_elements(),
        local.max_score()
    );
    let k = local.max_score().max(1);
    for nucleus in local.k_nuclei(&graph, k).expect("nucleus rank") {
        println!(
            "  nucleus with {} vertices / {} edges",
            nucleus.num_vertices(),
            nucleus.num_edges()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
