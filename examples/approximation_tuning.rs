//! Choosing and validating the hybrid-approximation hyperparameters
//! (A, B, C, D of Section 5.3): replays the paper's tuning procedure by
//! comparing each approximation against the exact DP on sampled triangles
//! of a real-shaped dataset.
//!
//! Run with: `cargo run --release --example approximation_tuning`

use prob_nucleus_repro::nd_datasets::{PaperDataset, Scale};
use prob_nucleus_repro::nucleus::approx::{hybrid_max_k, select_method, ApproxMethod};
use prob_nucleus_repro::nucleus::{ApproxThresholds, SupportStructure};
use prob_nucleus_repro::ugraph::rs::dp;
use std::collections::HashMap;

fn main() {
    let theta = 0.3;
    let graph = PaperDataset::Flickr.generate(Scale::Tiny, 5);
    let support = SupportStructure::build(&graph);
    println!(
        "flickr-like graph: {} triangles, {} 4-cliques, theta = {theta}\n",
        support.num_triangles(),
        support.num_cliques()
    );

    // Candidate hyperparameter settings: the paper's defaults plus two
    // perturbations.
    let candidates = [
        (
            "paper defaults (A=200,B=100,C=0.25,D=0.9)",
            ApproxThresholds::default(),
        ),
        (
            "aggressive CLT (A=50)",
            ApproxThresholds {
                a: 50,
                ..ApproxThresholds::default()
            },
        ),
        (
            "binomial-friendly (D=0.5)",
            ApproxThresholds {
                d: 0.5,
                ..ApproxThresholds::default()
            },
        ),
    ];

    for (label, thresholds) in candidates {
        let mut method_counts: HashMap<ApproxMethod, usize> = HashMap::new();
        let mut exact_matches = 0usize;
        let mut total = 0usize;
        let mut total_abs_error = 0.0f64;
        for t in 0..support.num_triangles() as u32 {
            let probs = support.completion_probs(t);
            if probs.is_empty() {
                continue;
            }
            let tri_prob = support.triangle_prob(t);
            let exact = dp::max_k(tri_prob, &probs, theta);
            let (approx, method) = hybrid_max_k(tri_prob, &probs, theta, &thresholds);
            *method_counts.entry(method).or_insert(0) += 1;
            total += 1;
            if approx == exact {
                exact_matches += 1;
            }
            total_abs_error += (approx as f64 - exact as f64).abs();
        }
        println!("{label}");
        println!(
            "  agreement with DP: {:.2}%  (avg |error| = {:.4})",
            100.0 * exact_matches as f64 / total.max(1) as f64,
            total_abs_error / total.max(1) as f64
        );
        let mut counts: Vec<_> = method_counts.iter().collect();
        counts.sort_by_key(|(m, _)| m.name());
        for (method, count) in counts {
            println!("  {method:<18} used for {count} triangles");
        }
        println!();
    }

    // Show which method the default selector picks for a few support-list
    // shapes, illustrating conditions (1)-(5).
    println!("method selection examples (paper defaults):");
    let shapes: [(&str, Vec<f64>); 4] = [
        ("250 moderate completions", vec![0.4; 250]),
        ("20 weak completions", vec![0.05; 20]),
        ("120 strong completions", vec![0.9; 120]),
        ("10 equal completions of 0.3", vec![0.3; 10]),
    ];
    for (label, probs) in shapes {
        println!(
            "  {label:<28} -> {}",
            select_method(&probs, &ApproxThresholds::default())
        );
    }
}
