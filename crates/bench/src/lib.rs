//! # nd-bench — experiment harness for the nucleus-decomposition paper
//!
//! Every table and figure of the paper's evaluation (Section 7) has a
//! module here that regenerates it on the synthetic datasets of
//! [`nd_datasets`]:
//!
//! | module | paper artifact | what it reports |
//! |--------|----------------|-----------------|
//! | [`table1`] | Table 1 | dataset statistics |
//! | [`fig4`] | Figure 4 | running time of local decomposition, DP vs AP, per θ |
//! | [`fig5`] | Figure 5 | running time of fully-global (FG) vs weakly-global (WG) |
//! | [`table2`] | Table 2 | accuracy of AP scores vs DP scores |
//! | [`fig6`] | Figure 6 | relative error of each approximation under its conditions |
//! | [`table3`] | Table 3 | cohesiveness of nucleus vs truss vs core (PD, PCC) |
//! | [`fig7`] | Figure 7 | PD/PCC/edges/#nuclei of ℓ-(k,θ)-nuclei as k varies |
//! | [`fig8`] | Figure 8 | PD/PCC of g- vs w- vs ℓ-nuclei |
//! | [`ablation`] | (extra) | Monte-Carlo sample count vs estimation error; per-method scoring cost |
//! | [`parbench`] | (extra) | parallel-substrate speedups + peeling-engine perf counters, emitted as machine-readable `BENCH_parallel.json` |
//! | [`thetasweep`] | (extra) | θ-sweep amortization: one support build vs per-θ rebuilds, `support_builds` + per-θ counters as `bench-parallel/v7` JSON |
//! | [`report`] | (extra) | the one report model the five bench drivers return and the matrix emits: a JSON tree whose numbers carry their `bench-compare` gate tags, its counters and its one text rendering |
//! | [`compare`] | (extra) | `bench-compare`: diff two bench JSONs, gate CI on deterministic counters by their tags |
//! | [`million`] | (extra) | million-edge memory-scaling baseline: snapshot mmap vs owned reload, streaming index, truss sweep, as `bench-million/v2` JSON |
//! | [`serve`] | (extra) | `nd-server` smoke: scripted TCP session vs direct library calls, counters as `bench-serve/v3` JSON |
//! | [`updates`] | (extra) | incremental edge-update maintenance: repair vs rebuild work counters as `bench-updates/v2` JSON |
//! | [`registry`] | (extra) | scenario registry: the `Spec` values behind `experiments matrix`, emitted as a tagged `bench-matrix/v2` report |
//! | [`source`] | (extra) | the 50k-edge drivers' graph: a seeded G(n, m) graph or a file through the snapshot cache, and its timed ingest |
//! | [`cli`] | (extra) | the `experiments` binary's flag parsing: the flags each subcommand takes, the input trio, θ-grids, thread lists, and each bench subcommand's flags into the `Job` it runs |
//!
//! Run them through the `experiments` binary:
//!
//! ```text
//! cargo run -p nd-bench --release --bin experiments -- all --scale small
//! cargo run -p nd-bench --release --bin experiments -- fig4 --scale tiny
//! ```

pub mod ablation;
pub mod cli;
pub mod compare;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod million;
pub mod parbench;
pub mod registry;
pub mod report;
pub mod runner;
pub mod serve;
pub mod source;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod thetasweep;
pub mod updates;

/// The workspace's JSON reader/writer now lives with the wire protocol
/// in `nd-server`; this re-export keeps `nd_bench::json` paths working.
pub use nd_server::json;

pub use runner::{ExperimentContext, Timing};
