//! # detdecomp — empty
//!
//! This crate holds no code.  It exists only so the dependency graph
//! recorded in `perfbench/Cargo.lock`, the benchmark's lock file, in
//! which `nucleus` and `nd-server` depend on it, stays as it is; it goes
//! with those two edges when that lock may change.
