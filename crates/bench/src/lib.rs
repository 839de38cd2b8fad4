//! Experiment binaries for the `predllc` reproduction.
//!
//! The binaries regenerate the paper's figures:
//!
//! * `fig7` — observed vs. analytical WCL for SS/NSS/P one-set
//!   partitions (paper Fig. 7);
//! * `fig8` — execution time under fixed total capacity, shared vs.
//!   split (paper Fig. 8a-d);
//! * `headline` — the analytical WCL table and the "2048x" ratio claim;
//! * `ablation` — arbiter/replacement/sharer-count sweeps beyond the
//!   paper;
//! * `explore` — design-space exploration from a JSON spec: grids with
//!   full latency percentiles plus the schedulability-driven partition
//!   search (see `predllc-explore`).
//!
//! `fig7`, `fig8` and `dram_sensitivity` are thin wrappers around
//! checked-in specs under `crates/bench/specs/`, run through
//! [`predllc_explore::run_grid`]; [`figure`] holds their flag parsing
//! and renderers. The same specs run unmodified through `explore`,
//! `serve` and `fleet`.
//!
//! `benches/microbench.rs` holds the (self-contained) microbenchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure;
pub mod log;
pub mod monitor;
