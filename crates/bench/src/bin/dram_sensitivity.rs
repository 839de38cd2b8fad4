//! DRAM sensitivity sweep: row-hit ratio × bank count × bank-sharing
//! mode, beyond the paper's fixed-latency memory model.
//!
//! Workload locality controls the row-hit ratio (a 64 B stride streams
//! whole rows; a row-sized stride forces a row miss per access; uniform
//! traffic is the random baseline), while the configuration axis sweeps
//! the banked backend's bank count under both the interleaved and the
//! bank-privatized per-core mapping, against the seed's fixed-latency
//! DRAM. Bank counts are multiples of the core count so the privatized
//! mapping always slices evenly. Every configuration is four cores with
//! private `P(4,2)` LLC partitions, so DRAM effects are isolated from
//! LLC interference, and each core strides over its own 64 KiB window
//! (adjacent windows, so cores never share DRAM rows).
//!
//! The grid is the checked-in spec
//! `crates/bench/specs/dram_sensitivity.json`; the output is its CSV
//! with the backend label column.
//!
//! Usage: `cargo run --release -p predllc-bench --bin dram_sensitivity
//! [--quick] [--ops N]`

use predllc_bench::figure::{self, flag, render_csv_with_backend};
use predllc_bench::{error, status};
use predllc_explore::{run_grid, Executor, ExperimentSpec};
use std::process::ExitCode;

/// The `--quick` grid: the fixed baseline and 8 banks under both
/// mappings, on the row-streaming stride and the uniform baseline.
const QUICK: [&str; 5] = ["fixed", "b8/il", "b8/priv", "stride/64B", "uniform/64KiB"];

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            error!("dram_sensitivity: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the sweep; `Ok(false)` means the soundness check failed.
fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let args: Vec<String> = predllc_bench::log::init(std::env::args().collect());
    let quick = args.iter().any(|a| a == "--quick");
    let mut spec = ExperimentSpec::parse(include_str!("../../specs/dram_sensitivity.json"))?;
    if quick {
        spec.configs.retain(|c| QUICK.contains(&c.label.as_str()));
        spec.workloads.retain(|w| QUICK.contains(&w.label.as_str()));
    }
    let ops = flag(&args, "--ops")?.or(quick.then_some(200));
    figure::override_workloads(&mut spec, ops, None, None)?;

    let rows = run_grid(&spec, &Executor::new(0))?;
    predllc_bench::log::write_data(&render_csv_with_backend(&rows));

    // Soundness check: every observation stays within its row's
    // analytical WCL (the private-partition bound (2N+1)·SW here),
    // regardless of the memory backend.
    let violations = rows
        .iter()
        .filter(|m| m.observed_wcl > m.analytical_wcl.unwrap_or(u64::MAX))
        .count();
    if violations > 0 {
        error!("CHECK FAILED: {violations} observations exceed their analytical bound");
        return Ok(false);
    }
    status!(
        "CHECK ok: all {} observations within their analytical bounds",
        rows.len()
    );
    Ok(true)
}
