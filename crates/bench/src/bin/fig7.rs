//! Regenerates **Figure 7** of the paper: observed worst-case latency of
//! SS/NSS/P one-set partition configurations across address ranges,
//! against the analytical WCLs (5000 cycles for SS, 979250 for NSS at 16
//! ways / 21650 at 2 ways, 450 for P).
//!
//! The grid is the checked-in spec `crates/bench/specs/fig7.json`. Its
//! partitions have one set, "to force as many conflicts as possible".
//!
//! Usage: `cargo run --release -p predllc-bench --bin fig7 [--csv] [--ops N] [--seed S] [--writes F]`

use predllc_bench::figure::{self, flag, render_csv, render_table};
use predllc_bench::{data, error};
use predllc_explore::{run_grid, Executor, ExperimentSpec, GridResult};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            error!("fig7: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the grid; `Ok(false)` means a bound-violation check failed.
fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let args: Vec<String> = predllc_bench::log::init(std::env::args().collect());
    let csv = args.iter().any(|a| a == "--csv");
    let mut spec = ExperimentSpec::parse(include_str!("../../specs/fig7.json"))?;
    figure::override_workloads(
        &mut spec,
        flag(&args, "--ops")?,
        flag(&args, "--seed")?,
        flag(&args, "--writes")?,
    )?;
    let mut rows = run_grid(&spec, &Executor::new(0))?;
    figure::sort_by_x(&mut rows);

    if csv {
        predllc_bench::log::write_data(&render_csv(&rows));
        return Ok(true);
    }
    data!("{}", render_table(&spec.name, &rows, |r| r.observed_wcl));
    data!("Analytical WCLs (cycles):");
    for c in &spec.configs {
        let bound = rows
            .iter()
            .find(|r| r.config == c.label)
            .and_then(|r| r.analytical_wcl);
        data!(
            "  {:<12} {}",
            c.label,
            bound.map_or("-".to_string(), |v| v.to_string())
        );
    }
    data!();
    // The paper's criterion: every observation within its analytical WCL.
    let violations: Vec<&GridResult> = rows
        .iter()
        .filter(|m| m.analytical_wcl.is_some_and(|a| m.observed_wcl > a))
        .collect();
    if violations.is_empty() {
        data!("CHECK ok: all observed WCLs are within their analytical bounds");
        Ok(true)
    } else {
        data!(
            "CHECK FAILED: {} observations exceed their bound:",
            violations.len()
        );
        for v in violations {
            data!(
                "  {} @ {} B: observed {} > analytical {}",
                v.config,
                v.x,
                v.observed_wcl,
                v.analytical_wcl.unwrap_or(0)
            );
        }
        Ok(false)
    }
}
