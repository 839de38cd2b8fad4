//! Regenerates **Figure 8** of the paper: execution time of the
//! synthetic workload when a fixed LLC capacity is shared (SS/NSS) vs.
//! split into private partitions (P), for 2- and 4-core setups at 4096 B
//! and 8192 B total capacity.
//!
//! The paper's captions print `P(8,2)` / `P(8,4)` for both core counts.
//! For 4 cores that is the equal division of the fixed capacity; for 2
//! cores equal division would be `P(16,2)` / `P(16,4)`. Both readings are
//! reported (the printed one as `P`, the equal division as `P=`); see
//! `EXPERIMENTS.md`.
//!
//! Each panel is a checked-in spec, `crates/bench/specs/fig8a.json` …
//! `fig8d.json`, whose `name` is the panel title.
//!
//! Usage: `cargo run --release -p predllc-bench --bin fig8 [--csv] [--ops N] [--seed S] [--writes F]`

use predllc_bench::figure::{self, flag, render_csv, render_table};
use predllc_bench::{data, error};
use predllc_explore::{run_grid, Executor, ExperimentSpec, GridResult};
use std::process::ExitCode;

const PANELS: [&str; 4] = [
    include_str!("../../specs/fig8a.json"),
    include_str!("../../specs/fig8b.json"),
    include_str!("../../specs/fig8c.json"),
    include_str!("../../specs/fig8d.json"),
];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            error!("fig8: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = predllc_bench::log::init(std::env::args().collect());
    let csv = args.iter().any(|a| a == "--csv");
    let ops = flag(&args, "--ops")?;
    let seed = flag(&args, "--seed")?;
    let writes = flag(&args, "--writes")?;

    for panel in PANELS {
        let mut spec = ExperimentSpec::parse(panel)?;
        figure::override_workloads(&mut spec, ops, seed, writes)?;
        let mut rows = run_grid(&spec, &Executor::new(0))?;
        figure::sort_by_x(&mut rows);

        if csv {
            predllc_bench::log::write_data(&render_csv(&rows));
        } else {
            data!("{}", render_table(&spec.name, &rows, |r| r.execution_time));
            print_speedups(&spec, &rows);
        }
    }
    Ok(())
}

/// The paper reports SS's average speedup over NSS and P across the
/// ranges where the address range exceeds the partition share. The
/// panel's first configuration is its SS column.
fn print_speedups(spec: &ExperimentSpec, rows: &[GridResult]) {
    let ss_label = &spec.configs[0].label;
    for c in spec.configs.iter().skip(1) {
        let label = &c.label;
        let mut ratios = Vec::new();
        for r in rows.iter().filter(|r| &r.config == ss_label) {
            if let Some(other) = rows.iter().find(|o| &o.config == label && o.x == r.x) {
                if r.execution_time > 0 {
                    ratios.push(other.execution_time as f64 / r.execution_time as f64);
                }
            }
        }
        if !ratios.is_empty() {
            let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
            data!("  average speedup of {ss_label} over {label}: {avg:.2}x");
        }
    }
    data!();
}
