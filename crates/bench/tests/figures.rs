//! Golden-output tests for the figure binaries and the ablation study,
//! plus a parse check of every checked-in spec.
//!
//! The golden files under `tests/golden/` are the exact stdout of the
//! figure binaries at small op counts (and of `ablation` at its fixed
//! size). Any drift in a figure's bytes —
//! from the specs, the grid runner, the engine or the renderers — fails
//! here. To regenerate one after an intended change, run the command
//! named in its test and redirect stdout over the file.

use std::path::Path;
use std::process::{Command, Output};

use predllc_explore::{plan_grid, ExperimentSpec};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn assert_golden(bin: &str, args: &[&str], golden: &str) {
    let out = run(bin, args);
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout == golden,
        "{bin} {args:?} drifted from its golden output:\n--- got\n{stdout}\n--- want\n{golden}"
    );
}

#[test]
fn fig7_csv_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig7"),
        &["--csv", "--ops", "200"],
        include_str!("golden/fig7_csv_ops200.csv"),
    );
}

#[test]
fn fig8_csv_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig8"),
        &["--csv", "--ops", "200"],
        include_str!("golden/fig8_csv_ops200.csv"),
    );
}

#[test]
fn dram_sensitivity_quick_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_dram_sensitivity"),
        &["--quick", "--ops", "50"],
        include_str!("golden/dram_sensitivity_quick_ops50.csv"),
    );
}

/// The only end-to-end run of all four LLC replacement policies.
#[test]
fn ablation_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_ablation"),
        &[],
        include_str!("golden/ablation.txt"),
    );
}

#[test]
fn out_of_range_writes_is_a_clean_error() {
    let out = run(env!("CARGO_BIN_EXE_fig7"), &["--writes", "1.5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("write_fraction 1.5"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn every_checked_in_spec_parses_and_plans_a_grid() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("specs directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = ExperimentSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            !plan_grid(&spec).unique.is_empty(),
            "{} plans an empty grid",
            path.display()
        );
        checked += 1;
    }
    // explore_smoke, fig7, fig8a-d, dram_sensitivity.
    assert!(
        checked >= 7,
        "only {checked} specs found in {}",
        dir.display()
    );
}
