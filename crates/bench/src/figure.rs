//! Shared plumbing of the figure binaries (`fig7`, `fig8`,
//! `dram_sensitivity`).
//!
//! Each figure is a checked-in experiment spec under
//! `crates/bench/specs/`. A binary parses its spec, applies its
//! command-line workload overrides with [`override_workloads`], runs the
//! grid through [`predllc_explore::run_grid`] and renders the rows with
//! [`render_table`], [`render_csv`] or [`render_csv_with_backend`].

use std::fmt::Display;
use std::str::FromStr;

use predllc_explore::{ExperimentSpec, GridResult};
use predllc_workload::WorkloadSpec;

/// The value following `name` in `args`, parsed.
///
/// `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// A message naming the flag when its value is missing or does not
/// parse as `T`.
pub fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("invalid value '{value}' for {name}: {e}"))
}

/// Sets every workload's op count, seed and write fraction to the given
/// overrides (each only where given and where the workload family has
/// that parameter), then validates the result.
///
/// # Errors
///
/// The first overridden workload that fails
/// [`WorkloadSpec::validate`], named by its label.
pub fn override_workloads(
    spec: &mut ExperimentSpec,
    ops: Option<usize>,
    seed: Option<u64>,
    write_fraction: Option<f64>,
) -> Result<(), String> {
    for entry in &mut spec.workloads {
        let (n, s, w) = match &mut entry.spec {
            WorkloadSpec::Uniform {
                ops,
                seed,
                write_fraction,
                ..
            } => (ops, Some(seed), Some(write_fraction)),
            WorkloadSpec::Stride { ops, .. } => (ops, None, None),
            WorkloadSpec::PointerChase { ops, seed, .. }
            | WorkloadSpec::HotCold { ops, seed, .. } => (ops, Some(seed), None),
        };
        if let Some(v) = ops {
            *n = v;
        }
        if let (Some(v), Some(s)) = (seed, s) {
            *s = v;
        }
        if let (Some(v), Some(w)) = (write_fraction, w) {
            *w = v;
        }
        entry
            .spec
            .validate()
            .map_err(|m| format!("workload '{}': {m}", entry.label))?;
    }
    Ok(())
}

/// Sorts rows by x-axis value, then configuration label: the order the
/// figure tables and seed-format CSVs print.
pub fn sort_by_x(rows: &mut [GridResult]) {
    rows.sort_by(|a, b| (a.x, &a.config).cmp(&(b.x, &b.config)));
}

/// Renders rows as an aligned text table: one line per x-axis value,
/// one column per configuration (in first-seen order), each cell
/// `value(row)`.
pub fn render_table(title: &str, rows: &[GridResult], value: fn(&GridResult) -> u64) -> String {
    let mut labels: Vec<&str> = Vec::new();
    for r in rows {
        if !labels.contains(&r.config.as_str()) {
            labels.push(&r.config);
        }
    }
    let mut xs: Vec<u64> = rows.iter().map(|r| r.x).collect();
    xs.sort_unstable();
    xs.dedup();

    let mut out = format!("{title}\n{:>10}", "range(B)");
    for l in &labels {
        out.push_str(&format!(" {l:>14}"));
    }
    out.push('\n');
    for x in xs {
        out.push_str(&format!("{x:>10}"));
        for l in &labels {
            match rows.iter().find(|r| r.x == x && r.config == *l) {
                Some(r) => out.push_str(&format!(" {:>14}", value(r))),
                None => out.push_str(&format!(" {:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

fn analytical(r: &GridResult) -> String {
    r.analytical_wcl.map_or(String::new(), |v| v.to_string())
}

/// Renders rows as the seed's figure CSV.
pub fn render_csv(rows: &[GridResult]) -> String {
    let mut out =
        String::from("label,workload,range_bytes,observed_wcl,execution_time,analytical_wcl\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.config,
            r.workload,
            r.x,
            r.observed_wcl,
            r.execution_time,
            analytical(r),
        ));
    }
    out
}

/// Renders rows as CSV with the memory-backend label and row-hit-rate
/// columns: the format of backend comparisons like `dram_sensitivity`.
pub fn render_csv_with_backend(rows: &[GridResult]) -> String {
    let mut out = String::from(
        "label,workload,backend,range_bytes,observed_wcl,execution_time,analytical_wcl,\
         row_hit_rate\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:.3}\n",
            r.config,
            r.workload,
            r.backend,
            r.x,
            r.observed_wcl,
            r.execution_time,
            analytical(r),
            r.row_hit_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_or_fail_naming_the_flag() {
        let a = args(&["--csv", "--ops", "500", "--writes", "0.3"]);
        assert_eq!(flag::<usize>(&a, "--ops"), Ok(Some(500)));
        assert_eq!(flag::<f64>(&a, "--writes"), Ok(Some(0.3)));
        assert_eq!(flag::<u64>(&a, "--seed"), Ok(None));

        for (list, name) in [
            (&["--ops", "abc"][..], "--ops"),
            (&["--ops", "1e3"][..], "--ops"),
            (&["--seed", "-1"][..], "--seed"),
            (&["--ops"][..], "--ops"),
        ] {
            let err = flag::<u64>(&args(list), name).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    const SPEC: &str = r#"{"name": "t", "cores": 2, "configs": [],
        "workloads": [
            {"kind": "uniform", "range_bytes": 1024, "ops": 10, "seed": 1},
            {"kind": "stride", "range_bytes": 1024, "ops": 10}
        ]}"#;

    #[test]
    fn overrides_reach_every_family_that_has_the_parameter() {
        let mut spec = ExperimentSpec::parse(SPEC).unwrap();
        override_workloads(&mut spec, Some(77), Some(9), Some(0.5)).unwrap();
        assert_eq!(
            spec.workloads[0].spec,
            WorkloadSpec::Uniform {
                range_bytes: 1024,
                ops: 77,
                seed: 9,
                write_fraction: 0.5
            }
        );
        assert_eq!(
            spec.workloads[1].spec,
            WorkloadSpec::Stride {
                range_bytes: 1024,
                stride: 64,
                ops: 77
            }
        );
        // An out-of-range value is rejected before anything runs.
        let err = override_workloads(&mut spec, None, None, Some(1.5)).unwrap_err();
        assert!(
            err.contains("uniform/1024B") && err.contains("1.5"),
            "{err}"
        );
    }

    fn row(config: &str, backend: &str, x: u64, wcl: u64, exec: u64) -> GridResult {
        GridResult {
            config: config.into(),
            workload: format!("uniform/{x}B"),
            backend: backend.into(),
            x,
            requests: 1,
            p50: wcl,
            p90: wcl,
            p99: wcl,
            p100: wcl,
            observed_wcl: wcl,
            mean_latency: wcl as f64,
            execution_time: exec,
            analytical_wcl: (backend == "fixed(30)").then_some(100),
            row_hit_rate: 0.75,
            attribution: None,
        }
    }

    #[test]
    fn renderers_cover_every_cell() {
        let mut rows = vec![
            row("B", "banked(1x8,interleaved)", 1024, 20, 88),
            row("A", "fixed(30)", 2048, 30, 77),
            row("A", "fixed(30)", 1024, 10, 99),
        ];
        sort_by_x(&mut rows);
        assert_eq!(
            render_table("T", &rows, |r| r.observed_wcl),
            "T\n  range(B)              A              B\n\
             \u{20}     1024             10             20\n\
             \u{20}     2048             30              -\n"
        );
        assert_eq!(
            render_csv(&rows),
            "label,workload,range_bytes,observed_wcl,execution_time,analytical_wcl\n\
             A,uniform/1024B,1024,10,99,100\n\
             B,uniform/1024B,1024,20,88,\n\
             A,uniform/2048B,2048,30,77,100\n"
        );
        let cb = render_csv_with_backend(&rows);
        assert!(cb.starts_with("label,workload,backend,"));
        assert!(cb.contains("A,uniform/1024B,fixed(30),1024,10,99,100,0.750"));
        assert!(cb.contains("B,uniform/1024B,banked(1x8,interleaved),1024,20,88,,0.750"));
    }
}
