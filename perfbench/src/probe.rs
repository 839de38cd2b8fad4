//! In-process replay of a run's probe jobs through each layer's public
//! functions. Untraced, it yields the exact `SimStats` counts every run
//! records for the determinism check; traced, it also times the
//! explore, core and workload layers call by call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use predllc::explore::report::{render_csv, render_json};
use predllc::explore::{
    build_platforms, canonical_fingerprint, json, plan_grid, run_grid_traced, search_partitions,
    Executor, ExperimentSpec,
};
use predllc::model::CoreId;
use predllc::obs::{TraceCtx, TraceId, Tracer};
use predllc::sim::{EngineProfile, SimStats, Simulator};
use predllc::workload::Workload as _;

use crate::specs::SpecGen;
use crate::trace::Recorder;

/// Exact simulation counts, summed over every unique point of the probe
/// jobs, keyed by `layer.counter`.
pub type Counts = BTreeMap<&'static str, u64>;

fn add_stats(counts: &mut Counts, stats: &SimStats) {
    let cores = |f: fn(&predllc::sim::CoreStats) -> u64| stats.cores.iter().map(f).sum::<u64>();
    for (name, value) in [
        ("core.ops", cores(|c| c.ops_completed)),
        ("core.requests", cores(|c| c.requests)),
        ("bus.slots", stats.slots),
        ("bus.idle_slots", stats.idle_slots),
        ("bus.blocked_slots", cores(|c| c.blocked_slots)),
        ("cache.llc_hits", cores(|c| c.llc_hits)),
        ("cache.llc_fills", cores(|c| c.llc_fills)),
        ("cache.back_invalidations", cores(|c| c.back_invalidations)),
        ("cache.evictions", stats.evictions_triggered),
        ("dram.reads", stats.dram_reads),
        ("dram.writes", stats.dram_writes),
        ("dram.row_hits", stats.dram_row_hits),
    ] {
        *counts.entry(name).or_default() += value;
    }
}

/// Per-call timings of the traced replay.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Specs replayed.
    pub specs: u64,
    /// `ExperimentSpec::parse`, summed.
    pub parse: Duration,
    /// `canonical_fingerprint`, summed.
    pub fingerprint: Duration,
    /// `plan_grid`, summed.
    pub plan: Duration,
    /// Unique and declared grid points.
    pub unique_points: u64,
    /// Declared grid points.
    pub total_points: u64,
    /// `explore.point` queue waits and compute times from
    /// `run_grid_traced`, summed, and how many points.
    pub point_wait: Duration,
    /// See `point_wait`.
    pub point_compute: Duration,
    /// See `point_wait`.
    pub points: u64,
    /// `search_partitions`, summed, with candidates evaluated and how
    /// many specs declared a search.
    pub search: Duration,
    /// See `search`.
    pub search_candidates: u64,
    /// See `search`.
    pub searches: u64,
    /// `render_csv` and `render_json`, summed.
    pub render_csv: Duration,
    /// See `render_csv`.
    pub render_json: Duration,
    /// `Simulator::run` per unique point, summed, and the ops it ran.
    pub sim_run: Duration,
    /// See `sim_run`.
    pub sim_ops: u64,
    /// Draining each point's generators, summed, and the ops drained.
    pub gen_drain: Duration,
    /// See `gen_drain`.
    pub gen_ops: u64,
    /// `EngineProfile` stage samples `(sum_ns, count)`: arbiter, llc,
    /// dram, idle_jump.
    pub stages: [(u64, u64); 4],
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    (out, start, Instant::now())
}

/// Replays jobs `0..probe_jobs` of `gen`. With a recorder, every call
/// is timed and recorded as a span; the counts are identical either way.
pub fn replay(
    gen: &SpecGen,
    probe_jobs: u64,
    exec: &Executor,
    rec: Option<&Recorder>,
) -> Result<(Counts, LayerTimes), String> {
    let mut counts = Counts::new();
    let mut times = LayerTimes::default();
    for index in 0..probe_jobs {
        let document = gen.spec(index);
        let job = format!("probe-{index}");
        let began = Instant::now();
        let (parsed, s, e) = timed(|| ExperimentSpec::parse(&document));
        let spec = parsed.map_err(|e| format!("probe spec {index} rejected: {e}"))?;
        let platforms = build_platforms(&spec).map_err(|e| format!("probe spec {index}: {e}"))?;
        let plan = plan_grid(&spec);
        let mut spans: Vec<(&'static str, Instant, Instant)> = vec![("explore.parse", s, e)];

        if rec.is_some() {
            times.specs += 1;
            times.parse += e - s;
            let doc = json::parse(&document).map_err(|e| e.to_string())?;
            let (_, s, e) = timed(|| std::hint::black_box(canonical_fingerprint(&doc)));
            times.fingerprint += e - s;
            spans.push(("explore.fingerprint", s, e));
            let (p, s, e) = timed(|| plan_grid(&spec));
            times.plan += e - s;
            times.unique_points += p.unique.len() as u64;
            times.total_points += p.points.len() as u64;
            spans.push(("explore.plan", s, e));

            let tracer = Tracer::new();
            let tracer_epoch = Instant::now() - Duration::from_nanos(tracer.now_ns());
            let ctx = TraceCtx::new(&tracer, TraceId::fresh());
            let (run, s, e) = timed(|| run_grid_traced(&spec, exec, &|_, _| {}, Some(ctx)));
            let run = run.map_err(|e| format!("probe spec {index}: {e}"))?;
            spans.push(("explore.grid", s, e));
            for event in tracer.drain() {
                if event.name != "explore.point" || event.dur_ns.is_none() {
                    continue;
                }
                let dur = event.dur_ns.unwrap_or(0);
                let wait = event
                    .fields
                    .iter()
                    .find(|(k, _)| k == "queue_wait_ns")
                    .and_then(|(_, v)| match v {
                        predllc::obs::FieldValue::U64(n) => Some(*n),
                        predllc::obs::FieldValue::Str(_) => None,
                    })
                    .unwrap_or(0);
                times.points += 1;
                times.point_wait += Duration::from_nanos(wait);
                times.point_compute += Duration::from_nanos(dur);
                let end = tracer_epoch + Duration::from_nanos(event.ts_ns);
                spans.push(("explore.point", end - Duration::from_nanos(dur), end));
            }
            let search = match &spec.search {
                Some(block) => {
                    let (out, s, e) =
                        timed(|| search_partitions(block, spec.cores, &spec.tasks, exec));
                    let out = out.map_err(|e| format!("probe spec {index}: {e}"))?;
                    times.search += e - s;
                    times.searches += 1;
                    times.search_candidates += out.evaluated.len() as u64;
                    spans.push(("explore.search", s, e));
                    Some(out)
                }
                None => None,
            };
            let (_, s, e) = timed(|| std::hint::black_box(render_csv(&run.rows)));
            times.render_csv += e - s;
            spans.push(("explore.render_csv", s, e));
            let (_, s, e) = timed(|| {
                std::hint::black_box(render_json(
                    &spec.name,
                    exec.threads(),
                    None,
                    &run.rows,
                    search.as_ref(),
                ))
            });
            times.render_json += e - s;
            spans.push(("explore.render_json", s, e));
        }

        for &(ci, wi) in &plan.unique {
            let workload = spec.workloads[wi].spec.build(spec.cores);
            let sim = Simulator::new(platforms[ci].0.clone())
                .map_err(|e| format!("probe spec {index}: {e}"))?;
            let (report, s, e) = timed(|| sim.run(&workload));
            let report = report.map_err(|e| format!("probe spec {index}: {e}"))?;
            add_stats(&mut counts, &report.stats);
            if rec.is_none() {
                continue;
            }
            times.sim_run += e - s;
            times.sim_ops += report
                .stats
                .cores
                .iter()
                .map(|c| c.ops_completed)
                .sum::<u64>();
            spans.push(("core.run", s, e));

            let (drained, s, e) = timed(|| {
                (0..spec.cores)
                    .map(|c| workload.core_ops(CoreId::new(c)).count() as u64)
                    .sum::<u64>()
            });
            times.gen_drain += e - s;
            times.gen_ops += drained;
            spans.push(("workload.gen", s, e));

            let profile = EngineProfile::default();
            let (profiled, s, e) = timed(|| sim.run_profiled(&workload, Some(&profile)));
            profiled.map_err(|e| format!("probe spec {index}: {e}"))?;
            spans.push(("core.run_profiled", s, e));
            for (k, h) in [
                &profile.arbiter,
                &profile.llc,
                &profile.dram,
                &profile.idle_jump,
            ]
            .into_iter()
            .enumerate()
            {
                let snap = h.snapshot();
                times.stages[k].0 += snap.sum;
                times.stages[k].1 += snap.count;
            }
        }

        if let Some(rec) = rec {
            let root = rec.record("replay", 0, &job, began, Instant::now());
            let mut grid = 0;
            for (name, s, e) in spans {
                let parent = if name == "explore.point" { grid } else { root };
                let id = rec.record(name, parent, &job, s, e);
                if name == "explore.grid" {
                    grid = id;
                }
            }
        }
    }
    Ok((counts, times))
}
