//! predllc's end-to-end benchmark: experiment specs served as jobs by
//! an in-process `Server` (or a fleet coordinator over two in-process
//! workers), each timed from submission to the last streamed result
//! byte, with every result checked against in-process `run_spec`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|small-jobs|resubmit-stream|fleet-grid> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! traced phase follows the untraced one and the metrics are per layer.
//! Run artifacts (trace JSON Lines, the `SimStats` record of each seed)
//! go to `.perfbench_out/` under the working directory.

mod check;
mod drive;
mod env;
mod probe;
mod specs;
mod trace;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use predllc::explore::{
    build_platforms, measure, plan_grid, point_fingerprint, Executor, ExperimentSpec, PointRequest,
};
use predllc::model::CoreId;
use predllc::serve::{Client, Format, MetricsSnapshot};

use check::{CheckTally, Reference};
use drive::{JobRecord, Phase, PhaseSpec};
use env::{Env, EXECUTOR_THREADS};
use probe::{Counts, LayerTimes};
use specs::{SpecGen, Workload, POOL_SPECS};
use trace::Recorder;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Set-ups made before the timed phase (the last one serves the run);
/// the rest follow the run, so the median samples the machine at two
/// moments tens of seconds apart rather than in one burst.
const SETUPS_BEFORE: usize = 5;

/// Small jobs that end each set-up on `paper-grid` and `small-jobs`:
/// enough work that one set-up takes tens of milliseconds, so thread
/// start-up jitter does not dominate it. `resubmit-stream` ends its
/// set-up with its warm pool instead.
const WARM_UP_JOBS: u64 = 16;

/// Warm-up jobs on `fleet-grid`, where each takes a heartbeat interval
/// (about 250 ms) whatever its work.
const FLEET_WARM_UP_JOBS: u64 = 2;

/// Where run artifacts go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    });
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// What the value was computed over, for the human report.
    samples: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: samples.into(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q` of sorted `v` (`0.0` when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Submits each document, waits for its job and streams its CSV: the
/// warm-up that ends every set-up. It pays the service's lazy
/// initialisation (executor and reactor threads' first work, first
/// connections) before timing starts, and on `resubmit-stream` it is
/// the warm-pool compute.
fn warm_up(env: &Env, documents: impl Iterator<Item = String>) -> Result<(), String> {
    let mut client = Client::new(env.addr());
    for document in documents {
        let submitted = client
            .submit(&document)
            .map_err(|e| format!("warm-up: {e}"))?;
        let job = env.front.job(&submitted.id).ok_or("warm-up job vanished")?;
        if job.wait(Duration::from_secs(120)) != predllc::serve::JobStatus::Done {
            return Err(format!("warm-up job {} did not finish", submitted.name));
        }
        client
            .results(&submitted.id, Format::Csv)
            .and_then(|body| body.text())
            .map_err(|e| format!("warm-up results: {e}"))?;
    }
    Ok(())
}

/// Simulated ops of the points each fresh job actually simulated:
/// every unique point for a local server, only points the coordinator
/// has not resolved before (`seen`) for a fleet.
fn simulated_ops(
    gen: &SpecGen,
    records: &[JobRecord],
    fleet: bool,
    seen: &mut HashSet<String>,
) -> u64 {
    let mut ops = 0;
    for r in records.iter().filter(|r| r.outcome.is_ok() && !r.cached) {
        let Ok(spec) = ExperimentSpec::parse(&gen.spec(r.index)) else {
            continue;
        };
        for (ci, wi) in plan_grid(&spec).unique {
            let fp = point_fingerprint(
                spec.cores,
                &spec.configs[ci],
                &spec.workloads[wi],
                spec.attribution,
            );
            if fleet && !seen.insert(fp.to_hex()) {
                continue;
            }
            let workload = spec.workloads[wi].spec.build(spec.cores);
            ops += (0..spec.cores)
                .map(|c| workload.len_hint(CoreId::new(c)).unwrap_or(0) as u64)
                .sum::<u64>();
        }
    }
    ops
}

/// Checks the streamed bodies' digests against `reference(index)`
/// (every job, or a seeded sample on `paper-grid`) on one thread per
/// executor thread; failures are written into the records' outcomes.
fn check_records(
    args: &Args,
    records: &mut [JobRecord],
    reference: &(dyn Fn(u64, &Executor) -> Result<Reference, String> + Sync),
) -> CheckTally {
    let probes = args.workload.probe_jobs();
    let mut todo: Vec<&mut JobRecord> = records
        .iter_mut()
        .filter(|r| {
            r.outcome.is_ok()
                && (!args.workload.checks_sample()
                    || r.index < probes
                    || specs::draw(args.seed, r.index, 7).is_multiple_of(4))
        })
        .collect();
    let share = todo.len().div_ceil(EXECUTOR_THREADS).max(1);
    std::thread::scope(|s| {
        let checkers: Vec<_> = todo
            .chunks_mut(share)
            .map(|chunk| {
                s.spawn(move || {
                    let exec = Executor::new(1);
                    let mut tally = CheckTally::default();
                    for r in chunk.iter_mut() {
                        r.outcome = reference(r.index, &exec).and_then(|reference| {
                            check::compare(&r.bodies, &reference, &mut tally)
                        });
                    }
                    tally
                })
            })
            .collect();
        checkers
            .into_iter()
            .fold(CheckTally::default(), |mut all, c| {
                let t = c.join().expect("checker thread panicked");
                all.jobs += t.jobs;
                all.bounded_rows += t.bounded_rows;
                all
            })
    })
}

/// Compares `counts` with the record an earlier run of the same seed
/// left, or leaves the record.
fn determinism(args: &Args, counts: &Counts) -> Result<String, String> {
    let mut text = String::new();
    for (name, value) in counts {
        let _ = writeln!(text, "{name} {value}");
    }
    let path = Path::new(OUT_DIR).join(format!(
        "simstats-{}-{}.txt",
        args.workload.name(),
        args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok("identical to an earlier run of this seed".into()),
        Ok(earlier) => Err(format!(
            "SimStats differ from an earlier run of seed {}:\nearlier:\n{earlier}now:\n{text}",
            args.seed
        )),
        Err(_) => {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &text).map_err(|e| format!("{}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(format!("recorded to {}", path.display()))
        }
    }
}

/// The untraced phase's figures.
struct Timed {
    ok: Vec<f64>,
    attempted: u64,
    failed: u64,
    jobs_per_s: f64,
    bytes: u64,
    elapsed: Duration,
}

fn summarize(phase: &Phase) -> Timed {
    let mut ok: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| r.outcome.is_ok())
        .map(|r| ms(r.wall))
        .collect();
    ok.sort_by(f64::total_cmp);
    let attempted = phase.records.len() as u64;
    let secs = phase.elapsed.as_secs_f64().max(1e-9);
    Timed {
        jobs_per_s: ok.len() as f64 / secs,
        failed: attempted - ok.len() as u64,
        attempted,
        bytes: phase.records.iter().map(|r| r.bytes).sum(),
        elapsed: phase.elapsed,
        ok,
    }
}

/// A latency percentile, reported only when at least ten samples lie
/// beyond it; otherwise `0` with the reason in the sample note.
fn tail(t: &Timed, name: &'static str, q: f64, min_jobs: usize) -> Metric {
    let n = t.ok.len();
    if n >= min_jobs {
        metric(name, quantile(&t.ok, q), "ms", format!("{n} jobs"))
    } else {
        metric(
            name,
            0.0,
            "ms",
            format!("not reported: {n} jobs < {min_jobs}"),
        )
    }
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, f: fn(&MetricsSnapshot) -> u64) -> f64 {
    f(after).saturating_sub(f(before)) as f64
}

/// Samples the `fleet-grid` probe jobs' points over the wire: each
/// point is sent to both workers with `Client::point` (one of them
/// computed it during the run and answers from its point cache) and
/// measured in-process with `measure`. Returns mean uncached round
/// trip and mean in-process time, ms.
fn fleet_points(
    env: &Env,
    gen: &SpecGen,
    probes: u64,
    rec: &Recorder,
) -> Result<(f64, f64), String> {
    let (mut rtt, mut rtt_n, mut local, mut local_n) = (0.0, 0u32, 0.0, 0u32);
    for index in 0..probes {
        let spec = ExperimentSpec::parse(&gen.spec(index)).map_err(|e| e.to_string())?;
        let platforms = build_platforms(&spec).map_err(|e| e.to_string())?;
        let job = format!("probe-{index}");
        for &(ci, wi) in plan_grid(&spec).unique.iter().take(2) {
            let wire = PointRequest {
                cores: spec.cores,
                config: spec.configs[ci].clone(),
                workload: spec.workloads[wi].clone(),
                attribution: spec.attribution,
            }
            .render()?;
            for &worker in &env.workers {
                let mut client = Client::new(worker);
                let start = Instant::now();
                let reply = client.point(&wire).map_err(|e| format!("point: {e}"))?;
                let end = Instant::now();
                rec.record("fleet.point", 0, &job, start, end);
                if !reply.cached {
                    rtt += ms(end - start);
                    rtt_n += 1;
                }
            }
            let workload = spec.workloads[wi].spec.build(spec.cores);
            let start = Instant::now();
            measure(&platforms[ci].0, &workload).map_err(|e| e.to_string())?;
            let end = Instant::now();
            rec.record("fleet.measure", 0, &job, start, end);
            local += ms(end - start);
            local_n += 1;
        }
    }
    Ok((
        rtt / f64::from(rtt_n.max(1)),
        local / f64::from(local_n.max(1)),
    ))
}

/// The traced phase's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    untraced: &Timed,
    traced: &Phase,
    times: &LayerTimes,
    counts: &Counts,
    fleet_rtt: Option<(f64, f64)>,
    sim_mops: f64,
    untraced_error_rate: f64,
) -> (Vec<Metric>, String) {
    let ok: Vec<&JobRecord> = traced
        .records
        .iter()
        .filter(|r| r.outcome.is_ok())
        .collect();
    let n = ok.len().max(1) as f64;
    let jobs_note = format!("{} traced jobs", ok.len());
    let mean =
        |f: fn(&drive::Parts) -> Duration| ok.iter().map(|r| ms(f(&r.parts))).sum::<f64>() / n;
    let wall = ok.iter().map(|r| ms(r.wall)).sum::<f64>() / n;
    let submit = mean(|p| p.submit);
    let queue_wait = mean(|p| p.queue_wait);
    let run = mean(|p| p.run);
    let first_byte = mean(|p| p.first_byte);
    let stream = mean(|p| p.stream);
    let unattributed = wall - (submit + queue_wait + run + first_byte + stream);
    let decomposition = format!(
        "per traced job (mean, ms): submit {submit:.4} + queue_wait {queue_wait:.4} + run {run:.4} \
         + first_byte {first_byte:.4} + stream {stream:.4} + unattributed {unattributed:.4} = wall {wall:.4}"
    );
    let (b, a) = (&traced.before, &traced.after);
    let trace_gets = traced.records.iter().filter(|r| r.trace_fetched).count() as f64;
    let hits = delta(a, b, |m| m.cache_hits);
    let misses = delta(a, b, |m| m.cache_misses);
    let traced_rate = ok.len() as f64 / traced.elapsed.as_secs_f64().max(1e-9);
    let per = |d: Duration, k: u64| ms(d) / (k.max(1) as f64);
    let stage = |k: usize| times.stages[k].0 as f64 / times.stages[k].1.max(1) as f64;
    let probe_note = format!("{} probe specs", times.specs);
    let point_note = format!("{} points", times.points);
    let mut out = vec![
        metric("job_wall_ms", wall, "ms", jobs_note.clone()),
        metric("serve.submit_ms", submit, "ms", jobs_note.clone()),
        metric("serve.queue_wait_ms", queue_wait, "ms", jobs_note.clone()),
        metric("serve.run_ms", run, "ms", jobs_note.clone()),
        metric("serve.first_byte_ms", first_byte, "ms", jobs_note.clone()),
        metric("serve.stream_ms", stream, "ms", jobs_note.clone()),
        metric("unattributed_ms", unattributed, "ms", jobs_note.clone()),
        metric(
            "serve.result_bytes",
            ok.iter().map(|r| r.bytes as f64).sum::<f64>() / n,
            "bytes",
            jobs_note.clone(),
        ),
        metric(
            "serve.http_requests",
            (delta(a, b, |m| m.http_requests) - trace_gets) / n,
            "count",
            "per traced job, without the benchmark's trace fetches",
        ),
        metric(
            "serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            format!("{} submissions", hits + misses),
        ),
        metric(
            "serve.requests_shed",
            delta(a, b, |m| m.requests_shed),
            "count",
            "traced phase",
        ),
        metric(
            "explore.parse_us",
            per(times.parse, times.specs) * 1e3,
            "us",
            probe_note.clone(),
        ),
        metric(
            "explore.fingerprint_us",
            per(times.fingerprint, times.specs) * 1e3,
            "us",
            probe_note.clone(),
        ),
        metric(
            "explore.plan_us",
            per(times.plan, times.specs) * 1e3,
            "us",
            probe_note.clone(),
        ),
        metric(
            "explore.dedup_ratio",
            times.unique_points as f64 / times.total_points.max(1) as f64,
            "ratio",
            format!(
                "{} of {} points unique",
                times.unique_points, times.total_points
            ),
        ),
        metric(
            "explore.point_wait_ms",
            per(times.point_wait, times.points),
            "ms",
            point_note.clone(),
        ),
        metric(
            "explore.point_compute_ms",
            per(times.point_compute, times.points),
            "ms",
            point_note,
        ),
        metric(
            "explore.search_ms",
            per(times.search, times.searches),
            "ms",
            format!("{} searches", times.searches),
        ),
        metric(
            "explore.search_candidates",
            times.search_candidates as f64 / times.searches.max(1) as f64,
            "count",
            format!("{} searches", times.searches),
        ),
        metric(
            "explore.render_csv_ms",
            per(times.render_csv, times.specs),
            "ms",
            probe_note.clone(),
        ),
        metric(
            "explore.render_json_ms",
            per(times.render_json, times.specs),
            "ms",
            probe_note,
        ),
        metric(
            "core.ns_per_op",
            times.sim_run.as_secs_f64() * 1e9 / times.sim_ops.max(1) as f64,
            "ns",
            format!("{} ops", times.sim_ops),
        ),
        metric(
            "core.stage_arbiter_ns",
            stage(0),
            "ns",
            format!("{} samples", times.stages[0].1),
        ),
        metric(
            "core.stage_llc_ns",
            stage(1),
            "ns",
            format!("{} samples", times.stages[1].1),
        ),
        metric(
            "core.stage_dram_ns",
            stage(2),
            "ns",
            format!("{} samples", times.stages[2].1),
        ),
        metric(
            "core.stage_idle_jump_ns",
            stage(3),
            "ns",
            format!("{} samples", times.stages[3].1),
        ),
        metric(
            "workload.gen_ns_per_op",
            times.gen_drain.as_secs_f64() * 1e9 / times.gen_ops.max(1) as f64,
            "ns",
            format!("{} ops", times.gen_ops),
        ),
    ];
    for (name, value) in counts {
        out.push(metric(name, *value as f64, "count", "exact, probe jobs"));
    }
    let (rtt, local) = fleet_rtt.unwrap_or((0.0, 0.0));
    let fleet_note = if fleet_rtt.is_some() {
        "sampled probe points"
    } else {
        "not a fleet workload"
    };
    out.extend([
        metric("fleet.point_rtt_ms", rtt, "ms", fleet_note),
        metric("fleet.point_measure_ms", local, "ms", fleet_note),
        metric(
            "fleet.points_assigned",
            delta(a, b, |m| m.points_assigned) / n,
            "count",
            "per traced job",
        ),
        metric(
            "fleet.points_cache_shared",
            delta(a, b, |m| m.points_cache_shared) / n,
            "count",
            "per traced job",
        ),
        metric(
            "fleet.points_retried",
            delta(a, b, |m| m.points_retried),
            "count",
            "traced phase",
        ),
        metric(
            "obs.trace_overhead_frac",
            1.0 - traced_rate / untraced.jobs_per_s.max(1e-9),
            "ratio",
            format!(
                "traced {traced_rate:.3} vs untraced {:.3} jobs/s",
                untraced.jobs_per_s
            ),
        ),
        metric("sim_mops", sim_mops, "Mops/s", "untraced phase"),
        metric(
            "error_rate",
            untraced_error_rate,
            "ratio",
            format!("{} attempted", untraced.attempted),
        ),
        tail(untraced, "job_p90_ms", 0.90, 100),
        tail(untraced, "job_p99_ms", 0.99, 1000),
    ]);
    (out, decomposition)
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    let gen = SpecGen::new(w, args.seed);
    let seconds = Duration::from_secs_f64(args.seconds);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={} executor_threads={} available_parallelism={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients(),
        EXECUTOR_THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // One set-up: start the service and warm it up.
    let set_up = || -> Result<(Env, f64), String> {
        let start = Instant::now();
        let env = Env::start(w.fleet()).map_err(|e| format!("cannot start the service: {e}"))?;
        if w == Workload::ResubmitStream {
            warm_up(&env, (0..POOL_SPECS).map(|slot| gen.pool_spec(slot)))?;
        } else {
            // Small jobs from outside every workload's sequence.
            let warm = SpecGen::new(Workload::SmallJobs, args.seed);
            let jobs = if w.fleet() {
                FLEET_WARM_UP_JOBS
            } else {
                WARM_UP_JOBS
            };
            warm_up(&env, (0..jobs).map(|k| warm.spec(u64::MAX - k)))?;
        }
        Ok((env, start.elapsed().as_secs_f64()))
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(old) = env.take() {
            Env::stop(old)?;
        }
        let (fresh, secs) = set_up()?;
        setups.push(secs);
        env = Some(fresh);
    }
    let env = env.expect("at least one set-up");

    let mut untraced = drive::run_phase(&PhaseSpec {
        env: &env,
        gen: &gen,
        clients: w.clients(),
        json: w.streams_json(),
        first_index: 0,
        min_jobs: w.probe_jobs(),
        duration: seconds,
        recorder: None,
    });
    let rss = peak_rss_mb();

    let recorder = Recorder::new();
    let mut traced = args.trace.then(|| {
        drive::run_phase(&PhaseSpec {
            env: &env,
            gen: &gen,
            clients: w.clients(),
            json: w.streams_json(),
            first_index: untraced.next_index,
            min_jobs: 1,
            duration: seconds,
            recorder: Some(&recorder),
        })
    });
    let fleet_rtt = match (&traced, w.fleet()) {
        (Some(_), true) => Some(fleet_points(&env, &gen, w.probe_jobs(), &recorder)?),
        _ => None,
    };
    let threads_label = env.threads_label;
    env.stop()?;
    for _ in SETUPS_BEFORE..SETUPS {
        let (extra, secs) = set_up()?;
        setups.push(secs);
        extra.stop()?;
    }
    setups.sort_by(f64::total_cmp);
    println!(
        "set-ups (s, sorted): {}",
        setups
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Output checks, outside every timed window. A `resubmit-stream`
    // job is its pool slot's spec resubmitted, so the pool's renderings
    // are its references.
    let exec = Executor::new(EXECUTOR_THREADS);
    let pool: Vec<Reference> = if w == Workload::ResubmitStream {
        (0..POOL_SPECS)
            .map(|slot| check::reference(&gen.pool_spec(slot), threads_label, &exec))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    let reference = |index: u64, exec: &Executor| match w {
        Workload::ResubmitStream => Ok(pool[gen.pool_slot(index) as usize].clone()),
        _ => check::reference(&gen.spec(index), threads_label, exec),
    };
    let mut tally = CheckTally::default();
    for phase in std::iter::once(&mut untraced).chain(traced.as_mut()) {
        let t = check_records(args, &mut phase.records, &reference);
        tally.jobs += t.jobs;
        tally.bounded_rows += t.bounded_rows;
    }
    let (counts, times) =
        probe::replay(&gen, w.probe_jobs(), &exec, args.trace.then_some(&recorder))?;
    let determinism = determinism(args, &counts);

    let t = summarize(&untraced);
    let mut seen = HashSet::new();
    let sim_ops = simulated_ops(&gen, &untraced.records, w.fleet(), &mut seen);
    let sim_mops = sim_ops as f64 / t.elapsed.as_secs_f64().max(1e-9) / 1e6;
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    let mut attempted = t.attempted;
    let mut failed = t.failed;
    for phase in std::iter::once(&untraced).chain(traced.as_ref()) {
        for r in &phase.records {
            if let Err(e) = &r.outcome {
                eprintln!("perfbench: job {} failed: {e}", r.index);
            }
        }
    }

    let jobs = format!("{} jobs", t.ok.len());
    let secs = t.elapsed.as_secs_f64().max(1e-9);
    let end_to_end = vec![
        metric(
            "setup_s",
            quantile(&setups, 0.5),
            "s",
            format!("median of {SETUPS} set-ups"),
        ),
        metric(
            "jobs_per_s",
            t.jobs_per_s,
            "1/s",
            format!("{jobs} in {secs:.3} s"),
        ),
        metric("job_p50_ms", quantile(&t.ok, 0.5), "ms", jobs.clone()),
        metric(
            "result_mb_per_s",
            t.bytes as f64 / secs / 1e6,
            "MB/s",
            format!("{} bytes", t.bytes),
        ),
        metric("peak_rss_mb", rss, "MiB", "VmHWM after the timed phase"),
    ];
    println!("end-to-end (untraced):");
    for m in &end_to_end {
        println!(
            "  {:<22} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in [
        tail(&t, "job_p90_ms", 0.90, 100),
        tail(&t, "job_p99_ms", 0.99, 1000),
        metric(
            "sim_mops",
            sim_mops,
            "Mops/s",
            format!("{sim_ops} simulated ops"),
        ),
        metric(
            "error_rate",
            error_rate,
            "ratio",
            format!("{} of {} attempted", t.failed, t.attempted),
        ),
    ] {
        println!(
            "  {:<22} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "check: {} jobs byte-equal to in-process run_spec; p100 <= analytical_wcl on all {} bounded rows",
        tally.jobs, tally.bounded_rows
    );
    println!("simstats (exact, probe jobs 0..{}):", w.probe_jobs());
    for (name, value) in &counts {
        println!("  {name} {value}");
    }
    let mut correct = t.failed == 0;
    match &determinism {
        Ok(note) => println!("determinism: {note}"),
        Err(e) => {
            println!("determinism: FAILED");
            eprintln!("perfbench: {e}");
            correct = false;
        }
    }

    let metrics = match &traced {
        None => end_to_end,
        Some(phase) => {
            let tt = summarize(phase);
            attempted += tt.attempted;
            failed += tt.failed;
            correct &= tt.failed == 0;
            let (layers, decomposition) =
                layer_metrics(&t, phase, &times, &counts, fleet_rtt, sim_mops, error_rate);
            println!("traced: {decomposition}");
            println!("per-span busy and self time (ms per span):");
            for (name, s) in recorder.totals() {
                let n = s.count.max(1) as f64;
                let waiting = if name.contains("wait") {
                    "  waiting"
                } else {
                    ""
                };
                println!(
                    "  {:<22} n={:<6} busy {:>11.4} self {:>11.4}{waiting}",
                    name,
                    s.count,
                    s.total_ns as f64 / n / 1e6,
                    s.self_ns as f64 / n / 1e6
                );
            }
            println!("per-layer (traced):");
            for m in &layers {
                println!(
                    "  {:<28} {:>16.6} {:<6} ({})",
                    m.name, m.value, m.unit, m.samples
                );
            }
            let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            std::fs::write(&path, recorder.jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "trace: {} spans written to {}",
                recorder.spans().len(),
                path.display()
            );
            layers
        }
    };
    Ok((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            let mut body = String::new();
            for (i, m) in metrics.iter().enumerate() {
                let _ = write!(
                    body,
                    "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    if i > 0 { ", " } else { "" },
                    m.name,
                    m.value,
                    m.unit
                );
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
