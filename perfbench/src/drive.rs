//! The closed-loop load generator: each client submits a job, waits for
//! it, streams its results to the last byte, and only then submits the
//! next one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use predllc::explore::json;
use predllc::serve::{Client, ClientError, Format, JobStatus, MetricsSnapshot};

use crate::check::{BodyDigest, Digest};
use crate::env::Env;
use crate::specs::SpecGen;
use crate::trace::Recorder;

/// Longest a job may take before it counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Where one served job's wall time went, as seen by its client.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parts {
    /// The `Client::submit` round trip.
    pub submit: Duration,
    /// Results requested to the first body slab, summed over formats.
    pub first_byte: Duration,
    /// First slab to the last byte, summed over formats.
    pub stream: Duration,
    /// The part of the client's wait (submit answered to `Job::wait`
    /// returning) the job spent queued: registration to a runner taking
    /// it (`serve.job.dequeued`). Zero for a registry hit, which never
    /// queues.
    pub queue_wait: Duration,
    /// The part of the client's wait inside the runner's `serve.job.run`
    /// span. Zero for a registry hit.
    pub run: Duration,
}

/// One attempted job.
#[derive(Debug)]
pub struct JobRecord {
    /// Index in the workload's spec sequence.
    pub index: u64,
    /// `Ok` when the job completed and every streamed byte was served;
    /// otherwise why it failed, was refused, timed out or mismatched.
    pub outcome: Result<(), String>,
    /// Whether the registry answered the submission from its cache.
    pub cached: bool,
    /// Submit to last result byte.
    pub wall: Duration,
    /// Result-body bytes streamed.
    pub bytes: u64,
    /// Length and digest of each streamed body (CSV, then JSON when
    /// streamed), for the output check after the phase.
    pub bodies: Vec<BodyDigest>,
    /// Whether the benchmark fetched the job's server trace (one extra
    /// HTTP request the service counts).
    pub trace_fetched: bool,
    /// The wall-time split (always measured; server parts only traced).
    pub parts: Parts,
}

/// What one timed phase produced.
pub struct Phase {
    /// Every attempted job, in completion order per client.
    pub records: Vec<JobRecord>,
    /// Phase start to the last job's last byte.
    pub elapsed: Duration,
    /// Service counters before the first job.
    pub before: MetricsSnapshot,
    /// Service counters after the last job.
    pub after: MetricsSnapshot,
    /// The spec index the next phase should start from.
    pub next_index: u64,
}

/// How a phase runs.
pub struct PhaseSpec<'a> {
    /// The service under test.
    pub env: &'a Env,
    /// The run's spec generator.
    pub gen: &'a SpecGen,
    /// Closed-loop clients.
    pub clients: usize,
    /// Whether each job streams JSON after CSV.
    pub json: bool,
    /// First spec index of the phase.
    pub first_index: u64,
    /// Jobs the phase completes even past its deadline.
    pub min_jobs: u64,
    /// How long new jobs keep being submitted.
    pub duration: Duration,
    /// Records spans and fetches each job's server trace when set.
    pub recorder: Option<&'a Recorder>,
}

/// Runs one closed-loop phase.
pub fn run_phase(spec: &PhaseSpec<'_>) -> Phase {
    let next = AtomicU64::new(spec.first_index);
    let completed = AtomicU64::new(0);
    let before = spec.env.front.metrics();
    let start = Instant::now();
    let deadline = start + spec.duration;
    let per_client: Vec<(Vec<JobRecord>, Instant)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..spec.clients)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(spec.env.addr()).with_timeout(JOB_TIMEOUT);
                    let mut records = Vec::new();
                    let mut last = start;
                    while Instant::now() < deadline
                        || completed.load(Ordering::SeqCst) < spec.min_jobs
                    {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let record = run_job(&mut client, spec, index);
                        last = Instant::now();
                        completed.fetch_add(1, Ordering::SeqCst);
                        records.push(record);
                    }
                    (records, last)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let after = spec.env.front.metrics();
    let end = per_client.iter().map(|(_, t)| *t).max().unwrap_or(start);
    let mut records: Vec<JobRecord> = per_client.into_iter().flat_map(|(r, _)| r).collect();
    records.sort_by_key(|r| r.index);
    Phase {
        records,
        elapsed: end - start,
        before,
        after,
        next_index: next.load(Ordering::SeqCst),
    }
}

fn refused(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Status {
            status: 429 | 503,
            ..
        }
    )
}

/// Submits, waits for and streams job `index`.
fn run_job(client: &mut Client, spec: &PhaseSpec<'_>, index: u64) -> JobRecord {
    let document = spec.gen.spec(index);
    let mut record = JobRecord {
        index,
        outcome: Ok(()),
        cached: false,
        wall: Duration::ZERO,
        bytes: 0,
        bodies: Vec::new(),
        trace_fetched: false,
        parts: Parts::default(),
    };
    let t0 = Instant::now();
    let submitted = match client.submit(&document) {
        Ok(s) => s,
        Err(e) if refused(&e) => {
            record.outcome = Err(format!("refused: {e}"));
            return record;
        }
        Err(e) => {
            record.outcome = Err(format!("submit failed: {e}"));
            return record;
        }
    };
    let t1 = Instant::now();
    record.cached = submitted.cached;
    let Some(job) = spec.env.front.job(&submitted.id) else {
        record.outcome = Err(format!("job {} is not registered", submitted.id));
        return record;
    };
    match job.wait(JOB_TIMEOUT) {
        JobStatus::Done => {}
        JobStatus::Failed => {
            record.outcome = Err(format!("job failed: {}", job.error().unwrap_or_default()));
            return record;
        }
        other => {
            record.outcome = Err(format!("timed out while {}", other.as_str()));
            return record;
        }
    }
    let t2 = Instant::now();
    record.parts.submit = t1 - t0;

    let formats: &[Format] = if spec.json {
        &[Format::Csv, Format::Json]
    } else {
        &[Format::Csv]
    };
    let mut spans = Vec::new();
    for &format in formats {
        match stream(client, &submitted.id, format) {
            Ok(s) => {
                record.parts.first_byte += s.first - s.asked;
                record.parts.stream += s.last - s.first;
                record.bytes += s.body.len;
                record.bodies.push(s.body);
                spans.push(s);
            }
            Err(e) => {
                record.outcome = Err(e);
                return record;
            }
        }
    }
    let t4 = Instant::now();
    record.wall = t4 - t0;

    if let Some(rec) = spec.recorder {
        let root = rec.record("job", 0, &submitted.id, t0, t4);
        rec.record("serve.submit", root, &submitted.id, t0, t1);
        let waited = rec.record("serve.wait", root, &submitted.id, t1, t2);
        for s in &spans {
            rec.record("serve.first_byte", root, &submitted.id, s.asked, s.first);
            rec.record("serve.stream", root, &submitted.id, s.first, s.last);
        }
        if !submitted.cached {
            record.trace_fetched = true;
            match client.job_trace(&submitted.id) {
                Ok(text) => {
                    let window = (waited, t1, t2);
                    server_parts(
                        &text,
                        spec.env,
                        rec,
                        window,
                        &submitted.id,
                        &mut record.parts,
                    );
                }
                Err(e) => record.outcome = Err(format!("job trace: {e}")),
            }
        }
    }
    record
}

/// One streamed result body.
struct Streamed {
    asked: Instant,
    first: Instant,
    last: Instant,
    body: BodyDigest,
}

/// Streams one result document to its last byte, digesting each slab as
/// it arrives.
fn stream(client: &mut Client, id: &str, format: Format) -> Result<Streamed, String> {
    let asked = Instant::now();
    let mut body = client
        .results(id, format)
        .map_err(|e| format!("results {format:?}: {e}"))?;
    let mut first = None;
    let mut digest = Digest::new();
    while let Some(slab) = body
        .read_chunk()
        .map_err(|e| format!("streaming {format:?}: {e}"))?
    {
        first.get_or_insert_with(Instant::now);
        digest.update(&slab);
    }
    let last = Instant::now();
    Ok(Streamed {
        asked,
        first: first.unwrap_or(last),
        last,
        body: digest.finish(),
    })
}

/// Length of `[start, end]` inside `[lo, hi]`.
fn overlap(start: Instant, end: Instant, lo: Instant, hi: Instant) -> Duration {
    end.min(hi).saturating_duration_since(start.max(lo))
}

/// Reads the runner's `serve.job.dequeued` instant and `serve.job.run`
/// span out of a job's server trace (JSON Lines) and records them as
/// spans under the client's `serve.wait` span. The parts keep only what
/// falls inside the wait (`window` = span id, start, end): a runner may
/// take the job before the submit answer reaches the client, and that
/// time is already the submit's.
fn server_parts(
    text: &str,
    env: &Env,
    rec: &Recorder,
    window: (u64, Instant, Instant),
    job: &str,
    parts: &mut Parts,
) {
    let (waited, lo, hi) = window;
    let at = |ns: u64| env.trace_epoch + Duration::from_nanos(ns);
    for line in text.lines() {
        let Ok(event) = json::parse(line) else {
            continue;
        };
        let name = event.get("name").and_then(|v| v.as_str());
        let kind = event.get("kind").and_then(|v| v.as_str());
        let ts = event.get("ts_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        match (name, kind) {
            (Some("serve.job.dequeued"), _) => {
                let wait = event
                    .get("fields")
                    .and_then(|f| f.get("queue_wait_ns"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
                let (start, end) = (at(ts.saturating_sub(wait)), at(ts));
                parts.queue_wait = overlap(start, end, lo, hi);
                rec.record("serve.queue_wait", waited, job, start, end);
            }
            (Some("serve.job.run"), Some("end")) => {
                let dur = event.get("dur_ns").and_then(|v| v.as_u64()).unwrap_or(0);
                let (start, end) = (at(ts.saturating_sub(dur)), at(ts));
                parts.run = overlap(start, end, lo, hi);
                rec.record("serve.run", waited, job, start, end);
            }
            _ => {}
        }
    }
}
