//! Memory regression gates, measured by this test binary's own counting
//! global allocator (no dependency: a test binary may install one).
//!
//! The counters are per thread, so tests running in parallel never see
//! each other's allocations, and every figure here is deterministic:
//! the same on every machine, gated exactly or against a fixed bound.
//!
//! * A finished partition-search job retains its grid rows plus under
//!   1 KB — not the search's per-candidate verdicts.
//! * Recording a span or an instant with literal names and keys and
//!   integer fields allocates only the field vectors.
//! * A steady-state shared-LLC eviction allocates nothing: not the
//!   victim choice, not the invalidated sharers, not the set sequencer's
//!   queue.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use predllc::dram::FixedLatency;
use predllc::model::{CacheGeometry, CoreId, Cycles, LineAddr};
use predllc::obs::{fields, TraceId, Tracer};
use predllc::serve::{JobResult, LocalRunner, RunOutcome, SpecRunner};
use predllc::sim::llc::{ResponseKind, ServiceOutcome, SharedLlc};
use predllc::{ExperimentSpec, PartitionMap, PartitionSpec, ReplacementKind, SharingMode};

/// Counts allocations and freed bytes per thread, then defers to the
/// system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREED_BYTES, layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap bytes `value` owns: what dropping it frees on this thread.
fn heap_of<T>(value: T) -> u64 {
    let before = FREED_BYTES.with(Cell::get);
    drop(value);
    FREED_BYTES.with(Cell::get) - before
}

/// Shaped like the service benchmark's `small-jobs` jobs: 4 platforms x
/// 2 workloads of 200 ops on 4 cores, a four-task set, and a search over
/// 3 arrangements x 6 set counts x 16 way counts = 288 candidates.
const SMALL_JOB: &str = r#"{
  "name": "small-job-0",
  "cores": 4,
  "configs": [
    {"label": "SS-1x16", "partition": {"kind": "shared", "sets": 1, "ways": 16, "mode": "SS"}},
    {"label": "NSS-1x16", "partition": {"kind": "shared", "sets": 1, "ways": 16, "mode": "NSS"}},
    {"label": "P-8x4", "partition": {"kind": "private", "sets": 8, "ways": 4}},
    {"label": "P-8x4-banked", "partition": {"kind": "private", "sets": 8, "ways": 4},
     "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"}}
  ],
  "workloads": [
    {"kind": "uniform", "range_bytes": 4096, "ops": 200, "seed": 11, "write_fraction": 0.2},
    {"kind": "hotcold", "range_bytes": 8192, "ops": 200, "seed": 12}
  ],
  "tasks": [
    {"name": "t0", "core": 0, "period": 1000000, "compute": 120000, "llc_requests": 700},
    {"name": "t1", "core": 1, "period": 2000000, "compute": 250000, "llc_requests": 1900},
    {"name": "t2", "core": 2, "period": 4000000, "compute": 90000, "llc_requests": 1200},
    {"name": "t3", "core": 3, "period": 1000000, "compute": 60000, "llc_requests": 500}
  ],
  "search": {"arrangements": ["SS", "NSS", "private"], "max_sets": 32, "max_ways": 16}
}"#;

#[test]
fn a_finished_search_job_retains_its_rows_plus_under_a_kilobyte() {
    let spec = ExperimentSpec::parse(SMALL_JOB).unwrap();
    // One executor thread: the run, and so every allocation size in it,
    // is deterministic, so two runs own byte-identical heaps.
    let runner = LocalRunner::new(1);
    let run = || runner.run_spec(&spec, &|_, _| {}).unwrap();

    let RunOutcome { grid, search, .. } = run();
    let search = search.expect("the spec searches");
    assert_eq!(search.evaluated.len(), 288);
    let rows = heap_of(grid);
    let verdicts = heap_of(search);

    let retained = heap_of(JobResult::new(&spec, runner.threads_label(), run()));
    assert!(retained >= rows, "{retained} B retained < {rows} B of rows");
    assert!(
        retained - rows < 1024,
        "a finished job retains {retained} B: {rows} B of rows + {} B more",
        retained - rows
    );
    // The gate has teeth: keeping the verdicts would blow it many times.
    assert!(verdicts > 16 * 1024, "288 verdicts own only {verdicts} B");
}

#[test]
fn spans_and_instants_allocate_only_their_field_vectors() {
    // A small ring, filled first, so recording evicts instead of
    // growing it; the thread's shard index is assigned here too.
    let tracer = Tracer::with_capacity(4);
    let trace = TraceId(0x5eed);
    for _ in 0..8 {
        tracer.instant(trace, "warm-up", Vec::new());
    }

    // The field list, plus the Begin event's copy of it; names, keys
    // and the End event borrow or move.
    let span = allocations_in(|| {
        let _span = tracer.span(
            trace,
            "explore.point",
            fields(&[("point", 3u64.into()), ("queue_wait_ns", 42u64.into())]),
        );
    });
    assert_eq!(span, 2);

    // A field added to an open span only grows the End event's list.
    let grown = allocations_in(|| {
        let mut span = tracer.span(trace, "worker.point", fields(&[("point", 1u64.into())]));
        span.field("cached", 0u64);
    });
    assert_eq!(grown, 3);

    let instant = allocations_in(|| {
        tracer.instant(
            trace,
            "serve.job.dequeued",
            fields(&[("queue_wait_ns", 42u64.into()), ("cached", 1u64.into())]),
        );
    });
    assert_eq!(instant, 1);

    let bare = allocations_in(|| tracer.instant(trace, "tick", Vec::new()));
    assert_eq!(bare, 0);
}

#[test]
fn a_steady_state_llc_eviction_allocates_nothing() {
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::RoundRobin,
        ReplacementKind::Random { seed: 7 },
    ] {
        // An SS 8-set x 4-way partition shared by 4 cores: once its 32
        // lines are full, every miss evicts.
        let map = PartitionMap::new(
            vec![PartitionSpec::shared(
                8,
                4,
                CoreId::first(4).collect(),
                SharingMode::SetSequencer,
            )],
            4,
            CacheGeometry::PAPER_L3,
        )
        .unwrap();
        let mut llc = SharedLlc::new(map, 64, kind, Box::new(FixedLatency::default()));
        // The cores take turns missing on fresh lines. A lone requester
        // heads its set's queue and every private copy is clean, so each
        // miss evicts and refills within its own slot.
        let mut miss = |i: u64| {
            let result = llc.service(
                CoreId::new((i % 4) as u16),
                LineAddr::new(i),
                Cycles::ZERO,
                &mut |_, _| false,
            );
            assert_eq!(
                result.outcome,
                ServiceOutcome::Responded(ResponseKind::Fill)
            );
            result.eviction.is_some()
        };
        for i in 0..2_000 {
            miss(i);
        }

        let evictions = 10_000;
        let mut evicted = 0;
        let allocations = allocations_in(|| {
            for i in 2_000..2_000 + evictions {
                evicted += u64::from(miss(i));
            }
        });
        assert_eq!(evicted, evictions, "{kind}");
        // The invalidated sharers are a bitmask in the result, and a
        // drained sequencer queue keeps its capacity for the next miss.
        assert_eq!(allocations, 0, "{kind}");
    }
}
