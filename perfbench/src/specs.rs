//! The benchmark's workloads and the experiment specs each one submits.
//!
//! Every spec is a pure function of the benchmark seed and the job's
//! index in the workload's sequence, so the same seed always produces
//! the same inputs. The program under test sees only these documents.

use predllc::workload::rng::Rng64;

/// One benchmark workload (a traffic mix against the service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's SS / NSS / private comparison as engine-heavy jobs.
    PaperGrid,
    /// Tiny distinct jobs: service overhead and the registry write path.
    SmallJobs,
    /// Resubmissions of a warm pool of large grids: the read path.
    ResubmitStream,
    /// Grids sharded by a fleet coordinator over two workers.
    FleetGrid,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::SmallJobs,
        Workload::ResubmitStream,
        Workload::FleetGrid,
    ];

    /// Resolves a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::SmallJobs => "small-jobs",
            Workload::ResubmitStream => "resubmit-stream",
            Workload::FleetGrid => "fleet-grid",
        }
    }

    /// Closed-loop clients, each with one keep-alive connection.
    pub fn clients(self) -> usize {
        match self {
            Workload::PaperGrid | Workload::FleetGrid => 1,
            Workload::SmallJobs | Workload::ResubmitStream => 2,
        }
    }

    /// Whether the service is a fleet coordinator over two workers.
    pub fn fleet(self) -> bool {
        self == Workload::FleetGrid
    }

    /// Whether each job streams the JSON report after the CSV one.
    pub fn streams_json(self) -> bool {
        self != Workload::SmallJobs
    }

    /// Jobs `0..probe_jobs()` of every run are replayed in-process for
    /// the exact `SimStats` record (and, traced, the engine layers).
    /// Every run completes at least these jobs, whatever `--seconds`.
    pub fn probe_jobs(self) -> u64 {
        match self {
            Workload::PaperGrid => 1,
            Workload::SmallJobs => 8,
            Workload::ResubmitStream => 2,
            Workload::FleetGrid => 4,
        }
    }

    /// Whether the output check covers every job or a seeded sample.
    /// `paper-grid` is engine-bound: re-running every job in-process
    /// would double the run, so a seeded quarter is checked.
    pub fn checks_sample(self) -> bool {
        self == Workload::PaperGrid
    }
}

/// Specs in the `resubmit-stream` warm pool.
pub const POOL_SPECS: u64 = 6;

/// Operations per core of one `paper-grid` point.
const PAPER_OPS: u64 = 40_000;

/// Operations per core of one `fleet-grid` point.
const FLEET_OPS: u64 = 2_500;

/// A value drawn from the seed for one `(index, slot)` pair. Kept below
/// 2^48 so every spec number is exactly representable anywhere.
pub fn draw(seed: u64, index: u64, slot: u64) -> u64 {
    let mut rng = Rng64::new(
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ slot.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    rng.next_u64();
    rng.next_u64() >> 16
}

/// The spec generator of one run.
pub struct SpecGen {
    workload: Workload,
    seed: u64,
}

impl SpecGen {
    /// The generator for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> SpecGen {
        SpecGen { workload, seed }
    }

    /// The `resubmit-stream` pool slot job `index` resubmits.
    pub fn pool_slot(&self, index: u64) -> u64 {
        if index < POOL_SPECS {
            index
        } else {
            draw(self.seed, index, 99) % POOL_SPECS
        }
    }

    /// The spec document of job `index`.
    pub fn spec(&self, index: u64) -> String {
        match self.workload {
            Workload::PaperGrid => self.paper_grid(index),
            Workload::SmallJobs => self.small_job(index),
            Workload::ResubmitStream => self.pool_spec(self.pool_slot(index)),
            Workload::FleetGrid => self.fleet_grid(index),
        }
    }

    /// The four configurations the paper compares on four cores: one
    /// shared partition under the set sequencer (SS) and without it
    /// (NSS), private partitions of the same total capacity, and the
    /// private partitions over bank-private DRAM.
    fn paper_configs() -> &'static str {
        r#"[
    {"label": "SS-8x16", "partition": {"kind": "shared", "sets": 8, "ways": 16, "mode": "SS"}},
    {"label": "NSS-8x16", "partition": {"kind": "shared", "sets": 8, "ways": 16, "mode": "NSS"}},
    {"label": "P-8x4", "partition": {"kind": "private", "sets": 8, "ways": 4}},
    {"label": "P-8x4-banked", "partition": {"kind": "private", "sets": 8, "ways": 4},
     "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"}}
  ]"#
    }

    /// `paper-grid` job: 4 configurations x 4 workloads on 4 cores. The
    /// 8 KiB partitions hold the 1 KiB-per-core uniform working set and
    /// not the 16 KiB one; every job draws fresh seeds.
    fn paper_grid(&self, index: u64) -> String {
        let s = |slot| draw(self.seed, index, slot);
        format!(
            r#"{{
  "name": "paper-grid-{index}",
  "cores": 4,
  "configs": {configs},
  "workloads": [
    {{"label": "uniform-1k", "kind": "uniform", "range_bytes": 1024, "ops": {ops}, "seed": {s0}, "write_fraction": 0.2}},
    {{"label": "uniform-16k", "kind": "uniform", "range_bytes": 16384, "ops": {ops}, "seed": {s1}, "write_fraction": 0.2}},
    {{"label": "stride-8k", "kind": "stride", "range_bytes": 8192, "stride": 64, "ops": {ops}}},
    {{"label": "hotcold-16k", "kind": "hotcold", "range_bytes": 16384, "ops": {ops}, "seed": {s2}}}
  ]
}}"#,
            configs = SpecGen::paper_configs(),
            ops = PAPER_OPS,
            s0 = s(0),
            s1 = s(1),
            s2 = s(2),
        )
    }

    /// `small-jobs` job: 4 configurations x 2 workloads of 200 ops, a
    /// four-task set and a partition search over it.
    fn small_job(&self, index: u64) -> String {
        let s = |slot| draw(self.seed, index, slot);
        let tasks: Vec<String> = (0..4u64)
            .map(|core| {
                let period = 1_000_000 << (s(10 + core) % 3);
                let compute = 50_000 + s(20 + core) % 250_000;
                let requests = 500 + s(30 + core) % 1_500;
                format!(
                    r#"{{"name": "t{core}", "core": {core}, "period": {period}, "compute": {compute}, "llc_requests": {requests}}}"#
                )
            })
            .collect();
        format!(
            r#"{{
  "name": "small-job-{index}",
  "cores": 4,
  "configs": [
    {{"label": "SS-1x16", "partition": {{"kind": "shared", "sets": 1, "ways": 16, "mode": "SS"}}}},
    {{"label": "NSS-1x16", "partition": {{"kind": "shared", "sets": 1, "ways": 16, "mode": "NSS"}}}},
    {{"label": "P-8x4", "partition": {{"kind": "private", "sets": 8, "ways": 4}}}},
    {{"label": "P-8x4-banked", "partition": {{"kind": "private", "sets": 8, "ways": 4}},
     "memory": {{"kind": "banked", "banks": 8, "mapping": "bank-private"}}}}
  ],
  "workloads": [
    {{"kind": "uniform", "range_bytes": 4096, "ops": 200, "seed": {s0}, "write_fraction": 0.2}},
    {{"kind": "hotcold", "range_bytes": 8192, "ops": 200, "seed": {s1}}}
  ],
  "tasks": [{tasks}],
  "search": {{"arrangements": ["SS", "NSS", "private"], "max_sets": 32, "max_ways": 16}}
}}"#,
            s0 = s(0),
            s1 = s(1),
            tasks = tasks.join(", "),
        )
    }

    /// `resubmit-stream` pool spec: 12 configurations x 25 workloads of
    /// 24 ops on 2 cores — 300 distinct tiny points, so its results are
    /// large while computing them is cheap.
    pub fn pool_spec(&self, slot: u64) -> String {
        let mut configs = Vec::new();
        for mode in ["SS", "NSS"] {
            for (sets, ways) in [(1, 8), (1, 16), (2, 8), (2, 16)] {
                configs.push(format!(
                    r#"{{"label": "{mode}-{sets}x{ways}", "partition": {{"kind": "shared", "sets": {sets}, "ways": {ways}, "mode": "{mode}"}}}}"#
                ));
            }
        }
        for (sets, ways) in [(4, 2), (4, 4), (8, 2), (8, 4)] {
            configs.push(format!(
                r#"{{"label": "P-{sets}x{ways}", "partition": {{"kind": "private", "sets": {sets}, "ways": {ways}}}}}"#
            ));
        }
        let workloads: Vec<String> = (0..25u64)
            .map(|w| {
                let range = 1024u64 << (w % 5);
                let seed = draw(self.seed, slot, w);
                format!(
                    r#"{{"label": "u{w}", "kind": "uniform", "range_bytes": {range}, "ops": 24, "seed": {seed}, "write_fraction": 0.25}}"#
                )
            })
            .collect();
        format!(
            r#"{{"name": "resubmit-pool-{slot}", "cores": 2, "configs": [{}], "workloads": [{}]}}"#,
            configs.join(", "),
            workloads.join(", "),
        )
    }

    /// `fleet-grid` job: the paper configurations over the workload pair
    /// of step `index` and that of step `index + 1`, so each job shares
    /// half its points with the job before it.
    fn fleet_grid(&self, index: u64) -> String {
        let pair = |step: u64| {
            let s = |slot| draw(self.seed, step, slot);
            format!(
                r#"{{"label": "uniform-2k-{step}", "kind": "uniform", "range_bytes": 2048, "ops": {ops}, "seed": {u}, "write_fraction": 0.2}},
    {{"label": "hotcold-8k-{step}", "kind": "hotcold", "range_bytes": 8192, "ops": {ops}, "seed": {h}}}"#,
                ops = FLEET_OPS,
                u = s(0),
                h = s(1),
            )
        };
        format!(
            r#"{{
  "name": "fleet-grid-{index}",
  "cores": 4,
  "configs": {configs},
  "workloads": [
    {a},
    {b}
  ]
}}"#,
            configs = SpecGen::paper_configs(),
            a = pair(index),
            b = pair(index + 1),
        )
    }
}
