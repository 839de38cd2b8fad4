//! The output check: every checked served body must equal, byte for
//! byte, what in-process `run_spec` renders for the same spec, and no
//! row may observe a worst case above its analytical bound.
//!
//! Bodies are compared by length and a 64-bit digest, so the load
//! generator keeps a few bytes per job instead of every body it streamed.

use predllc::explore::report::{render_csv, render_json};
use predllc::explore::{run_spec, Executor, ExperimentSpec};

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One word into the digest state. Both steps are bijections of the
/// state, so two bodies that differ in a single word never collide.
fn mix(state: u64, word: u64) -> u64 {
    let h = (state ^ word).wrapping_mul(MIX);
    h ^ (h >> 29)
}

/// The length and digest of one result body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyDigest {
    /// Bytes in the body.
    pub len: u64,
    /// Digest of the bytes.
    pub hash: u64,
}

impl BodyDigest {
    /// The digest of a whole body.
    pub fn of(bytes: &[u8]) -> BodyDigest {
        let mut d = Digest::new();
        d.update(bytes);
        d.finish()
    }
}

/// A digest fed slab by slab, as a body streams in. Slab boundaries do
/// not change the result.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    len: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest {
            state: MIX,
            len: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    /// Feeds the next bytes of the body.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.state = mix(self.state, u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.state = mix(
                self.state,
                u64::from_le_bytes(w.try_into().expect("8 bytes")),
            );
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of every byte fed so far.
    pub fn finish(self) -> BodyDigest {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        BodyDigest {
            len: self.len,
            hash: mix(mix(self.state, u64::from_le_bytes(last)), self.len),
        }
    }
}

/// The in-process rendering of one spec.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `[csv, json]` as `report::render_csv` / `render_json` give them.
    pub bodies: [BodyDigest; 2],
    /// Rows that carry an analytical WCL bound.
    pub bounded_rows: u64,
    /// Rows whose p100 exceeds their bound (`config/workload`).
    pub violations: Vec<String>,
}

/// Runs `document` in-process and renders it as the service would
/// (`threads_label` is the front door's JSON `threads` stamp).
pub fn reference(
    document: &str,
    threads_label: usize,
    exec: &Executor,
) -> Result<Reference, String> {
    let spec = ExperimentSpec::parse(document).map_err(|e| format!("spec rejected: {e}"))?;
    let report = run_spec(&spec, exec).map_err(|e| format!("in-process run failed: {e}"))?;
    let mut bounded_rows = 0;
    let mut violations = Vec::new();
    for row in &report.grid {
        if let Some(bound) = row.analytical_wcl {
            bounded_rows += 1;
            if row.p100 > bound {
                violations.push(format!(
                    "{}/{}: p100 {} > analytical_wcl {bound}",
                    row.config, row.workload, row.p100
                ));
            }
        }
    }
    let json = render_json(
        &spec.name,
        threads_label,
        None,
        &report.grid,
        report.search.as_ref(),
    );
    Ok(Reference {
        bodies: [
            BodyDigest::of(render_csv(&report.grid).as_bytes()),
            BodyDigest::of(json.as_bytes()),
        ],
        bounded_rows,
        violations,
    })
}

/// Tally of a run's output checks.
#[derive(Debug, Default)]
pub struct CheckTally {
    /// Jobs whose bodies were compared.
    pub jobs: u64,
    /// Rows checked against their analytical bound.
    pub bounded_rows: u64,
}

/// Checks the digests of the streamed bodies (CSV, then JSON when
/// streamed) against the reference; `Err` describes the first
/// difference.
pub fn compare(
    bodies: &[BodyDigest],
    reference: &Reference,
    tally: &mut CheckTally,
) -> Result<(), String> {
    tally.jobs += 1;
    tally.bounded_rows += reference.bounded_rows;
    for (k, (got, want)) in bodies.iter().zip(&reference.bodies).enumerate() {
        if got != want {
            let format = if k == 0 { "CSV" } else { "JSON" };
            return Err(format!(
                "{format} body differs from in-process run_spec: served {} bytes (digest {:016x}), \
                 expected {} bytes (digest {:016x})",
                got.len, got.hash, want.len, want.hash
            ));
        }
    }
    match reference.violations.first() {
        Some(v) => Err(format!("WCL bound violated: {v}")),
        None => Ok(()),
    }
}
