//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into each layer's public functions (or rebuilt
//! from spans the service already exposes), kept in memory, and
//! written out as JSON Lines when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use predllc::explore::json::render_string;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run; `0` is never used.
    pub id: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: u64,
    /// `layer.operation`, e.g. `serve.submit`.
    pub name: &'static str,
    /// The job (service experiment id, or `probe-N` for replays).
    pub job: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Busy and self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations not covered by child spans.
    pub self_ns: u64,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        job: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            job: job.to_string(),
            start_ns: self.offset(start),
            end_ns: self.offset(end).max(self.offset(start)),
        };
        self.spans
            .lock()
            .expect("recorder lock poisoned")
            .push(span);
        id
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock poisoned").clone()
    }

    /// The spans as JSON Lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                s.parent,
                render_string(s.name),
                render_string(&s.job),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }

    /// Per span name: count, busy time and self time (duration minus
    /// the part of it the span's children cover).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        totals
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 20), (2, 4)];
        assert_eq!(covered_ns(&mut iv, 1, 15), 3 + 10);
    }
}
