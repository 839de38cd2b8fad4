//! The set sequencer (§4.5): the micro-architectural extension that makes
//! partition sharing cheap.
//!
//! The sequencer consists of a *Queue Lookup Table* (QLT) with one entry
//! per set that has at least one pending LLC request, each pointing at a
//! FIFO queue in the *Sequencer* (SQ) holding the cores whose requests
//! target that set, in the order their requests were broadcast on the
//! shared bus. Only the head of a set's queue may claim a freed cache
//! line in that set; everyone else waits their turn.
//!
//! The WCL analysis shows why this helps: without ordering, a core with a
//! *smaller* slot distance can intercept the entry a write-back freed for
//! the core under analysis, increasing the distance of the lines in the
//! set (Observation 3) and making the WCL grow with the partition size.
//! With broadcast order enforced, an interception can never happen, and
//! the WCL collapses to `(2(n−1)·n + 1)·N·SW` (Theorem 4.8).

use std::collections::VecDeque;

use predllc_model::{CoreId, SetIdx};

/// A set sequencer for one LLC partition.
///
/// The QLT is dense: one queue per partition-local set, allocated once
/// when the sequencer is built. A set's QLT entry is *live* while its
/// queue is non-empty; a drained queue keeps its capacity, so a
/// sequencer in steady state neither hashes nor allocates.
///
/// # Examples
///
/// ```
/// use predllc_core::SetSequencer;
/// use predllc_model::{CoreId, SetIdx};
///
/// let mut sq = SetSequencer::new(8);
/// let set = SetIdx(5);
/// sq.enqueue(set, CoreId::new(2)); // c2's request broadcast first
/// sq.enqueue(set, CoreId::new(3));
/// assert_eq!(sq.head(set), Some(CoreId::new(2)));
/// assert!(sq.is_head(set, CoreId::new(2)));
/// assert!(!sq.is_head(set, CoreId::new(3)));
/// sq.pop(set); // c2 claimed its line
/// assert_eq!(sq.head(set), Some(CoreId::new(3)));
/// ```
#[derive(Debug, Clone)]
pub struct SetSequencer {
    /// QLT + SQ fused: set index → FIFO of requesting cores in broadcast
    /// order (empty = no live QLT entry).
    queues: Vec<VecDeque<CoreId>>,
    /// Number of non-empty queues (live QLT entries).
    tracked_sets: usize,
    /// High-water mark of simultaneously tracked sets (QLT pressure).
    max_tracked_sets: usize,
    /// High-water mark of any single queue's depth (SQ pressure).
    max_queue_depth: usize,
}

impl SetSequencer {
    /// Creates an empty sequencer for a partition of `sets` sets; every
    /// [`SetIdx`] passed to it later must be below `sets`.
    pub fn new(sets: usize) -> Self {
        SetSequencer {
            queues: vec![VecDeque::new(); sets],
            tracked_sets: 0,
            max_tracked_sets: 0,
            max_queue_depth: 0,
        }
    }

    /// Appends `core` to `set`'s queue (its request was just broadcast).
    ///
    /// Enqueueing the same core twice for the same set is a logic error in
    /// the caller (a core has at most one outstanding request).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range, and in debug builds if `core` is
    /// already queued for `set`.
    pub fn enqueue(&mut self, set: SetIdx, core: CoreId) {
        let q = &mut self.queues[set.as_usize()];
        debug_assert!(
            !q.contains(&core),
            "{core} queued twice for {set}: one-outstanding-request violated"
        );
        if q.is_empty() {
            self.tracked_sets += 1;
            self.max_tracked_sets = self.max_tracked_sets.max(self.tracked_sets);
        }
        q.push_back(core);
        self.max_queue_depth = self.max_queue_depth.max(q.len());
    }

    /// The core at the head of `set`'s queue, if any request is pending.
    pub fn head(&self, set: SetIdx) -> Option<CoreId> {
        self.queues[set.as_usize()].front().copied()
    }

    /// Whether `core` is at the head of `set`'s queue.
    pub fn is_head(&self, set: SetIdx, core: CoreId) -> bool {
        self.head(set) == Some(core)
    }

    /// Pops the head of `set`'s queue (it claimed a line). The set's QLT
    /// entry dies when the queue drains.
    pub fn pop(&mut self, set: SetIdx) -> Option<CoreId> {
        let q = &mut self.queues[set.as_usize()];
        let head = q.pop_front()?;
        if q.is_empty() {
            self.tracked_sets -= 1;
        }
        Some(head)
    }

    /// Removes `core` from `set`'s queue wherever it is (its request was
    /// satisfied without an allocation, e.g. it turned into a hit).
    ///
    /// Returns whether the core was queued.
    pub fn remove(&mut self, set: SetIdx, core: CoreId) -> bool {
        let q = &mut self.queues[set.as_usize()];
        let Some(position) = q.iter().position(|&c| c == core) else {
            return false;
        };
        q.remove(position);
        if q.is_empty() {
            self.tracked_sets -= 1;
        }
        true
    }

    /// Whether `core` is queued for `set` at any position.
    pub fn contains(&self, set: SetIdx, core: CoreId) -> bool {
        self.queues[set.as_usize()].contains(&core)
    }

    /// Number of requests queued for `set`.
    pub fn queue_len(&self, set: SetIdx) -> usize {
        self.queues[set.as_usize()].len()
    }

    /// Number of sets currently tracked (live QLT entries).
    pub fn tracked_sets(&self) -> usize {
        self.tracked_sets
    }

    /// High-water mark of simultaneously tracked sets — the QLT capacity
    /// a hardware implementation would need for this run.
    pub fn max_tracked_sets(&self) -> usize {
        self.max_tracked_sets
    }

    /// High-water mark of a single queue's depth — the SQ depth a
    /// hardware implementation would need. Bounded by the sharer count,
    /// because each core has at most one outstanding request.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S3: SetIdx = SetIdx(3);
    const S5: SetIdx = SetIdx(5);

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn fifo_order_is_broadcast_order() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S5, c(2));
        sq.enqueue(S5, c(3));
        sq.enqueue(S5, c(1));
        assert_eq!(sq.pop(S5), Some(c(2)));
        assert_eq!(sq.pop(S5), Some(c(3)));
        assert_eq!(sq.pop(S5), Some(c(1)));
        assert_eq!(sq.pop(S5), None);
    }

    #[test]
    fn paper_fig6_shape() {
        // Fig. 6: c1 pending on set 3; c2 then c3 pending on set 5.
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S3, c(1));
        sq.enqueue(S5, c(2));
        sq.enqueue(S5, c(3));
        assert_eq!(sq.tracked_sets(), 2);
        assert_eq!(sq.head(S3), Some(c(1)));
        assert_eq!(sq.head(S5), Some(c(2)));
        assert!(!sq.is_head(S5, c(3)));
        assert_eq!(sq.queue_len(S5), 2);
    }

    #[test]
    fn queues_for_different_sets_are_independent() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S3, c(0));
        sq.enqueue(S5, c(1));
        sq.pop(S3);
        assert_eq!(sq.head(S3), None);
        assert_eq!(sq.head(S5), Some(c(1)));
    }

    #[test]
    fn qlt_entry_removed_when_queue_drains() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S3, c(0));
        assert_eq!(sq.tracked_sets(), 1);
        sq.pop(S3);
        assert_eq!(sq.tracked_sets(), 0);
    }

    #[test]
    fn remove_from_middle() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S5, c(0));
        sq.enqueue(S5, c(1));
        sq.enqueue(S5, c(2));
        assert!(sq.remove(S5, c(1)));
        assert!(!sq.remove(S5, c(1)));
        assert_eq!(sq.pop(S5), Some(c(0)));
        assert_eq!(sq.pop(S5), Some(c(2)));
    }

    #[test]
    fn contains_reflects_membership() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S5, c(0));
        assert!(sq.contains(S5, c(0)));
        assert!(!sq.contains(S5, c(1)));
        assert!(!sq.contains(S3, c(0)));
    }

    #[test]
    fn high_water_marks() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S3, c(0));
        sq.enqueue(S5, c(1));
        sq.enqueue(S5, c(2));
        sq.pop(S3);
        sq.pop(S5);
        sq.pop(S5);
        assert_eq!(sq.max_tracked_sets(), 2);
        assert_eq!(sq.max_queue_depth(), 2);
        assert_eq!(sq.tracked_sets(), 0);
    }

    /// The simplest model of a sequencer: every queued `(set, core)` in
    /// broadcast order, one flat list for all sets.
    #[derive(Default)]
    struct Reference {
        queued: Vec<(SetIdx, CoreId)>,
        max_tracked_sets: usize,
        max_queue_depth: usize,
    }

    impl Reference {
        fn head(&self, set: SetIdx) -> Option<CoreId> {
            self.queued.iter().find(|q| q.0 == set).map(|q| q.1)
        }

        fn contains(&self, set: SetIdx, core: CoreId) -> bool {
            self.queued.contains(&(set, core))
        }

        fn queue_len(&self, set: SetIdx) -> usize {
            self.queued.iter().filter(|q| q.0 == set).count()
        }

        fn tracked_sets(&self) -> usize {
            let mut sets: Vec<SetIdx> = self.queued.iter().map(|q| q.0).collect();
            sets.sort_unstable();
            sets.dedup();
            sets.len()
        }

        fn enqueue(&mut self, set: SetIdx, core: CoreId) {
            self.queued.push((set, core));
            self.max_tracked_sets = self.max_tracked_sets.max(self.tracked_sets());
            self.max_queue_depth = self.max_queue_depth.max(self.queue_len(set));
        }

        fn take(&mut self, position: Option<usize>) -> Option<CoreId> {
            position.map(|i| self.queued.remove(i).1)
        }

        fn pop(&mut self, set: SetIdx) -> Option<CoreId> {
            let position = self.queued.iter().position(|q| q.0 == set);
            self.take(position)
        }

        fn remove(&mut self, set: SetIdx, core: CoreId) -> bool {
            let position = self.queued.iter().position(|&q| q == (set, core));
            self.take(position).is_some()
        }
    }

    #[test]
    fn randomized_operations_match_the_reference_model() {
        const SETS: u32 = 8;
        for seed in 1..=8 {
            let mut rng = predllc_workload::rng::Rng64::new(seed);
            let mut sq = SetSequencer::new(SETS as usize);
            let mut model = Reference::default();
            for step in 0..4_000 {
                let set = SetIdx(rng.below(u64::from(SETS)) as u32);
                let core = c(rng.below(6) as u16);
                match rng.below(4) {
                    // Enqueue twice as often as either removal, so
                    // queues grow several deep before they drain.
                    0 | 1 if !model.contains(set, core) => {
                        sq.enqueue(set, core);
                        model.enqueue(set, core);
                    }
                    0..=2 => assert_eq!(sq.pop(set), model.pop(set), "seed {seed} step {step}"),
                    _ => assert_eq!(
                        sq.remove(set, core),
                        model.remove(set, core),
                        "seed {seed} step {step}"
                    ),
                }
                for s in (0..SETS).map(SetIdx) {
                    assert_eq!(sq.head(s), model.head(s), "seed {seed} step {step}");
                    assert_eq!(
                        sq.queue_len(s),
                        model.queue_len(s),
                        "seed {seed} step {step}"
                    );
                    for core in (0..6).map(c) {
                        assert_eq!(sq.contains(s, core), model.contains(s, core));
                    }
                }
                assert_eq!(
                    sq.tracked_sets(),
                    model.tracked_sets(),
                    "seed {seed} step {step}"
                );
                assert_eq!(sq.max_tracked_sets(), model.max_tracked_sets);
                assert_eq!(sq.max_queue_depth(), model.max_queue_depth);
            }
            assert!(model.max_queue_depth >= 3, "seed {seed}: queues never grew");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queued twice")]
    fn double_enqueue_panics_in_debug() {
        let mut sq = SetSequencer::new(8);
        sq.enqueue(S5, c(0));
        sq.enqueue(S5, c(0));
    }
}
