//! Replacement policies for set-associative caches.
//!
//! The paper's WCL analysis holds for *any* replacement policy (§4.3:
//! "our observation is agnostic of replacement policy … including
//! least-recently used"). To let experiments exercise that claim, every
//! cache takes a [`ReplacementKind`]: LRU (the default), FIFO,
//! round-robin, or a deterministic xorshift-based pseudo-random policy.
//! This module owns the replacement decision; [`crate::SetAssocCache`]
//! only stores the slots it decides over.

use std::fmt;

use predllc_model::WayIdx;

/// The selectable replacement policies, as configuration data.
///
/// # Examples
///
/// ```
/// use predllc_cache::{ReplacementKind, SetAssocCache};
/// use predllc_model::CacheGeometry;
///
/// let kind = ReplacementKind::Random { seed: 7 };
/// assert_eq!(kind.to_string(), "random(seed=7)");
/// let cache: SetAssocCache<()> = SetAssocCache::new(CacheGeometry::PAPER_L2, kind);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used (per-set recency stack).
    #[default]
    Lru,
    /// First-in-first-out (victimize oldest fill, ignore hits).
    Fifo,
    /// Round-robin pointer per set.
    RoundRobin,
    /// Deterministic pseudo-random (xorshift64*), seeded.
    Random {
        /// Seed for the xorshift state; same seed ⇒ same victim sequence.
        seed: u64,
    },
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => f.write_str("LRU"),
            ReplacementKind::Fifo => f.write_str("FIFO"),
            ReplacementKind::RoundRobin => f.write_str("round-robin"),
            ReplacementKind::Random { seed } => write!(f, "random(seed={seed})"),
        }
    }
}

/// One cache's replacement state, stored flat (indexed by slot
/// `set * ways + way`) and dispatched by a match.
///
/// It is notified of every fill, hit and invalidation, and picks victims
/// among the ways an eligibility predicate admits. It is deterministic:
/// the simulator's reproducibility guarantees (same seed ⇒ same
/// cycle-exact run) depend on it.
#[derive(Debug)]
pub(crate) enum Replacer {
    /// LRU (`refresh_on_hit`) and FIFO (`!refresh_on_hit`): a per-way
    /// last-use/fill stamp driven by one monotonically increasing clock;
    /// the eligible way with the smallest stamp is the victim (ties to
    /// the lowest way).
    Stamped {
        refresh_on_hit: bool,
        /// `stamp[set * ways + way]`; 0 means "never used".
        stamp: Vec<u64>,
        clock: u64,
    },
    /// A rotating pointer per set: the next eligible way at or after the
    /// pointer is the victim, and the pointer advances past it.
    RoundRobin { next: Vec<usize> },
    /// Deterministic xorshift64* selection — "random" replacement in real
    /// hardware is a cheap LFSR; this models it reproducibly.
    Random { state: u64 },
}

impl Replacer {
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => Replacer::Stamped {
                refresh_on_hit: true,
                stamp: vec![0; sets * ways],
                clock: 0,
            },
            ReplacementKind::Fifo => Replacer::Stamped {
                refresh_on_hit: false,
                stamp: vec![0; sets * ways],
                clock: 0,
            },
            ReplacementKind::RoundRobin => Replacer::RoundRobin {
                next: vec![0; sets],
            },
            ReplacementKind::Random { seed } => {
                // Scramble the seed with splitmix64 so that nearby seeds
                // diverge and zero never becomes the xorshift state.
                let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                Replacer::Random { state: z | 1 }
            }
        }
    }

    #[inline]
    pub(crate) fn on_fill(&mut self, slot: usize) {
        if let Replacer::Stamped { stamp, clock, .. } = self {
            *clock += 1;
            stamp[slot] = *clock;
        }
    }

    #[inline]
    pub(crate) fn on_hit(&mut self, slot: usize) {
        if let Replacer::Stamped {
            refresh_on_hit: true,
            stamp,
            clock,
        } = self
        {
            *clock += 1;
            stamp[slot] = *clock;
        }
    }

    #[inline]
    pub(crate) fn on_invalidate(&mut self, slot: usize) {
        if let Replacer::Stamped { stamp, .. } = self {
            stamp[slot] = 0;
        }
    }

    /// Chooses a victim among the ways `w` of `set` (out of `ways`) for
    /// which `eligible(w)` holds, or `None` if no way is eligible.
    ///
    /// A caller whose every way is eligible passes `|_| true`; after
    /// monomorphisation that path tests no way at all.
    #[inline]
    pub(crate) fn choose_victim(
        &mut self,
        set: usize,
        ways: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<WayIdx> {
        let pick = match self {
            Replacer::Stamped { stamp, .. } => {
                let stamps = &stamp[set * ways..(set + 1) * ways];
                (0..ways)
                    .filter(|&w| eligible(w))
                    .min_by_key(|&w| stamps[w])
            }
            Replacer::RoundRobin { next } => {
                if ways == 0 {
                    return None;
                }
                let start = next[set] % ways;
                let w = (0..ways)
                    .map(|i| (start + i) % ways)
                    .find(|&w| eligible(w))?;
                next[set] = (w + 1) % ways;
                Some(w)
            }
            Replacer::Random { state } => {
                let count = (0..ways).filter(|&w| eligible(w)).count();
                if count == 0 {
                    return None;
                }
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let nth = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % count as u64) as usize;
                (0..ways).filter(|&w| eligible(w)).nth(nth)
            }
        };
        pick.map(|w| WayIdx(w as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: fn(usize) -> bool = |_| true;

    /// A one-set replacer of `ways` ways.
    fn one_set(kind: ReplacementKind, ways: usize) -> Replacer {
        Replacer::new(kind, 1, ways)
    }

    fn mask(bits: &[bool]) -> impl Fn(usize) -> bool + '_ {
        move |w| bits[w]
    }

    #[test]
    fn lru_victimizes_least_recently_used() {
        let mut r = one_set(ReplacementKind::Lru, 4);
        for w in 0..4 {
            r.on_fill(w);
        }
        r.on_hit(0); // 0 is now MRU; 1 is LRU
        assert_eq!(r.choose_victim(0, 4, ALL), Some(WayIdx(1)));
    }

    #[test]
    fn lru_respects_eligibility() {
        let mut r = one_set(ReplacementKind::Lru, 4);
        for w in 0..4 {
            r.on_fill(w);
        }
        // way0 is LRU but ineligible.
        let m = [false, true, true, true];
        assert_eq!(r.choose_victim(0, 4, mask(&m)), Some(WayIdx(1)));
    }

    #[test]
    fn lru_prefers_invalidated_ways() {
        let mut r = one_set(ReplacementKind::Lru, 2);
        r.on_fill(0);
        r.on_fill(1);
        r.on_invalidate(1);
        assert_eq!(r.choose_victim(0, 2, ALL), Some(WayIdx(1)));
    }

    #[test]
    fn every_policy_returns_none_when_nothing_is_eligible() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::RoundRobin,
            ReplacementKind::Random { seed: 7 },
        ] {
            let mut r = one_set(kind, 4);
            assert_eq!(r.choose_victim(0, 4, |_| false), None, "{kind}");
            assert_eq!(r.choose_victim(0, 0, ALL), None, "{kind} with no ways");
        }
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut r = one_set(ReplacementKind::Fifo, 3);
        for w in 0..3 {
            r.on_fill(w);
        }
        r.on_hit(0); // does not refresh
        assert_eq!(r.choose_victim(0, 3, ALL), Some(WayIdx(0)));
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = one_set(ReplacementKind::RoundRobin, 3);
        for want in [0, 1, 2, 0] {
            assert_eq!(r.choose_victim(0, 3, ALL), Some(WayIdx(want)));
        }
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut r = one_set(ReplacementKind::RoundRobin, 3);
        let m = [false, true, false];
        assert_eq!(r.choose_victim(0, 3, mask(&m)), Some(WayIdx(1)));
        assert_eq!(r.choose_victim(0, 3, mask(&m)), Some(WayIdx(1)));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let picks = |seed: u64| -> Vec<Option<WayIdx>> {
            let mut r = one_set(ReplacementKind::Random { seed }, 8);
            (0..16).map(|_| r.choose_victim(0, 8, ALL)).collect()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
    }

    #[test]
    fn random_only_picks_eligible_ways() {
        let mut r = one_set(ReplacementKind::Random { seed: 7 }, 6);
        let m = [false, false, true, false, true, false];
        for _ in 0..64 {
            let w = r.choose_victim(0, 6, mask(&m)).unwrap();
            assert!(m[w.as_usize()], "picked ineligible way {w}");
        }
    }

    #[test]
    fn kind_displays_and_defaults_to_lru() {
        for (kind, name) in [
            (ReplacementKind::Lru, "LRU"),
            (ReplacementKind::Fifo, "FIFO"),
            (ReplacementKind::RoundRobin, "round-robin"),
            (ReplacementKind::Random { seed: 1 }, "random(seed=1)"),
        ] {
            assert_eq!(kind.to_string(), name);
            // Every fresh replacer can pick a victim from a full set.
            assert!(Replacer::new(kind, 2, 2).choose_victim(0, 2, ALL).is_some());
        }
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
    }

    /// Each policy's victims under a fixed pseudo-random mix of fills,
    /// hits, invalidations and masked victim choices on a 4-set x 4-way
    /// cache, one character per choice (the way, or `-` for none).
    ///
    /// The sequences were recorded from the boxed trait-object policies
    /// that `Replacer` replaced, so they pin the original stamps,
    /// rotation, tie-breaking and xorshift stream.
    #[test]
    fn victim_sequences_match_the_recorded_goldens() {
        for (kind, golden) in [
            (
                ReplacementKind::Lru,
                "00000010130003000100001101100000210010212101200013013111211120201300010133201301110000010011332011111110000111111011311100010",
            ),
            (
                ReplacementKind::Fifo,
                "00000000100000000100000000100000200003010101000013002001211120201300010120201000110000000021032001001110000111111011212100000",
            ),
            (
                ReplacementKind::RoundRobin,
                "00011310030120112120130103201320310123003110012011012300112021001101231023002110312011002320111023012301230013102011230011203",
            ),
            (
                ReplacementKind::Random { seed: 99 },
                "30203021211111103120100001003000101020110101212030211301012013000100332131111301201101010101332121012000132031112301131021113",
            ),
        ] {
            let mut r = Replacer::new(kind, 4, 4);
            let mut victims = String::new();
            let mut x = 12345u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let set = (x >> 33) as usize % 4;
                let slot = set * 4 + (x >> 20) as usize % 4;
                match x % 4 {
                    0 => r.on_fill(slot),
                    1 => r.on_hit(slot),
                    2 => r.on_invalidate(slot),
                    _ => {
                        let m: Vec<bool> = (0..4).map(|w| (x >> w) & 1 == 1).collect();
                        victims.push(match r.choose_victim(set, 4, mask(&m)) {
                            Some(w) => char::from(b'0' + w.0 as u8),
                            None => '-',
                        });
                    }
                }
            }
            assert_eq!(victims, golden, "victim divergence under {kind}");
        }
    }
}
