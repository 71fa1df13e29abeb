//! A calendar-queue event scheduler (timing wheel).
//!
//! The simulator's PMC event queue was originally a
//! `BinaryHeap<Reverse<(time, seq)>>`: every push and pop costs a
//! log-time sift through a heap whose order is *almost* already known,
//! because most events are scheduled at most a few hundred cycles past
//! the current time (the largest single latency in the ASPLOS '21 table
//! is the 500 ns trap ≈ 1000 cycles).
//!
//! [`EventWheel`] exploits that locality. It keeps a power-of-two ring
//! of one-cycle buckets covering the window `[base, base + N)` where
//! `base` is the time of the last popped event. Push is O(1): index
//! `time & (N-1)`, append. Pop finds the next non-empty bucket with a
//! word-scan over an occupancy bitmap — O(1) amortized because the scan
//! resumes from `base` and events cluster tightly behind it.
//!
//! Events at or beyond `base + N` go to an overflow min-heap keyed by
//! `(time, seq)`. They are common, not rare: a backlogged persist path
//! at 16+ cores schedules completions thousands of cycles ahead, and a
//! single 32-core PMEM-Spec run can push hundreds of thousands. Every
//! time `base` moves, the heap entries that entered the window move
//! into their buckets, so the wheel keeps one invariant: ring events
//! lie in `[base, base + N)` and overflow events at or beyond
//! `base + N`.
//!
//! # Ordering contract
//!
//! The wheel pops in exactly the order the `BinaryHeap` did: ascending
//! `(time, seq)` where `seq` is the push order. Within a bucket every
//! entry shares one time (the window is one bucket wide per cycle), so
//! FIFO append order is push order as long as every overflow event for
//! a time reaches its bucket before any ring push to that time. Eager
//! migration guarantees it: a time goes to overflow only while it lies
//! beyond the window, and the moment `base` brings it inside, its heap
//! entries are linked in `(time, seq)` order, before the next push. The
//! randomized test at the bottom checks the contract against a real
//! `BinaryHeap` under [`SimRng`](crate::rng::SimRng)-driven schedules,
//! including a backlog that keeps hundreds of events in overflow.
//!
//! # Examples
//!
//! ```
//! use pmemspec_engine::wheel::EventWheel;
//! use pmemspec_engine::clock::Cycle;
//!
//! let mut w = EventWheel::new();
//! w.push(Cycle::from_raw(20), 'b');
//! w.push(Cycle::from_raw(10), 'a');
//! assert_eq!(w.pop_next(Cycle::from_raw(15)), Some((Cycle::from_raw(10), 'a')));
//! assert_eq!(w.pop_next(Cycle::from_raw(15)), None); // 'b' is still in the future
//! assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(20), 'b')));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Cycle;

/// Default ring size: covers 4096 cycles (≈2 µs simulated) past the
/// last popped event, several times the largest single latency any
/// component schedules. Persist-path backlogs at high core counts
/// still reach past it; those events wait in the overflow heap.
const DEFAULT_BUCKETS: usize = 4096;

/// Null slot index for the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// One slab entry: an event's payload plus the link to the next entry
/// of its bucket (or of the free list when vacant).
#[derive(Debug, Clone)]
struct Slot<T> {
    next: u32,
    /// `None` while the slot sits on the free list.
    value: Option<T>,
}

/// A timing-wheel priority queue popping in ascending `(time, seq)`
/// order, where `seq` is the order of insertion.
///
/// Buckets are intrusive singly linked lists through one shared slab,
/// so pushing and popping events never allocates once the slab has
/// grown to the peak number of outstanding events — a per-bucket
/// `VecDeque` would pay a malloc for every bucket the schedule touches.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    /// Backing store for all queued events plus a free list.
    slab: Vec<Slot<T>>,
    /// Head of the free list, [`NIL`] when empty.
    free: u32,
    /// Per-bucket list head; bucket `time & mask` holds the events for
    /// the unique `time` in `[base, base + N)` congruent to its index.
    /// Within a bucket entries are in push order.
    heads: Vec<u32>,
    /// Per-bucket list tail, for O(1) FIFO append.
    tails: Vec<u32>,
    /// Occupancy bitmap over buckets, one bit per bucket.
    occupied: Vec<u64>,
    mask: u64,
    /// Raw time of the last popped event; every ring event lies in
    /// `[base, base + N)` and every overflow event at or beyond
    /// `base + N`.
    base: u64,
    /// Overflow push counter (the tie-break of the ordering contract).
    seq: u64,
    /// Entries currently in the ring, so an empty ring never pays a
    /// full bitmap scan.
    ring_len: usize,
    /// Memoized [`EventWheel::scan`] result for the current `(base,
    /// occupancy)` state: `Some((index, distance))` of the earliest ring
    /// bucket, or `None` when unknown. Keeps back-to-back `pop_next` /
    /// `next_time` calls from re-scanning the bitmap.
    cached_scan: Option<(usize, u64)>,
    /// Events at or beyond `base + N`: `(time, seq, slab slot)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// Creates a wheel with the default ring size.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a wheel whose ring covers `buckets` cycles. Exposed so
    /// tests can use a tiny ring to force the overflow path.
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` is a power of two and a multiple of 64.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two() && buckets >= 64,
            "ring size must be a power of two and at least one bitmap word"
        );
        EventWheel {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; buckets],
            tails: vec![NIL; buckets],
            occupied: vec![0u64; buckets / 64],
            mask: (buckets - 1) as u64,
            base: 0,
            seq: 0,
            ring_len: 0,
            cached_scan: None,
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes a slot from the free list (or grows the slab) and fills it.
    fn alloc_slot(&mut self, value: T) -> u32 {
        if self.free != NIL {
            let s = self.free;
            let slot = &mut self.slab[s as usize];
            self.free = slot.next;
            slot.next = NIL;
            slot.value = Some(value);
            s
        } else {
            let s = u32::try_from(self.slab.len()).expect("slab fits in u32");
            self.slab.push(Slot {
                next: NIL,
                value: Some(value),
            });
            s
        }
    }

    /// Appends slot `s` to the bucket of time `t` (inside the window)
    /// and marks the bucket.
    fn link(&mut self, t: u64, s: u32) {
        let i = (t & self.mask) as usize;
        if self.tails[i] == NIL {
            self.heads[i] = s;
        } else {
            self.slab[self.tails[i] as usize].next = s;
        }
        self.tails[i] = s;
        self.occupied[i / 64] |= 1u64 << (i % 64);
        self.ring_len += 1;
        // A known scan result stays exact under links: only a strictly
        // earlier slot can displace it (an equal distance is the same
        // one-cycle bucket).
        let dist = t - self.base;
        if let Some((_, d)) = self.cached_scan {
            if dist < d {
                self.cached_scan = Some((i, dist));
            }
        }
    }

    /// Schedules `value` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event — the
    /// simulator never schedules into the past, and the ring indexing
    /// depends on it.
    pub fn push(&mut self, time: Cycle, value: T) {
        let t = time.raw();
        assert!(
            t >= self.base,
            "event scheduled before the last popped event"
        );
        let s = self.alloc_slot(value);
        if t - self.base > self.mask {
            self.overflow.push(Reverse((t, self.seq, s)));
            self.seq += 1;
        } else {
            self.link(t, s);
        }
    }

    /// Pops the earliest event if its time is at or before `now`;
    /// returns the event's scheduled time alongside its payload.
    pub fn pop_next(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        let (i, dist) = match self.scan_cached() {
            Some(found) => found,
            None => {
                // Ring empty: everything lives in overflow. Jump the
                // window to the heap top — but only if it is poppable,
                // because `base` must not pass a time that may still be
                // pushed.
                let &Reverse((t, _, _)) = self.overflow.peek()?;
                if t > now.raw() {
                    return None;
                }
                self.advance(t);
                self.scan_cached().expect("advance links the heap top")
            }
        };
        let t = self.base + dist;
        if t > now.raw() {
            return None;
        }
        let s = self.heads[i];
        debug_assert_ne!(s, NIL, "scanned bucket is non-empty");
        let slot = &mut self.slab[s as usize];
        let value = slot.value.take().expect("occupied slot has a value");
        self.heads[i] = slot.next;
        slot.next = self.free;
        self.free = s;
        // Rebase to the popped time: the same bucket (distance 0 from
        // the new base) is still the earliest if non-empty; otherwise
        // the next scan starts fresh.
        self.cached_scan = if self.heads[i] == NIL {
            self.tails[i] = NIL;
            self.occupied[i / 64] &= !(1u64 << (i % 64));
            None
        } else {
            Some((i, 0))
        };
        self.ring_len -= 1;
        self.advance(t);
        Some((Cycle::from_raw(t), value))
    }

    /// The time of the earliest queued event, without popping it.
    pub fn next_time(&mut self) -> Option<Cycle> {
        // Every ring event precedes every overflow event.
        let t = match self.scan_cached() {
            Some((_, dist)) => self.base + dist,
            None => {
                let &Reverse((t, _, _)) = self.overflow.peek()?;
                t
            }
        };
        Some(Cycle::from_raw(t))
    }

    /// Moves the window to start at `t` and links every overflow event
    /// now inside it. The heap yields them in `(time, seq)` order, and
    /// their buckets hold no ring pushes yet (those times were beyond
    /// the window until now), so each bucket stays in push order.
    fn advance(&mut self, t: u64) {
        self.base = t;
        while let Some(&Reverse((time, _, s))) = self.overflow.peek() {
            if time - t > self.mask {
                break;
            }
            self.overflow.pop();
            self.link(time, s);
        }
    }

    /// [`EventWheel::scan`] through the memo: skips the bitmap walk when
    /// the ring is empty or the previous result is still valid.
    fn scan_cached(&mut self) -> Option<(usize, u64)> {
        if self.ring_len == 0 {
            return None;
        }
        if self.cached_scan.is_none() {
            self.cached_scan = self.scan();
            debug_assert!(self.cached_scan.is_some(), "non-empty ring must scan");
        }
        self.cached_scan
    }

    /// Finds the first occupied bucket at or after `base`'s slot,
    /// scanning the bitmap circularly; returns `(index, distance)`
    /// where `distance` is in cycles from `base`.
    fn scan(&self) -> Option<(usize, u64)> {
        let n = self.heads.len();
        let words = self.occupied.len();
        let start = (self.base & self.mask) as usize;
        let (sw, sb) = (start / 64, start % 64);
        for k in 0..=words {
            let widx = (sw + k) % words;
            let word = if k == 0 {
                // Only bits at or after the start slot.
                self.occupied[sw] & (!0u64 << sb)
            } else if k == words {
                // Back at the start word: only the bits *before* the
                // start slot, i.e. the far end of the window.
                self.occupied[sw] & !(!0u64 << sb)
            } else {
                self.occupied[widx]
            };
            if word != 0 {
                let i = widx * 64 + word.trailing_zeros() as usize;
                let dist = ((i + n - start) & self.mask as usize) as u64;
                return Some((i, dist));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference scheduler the wheel must match pop-for-pop.
    #[derive(Default)]
    struct HeapRef {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapRef {
        fn push(&mut self, time: u64, value: u32) {
            self.heap.push(Reverse((time, self.seq, value)));
            self.seq += 1;
        }

        fn pop_next(&mut self, now: u64) -> Option<(u64, u32)> {
            let &Reverse((t, _, v)) = self.heap.peek()?;
            if t > now {
                return None;
            }
            self.heap.pop();
            Some((t, v))
        }
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut w = EventWheel::new();
        w.push(Cycle::from_raw(5), 'x');
        w.push(Cycle::from_raw(3), 'a');
        w.push(Cycle::from_raw(3), 'b');
        let mut out = Vec::new();
        while let Some((t, v)) = w.pop_next(Cycle::MAX) {
            out.push((t.raw(), v));
        }
        assert_eq!(out, vec![(3, 'a'), (3, 'b'), (5, 'x')]);
        assert!(w.is_empty());
    }

    #[test]
    fn respects_now_like_a_drain() {
        let mut w = EventWheel::new();
        w.push(Cycle::from_raw(10), 1u8);
        w.push(Cycle::from_raw(20), 2u8);
        assert_eq!(w.next_time(), Some(Cycle::from_raw(10)));
        assert_eq!(w.pop_next(Cycle::from_raw(9)), None);
        assert_eq!(
            w.pop_next(Cycle::from_raw(10)),
            Some((Cycle::from_raw(10), 1))
        );
        assert_eq!(w.pop_next(Cycle::from_raw(10)), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn overflow_entry_can_precede_ring_entry() {
        // Overflow entries pushed before a ring entry still pop after it
        // (time beats push order), and both migrate together once the
        // pop at 40 moves the window over them.
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(0), 0u32);
        w.push(Cycle::from_raw(70), 1u32); // beyond base+64: overflow
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(0), 0)));
        w.push(Cycle::from_raw(80), 2u32); // base is 0: also overflow
        w.push(Cycle::from_raw(40), 3u32); // inside the window: ring
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(40), 3)));
        // Now base=40: both 70 and 80 are inside [40, 104) and migrate.
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(70), 1)));
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(80), 2)));
        assert!(w.is_empty());
    }

    #[test]
    fn ring_empty_jumps_base_to_overflow() {
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(1000), 7u32); // far future: pure overflow
        assert_eq!(w.next_time(), Some(Cycle::from_raw(1000)));
        assert_eq!(w.pop_next(Cycle::from_raw(999)), None);
        assert_eq!(
            w.pop_next(Cycle::from_raw(1000)),
            Some((Cycle::from_raw(1000), 7))
        );
    }

    #[test]
    fn same_time_order_survives_migration() {
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(0), 0u32);
        w.push(Cycle::from_raw(100), 1u32); // overflow, seq 1
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(0), 0)));
        w.push(Cycle::from_raw(100), 2u32); // overflow again (100 - 0 > 63)
        assert_eq!(w.pop_next(Cycle::from_raw(50)), None);
        w.push(Cycle::from_raw(50), 3u32);
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(50), 3)));
        // Both time-100 entries migrate into one bucket; seq order holds.
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(100), 1)));
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(100), 2)));
    }

    /// The contract test: SimRng-driven schedules of interleaved
    /// pushes and drains, replayed against the reference heap. Small
    /// ring so overflow and migration are constantly exercised. The
    /// mixed schedule pushes mostly near `now`; the backlog schedule
    /// pushes mostly past the ring and drains slowly, so hundreds of
    /// entries stay in overflow across drains, and after each drain it
    /// pushes into the ring at the time of a queued entry that has just
    /// migrated in (the same-time order eager migration must keep).
    #[test]
    fn randomized_equivalence_with_binary_heap() {
        for backlog in [false, true] {
            for seed in 0..8u64 {
                let mut rng = SimRng::seed_from_u64(0x4ee1 ^ seed);
                let mut wheel = EventWheel::with_buckets(64);
                let mut heap = HeapRef::default();
                let mut now = 0u64;
                let mut floor = 0u64; // last popped time: pushes must be >= this
                let mut next_value = 0u32;
                let mut peak_overflow = 0;
                for _ in 0..4000 {
                    match rng.next_u64() % 10 {
                        // Pushes. Mixed: biased near `now` with occasional
                        // far-future times (overflow) and occasional
                        // backfill between the pop floor and `now`.
                        // Backlog: three in four land beyond the ring.
                        0..=5 => {
                            let delta = match (backlog, rng.next_u64() % 8) {
                                (false, 0..=4) => rng.next_u64() % 32,
                                (false, 5 | 6) => rng.next_u64() % 512,
                                (true, 0 | 1) => rng.next_u64() % 64,
                                _ => 64 + rng.next_u64() % 4096, // force overflow
                            };
                            let t = floor.max(now.saturating_sub(16)) + delta;
                            wheel.push(Cycle::from_raw(t), next_value);
                            heap.push(t, next_value);
                            next_value += 1;
                        }
                        // Drain everything up to `now`, comparing pop-for-pop.
                        6..=8 => {
                            now += rng.next_u64() % if backlog { 16 } else { 128 };
                            loop {
                                let got = wheel.pop_next(Cycle::from_raw(now));
                                let want = heap.pop_next(now);
                                assert_eq!(
                                    got.map(|(t, v)| (t.raw(), v)),
                                    want,
                                    "divergence at now={now} seed={seed} backlog={backlog}"
                                );
                                match got {
                                    Some((t, _)) => floor = t.raw(),
                                    None => break,
                                }
                            }
                            assert_eq!(
                                wheel.next_time().map(Cycle::raw),
                                heap.heap.peek().map(|&Reverse((t, _, _))| t)
                            );
                            if backlog {
                                // Same-time ring pushes behind the entries
                                // the drain's pops just migrated in.
                                let migrated = heap
                                    .heap
                                    .iter()
                                    .map(|&Reverse((t, _, _))| t)
                                    .filter(|&t| t - floor <= wheel.mask)
                                    .max();
                                if let Some(t) = migrated {
                                    for _ in 0..=rng.next_u64() % 3 {
                                        wheel.push(Cycle::from_raw(t), next_value);
                                        heap.push(t, next_value);
                                        next_value += 1;
                                    }
                                }
                            }
                        }
                        // Final-drain pattern (`drain_events(Cycle::MAX)`).
                        _ if !backlog => {
                            while let Some((t, v)) = wheel.pop_next(Cycle::MAX) {
                                assert_eq!(heap.pop_next(u64::MAX), Some((t.raw(), v)));
                                floor = t.raw();
                            }
                            assert!(heap.heap.is_empty());
                        }
                        _ => {}
                    }
                    assert_eq!(wheel.len(), heap.heap.len());
                    peak_overflow = peak_overflow.max(wheel.overflow.len());
                }
                if backlog {
                    assert!(
                        peak_overflow >= 200,
                        "seed {seed}: backlog peaked at only {peak_overflow} overflow entries"
                    );
                }
                while let Some((t, v)) = wheel.pop_next(Cycle::MAX) {
                    assert_eq!(heap.pop_next(u64::MAX), Some((t.raw(), v)));
                }
                assert!(heap.heap.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "before the last popped")]
    fn pushing_into_the_past_panics() {
        let mut w = EventWheel::new();
        w.push(Cycle::from_raw(100), ());
        w.pop_next(Cycle::MAX);
        w.push(Cycle::from_raw(99), ());
    }
}
