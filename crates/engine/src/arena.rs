//! A bounded FIFO of timestamped entries on one flat ring buffer.
//!
//! The hardware queues on the simulator's hot path — per-core store
//! queues, outstanding-load buffers, PM controller service ports — are
//! small, fixed-capacity, and carry `Copy` payloads. [`ArenaFifo`]
//! stores them in a single flat ring buffer sized exactly to capacity:
//! one allocation for the queue's whole lifetime, no reallocation or
//! spare-capacity growth, and entries are plain slot writes. A
//! `VecDeque`-backed `TimedFifo` survives in the test build only, as the
//! oracle the randomized test below drives with the same operation
//! stream, asserting identical behavior.
//!
//! # Examples
//!
//! ```
//! use pmemspec_engine::arena::ArenaFifo;
//! use pmemspec_engine::clock::Cycle;
//!
//! let mut q = ArenaFifo::new(2);
//! q.push(Cycle::from_raw(10), 'a').unwrap();
//! q.push(Cycle::from_raw(5), 'b').unwrap();
//! assert!(q.is_full());
//! // FIFO order, not ready order:
//! assert_eq!(q.pop_ready(Cycle::from_raw(10)), Some('a'));
//! ```

use crate::clock::Cycle;
use crate::queue::Timed;

/// A bounded FIFO of timestamped `Copy` entries in a flat ring buffer.
///
/// Behaviorally identical to the test-only `VecDeque` oracle; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct ArenaFifo<T: Copy> {
    /// Ring storage. Grows by plain `push` until it reaches `capacity`
    /// physical slots (so no `Default`/zeroing is needed for `T`), then
    /// stays at that length forever and slots are overwritten in place.
    slots: Vec<Timed<T>>,
    /// Physical index of the logical front.
    head: usize,
    len: usize,
    capacity: usize,
}

impl<T: Copy> ArenaFifo<T> {
    /// Creates a FIFO holding at most `capacity` entries. The backing
    /// ring is allocated once, here.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        ArenaFifo {
            slots: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            capacity,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Physical slot of the `k`-th logical entry.
    #[inline]
    fn slot(&self, k: usize) -> usize {
        let i = self.head + k;
        if i >= self.capacity {
            i - self.capacity
        } else {
            i
        }
    }

    /// Appends an entry that becomes visible at `ready`.
    ///
    /// # Errors
    ///
    /// Returns the value back when the queue is full.
    pub fn push(&mut self, ready: Cycle, value: T) -> Result<(), T> {
        if self.is_full() {
            return Err(value);
        }
        let tail = self.slot(self.len);
        let entry = Timed { ready, value };
        if tail == self.slots.len() {
            // Still filling the ring for the first time: the write
            // frontier advances contiguously, so `push` lands exactly
            // on the next uninitialized slot.
            self.slots.push(entry);
        } else {
            self.slots[tail] = entry;
        }
        self.len += 1;
        Ok(())
    }

    /// The head entry, regardless of visibility.
    pub fn front(&self) -> Option<&Timed<T>> {
        if self.len == 0 {
            None
        } else {
            Some(&self.slots[self.head])
        }
    }

    /// Pops the head entry if it is visible at `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.front().is_some_and(|e| e.ready <= now) {
            self.pop().map(|e| e.value)
        } else {
            None
        }
    }

    /// Pops the head entry unconditionally.
    pub fn pop(&mut self) -> Option<Timed<T>> {
        if self.len == 0 {
            return None;
        }
        let entry = self.slots[self.head];
        self.head = self.slot(1);
        self.len -= 1;
        if self.len == 0 {
            self.head = 0;
        }
        Some(entry)
    }

    /// The visibility time of the *last* entry, i.e. when the whole
    /// queue will have drained past the producer side. `None` when
    /// empty.
    pub fn last_ready(&self) -> Option<Cycle> {
        if self.len == 0 {
            None
        } else {
            Some(self.slots[self.slot(self.len - 1)].ready)
        }
    }

    /// Iterates entries front to back.
    pub fn iter(&self) -> impl Iterator<Item = &Timed<T>> {
        (0..self.len).map(move |k| &self.slots[self.slot(k)])
    }

    /// Removes all entries. The backing ring is retained.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TimedFifo;
    use crate::rng::SimRng;

    #[test]
    fn push_until_full() {
        let mut q = ArenaFifo::new(2);
        assert!(q.push(Cycle::ZERO, 1).is_ok());
        assert!(q.push(Cycle::ZERO, 2).is_ok());
        assert_eq!(q.push(Cycle::ZERO, 3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn wraps_around_the_ring() {
        let mut q = ArenaFifo::new(3);
        for i in 0..3 {
            q.push(Cycle::from_raw(i), i).unwrap();
        }
        assert_eq!(q.pop().map(|e| e.value), Some(0));
        assert_eq!(q.pop().map(|e| e.value), Some(1));
        q.push(Cycle::from_raw(3), 3).unwrap();
        q.push(Cycle::from_raw(4), 4).unwrap(); // wraps into slot 0/1
        assert!(q.is_full());
        let seen: Vec<u64> = q.iter().map(|e| e.value).collect();
        assert_eq!(seen, vec![2, 3, 4]);
        assert_eq!(q.last_ready(), Some(Cycle::from_raw(4)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = ArenaFifo::<u8>::new(0);
    }

    /// Drives an `ArenaFifo` and a `TimedFifo` with the same
    /// SimRng-generated operation stream and asserts every observable
    /// (results, lengths, iteration order, `last_ready`) agrees.
    #[test]
    fn randomized_equivalence_with_timed_fifo() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(0xa3ea ^ seed);
            let capacity = 1 + (rng.next_u64() % 32) as usize;
            let mut arena = ArenaFifo::new(capacity);
            let mut fifo = TimedFifo::new(capacity);
            for _ in 0..2000 {
                match rng.next_u64() % 12 {
                    0..=5 => {
                        let ready = Cycle::from_raw(rng.next_u64() % 256);
                        let value = rng.next_u64() as u32;
                        assert_eq!(arena.push(ready, value), fifo.push(ready, value));
                    }
                    6..=8 => {
                        let now = Cycle::from_raw(rng.next_u64() % 256);
                        assert_eq!(arena.pop_ready(now), fifo.pop_ready(now));
                    }
                    9 => {
                        assert_eq!(arena.pop(), fifo.pop());
                    }
                    10 => {
                        arena.clear();
                        fifo.clear();
                    }
                    _ => {
                        assert_eq!(arena.front(), fifo.front());
                        assert_eq!(arena.last_ready(), fifo.last_ready());
                    }
                }
                assert_eq!(arena.len(), fifo.len());
                assert_eq!(arena.is_empty(), fifo.is_empty());
                assert_eq!(arena.is_full(), fifo.is_full());
                assert!(
                    arena.iter().eq(fifo.iter()),
                    "iteration diverged (seed {seed})"
                );
            }
        }
    }
}
