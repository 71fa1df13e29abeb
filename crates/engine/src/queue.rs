//! Timestamped queue entries.
//!
//! Hardware queues in the simulated machine (store queues, PM controller
//! read/write queues, persist-path FIFOs) share the same shape: fixed
//! capacity, FIFO order, and each entry becomes *visible* to the consumer at
//! a known cycle. [`Timed`] is that entry shape;
//! [`ArenaFifo`](crate::arena::ArenaFifo) is the queue built on it.

#[cfg(test)]
use std::collections::VecDeque;

use crate::clock::Cycle;

/// One entry of a timed FIFO: a payload that becomes visible at `ready`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The cycle at which the consumer may observe/pop this entry.
    pub ready: Cycle,
    /// The payload.
    pub value: T,
}

/// A bounded FIFO of timestamped entries on a `VecDeque`: the test
/// oracle that [`ArenaFifo`](crate::arena::ArenaFifo) is checked against.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct TimedFifo<T> {
    entries: VecDeque<Timed<T>>,
    capacity: usize,
}

#[cfg(test)]
impl<T> TimedFifo<T> {
    /// Creates a FIFO holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TimedFifo {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
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
        self.entries.push_back(Timed { ready, value });
        Ok(())
    }

    /// The head entry, regardless of visibility.
    pub fn front(&self) -> Option<&Timed<T>> {
        self.entries.front()
    }

    /// Pops the head entry if it is visible at `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.entries.front().is_some_and(|e| e.ready <= now) {
            self.entries.pop_front().map(|e| e.value)
        } else {
            None
        }
    }

    /// Pops the head entry unconditionally.
    pub fn pop(&mut self) -> Option<Timed<T>> {
        self.entries.pop_front()
    }

    /// The visibility time of the *last* entry, i.e. when the whole queue
    /// will have drained past the producer side. `None` when empty.
    pub fn last_ready(&self) -> Option<Cycle> {
        self.entries.back().map(|e| e.ready)
    }

    /// Iterates entries front to back.
    pub fn iter(&self) -> impl Iterator<Item = &Timed<T>> {
        self.entries.iter()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_full() {
        let mut q = TimedFifo::new(2);
        assert!(q.push(Cycle::ZERO, 1).is_ok());
        assert!(q.push(Cycle::ZERO, 2).is_ok());
        assert_eq!(q.push(Cycle::ZERO, 3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_respects_visibility() {
        let mut q = TimedFifo::new(4);
        q.push(Cycle::from_raw(10), 'x').unwrap();
        assert_eq!(q.pop_ready(Cycle::from_raw(9)), None);
        assert_eq!(q.pop_ready(Cycle::from_raw(10)), Some('x'));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_order_preserved_even_if_ready_out_of_order() {
        let mut q = TimedFifo::new(4);
        q.push(Cycle::from_raw(100), 'a').unwrap();
        q.push(Cycle::from_raw(1), 'b').unwrap();
        // 'b' is ready but 'a' is at the head: FIFO blocks.
        assert_eq!(q.pop_ready(Cycle::from_raw(50)), None);
        assert_eq!(q.pop_ready(Cycle::from_raw(100)), Some('a'));
        assert_eq!(q.pop_ready(Cycle::from_raw(100)), Some('b'));
    }

    #[test]
    fn last_ready_reports_tail() {
        let mut q = TimedFifo::new(4);
        assert_eq!(q.last_ready(), None);
        q.push(Cycle::from_raw(3), ()).unwrap();
        q.push(Cycle::from_raw(8), ()).unwrap();
        assert_eq!(q.last_ready(), Some(Cycle::from_raw(8)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TimedFifo::<u8>::new(0);
    }
}
