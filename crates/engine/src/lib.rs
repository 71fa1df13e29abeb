//! Discrete-event simulation kernel for the PMEM-Spec reproduction.
//!
//! This crate provides the substrate-independent pieces of the simulator:
//!
//! * [`clock`] — the simulated time base (a 2 GHz cycle clock) and
//!   conversions between nanoseconds and cycles.
//! * [`rng`] — a small, deterministic xoshiro256** PRNG so that every
//!   simulation is exactly reproducible from a seed.
//! * [`stats`] — counters and histograms collected during simulation.
//! * [`config`] — the simulator configuration, whose defaults reproduce
//!   Table 3 of the ASPLOS 2021 paper.
//! * [`wheel`], [`arena`], [`hash`] — host-performance substrates for the
//!   simulator hot path: a calendar-queue event scheduler with
//!   `BinaryHeap`-identical pop order, an arena-backed fixed-capacity
//!   FIFO of [`queue::Timed`] entries, and a fast
//!   non-cryptographic hasher for simulator-internal maps.
//! * [`explore`] — explicit-state exploration of nondeterministic
//!   transition systems with replayable decision traces, used by the
//!   crashtest model checker to enumerate every persist-order
//!   interleaving of the litmus suite.
//!
//! The simulator built on top of this kernel is *event-driven at component
//! boundaries*: components exchange timestamped requests and responses, and
//! per-thread interpreters advance local time. There is no host-level
//! concurrency anywhere; simulated concurrency is interleaved
//! deterministically.
//!
//! # Examples
//!
//! ```
//! use pmemspec_engine::clock::{Cycle, Duration, CYCLES_PER_NS};
//!
//! let t = Cycle::ZERO + Duration::from_ns(20);
//! assert_eq!(t.raw(), 20 * CYCLES_PER_NS);
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod clock;
pub mod config;
pub mod explore;
pub mod hash;
pub mod pagemap;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod wheel;

pub use arena::ArenaFifo;
pub use clock::{Cycle, Duration};
pub use config::SimConfig;
pub use explore::{explore, DecisionTrace, ExploreStats, StateLimitExceeded};
pub use hash::{FxHashMap, FxHashSet};
pub use rng::SimRng;
pub use stats::Stats;
pub use wheel::EventWheel;
