//! Cycle accounting: attribute every simulated cycle of every core to
//! exactly one cause, and sample queue occupancies over time.
//!
//! # The attribution model
//!
//! The simulator advances a core's clock at a handful of well-defined
//! points (instruction issue, queue admission, fence drains, lock
//! grants, abort recovery, global speculation pauses). The profiler
//! keeps a per-core *accounted-up-to* high-water mark; each advance
//! point calls [`Profiler::to`] with a [`Bucket`] and the new time, and
//! the interval since the mark is charged to that bucket. Because every
//! charge moves the mark forward, intervals can neither overlap nor be
//! double-counted, and the invariant
//!
//! ```text
//! sum(buckets) == total_time          (per core)
//! ```
//!
//! holds *by construction* once the finishing pass charges each core's
//! gap to the machine-wide end time as [`Bucket::Idle`]. Any cycle the
//! instrumentation missed lands in [`Bucket::Unattributed`], and any
//! charge past a core's final time is tallied in
//! [`ProfileReport::over_attributed`]; the test suite asserts both are
//! zero for every design and workload.
//!
//! When one advance has several candidate causes (a `dfence` waiting on
//! both in-flight loads and the persist-buffer drain), the wait is
//! charged *piecewise to the binding constraint*: first up to the load
//! join, then up to the drain — the bucket that ends the wait gets the
//! tail. See DESIGN.md for the full rule table.
//!
//! Profiling is opt-in (pass a [`Profiler`] to
//! [`crate::System::run_with`]) and **observes only**: it never
//! feeds a timestamp back into the simulation, so a profiled run
//! produces a byte-identical [`crate::RunReport`] (a differential test
//! enforces this).

use std::fmt;

use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_engine::stats::TimeSeries;
use pmemspec_isa::DesignKind;

use crate::trace::TraceRecorder;

/// Occupancy sampling cadence, in simulated cycles. Series are bounded
/// ([`TimeSeries`] decimates at capacity), so this only sets resolution
/// for short runs.
const SAMPLE_INTERVAL: Duration = Duration::from_cycles(4096);

/// Points kept per occupancy series.
const SERIES_POINTS: usize = 512;

/// Where a simulated core cycle went. Every cycle of every core is
/// charged to exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// One-cycle issue/retire slots and marker instructions (ofence,
    /// spec-assign, new-strand, absorbed CLWBs, ...).
    Issue,
    /// `Compute` instructions doing useful work.
    Compute,
    /// Waiting on a load served by the local L1.
    L1Hit,
    /// Waiting on a load served by a peer L1, the LLC, or DRAM.
    CacheMiss,
    /// Waiting on a load served by the PM device (including HOPS'
    /// bloom-filter lookup and conflict delays on that fetch).
    PmRead,
    /// Store or CLWB stalled on a full store queue.
    SqFull,
    /// Store stalled on a full persist/strand buffer (DPO, HOPS,
    /// StrandWeaver back-pressure).
    PersistBufferFull,
    /// Ordering stalls: store-queue drains charged to stores, persist
    /// drains at sfence/dfence/spec-barrier/join-strand/DPO barriers,
    /// and the pessimistic retry's per-store durability waits.
    FenceDrain,
    /// Store-queue drains charged to CLWB round trips (x86: the SFENCE
    /// tail spent waiting for flushes to reach the ADR domain).
    Flush,
    /// Global pause from speculation-buffer overflow (§5.3).
    SpecPause,
    /// Blocked acquiring a contended lock (or waiting out the previous
    /// holder's release visibility).
    LockWait,
    /// Misspeculation recovery: the OS trap, undo-log restoration
    /// writes, and post-abort quiesce (§6.2).
    MisspecRecovery,
    /// Checkpoint markers (§6.3).
    Checkpoint,
    /// Core finished before the machine-wide end time.
    Idle,
    /// Cycles the instrumentation failed to attribute (always zero; the
    /// invariant tests enforce it).
    Unattributed,
}

impl Bucket {
    /// Every bucket, in reporting order.
    pub const ALL: [Bucket; 15] = [
        Bucket::Issue,
        Bucket::Compute,
        Bucket::L1Hit,
        Bucket::CacheMiss,
        Bucket::PmRead,
        Bucket::SqFull,
        Bucket::PersistBufferFull,
        Bucket::FenceDrain,
        Bucket::Flush,
        Bucket::SpecPause,
        Bucket::LockWait,
        Bucket::MisspecRecovery,
        Bucket::Checkpoint,
        Bucket::Idle,
        Bucket::Unattributed,
    ];

    /// Number of buckets.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case identifier (JSON keys, table headers).
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Issue => "issue",
            Bucket::Compute => "compute",
            Bucket::L1Hit => "l1_hit",
            Bucket::CacheMiss => "cache_miss",
            Bucket::PmRead => "pm_read",
            Bucket::SqFull => "sq_full",
            Bucket::PersistBufferFull => "persist_buffer_full",
            Bucket::FenceDrain => "fence_drain",
            Bucket::Flush => "flush",
            Bucket::SpecPause => "spec_pause",
            Bucket::LockWait => "lock_wait",
            Bucket::MisspecRecovery => "misspec_recovery",
            Bucket::Checkpoint => "checkpoint",
            Bucket::Idle => "idle",
            Bucket::Unattributed => "unattributed",
        }
    }

    /// This bucket's position in [`Bucket::ALL`] — the index into the
    /// fixed-size count arrays ([`CoreBreakdown::buckets`],
    /// [`crate::FaseSpan::buckets`]).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&b| b == self)
            .expect("bucket in ALL")
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone)]
struct CoreAccount {
    /// Cycles charged so far, per bucket.
    buckets: [u64; Bucket::COUNT],
    /// Everything before this instant is charged; charges only advance
    /// it.
    accounted: Cycle,
}

/// The cycle-accounting probe: pass `Profiler::default()` to
/// [`crate::System::run_with`] for a [`ProfileReport`].
///
/// Holds the per-core bucket counters and the occupancy series, sized
/// for the machine when the run starts; the run loop charges every
/// time-advance point to it and feeds it occupancy snapshots, and the
/// run's end turns it into the report.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    cores: Vec<CoreAccount>,
    series: Vec<(String, TimeSeries)>,
    next_sample: Cycle,
}

impl Profiler {
    /// A profiler for `cores` cores sampling the named occupancy
    /// series (snapshots passed to [`Profiler::record_samples`] must
    /// use the same order).
    pub(crate) fn new(cores: usize, series_names: Vec<String>) -> Self {
        Profiler {
            cores: vec![
                CoreAccount {
                    buckets: [0; Bucket::COUNT],
                    accounted: Cycle::ZERO,
                };
                cores
            ],
            series: series_names
                .into_iter()
                .map(|n| (n, TimeSeries::new(SERIES_POINTS)))
                .collect(),
            next_sample: Cycle::ZERO,
        }
    }

    /// Charges core `idx`'s cycles from its accounted mark up to
    /// `until` to `bucket`, advancing the mark. A no-op when `until`
    /// is not past the mark — callers charge candidate causes in
    /// binding order and the ones that don't bind charge nothing.
    pub(crate) fn to(&mut self, idx: usize, bucket: Bucket, until: Cycle) {
        let core = &mut self.cores[idx];
        if until > core.accounted {
            core.buckets[bucket.index()] += (until - core.accounted).raw();
            core.accounted = until;
        }
    }

    /// A snapshot of core `idx`'s bucket counters. The span tracer
    /// diffs snapshots taken at FASE begin/commit: because the run
    /// loop keeps `accounted == core.time` at every step boundary, the diff is an exact, conservation-checked waterfall
    /// of the span's wall-cycles.
    pub(crate) fn core_buckets(&self, idx: usize) -> [u64; Bucket::COUNT] {
        self.cores[idx].buckets
    }

    /// The next due sample instant, if one is due by `now`.
    pub(crate) fn next_sample_due(&mut self, now: Cycle) -> Option<Cycle> {
        (self.next_sample <= now).then(|| {
            let at = self.next_sample;
            self.next_sample = at + SAMPLE_INTERVAL;
            at
        })
    }

    /// Records one snapshot (values in construction order) at `at`.
    pub(crate) fn record_samples(&mut self, at: Cycle, values: &[u64]) {
        debug_assert_eq!(values.len(), self.series.len());
        for ((_, series), &v) in self.series.iter_mut().zip(values) {
            series.record(at.raw(), v);
        }
    }

    /// Closes the books: charges each core's unaccounted tail to
    /// [`Bucket::Unattributed`], the gap between its final time and the
    /// machine-wide end to [`Bucket::Idle`], and tallies charges past
    /// the final time as over-attribution.
    pub(crate) fn into_report(
        self,
        design: DesignKind,
        final_times: &[Cycle],
        total_time: Cycle,
        llc_dirty_pm_lines: usize,
    ) -> ProfileReport {
        let mut over_attributed = 0u64;
        let cores = self
            .cores
            .into_iter()
            .zip(final_times)
            .map(|(mut acct, &end)| {
                if acct.accounted > end {
                    over_attributed += (acct.accounted - end).raw();
                } else {
                    acct.buckets[Bucket::Unattributed.index()] += (end - acct.accounted).raw();
                }
                if total_time > end {
                    acct.buckets[Bucket::Idle.index()] += (total_time - end).raw();
                }
                CoreBreakdown {
                    buckets: acct.buckets,
                }
            })
            .collect();
        ProfileReport {
            design,
            total_time,
            cores,
            over_attributed,
            llc_dirty_pm_lines,
            series: self.series,
        }
    }
}

/// One core's cycle breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreBreakdown {
    buckets: [u64; Bucket::COUNT],
}

impl CoreBreakdown {
    /// Cycles charged to `bucket` on this core.
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.buckets[bucket.index()]
    }

    /// Total cycles charged on this core (equals the run's total time
    /// when over-attribution is zero).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// The cycle-accounting report of one profiled run: per-core bucket
/// breakdowns plus bounded occupancy time series.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The design the run executed under.
    pub design: DesignKind,
    /// The run's end time (matches `RunReport::total_time`).
    pub total_time: Cycle,
    /// Per-core breakdowns; each sums to `total_time` in cycles.
    pub cores: Vec<CoreBreakdown>,
    /// Cycles charged past a core's final time — an instrumentation bug
    /// if nonzero (asserted zero in tests).
    pub over_attributed: u64,
    /// Dirty PM lines still cached at the end of the run (how much
    /// persistence work an `x86` machine would still owe).
    pub llc_dirty_pm_lines: usize,
    /// Named occupancy series: (name, bounded samples of `(cycle,
    /// depth)`).
    pub series: Vec<(String, TimeSeries)>,
}

impl ProfileReport {
    /// Cycles charged to `bucket`, summed over cores.
    pub fn bucket_total(&self, bucket: Bucket) -> u64 {
        self.cores.iter().map(|c| c.get(bucket)).sum()
    }

    /// Total charged cycles across cores (`cores × total_time` when
    /// over-attribution is zero).
    pub fn grand_total(&self) -> u64 {
        self.cores.iter().map(CoreBreakdown::total).sum()
    }

    /// Fraction of all core cycles charged to `bucket`, in `[0, 1]`.
    pub fn bucket_fraction(&self, bucket: Bucket) -> f64 {
        let total = self.grand_total();
        if total == 0 {
            0.0
        } else {
            self.bucket_total(bucket) as f64 / total as f64
        }
    }

    /// Appends the occupancy series to `tr` as Perfetto counter tracks,
    /// so the explain trace shows queue depths under the instruction
    /// timeline.
    pub fn add_counter_tracks(&self, tr: &mut TraceRecorder) {
        for (name, series) in &self.series {
            for &(at, v) in series.points() {
                tr.counter(name.clone(), Cycle::from_raw(at), v);
            }
        }
    }

    /// Renders the report as JSON (cycle counts per bucket per core,
    /// totals, and the occupancy series).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"design\": \"{}\",\n", self.design.label()));
        s.push_str(&format!(
            "  \"total_time_cycles\": {},\n",
            self.total_time.raw()
        ));
        s.push_str(&format!(
            "  \"over_attributed_cycles\": {},\n",
            self.over_attributed
        ));
        s.push_str(&format!(
            "  \"llc_dirty_pm_lines\": {},\n",
            self.llc_dirty_pm_lines
        ));
        s.push_str("  \"buckets\": {");
        for (i, b) in Bucket::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {}",
                b.label(),
                self.bucket_total(*b)
            ));
        }
        s.push_str("\n  },\n  \"cores\": [");
        for (ci, core) in self.cores.iter().enumerate() {
            if ci > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            for (i, b) in Bucket::ALL.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {}", b.label(), core.get(*b)));
            }
            s.push('}');
        }
        s.push_str("\n  ],\n  \"series\": [");
        for (i, (name, series)) in self.series.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {{\"name\": \"{name}\", \"points\": ["));
            for (j, (at, v)) in series.points().iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("[{at}, {v}]"));
            }
            s.push_str("]}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycle breakdown: {} ({} cores, {} cycles)",
            self.design.label(),
            self.cores.len(),
            self.total_time.raw()
        )?;
        for b in Bucket::ALL {
            let cycles = self.bucket_total(b);
            if cycles == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<20} {:>12}  {:>6.2}%",
                b.label(),
                cycles,
                100.0 * self.bucket_fraction(b)
            )?;
        }
        if self.over_attributed > 0 {
            writeln!(f, "  OVER-ATTRIBUTED     {:>12}", self.over_attributed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_advance_the_mark_without_overlap() {
        let mut p = Profiler::new(1, vec![]);
        p.to(0, Bucket::Compute, Cycle::from_raw(10));
        p.to(0, Bucket::FenceDrain, Cycle::from_raw(25));
        // Not past the mark: charges nothing.
        p.to(0, Bucket::L1Hit, Cycle::from_raw(20));
        let r = p.into_report(
            DesignKind::PmemSpec,
            &[Cycle::from_raw(25)],
            Cycle::from_raw(30),
            0,
        );
        assert_eq!(r.cores[0].get(Bucket::Compute), 10);
        assert_eq!(r.cores[0].get(Bucket::FenceDrain), 15);
        assert_eq!(r.cores[0].get(Bucket::L1Hit), 0);
        assert_eq!(r.cores[0].get(Bucket::Idle), 5);
        assert_eq!(r.cores[0].get(Bucket::Unattributed), 0);
        assert_eq!(r.over_attributed, 0);
        assert_eq!(r.cores[0].total(), 30);
    }

    #[test]
    fn residuals_and_overshoot_are_flagged() {
        let mut p = Profiler::new(2, vec![]);
        p.to(0, Bucket::Compute, Cycle::from_raw(4));
        p.to(1, Bucket::Compute, Cycle::from_raw(12));
        // Core 0 really ran to 10: 6 cycles were missed.
        // Core 1 really ran to 10: 2 cycles were over-charged.
        let r = p.into_report(
            DesignKind::Hops,
            &[Cycle::from_raw(10), Cycle::from_raw(10)],
            Cycle::from_raw(10),
            0,
        );
        assert_eq!(r.cores[0].get(Bucket::Unattributed), 6);
        assert_eq!(r.over_attributed, 2);
    }

    #[test]
    fn json_names_every_bucket() {
        let p = Profiler::new(1, vec!["core0.sq".into()]);
        let r = p.into_report(
            DesignKind::IntelX86,
            &[Cycle::from_raw(8)],
            Cycle::from_raw(8),
            3,
        );
        let json = r.to_json();
        for b in Bucket::ALL {
            assert!(json.contains(&format!("\"{}\"", b.label())), "{json}");
        }
        assert!(json.contains("\"llc_dirty_pm_lines\": 3"));
        assert!(json.contains("\"core0.sq\""));
    }

    #[test]
    fn counter_tracks_merge_into_a_trace() {
        let mut p = Profiler::new(1, vec!["pmc0.wq".into()]);
        p.record_samples(Cycle::from_raw(0), &[2]);
        let r = p.into_report(
            DesignKind::Dpo,
            &[Cycle::from_raw(1)],
            Cycle::from_raw(1),
            0,
        );
        let mut tr = TraceRecorder::new(1);
        r.add_counter_tracks(&mut tr);
        assert!(tr
            .to_chrome_trace()
            .contains(r#""name":"pmc0.wq","ph":"C""#));
    }

    #[test]
    fn display_skips_empty_buckets() {
        let mut p = Profiler::new(1, vec![]);
        p.to(0, Bucket::PmRead, Cycle::from_raw(100));
        let r = p.into_report(
            DesignKind::StrandWeaver,
            &[Cycle::from_raw(100)],
            Cycle::from_raw(100),
            0,
        );
        let text = r.to_string();
        assert!(text.contains("pm_read"));
        assert!(!text.contains("lock_wait"));
        assert!(text.contains("100.00%"));
    }
}
