//! Run-loop probes: observers compiled into the one run loop.
//!
//! [`System::run_with`] drives the machine through a single
//! schedule → drain → step loop and calls a [`Probe`] at fixed points
//! of every step. Probes observe only: a hook gets at most a shared
//! `&System`, so no timestamp can flow from a probe back into the
//! simulation, and a probed run yields the same [`crate::RunReport`]
//! and persistent image as a plain one (a differential test checks
//! every probe on every design and benchmark). Every hook defaults to
//! doing nothing and the loop is generic over the probe, so the unit
//! probe `()` compiles to the bare loop; a pair `(A, B)` runs both.

use pmemspec_engine::clock::Cycle;
use pmemspec_isa::{Op, OpRole};

use super::{Machinery, System};
use crate::profile::{Bucket, ProfileReport, Profiler};
use crate::span::{phase_of, SpanReport, SpanTracer};
use crate::trace::TraceRecorder;

/// An observer of the run loop (see the module docs).
pub trait Probe {
    /// What the probe hands back when the run ends.
    type Output;

    /// Called once, before the first step.
    fn start(&mut self, _sys: &System) {}

    /// Core `idx`'s clock advances to `until`, waiting on `bucket`.
    /// Called at every time-advance point, in binding order: a charge
    /// that does not move past the previous one covers nothing.
    fn charge(&mut self, _idx: usize, _bucket: Bucket, _until: Cycle) {}

    /// The scheduler picked a core at `now` and applied every PM
    /// controller event due by then; the core has not acted yet.
    fn drained(&mut self, _sys: &System, _now: Cycle) {}

    /// A persist reached the PM controller (the ADR domain) at `at`:
    /// the crash-visible image changed.
    fn persisted(&mut self, _at: Cycle) {}

    /// A dirty-eviction notice reached the PM controller at `at`.
    fn written_back(&mut self, _at: Cycle) {}

    /// Core `idx` executed the instruction at `pc`, starting at
    /// `start`; the core's clock now reads its completion.
    fn stepped(&mut self, _sys: &System, _idx: usize, _pc: usize, _start: Cycle) {}

    /// Eager recovery aborted core `idx`'s FASE at `at` instead of
    /// stepping it.
    fn aborted(&mut self, _idx: usize, _at: Cycle) {}

    /// Closes the books on the finished machine.
    fn finish(self, sys: &System) -> Self::Output;
}

/// No probe: the dense loop.
impl Probe for () {
    type Output = ();

    fn finish(self, _sys: &System) {}
}

/// Two probes side by side; nest pairs for more.
impl<A: Probe, B: Probe> Probe for (A, B) {
    type Output = (A::Output, B::Output);

    fn start(&mut self, sys: &System) {
        self.0.start(sys);
        self.1.start(sys);
    }

    fn charge(&mut self, idx: usize, bucket: Bucket, until: Cycle) {
        self.0.charge(idx, bucket, until);
        self.1.charge(idx, bucket, until);
    }

    fn drained(&mut self, sys: &System, now: Cycle) {
        self.0.drained(sys, now);
        self.1.drained(sys, now);
    }

    fn persisted(&mut self, at: Cycle) {
        self.0.persisted(at);
        self.1.persisted(at);
    }

    fn written_back(&mut self, at: Cycle) {
        self.0.written_back(at);
        self.1.written_back(at);
    }

    fn stepped(&mut self, sys: &System, idx: usize, pc: usize, start: Cycle) {
        self.0.stepped(sys, idx, pc, start);
        self.1.stepped(sys, idx, pc, start);
    }

    fn aborted(&mut self, idx: usize, at: Cycle) {
        self.0.aborted(idx, at);
        self.1.aborted(idx, at);
    }

    fn finish(self, sys: &System) -> Self::Output {
        (self.0.finish(sys), self.1.finish(sys))
    }
}

/// The instruction at `pc` of core `idx`'s thread, if any.
fn op_at(sys: &System, idx: usize, pc: usize) -> Option<&Op> {
    sys.program.thread(idx).ops().get(pc)
}

/// Cycle accounting plus occupancy sampling; yields the
/// [`ProfileReport`].
impl Probe for Profiler {
    type Output = ProfileReport;

    fn start(&mut self, sys: &System) {
        *self = Profiler::new(sys.cores.len(), occupancy_series(sys));
    }

    fn charge(&mut self, idx: usize, bucket: Bucket, until: Cycle) {
        self.to(idx, bucket, until);
    }

    fn drained(&mut self, sys: &System, now: Cycle) {
        // Fixed cadence, with catch-up over large time jumps.
        while let Some(at) = self.next_sample_due(now) {
            self.record_samples(at, &occupancy_snapshot(sys, at));
        }
    }

    fn finish(self, sys: &System) -> ProfileReport {
        let final_times: Vec<Cycle> = sys.cores.iter().map(|c| c.time).collect();
        self.into_report(
            sys.program.design(),
            &final_times,
            sys.total_time(),
            sys.hierarchy.llc_dirty_pm_lines(),
        )
    }
}

/// The occupancy series a profiled machine samples, in
/// [`occupancy_snapshot`] order.
fn occupancy_series(sys: &System) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..sys.cores.len() {
        names.push(format!("core{i}.sq"));
        names.push(format!("core{i}.mshr"));
        match sys.machinery {
            Machinery::IntelX86 => {}
            Machinery::Dpo { .. } | Machinery::Hops { .. } => names.push(format!("core{i}.pb")),
            Machinery::PmemSpec { .. } => names.push(format!("core{i}.path")),
            Machinery::StrandWeaver { .. } => names.push(format!("core{i}.strand")),
        }
    }
    for j in 0..sys.pmcs.len() {
        names.push(format!("pmc{j}.rq"));
        names.push(format!("pmc{j}.wq"));
        if matches!(sys.machinery, Machinery::PmemSpec { .. }) {
            names.push(format!("pmc{j}.spec"));
        }
    }
    names
}

/// Queue depths at `at`, in [`occupancy_series`] order.
fn occupancy_snapshot(sys: &System, at: Cycle) -> Vec<u64> {
    let mut values = Vec::new();
    for (i, core) in sys.cores.iter().enumerate() {
        values.push(core.sq.iter().filter(|e| e.ready > at).count() as u64);
        values.push(core.loads.iter().filter(|e| e.ready > at).count() as u64);
        match &sys.machinery {
            Machinery::IntelX86 => {}
            Machinery::Dpo { buffers, .. } | Machinery::Hops { buffers, .. } => {
                values.push(buffers[i].occupancy_at(at) as u64);
            }
            Machinery::PmemSpec { paths, .. } => {
                values.push(paths[i].iter().map(|p| p.in_flight_at(at) as u64).sum());
            }
            Machinery::StrandWeaver { buffers } => {
                values.push(buffers[i].occupancy_at(at) as u64);
            }
        }
    }
    for (j, pmc) in sys.pmcs.iter().enumerate() {
        values.push(pmc.read_queue_depth(at) as u64);
        values.push(pmc.write_queue_depth(at) as u64);
        if let Machinery::PmemSpec { spec, .. } = &sys.machinery {
            values.push(spec[j].occupancy_at(at) as u64);
        }
    }
    values
}

/// Per-FASE spans over the tracer's own profiler; yields the aggregate
/// profile and the spans.
impl Probe for SpanTracer {
    type Output = (ProfileReport, SpanReport);

    fn start(&mut self, sys: &System) {
        self.check_program(&sys.program);
        self.profile.start(sys);
    }

    fn charge(&mut self, idx: usize, bucket: Bucket, until: Cycle) {
        self.profile.charge(idx, bucket, until);
    }

    fn drained(&mut self, sys: &System, now: Cycle) {
        self.profile.drained(sys, now);
    }

    /// Opens a span at `FaseBegin` (or records a post-abort retry),
    /// closes it at a committing `FaseEnd`, and records a phase
    /// transition for everything in between.
    fn stepped(&mut self, sys: &System, idx: usize, pc: usize, start: Cycle) {
        let Some(role) = self.role(idx, pc) else {
            return;
        };
        match role {
            OpRole::FaseBegin => {
                if let Some(&Op::FaseBegin { fase }) = op_at(sys, idx, pc) {
                    let snapshot = self.profile.core_buckets(idx);
                    self.on_begin(idx, fase, start, snapshot);
                }
            }
            // The commit point found the misspeculation flag set and
            // left the core inside its FASE: a lazy abort, not a commit.
            OpRole::FaseEnd if sys.cores[idx].in_fase => self.on_abort(idx, start),
            OpRole::FaseEnd => {
                let snapshot = self.profile.core_buckets(idx);
                self.on_commit(idx, sys.cores[idx].time, snapshot);
            }
            _ => self.on_phase(idx, phase_of(role), start),
        }
    }

    fn aborted(&mut self, idx: usize, at: Cycle) {
        self.on_abort(idx, at);
    }

    fn finish(self, sys: &System) -> Self::Output {
        let (profile, spans) = self.into_parts();
        let design = sys.program.design();
        (profile.finish(sys), SpanReport::new(design, spans))
    }
}

/// One span per executed instruction, named by its mnemonic, plus an
/// instant per dirty-eviction notice on the controller lane.
impl Probe for TraceRecorder {
    type Output = TraceRecorder;

    fn written_back(&mut self, at: Cycle) {
        self.instant("WB", at);
    }

    fn stepped(&mut self, sys: &System, idx: usize, pc: usize, start: Cycle) {
        if let Some(op) = op_at(sys, idx, pc) {
            // The mnemonic is the first word of the op's display form.
            let mut name = op.to_string();
            name.truncate(name.find(' ').unwrap_or(name.len()));
            let end = sys.cores[idx].time.max(start);
            self.span(idx, name, start, end);
        }
    }

    fn finish(self, _sys: &System) -> Self {
        self
    }
}

/// Every *crash-interesting* cycle: the start of each
/// fence/CLWB/checkpoint/FASE marker (see [`Op::is_crash_boundary`])
/// and the arrival of every persist at the PM controller. Yields them
/// sorted and deduplicated (the probe behind
/// [`System::run_boundaries`]).
#[derive(Debug, Clone, Default)]
pub struct BoundaryLog(Vec<Cycle>);

impl Probe for BoundaryLog {
    type Output = Vec<Cycle>;

    fn persisted(&mut self, at: Cycle) {
        self.0.push(at);
    }

    fn stepped(&mut self, sys: &System, idx: usize, pc: usize, start: Cycle) {
        if op_at(sys, idx, pc).is_some_and(Op::is_crash_boundary) {
            self.0.push(start);
        }
    }

    fn finish(mut self, _sys: &System) -> Vec<Cycle> {
        self.0.sort_unstable();
        self.0.dedup();
        self.0
    }
}

/// Per thread, the FASEs begun and the FASEs whose end barrier
/// committed (the counts behind [`System::run_until`]); yields
/// `(durable, started)`.
#[derive(Debug, Default)]
pub(super) struct FaseCounts {
    durable: Vec<u64>,
    started: Vec<u64>,
}

impl Probe for FaseCounts {
    type Output = (Vec<u64>, Vec<u64>);

    fn start(&mut self, sys: &System) {
        self.durable = vec![0; sys.cores.len()];
        self.started = vec![0; sys.cores.len()];
    }

    fn stepped(&mut self, sys: &System, idx: usize, pc: usize, _start: Cycle) {
        match op_at(sys, idx, pc) {
            Some(Op::FaseBegin { .. }) => self.started[idx] += 1,
            // A `FaseEnd` that aborted left the core inside its FASE.
            Some(Op::FaseEnd { .. }) if !sys.cores[idx].in_fase => self.durable[idx] += 1,
            _ => {}
        }
    }

    fn finish(self, _sys: &System) -> Self::Output {
        (self.durable, self.started)
    }
}
