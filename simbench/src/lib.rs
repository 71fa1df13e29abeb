//! Host-speed benchmark of the PMEM-Spec simulator, with checked
//! results. See `README.md` in this package for the metrics, the
//! workloads and why each was chosen.
//!
//! A run prepares one workload for one seed (generate, lower, build),
//! then repeats serial passes over its points until the requested time
//! is spent. Each host time is the 90th percentile over the passes: a
//! pass's wall time, its host ns per op, each point's time. On a shared
//! host the contended state is the usual one and forms a plateau, the
//! slowest level passes reach; quiet windows, of seconds to minutes,
//! make passes up to 40% faster. The 90th percentile reads the plateau
//! unless quiet windows cover nine tenths of a run; lower quantiles
//! follow the share of a run that was quiet, which changes from run to
//! run, and a minimum flips whenever a run meets a quiet window. Every
//! pass checks every point's
//! outputs; a failed check or a caught panic counts against
//! `error_rate`, and the pass continues.

#![forbid(unsafe_code)]

pub mod check;
pub mod trace;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pmem_spec::RunReport;
use pmemspec_bench::sweep;
use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

use check::References;
use trace::Tracer;
use workload::{
    prepare, run_litmus, run_point, Call, Kind, LitmusRun, PointRun, Prepared, Workload,
};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// One pass over a prepared workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per point: its run, or `None` when it panicked.
    pub points: Vec<Option<PointRun>>,
    /// The exhaustive litmus pairs (verify passes only).
    pub litmus: Vec<LitmusRun>,
    /// Checks attempted.
    pub attempted: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
}

impl Pass {
    /// Every timed call of the pass, in order.
    pub fn calls(&self) -> impl Iterator<Item = &Call> {
        self.points
            .iter()
            .flatten()
            .flat_map(|p| &p.calls)
            .chain(self.litmus.iter().map(|l| &l.call))
    }

    /// Host seconds of every run and check call; set-up excluded.
    pub fn wall_s(&self) -> f64 {
        self.calls()
            .filter(|c| !c.is_setup())
            .map(Call::ns)
            .sum::<f64>()
            * 1e-9
    }

    /// Summed host ns of the calls named `layer`, over the points
    /// `keep` selects (litmus calls count for every filter).
    pub fn layer_ns(&self, layer: &str, keep: impl Fn(usize) -> bool) -> f64 {
        let points = self
            .points
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .flat_map(|(_, p)| p.iter().flat_map(|p| &p.calls));
        points
            .chain(self.litmus.iter().map(|l| &l.call))
            .filter(|c| c.name == layer)
            .map(Call::ns)
            .sum()
    }

    /// The reports of the points that ran.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.points.iter().flatten().map(|p| &p.report)
    }
}

/// The call whose time counts as a full simulator run for `kind`.
pub fn full_run_layer(kind: Kind) -> &'static str {
    match kind {
        Kind::Sim => "core.run",
        Kind::Verify => "core.spans",
    }
}

fn check_point(
    prep: &Prepared,
    i: usize,
    run: std::thread::Result<PointRun>,
    expected: &mut Option<u64>,
    failures: &mut Vec<String>,
) -> Option<PointRun> {
    let label = format!("{} {}", prep.workload.name, prep.points[i].label());
    let Ok(run) = run else {
        failures.push(format!("{label}: panicked"));
        return None;
    };
    let mut bad: Vec<String> = run.problems.clone();
    match *expected {
        Some(want) if want != run.digest => {
            bad.push(format!("digest {:016x}, expected {want:016x}", run.digest));
        }
        Some(_) => {}
        None => *expected = Some(run.digest),
    }
    if !bad.is_empty() {
        failures.push(format!("{label}: {}", bad.join("; ")));
    }
    Some(run)
}

/// Runs every point of `prep` serially as `kind`, then (for verify
/// passes) every litmus pair, checking each. `expected` holds one digest
/// per point; a `None` entry is filled from this pass.
pub fn run_pass(prep: &Prepared, kind: Kind, expected: &mut [Option<u64>]) -> Pass {
    let mut failures = Vec::new();
    let points = (0..prep.points.len())
        .map(|i| {
            let run = catch_unwind(AssertUnwindSafe(|| run_point(prep, i, kind)));
            check_point(prep, i, run, &mut expected[i], &mut failures)
        })
        .collect::<Vec<_>>();
    let litmus = match kind {
        Kind::Sim => Vec::new(),
        Kind::Verify => match catch_unwind(run_litmus) {
            Ok(runs) => runs,
            Err(_) => {
                failures.push("litmus: panicked".to_string());
                Vec::new()
            }
        },
    };
    failures.extend(
        litmus
            .iter()
            .filter(|l| !l.ok)
            .map(|l| format!("litmus {}: not ok", l.label)),
    );
    let attempted = (points.len()
        + if kind == Kind::Verify {
            litmus_pairs()
        } else {
            0
        }) as u64;
    Pass {
        points,
        litmus,
        attempted,
        failures,
    }
}

/// Litmus (shape × design) pairs a verify pass checks.
pub fn litmus_pairs() -> usize {
    pmemspec_crashtest::litmus_suite().len() * DesignKind::ALL_EXTENDED.len()
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Geometric mean over benchmarks of PMEM-Spec's simulated throughput
/// divided by IntelX86's, from one pass's reports.
pub fn pmemspec_speedup(prep: &Prepared, pass: &Pass) -> f64 {
    let throughput = |b: Benchmark, d: DesignKind| {
        prep.points
            .iter()
            .zip(&pass.points)
            .find(|(p, _)| p.benchmark == b && p.design == d)
            .and_then(|(_, r)| r.as_ref())
            .map_or(f64::NAN, |r| r.report.throughput())
    };
    let benchmarks: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|&b| prep.points.iter().any(|p| p.benchmark == b))
        .collect();
    let log_sum: f64 = benchmarks
        .iter()
        .map(|&b| (throughput(b, DesignKind::PmemSpec) / throughput(b, DesignKind::IntelX86)).ln())
        .sum();
    (log_sum / benchmarks.len() as f64).exp()
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Host seconds of a set-up: every generate, lower and build call.
pub fn setup_s(prep: &Prepared) -> f64 {
    prep.calls.iter().map(Call::ns).sum::<f64>() * 1e-9
}

/// The quantile of a run's passes that stands for its host time.
pub const PASS_QUANTILE: f64 = 0.9;

/// Host times over a run's passes, each reduced to its 90th percentile
/// over the passes ([`PASS_QUANTILE`]): a pass's wall time, its full
/// simulator runs' host ns per op, and each point's time. Passes are
/// folded in one at a time, so a run holds no more than one pass's
/// reports however many passes it makes.
#[derive(Debug, Clone)]
pub struct Timings {
    /// The call that counts as a full simulator run.
    full: &'static str,
    /// Per point: its program's op count.
    ops: Vec<f64>,
    /// Per pass: its wall time, s.
    pub walls: Vec<f64>,
    /// Per pass: host ns per op of its full simulator runs.
    ns_per_op: Vec<f64>,
    /// Per point: its timed calls in each pass, ns.
    point_ns: Vec<Vec<f64>>,
}

impl Timings {
    /// No passes yet over `prep`'s points run as `kind`.
    pub fn new(prep: &Prepared, kind: Kind) -> Self {
        Timings {
            full: full_run_layer(kind),
            ops: prep.points.iter().map(|p| p.program.len() as f64).collect(),
            walls: Vec::new(),
            ns_per_op: Vec::new(),
            point_ns: vec![Vec::new(); prep.points.len()],
        }
    }

    /// Passes folded in.
    pub fn passes(&self) -> usize {
        self.walls.len()
    }

    /// Folds one pass in. A point that panicked adds no sample.
    pub fn add(&mut self, pass: &Pass) {
        self.walls.push(pass.wall_s());
        let ran = |i: usize| pass.points[i].is_some();
        let ops: f64 = (0..self.ops.len())
            .filter(|&i| ran(i))
            .map(|i| self.ops[i])
            .sum();
        self.ns_per_op.push(pass.layer_ns(self.full, ran) / ops);
        for (samples, run) in self.point_ns.iter_mut().zip(&pass.points) {
            samples.extend(run.as_ref().map(PointRun::ns));
        }
    }

    /// Per point: the 90th percentile of its timed calls, ns.
    pub fn point_ns(&self) -> Vec<f64> {
        self.point_ns
            .iter()
            .map(|s| {
                if s.is_empty() {
                    f64::NAN
                } else {
                    percentile(s, PASS_QUANTILE)
                }
            })
            .collect()
    }

    /// The 90th percentile of the passes' host ns per op.
    pub fn ns_per_op(&self) -> f64 {
        percentile(&self.ns_per_op, PASS_QUANTILE)
    }

    /// The 90th percentile of the passes' wall times, s.
    pub fn wall_s(&self) -> f64 {
        percentile(&self.walls, PASS_QUANTILE)
    }
}

/// What a benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Checks attempted.
    pub attempted: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failures.extend(pass.failures.iter().cloned());
    }

    /// Failed checks divided by attempted checks.
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// The untraced run: set-up, a discarded warm-up pass, then timed
/// serial passes until `seconds` have passed (three at least).
/// `setup_child` measures one set-up in a fresh process; it is called
/// `setup_children` times, spread evenly over the timed passes so the
/// samples meet the same host conditions as the passes. This process's
/// own set-up is one more sample.
///
/// # Errors
///
/// Returns the first error of `setup_child`.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    refs: &References,
    setup_children: usize,
    setup_child: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Outcome, String> {
    let prep = prepare(workload, seed, workload.kind, &Benchmark::ALL);
    let mut setup_samples = vec![setup_s(&prep)];
    let mut expected = refs.expected(&prep);
    let mut out = Outcome::default();
    let warm = run_pass(&prep, workload.kind, &mut expected);
    out.absorb(&warm);
    let started = Instant::now();
    let mut timings = Timings::new(&prep, workload.kind);
    while timings.passes() < 3 || started.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(&prep, workload.kind, &mut expected);
        out.absorb(&pass);
        timings.add(&pass);
        let due = started.elapsed().as_secs_f64() / seconds * setup_children as f64;
        while setup_samples.len() <= setup_children && (setup_samples.len() as f64) <= due {
            setup_samples.push(setup_child()?);
        }
    }
    while setup_samples.len() <= setup_children {
        setup_samples.push(setup_child()?);
    }
    let point_ms: Vec<f64> = timings.point_ns().iter().map(|ns| ns * 1e-6).collect();
    let speedup = pmemspec_speedup(&prep, &warm);

    out.metrics = vec![
        metric("wall_s", "s", timings.wall_s()),
        metric("setup_s", "s", percentile(&setup_samples, 0.5)),
        metric("host_ns_per_op", "ns", timings.ns_per_op()),
        metric("point_ms_p50", "ms", percentile(&point_ms, 0.5)),
        metric("point_ms_p75", "ms", percentile(&point_ms, 0.75)),
        metric("peak_rss_mib", "MiB", peak_rss_mib()),
        metric("sim_pmemspec_speedup", "x", speedup),
    ];
    let (paper, figure) = workload.paper;
    out.notes = vec![
        format!(
            "{}: seed {seed}, {} cores, {} points, {} timed passes (one warm-up pass discarded), \
             {} set-up samples",
            workload.name,
            workload.cores,
            prep.points.len(),
            timings.passes(),
            setup_samples.len()
        ),
        format!(
            "pass wall_s: {}",
            timings.walls.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "point_ms percentiles: {} samples (each a point's 90th percentile over the passes); \
             p75 has {} samples beyond it",
            point_ms.len(),
            point_ms.len() - (0.75 * point_ms.len() as f64).ceil() as usize
        ),
        format!(
            "error_rate = {} ratio ({} of {} checks failed; {})",
            out.error_rate(),
            out.failures.len(),
            out.attempted,
            if refs.expected(&prep).iter().all(Option::is_some) {
                "digests checked against committed references"
            } else {
                "no committed references for this seed: digests checked for repeatability"
            }
        ),
        format!(
            "sim_pmemspec_speedup = {speedup:.3}x simulated; paper {paper:.3}x ({figure}, gem5); \
             gap to the paper's gem5 figure from one seed: {:+.1}% (not a validation against hardware)",
            (speedup / paper - 1.0) * 100.0
        ),
    ];
    Ok(out)
}

/// The traced run: set-up and alternating untraced and traced passes
/// until `seconds` have passed (two of each at least), then a 2-worker
/// pass on the sweep pool, then coverage calls: every layer the
/// workload's own points do not call is called on the first benchmark's
/// points (one per design), so each workload reports every layer.
/// Spans are written to `spans_path` at the end.
pub fn measure_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    refs: &References,
    spans_path: &std::path::Path,
) -> Outcome {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let prep = prepare(workload, seed, workload.kind, &Benchmark::ALL);
    let setup_id = tracer.span(
        "setup",
        prep.calls[0].start,
        prep.calls[prep.calls.len() - 1].end,
        None,
        None,
    );
    tracer.calls(&prep.calls, Some(setup_id));

    let mut expected = refs.expected(&prep);
    let mut out = Outcome::default();
    out.absorb(&run_pass(&prep, workload.kind, &mut expected));
    let started = Instant::now();
    let mut untraced = Timings::new(&prep, workload.kind);
    let mut traced = Timings::new(&prep, workload.kind);
    let mut traced_passes = Vec::new();
    while traced.passes() < 2 || started.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(&prep, workload.kind, &mut expected);
        out.absorb(&pass);
        untraced.add(&pass);
        let start = Instant::now();
        let pass = run_pass(&prep, workload.kind, &mut expected);
        let pass_id = tracer.span("pass", start, Instant::now(), None, None);
        let calls: Vec<Call> = pass.calls().copied().collect();
        tracer.calls(&calls, Some(pass_id));
        out.absorb(&pass);
        traced.add(&pass);
        traced_passes.push(pass);
    }
    // Per-layer host times come from the traced pass at the 90th
    // percentile of wall time, the pass `traced.wall_s()` reports.
    traced_passes.sort_by(|a, b| a.wall_s().total_cmp(&b.wall_s()));
    let rank = (PASS_QUANTILE * traced_passes.len() as f64).ceil() as usize;
    let typical = traced_passes.swap_remove(rank.clamp(1, traced_passes.len()) - 1);
    drop(traced_passes);

    // The 2-worker pass on the sweep pool.
    let workers = 2;
    let start = Instant::now();
    let runs = sweep::parallel_map(prep.points.len(), workers, |i| {
        catch_unwind(AssertUnwindSafe(|| run_point(&prep, i, workload.kind)))
    });
    let end = Instant::now();
    let makespan = (end - start).as_secs_f64();
    tracer.span("sweep.parallel_map", start, end, None, None);
    let mut pool = Pass {
        points: Vec::new(),
        litmus: Vec::new(),
        attempted: prep.points.len() as u64,
        failures: Vec::new(),
    };
    for (i, run) in runs.into_iter().enumerate() {
        let run = check_point(&prep, i, run, &mut expected[i], &mut pool.failures);
        pool.points.push(run);
    }
    out.absorb(&pool);
    let busy = pool.wall_s()
        + pool
            .calls()
            .filter(|c| c.is_setup())
            .map(Call::ns)
            .sum::<f64>()
            * 1e-9;

    // Coverage calls for the layers the workload's kind does not call.
    let other = match workload.kind {
        Kind::Sim => Kind::Verify,
        Kind::Verify => Kind::Sim,
    };
    let cov_prep = prepare(workload, seed, other, &Benchmark::ALL[..1]);
    let mut cov_expected = vec![None; cov_prep.points.len()];
    let start = Instant::now();
    let coverage = run_pass(&cov_prep, other, &mut cov_expected);
    let cov_id = tracer.span("coverage", start, Instant::now(), None, None);
    let calls: Vec<Call> = coverage.calls().copied().collect();
    tracer.calls(&calls, Some(cov_id));
    out.absorb(&coverage);

    let self_times = tracer.self_times();
    if let Some(dir) = spans_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(spans_path, tracer.to_json()) {
        out.failures
            .push(format!("cannot write {}: {e}", spans_path.display()));
    }

    let untraced_wall = untraced.wall_s();
    let traced_wall = traced.wall_s();
    out.metrics = layer_metrics(&prep, &typical, &cov_prep, &coverage);
    out.metrics.push(metric(
        "sweep.pool_efficiency",
        "ratio",
        busy / (workers as f64 * makespan),
    ));
    out.metrics.push(metric("sweep.makespan_s", "s", makespan));
    out.metrics
        .push(metric("trace.overhead_s", "s", traced_wall - untraced_wall));

    let ratio = out
        .metrics
        .iter()
        .find(|m| m.name == "core.run_ns_per_op.pmemspec_over_x86")
        .map_or(f64::NAN, |m| m.value);
    out.notes.push(format!(
        "{}: seed {seed}, {} untraced + {} traced passes, {} spans written to {}",
        workload.name,
        untraced.passes(),
        traced.passes(),
        tracer.spans().len(),
        spans_path.display()
    ));
    out.notes.push(format!(
        "tracing overhead: traced wall_s {traced_wall:.4} s - untraced wall_s {untraced_wall:.4} s = {:+.4} s",
        traced_wall - untraced_wall
    ));
    out.notes.push(format!(
        "sanity: PMEM-Spec core.run_ns_per_op / IntelX86 = {ratio:.2}x on {}{}",
        workload.name,
        if workload.kind == Kind::Verify {
            " (coverage calls: first benchmark only)"
        } else {
            ""
        }
    ));
    out.notes
        .push("self time by span name (all spans of the run):".to_string());
    for (name, t) in &self_times {
        out.notes.push(format!(
            "  {name:<20} {:>6} spans  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns * 1e-6,
            t.self_ns * 1e-6
        ));
    }
    out
}

/// Sums the named counter over `reports`.
fn counter(reports: &[&RunReport], key: &str) -> f64 {
    reports.iter().map(|r| r.stats.counter(key) as f64).sum()
}

/// The per-layer metrics: host times from one traced pass or,
/// for layers the workload does not call, from the coverage pass;
/// simulated counters summed over the traced pass's full-run reports.
fn layer_metrics(
    prep: &Prepared,
    traced: &Pass,
    cov_prep: &Prepared,
    coverage: &Pass,
) -> Vec<Metric> {
    // The (prepared workload, pass) pair that called a layer.
    let source = |layer: &str| {
        if traced.calls().any(|c| c.name == layer) {
            (prep, traced)
        } else {
            (cov_prep, coverage)
        }
    };
    let ms = |layer: &str| source(layer).1.layer_ns(layer, |_| true) * 1e-6;
    let ns_per_op = |layer: &str, design: Option<DesignKind>| {
        let (pp, pass) = source(layer);
        let keep = |i: usize| design.is_none_or(|d| pp.points[i].design == d);
        let ops: f64 = (0..pp.points.len())
            .filter(|&i| keep(i))
            .map(|i| pp.points[i].program.len() as f64)
            .sum();
        pass.layer_ns(layer, keep) / ops
    };
    let setup_ms = |layer: &str| {
        prep.calls
            .iter()
            .filter(|c| c.name == layer)
            .map(Call::ns)
            .sum::<f64>()
            * 1e-6
    };
    let lowered_ops: f64 = prep.points.iter().map(|p| p.program.len() as f64).sum();

    let mut m = vec![
        metric(
            "workloads.generate_ms",
            "ms",
            setup_ms("workloads.generate"),
        ),
        metric("isa.lower_ms", "ms", setup_ms("isa.lower")),
        metric("isa.lowered_ops", "count", lowered_ops),
        metric(
            "isa.lower_ns_per_op",
            "ns",
            setup_ms("isa.lower") * 1e6 / lowered_ops,
        ),
        metric("core.build_ms", "ms", setup_ms("core.build")),
        metric("core.run_ms", "ms", ms("core.run")),
    ];
    for d in DesignKind::ALL_EXTENDED {
        m.push(metric(
            format!("core.run_ns_per_op.{}", d.label()),
            "ns",
            ns_per_op("core.run", Some(d)),
        ));
    }
    m.push(metric(
        "core.run_ns_per_op.pmemspec_over_x86",
        "ratio",
        ns_per_op("core.run", Some(DesignKind::PmemSpec))
            / ns_per_op("core.run", Some(DesignKind::IntelX86)),
    ));
    m.push(metric("core.spans_ms", "ms", ms("core.spans")));
    m.push(metric(
        "core.spans_ns_per_op",
        "ns",
        ns_per_op("core.spans", None),
    ));

    // Analyzer and fuzz counts come from whichever pass called them.
    let lint: Vec<_> = source("analyze.lint")
        .1
        .points
        .iter()
        .flatten()
        .filter_map(|p| p.lint)
        .collect();
    let pm_stores: f64 = lint.iter().map(|s| s.pm_stores as f64).sum();
    let lint_ms = ms("analyze.lint");
    m.push(metric("analyze.lint_ms", "ms", lint_ms));
    m.push(metric("analyze.pm_stores", "count", pm_stores));
    m.push(metric(
        "analyze.order_points",
        "count",
        lint.iter().map(|s| s.order_points as f64).sum(),
    ));
    m.push(metric(
        "analyze.ns_per_pm_store",
        "ns",
        lint_ms * 1e6 / pm_stores,
    ));

    let fuzz: Vec<_> = source("crashtest.fuzz")
        .1
        .points
        .iter()
        .flatten()
        .filter_map(|p| p.fuzz)
        .collect();
    let crash_points: f64 = fuzz.iter().map(|f| f.crash_points as f64).sum();
    let fuzz_ms = ms("crashtest.fuzz");
    m.push(metric("crashtest.litmus_ms", "ms", ms("crashtest.litmus")));
    m.push(metric("crashtest.fuzz_ms", "ms", fuzz_ms));
    m.push(metric("crashtest.crash_points", "count", crash_points));
    m.push(metric(
        "crashtest.rolled_back",
        "count",
        fuzz.iter().map(|f| f.rolled_back as f64).sum(),
    ));
    m.push(metric(
        "crashtest.fuzz_ms_per_crash_point",
        "ms",
        fuzz_ms / crash_points,
    ));

    // Simulated counters of the workload's own full runs.
    let reports: Vec<&RunReport> = traced.reports().collect();
    let levels = ["mem.l1", "mem.llc", "mem.peer_l1", "mem.dram", "mem.pm"];
    for key in levels {
        m.push(metric(key, "count", counter(&reports, key)));
    }
    let accesses: f64 = levels.iter().map(|k| counter(&reports, k)).sum();
    m.push(metric(
        "mem.l1_hit_ratio",
        "ratio",
        counter(&reports, "mem.l1") / accesses,
    ));
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    m.push(metric("mem.pm_reads", "count", sum(|r| r.pm_reads)));
    m.push(metric("mem.pm_writes", "count", sum(|r| r.pm_writes)));
    for key in [
        "core.sq_full_stalls",
        "core.mshr_full_stalls",
        "lock.contended",
        "spec_buffer.allocations",
    ] {
        m.push(metric(key, "count", counter(&reports, key)));
    }
    m.push(metric(
        "spec_buffer.overflows",
        "count",
        sum(|r| r.spec_buffer_overflows),
    ));
    for key in ["persist_buffer.full_stalls", "strand_buffer.full_stalls"] {
        m.push(metric(key, "count", counter(&reports, key)));
    }
    let committed = sum(|r| r.fases_committed);
    m.push(metric(
        "core.fase_commit_ratio",
        "ratio",
        committed / (committed + sum(|r| r.fases_aborted)),
    ));
    m
}
