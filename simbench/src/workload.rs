//! The three workloads and the calls a point makes into the simulator.
//!
//! Every call into a layer is timed from outside, with `Instant`s taken
//! around the layer's public entry point, and returned as a [`Call`].
//! The untraced and the traced passes run the same code; the traced
//! pass only keeps the calls as spans ([`crate::trace`]).

use std::sync::Arc;
use std::time::Instant;

use pmem_spec::{RunReport, System};
use pmemspec_analyze::{analyze_program, LintStats};
use pmemspec_crashtest::{check_litmus_exhaustive, litmus_suite, run_fuzz_job, FuzzJob};
use pmemspec_engine::SimConfig;
use pmemspec_isa::abs::AbsOp;
use pmemspec_isa::{log_mix, lower_program, lower_program_with_meta, DesignKind};
use pmemspec_isa::{Program, ProgramMeta};
use pmemspec_workloads::{Benchmark, WorkloadParams};

/// What a workload's points do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A full dense-loop run (`System::run`) per point.
    Sim,
    /// The checking tools per point: `analyze_program`, `run_spans` and
    /// a 2-thread `run_fuzz_job`; plus every exhaustive litmus pair.
    Verify,
}

/// One named workload: a grid of (design × benchmark) points.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Simulated cores (threads per program).
    pub cores: usize,
    /// FASEs per thread, per benchmark.
    pub fases: fn(Benchmark) -> usize,
    /// What each point runs.
    pub kind: Kind,
    /// The paper's PMEM-Spec over IntelX86 geomean for this core count,
    /// and the figure it is read from.
    pub paper: (f64, &'static str),
}

/// The Figure-9 main grid at the experiment FASE counts.
pub const GRID8: Workload = Workload {
    name: "grid8",
    cores: 8,
    fases: |b| if b == Benchmark::Memcached { 120 } else { 400 },
    kind: Kind::Sim,
    paper: (1.272, "Fig. 9, 8 cores"),
};

/// The same points at 32 cores, shorter: stands in for `fig10`, where
/// PMEM-Spec's persist backlog keeps the event wheel's overflow list deep.
pub const MANYCORE32: Workload = Workload {
    name: "manycore32",
    cores: 32,
    fases: |b| if b == Benchmark::Memcached { 30 } else { 100 },
    kind: Kind::Sim,
    paper: (1.182, "Fig. 10, 32 cores"),
};

/// The checking tools on the 8-core points, at the `waterfall` sizes.
pub const VERIFY8: Workload = Workload {
    name: "verify8",
    cores: 8,
    fases: |b| if b == Benchmark::Memcached { 60 } else { 200 },
    kind: Kind::Verify,
    paper: (1.272, "Fig. 9, 8 cores"),
};

/// Every workload, in reporting order.
pub const ALL: [Workload; 3] = [GRID8, MANYCORE32, VERIFY8];

/// Looks a workload up by its command-line name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// Threads of each fuzz job (the `crashfuzz` grid's size).
const FUZZ_THREADS: usize = 2;
/// Sampled crash points per fuzz job (the completion point is extra).
const FUZZ_CRASH_POINTS: usize = 12;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Layer span name, e.g. `core.run`.
    pub name: &'static str,
    /// Index of the point the call served, if any.
    pub point: Option<usize>,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Call {
    /// Host nanoseconds the call took.
    pub fn ns(&self) -> f64 {
        (self.end - self.start).as_nanos() as f64
    }

    /// Whether the call is set-up (excluded from pass times).
    pub fn is_setup(&self) -> bool {
        self.name == "core.build"
    }
}

/// Times `f` as a call named `name`.
fn timed<T>(
    calls: &mut Vec<Call>,
    name: &'static str,
    point: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    calls.push(Call {
        name,
        point,
        start,
        end: Instant::now(),
    });
    out
}

/// One generated and lowered grid point.
#[derive(Debug, Clone)]
pub struct Point {
    /// The design the program was lowered for.
    pub design: DesignKind,
    /// The workload it was generated from.
    pub benchmark: Benchmark,
    /// FASE begin markers in the generated program: the FASEs a full
    /// run must commit.
    pub fase_count: u64,
    /// The lowered program.
    pub program: Arc<Program>,
    /// Lowering metadata (verify points only).
    pub meta: Option<Arc<ProgramMeta>>,
}

impl Point {
    /// `design/benchmark`, the point's name in references and reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.design.label(), self.benchmark.label())
    }
}

/// A workload made ready to run for one seed.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Workload generation seed.
    pub seed: u64,
    /// The simulator configuration of every point.
    pub cfg: SimConfig,
    /// The points, benchmark-major in `Benchmark::ALL` order, designs
    /// in `DesignKind::ALL_EXTENDED` order.
    pub points: Vec<Point>,
    /// The set-up calls: generate, lower and `System::new` per point.
    pub calls: Vec<Call>,
}

/// Generates, lowers and builds (then drops) a `System` for every point.
/// With `kind` the points are lowered for that point kind instead of the
/// workload's own (the traced run's coverage calls).
pub fn prepare(workload: Workload, seed: u64, kind: Kind, benchmarks: &[Benchmark]) -> Prepared {
    let cfg = SimConfig::asplos21(workload.cores);
    let mut calls = Vec::new();
    let mut points = Vec::new();
    for &benchmark in benchmarks {
        let fases = (workload.fases)(benchmark);
        let params = WorkloadParams::small(workload.cores)
            .with_fases(fases)
            .with_seed(seed);
        let abs = timed(&mut calls, "workloads.generate", None, || {
            benchmark.generate(&params).program
        });
        let fase_count = abs
            .threads()
            .flatten()
            .filter(|op| matches!(op, AbsOp::FaseBegin { .. }))
            .count() as u64;
        for design in DesignKind::ALL_EXTENDED {
            let i = points.len();
            let (program, meta) = timed(&mut calls, "isa.lower", Some(i), || match kind {
                Kind::Sim => (lower_program(design, &abs), None),
                Kind::Verify => {
                    let (program, meta) = lower_program_with_meta(design, &abs);
                    (program, Some(Arc::new(meta)))
                }
            });
            let program = Arc::new(program);
            timed(&mut calls, "core.build", Some(i), || {
                System::new(cfg.clone(), Arc::clone(&program)).expect("grid point builds")
            });
            points.push(Point {
                design,
                benchmark,
                fase_count,
                program,
                meta,
            });
        }
    }
    Prepared {
        workload,
        seed,
        cfg,
        points,
        calls,
    }
}

/// What a fuzz job saw, reduced to its deterministic counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzCounts {
    /// Distinct crash cycles executed (completion point included).
    pub crash_points: u64,
    /// Generations rolled back across all crash points.
    pub rolled_back: u64,
}

/// The outcome of one point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The timed calls, in order (`core.build` is set-up).
    pub calls: Vec<Call>,
    /// The simulator's report of the point's full run.
    pub report: RunReport,
    /// FNV-1a digest of every deterministic output of the point.
    pub digest: u64,
    /// Failed checks that need no reference, one line each.
    pub problems: Vec<String>,
    /// Analyzer coverage (verify points).
    pub lint: Option<LintStats>,
    /// Fuzz job counts (verify points).
    pub fuzz: Option<FuzzCounts>,
}

impl PointRun {
    /// Host nanoseconds of the point's timed calls.
    pub fn ns(&self) -> f64 {
        self.calls
            .iter()
            .filter(|c| !c.is_setup())
            .map(Call::ns)
            .sum()
    }
}

/// Runs one point as its workload's kind prescribes.
pub fn run_point(prep: &Prepared, i: usize, kind: Kind) -> PointRun {
    let p = &prep.points[i];
    let mut calls = Vec::new();
    let build = |calls: &mut Vec<Call>| {
        timed(calls, "core.build", Some(i), || {
            System::new(prep.cfg.clone(), Arc::clone(&p.program)).expect("grid point builds")
        })
    };
    let mut problems = Vec::new();
    let (report, lint, fuzz) = match kind {
        Kind::Sim => {
            let sys = build(&mut calls);
            let report = timed(&mut calls, "core.run", Some(i), || sys.run());
            (report, None, None)
        }
        Kind::Verify => {
            let meta = p
                .meta
                .as_deref()
                .expect("verify points are lowered with metadata");
            let lint = timed(&mut calls, "analyze.lint", Some(i), || {
                analyze_program(&p.program, meta)
            });
            problems.extend(lint.findings.iter().map(|f| format!("analyzer: {f:?}")));
            let sys = build(&mut calls);
            let (report, _, _) = timed(&mut calls, "core.spans", Some(i), || sys.run_spans(meta));
            let job = FuzzJob {
                benchmark: p.benchmark,
                design: p.design,
                params: WorkloadParams::small(FUZZ_THREADS)
                    .with_fases(fuzz_fases(p.benchmark))
                    .with_seed(prep.seed),
                crash_points: FUZZ_CRASH_POINTS,
                fuzz_seed: log_mix(
                    prep.seed ^ ((p.benchmark as u64) << 8) ^ ((p.design as u64) << 16),
                ),
            };
            let fuzz = timed(&mut calls, "crashtest.fuzz", Some(i), || run_fuzz_job(&job));
            problems.extend(fuzz.violations.iter().map(|v| format!("fuzz: {v}")));
            let counts = FuzzCounts {
                crash_points: fuzz.points as u64,
                rolled_back: fuzz.rolled_back_total,
            };
            let extra = format!(
                "lint:{:?};fuzz:{},{},{},{},{},{}",
                lint.stats,
                fuzz.points,
                fuzz.boundaries,
                fuzz.total_cycles,
                fuzz.rolled_back_total,
                fuzz.torn_total,
                fuzz.max_durable
            );
            (report, Some((lint.stats, extra)), Some(counts))
        }
    };
    let (digest, lint) = timed(&mut calls, "check", Some(i), || {
        let mut text = report.to_json();
        if let Some((_, extra)) = &lint {
            text.push_str(extra);
        }
        (fnv1a(text.as_bytes()), lint.map(|(stats, _)| stats))
    });
    if report.fases_committed != p.fase_count {
        problems.push(format!(
            "{} FASEs committed, {} generated",
            report.fases_committed, p.fase_count
        ));
    }
    if report.pm_writes == 0 {
        problems.push("no PM writes".to_string());
    }
    PointRun {
        calls,
        report,
        digest,
        problems,
        lint,
        fuzz,
    }
}

/// FASEs per thread of a fuzz job (the `crashfuzz` grid's sizes).
fn fuzz_fases(benchmark: Benchmark) -> usize {
    if benchmark == Benchmark::Memcached {
        6
    } else {
        12
    }
}

/// The outcome of one exhaustive litmus pair.
#[derive(Debug, Clone)]
pub struct LitmusRun {
    /// The timed call.
    pub call: Call,
    /// `shape/design`.
    pub label: String,
    /// `ExhaustiveReport::is_ok()`.
    pub ok: bool,
}

/// Runs every (litmus shape × design) pair through the model checker.
pub fn run_litmus() -> Vec<LitmusRun> {
    let mut out = Vec::new();
    for test in litmus_suite() {
        for design in DesignKind::ALL_EXTENDED {
            let mut calls = Vec::new();
            let report = timed(&mut calls, "crashtest.litmus", None, || {
                check_litmus_exhaustive(&test, design)
            });
            out.push(LitmusRun {
                call: calls[0],
                label: format!("{}/{}", test.name, design.label()),
                ok: report.is_ok(),
            });
        }
    }
    out
}

/// 64-bit FNV-1a: a dependency-free, stable digest of report bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
