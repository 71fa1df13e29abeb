//! Differential test for the two misspeculation-recovery policies
//! (§6.2): **lazy** (abort at the end of the interrupted FASE) and
//! **eager** (abort at the next instruction boundary) must converge to
//! the *identical* persistent image on a workload that actually
//! misspeculates. The policies trade recovery latency for wasted work;
//! they must never trade correctness.
//!
//! The workload is the paper's hand-written load-misspeculation inducer
//! (update a block, evict it from L1 and LLC with a conflict storm,
//! reload it inside the persist window) run at 25x the default
//! persist-path latency — well past the ~10x threshold where the paper
//! first observes misspeculation — so both runs genuinely abort and
//! re-execute FASEs rather than trivially agreeing on a clean run.

use pmem_spec::spec_buffer::DetectionMode;
use pmem_spec::{CrashOutcome, RecoveryPolicy, RunReport, System};
use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program, DesignKind};
use pmemspec_workloads::synthetic::load_misspec_inducer;
use pmemspec_workloads::{Benchmark, WorkloadParams};

const ITERATIONS: usize = 20;

/// Evenly spaced crash points in the crash-prefix differential.
const CRASH_POINTS: u64 = 20;

fn config() -> SimConfig {
    // 25x the 20 ns default persist path: deep inside the misspeculating
    // regime of the Figure in §8.4.
    SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500))
}

/// Runs the inducer under `policy` twice (the simulator is
/// deterministic): once to completion for the report, once via the crash
/// interface at `Cycle::MAX` for the final persistent image.
fn run_policy(policy: RecoveryPolicy) -> (RunReport, CrashOutcome) {
    let cfg = config();
    let program = lower_program(
        DesignKind::PmemSpec,
        &load_misspec_inducer(&cfg, ITERATIONS),
    );
    let report = System::with_options(
        cfg.clone(),
        program.clone(),
        policy,
        DetectionMode::EvictionBased,
    )
    .expect("valid system")
    .run();
    let outcome = System::with_options(cfg, program, policy, DetectionMode::EvictionBased)
        .expect("valid system")
        .run_until(Cycle::MAX);
    (report, outcome)
}

#[test]
fn eager_and_lazy_recovery_converge_to_identical_persistent_image() {
    let (lazy_report, lazy) = run_policy(RecoveryPolicy::Lazy);
    let (eager_report, eager) = run_policy(RecoveryPolicy::Eager);

    // The test is vacuous unless misspeculation actually fired and FASEs
    // actually re-executed under both policies.
    for (name, r) in [("lazy", &lazy_report), ("eager", &eager_report)] {
        assert!(
            r.load_misspec_detected > 0,
            "{name}: inducer failed to misspeculate at 25x persist path"
        );
        assert!(r.fases_aborted > 0, "{name}: no FASE was ever aborted");
        assert_eq!(
            r.fases_committed, ITERATIONS as u64,
            "{name}: every FASE must eventually commit"
        );
    }

    // The headline property: byte-identical persistent state.
    assert_eq!(
        lazy.persistent, eager.persistent,
        "recovery policy changed the final persistent image"
    );
    assert_eq!(
        lazy.durable_fases, eager.durable_fases,
        "recovery policy changed the durable FASE counts"
    );
}

#[test]
fn eager_recovery_wastes_less_work_than_lazy() {
    // Eager aborts at the next instruction boundary instead of running
    // the doomed FASE to its end, so it can never *re-execute more* total
    // instructions than lazy on the same deterministic program. The
    // secondary claim of §6.2.2 — checked here as a weak inequality on
    // aborted-FASE counts (each abort costs eager a shorter replay).
    let (lazy_report, _) = run_policy(RecoveryPolicy::Lazy);
    let (eager_report, _) = run_policy(RecoveryPolicy::Eager);
    assert!(
        eager_report.total_time <= lazy_report.total_time,
        "eager recovery ({}) should not run longer than lazy ({})",
        eager_report.total_time,
        lazy_report.total_time
    );
}

#[test]
fn crash_prefix_runs_recover_eagerly_under_the_eager_policy() {
    // Fetch-based detection at 100x the default persist path: ArraySwaps
    // misspeculates often, and eager recovery aborts far more FASEs than
    // lazy. A crash-prefix run must step the same machine as the full
    // run, so some crash points see a different persisted state or FASE
    // count under the two policies.
    let cfg = SimConfig::asplos21(2).with_persist_path_latency(Duration::from_ns(2_000));
    let params = WorkloadParams::small(2).with_fases(20);
    let program = lower_program(
        DesignKind::PmemSpec,
        &Benchmark::ArraySwaps.generate(&params).program,
    );
    let system = |policy| {
        System::with_options(
            cfg.clone(),
            program.clone(),
            policy,
            DetectionMode::FetchBased,
        )
        .expect("valid system")
    };
    let (lazy_report, lazy_image) = system(RecoveryPolicy::Lazy).run_full();
    let (eager_report, eager_image) = system(RecoveryPolicy::Eager).run_full();
    assert!(
        eager_report.fases_aborted > lazy_report.fases_aborted,
        "eager ({}) must abort more FASEs than lazy ({})",
        eager_report.fases_aborted,
        lazy_report.fases_aborted
    );

    // A crash after the end is the full run, under either policy.
    for (policy, report, image) in [
        (RecoveryPolicy::Lazy, &lazy_report, &lazy_image),
        (RecoveryPolicy::Eager, &eager_report, &eager_image),
    ] {
        let end = system(policy).run_until(Cycle::MAX);
        assert_eq!(end.persistent, image.persistent_snapshot(), "{policy:?}");
        assert_eq!(
            end.durable_fases.iter().sum::<u64>(),
            report.fases_committed,
            "{policy:?}"
        );
    }

    let total = lazy_report.total_time.max(eager_report.total_time).raw();
    let differing = (1..=CRASH_POINTS)
        .map(|i| Cycle::from_raw(total * i / CRASH_POINTS))
        .filter(|&at| {
            let lazy = system(RecoveryPolicy::Lazy).run_until(at);
            let eager = system(RecoveryPolicy::Eager).run_until(at);
            lazy.persistent != eager.persistent
                || lazy.durable_fases != eager.durable_fases
                || lazy.started_fases != eager.started_fases
        })
        .count();
    assert!(
        differing > 0,
        "eager and lazy crash-prefix runs agree at all {CRASH_POINTS} crash points: \
         run_until is not recovering eagerly"
    );
}
