//! Cycle-accounting invariants, across every design and workload:
//!
//! 1. **Conservation** — each core's bucket breakdown sums exactly to
//!    the run's total time, with nothing unattributed and nothing
//!    over-attributed. The profiler charges time interval-by-interval
//!    at every advance point; a gap or an overshoot anywhere in the
//!    instrumentation breaks this for some (design, workload) pair.
//! 2. **Non-perturbation** — profiling observes only. A profiled run's
//!    `RunReport` (JSON and Display) is byte-identical to the plain
//!    run's. `tests/probe_neutrality.rs` extends this to every probe.
//!
//! These are the hard acceptance criteria for the profiler; keep them
//! exhaustive over `DesignKind::ALL_EXTENDED x Benchmark::ALL`.

use pmem_spec_repro::core::profile::Bucket;
use pmem_spec_repro::core::spec_buffer::DetectionMode;
use pmem_spec_repro::core::{ProfileReport, Profiler, RecoveryPolicy, RunReport, System};
use pmem_spec_repro::prelude::*;
use pmem_spec_repro::workloads::synthetic;

fn system(b: Benchmark, d: DesignKind, fases: usize) -> System {
    let params = WorkloadParams::small(2).with_fases(fases).with_seed(11);
    let g = b.generate(&params);
    System::new(SimConfig::asplos21(2), lower_program(d, &g.program)).expect("valid system")
}

fn profiled(sys: System) -> (RunReport, ProfileReport) {
    let (report, _, profile) = sys.run_with(Profiler::default());
    (report, profile)
}

fn fases_for(b: Benchmark) -> usize {
    if b == Benchmark::Memcached {
        4
    } else {
        8
    }
}

#[test]
fn every_cycle_is_attributed_for_every_design_and_workload() {
    for b in Benchmark::ALL {
        for d in DesignKind::ALL_EXTENDED {
            let (report, profile) = profiled(system(b, d, fases_for(b)));
            assert_eq!(
                profile.over_attributed, 0,
                "{b}/{d}: charged past a core's final time"
            );
            let total = report.total_time.raw();
            for (i, core) in profile.cores.iter().enumerate() {
                assert_eq!(
                    core.get(Bucket::Unattributed),
                    0,
                    "{b}/{d} core {i}: unattributed cycles\n{profile}"
                );
                assert_eq!(
                    core.total(),
                    total,
                    "{b}/{d} core {i}: buckets must sum to total time\n{profile}"
                );
            }
            assert_eq!(profile.total_time, report.total_time, "{b}/{d}");
            assert_eq!(profile.cores.len(), 2, "{b}/{d}");
        }
    }
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    for b in [Benchmark::Hashmap, Benchmark::Queue, Benchmark::Tpcc] {
        for d in DesignKind::ALL_EXTENDED {
            let plain = system(b, d, fases_for(b)).run();
            let (profiled, _) = profiled(system(b, d, fases_for(b)));
            assert_eq!(
                plain.to_json(),
                profiled.to_json(),
                "{b}/{d}: profiling must not change any measurement"
            );
            assert_eq!(plain.to_string(), profiled.to_string(), "{b}/{d}");
        }
    }
}

#[test]
fn occupancy_series_are_bounded_and_deterministic() {
    let (_, a) = profiled(system(Benchmark::Hashmap, DesignKind::PmemSpec, 8));
    let (_, b) = profiled(system(Benchmark::Hashmap, DesignKind::PmemSpec, 8));
    assert!(!a.series.is_empty(), "PMEM-Spec samples path + spec queues");
    for ((name_a, s_a), (name_b, s_b)) in a.series.iter().zip(&b.series) {
        assert_eq!(name_a, name_b);
        assert_eq!(s_a.points(), s_b.points(), "{name_a}: must be repeatable");
        assert!(s_a.len() <= 512, "{name_a}: series must stay bounded");
    }
    let names: Vec<&str> = a.series.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"core0.path"));
    assert!(names.contains(&"pmc0.spec"));
    assert!(names.contains(&"core1.mshr"));
}

#[test]
fn recovery_cycles_are_attributed_and_conserved() {
    // The synthetic inducer at 25x path latency forces real
    // misspeculation: the abort path (trap + undo restoration +
    // quiesce) must be charged to recovery and the invariant must
    // survive it, under both recovery policies.
    for policy in [RecoveryPolicy::Lazy, RecoveryPolicy::Eager] {
        let cfg = SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500));
        let p = synthetic::load_misspec_inducer(&cfg, 20);
        let (report, profile) = profiled(
            System::with_options(
                cfg,
                lower_program(DesignKind::PmemSpec, &p),
                policy,
                DetectionMode::EvictionBased,
            )
            .unwrap(),
        );
        assert!(report.fases_aborted > 0, "{policy:?}: inducer must abort");
        assert!(
            profile.bucket_total(Bucket::MisspecRecovery) > 0,
            "{policy:?}: aborts must show up as recovery time\n{profile}"
        );
        assert_eq!(profile.over_attributed, 0, "{policy:?}");
        for core in &profile.cores {
            assert_eq!(core.get(Bucket::Unattributed), 0, "{policy:?}");
            assert_eq!(core.total(), report.total_time.raw(), "{policy:?}");
        }
    }
}

#[test]
fn design_signatures_show_up_in_the_breakdown() {
    // x86 pays flush/fence stalls PMEM-Spec was designed to remove.
    let (_, x86) = profiled(system(Benchmark::ArraySwaps, DesignKind::IntelX86, 8));
    let ordering = x86.bucket_total(Bucket::Flush) + x86.bucket_total(Bucket::FenceDrain);
    assert!(
        ordering > 0,
        "x86 must show flush/fence ordering stalls\n{x86}"
    );
    // PMEM-Spec's only ordering waits are its FASE-boundary barriers.
    let (_, spec) = profiled(system(Benchmark::ArraySwaps, DesignKind::PmemSpec, 8));
    assert_eq!(
        spec.bucket_total(Bucket::Flush),
        0,
        "no CLWBs under PMEM-Spec"
    );
    assert!(spec.grand_total() > 0);
}
