//! Timing neutrality of every run-loop probe: probes observe only.
//!
//! For every design × benchmark pair and every probe set the tools use
//! — none, the profiler, the Chrome trace, both, the span tracer (which
//! owns a profiler), spans plus trace, and the crash-boundary log — the
//! probed run's `RunReport` (JSON and Display) and final persistent
//! image must equal a plain `run_full`. A second sweep repeats the
//! check on a workload that genuinely misspeculates, under both
//! recovery policies, so the abort paths are covered too.

use std::collections::HashMap;

use pmem_spec_repro::core::spec_buffer::DetectionMode;
use pmem_spec_repro::core::{BoundaryLog, Probe, Profiler, SpanTracer, System, TraceRecorder};
use pmem_spec_repro::isa::{lower_program_with_meta, Addr, Program, ProgramMeta};
use pmem_spec_repro::prelude::*;
use pmem_spec_repro::workloads::synthetic;

/// The plain run every probed run must reproduce.
struct Plain {
    json: String,
    display: String,
    persistent: HashMap<Addr, u64>,
}

/// Builds a fresh machine for each run (a `System` runs once).
struct Machine {
    cfg: SimConfig,
    program: Program,
    meta: ProgramMeta,
    policy: RecoveryPolicy,
}

impl Machine {
    fn system(&self) -> System {
        System::with_options(
            self.cfg.clone(),
            self.program.clone(),
            self.policy,
            DetectionMode::EvictionBased,
        )
        .expect("valid system")
    }

    fn plain(&self) -> Plain {
        let (report, image) = self.system().run_full();
        Plain {
            json: report.to_json(),
            display: report.to_string(),
            persistent: image.persistent_snapshot(),
        }
    }

    fn check<P: Probe>(&self, plain: &Plain, what: &str, probe: P) {
        let (report, image, _) = self.system().run_with(probe);
        assert_eq!(plain.json, report.to_json(), "{what}: report JSON changed");
        assert_eq!(
            plain.display,
            report.to_string(),
            "{what}: report text changed"
        );
        assert!(
            plain.persistent == image.persistent_snapshot(),
            "{what}: persistent image changed"
        );
    }

    /// Every probe set the tools use against one plain run.
    fn check_every_probe(&self, label: &str) {
        let plain = self.plain();
        let cores = self.cfg.cores;
        let spans = || SpanTracer::new(&self.meta);
        self.check(&plain, &format!("{label} none"), ());
        self.check(&plain, &format!("{label} profiler"), Profiler::default());
        self.check(&plain, &format!("{label} trace"), TraceRecorder::new(cores));
        self.check(
            &plain,
            &format!("{label} profiler+trace"),
            (Profiler::default(), TraceRecorder::new(cores)),
        );
        self.check(&plain, &format!("{label} spans"), spans());
        self.check(
            &plain,
            &format!("{label} spans+trace"),
            (spans(), TraceRecorder::new(cores)),
        );
        self.check(
            &plain,
            &format!("{label} boundaries"),
            BoundaryLog::default(),
        );
    }
}

fn fases_for(b: Benchmark) -> usize {
    if b == Benchmark::Memcached {
        4
    } else {
        8
    }
}

#[test]
fn probes_do_not_perturb_the_simulation() {
    for b in Benchmark::ALL {
        for d in DesignKind::ALL_EXTENDED {
            let params = WorkloadParams::small(2)
                .with_fases(fases_for(b))
                .with_seed(11);
            let (program, meta) = lower_program_with_meta(d, &b.generate(&params).program);
            let machine = Machine {
                cfg: SimConfig::asplos21(2),
                program,
                meta,
                policy: RecoveryPolicy::Lazy,
            };
            machine.check_every_probe(&format!("{b}/{d}"));
        }
    }
}

#[test]
fn probes_do_not_perturb_misspeculation_recovery() {
    // The synthetic inducer at 25x path latency aborts real FASEs, so
    // the lazy and eager abort paths both run under every probe.
    for policy in [RecoveryPolicy::Lazy, RecoveryPolicy::Eager] {
        let cfg = SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500));
        let abs = synthetic::load_misspec_inducer(&cfg, 20);
        let (program, meta) = lower_program_with_meta(DesignKind::PmemSpec, &abs);
        let machine = Machine {
            cfg,
            program,
            meta,
            policy,
        };
        assert!(
            machine.system().run().fases_aborted > 0,
            "{policy:?}: inducer must abort"
        );
        machine.check_every_probe(&format!("inducer {policy:?}"));
    }
}
