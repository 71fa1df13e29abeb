//! The benchmark's checks are not vacuous: a wrong reference digest or a
//! broken lowering raises the error rate above zero.

use std::sync::Arc;

use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;
use simbench::check::{References, REFERENCE_SEEDS};
use simbench::workload::{self, prepare, Kind, Workload};
use simbench::{run_pass, Pass};

/// A grid small enough for a debug build.
const TINY: Workload = Workload {
    name: "tiny",
    cores: 2,
    fases: |_| 3,
    kind: Kind::Sim,
    paper: (1.0, "none"),
};

fn error_rate(pass: &Pass) -> f64 {
    pass.failures.len() as f64 / pass.attempted as f64
}

#[test]
fn perturbed_reference_digest_raises_the_error_rate() {
    let prep = prepare(TINY, 11, Kind::Sim, &Benchmark::ALL[..2]);
    let mut expected = vec![None; prep.points.len()];
    let first = run_pass(&prep, Kind::Sim, &mut expected);
    assert_eq!(error_rate(&first), 0.0, "{:?}", first.failures);
    // A rerun reproduces every digest.
    assert_eq!(error_rate(&run_pass(&prep, Kind::Sim, &mut expected)), 0.0);

    let mut perturbed = expected.clone();
    perturbed[3] = perturbed[3].map(|d| d ^ 1);
    let pass = run_pass(&prep, Kind::Sim, &mut perturbed);
    assert!(error_rate(&pass) > 0.0);
    assert_eq!(pass.failures.len(), 1, "{:?}", pass.failures);
    assert!(pass.failures[0].contains("digest"), "{}", pass.failures[0]);
}

#[test]
fn analyzer_mutant_raises_the_error_rate() {
    // An ordering mutant: still a well-formed program that runs, so only
    // the analyzer can object.
    let mutant = pmemspec_analyze::mutate::corpus()
        .into_iter()
        .find(|m| m.observed.is_some())
        .expect("the corpus has ordering mutants");
    let verify = Workload {
        kind: Kind::Verify,
        cores: mutant.program.thread_count(),
        ..TINY
    };
    let mut prep = prepare(verify, 11, Kind::Verify, &Benchmark::ALL[..1]);
    let mut expected = vec![None; prep.points.len()];
    let clean = run_pass(&prep, Kind::Verify, &mut expected);
    assert_eq!(error_rate(&clean), 0.0, "{:?}", clean.failures);

    let point = &mut prep.points[0];
    point.design = mutant.design;
    point.program = Arc::new(mutant.program);
    point.meta = Some(Arc::new(mutant.meta));
    let pass = run_pass(&prep, Kind::Verify, &mut vec![None; prep.points.len()]);
    assert!(error_rate(&pass) > 0.0);
    assert!(
        pass.failures.iter().any(|f| f.contains("analyzer")),
        "{:?}",
        pass.failures
    );
}

#[test]
fn committed_references_cover_every_point_of_every_workload() {
    let points = Benchmark::ALL.len() * DesignKind::ALL_EXTENDED.len();
    assert_eq!(
        References::committed().len(),
        workload::ALL.len() * REFERENCE_SEEDS.len() * points
    );
}
