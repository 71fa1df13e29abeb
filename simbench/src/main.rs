//! Command line of the simulator benchmark.
//!
//! ```text
//! simbench --workload <grid8|manycore32|verify8|all> [--seed N] [--seconds S] [--trace 0|1]
//! simbench --regen-refs
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `--regen-refs` rewrites `refs/digests.txt` for the
//! reference seeds. `--setup-only` is the child mode that measures one
//! set-up in a fresh process.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use simbench::check::{reference_lines, References, REFERENCE_SEEDS};
use simbench::workload::{self, prepare, Workload};
use simbench::{measure, measure_traced, run_pass, setup_s, Outcome};

/// Fresh processes that each measure one set-up for `setup_s`.
const SETUP_CHILDREN: usize = 6;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    regen_refs: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 11,
        seconds: 30.0,
        trace: false,
        setup_only: false,
        regen_refs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    workload::ALL.to_vec()
                } else {
                    vec![workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--setup-only" => args.setup_only = true,
            "--regen-refs" => args.regen_refs = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workloads.is_empty() && !args.regen_refs {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// This package's directory (references and span files live there).
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Measures one set-up in a fresh child process of this executable.
fn setup_child(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("set-up child failed: {}", out.status));
    }
    text.trim()
        .parse()
        .map_err(|e| format!("set-up child printed {text:?}: {e}"))
}

fn regen_refs() -> Result<(), String> {
    let mut text = String::new();
    for w in workload::ALL {
        for seed in REFERENCE_SEEDS {
            let prep = prepare(w, seed, w.kind, &pmemspec_workloads::Benchmark::ALL);
            let mut expected = vec![None; prep.points.len()];
            let pass = run_pass(&prep, w.kind, &mut expected);
            if !pass.failures.is_empty() {
                return Err(format!(
                    "{} seed {seed}: {}",
                    w.name,
                    pass.failures.join("\n")
                ));
            }
            let digests: Vec<u64> = expected
                .into_iter()
                .map(|d| d.expect("every point ran"))
                .collect();
            text.push_str(&reference_lines(&prep, &digests));
            eprintln!("{} seed {seed}: {} digests", w.name, digests.len());
        }
    }
    let path = package_dir().join("refs/digests.txt");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print(out: &Outcome) {
    for line in &out.notes {
        println!("{line}");
    }
    for f in out.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json_line());
}

fn run(args: &Args) -> Result<(), String> {
    if args.regen_refs {
        return regen_refs();
    }
    if args.setup_only {
        let w = args.workloads[0];
        let prep = prepare(w, args.seed, w.kind, &pmemspec_workloads::Benchmark::ALL);
        println!("{}", setup_s(&prep));
        return Ok(());
    }
    let refs = References::committed();
    for &w in &args.workloads {
        let out = if args.trace {
            let spans = package_dir().join(format!("out/spans-{}-seed{}.json", w.name, args.seed));
            measure_traced(w, args.seed, args.seconds, &refs, &spans)
        } else {
            let seed = args.seed;
            measure(w, seed, args.seconds, &refs, SETUP_CHILDREN, &mut || {
                setup_child(w, seed)
            })?
        };
        print(&out);
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}
