//! Output checks: committed reference digests, and the per-point
//! expectations a pass compares against.
//!
//! `refs/digests.txt` holds one line per (workload, seed, point):
//! `<workload> <seed> <design>/<benchmark> <digest>`, with the digest in
//! hex. It covers [`REFERENCE_SEEDS`]; `--regen-refs` rewrites it. For a
//! seed without references, a run checks determinism instead: every
//! later pass (traced ones included) must reproduce the first pass's
//! digests.

use std::collections::BTreeMap;

use crate::workload::Prepared;

/// The default seed and one held-out seed the references cover.
pub const REFERENCE_SEEDS: [u64; 2] = [11, 97];

/// The committed references, compiled in.
pub const DIGESTS: &str = include_str!("../refs/digests.txt");

/// Reference digests keyed by (workload, seed, point label).
#[derive(Debug, Clone, Default)]
pub struct References(BTreeMap<(String, u64, String), u64>);

impl References {
    /// Parses the reference file format.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, point, digest] = fields[..] else {
                return Err(format!("malformed reference line: {line:?}"));
            };
            let seed = seed.parse().map_err(|_| format!("bad seed in {line:?}"))?;
            let digest =
                u64::from_str_radix(digest, 16).map_err(|_| format!("bad digest in {line:?}"))?;
            map.insert((workload.to_string(), seed, point.to_string()), digest);
        }
        Ok(References(map))
    }

    /// The committed references.
    ///
    /// # Panics
    ///
    /// Panics if the committed file is malformed.
    pub fn committed() -> Self {
        Self::parse(DIGESTS).expect("refs/digests.txt is well-formed")
    }

    /// The expected digest of every point of `prep`: all `Some` when the
    /// seed has references, all `None` otherwise.
    pub fn expected(&self, prep: &Prepared) -> Vec<Option<u64>> {
        prep.points
            .iter()
            .map(|p| {
                self.0
                    .get(&(prep.workload.name.to_string(), prep.seed, p.label()))
                    .copied()
            })
            .collect()
    }

    /// Number of reference digests.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Renders reference lines for `prep`'s points from their digests.
pub fn reference_lines(prep: &Prepared, digests: &[u64]) -> String {
    prep.points
        .iter()
        .zip(digests)
        .map(|(p, d)| {
            format!(
                "{} {} {} {d:016x}\n",
                prep.workload.name,
                prep.seed,
                p.label()
            )
        })
        .collect()
}
