//! The search certificate and the catalog scorecards, pinned bit for bit.
//!
//! Each digest is FNV-1a over every field the benchmark's certificate
//! comparison reads (spec, welfare, optimal coverage, SPoA, ESS margin,
//! node id, ESS pass, expansions, evaluations and parameters) or, for the
//! catalog, over every field of every scorecard. The constants were
//! printed by this same code before the ESS verdict became lazy, the
//! scoring fan-out became flat and the optimum moved out of the
//! per-candidate scorer; any drift in the IFD, the ESS probe, the optimum,
//! the seeds or the merge order changes a digest.

use dispersal_core::value::ValueProfile;
use dispersal_mech::scoring::{score_catalog, MechScore};
use dispersal_search::parallel::{search_mechanisms, SearchConfig, SearchOutcome};

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn certificate_digest(outcome: &SearchOutcome) -> u64 {
    let c = &outcome.best;
    let mut h = Fnv::new();
    h.str(&c.spec);
    for v in [c.welfare, c.optimal_coverage, c.spoa, c.ess_margin] {
        h.word(v.to_bits());
    }
    h.word(c.node_id as u64);
    h.word(u64::from(c.ess_passed));
    h.word(outcome.expansions as u64);
    h.word(outcome.evaluations as u64);
    h.word(c.params.len() as u64);
    for p in &c.params {
        h.word(p.to_bits());
    }
    h.0
}

fn scorecard_digest(scores: &[MechScore]) -> u64 {
    let mut h = Fnv::new();
    for s in scores {
        h.str(&s.name);
        h.word(s.k as u64);
        for v in [s.welfare, s.optimal_coverage, s.spoa, s.equilibrium_payoff] {
            h.word(v.to_bits());
        }
        h.word(s.support as u64);
        h.word(s.ess_margin.to_bits());
        h.word(u64::from(s.ess_passed));
    }
    h.0
}

/// The benchmark's search configuration (k = 6 on zipf(12, 1), budget 48,
/// wave 4, 4 children, 16 ESS mutants) at four ESS seeds.
#[test]
fn search_certificates_are_pinned() {
    let f = ValueProfile::zipf(12, 1.0, 1.0).unwrap();
    // The exclusive anchor wins at every seed, and its worst margin comes
    // from the structured mutant family, so the four digests agree.
    let cases: [(u64, u64); 4] = [
        (1, 0x1c85_582c_adb5_ec14),
        (42, 0x1c85_582c_adb5_ec14),
        (2201, 0x1c85_582c_adb5_ec14),
        (0xBEEF, 0x1c85_582c_adb5_ec14),
    ];
    let mut failures = Vec::new();
    for (seed, want) in cases {
        let outcome =
            search_mechanisms(&SearchConfig { seed, ..SearchConfig::new(6, f.clone()) }).unwrap();
        let got = certificate_digest(&outcome);
        if got != want {
            failures.push(format!("seed {seed}: digest {got:#018x} ({:?})", outcome.best));
        }
    }
    assert!(failures.is_empty(), "certificate digests moved:\n{}", failures.join("\n"));
}

/// Every catalog scorecard at k = 4 on zipf(10, 1), 16 mutants, seed 7.
#[test]
fn catalog_scorecards_are_pinned() {
    let f = ValueProfile::zipf(10, 1.0, 1.0).unwrap();
    let scores = score_catalog(&f, 4, 16, 7).unwrap();
    let got = scorecard_digest(&scores);
    assert_eq!(
        got,
        0x1608_e6d4_27d4_ff43,
        "catalog digest {got:#018x} over {} scorecards",
        scores.len()
    );
}
