//! The stochastic outputs that read the alias sampler, pinned bit for bit.
//!
//! `determinism.rs` checks that a result does not depend on the thread
//! count within one build; a sampler that drew different sites from the
//! same keystream would still pass it. These digests pin the draws
//! themselves: each is FNV-1a over every bit of a Monte Carlo estimate
//! (`estimate_symmetric` under three policies and four strategy shapes,
//! `run_invasion`), of 1 000 `OneShotGame::play` outcomes on one stream,
//! or of the two treasure-hunt detection times.
//!
//! The constants were printed by this same file on commit `a30a577`,
//! where `StrategySampler::sample` chose the column with
//! `gen_range(0..n)` and accepted it with the float compare
//! `gen::<f64>() < prob`. The integer draw that replaced it reads the same
//! two words and returns the same site, so the digests did not move.

use dispersal_core::policy::{Congestion, Exclusive, Sharing, TwoLevel};
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_search::astar::IteratedSigmaStar;
use dispersal_search::game::{simulate_detection_time, simulate_detection_time_with_memory};
use dispersal_search::prior::Prior;
use dispersal_sim::invasion::{run_invasion, InvasionConfig};
use dispersal_sim::montecarlo::{estimate_symmetric, McConfig, McReport};
use dispersal_sim::oneshot::OneShotGame;
use dispersal_sim::rng::Seed;
use dispersal_sim::stats::Estimate;

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

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn estimate(&mut self, e: &Estimate) {
        self.float(e.mean);
        self.float(e.ci95);
        self.word(e.n);
    }
}

/// The benchmark's `mc` game: zipf(M = 20), the value-proportional
/// strategy, k = 8 players, 64 shards, 20 000 trials.
fn mc_digest(f: &ValueProfile, c: &dyn Congestion, strategy: &Strategy) -> u64 {
    let report: McReport =
        estimate_symmetric(f, c, strategy, 8, McConfig { trials: 20_000, seed: 2, shards: 64 })
            .unwrap();
    let mut h = Fnv::new();
    h.estimate(&report.coverage);
    h.estimate(&report.payoff);
    h.word(report.trials);
    h.0
}

fn invasion_digest(c: &dyn Congestion, f: &ValueProfile, mutant: &Strategy, k: usize) -> u64 {
    let resident = sigma_star(f, k).unwrap().strategy;
    let config = InvasionConfig { epsilon: 0.1, matches: 20_000, seed: 3, shards: 16 };
    let report = run_invasion(c, f, &resident, mutant, k, config).unwrap();
    let mut h = Fnv::new();
    h.estimate(&report.resident_payoff);
    h.estimate(&report.mutant_payoff);
    h.float(report.advantage);
    h.float(report.analytic_advantage);
    h.0
}

fn play_digest() -> u64 {
    let f = ValueProfile::zipf(20, 1.0, 1.0).unwrap();
    let p = Strategy::proportional(f.values()).unwrap();
    let mut game = OneShotGame::symmetric(&f, &TwoLevel { c: -0.3 }, &p, 8).unwrap();
    let mut rng = Seed(11).rng();
    let mut h = Fnv::new();
    for _ in 0..1_000 {
        let outcome = game.play(&mut rng);
        for &site in &outcome.choices {
            h.word(site as u64);
        }
        for &occ in &outcome.occupancy {
            h.word(occ as u64);
        }
        for &payoff in &outcome.payoffs {
            h.float(payoff);
        }
        h.float(outcome.coverage);
        h.word(outcome.collision_sites as u64);
        h.word(outcome.colliding_players as u64);
    }
    h.0
}

fn detection_digest(with_memory: bool) -> u64 {
    let prior = Prior::zipf(12, 1.0).unwrap();
    let k = 3;
    let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
    let mut rng = Seed(5).rng();
    let time = if with_memory {
        simulate_detection_time_with_memory(&mut plan, &prior, k, 2_000, 30, &mut rng)
    } else {
        simulate_detection_time(&mut plan, &prior, k, 2_000, 30, &mut rng)
    }
    .unwrap();
    let mut h = Fnv::new();
    h.float(time);
    h.0
}

#[test]
fn sampler_driven_outputs_are_pinned() {
    let zipf20 = ValueProfile::zipf(20, 1.0, 1.0).unwrap();
    let proportional20 = Strategy::proportional(zipf20.values()).unwrap();
    let zipf130 = ValueProfile::zipf(130, 1.0, 1.0).unwrap();
    let one_site = ValueProfile::new(vec![1.0]).unwrap();
    let zipf10 = ValueProfile::zipf(10, 1.0, 1.0).unwrap();
    let cases: [(&str, u64, u64); 11] = [
        ("mc exclusive", mc_digest(&zipf20, &Exclusive, &proportional20), 0x1463_e410_f07c_9ae2),
        ("mc sharing", mc_digest(&zipf20, &Sharing, &proportional20), 0x6554_c704_d199_a92d),
        (
            "mc two-level -0.3",
            mc_digest(&zipf20, &TwoLevel { c: -0.3 }, &proportional20),
            0xd88d_cec3_d0b6_9511,
        ),
        (
            "mc one site",
            mc_digest(&one_site, &Exclusive, &Strategy::uniform(1).unwrap()),
            0xa464_1eb2_d54c_7d22,
        ),
        (
            "mc delta",
            mc_digest(&zipf20, &Exclusive, &Strategy::delta(20, 3).unwrap()),
            0x9ffe_b1d7_fb96_b6c2,
        ),
        (
            "mc M = 130",
            mc_digest(&zipf130, &Exclusive, &Strategy::proportional(zipf130.values()).unwrap()),
            0xcf3c_cfa6_a5ec_1baa,
        ),
        (
            "invasion exclusive",
            invasion_digest(&Exclusive, &zipf10, &Strategy::uniform(10).unwrap(), 4),
            0xd728_0fdf_a829_d3fa,
        ),
        (
            "invasion sharing",
            invasion_digest(&Sharing, &zipf10, &Strategy::delta(10, 0).unwrap(), 3),
            0x0d8c_5e90_c9e3_5fb7,
        ),
        ("1000 plays", play_digest(), 0x1094_50b2_c31e_0100),
        ("detection time", detection_digest(false), 0x9332_b782_4086_f77a),
        ("detection time with memory", detection_digest(true), 0xf261_20d7_27ab_3192),
    ];
    for (name, digest, _) in &cases {
        println!("{name}: {digest:#018x}");
    }
    for (name, digest, pinned) in cases {
        assert_eq!(digest, pinned, "{name}: digest {digest:#018x}, pinned {pinned:#018x}");
    }
}
