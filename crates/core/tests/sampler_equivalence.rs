//! Oracle test: `StrategySampler` draws the same site as the float alias
//! draw it replaced, from the same two words, and leaves the generator in
//! the same state.
//!
//! `OldSampler` below is a verbatim copy of that draw: Vose's table with
//! `f64` shares, the column from `gen_range(0..n)` (a 64-bit `%`) and the
//! accept test `gen::<f64>() < prob`. After every draw the two sites and
//! the two generator states must be equal. The draws come from
//!
//! * seeded ChaCha8 streams, on seeded strategies with zero columns,
//!   deltas, uniform and one-site strategies, shares that are exact
//!   multiples of `2⁻⁵³`, tiny shares, and one strategy at the 10⁶-site
//!   profile cap; uniform strategies are all Vose leftovers at exactly 1;
//! * a scripted generator, because random words almost never land on a
//!   threshold: for each column with threshold `t = ceil(prob·2⁵³)`, a
//!   `w₂` whose top 53 bits are `t − 1`, `t` and `t + 1`; and `w₁` equal to
//!   0, `n − 1`, `n`, `jn ± 1` and `u64::MAX`.
//!
//! `Divisor` is also checked against `%` on those `w₁` for
//! divisors no sampler could hold (up to `2⁶³ + 1`), and on seeded
//! `(word, n)` pairs of every bit width.
//!
//! The vendored proptest does not shrink, so every failure names the seed
//! and the instance. A planted-bug test runs the oracle on an integer draw
//! whose threshold is rounded down (`floor`) and requires it to be
//! flagged. Release builds (CI runs `cargo test --release -p
//! dispersal-core --test sampler_equivalence`) sweep more seeds than debug
//! ones.

use dispersal_core::strategy::{Divisor, Strategy, StrategySampler};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::num::NonZeroU64;

/// Seeded random strategies per run (on top of the fixed edge cases).
const RANDOM_INSTANCES: u64 = if cfg!(debug_assertions) { 96 } else { 2_000 };

/// Seeded draws per strategy.
const RANDOM_DRAWS: usize = if cfg!(debug_assertions) { 1_000 } else { 20_000 };

/// Seeded `(word, n)` remainders.
const RANDOM_REMAINDERS: usize = if cfg!(debug_assertions) { 100_000 } else { 10_000_000 };

/// Columns whose thresholds get scripted words; larger tables get this
/// many seeded picks.
const SCRIPTED_COLUMNS: usize = 4_096;

/// The profile cap: the most sites a strategy is built over.
const MAX_SITES: usize = 1_000_000;

/// The divisors of the scripted remainder words.
const DIVISORS: [u64; 12] = [
    1,
    2,
    3,
    20,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    1_000_000,
    1 << 63,
    (1 << 63) + 1,
    u64::MAX - 1,
    u64::MAX,
];

const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The float alias draw, verbatim.
struct OldSampler {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl OldSampler {
    fn new(strategy: &Strategy) -> Self {
        let n = strategy.len();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let scaled: Vec<f64> = strategy.probs().iter().map(|&p| p * n as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        let mut work = scaled.clone();
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = work[s];
            alias[s] = l;
            work[l] = (work[l] + work[s]) - 1.0;
            if work[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &l in &large {
            prob[l] = 1.0;
        }
        for &s in &small {
            prob[s] = 1.0;
        }
        Self { prob, alias }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// Column `i`'s accept threshold on the top 53 bits of `w₂`.
    fn threshold(&self, i: usize) -> u64 {
        (self.prob[i] * TWO_POW_53).ceil() as u64
    }
}

/// A draw under test: the library sampler, or a planted bug.
trait Draw {
    fn build(strategy: &Strategy) -> Self;
    fn draw(&self, rng: &mut dyn RngCore) -> usize;
}

impl Draw for StrategySampler {
    fn build(strategy: &Strategy) -> Self {
        StrategySampler::new(strategy)
    }

    fn draw(&self, rng: &mut dyn RngCore) -> usize {
        self.sample(rng)
    }
}

/// The planted bug: the integer draw with `floor(prob·2⁵³)` thresholds.
struct FloorSampler {
    columns: Vec<(u64, usize)>,
    n: Divisor,
}

impl Draw for FloorSampler {
    fn build(strategy: &Strategy) -> Self {
        let old = OldSampler::new(strategy);
        let columns = old
            .prob
            .iter()
            .zip(&old.alias)
            .map(|(&p, &alias)| ((p * TWO_POW_53).floor() as u64, alias))
            .collect();
        let n = NonZeroU64::new(strategy.len() as u64).unwrap();
        FloorSampler { columns, n: Divisor::new(n) }
    }

    fn draw(&self, rng: &mut dyn RngCore) -> usize {
        let column = (rng.next_u64() % self.n) as usize;
        let (threshold, alias) = self.columns[column];
        if rng.next_u64() >> 11 < threshold {
            column
        } else {
            alias
        }
    }
}

/// A generator that replays a fixed list of words. Two copies are in the
/// same state when they replay the same list from the same place.
#[derive(Debug, Clone)]
struct Script<'a> {
    words: &'a [u64],
    next: usize,
}

impl PartialEq for Script<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.words, other.words) && self.next == other.next
    }
}

impl RngCore for Script<'_> {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let word = self.words[self.next];
        self.next += 1;
        word
    }
}

/// One strategy, described well enough to rebuild it by hand.
struct Instance {
    seed: u64,
    label: String,
    strategy: Strategy,
}

impl Instance {
    fn describe(&self) -> String {
        let probs = self.strategy.probs();
        let shown = if probs.len() <= 16 { format!("{probs:?}") } else { "(elided)".into() };
        format!("seed {} [{}] M={} probs={shown}", self.seed, self.label, probs.len())
    }
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = match rng.gen_range(0..4u32) {
        0 => rng.gen_range(1..=4),
        1 => rng.gen_range(1..=32),
        2 => rng.gen_range(1..=300),
        _ => rng.gen_range(1..=3_000),
    };
    let (label, strategy) = match seed % 6 {
        0 => {
            // Zero columns: each weight is zero with probability 1/3.
            let mut w: Vec<f64> =
                (0..m).map(|_| if rng.gen_range(0..3u32) == 0 { 0.0 } else { rng.gen() }).collect();
            if w.iter().all(|&x| x == 0.0) {
                w[rng.gen_range(0..m)] = 1.0;
            }
            ("zero columns", Strategy::from_weights(w).unwrap())
        }
        1 => ("delta", Strategy::delta(m, rng.gen_range(0..m)).unwrap()),
        2 => ("uniform", Strategy::uniform(m).unwrap()),
        3 => {
            // Shares that are exact multiples of 2⁻⁵³ on a power-of-two
            // number of sites, so n·p (and often the Vose remainders) are
            // exact integers times 2⁻⁵³.
            let n = 1usize << rng.gen_range(0..6u32);
            let mut units: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect();
            let total: u64 = units.iter().sum::<u64>().max(1);
            let mut left = 1u64 << 53;
            for u in units.iter_mut() {
                *u = ((u128::from(*u) << 53) / u128::from(total)) as u64;
                left -= *u;
            }
            units[0] += left;
            let probs = units.iter().map(|&u| u as f64 / TWO_POW_53).collect();
            ("multiples of 2^-53", Strategy::new(probs).unwrap())
        }
        4 => {
            // Shares spanning many decades.
            let w = (0..m).map(|_| (-rng.gen::<f64>() * 40.0).exp()).collect();
            ("tiny shares", Strategy::from_weights(w).unwrap())
        }
        _ => {
            ("random weights", Strategy::from_weights((0..m).map(|_| rng.gen()).collect()).unwrap())
        }
    };
    Instance { seed, label: label.into(), strategy }
}

fn edge_instances() -> Vec<Instance> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xED6E);
    let fixed =
        |label: &str, strategy: Strategy| Instance { seed: 0, label: label.into(), strategy };
    vec![
        fixed("one site", Strategy::uniform(1).unwrap()),
        fixed("halves", Strategy::new(vec![0.5, 0.5]).unwrap()),
        fixed("thirds", Strategy::uniform(3).unwrap()),
        fixed("dyadic", Strategy::new(vec![0.5, 0.25, 0.125, 0.125]).unwrap()),
        fixed(
            "one 2^-53 share",
            Strategy::new(vec![1.0 - 1.0 / TWO_POW_53, 1.0 / TWO_POW_53]).unwrap(),
        ),
        fixed("delta at the end", Strategy::delta(20, 19).unwrap()),
        fixed("uniform 20", Strategy::uniform(20).unwrap()),
        fixed(
            "zipf 20",
            Strategy::from_weights((1..=20).map(|i| 1.0 / f64::from(i)).collect()).unwrap(),
        ),
        fixed(
            "profile cap",
            Strategy::from_weights((0..MAX_SITES).map(|_| rng.gen::<f64>()).collect()).unwrap(),
        ),
        fixed("uniform at the profile cap", Strategy::uniform(MAX_SITES).unwrap()),
    ]
}

fn all_instances() -> Vec<Instance> {
    let mut instances = edge_instances();
    instances.extend((1..=RANDOM_INSTANCES).map(random_instance));
    instances
}

/// Draw `draws` times from two copies of `rng`, one through the old
/// sampler and one through `new`; describe the first draw whose site or
/// resulting generator state differs.
fn first_mismatch<R: RngCore + Clone + PartialEq>(
    old: &OldSampler,
    new: &impl Draw,
    rng: &R,
    draws: usize,
) -> Option<String> {
    let (mut a, mut b) = (rng.clone(), rng.clone());
    for i in 0..draws {
        let (was, now) = (old.sample(&mut a), new.draw(&mut b));
        if was != now || a != b {
            let mut replay = rng.clone();
            let words: Vec<u64> = (0..2 * i + 2).map(|_| replay.next_u64()).collect();
            return Some(format!(
                "draw {i}, words {:#018x?}: old site {was}, new site {now}, same state {}",
                &words[2 * i..],
                a == b
            ));
        }
    }
    None
}

/// `w₁` words that stress `w % n`: 0, `n − 1`, `n`, `jn ± 1` for small
/// and for the largest `j`, and `u64::MAX`.
fn boundary_words(n: u64) -> Vec<u64> {
    let mut words = vec![0, n - 1, n, u64::MAX];
    let top = u64::MAX / n;
    for j in [1, 2, 3, top.saturating_sub(1), top] {
        if let Some(jn) = j.checked_mul(n) {
            words.extend([jn.wrapping_sub(1), jn.saturating_add(1)]);
        }
    }
    words
}

/// The scripted words for one strategy: for sampled columns, `w₂` whose
/// top 53 bits are `t − 1`, `t`, `t + 1` (`t` the column's threshold),
/// with `w₁` selecting that column as a small and as the largest word;
/// then every `w₁` of [`boundary_words`] with a seeded `w₂`.
fn script_words(old: &OldSampler, rng: &mut ChaCha8Rng) -> Vec<u64> {
    let n = old.prob.len();
    let columns: Vec<usize> = if n <= SCRIPTED_COLUMNS {
        (0..n).collect()
    } else {
        (0..SCRIPTED_COLUMNS).map(|_| rng.gen_range(0..n)).collect()
    };
    let n64 = n as u64;
    let mut words = Vec::new();
    for i in columns {
        let t = old.threshold(i);
        let selectors = [i as u64, i as u64 + (u64::MAX - i as u64) / n64 * n64];
        for top in [t.wrapping_sub(1), t, t + 1] {
            if top >= 1 << 53 {
                continue;
            }
            for (w1, low) in selectors.into_iter().zip([0, 0x7ff]) {
                words.extend([w1, top << 11 | low]);
            }
        }
    }
    for w1 in boundary_words(n64) {
        words.extend([w1, rng.next_u64()]);
    }
    words
}

/// Run the oracle on one strategy with the draw `D`.
fn check<D: Draw>(instance: &Instance) -> Option<String> {
    let old = OldSampler::new(&instance.strategy);
    let new = D::build(&instance.strategy);
    let mut rng = ChaCha8Rng::seed_from_u64(instance.seed ^ 0x5A3D_1E55);
    let words = script_words(&old, &mut rng);
    first_mismatch(&old, &new, &Script { words: &words, next: 0 }, words.len() / 2)
        .map(|why| format!("scripted {why}"))
        .or_else(|| {
            first_mismatch(&old, &new, &rng, RANDOM_DRAWS).map(|why| format!("seeded {why}"))
        })
}

#[test]
fn integer_draw_matches_the_float_draw_site_for_site() {
    let instances = all_instances();
    let failures: Vec<String> = instances
        .iter()
        .filter_map(|inst| {
            check::<StrategySampler>(inst).map(|why| format!("{}: {why}", inst.describe()))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} strategies differ:\n{}",
        failures.len(),
        instances.len(),
        failures.join("\n")
    );
}

#[test]
fn the_oracle_flags_a_planted_floor_threshold() {
    // Rounding the threshold down rejects the top 53 bits `t − 1` that
    // the float draw accepts, wherever `prob·2⁵³` is not an integer; the
    // scripted words must catch that, or the comparison above proves
    // nothing about the thresholds.
    let flagged = all_instances()
        .iter()
        .filter_map(check::<FloorSampler>)
        .find(|why| why.starts_with("scripted"));
    assert!(flagged.is_some(), "no strategy tells a floor threshold from a ceil one");
}

#[test]
fn direct_remainder_matches_the_hardware_remainder() {
    let mut failures = Vec::new();
    let mut compare = |n: u64, w: u64, origin: &str| {
        let direct = w % Divisor::new(NonZeroU64::new(n).unwrap());
        if direct != w % n {
            failures.push(format!("{origin}: {w} % {n} = {}, direct {direct}", w % n));
        }
    };
    for n in DIVISORS {
        for w in boundary_words(n) {
            compare(n, w, "scripted");
        }
    }
    let seed = 0xD1_4EC7;
    let origin = format!("seed {seed}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..RANDOM_REMAINDERS {
        // Divisors of every bit width, from 1 to 64 bits.
        let n = (rng.next_u64() >> rng.gen_range(0..64u32)).max(1);
        compare(n, rng.next_u64(), &origin);
    }
    assert!(failures.is_empty(), "{} remainders differ:\n{}", failures.len(), failures.join("\n"));
}
