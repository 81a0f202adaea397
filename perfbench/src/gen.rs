//! Seeded request generation: the request mix and the open-loop send
//! schedules. Everything here is a pure function of the seed, so the same
//! seed always yields the same request lines at the same offsets; the
//! daemon only ever sees the generated lines.

use std::time::Duration;

/// SplitMix64: small, fast, and fully specified, so schedules do not
/// depend on any library's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` derived from `seed`.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut base = Rng(seed ^ label.wrapping_mul(0xd1b5_4a32_d192_ed03));
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Grid resolution of every response request (the daemon's default).
pub const RESOLUTION: usize = 256;
/// Player count of the tolerance-mode requests and of the trickle.
pub const TOL_K: usize = 64;
/// Tolerance of the interpolated requests.
pub const TOL: f64 = 1e-9;
/// Distinct policies the tolerance-mode requests draw from: four times
/// the daemon's 256-grid cache, so both warm lookups and cold builds
/// occur in steady state.
pub const TOL_POPULATION: usize = 1024;
/// Zipf exponent of the tolerance-mode popularity: about 4% of the
/// draws fall beyond the 256 most popular policies.
pub const TOL_ZIPF_S: f64 = 1.4;
/// Profile and player count of the singleton requests.
pub const SINGLETON_PROFILE: &str = "zipf:20:1.0";
pub const SINGLETON_K: usize = 8;

/// What a request asks for; drives the mix accounting and the checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Exact response curve of `policy` at `k`.
    Exact {
        policy: String,
        k: usize,
    },
    /// Tolerance-mode response curve (served from the grid cache).
    Interp,
    Equilibrium,
    Ess,
    Catalog,
    /// A line the daemon's reader thread rejects itself (socket round
    /// trip without admission); only sent by traced runs.
    Probe,
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub kind: Kind,
    pub line: String,
}

/// A power-law policy spec with an exponent in `[0.25, 4)`, printed with
/// a fixed number of digits so the daemon and the in-process check parse
/// the same value.
fn power_spec(beta: f64) -> String {
    format!("power:{beta:.6}")
}

fn response_line(id: u64, policy: &str, k: usize, tol: Option<f64>) -> String {
    match tol {
        None => format!(
            "{{\"id\":{id},\"cmd\":\"response\",\"policy\":\"{policy}\",\"k\":{k},\
             \"resolution\":{RESOLUTION}}}"
        ),
        Some(tol) => format!(
            "{{\"id\":{id},\"cmd\":\"response\",\"policy\":\"{policy}\",\"k\":{k},\
             \"resolution\":{RESOLUTION},\"tol\":{tol:e}}}"
        ),
    }
}

/// An exact `response` request for a seeded power-law policy.
pub fn exact_request(rng: &mut Rng, id: u64, k: usize) -> Request {
    let policy = power_spec(0.25 + 3.75 * rng.unit());
    Request { id, line: response_line(id, &policy, k, None), kind: Kind::Exact { policy, k } }
}

/// The socket round-trip probe: an unknown command, answered with an
/// error straight from the daemon's reader thread.
pub fn probe_request(id: u64) -> Request {
    Request { id, kind: Kind::Probe, line: format!("{{\"id\":{id},\"cmd\":\"rtt-probe\"}}") }
}

/// Mix weights of the burst workload, in percent.
pub const MIX: [(&str, u32); 7] = [
    ("exact_k16", 28),
    ("exact_k64", 28),
    ("exact_k256", 26),
    ("interp_k64", 12),
    ("equilibrium", 2),
    ("ess", 2),
    ("catalog", 2),
];

/// Share of each exact player count in the burst mix.
pub const EXACT_SHARES: [(usize, f64); 3] = [(16, 0.28), (64, 0.28), (256, 0.26)];

/// The seeded burst mix: exact curves at three player counts, Zipf-skewed
/// tolerance-mode curves over a population larger than the grid cache,
/// and a minority of equilibrium, ESS and catalog singletons.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    /// Tolerance-mode policy of each popularity rank (a seeded shuffle).
    population: Vec<String>,
    /// Cumulative Zipf weights over ranks.
    zipf_cdf: Vec<f64>,
}

impl Mix {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut shuffle = Rng::stream(seed, 0x5eed);
        let mut population: Vec<String> = (0..TOL_POPULATION)
            .map(|i| power_spec(0.25 + 3.75 * i as f64 / TOL_POPULATION as f64))
            .collect();
        for i in (1..population.len()).rev() {
            population.swap(i, shuffle.below(i + 1));
        }
        let mut total = 0.0;
        let mut zipf_cdf: Vec<f64> = (1..=TOL_POPULATION)
            .map(|rank| {
                total += (rank as f64).powf(-TOL_ZIPF_S);
                total
            })
            .collect();
        for c in &mut zipf_cdf {
            *c /= total;
        }
        Mix { rng: Rng::stream(seed, stream), population, zipf_cdf }
    }

    /// A tolerance-mode request for the policy of popularity `rank`.
    pub fn ranked(&self, id: u64, rank: usize) -> Request {
        let policy = &self.population[rank % TOL_POPULATION];
        Request { id, kind: Kind::Interp, line: response_line(id, policy, TOL_K, Some(TOL)) }
    }

    /// Draw the next request, addressed with `id`.
    pub fn next(&mut self, id: u64) -> Request {
        let mut roll = self.rng.below(100) as u32;
        let mut pick = MIX.len() - 1;
        for (i, (_, weight)) in MIX.iter().enumerate() {
            if roll < *weight {
                pick = i;
                break;
            }
            roll -= weight;
        }
        match MIX[pick].0 {
            "exact_k16" => exact_request(&mut self.rng, id, 16),
            "exact_k64" => exact_request(&mut self.rng, id, 64),
            "exact_k256" => exact_request(&mut self.rng, id, 256),
            "interp_k64" => {
                let u = self.rng.unit();
                self.ranked(id, self.zipf_cdf.partition_point(|&c| c <= u))
            }
            "equilibrium" => {
                let policy =
                    ["sharing", "exclusive", "two-level:-0.25", "power:2"][self.rng.below(4)];
                Request {
                    id,
                    kind: Kind::Equilibrium,
                    line: format!(
                        "{{\"id\":{id},\"cmd\":\"equilibrium\",\"policy\":\"{policy}\",\
                         \"profile\":\"{SINGLETON_PROFILE}\",\"k\":{SINGLETON_K}}}"
                    ),
                }
            }
            "ess" => {
                let seed = self.rng.below(1 << 20);
                Request {
                    id,
                    kind: Kind::Ess,
                    line: format!(
                        "{{\"id\":{id},\"cmd\":\"ess\",\"profile\":\"{SINGLETON_PROFILE}\",\
                         \"k\":{SINGLETON_K},\"mutants\":16,\"seed\":{seed}}}"
                    ),
                }
            }
            _ => Request {
                id,
                kind: Kind::Catalog,
                line: format!(
                    "{{\"id\":{id},\"cmd\":\"catalog\",\"k\":{SINGLETON_K},\
                     \"resolution\":{RESOLUTION}}}"
                ),
            },
        }
    }
}

/// One scheduled send of an open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Offset from the start of the phase at which the line is due.
    pub at: Duration,
    /// Connection index it goes out on.
    pub conn: usize,
    pub request: Request,
}

/// The trickle: exact k=64 curves on one connection at a fixed interval.
/// With `probe_every > 0`, every `probe_every`-th send is a socket
/// round-trip probe instead.
pub fn trickle_schedule(
    seed: u64,
    first_id: u64,
    interval: Duration,
    duration: Duration,
    probe_every: usize,
) -> Vec<Scheduled> {
    let mut rng = Rng::stream(seed, 0x7c);
    let count = (duration.as_secs_f64() / interval.as_secs_f64()).floor() as usize;
    (0..count)
        .map(|i| {
            let id = first_id + i as u64;
            let request = if probe_every > 0 && i % probe_every == probe_every - 1 {
                probe_request(id)
            } else {
                exact_request(&mut rng, id, TOL_K)
            };
            Scheduled { at: interval * i as u32, conn: 0, request }
        })
        .collect()
}

/// The burst's open loop: Poisson arrivals at `rate` per second, each
/// assigned uniformly to one of `conns` connections (so each connection
/// is itself a Poisson stream), with requests drawn from [`Mix`].
pub fn poisson_schedule(
    seed: u64,
    first_id: u64,
    rate: f64,
    duration: Duration,
    conns: usize,
) -> Vec<Scheduled> {
    let mut arrivals = Rng::stream(seed, 0xa1);
    let mut mix = Mix::new(seed, 0xb2);
    let mut out = Vec::new();
    let mut t = arrivals.exponential(1.0 / rate);
    let end = duration.as_secs_f64();
    while t < end {
        let id = first_id + out.len() as u64;
        out.push(Scheduled {
            at: Duration::from_secs_f64(t),
            conn: arrivals.below(conns),
            request: mix.next(id),
        });
        t += arrivals.exponential(1.0 / rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let d = Duration::from_secs(2);
        let a = poisson_schedule(7, 1, 500.0, d, 2);
        let b = poisson_schedule(7, 1, 500.0, d, 2);
        assert_eq!(a, b, "same seed, same schedule and lines");
        let c = poisson_schedule(8, 1, 500.0, d, 2);
        assert_ne!(a, c, "another seed, another schedule");
        let t1 = trickle_schedule(7, 1, Duration::from_millis(5), d, 0);
        assert_eq!(t1, trickle_schedule(7, 1, Duration::from_millis(5), d, 0));
        assert_ne!(t1, trickle_schedule(8, 1, Duration::from_millis(5), d, 0));
        assert_eq!(t1.len(), 400);
        assert!(t1.iter().enumerate().all(|(i, s)| s.at == Duration::from_millis(5 * i as u64)));
    }

    #[test]
    fn mix_is_seeded_and_matches_its_weights() {
        let mut a = Mix::new(3, 1);
        let mut b = Mix::new(3, 1);
        let drawn: Vec<Request> = (0..20_000).map(|id| a.next(id)).collect();
        assert!(drawn.iter().zip((0..20_000).map(|id| b.next(id))).all(|(x, y)| *x == y));
        let share = |pred: &dyn Fn(&Kind) -> bool| {
            drawn.iter().filter(|r| pred(&r.kind)).count() as f64 / drawn.len() as f64
        };
        assert!((share(&|k| matches!(k, Kind::Interp)) - 0.12).abs() < 0.02);
        assert!((share(&|k| matches!(k, Kind::Exact { k: 256, .. })) - 0.26).abs() < 0.02);
        let singles = share(&|k| matches!(k, Kind::Equilibrium | Kind::Ess | Kind::Catalog));
        assert!((singles - 0.06).abs() < 0.01);
        assert!(MIX.iter().map(|(_, w)| w).sum::<u32>() == 100);
    }

    #[test]
    fn tolerance_requests_overflow_the_grid_cache_with_a_hot_head() {
        let mut mix = Mix::new(11, 1);
        let mut seen = std::collections::BTreeMap::<String, usize>::new();
        for id in 0..20_000 {
            let r = mix.next(id);
            if r.kind == Kind::Interp {
                let policy = r.line.split("\"policy\":\"").nth(1).unwrap().split('"').next();
                *seen.entry(policy.unwrap().to_string()).or_default() += 1;
            }
        }
        let hottest = seen.values().copied().max().unwrap();
        assert!(seen.len() > 256, "only {} distinct tolerance policies", seen.len());
        assert!(hottest > 300, "no hot head: hottest policy drawn {hottest} times");
    }

    #[test]
    fn probes_replace_every_nth_trickle_send() {
        let s = trickle_schedule(1, 10, Duration::from_millis(5), Duration::from_millis(100), 5);
        let probes: Vec<u64> =
            s.iter().filter(|x| x.request.kind == Kind::Probe).map(|x| x.request.id).collect();
        assert_eq!(probes, vec![14, 19, 24, 29]);
        assert!(s.iter().all(|x| x.request.line.contains(&format!("\"id\":{}", x.request.id))));
    }
}
