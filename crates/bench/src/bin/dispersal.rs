//! `dispersal` — the workspace's one binary: a command-line front end to
//! the library for downstream users who want answers without writing
//! Rust, the `serve` daemon, the paper's experiments (`exp`), and the
//! `BENCH_*.json` trajectory check (`check-bench-json`). `dispersal help`
//! prints every command with its flags, the policy and profile spec
//! syntax, and the experiment names.

use dispersal_bench::experiments::{select, EXPERIMENTS};
use dispersal_bench::runner::{parse_flags, parse_value, run_experiments, Common};
use dispersal_core::prelude::*;
use dispersal_mech::catalog::{parse_policy, parse_profile, standard_catalog};
use dispersal_mech::evaluator::{catalog_response_matrix, evaluate_catalog, ResponseCache};
use dispersal_serve::server::ServerConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: dispersal <solve|sigma-star|optimal|spoa|ess|evaluate|responses|serve|search-mech> \
                     [--policy <spec>] [--profile <spec>] -k <n> [--mutants <n>] [--seed <n>]\n\
                     serve flags: [--addr <host:port|unix:path>] [--batch-window <ms>] \
                     [--max-batch <n>] [--max-line-bytes <n>] [--read-timeout <secs, 0 = off>]\n\
                     search-mech flags: [--objective welfare|spoa] [--budget <n>] [--wave <n>] \
                     [--children <n>] [--mutants <n>] [--seed <n>]\n\
       dispersal exp <name>...|--all [--trials <n>] [--seed <n>] [--jobs <n>] [--out-dir <dir>]\n\
       dispersal check-bench-json [FILE...]\n\
                     run `dispersal help` for spec syntax and experiment names";

/// The spec syntax `help` prints. A unit test parses every example through
/// `parse_policy`/`parse_profile`, so the text cannot drift from the parsers.
const SPECS: &str = "\
policy specs (--policy):
  exclusive              e.g. exclusive
  sharing                e.g. sharing
  constant               e.g. constant
  two-level:<c>          e.g. two-level:-0.3
  power:<beta>           e.g. power:2
  linear:<slope>         e.g. linear:0.1
  cooperative:<theta>    e.g. cooperative:0.5
profile specs (--profile):
  zipf:<M>:<s>           e.g. zipf:10:1.0
  geometric:<M>:<rho>    e.g. geometric:8:0.7
  linear:<M>:<hi>:<lo>   e.g. linear:10:1.0:0.1
  uniform:<M>:<v>        e.g. uniform:5:1.0
  slow-decay:<M>:<k>     e.g. slow-decay:12:3
  values:<v1>,<v2>,...   e.g. values:1,0.5,0.25";

/// Flag table for the shared parser in `dispersal_bench::runner`.
const FLAG_SPEC: &[(&str, &str)] = &[
    ("--policy", "policy"),
    ("--profile", "profile"),
    ("-k", "k"),
    ("--players", "k"),
    ("--mutants", "mutants"),
    ("--seed", "seed"),
    ("--addr", "addr"),
    ("--batch-window", "batch-window"),
    ("--max-batch", "max-batch"),
    ("--max-line-bytes", "max-line-bytes"),
    ("--read-timeout", "read-timeout"),
    ("--objective", "objective"),
    ("--budget", "budget"),
    ("--wave", "wave"),
    ("--children", "children"),
];

fn get_k(flags: &BTreeMap<String, String>) -> Result<usize> {
    parse_value(flags, "k")?.ok_or_else(|| Error::InvalidArgument("missing -k <players>".into()))
}

fn get_profile(flags: &BTreeMap<String, String>) -> Result<ValueProfile> {
    parse_profile(
        flags
            .get("profile")
            .ok_or_else(|| Error::InvalidArgument("missing --profile <spec>".into()))?,
    )
}

fn print_strategy(label: &str, f: &ValueProfile, s: &Strategy, k: usize) -> Result<()> {
    println!("{label}:");
    for x in 0..s.len().min(20) {
        println!("  site {:>3}  f = {:>9.5}  p = {:.6}", x + 1, f.value(x), s.prob(x));
    }
    if s.len() > 20 {
        println!("  … ({} more sites)", s.len() - 20);
    }
    println!("  coverage  = {:.6}", coverage(f, s, k)?);
    Ok(())
}

fn run() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(Error::InvalidArgument(USAGE.into()).into());
    };
    match command.as_str() {
        "help" | "--help" => {
            let names = |in_all: bool| {
                let names = EXPERIMENTS.iter().filter(|e| e.in_all == in_all).map(|e| e.name);
                names.collect::<Vec<_>>().join(" ")
            };
            println!(
                "{USAGE}\n\n{SPECS}\n\nexperiments (`--all` runs these, in this order):\n  {}\n\
                 by name only:\n  {}",
                names(true),
                names(false)
            );
            return Ok(());
        }
        "exp" => {
            // Experiment names (or `--all`) come first, the common flags after.
            let rest = &args[1..];
            let split =
                rest.iter().position(|a| a.starts_with('-') && a != "--all").unwrap_or(rest.len());
            let selected = select(&rest[..split])?;
            run_experiments(&selected, &Common::parse(&rest[split..])?)?;
            return Ok(());
        }
        "check-bench-json" => {
            dispersal_bench::check_bench_json::run(&args[1..])?;
            return Ok(());
        }
        _ => {}
    }
    let flags = parse_flags(&args[1..], FLAG_SPEC)?;
    match command.as_str() {
        "solve" => {
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let policy = parse_policy(
                flags
                    .get("policy")
                    .ok_or_else(|| Error::InvalidArgument("missing --policy <spec>".into()))?,
            )?;
            let ifd = solve_ifd_allow_degenerate(policy.as_ref(), &f, k)?;
            print_strategy(&format!("IFD of {} (k = {k})", policy.name()), &f, &ifd.strategy, k)?;
            let ctx = PayoffContext::new(policy.as_ref(), k)?;
            println!("  payoff    = {:.6}", ctx.symmetric_payoff(&f, &ifd.strategy)?);
            println!("  support   = {}", ifd.support);
            println!("  residual  = {:.2e}", ifd.residual);
        }
        "sigma-star" => {
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let star = sigma_star(&f, k)?;
            print_strategy(&format!("sigma* (k = {k})"), &f, &star.strategy, k)?;
            println!("  W         = {}", star.support);
            println!("  alpha     = {:.6}", star.alpha);
            println!("  nu        = {:.6}", star.equilibrium_value());
        }
        "optimal" => {
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let opt = optimal_coverage(&f, k)?;
            print_strategy(&format!("optimal-coverage strategy (k = {k})"), &f, &opt.strategy, k)?;
            println!("  obs-1 bound = {:.6}", observation1_bound(&f, k));
        }
        "spoa" => {
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let policy = parse_policy(
                flags
                    .get("policy")
                    .ok_or_else(|| Error::InvalidArgument("missing --policy <spec>".into()))?,
            )?;
            let point = spoa(policy.as_ref(), &f, k)?;
            println!("policy              = {}", policy.name());
            println!("optimal coverage    = {:.6}", point.optimal_coverage);
            println!("equilibrium coverage= {:.6}", point.equilibrium_coverage);
            println!("SPoA                = {:.6}", point.ratio);
        }
        "ess" => {
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let mutants = parse_value(&flags, "mutants")?.unwrap_or(100);
            let seed = parse_value(&flags, "seed")?.unwrap_or(42);
            let star = sigma_star(&f, k)?;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let report = probe_ess_k(&Exclusive, &f, &star.strategy, mutants, &mut rng, k)?;
            println!("candidate           = sigma* (k = {k})");
            println!("mutants tested      = {}", report.mutants_tested);
            println!("repelled            = {}", report.repelled);
            println!("indistinguishable   = {}", report.indistinguishable);
            println!("invasions           = {}", report.invasions.len());
            println!("worst margin        = {:.3e}", report.worst_margin);
            println!(
                "verdict             = {}",
                if report.passed() { "ESS (no invasion found)" } else { "NOT an ESS" }
            );
        }
        "evaluate" => {
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let evals = evaluate_catalog(&f, k, 0, &mut rng)?;
            println!(
                "{:<20} {:>10} {:>10} {:>8} {:>9} {:>8}",
                "policy", "eq-cover", "opt-cover", "SPoA", "payoff", "support"
            );
            for e in evals {
                println!(
                    "{:<20} {:>10.5} {:>10.5} {:>8.4} {:>9.5} {:>8}",
                    e.policy,
                    e.equilibrium_coverage,
                    e.optimal_coverage,
                    e.spoa,
                    e.equilibrium_payoff,
                    e.ifd_support
                );
            }
        }
        "responses" => {
            // The whole catalog evaluated as one policy-major GBatch: every
            // mechanism is one row against a shared Bernstein basis column.
            // With --policy, just that one curve — the one-shot equivalent
            // of a single daemon response request (the serve loadgen's
            // baseline).
            let k = get_k(&flags)?;
            let catalog = match flags.get("policy") {
                None => standard_catalog(),
                Some(spec) => vec![dispersal_mech::catalog::NamedPolicy {
                    name: spec.clone(),
                    policy: parse_policy(spec)?,
                }],
            };
            let resolution = 256;
            let response = catalog_response_matrix(&catalog, k, resolution, &ResponseCache::new())?;
            println!(
                "{:<20} {:>10} {:>10} {:>10} {:>11}",
                "policy", "g(0.25)", "g(0.5)", "g(0.75)", "tolerance"
            );
            for (r, name) in response.names.iter().enumerate() {
                let row = response.row(r);
                println!(
                    "{:<20} {:>10.5} {:>10.5} {:>10.5} {:>11.5}",
                    name,
                    row[resolution / 4],
                    row[resolution / 2],
                    row[3 * resolution / 4],
                    response.tolerance_score[r]
                );
            }
        }
        "search-mech" => {
            // Parallel best-first search over mechanism space: maximize
            // welfare (or minimize SPoA) over parameterized congestion
            // families, subject to ESS feasibility.
            let f = get_profile(&flags)?;
            let k = get_k(&flags)?;
            let mut cfg = dispersal_search::parallel::SearchConfig::new(k, f);
            if let Some(spec) = flags.get("objective") {
                cfg.objective = dispersal_search::parallel::Objective::parse(spec)?;
            }
            cfg.budget = parse_value(&flags, "budget")?.unwrap_or(cfg.budget);
            cfg.wave = parse_value(&flags, "wave")?.unwrap_or(cfg.wave);
            cfg.children = parse_value(&flags, "children")?.unwrap_or(cfg.children);
            cfg.ess_mutants = parse_value(&flags, "mutants")?.unwrap_or(cfg.ess_mutants);
            cfg.seed = parse_value(&flags, "seed")?.unwrap_or(cfg.seed);
            let outcome = dispersal_search::parallel::search_mechanisms(&cfg)?;
            let best = &outcome.best;
            println!("best mechanism      = {}", best.spec);
            println!("family              = {}", best.family);
            println!("params              = {:?}", best.params);
            println!("welfare             = {:.6}", best.welfare);
            println!("optimal coverage    = {:.6}", best.optimal_coverage);
            println!("SPoA                = {:.6}", best.spoa);
            println!("ESS margin          = {:.3e}", best.ess_margin);
            println!(
                "ESS certified       = {}",
                if best.ess_passed { "yes" } else { "no (probe skipped)" }
            );
            println!("node id             = {}", best.node_id);
            println!(
                "expansions          = {} ({} evaluations, {} frontier left)",
                outcome.expansions, outcome.evaluations, outcome.frontier_remaining
            );
        }
        "serve" => {
            // Grow the one-shot CLI into a long-lived daemon: warm caches,
            // a persistent pool, and cross-request admission batching.
            // Runs until a client sends {"cmd":"shutdown"}.
            let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:4891".to_string());
            let defaults = ServerConfig::default();
            let batch_window = parse_value(&flags, "batch-window")?
                .map_or(defaults.batch_window, Duration::from_millis);
            let max_batch = parse_value(&flags, "max-batch")?.unwrap_or(defaults.max_batch);
            let max_line_bytes =
                parse_value(&flags, "max-line-bytes")?.unwrap_or(defaults.max_line_bytes);
            let read_timeout = parse_value(&flags, "read-timeout")?.map_or(
                defaults.read_timeout,
                // 0 disables the idle timeout.
                |secs| (secs > 0).then(|| Duration::from_secs(secs)),
            );
            let server = dispersal_serve::server::Server::bind(ServerConfig {
                addr,
                batch_window,
                max_batch,
                max_line_bytes,
                read_timeout,
            })?;
            println!("listening on {}", server.addr());
            server.join();
        }
        other => {
            return Err(
                Error::InvalidArgument(format!("unknown command '{other}'\n{USAGE}")).into()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_names_only_specs_the_parsers_accept() {
        let (mut section, mut policies, mut profiles) = ("", 0, 0);
        for line in SPECS.lines() {
            let Some(row) = line.strip_prefix("  ") else {
                section = line;
                continue;
            };
            let (syntax, example) = row.split_once(" e.g. ").expect("a syntax and an example");
            let syntax = syntax.trim_end();
            assert_eq!(syntax.split(':').next(), example.split(':').next(), "{row}");
            assert_eq!(syntax.split(':').count(), example.split(':').count(), "{row}");
            let parsed = if section.starts_with("policy") {
                policies += 1;
                parse_policy(example).map(drop)
            } else {
                profiles += 1;
                parse_profile(example).map(drop)
            };
            parsed.unwrap_or_else(|e| panic!("help's example {example} does not parse: {e}"));
        }
        assert_eq!((policies, profiles), (7, 6), "one example per parser family");
    }
}
