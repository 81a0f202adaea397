//! Line-JSON wire protocol for the dispersal daemon.
//!
//! One request per line, one reply per line, over any byte stream (TCP
//! or Unix socket). Requests are JSON objects with two required fields —
//! `"id"` (echoed verbatim on the reply, so clients can pipeline) and
//! `"cmd"` — plus per-command parameters:
//!
//! ```text
//! {"id":1,"cmd":"response","policy":"sharing","k":64}            exact curve
//! {"id":2,"cmd":"response","policy":"power:2.0","k":64,
//!         "resolution":256,"tol":1e-9}                           interpolated
//! {"id":3,"cmd":"equilibrium","policy":"sharing",
//!         "profile":"zipf:20:1.0","k":8}                         IFD solve
//! {"id":4,"cmd":"ess","profile":"zipf:20:1.0","k":8,
//!         "mutants":50,"seed":42}                                ESS probe
//! {"id":5,"cmd":"catalog","k":8,"resolution":256}                catalog scan
//! {"id":6,"cmd":"stats"}                                         metrics
//! {"id":7,"cmd":"shutdown"}                                      stop daemon
//! {"id":8,"cmd":"scenario","policy":"sharing",
//!         "profile":"zipf:5:1.0","k":3,"epochs":8,"explore":1e-4,
//!         "events":[{"type":"daily","amplitude":0.25,"period":8},
//!                   {"type":"drift","site":1,"rate":-0.05},
//!                   {"type":"shock","epoch":4,"site":2,"factor":2.0}]}
//! ```
//!
//! Replies are `{"id":N,"ok":true,"result":{…}}` on success and
//! `{"id":N,"ok":false,"error":"…"}` on failure (per request — a bad
//! request never takes down a batch, a connection, or the daemon).
//! Size fields are bounded — `k` by [`MAX_K`], `resolution` by
//! [`MAX_RESOLUTION`], `epochs` by [`MAX_EPOCHS`], `mutants` by
//! [`MAX_MUTANTS`] — and an over-limit field is refused at parse time
//! with an error naming the limit, as is a `resolution` of 0 (the
//! minimum is 1). Two requests are also bounded as a whole, with an
//! error naming the budget:
//!
//! * an exact `"response"` (no `"tol"`) and a `"catalog"` scan, whose work
//!   over all their curves ([`response_work`]: one curve for a response,
//!   one per catalog row for a scan) must not exceed [`MAX_RESPONSE_WORK`],
//!   checked at parse time. Tolerance-mode `"response"` requests stay
//!   unbudgeted: their cost is the interpolation grid's build, which
//!   depends on `k` and the tolerance, is cached across requests, and is
//!   followed by `O(1)` work per point;
//! * an `"ess"` probe, whose worst-case work ([`ess_work`]) must not
//!   exceed [`MAX_ESS_WORK`], checked once its profile is parsed.
//!
//! Policy and profile specs are the `dispersal` CLI spec strings
//! (`dispersal_mech::catalog::parse_policy` / `parse_profile`).
//!
//! All floats round-trip bit-exactly through the vendored codec, which
//! is what lets the round-trip integration test compare daemon replies
//! against direct library calls with `to_bits` equality.

use dispersal_mech::catalog::standard_catalog;
use dispersal_sim::scenario::TrafficEvent;
use serde::Value;

/// Default evaluation-grid resolution when a request omits
/// `"resolution"` (matches the `dispersal responses` CLI).
pub const DEFAULT_RESOLUTION: usize = 256;

/// Default mutant count for `"ess"` requests.
pub const DEFAULT_MUTANTS: usize = 50;

/// Default RNG seed for `"ess"` requests (matches the CLI).
pub const DEFAULT_SEED: u64 = 42;

/// Largest player count `"k"` a request may carry: the large-`k` frontier
/// the kernels are tested to.
pub const MAX_K: usize = 1_000_000;

/// Largest `"resolution"` a request may carry (`2¹⁶` grid steps).
pub const MAX_RESOLUTION: usize = 1 << 16;

/// Largest `"epochs"` of a `"scenario"` request.
pub const MAX_EPOCHS: u64 = 10_000;

/// Largest `"mutants"` of an `"ess"` request.
pub const MAX_MUTANTS: usize = 10_000;

/// Largest worst-case work of an `"ess"` request, in ledger cells
/// ([`ess_work`]). When every ledger level ties (σ⋆ under the exclusive
/// policy at large `k`, where payoffs underflow to 0) a probe walks all of
/// them at about 18 ns a cell, so the largest admissible request answers
/// in about 0.75 s on a 2-vCPU x86-64 VM.
pub const MAX_ESS_WORK: u64 = 40_000_000;

/// Largest work of an exact `"response"` or a `"catalog"` scan, in kernel
/// cells ([`response_work`]). A cell of the exact tile costs
/// 2–3 ns on the AVX2 reference lane and 12–18 ns on the scalar lane up
/// to `k = 10⁴`, but up to about 70 ns at `k = 10⁶` on either (a grid of
/// fewer than eight interior points runs per point, and the binomial
/// tails walk through subnormals). On a 2-vCPU x86-64 VM the largest
/// admissible exact responses (`k = 10⁶` at resolution 8, `k = 38 909`
/// at 256, `k = 151` at 2¹⁶) answered within 0.7 s on either lane. A
/// catalog scan is charged for each of its 11 rows, so its largest
/// admissible shapes (`k = 454 544` at resolution 1, `k = 101 009` at 8,
/// `k = 3 536` at 256) answered within 0.26 s on the scalar lane
/// (`DISPERSAL_FORCE_SCALAR=1`) and on the AVX2 lane.
pub const MAX_RESPONSE_WORK: u64 = 10_000_000;

/// Work of an exact `"response"` or `"catalog"` shape over `rows` curves
/// (1 for a response, every catalog row for a scan): each curve's
/// `resolution + 1` grid points times the `k + 1` cells of each point's
/// PMF walk and coefficient dot. Saturates instead of wrapping.
pub fn response_work(rows: usize, k: usize, resolution: usize) -> u64 {
    (rows as u64)
        .saturating_mul((k as u64).saturating_add(1))
        .saturating_mul((resolution as u64).saturating_add(1))
}

/// Refuse a `what` request (an exact `"response"` or a `"catalog"` scan)
/// over `rows` curves whose [`response_work`] exceeds
/// [`MAX_RESPONSE_WORK`], naming the charge and the budget.
fn within_response_budget(
    what: &str,
    rows: usize,
    k: usize,
    resolution: usize,
) -> Result<(), String> {
    let work = response_work(rows, k, resolution);
    if work > MAX_RESPONSE_WORK {
        return Err(format!(
            "{what} work {rows}·(k + 1)·(resolution + 1) = {work} exceeds the limit \
             {MAX_RESPONSE_WORK}"
        ));
    }
    Ok(())
}

/// Worst-case work of an `"ess"` probe on `sites` sites: its `6M + 6`
/// structured mutants plus the random ones, each a full ledger of `M`
/// sites × `k` levels × `k` table cells. Saturates instead of wrapping.
pub fn ess_work(sites: usize, k: usize, mutants: usize) -> u64 {
    let mutants_probed =
        (sites as u64).saturating_mul(6).saturating_add(6).saturating_add(mutants as u64);
    mutants_probed.saturating_mul(sites as u64).saturating_mul(k as u64).saturating_mul(k as u64)
}

/// A parsed request body (everything except the echoed `id`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One congestion-response curve over the uniform
    /// `dispersal_core::kernel::unit_grid`. With `tol` the daemon serves
    /// it from the shared interpolation-grid cache
    /// ([`crate::batch::eval_interp_tile`]: `O(1)` per point,
    /// ≤ `tol × scale` from exact); without, the exact reference path
    /// ([`crate::batch::eval_exact_tile`], a reference-mode `GBatch` row
    /// bit-identical to the scalar `PayoffContext::g`).
    Response {
        /// Policy spec string (e.g. `"sharing"`, `"two-level:-0.25"`).
        policy: String,
        /// Player count.
        k: usize,
        /// Grid resolution (the curve has `resolution + 1` points).
        resolution: usize,
        /// Interpolation tolerance; `None` selects the exact path.
        tol: Option<f64>,
    },
    /// IFD equilibrium of a policy on a profile.
    Equilibrium {
        /// Policy spec string.
        policy: String,
        /// Profile spec string (e.g. `"zipf:20:1.0"`).
        profile: String,
        /// Player count.
        k: usize,
    },
    /// ESS probe of `sigma*` under the exclusive policy (the CLI's
    /// `dispersal ess` semantics).
    Ess {
        /// Profile spec string.
        profile: String,
        /// Player count.
        k: usize,
        /// Number of random mutants to probe.
        mutants: usize,
        /// RNG seed for the mutant stream.
        seed: u64,
    },
    /// Score the standard mechanism catalog (warm `ResponseCache` tile).
    Catalog {
        /// Player count.
        k: usize,
        /// Grid resolution.
        resolution: usize,
    },
    /// Metrics snapshot: request/batch counters plus cache stats.
    Stats,
    /// Graceful stop; the daemon replies, then prints its summary.
    Shutdown,
    /// Time-varying traffic tracking: replicator dynamics follow a
    /// scenario's moving equilibrium
    /// ([`dispersal_sim::scenario::run_scenario_replicator`]).
    Scenario {
        /// Policy spec string.
        policy: String,
        /// Profile spec string (the scenario's base values).
        profile: String,
        /// Player count.
        k: usize,
        /// Number of epochs in the schedule.
        epochs: u64,
        /// Traffic events perturbing the base values (may be empty).
        events: Vec<TrafficEvent>,
        /// Exploration floor mixed in at epoch boundaries (default 0).
        explore: f64,
    },
}

/// Read a `u64` out of a JSON number value.
fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Read an `f64` out of a JSON number value.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn field<'v>(entries: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    entries.iter().find(|(key, _)| key == name).map(|(_, value)| value)
}

fn require_str(entries: &[(String, Value)], name: &str) -> Result<String, String> {
    field(entries, name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field \"{name}\""))
}

fn require_usize(entries: &[(String, Value)], name: &str) -> Result<usize, String> {
    field(entries, name)
        .and_then(as_u64)
        .map(|u| u as usize)
        .ok_or_else(|| format!("missing or non-integer field \"{name}\""))
}

fn optional_usize(
    entries: &[(String, Value)],
    name: &str,
    default: usize,
) -> Result<usize, String> {
    match field(entries, name) {
        None => Ok(default),
        Some(v) => {
            as_u64(v).map(|u| u as usize).ok_or_else(|| format!("non-integer field \"{name}\""))
        }
    }
}

/// Refuse `value` above `limit`, naming the field and the limit, so an
/// oversized field is answered in place instead of reaching an
/// allocation or a loop sized by it.
fn at_most<T: PartialOrd + std::fmt::Display>(name: &str, value: T, limit: T) -> Result<T, String> {
    if value > limit {
        return Err(format!("field \"{name}\" = {value} exceeds the limit {limit}"));
    }
    Ok(value)
}

fn require_k(entries: &[(String, Value)]) -> Result<usize, String> {
    at_most("k", require_usize(entries, "k")?, MAX_K)
}

/// `"resolution"` in `1..=MAX_RESOLUTION`: a grid needs at least one
/// step, and refusing 0 here keeps the line out of the admission queue.
fn optional_resolution(entries: &[(String, Value)]) -> Result<usize, String> {
    let resolution = optional_usize(entries, "resolution", DEFAULT_RESOLUTION)?;
    if resolution == 0 {
        return Err("field \"resolution\" = 0 is below the minimum 1".into());
    }
    at_most("resolution", resolution, MAX_RESOLUTION)
}

fn require_u64(entries: &[(String, Value)], name: &str) -> Result<u64, String> {
    field(entries, name)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{name}\""))
}

fn require_f64(entries: &[(String, Value)], name: &str) -> Result<f64, String> {
    field(entries, name)
        .and_then(as_f64)
        .ok_or_else(|| format!("missing or non-number field \"{name}\""))
}

/// Parse one `"events"` entry: an object tagged by `"type"` —
/// `daily {amplitude, period}`, `drift {site, rate}`, or
/// `shock {epoch, site, factor}`. Range validation (amplitude bounds,
/// positive factors, site indices) is the scenario engine's job; the
/// protocol only checks shape.
fn parse_event(value: &Value) -> Result<TrafficEvent, String> {
    let Some(entries) = value.as_object() else {
        return Err("each event must be a JSON object".into());
    };
    match require_str(entries, "type")?.as_str() {
        "daily" => Ok(TrafficEvent::Daily {
            amplitude: require_f64(entries, "amplitude")?,
            period: require_u64(entries, "period")?,
        }),
        "drift" => Ok(TrafficEvent::Drift {
            site: require_usize(entries, "site")?,
            rate: require_f64(entries, "rate")?,
        }),
        "shock" => Ok(TrafficEvent::Shock {
            epoch: require_u64(entries, "epoch")?,
            site: require_usize(entries, "site")?,
            factor: require_f64(entries, "factor")?,
        }),
        other => Err(format!("unknown event type \"{other}\"")),
    }
}

/// Parse one request line. Returns the request `id` (0 when the line is
/// malformed beyond recovery) plus either the parsed body or the error
/// message the reply should carry — so a bad line still yields an
/// addressed error reply instead of a dropped connection.
pub fn parse_line(line: &str) -> (u64, Result<Request, String>) {
    let value: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return (0, Err(format!("bad JSON: {e}"))),
    };
    let Some(entries) = value.as_object() else {
        return (0, Err("request must be a JSON object".into()));
    };
    let id = field(entries, "id").and_then(as_u64).unwrap_or(0);
    let cmd = match require_str(entries, "cmd") {
        Ok(c) => c,
        Err(e) => return (id, Err(e)),
    };
    let body = match cmd.as_str() {
        "response" => (|| {
            let policy = require_str(entries, "policy")?;
            let k = require_k(entries)?;
            let resolution = optional_resolution(entries)?;
            let tol = match field(entries, "tol") {
                None => None,
                Some(v) => Some(as_f64(v).ok_or("non-number field \"tol\"".to_string())?),
            };
            if tol.is_none() {
                within_response_budget("response", 1, k, resolution)?;
            }
            Ok(Request::Response { policy, k, resolution, tol })
        })(),
        "equilibrium" => (|| {
            Ok(Request::Equilibrium {
                policy: require_str(entries, "policy")?,
                profile: require_str(entries, "profile")?,
                k: require_k(entries)?,
            })
        })(),
        "ess" => (|| {
            Ok(Request::Ess {
                profile: require_str(entries, "profile")?,
                k: require_k(entries)?,
                mutants: at_most(
                    "mutants",
                    optional_usize(entries, "mutants", DEFAULT_MUTANTS)?,
                    MAX_MUTANTS,
                )?,
                seed: field(entries, "seed")
                    .map(|v| as_u64(v).ok_or("non-integer field \"seed\"".to_string()))
                    .transpose()?
                    .unwrap_or(DEFAULT_SEED),
            })
        })(),
        "catalog" => (|| {
            let k = require_k(entries)?;
            let resolution = optional_resolution(entries)?;
            within_response_budget("catalog", standard_catalog().len(), k, resolution)?;
            Ok(Request::Catalog { k, resolution })
        })(),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "scenario" => (|| {
            let events = match field(entries, "events") {
                None => Vec::new(),
                Some(Value::Array(items)) => {
                    items.iter().map(parse_event).collect::<Result<Vec<_>, _>>()?
                }
                Some(_) => return Err("field \"events\" must be an array".to_string()),
            };
            Ok(Request::Scenario {
                policy: require_str(entries, "policy")?,
                profile: require_str(entries, "profile")?,
                k: require_k(entries)?,
                epochs: at_most("epochs", require_u64(entries, "epochs")?, MAX_EPOCHS)?,
                events,
                explore: match field(entries, "explore") {
                    None => 0.0,
                    Some(v) => as_f64(v).ok_or("non-number field \"explore\"".to_string())?,
                },
            })
        })(),
        other => Err(format!("unknown cmd \"{other}\"")),
    };
    (id, body)
}

/// Build an object `Value` from field pairs (order-preserving).
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(name, value)| (name.to_string(), value)).collect())
}

/// A float array as a JSON value.
pub fn float_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

/// Render the success reply line for `id` (no trailing newline).
pub fn ok_reply(id: u64, result: Value) -> String {
    render(object(vec![("id", Value::UInt(id)), ("ok", Value::Bool(true)), ("result", result)]))
}

/// Render the error reply line for `id` (no trailing newline).
pub fn err_reply(id: u64, message: &str) -> String {
    render(object(vec![
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::Str(message.to_string())),
    ]))
}

fn render(value: Value) -> String {
    // The only way the codec can fail is a non-finite float; surface it
    // as an addressed error line rather than a protocol violation.
    serde_json::to_string(&value).unwrap_or_else(|e| {
        format!("{{\"id\":0,\"ok\":false,\"error\":\"unencodable reply: {e}\"}}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let (id, req) = parse_line(r#"{"id":1,"cmd":"response","policy":"sharing","k":64}"#);
        assert_eq!(id, 1);
        assert_eq!(
            req.unwrap(),
            Request::Response {
                policy: "sharing".into(),
                k: 64,
                resolution: DEFAULT_RESOLUTION,
                tol: None
            }
        );
        let (_, req) = parse_line(
            r#"{"id":2,"cmd":"response","policy":"power:2.0","k":8,"resolution":32,"tol":1e-9}"#,
        );
        assert_eq!(
            req.unwrap(),
            Request::Response { policy: "power:2.0".into(), k: 8, resolution: 32, tol: Some(1e-9) }
        );
        let (_, req) = parse_line(
            r#"{"id":3,"cmd":"equilibrium","policy":"sharing","profile":"zipf:5:1.0","k":4}"#,
        );
        assert_eq!(
            req.unwrap(),
            Request::Equilibrium { policy: "sharing".into(), profile: "zipf:5:1.0".into(), k: 4 }
        );
        let (_, req) = parse_line(r#"{"id":4,"cmd":"ess","profile":"zipf:5:1.0","k":4}"#);
        assert_eq!(
            req.unwrap(),
            Request::Ess {
                profile: "zipf:5:1.0".into(),
                k: 4,
                mutants: DEFAULT_MUTANTS,
                seed: DEFAULT_SEED
            }
        );
        let (_, req) = parse_line(r#"{"id":5,"cmd":"catalog","k":6}"#);
        assert_eq!(req.unwrap(), Request::Catalog { k: 6, resolution: DEFAULT_RESOLUTION });
        assert_eq!(parse_line(r#"{"id":6,"cmd":"stats"}"#).1.unwrap(), Request::Stats);
        assert_eq!(parse_line(r#"{"id":7,"cmd":"shutdown"}"#).1.unwrap(), Request::Shutdown);
        let (_, req) = parse_line(
            r#"{"id":8,"cmd":"scenario","policy":"sharing","profile":"zipf:5:1.0","k":3,
                "epochs":8,"explore":1e-4,
                "events":[{"type":"daily","amplitude":0.25,"period":8},
                          {"type":"drift","site":1,"rate":-0.05},
                          {"type":"shock","epoch":4,"site":2,"factor":2.0}]}"#,
        );
        assert_eq!(
            req.unwrap(),
            Request::Scenario {
                policy: "sharing".into(),
                profile: "zipf:5:1.0".into(),
                k: 3,
                epochs: 8,
                events: vec![
                    TrafficEvent::Daily { amplitude: 0.25, period: 8 },
                    TrafficEvent::Drift { site: 1, rate: -0.05 },
                    TrafficEvent::Shock { epoch: 4, site: 2, factor: 2.0 },
                ],
                explore: 1e-4,
            }
        );
        // Events and explore are optional; epochs is not.
        let (_, req) = parse_line(
            r#"{"id":9,"cmd":"scenario","policy":"sharing","profile":"zipf:5:1.0","k":3,"epochs":2}"#,
        );
        assert_eq!(
            req.unwrap(),
            Request::Scenario {
                policy: "sharing".into(),
                profile: "zipf:5:1.0".into(),
                k: 3,
                epochs: 2,
                events: vec![],
                explore: 0.0,
            }
        );
        let (_, req) = parse_line(
            r#"{"id":10,"cmd":"scenario","policy":"sharing","profile":"zipf:5:1.0","k":3}"#,
        );
        assert!(req.unwrap_err().contains("epochs"));
        let (_, req) = parse_line(
            r#"{"id":11,"cmd":"scenario","policy":"s","profile":"p","k":3,"epochs":2,
                "events":[{"type":"quake","site":0}]}"#,
        );
        assert!(req.unwrap_err().contains("unknown event type"));
    }

    #[test]
    fn malformed_lines_keep_their_id_when_possible() {
        let (id, req) = parse_line(r#"{"id":9,"cmd":"warp"}"#);
        assert_eq!(id, 9);
        assert!(req.unwrap_err().contains("unknown cmd"));
        let (id, req) = parse_line(r#"{"id":10,"cmd":"response","k":4}"#);
        assert_eq!(id, 10);
        assert!(req.unwrap_err().contains("policy"));
        let (id, req) = parse_line("not json at all");
        assert_eq!(id, 0);
        assert!(req.is_err());
        let (_, req) = parse_line(r#"{"cmd":"response","policy":"sharing","k":-3}"#);
        assert!(req.unwrap_err().contains('k'));
    }

    #[test]
    fn size_fields_are_bounded_at_their_limits() {
        let cases = [
            // Tolerance mode, so the exact-work budget stays out of the way.
            (r#""cmd":"response","policy":"s","k":N,"tol":1e-9"#, MAX_K as u64),
            (r#""cmd":"response","policy":"s","k":2,"resolution":N"#, MAX_RESOLUTION as u64),
            (r#""cmd":"catalog","k":2,"resolution":N"#, MAX_RESOLUTION as u64),
            (r#""cmd":"equilibrium","policy":"s","profile":"p","k":N"#, MAX_K as u64),
            (r#""cmd":"ess","profile":"p","k":2,"mutants":N"#, MAX_MUTANTS as u64),
            (r#""cmd":"scenario","policy":"s","profile":"p","k":2,"epochs":N"#, MAX_EPOCHS),
        ];
        for (fields, limit) in cases {
            let line = |n: u64| format!("{{\"id\":1,{}}}", fields.replace('N', &n.to_string()));
            assert!(parse_line(&line(limit)).1.is_ok(), "{} at its limit", line(limit));
            let err = parse_line(&line(limit + 1)).1.unwrap_err();
            assert!(err.contains(&format!("limit {limit}")), "{}: {err}", line(limit + 1));
        }
    }

    #[test]
    fn zero_resolution_is_refused_at_parse_time() {
        for line in [
            r#"{"id":1,"cmd":"response","policy":"sharing","k":4,"resolution":0}"#,
            r#"{"id":2,"cmd":"response","policy":"sharing","k":4,"resolution":0,"tol":1e-9}"#,
            r#"{"id":3,"cmd":"catalog","k":4,"resolution":0}"#,
        ] {
            let err = parse_line(line).1.unwrap_err();
            assert!(err.contains("\"resolution\"") && err.contains("minimum 1"), "{line}: {err}");
            let one = line.replace("\"resolution\":0", "\"resolution\":1");
            assert!(parse_line(&one).1.is_ok(), "{one}");
        }
    }

    #[test]
    fn ess_work_admits_every_shipped_request_and_saturates() {
        // The benchmark's burst mix, the roundtrip test and the malformed
        // test's largest mutant count all stay admissible.
        for (sites, k, mutants) in [(20, 8, 16), (10, 4, 20), (5, 3, MAX_MUTANTS)] {
            let work = ess_work(sites, k, mutants);
            assert!(work <= MAX_ESS_WORK, "zipf:{sites}, k = {k}, {mutants} mutants: {work}");
        }
        assert_eq!(ess_work(4, 1000, 0), 30 * 4 * 1000 * 1000);
        assert!(ess_work(4, 1000, 0) > MAX_ESS_WORK);
        assert_eq!(ess_work(MAX_K, MAX_K, MAX_MUTANTS), u64::MAX);
    }

    #[test]
    fn response_work_admits_every_shipped_shape_and_saturates() {
        // The benchmark's exact shapes (also loadgen's k = 64), the serve
        // tests' shapes, the slow-reader repro (k = 64 at 20 000), and the
        // largest resolution at small k, as responses; the benchmark's and
        // the serve tests' catalog scans, and the largest resolution at
        // small k, over every catalog row.
        let responses = [(16, 256), (64, 256), (256, 256), (8, 256), (16, 64), (12, 48), (8, 16)]
            .into_iter()
            .chain([(6, 32), (4, 8), (33, 96), (64, 20_000), (4, MAX_RESOLUTION)])
            .map(|shape| (1, shape));
        let rows = standard_catalog().len();
        let scans = [(8, 256), (6, 32), (6, DEFAULT_RESOLUTION), (4, MAX_RESOLUTION)]
            .into_iter()
            .map(|shape| (rows, shape));
        for (rows, (k, resolution)) in responses.chain(scans) {
            let work = response_work(rows, k, resolution);
            assert!(
                work <= MAX_RESPONSE_WORK,
                "{rows}·(k = {k}, resolution = {resolution}): {work}"
            );
        }
        assert_eq!(response_work(1, 64, 256), 65 * 257);
        assert_eq!(response_work(rows, 64, 256), rows as u64 * 65 * 257);
        assert_eq!(response_work(1, usize::MAX, usize::MAX), u64::MAX);
        // The largest legal fields exceed it in exact mode; a
        // tolerance-mode grid of the same shape is not budgeted.
        let huge = format!("\"k\":{MAX_K},\"resolution\":{MAX_RESOLUTION}");
        let limit = format!("limit {MAX_RESPONSE_WORK}");
        for line in [
            format!(r#"{{"id":1,"cmd":"response","policy":"sharing",{huge}}}"#),
            format!(r#"{{"id":2,"cmd":"catalog",{huge}}}"#),
        ] {
            let err = parse_line(&line).1.unwrap_err();
            assert!(err.contains(&limit) && err.contains("work"), "{line}: {err}");
        }
        let line = format!(r#"{{"id":3,"cmd":"response","policy":"sharing",{huge},"tol":1e-9}}"#);
        assert!(parse_line(&line).1.is_ok(), "{line}");
    }

    #[test]
    fn replies_round_trip_floats_bit_exactly() {
        let tricky = [0.1 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0, -0.0];
        let line = ok_reply(3, object(vec![("g", float_array(&tricky))]));
        let value: Value = serde_json::from_str(&line).unwrap();
        let entries = value.as_object().unwrap();
        assert_eq!(field(entries, "ok"), Some(&Value::Bool(true)));
        let result = field(entries, "result").unwrap().as_object().unwrap();
        let g = field(result, "g").unwrap().as_array().unwrap();
        for (orig, got) in tricky.iter().zip(g.iter()) {
            let Value::Float(f) = got else { panic!("not a float: {got:?}") };
            assert_eq!(orig.to_bits(), f.to_bits());
        }
        let err = err_reply(4, "boom");
        assert!(err.contains("\"ok\":false") && err.contains("boom"));
    }
}
