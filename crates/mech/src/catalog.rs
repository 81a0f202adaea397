//! A named catalog of congestion policies, and a small spec parser so
//! the `dispersal` CLI can select policies from the command line.

use dispersal_core::policy::{
    Congestion, Constant, Cooperative, Exclusive, LinearDecay, PowerLaw, Sharing, TwoLevel,
};
use dispersal_core::{Error, Result};

/// A named, boxed congestion policy.
pub struct NamedPolicy {
    /// Catalog name (stable identifier, e.g. `"two-level:0.3"`).
    pub name: String,
    /// The policy object.
    pub policy: Box<dyn Congestion>,
}

/// The standard catalog used by the experiments of this repository: the two
/// distinguished policies plus representatives of every family in Section
/// 1.1 (cooperative, intermediate, and aggressive).
pub fn standard_catalog() -> Vec<NamedPolicy> {
    let mut out: Vec<NamedPolicy> = Vec::new();
    let mut push = |name: &str, policy: Box<dyn Congestion>| {
        out.push(NamedPolicy { name: name.to_string(), policy });
    };
    push("exclusive", Box::new(Exclusive));
    push("sharing", Box::new(Sharing));
    push("constant", Box::new(Constant));
    for &c in &[-0.5, -0.25, 0.25, 0.5] {
        push(&format!("two-level:{c}"), Box::new(TwoLevel { c }));
    }
    for &beta in &[0.5, 2.0] {
        push(&format!("power:{beta}"), Box::new(PowerLaw { beta }));
    }
    push("linear:0.3", Box::new(LinearDecay { slope: 0.3 }));
    push("cooperative:0.5", Box::new(Cooperative { theta: 0.5 }));
    out
}

/// Parse a policy spec string:
/// `exclusive | sharing | constant | two-level:<c> | power:<beta> |
/// linear:<slope> | cooperative:<theta>`.
pub fn parse_policy(spec: &str) -> Result<Box<dyn Congestion>> {
    let (head, arg) = match spec.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (spec, None),
    };
    let parse_arg = |what: &str| -> Result<f64> {
        let value = arg
            .ok_or_else(|| {
                Error::InvalidArgument(format!("{what} requires an argument, e.g. {what}:0.3"))
            })?
            .parse::<f64>()
            .map_err(|e| Error::InvalidArgument(format!("bad {what} argument: {e}")))?;
        // `f64::from_str` happily parses "NaN"/"inf"; a non-finite
        // congestion factor would poison every payoff downstream.
        if !value.is_finite() {
            return Err(Error::InvalidArgument(format!("non-finite {what} argument: {value}")));
        }
        Ok(value)
    };
    match head {
        "exclusive" => Ok(Box::new(Exclusive)),
        "sharing" => Ok(Box::new(Sharing)),
        "constant" => Ok(Box::new(Constant)),
        "two-level" => Ok(Box::new(TwoLevel::new(parse_arg("two-level")?)?)),
        "power" => Ok(Box::new(PowerLaw::new(parse_arg("power")?)?)),
        "linear" => Ok(Box::new(LinearDecay::new(parse_arg("linear")?)?)),
        "cooperative" => Ok(Box::new(Cooperative::new(parse_arg("cooperative")?)?)),
        other => Err(Error::InvalidArgument(format!("unknown policy spec: {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_nonempty_and_valid() {
        let catalog = standard_catalog();
        assert!(catalog.len() >= 10);
        for named in &catalog {
            dispersal_core::policy::validate_congestion(named.policy.as_ref(), 8).unwrap();
        }
    }

    #[test]
    fn catalog_contains_the_two_distinguished_policies() {
        let names: Vec<String> = standard_catalog().into_iter().map(|n| n.name).collect();
        assert!(names.contains(&"exclusive".to_string()));
        assert!(names.contains(&"sharing".to_string()));
    }

    #[test]
    fn parse_round_trips_simple_specs() {
        assert!(parse_policy("exclusive").unwrap().is_exclusive_up_to(5));
        assert_eq!(parse_policy("sharing").unwrap().c(2), 0.5);
        assert_eq!(parse_policy("constant").unwrap().c(3), 1.0);
        assert_eq!(parse_policy("two-level:-0.3").unwrap().c(2), -0.3);
        assert_eq!(parse_policy("power:1").unwrap().c(4), 0.25);
        assert!((parse_policy("linear:0.1").unwrap().c(2) - 0.9).abs() < 1e-12);
        assert!(parse_policy("cooperative:0.5").unwrap().c(2) > 0.5);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(parse_policy("bogus").is_err());
        assert!(parse_policy("two-level").is_err());
        assert!(parse_policy("two-level:abc").is_err());
        assert!(parse_policy("power:-1").is_err());
    }

    #[test]
    fn parse_rejects_non_finite_policy_arguments() {
        // Regression: `f64::from_str` accepts "NaN"/"inf"/"-inf", and the
        // pre-fix parser forwarded them into policy constructors whose own
        // range checks (e.g. Cooperative's `theta > 0`) NaN slips past.
        // The parser must reject non-finite arguments itself, with a
        // distinctive "non-finite" message.
        for spec in ["cooperative:NaN", "cooperative:inf", "two-level:-inf", "linear:NaN"] {
            let err = match parse_policy(spec) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("spec {spec} parsed"),
            };
            assert!(err.contains("non-finite"), "spec {spec} gave: {err}");
        }
    }
}

/// Largest integer a profile spec may carry: the site count `M` (and
/// `slow-decay`'s `k`). A spec string cannot request a larger profile.
pub const MAX_PROFILE_SITES: usize = 1_000_000;

/// Parse a value-profile spec string:
/// `zipf:<M>:<s> | geometric:<M>:<rho> | linear:<M>:<hi>:<lo> |
/// uniform:<M>:<v> | slow-decay:<M>:<k> | values:<v1>,<v2>,…`.
/// Integers above [`MAX_PROFILE_SITES`] are refused.
pub fn parse_profile(spec: &str) -> Result<dispersal_core::value::ValueProfile> {
    use dispersal_core::value::ValueProfile;
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let num = |s: &str| -> Result<f64> {
        let value = s.parse::<f64>().map_err(|e| {
            Error::InvalidArgument(format!("bad number '{s}' in profile spec: {e}"))
        })?;
        if !value.is_finite() {
            return Err(Error::InvalidArgument(format!("non-finite number '{s}' in profile spec")));
        }
        Ok(value)
    };
    let int = |s: &str| -> Result<usize> {
        let value = s.parse::<usize>().map_err(|e| {
            Error::InvalidArgument(format!("bad integer '{s}' in profile spec: {e}"))
        })?;
        if value > MAX_PROFILE_SITES {
            return Err(Error::InvalidArgument(format!(
                "integer {value} in profile spec exceeds the limit {MAX_PROFILE_SITES}"
            )));
        }
        Ok(value)
    };
    let need = |n: usize| -> Result<()> {
        if rest.len() != n {
            return Err(Error::InvalidArgument(format!(
                "profile spec '{spec}' expects {n} arguments, got {}",
                rest.len()
            )));
        }
        Ok(())
    };
    match head {
        "zipf" => {
            need(2)?;
            ValueProfile::zipf(int(rest[0])?, 1.0, num(rest[1])?)
        }
        "geometric" => {
            need(2)?;
            ValueProfile::geometric(int(rest[0])?, 1.0, num(rest[1])?)
        }
        "linear" => {
            need(3)?;
            ValueProfile::linear(int(rest[0])?, num(rest[1])?, num(rest[2])?)
        }
        "uniform" => {
            need(2)?;
            ValueProfile::uniform(int(rest[0])?, num(rest[1])?)
        }
        "slow-decay" => {
            need(2)?;
            ValueProfile::slow_decay_witness(int(rest[0])?, int(rest[1])?)
        }
        "values" => {
            need(1)?;
            let values: Result<Vec<f64>> = rest[0].split(',').map(num).collect();
            ValueProfile::from_unsorted(values?)
        }
        other => Err(Error::InvalidArgument(format!("unknown profile family: {other}"))),
    }
}

#[cfg(test)]
mod profile_spec_tests {
    use super::parse_profile;

    #[test]
    fn parses_every_family() {
        assert_eq!(parse_profile("zipf:5:1.0").unwrap().len(), 5);
        assert_eq!(parse_profile("geometric:4:0.5").unwrap().len(), 4);
        assert_eq!(parse_profile("linear:3:1.0:0.5").unwrap().len(), 3);
        assert_eq!(parse_profile("uniform:6:2.0").unwrap().len(), 6);
        assert_eq!(parse_profile("slow-decay:12:3").unwrap().len(), 12);
        let v = parse_profile("values:0.5,1.0,0.25").unwrap();
        assert_eq!(v.values(), &[1.0, 0.5, 0.25]);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_profile("zipf:5").is_err());
        assert!(parse_profile("zipf:x:1").is_err());
        assert!(parse_profile("martian:3:1").is_err());
        assert!(parse_profile("values:1.0,-2.0").is_err());
        assert!(parse_profile("linear:3:0.2:0.9").is_err());
        let err = parse_profile("zipf:18446744073709551615:1.0").unwrap_err().to_string();
        assert!(err.contains("1000000"), "site limit not named: {err}");
        assert!(parse_profile("uniform:1000001:1.0").is_err());
    }

    #[test]
    fn rejects_non_finite_profile_numbers() {
        // Regression: pre-fix, "zipf:5:inf" and friends parsed and reached
        // ValueProfile constructors with non-finite shape parameters.
        for spec in ["zipf:5:inf", "geometric:4:NaN", "uniform:6:inf", "values:1.0,NaN"] {
            let err = parse_profile(spec).unwrap_err().to_string();
            assert!(err.contains("non-finite"), "spec {spec} gave: {err}");
        }
    }
}
