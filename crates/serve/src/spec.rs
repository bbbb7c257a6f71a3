//! Campaign submission specs: the JSON bodies `POST /campaigns`
//! accepts, parsed into typed configs for the four campaign kinds the
//! daemon can run.
//!
//! The raw JSON object rides along with the parsed form — it is what
//! the durable queue journals in `queue.accepted`, so a recovered
//! daemon re-parses exactly what the client submitted (round-tripping
//! through the typed form could silently re-default fields added by a
//! newer build).

use serde::Value;

/// A parsed campaign kind with its parameters (defaults applied).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignKind {
    /// Fault-injected GWTW over the real flow-option tree (the
    /// `fig06a_gwtw --chaos` workload) — the only kind with
    /// checkpoint-resume state worth keeping (`flow.sample` events in
    /// its journal).
    Chaos {
        /// GWTW review rounds.
        rounds: usize,
        /// Search seed.
        seed: u64,
        /// Per-mode fault rate.
        fault_rate: f64,
    },
    /// GWTW vs independent threads on a synthetic big-valley landscape
    /// (pure math, ms-scale — the load unit of the daemon's overload
    /// test and of `campaign_bench`'s `short_campaigns`).
    Gwtw {
        /// Landscape dimension.
        dim: usize,
        /// Landscape/search seed.
        seed: u64,
    },
    /// Adaptive vs random multistart on the same landscape family.
    Multistart {
        /// Landscape dimension.
        dim: usize,
        /// Multistart starts.
        starts: usize,
        /// Seed.
        seed: u64,
    },
    /// Thompson-sampling tool-run scheduling (the Fig 7 schedule).
    Bandit {
        /// Design size in instances.
        instances: usize,
        /// Seed.
        seed: u64,
    },
}

/// A validated submission: the typed kind plus the raw JSON object it
/// was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Parsed campaign kind.
    pub kind: CampaignKind,
    /// The submitted JSON object, verbatim.
    pub raw: Value,
}

fn get_usize(v: &Value, key: &str, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as usize),
        Some(other) => Err(format!(
            "{key}: expected a non-negative integer, got {other:?}"
        )),
    }
}

fn get_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(other) => Err(format!(
            "{key}: expected a non-negative integer, got {other:?}"
        )),
    }
}

fn get_f64(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Float(f)) if f.is_finite() => Ok(*f),
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(other) => Err(format!("{key}: expected a finite number, got {other:?}")),
    }
}

impl CampaignSpec {
    /// Parses a submission body. `{"kind": "chaos", ...}` selects the
    /// campaign; unknown keys are rejected so typos fail loudly at
    /// submit time rather than silently running defaults.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a non-object body, missing
    /// or unknown `kind`, unknown keys, or out-of-range parameters.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("body must be a JSON object")?;
        let kind_name = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing string field: kind")?;
        let allowed: &[&str] = match kind_name {
            "chaos" => &["kind", "rounds", "seed", "fault_rate"],
            "gwtw" => &["kind", "dim", "seed"],
            "multistart" => &["kind", "dim", "starts", "seed"],
            "bandit" => &["kind", "instances", "seed"],
            other => return Err(format!("unknown campaign kind: {other:?}")),
        };
        for (key, _) in obj {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown field for kind {kind_name:?}: {key}"));
            }
        }
        let kind = match kind_name {
            "chaos" => {
                let defaults =
                    ideaflow_bench::experiments::fig06_orchestration::ChaosConfig::default();
                let rounds = get_usize(v, "rounds", defaults.rounds)?;
                if rounds == 0 || rounds > 64 {
                    return Err(format!("rounds must be in 1..=64, got {rounds}"));
                }
                let fault_rate = get_f64(v, "fault_rate", defaults.fault_rate)?;
                if !(0.0..=0.2).contains(&fault_rate) {
                    return Err(format!("fault_rate must be in [0, 0.2], got {fault_rate}"));
                }
                CampaignKind::Chaos {
                    rounds,
                    seed: get_u64(v, "seed", defaults.seed)?,
                    fault_rate,
                }
            }
            "gwtw" => CampaignKind::Gwtw {
                dim: bounded_dim(get_usize(v, "dim", 8)?)?,
                seed: get_u64(v, "seed", 0)?,
            },
            "multistart" => CampaignKind::Multistart {
                dim: bounded_dim(get_usize(v, "dim", 8)?)?,
                starts: {
                    let s = get_usize(v, "starts", 16)?;
                    if s == 0 || s > 256 {
                        return Err(format!("starts must be in 1..=256, got {s}"));
                    }
                    s
                },
                seed: get_u64(v, "seed", 0)?,
            },
            "bandit" => CampaignKind::Bandit {
                instances: {
                    let n = get_usize(v, "instances", 200)?;
                    if !(50..=2000).contains(&n) {
                        return Err(format!("instances must be in 50..=2000, got {n}"));
                    }
                    n
                },
                seed: get_u64(v, "seed", 0)?,
            },
            _ => unreachable!("kind validated above"),
        };
        Ok(Self {
            kind,
            raw: v.clone(),
        })
    }

    /// The kind as its wire name.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            CampaignKind::Chaos { .. } => "chaos",
            CampaignKind::Gwtw { .. } => "gwtw",
            CampaignKind::Multistart { .. } => "multistart",
            CampaignKind::Bandit { .. } => "bandit",
        }
    }
}

fn bounded_dim(dim: usize) -> Result<usize, String> {
    if (2..=64).contains(&dim) {
        Ok(dim)
    } else {
        Err(format!("dim must be in 2..=64, got {dim}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<CampaignSpec, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        CampaignSpec::from_value(&v)
    }

    #[test]
    fn parses_each_kind_with_defaults_and_overrides() {
        let chaos = parse(r#"{"kind": "chaos"}"#).unwrap();
        assert_eq!(chaos.kind_name(), "chaos");
        assert!(matches!(chaos.kind, CampaignKind::Chaos { rounds: 6, .. }));

        let chaos2 = parse(r#"{"kind": "chaos", "rounds": 3, "seed": 9}"#).unwrap();
        assert!(matches!(
            chaos2.kind,
            CampaignKind::Chaos {
                rounds: 3,
                seed: 9,
                ..
            }
        ));

        let gwtw = parse(r#"{"kind": "gwtw", "dim": 6, "seed": 4}"#).unwrap();
        assert!(matches!(gwtw.kind, CampaignKind::Gwtw { dim: 6, seed: 4 }));

        let ms = parse(r#"{"kind": "multistart", "starts": 8}"#).unwrap();
        assert!(matches!(
            ms.kind,
            CampaignKind::Multistart {
                starts: 8,
                dim: 8,
                ..
            }
        ));

        let mab = parse(r#"{"kind": "bandit", "instances": 150}"#).unwrap();
        assert!(matches!(
            mab.kind,
            CampaignKind::Bandit { instances: 150, .. }
        ));
    }

    #[test]
    fn rejects_bad_specs_loudly() {
        assert!(parse(r#"[1, 2]"#).unwrap_err().contains("object"));
        assert!(parse(r#"{"rounds": 3}"#).unwrap_err().contains("kind"));
        assert!(parse(r#"{"kind": "nope"}"#)
            .unwrap_err()
            .contains("unknown campaign kind"));
        assert!(parse(r#"{"kind": "gwtw", "rounds": 3}"#)
            .unwrap_err()
            .contains("unknown field"));
        assert!(parse(r#"{"kind": "chaos", "rounds": 0}"#)
            .unwrap_err()
            .contains("rounds"));
        assert!(parse(r#"{"kind": "chaos", "fault_rate": 0.9}"#)
            .unwrap_err()
            .contains("fault_rate"));
        assert!(parse(r#"{"kind": "gwtw", "dim": 1}"#)
            .unwrap_err()
            .contains("dim"));
    }

    #[test]
    fn raw_round_trips_through_json() {
        let spec = parse(r#"{"kind": "chaos", "rounds": 2}"#).unwrap();
        let re: Value = serde_json::from_str(&serde_json::to_string(&spec.raw).unwrap()).unwrap();
        let again = CampaignSpec::from_value(&re).unwrap();
        assert_eq!(spec, again);
    }
}
