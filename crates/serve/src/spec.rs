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

/// The most characters of a client-supplied name (an unknown kind or
/// field) an error message quotes. `http_api::submit` answers with the
/// message, so a 400 stays small whatever the body: even a name of
/// control characters, each quoted as `\u{..}`, fits in 256 bytes.
const MAX_ECHO: usize = 16;

/// `name`, quoted, cut to [`MAX_ECHO`] characters.
fn echo(name: &str) -> String {
    let mut chars = name.chars();
    let head: String = chars.by_ref().take(MAX_ECHO).collect();
    let cut = if chars.next().is_some() { "..." } else { "" };
    format!("{head:?}{cut}")
}

/// What a rejected value is, for an error message: its kind, never the
/// value, which can be as large as the body.
fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Int(i) if *i < 0 => "a negative integer",
        Value::Int(_) => "an integer",
        Value::Float(f) if f.is_finite() => "a float",
        Value::Float(_) => "a non-finite number",
        Value::Str(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

/// The non-negative integer at `key` as a `T`, or `default` when the
/// key is absent.
fn get_uint<T: TryFrom<i64>>(v: &Value, key: &str, default: T) -> Result<T, String> {
    let Some(found) = v.get(key) else {
        return Ok(default);
    };
    if let Value::Int(i) = found {
        if let Ok(x) = T::try_from(*i) {
            return Ok(x);
        }
    }
    Err(format!(
        "{key}: expected a non-negative integer, got {}",
        kind_of(found)
    ))
}

fn get_f64(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Float(f)) if f.is_finite() => Ok(*f),
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(other) => Err(format!(
            "{key}: expected a finite number, got {}",
            kind_of(other)
        )),
    }
}

impl CampaignSpec {
    /// Parses a submission body. `{"kind": "chaos", ...}` selects the
    /// campaign; unknown keys are rejected so typos fail loudly at
    /// submit time rather than silently running defaults, and so is a
    /// repeated key, which readers of the journaled body could resolve
    /// differently (this parser reads the first entry).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message of at most 256 bytes for a
    /// non-object body, missing or unknown `kind`, unknown or repeated
    /// keys, or out-of-range parameters.
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
            other => return Err(format!("unknown campaign kind: {}", echo(other))),
        };
        for (i, (key, _)) in obj.iter().enumerate() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field for kind {kind_name:?}: {}",
                    echo(key)
                ));
            }
            // Every earlier key is allowed too, so this scan stops within
            // `allowed.len()` entries however many keys the body holds.
            if obj[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("repeated key `{key}`"));
            }
        }
        let kind = match kind_name {
            "chaos" => {
                let defaults =
                    ideaflow_bench::experiments::fig06_orchestration::ChaosConfig::default();
                let rounds = get_uint(v, "rounds", defaults.rounds)?;
                if rounds == 0 || rounds > 64 {
                    return Err(format!("rounds must be in 1..=64, got {rounds}"));
                }
                let fault_rate = get_f64(v, "fault_rate", defaults.fault_rate)?;
                if !(0.0..=0.2).contains(&fault_rate) {
                    return Err(format!("fault_rate must be in [0, 0.2], got {fault_rate}"));
                }
                CampaignKind::Chaos {
                    rounds,
                    seed: get_uint(v, "seed", defaults.seed)?,
                    fault_rate,
                }
            }
            "gwtw" => CampaignKind::Gwtw {
                dim: bounded_dim(get_uint(v, "dim", 8)?)?,
                seed: get_uint(v, "seed", 0)?,
            },
            "multistart" => CampaignKind::Multistart {
                dim: bounded_dim(get_uint(v, "dim", 8)?)?,
                starts: {
                    let s = get_uint(v, "starts", 16)?;
                    if s == 0 || s > 256 {
                        return Err(format!("starts must be in 1..=256, got {s}"));
                    }
                    s
                },
                seed: get_uint(v, "seed", 0)?,
            },
            "bandit" => CampaignKind::Bandit {
                instances: {
                    let n = get_uint(v, "instances", 200)?;
                    if !(50..=2000).contains(&n) {
                        return Err(format!("instances must be in 50..=2000, got {n}"));
                    }
                    n
                },
                seed: get_uint(v, "seed", 0)?,
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
    use proptest::prelude::*;

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
        assert_eq!(
            parse(r#"{"kind": "gwtw", "dim": 4, "dim": 9999}"#).unwrap_err(),
            "repeated key `dim`"
        );
        assert_eq!(
            parse(r#"{"kind": "gwtw", "kind": "chaos"}"#).unwrap_err(),
            "repeated key `kind`"
        );
    }

    #[test]
    fn a_rejection_stays_small_whatever_the_body() {
        // 240,025 bytes: a dim of 120,001 zeros.
        let zeros = vec!["0"; 120_001].join(",");
        let body = format!(r#"{{"kind":"gwtw","dim":[{zeros}]}}"#);
        assert_eq!(body.len(), 240_025);
        assert_eq!(
            parse(&body).unwrap_err(),
            "dim: expected a non-negative integer, got an array"
        );
        let long = r"\u0001".repeat(10_000);
        let kind = parse(&format!(r#"{{"kind":"{long}"}}"#)).unwrap_err();
        assert!(
            kind.starts_with(r#"unknown campaign kind: "\u{1}"#),
            "{kind}"
        );
        let field = parse(&format!(r#"{{"kind":"gwtw","{long}":1}}"#)).unwrap_err();
        assert!(
            field.starts_with("unknown field for kind \"gwtw\""),
            "{field}"
        );
        for err in [kind, field] {
            assert!(err.len() <= 256, "{} bytes", err.len());
        }
    }

    #[test]
    fn raw_round_trips_through_json() {
        let spec = parse(r#"{"kind": "chaos", "rounds": 2}"#).unwrap();
        let re: Value = serde_json::from_str(&serde_json::to_string(&spec.raw).unwrap()).unwrap();
        let again = CampaignSpec::from_value(&re).unwrap();
        assert_eq!(spec, again);
    }

    const KINDS: [&str; 5] = ["chaos", "gwtw", "multistart", "bandit", "nope"];
    /// The keys each entry of [`KINDS`] accepts besides `kind`.
    const KEYS: [&[&str]; 5] = [
        &["rounds", "seed", "fault_rate"],
        &["dim", "seed"],
        &["dim", "starts", "seed"],
        &["instances", "seed"],
        &["rounds"],
    ];
    /// Integers on and around every documented range boundary.
    const EDGES: [i64; 14] = [-1, 0, 1, 2, 49, 50, 63, 64, 65, 256, 257, 1999, 2000, 2001];
    /// Floats on and around the `fault_rate` boundaries.
    const FLOAT_EDGES: [f64; 7] = [-0.01, -0.0, 0.0, 0.005, 0.2, 0.21, 64.0];

    /// `depth` containers around `leaf`; bit `i % 64` of `shape` picks an
    /// array or a one-key object at level `i`.
    fn nest(depth: usize, shape: u64, leaf: Value) -> Value {
        (0..depth).fold(leaf, |v, i| {
            if shape >> (i % 64) & 1 == 1 {
                Value::Array(vec![v])
            } else {
                Value::Object(vec![("seed".to_owned(), v)])
            }
        })
    }

    /// A value of the type `ty` picks (an integer half the time), deep
    /// containers included.
    fn value_of(ty: u8, edge: usize, depth: usize, shape: u64) -> Value {
        match ty {
            0 => Value::Null,
            1 => Value::Bool(edge.is_multiple_of(2)),
            2 => Value::Str(KINDS[edge % KINDS.len()].to_owned()),
            3 => Value::Float([f64::NAN, f64::INFINITY, 1e300][edge % 3]),
            4 => nest(depth, shape, Value::Int(EDGES[edge])),
            5..=7 => Value::Float(FLOAT_EDGES[edge % FLOAT_EDGES.len()]),
            _ => Value::Int(EDGES[edge]),
        }
    }

    /// The ranges `from_value` documents for every accepted spec.
    fn assert_documented_ranges(spec: &CampaignSpec) {
        match spec.kind {
            CampaignKind::Chaos {
                rounds, fault_rate, ..
            } => {
                assert!((1..=64).contains(&rounds), "rounds {rounds}");
                assert!((0.0..=0.2).contains(&fault_rate), "fault_rate {fault_rate}");
            }
            CampaignKind::Gwtw { dim, .. } => assert!((2..=64).contains(&dim), "dim {dim}"),
            CampaignKind::Multistart { dim, starts, .. } => {
                assert!((2..=64).contains(&dim), "dim {dim}");
                assert!((1..=256).contains(&starts), "starts {starts}");
            }
            CampaignKind::Bandit { instances, .. } => {
                assert!((50..=2000).contains(&instances), "instances {instances}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Trees built in memory skip the JSON parser's 64-level bound,
        /// so they nest well past it here. Every rejection fits in 256
        /// bytes, and every body with a repeated key is rejected.
        #[test]
        fn from_value_never_panics_and_holds_its_ranges(
            kind in 0usize..5,
            present in collection::vec(0u8..3, 3),
            types in collection::vec(0u8..16, 4),
            edges in collection::vec(0usize..14, 4),
            extra in 0usize..12,
            depth in 60usize..300,
            shape in 0u64..u64::MAX,
        ) {
            let mut entries = vec![("kind".to_owned(), Value::Str(KINDS[kind].to_owned()))];
            for (i, key) in KEYS[kind].iter().enumerate() {
                if present[i] > 0 {
                    let v = value_of(types[i], edges[i], depth, shape);
                    entries.push(((*key).to_owned(), v));
                }
            }
            // Sometimes one more key: a repeat of `kind` or of one of
            // this kind's keys, a key of some other kind, an unknown one,
            // or one too long to quote whole.
            let long = "\u{1}".repeat(40);
            if let Some(key) = ["kind", "rounds", "starts", "instances", "x", &long].get(extra) {
                let v = value_of(types[3], edges[3], depth, shape);
                entries.push(((*key).to_owned(), v));
            }
            let repeated = entries
                .iter()
                .enumerate()
                .any(|(i, (key, _))| entries[..i].iter().any(|(k, _)| k == key));
            let body = Value::Object(entries);
            for v in [nest(depth, shape, body.clone()), body] {
                match CampaignSpec::from_value(&v) {
                    Ok(spec) => {
                        prop_assert!(!repeated, "a repeated key was accepted");
                        assert_documented_ranges(&spec);
                        // Verbatim, NaN included (which `==` cannot see).
                        prop_assert_eq!(format!("{:?}", spec.raw), format!("{v:?}"));
                    }
                    Err(e) => prop_assert!(e.len() <= 256, "{} bytes: {:.300}", e.len(), e),
                }
            }
        }
    }
}
