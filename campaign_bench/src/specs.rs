//! The workloads' inputs: the finite tables each workload draws from,
//! the seeded deck that draws them, and the committed expected results.
//!
//! Every input a run can send is a row of a table here, so the expected
//! `best_bits` (daemon workloads) and QoR digests (`physical_sweep`)
//! can be committed once and checked on every unit of every run. The
//! workload seed only chooses the order in which the rows are dealt.

use std::collections::HashMap;

use ideaflow_bench::experiments::{fig06_orchestration, fig07_mab};
use ideaflow_flow::cache::QorCache;
use ideaflow_flow::options::{Effort, SpnrOptions};
use ideaflow_flow::spnr::{PhysicalOutcome, SpnrFlow};
use ideaflow_netlist::generate::{DesignClass, DesignSpec};
use ideaflow_serve::{CampaignKind, CampaignSpec};
use ideaflow_trace::{Journal, PayloadValue};

/// Chaos campaigns: GWTW rounds per campaign.
pub const CHAOS_ROUNDS: usize = 16;
/// Chaos campaigns: per-mode fault rate. At the 0.02 default the capped
/// retry backoff sleep, not compute, would dominate a campaign.
pub const CHAOS_FAULT_RATE: f64 = 0.005;
/// `physical_sweep`: instances of the one CPU-class design.
pub const DESIGN_INSTANCES: usize = 1000;
/// `physical_sweep`: the design's generator seed (fixed, so the digest
/// table stays finite; the workload seed orders the sweep).
pub const DESIGN_SEED: u64 = 2018;

const EXPECTED_SHORT: &str = include_str!("../expected/short_campaigns.tsv");
const EXPECTED_CHAOS: &str = include_str!("../expected/chaos_campaigns.tsv");
const EXPECTED_PHYSICAL: &str = include_str!("../expected/physical_sweep.tsv");

/// `POST /campaigns` bodies of `short_campaigns`: an equal share of
/// each short kind, each ≤10 ms of compute.
#[must_use]
pub fn short_table() -> Vec<String> {
    let mut rows = Vec::new();
    for dim in 4..=8 {
        for seed in 0..4 {
            rows.push(format!(
                "{{\"kind\": \"gwtw\", \"dim\": {dim}, \"seed\": {seed}}}"
            ));
        }
    }
    for seed in 0..20 {
        rows.push(format!(
            "{{\"kind\": \"multistart\", \"dim\": 8, \"starts\": 16, \"seed\": {seed}}}"
        ));
    }
    for instances in [200, 250, 300, 350, 400] {
        for seed in 0..4 {
            rows.push(format!(
                "{{\"kind\": \"bandit\", \"instances\": {instances}, \"seed\": {seed}}}"
            ));
        }
    }
    rows
}

/// `POST /campaigns` bodies of `chaos_campaigns`.
#[must_use]
pub fn chaos_table() -> Vec<String> {
    (0..16)
        .map(|seed| {
            format!(
                "{{\"kind\": \"chaos\", \"rounds\": {CHAOS_ROUNDS}, \
                 \"fault_rate\": {CHAOS_FAULT_RATE}, \"seed\": {seed}}}"
            )
        })
        .collect()
}

/// One `physical_sweep` option vector, before it is scaled by the
/// design's fmax.
#[derive(Debug, Clone, Copy)]
pub struct Vector {
    /// Target frequency as a fraction of the design's reference fmax.
    pub target_frac: f64,
    /// Placement effort.
    pub place_effort: Effort,
    /// Placement utilization.
    pub utilization: f64,
    /// Aggressive (versus balanced) clock-tree style.
    pub cts_aggressive: bool,
}

impl Vector {
    /// The row's key in the committed digest table.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "t{:.2}/{:?}/u{:.2}/{}",
            self.target_frac,
            self.place_effort,
            self.utilization,
            if self.cts_aggressive {
                "aggressive"
            } else {
                "balanced"
            }
        )
    }

    /// The option vector for a flow with the given reference fmax.
    #[must_use]
    pub fn options(&self, fmax_ghz: f64) -> SpnrOptions {
        let mut opts =
            SpnrOptions::with_target_ghz(fmax_ghz * self.target_frac).expect("target in range");
        opts.place_effort = self.place_effort;
        opts.utilization = self.utilization;
        opts.cts_aggressive = self.cts_aggressive;
        opts
    }
}

/// The `physical_sweep` option vectors.
#[must_use]
pub fn physical_table() -> Vec<Vector> {
    let mut rows = Vec::new();
    for target_frac in [0.8, 0.9, 1.0, 1.1] {
        for place_effort in Effort::ALL {
            for utilization in [0.6, 0.7, 0.8] {
                for cts_aggressive in [false, true] {
                    rows.push(Vector {
                        target_frac,
                        place_effort,
                        utilization,
                        cts_aggressive,
                    });
                }
            }
        }
    }
    rows
}

/// The `physical_sweep` design spec.
#[must_use]
pub fn design() -> DesignSpec {
    DesignSpec::new(DesignClass::Cpu, DESIGN_INSTANCES).expect("valid design spec")
}

/// A bit-exact digest of everything `run_physical` returns (FNV-1a over
/// the raw bits), so any change to any stage's result shows.
#[must_use]
pub fn physical_digest(out: &PhysicalOutcome) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in [
        out.qor.target_ghz,
        out.qor.area_um2,
        out.qor.wns_ps,
        out.qor.leakage_nw,
        out.qor.runtime_hours,
        out.hpwl_um,
        out.route_overflow,
        out.hot_fraction,
        out.clock_skew_ps,
    ] {
        mix(f.to_bits());
    }
    mix(out.clock_buffers as u64);
    for &c in &out.drv.counts {
        mix(c);
    }
    format!("{h:016x}")
}

/// Parses a campaign body the way the daemon does.
///
/// # Panics
///
/// Panics on a body the daemon would refuse: the tables hold none.
#[must_use]
pub fn parse_spec(body: &str) -> CampaignSpec {
    let value: PayloadValue = serde_json::from_str(body).expect("table rows are JSON");
    CampaignSpec::from_value(&value).expect("table rows are valid specs")
}

/// Runs the body the daemon runs for `spec` (`daemon::execute`), with
/// `journal` attached where the daemon attaches its attempt journal.
/// Returns the best value and, for chaos, the tool runs spent.
#[must_use]
pub fn run_body(spec: &CampaignSpec, journal: &Journal) -> (f64, Option<u32>) {
    match spec.kind {
        CampaignKind::Chaos {
            rounds,
            seed,
            fault_rate,
        } => {
            let cfg = fig06_orchestration::ChaosConfig {
                rounds,
                seed,
                fault_rate,
                ..fig06_orchestration::ChaosConfig::default()
            };
            let out = fig06_orchestration::run_chaos_gwtw_cancellable(
                &cfg,
                cfg.rounds,
                QorCache::new(),
                journal,
                None,
                None,
                None,
            );
            (out.best_cost, Some(out.runs_spent))
        }
        CampaignKind::Gwtw { dim, seed } => {
            (fig06_orchestration::run_gwtw(dim, seed).gwtw_best, None)
        }
        CampaignKind::Multistart { dim, starts, seed } => (
            fig06_orchestration::run_ams(dim, starts, seed).adaptive_best,
            None,
        ),
        CampaignKind::Bandit { instances, seed } => {
            let data = fig07_mab::run_journaled(instances, seed, journal);
            (data.best_line.last().copied().unwrap_or(0.0), None)
        }
    }
}

/// The committed expected results of one workload: table row (campaign
/// body or vector key) to `best_bits` or digest.
#[derive(Debug, Clone)]
pub struct Expected {
    rows: HashMap<String, String>,
}

impl Expected {
    /// Loads the committed table for `workload`, checking that it covers
    /// every row the workload can draw.
    ///
    /// # Errors
    ///
    /// Names the first row without an expected result.
    pub fn load(workload: &str) -> Result<Self, String> {
        let (text, keys): (&str, Vec<String>) = match workload {
            "short_campaigns" => (EXPECTED_SHORT, short_table()),
            "chaos_campaigns" => (EXPECTED_CHAOS, chaos_table()),
            "physical_sweep" => (
                EXPECTED_PHYSICAL,
                physical_table().iter().map(Vector::key).collect(),
            ),
            other => return Err(format!("no expected results for workload {other:?}")),
        };
        let rows: HashMap<String, String> = text
            .lines()
            .filter_map(|line| line.split_once('\t'))
            .map(|(bits, key)| (key.to_owned(), bits.to_owned()))
            .collect();
        if let Some(missing) = keys.iter().find(|k| !rows.contains_key(*k)) {
            return Err(format!(
                "expected results for {workload} lack {missing:?}; regenerate them with --generate-expected"
            ));
        }
        Ok(Self { rows })
    }

    /// The expected bits or digest of a row.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.rows.get(key).map(String::as_str)
    }
}

/// Computes every expected result from direct library calls and returns
/// `(file name, TSV text)` per workload.
#[must_use]
pub fn generate_expected() -> Vec<(&'static str, String)> {
    let campaign_rows = |table: Vec<String>| -> String {
        table
            .iter()
            .map(|body| {
                let (best, _) = run_body(&parse_spec(body), &Journal::disabled());
                format!("{:016x}\t{body}\n", best.to_bits())
            })
            .collect()
    };
    let flow = SpnrFlow::new(design(), DESIGN_SEED);
    let physical: String = physical_table()
        .iter()
        .map(|v| {
            let out = flow.run_physical(&v.options(flow.fmax_ref_ghz()), 0);
            format!("{}\t{}\n", physical_digest(&out), v.key())
        })
        .collect();
    vec![
        ("short_campaigns.tsv", campaign_rows(short_table())),
        ("chaos_campaigns.tsv", campaign_rows(chaos_table())),
        ("physical_sweep.tsv", physical),
    ]
}

/// A seeded deck over a table's rows: every row is dealt once per pass,
/// in an order the seed shuffles, so any run of a few hundred units
/// holds the table's mix whatever the seed.
#[derive(Debug, Clone)]
pub struct Deck {
    order: Vec<usize>,
    next: usize,
    rng: u64,
}

impl Deck {
    /// A deck over `len` rows, shuffled by `seed`.
    #[must_use]
    pub fn new(len: usize, seed: u64) -> Self {
        assert!(len > 0, "a deck needs rows");
        let mut deck = Self {
            order: (0..len).collect(),
            next: len,
            rng: seed,
        };
        deck.shuffle();
        deck
    }

    fn shuffle(&mut self) {
        for i in (1..self.order.len()).rev() {
            let j = (splitmix64(&mut self.rng) % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
        self.next = 0;
    }

    /// The next row index.
    pub fn deal(&mut self) -> usize {
        if self.next == self.order.len() {
            self.shuffle();
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// splitmix64 step: the deck's seeded stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_deals_every_row_once_per_pass_and_repeats_per_seed() {
        let mut a = Deck::new(7, 42);
        let mut pass: Vec<usize> = (0..7).map(|_| a.deal()).collect();
        pass.sort_unstable();
        assert_eq!(pass, (0..7).collect::<Vec<_>>());
        let mut b = Deck::new(7, 42);
        let mut c = Deck::new(7, 42);
        let first: Vec<usize> = (0..20).map(|_| b.deal()).collect();
        let again: Vec<usize> = (0..20).map(|_| c.deal()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn tables_parse_as_daemon_specs_and_keys_are_unique() {
        for body in short_table().iter().chain(chaos_table().iter()) {
            let _ = parse_spec(body);
        }
        let keys: std::collections::HashSet<String> =
            physical_table().iter().map(Vector::key).collect();
        assert_eq!(keys.len(), physical_table().len());
    }

    #[test]
    fn committed_expected_results_cover_every_table() {
        for workload in ["short_campaigns", "chaos_campaigns", "physical_sweep"] {
            Expected::load(workload).unwrap();
        }
    }
}
