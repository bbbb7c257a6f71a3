//! Schedule-perturbation sanitizer tests: `IDEAFLOW_SCHED_FUZZ` /
//! [`PoolBuilder::sched_fuzz`] deterministically shakes the executor's
//! poll order (seeded yields, injector-first flips, rotated steal
//! scans), and nothing downstream may notice. Every orchestration
//! kernel is run unfuzzed and under eight fuzzed schedules at four
//! threads; results must be bit-identical throughout. A journal fed
//! from every worker must keep a dense, gap-free event sequence under
//! each fuzzed schedule.

use ideaflow::bandit::policy::ThompsonGaussian;
use ideaflow::bandit::sim::run_concurrent;
use ideaflow::bandit::GaussianEnv;
use ideaflow::exec::{with_pool, PoolBuilder, ThreadPool};
use ideaflow::opt::gwtw::{gwtw, GwtwConfig};
use ideaflow::opt::landscape::BigValley;
use ideaflow::trace::{Journal, JournalReader, PayloadValue};
use ideaflow_serve::{CampaignKind, CampaignSpec, DurableQueue};

/// The eight fuzz seeds every suite runs under (plus the unfuzzed
/// baseline). Spread across the u64 range so the splitmix streams
/// start nowhere near each other.
const SEEDS: [u64; 8] = [
    1,
    2,
    0xDAC_2018,
    0x9E37_79B9,
    0xFFFF_FFFF,
    0x0123_4567_89AB_CDEF,
    u64::MAX / 3,
    u64::MAX,
];

/// Builds a 4-thread pool, fuzzed when `seed` is `Some`.
fn pool(seed: Option<u64>) -> ThreadPool {
    let b = PoolBuilder::new().threads(4);
    match seed {
        Some(s) => b.sched_fuzz(s),
        None => b,
    }
    .build()
}

#[test]
fn gwtw_is_bit_identical_under_fuzzed_schedules() {
    let scape = BigValley::new(8, 3.0, 13);
    let cfg = GwtwConfig {
        population: 16,
        review_period: 150,
        rounds: 5,
        survivor_fraction: 0.5,
        t_initial: 3.0,
        t_final: 0.05,
    };
    let run = |seed: Option<u64>| {
        with_pool(&pool(seed), || {
            let g = gwtw(&scape, cfg, 3);
            (
                g.best.best_cost.to_bits(),
                g.rounds
                    .iter()
                    .map(|r| r.best.to_bits())
                    .collect::<Vec<_>>(),
            )
        })
    };
    let baseline = run(None);
    for seed in SEEDS {
        assert_eq!(baseline, run(Some(seed)), "seed={seed:#x}");
    }
}

#[test]
fn thompson_schedule_is_bit_identical_under_fuzzed_schedules() {
    let run = |seed: Option<u64>| {
        with_pool(&pool(seed), || {
            let mut env =
                GaussianEnv::new(vec![1.0, 2.0, 3.0, 2.5], vec![0.5, 0.5, 0.5, 0.5], 11).unwrap();
            let mut policy = ThompsonGaussian::new(4, 3.0, 1.0).unwrap();
            let iters = run_concurrent(&mut policy, &mut env, 30, 5, 7).unwrap();
            iters
                .iter()
                .flat_map(|it| it.rewards.iter().map(|r| r.to_bits()))
                .collect::<Vec<_>>()
        })
    };
    let baseline = run(None);
    for seed in SEEDS {
        assert_eq!(baseline, run(Some(seed)), "seed={seed:#x}");
    }
}

/// A campaign's schedule-independent identity + outcome: ids are
/// assigned in (racy) arrival order, so the fold keys on the result
/// bits — a pure function of the submitted spec — instead.
type Folded = Vec<(String, &'static str, u32, bool)>;

/// Drives a full submit → claim → finish lifecycle for 12 gwtw specs
/// through a (possibly fuzzed) 4-thread pool, then folds the terminal
/// queue state. The fold must not depend on the schedule, and must
/// survive a journal-recovery reopen verbatim.
fn run_queue_scenario(dir: &std::path::Path, seed: Option<u64>) -> Folded {
    let fold = |q: &DurableQueue| -> Folded {
        let mut folded: Folded = q
            .snapshot()
            .iter()
            .map(|c| {
                (
                    c.best_bits.clone().expect("campaign finished"),
                    c.state.name(),
                    c.attempts,
                    c.ok,
                )
            })
            .collect();
        folded.sort();
        folded
    };

    let (queue, resumed) = DurableQueue::open(dir, 64, None).unwrap();
    assert_eq!(resumed, 0);
    let queue = &queue;
    let p = pool(seed);
    p.scope(|s| {
        for k in 0..12u64 {
            s.spawn(move || {
                let body = format!(r#"{{"kind": "gwtw", "dim": 4, "seed": {k}}}"#);
                let spec = CampaignSpec::from_value(&serde_json::from_str(&body).unwrap()).unwrap();
                queue.submit(spec).unwrap();
            });
        }
    });
    p.scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                while let Some(claim) = queue.claim() {
                    let CampaignKind::Gwtw { dim, seed } = claim.spec.kind else {
                        unreachable!("only gwtw specs were submitted");
                    };
                    // A stand-in result that is a pure function of the
                    // spec, so the fold keys campaigns stably.
                    let bits = format!("{:016x}", seed.wrapping_mul(31).wrapping_add(dim as u64));
                    queue.finish(&claim.id, true, Some(&bits), Some(seed as f64), None);
                }
            });
        }
    });
    let live = fold(queue);
    assert_eq!(live.len(), 12, "every submission reached a terminal state");
    queue.flush();

    // Recovery invariance: reopening folds the journal back to the
    // exact same terminal state, whatever schedule produced it.
    let (reopened, resumed) = DurableQueue::open(dir, 64, None).unwrap();
    assert_eq!(resumed, 0, "terminal campaigns are not resumed");
    assert_eq!(fold(&reopened), live, "journal recovery changed the fold");
    live
}

#[test]
fn durable_queue_converges_identically_under_fuzzed_schedules() {
    let root = std::env::temp_dir().join(format!("ideaflow_sched_fuzz_{}", std::process::id()));
    let scenario = |name: String, seed: Option<u64>| {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        run_queue_scenario(&dir, seed)
    };
    let baseline = scenario("baseline".to_owned(), None);
    for seed in SEEDS {
        assert_eq!(
            baseline,
            scenario(format!("seed_{seed:x}"), Some(seed)),
            "seed={seed:#x}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn journal_sequence_stays_dense_under_fuzzed_schedules() {
    for seed in SEEDS {
        let journal = Journal::in_memory("seqfuzz");
        pool(Some(seed)).par_map((0..64i64).collect(), |_, v| {
            journal.emit("prop.event", &[("v", PayloadValue::Int(v))]);
        });
        journal.finish();
        let reader = JournalReader {
            events: journal.drain_events(),
        };
        // 64 events plus the summary, written in seq order with no gap.
        let seqs: Vec<u64> = reader.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..=64).collect::<Vec<_>>(), "seed={seed:#x}");
        let mut values: Vec<i64> = reader
            .events_for_step("prop.event")
            .iter()
            .map(|e| match e.payload.get("v") {
                Some(PayloadValue::Int(v)) => *v,
                other => panic!("seed={seed:#x}: bad v {other:?}"),
            })
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..64).collect::<Vec<_>>(), "seed={seed:#x}");
    }
}
