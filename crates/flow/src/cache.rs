//! Sharded concurrent memo cache for fast-surface QoR evaluations.
//!
//! [`crate::spnr::SpnrFlow::run`] is deterministic in
//! `(options fingerprint ^ flow seed, sample index)`, so orchestration
//! layers that revisit the same point — GWTW clones re-scoring a
//! trajectory, a bandit pulling the same arm across repetitions — can
//! reuse the first evaluation verbatim. [`QorCache`] memoizes exactly
//! that key. It is sharded (key-hashed lock striping) so concurrent
//! pool workers rarely contend, and cheap to clone (all clones share
//! the same storage), matching how `SpnrFlow` itself is cloned across
//! threads.
//!
//! A cache hit returns a bit-identical [`QorSample`] and the flow
//! re-emits the same `flow.sample` journal event a cold run would, so
//! enabling the cache can never change results or journal shapes —
//! only `flow.cache.hits` / `flow.cache.misses` counters (mirrored
//! into any attached telemetry registry) reveal it.
//!
//! **Counting rule.** A miss stands only for the insert that creates an
//! entry; every other use of a stored key is a hit. [`QorCache::get`]
//! counts hits only, and [`QorCache::insert`] counts a miss when it
//! creates the entry or a hit when another worker stored the key while
//! this one was computing it. Both counts are then a function of which
//! keys a campaign evaluates, not of how pool workers interleave, so a
//! deterministic campaign reports the same counts at any thread count.
//!
//! **Unbounded.** The cache never evicts. A chaos campaign holds a few
//! hundred entries, and the cache lives no longer than the campaign
//! that built it.
//!
//! **Checkpoint restore** ([`QorCache::seed_from_journal`]): every
//! `flow.sample` journal event carries its cache key, so a killed
//! campaign's journal can rebuild the memo store and a resumed run
//! replays completed work as hits instead of recomputing it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::spnr::QorSample;

/// Shard count: enough stripes that a handful of pool workers rarely
/// collide, small enough to stay cheap to allocate.
const SHARDS: usize = 16;

/// One lock stripe. Cache-line aligned, with its *own* hit/miss
/// counters, so two workers touching different shards never write the
/// same line: a single shared `AtomicU64` pair bumped on every `get`
/// re-serializes the supposedly-striped hot path through cache-line
/// ping-pong (false sharing) even when the locks themselves never
/// collide. The public accessors sum over shards.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    map: Mutex<HashMap<(u64, u32), QorSample>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    /// Stores `qor` unless the key is already present (every value for
    /// a key is equal, because the flow is deterministic per key).
    /// Returns whether this call created the entry.
    fn store(&self, key: (u64, u32), qor: QorSample) -> bool {
        match self.map.lock().entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(qor);
                true
            }
        }
    }
}

/// A sharded, thread-safe `(fingerprint, sample) -> QorSample` memo
/// cache. Clones share storage and counters.
#[derive(Debug, Clone, Default)]
pub struct QorCache {
    shards: Arc<[Shard; SHARDS]>,
}

impl QorCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, fingerprint: u64, sample: u32) -> &Shard {
        // Fibonacci-style mixing; the fingerprint is already a hash, the
        // multiply spreads consecutive sample indices across shards.
        let h = (fingerprint ^ (u64::from(sample) << 32 | u64::from(sample)))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 48) as usize % SHARDS]
    }

    /// Looks up a memoized sample, counting a hit if it is there. A
    /// lookup that finds nothing counts nothing: the miss belongs to
    /// the [`QorCache::insert`] that then stores the key.
    #[must_use]
    pub fn get(&self, fingerprint: u64, sample: u32) -> Option<QorSample> {
        let shard = self.shard(fingerprint, sample);
        let found = shard.map.lock().get(&(fingerprint, sample)).cloned();
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoizes a freshly computed sample and returns whether this call
    /// created the entry. Creating it counts the key's one miss. If
    /// another worker stored the key first, the stored value is kept
    /// (it is equal) and this call counts a hit.
    pub fn insert(&self, fingerprint: u64, sample: u32, qor: QorSample) -> bool {
        let shard = self.shard(fingerprint, sample);
        let created = shard.store((fingerprint, sample), qor);
        let counter = if created { &shard.misses } else { &shard.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        created
    }

    /// Rebuilds the memo store from the `flow.sample` events of a run
    /// journal — the checkpoint-resume path. Each event carries the
    /// combined cache key (`fingerprint`, bitcast i64) alongside the
    /// QoR fields, so a killed campaign's completed evaluations replay
    /// as cache hits when the campaign is re-run. Returns how many
    /// entries were restored (duplicate events collapse). Restoring
    /// counts neither hits nor misses.
    pub fn seed_from_journal(&self, reader: &ideaflow_trace::JournalReader) -> usize {
        reader.events.iter().filter(|e| self.seed_event(e)).count()
    }

    /// Streaming variant of [`QorCache::seed_from_journal`]: folds one
    /// event in (non-`flow.sample` events are ignored) and reports
    /// whether it restored a new entry. Callers iterating an
    /// `EventStream` use this to rebuild the memo store in O(block)
    /// memory from corpora that do not fit in RAM.
    pub fn seed_event(&self, e: &ideaflow_trace::RunEvent) -> bool {
        use ideaflow_trace::PayloadValue as V;
        if e.step != "flow.sample" {
            return false;
        }
        let int = |p: &V, k: &str| -> Option<i64> {
            match p.get(k) {
                Some(V::Int(i)) => Some(*i),
                _ => None,
            }
        };
        let num = |p: &V, k: &str| -> Option<f64> {
            match p.get(k) {
                Some(V::Float(f)) => Some(*f),
                Some(V::Int(i)) => Some(*i as f64),
                _ => None,
            }
        };
        let p = &e.payload;
        let (Some(fp), Some(sample)) = (int(p, "fingerprint"), int(p, "sample")) else {
            return false;
        };
        let Ok(sample) = u32::try_from(sample) else {
            return false;
        };
        let fields = (
            num(p, "target_ghz"),
            num(p, "area_um2"),
            num(p, "wns_ps"),
            num(p, "leakage_nw"),
            num(p, "runtime_hours"),
        );
        let (Some(target_ghz), Some(area_um2), Some(wns_ps), Some(leakage_nw), Some(rt)) = fields
        else {
            return false;
        };
        let qor = QorSample {
            target_ghz,
            area_um2,
            wns_ps,
            leakage_nw,
            runtime_hours: rt,
        };
        let fp = fp as u64;
        self.shard(fp, sample).store((fp, sample), qor)
    }

    /// Uses of a stored key so far (summed over shards): lookups that
    /// found it, plus inserts that found it already stored.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.sum_over_shards(|s| &s.hits)
    }

    /// Inserts that created an entry so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.sum_over_shards(|s| &s.misses)
    }

    fn sum_over_shards(&self, pick: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| pick(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Number of memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: f64) -> QorSample {
        QorSample {
            target_ghz: v,
            area_um2: v * 2.0,
            wns_ps: v * 3.0,
            leakage_nw: v * 4.0,
            runtime_hours: v * 5.0,
        }
    }

    #[test]
    fn get_insert_roundtrip_counts_hits_and_misses() {
        let c = QorCache::new();
        assert!(c.get(0xFEED, 1).is_none());
        assert!(c.insert(0xFEED, 1, sample(1.0)));
        assert_eq!(c.get(0xFEED, 1), Some(sample(1.0)));
        // A lookup that is never stored counts neither way.
        assert!(c.get(0xFEED, 2).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn racing_inserts_count_one_miss_and_one_hit() {
        // Two workers evaluate one key at once: both look it up before
        // either stores it. Only the insert that creates the entry is
        // a miss; the one that finds it stored is a hit.
        let c = QorCache::new();
        let both_looked = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    assert!(c.get(0xACE, 3).is_none());
                    both_looked.wait();
                    c.insert(0xACE, 3, sample(3.0));
                });
            }
        });
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
    }

    #[test]
    fn clones_share_storage() {
        let a = QorCache::new();
        let b = a.clone();
        b.insert(7, 7, sample(0.5));
        assert_eq!(a.get(7, 7), Some(sample(0.5)));
        assert_eq!(b.hits(), 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c = QorCache::new();
        for i in 0..256u32 {
            c.insert(
                u64::from(i).wrapping_mul(0x1234_5678_9ABC),
                i,
                sample(f64::from(i)),
            );
        }
        assert_eq!(c.len(), 256);
        let populated = c.shards.iter().filter(|s| !s.map.lock().is_empty()).count();
        assert!(
            populated >= SHARDS / 2,
            "only {populated} of {SHARDS} shards populated"
        );
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let c = QorCache::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100u32 {
                        c.insert(u64::from(t), i, sample(f64::from(i)));
                        assert_eq!(c.get(u64::from(t), i), Some(sample(f64::from(i))));
                    }
                });
            }
        });
        assert_eq!(c.len(), 400);
        assert_eq!(c.hits(), 400);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let c = QorCache::new();
        for s in 0..5_000u32 {
            c.insert(u64::from(s), s, sample(1.0));
        }
        assert_eq!(c.len(), 5_000);
    }
}
