//! Cross-job memoization of complete verified results, keyed by
//! structural fingerprints.
//!
//! A [`MemoCache`] is a sharded, lock-striped concurrent map shared by
//! every job of a batch run or daemon. It holds one kind of entry: a
//! complete verified [`EcoResult`], keyed by a dual 128-bit fingerprint
//! ([`patch_memo_key`]) of both circuits' structures
//! ([`eco_aig::Aig::structural_fingerprint`]), the targets, the weighted
//! candidates, and every option knob that can change the output.
//!
//! # Determinism
//!
//! Whether a lookup hits depends on scheduling (which job got there
//! first), so hits must never change *what* is computed, only *when*.
//! A memoized result is a pure function of its key: a hit returns
//! exactly the value a fresh computation would produce, and results are
//! byte-identical whatever the hit/miss interleaving.
//!
//! # Soundness
//!
//! A 2⁻¹²⁸ key collision — or a deliberately poisoned entry — must not
//! produce a wrong answer:
//!
//! * every entry stores an independent `check` digest; a mismatch on
//!   lookup is treated as a miss;
//! * a cached result is re-verified with a fresh SAT miter against the
//!   actual instance before being returned ([`crate::EcoEngine`] does
//!   this in `run_governed`); a refuted entry falls back to the full
//!   pipeline and is counted in [`MemoStats::fallbacks`];
//! * a shard lock poisoned by a panicking worker is **recovered**, not
//!   propagated: the shard's map is valid at every unwind point and both
//!   guards above still apply, so siblings degrade to
//!   recompute-on-mismatch instead of aborting a long-lived daemon.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use eco_aig::FpHasher;

use crate::engine::{EcoOptions, EcoResult};
use crate::instance::EcoInstance;
use crate::memo_store::{encode_memo_entry, MemoStore};

/// Shard count (power of two; shards are selected by the key's low bits,
/// which are uniformly mixed by the fingerprint hasher).
const SHARDS: usize = 16;

/// Default per-shard entry capacity (FIFO eviction beyond it).
const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// One memoized result with its independent check digest.
/// Crate-visible so the durable store ([`crate::memo_store`]) can
/// serialize entries without widening the public API.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) check: u128,
    pub(crate) result: Box<EcoResult>,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    order: VecDeque<u128>,
}

crate::counters! {
    /// Cumulative counters of one cache over its lifetime.
    pub struct MemoStats {
        /// Lookups that returned a value (check digest matched).
        hits: u64,
        /// Lookups that found nothing usable.
        misses: u64,
        /// Entries stored.
        insertions: u64,
        /// Entries evicted by the FIFO capacity bound.
        evictions: u64,
        /// Hits later discarded because revalidation refuted the entry.
        fallbacks: u64,
        /// Entries currently resident.
        entries: u64,
    }
}

/// Sharded, lock-striped memo cache shared across the jobs of a batch run
/// (see the [module docs](self) for the determinism and soundness
/// contracts).
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    fallbacks: AtomicU64,
    /// Durable journal of new inserts, set once by [`MemoStore::attach`].
    pub(crate) journal: OnceLock<Arc<MemoStore>>,
}

impl Default for MemoCache {
    fn default() -> Self {
        MemoCache::new()
    }
}

impl MemoCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        MemoCache::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// A cache holding at most `capacity` entries per shard
    /// (16 shards; oldest entries evicted first).
    pub fn with_shard_capacity(capacity: usize) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            journal: OnceLock::new(),
        }
    }

    /// Clones every resident entry, shard by shard in FIFO order — the
    /// durable store's snapshot source.
    pub(crate) fn export_entries(&self) -> Vec<(u128, Entry)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for key in &shard.order {
                if let Some(entry) = shard.map.get(key) {
                    out.push((*key, entry.clone()));
                }
            }
        }
        out
    }

    /// Locks a shard, recovering from poisoning: a job thread that
    /// panicked while holding the stripe (e.g. mid-`clone` of a cached
    /// value) must degrade that shard to recompute-on-mismatch for its
    /// siblings, not abort the whole batch or daemon. The shard data is
    /// a plain map + FIFO order list whose invariants hold at every
    /// point a panic can unwind through, and every returned entry is
    /// still guarded by its `check` digest and downstream SAT
    /// re-verification, so recovered reads stay sound.
    fn lock_shard(&self, key: u128) -> MutexGuard<'_, Shard> {
        self.shards[(key as usize) & (SHARDS - 1)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts an entry (first write wins) and journals it when a store
    /// is attached. The durable-store load path calls this before
    /// [`MemoStore::attach`], so a replay is not re-journaled.
    pub(crate) fn store(&self, key: u128, entry: Entry) {
        // Serialize for the journal before taking the stripe: encoding a
        // patch result (AIGER emission) is the slow part and must not
        // run under the shard lock.
        let journaled = self
            .journal
            .get()
            .map(|journal| (journal, encode_memo_entry(key, &entry)));
        {
            let mut shard = self.lock_shard(key);
            if shard.map.contains_key(&key) {
                // First write wins: the value is a pure function of the
                // key, so a concurrent duplicate carries the same data
                // (and needs no journal record either).
                return;
            }
            if shard.map.len() >= self.shard_capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            shard.map.insert(key, entry);
            shard.order.push_back(key);
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((journal, bytes)) = journaled {
            journal.append(&bytes);
        }
    }

    /// Returns the memoized complete result for an instance key, if any.
    /// The caller **must** re-verify it against the live instance before
    /// trusting it (and call [`MemoCache::record_fallback`] when refuted).
    pub fn lookup_patch(&self, key: u128, check: u128) -> Option<EcoResult> {
        let out = self
            .lock_shard(key)
            .map
            .get(&key)
            .filter(|e| e.check == check)
            .map(|e| (*e.result).clone());
        let counter = if out.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Stores a complete, verified result under an instance key.
    pub fn store_patch(&self, key: u128, check: u128, result: &EcoResult) {
        // Telemetry describes the producing run, not the value; strip it
        // so hits report their own (fresh) telemetry.
        let mut result = Box::new(result.clone());
        result.telemetry = Default::default();
        self.store(key, Entry { check, result });
    }

    /// Counts a hit that revalidation refuted (the caller fell back to the
    /// full computation).
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> MemoStats {
        let entries: usize = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum();
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            entries: entries as u64,
        }
    }
}

/// Dual fingerprint identifying a whole instance run: both circuits'
/// structures, targets, weighted candidates, and every option that can
/// change the emitted patches. The instance *name* is excluded —
/// identical circuits under different job names share entries.
///
/// The leading domain tag is bumped whenever the same instance and
/// options produce different patches, so a memo store written by an
/// older build (a restarted daemon's `memo.snap`) stops matching instead
/// of replaying that build's patches. A change to which settings are
/// hashed moves every key by itself: an older store then loads but
/// misses.
pub fn patch_memo_key(inst: &EcoInstance, opts: &EcoOptions) -> (u128, u128) {
    let mut h = FpHasher::new();
    h.word(0x70a7_c4ad); // domain tag: patch-result entries
    for fp in [
        inst.faulty.structural_fingerprint(),
        inst.golden.structural_fingerprint(),
    ] {
        h.word(fp.0 as u64);
        h.word((fp.0 >> 64) as u64);
        h.word(fp.1 as u64);
        h.word((fp.1 >> 64) as u64);
    }
    h.word(inst.targets.len() as u64);
    for t in &inst.targets {
        h.str(t);
    }
    h.word(inst.candidates.len() as u64);
    for c in &inst.candidates {
        h.str(&c.name);
        h.word(u64::from(c.lit.code()));
        h.word(c.weight);
    }
    // Result-relevant engine settings. `jobs` and `memo` are excluded on
    // purpose: jobs never changes results (tests/determinism.rs), and the
    // memo is only consulted under an unlimited budget. The Debug
    // rendering of the patch kind is stable.
    h.word(u64::from(opts.localization));
    h.str(&format!("{:?}", opts.initial_patch));
    h.word(u64::from(opts.optimize));
    h.word(opts.watch_size as u64);
    h.word(u64::from(opts.precheck_rectifiability));
    h.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::TargetPatch;
    use eco_aig::Aig;
    use eco_netlist::{parse_verilog, WeightTable};

    fn instance(name: &str, targets: &[&str]) -> EcoInstance {
        EcoInstance::from_netlists(
            name,
            &parse_verilog(
                "module f (a, b, c, t, y); input a, b, c, t; output y; \
                 xor g1 (y, t, c); endmodule",
            )
            .expect("faulty"),
            &parse_verilog(
                "module g (a, b, c, y); input a, b, c; output y; \
                 wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
            )
            .expect("golden"),
            targets.iter().map(|s| s.to_string()).collect(),
            &WeightTable::new(1),
        )
        .expect("instance")
    }

    /// A hand-built result: target `t` patched by `a & !b`.
    pub(crate) fn tiny_result() -> EcoResult {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let w = aig.and(a, !b);
        aig.add_output("t", w);
        EcoResult {
            patches: vec![TargetPatch {
                target: "t".into(),
                base: vec!["a".into(), "b".into()],
                size: 1,
            }],
            patch_aig: aig,
            cost: 7,
            size: 1,
            localization_fallback: false,
            interpolation_fallbacks: 1,
            optimize_delta: (9, 7),
            telemetry: Default::default(),
        }
    }

    fn hit(cache: &MemoCache, key: u128, check: u128) -> bool {
        cache.lookup_patch(key, check).is_some()
    }

    #[test]
    fn keys_ignore_name_but_cover_options() {
        let opts = EcoOptions::default();
        let a = patch_memo_key(&instance("one", &["t"]), &opts);
        let b = patch_memo_key(&instance("two", &["t"]), &opts);
        assert_eq!(a, b, "instance name must not affect the key");

        let other = EcoOptions {
            localization: false,
            ..Default::default()
        };
        assert_ne!(a, patch_memo_key(&instance("one", &["t"]), &other));

        let others = [
            EcoOptions {
                initial_patch: crate::InitialPatchKind::Interpolant,
                ..Default::default()
            },
            EcoOptions {
                optimize: false,
                ..Default::default()
            },
            EcoOptions {
                watch_size: 3,
                ..Default::default()
            },
            EcoOptions {
                precheck_rectifiability: true,
                ..Default::default()
            },
        ];
        for other in &others {
            assert_ne!(
                a,
                patch_memo_key(&instance("one", &["t"]), other),
                "{other:?}"
            );
        }

        let shared = EcoOptions {
            jobs: 3,
            memo: Some(Arc::new(MemoCache::new())),
            ..Default::default()
        };
        assert_eq!(
            a,
            patch_memo_key(&instance("one", &["t"]), &shared),
            "jobs and memo never change a cached result"
        );
    }

    /// The key of the same instance under default options is pinned. It
    /// differs from the key before the canonical base selection changed
    /// the engine's patches, and from the key of the build that still
    /// hashed every per-query budget (the patches are the same, so that
    /// build's stores load but miss).
    #[test]
    fn keys_change_when_results_change() {
        let before_selection = (
            0x96af_ea75_5d4e_f1c3_41a8_2311_2258_e30c,
            0x2ff5_421c_21b9_2df6_528c_5969_1fdd_1423,
        );
        let before_constants = (
            0xa1e7_4892_fac3_0985_4fc7_c57b_0238_e8c7,
            0x1d95_650e_570a_0304_9dc7_9efb_dd04_5006,
        );
        let now = patch_memo_key(&instance("one", &["t"]), &EcoOptions::default());
        for before in [before_selection, before_constants] {
            assert_ne!(now.0, before.0);
            assert_ne!(now.1, before.1);
        }
        assert_eq!(
            now,
            (
                0xbfbb_e411_a95b_7cac_811a_0361_3ce6_55d1,
                0x7abf_28f4_a16a_cd5c_115c_82eb_ca2a_1210,
            )
        );
    }

    #[test]
    fn check_digest_guards_against_key_collisions() {
        let cache = MemoCache::new();
        cache.store_patch(7, 100, &tiny_result());
        let cached = cache.lookup_patch(7, 100).expect("hit");
        assert_eq!((cached.cost, cached.size), (7, 1));
        assert!(!hit(&cache, 7, 999), "check mismatch is a miss");
        assert!(!hit(&cache, 8, 100));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn fifo_eviction_bounds_each_shard() {
        let cache = MemoCache::with_shard_capacity(2);
        // Keys 0, 16, 32, 48 all land in shard 0.
        for k in [0u128, 16, 32] {
            cache.store_patch(k, 1, &tiny_result());
        }
        assert!(!hit(&cache, 0, 1), "oldest entry evicted");
        assert!(hit(&cache, 16, 1));
        assert!(hit(&cache, 32, 1));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    /// Regression: a job thread that panics while holding a shard lock
    /// poisons it; every cache operation must keep working afterwards
    /// (degrading to recompute on mismatch) instead of aborting the
    /// daemon with it.
    #[test]
    fn poisoned_shard_degrades_to_recompute_instead_of_panicking() {
        let cache = MemoCache::new();
        cache.store_patch(0, 1, &tiny_result());
        // Poison shard 0 the way a dying worker would: panic while the
        // stripe is held.
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.shards[0].lock().unwrap();
                panic!("worker dies holding the memo shard");
            })
            .join()
        });
        assert!(
            cache.shards[0].lock().is_err(),
            "the shard must actually be poisoned"
        );
        // Every operation on the poisoned shard still works.
        assert!(hit(&cache, 0, 1));
        assert!(!hit(&cache, 16, 1), "miss degrades cleanly");
        cache.store_patch(16, 1, &tiny_result());
        assert!(hit(&cache, 16, 1));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn concurrent_store_and_lookup_is_safe() {
        let cache = MemoCache::new();
        let result = tiny_result();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, result) = (&cache, &result);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = u128::from(i % 32);
                        cache.store_patch(key, 5, result);
                        assert!(hit(cache, key, 5), "thread {t}");
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 32);
        assert_eq!(cache.stats().insertions, 32, "first write wins");
    }
}
