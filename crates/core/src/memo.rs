//! Cross-job memoization of solver verdicts, keyed by structural
//! fingerprints.
//!
//! A [`MemoCache`] is a sharded, lock-striped concurrent map shared by
//! every job of a batch run. It memoizes the three expensive, *pure*
//! computations of the flow — whole FRAIG sweeps over cluster
//! sub-workspaces, Eq.-2 rectifiability verdicts, and complete verified
//! patch results — keyed by dual 128-bit structural fingerprints
//! ([`eco_aig::Aig::structural_fingerprint`]) of the inputs plus every
//! option knob that can change the output.
//!
//! # Determinism
//!
//! Whether a lookup hits depends on scheduling (which job got there
//! first), so hits must never change *what* is computed, only *when*.
//! Every memoized granularity is therefore a pure function of its key:
//! a hit returns exactly the value a fresh computation would produce, and
//! results are byte-identical whatever the hit/miss interleaving.
//!
//! # Soundness
//!
//! A 2⁻¹²⁸ key collision — or a deliberately poisoned entry — must not
//! produce a wrong answer:
//!
//! * every entry stores an independent `check` digest; a mismatch on
//!   lookup is treated as a miss;
//! * cached **patch results** are re-verified with a fresh SAT miter
//!   against the actual instance before being returned ([`crate::EcoEngine`]
//!   does this in `run_governed`); a refuted entry falls back to the
//!   full pipeline and is counted in [`MemoStats::fallbacks`];
//! * cached **counterexample** verdicts are audited with a single B-check
//!   ([`crate::check_rect_cex`]) before being trusted;
//! * cached **sweep classes** feed localization only; a wrong class can
//!   at worst produce a patch that fails the (always fresh) final
//!   verification, which triggers the engine's existing
//!   localization-fallback retry;
//! * a shard lock poisoned by a panicking worker is **recovered**, not
//!   propagated: the shard's map is valid at every unwind point and all
//!   of the guards above still apply, so siblings degrade to
//!   recompute-on-mismatch instead of aborting a long-lived daemon.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use eco_aig::FpHasher;
use eco_fraig::{EquivClasses, SweepMemo, SweepStats};

use crate::engine::{EcoOptions, EcoResult};
use crate::instance::EcoInstance;
use crate::rectifiable::Rectifiability;

/// Shard count (power of two; shards are selected by the key's low bits,
/// which are uniformly mixed by the fingerprint hasher).
const SHARDS: usize = 16;

/// Default per-shard entry capacity (FIFO eviction beyond it).
const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// One memoized value, tagged by kind so distinct computations can never
/// alias even if their keys collided. Crate-visible so the durable store
/// ([`crate::memo_store`]) can serialize entries without widening the
/// public API.
#[derive(Clone, Debug)]
pub(crate) enum Entry {
    Sweep {
        check: u128,
        classes: Box<EquivClasses>,
        stats: SweepStats,
    },
    Rect {
        check: u128,
        verdict: Rectifiability,
    },
    Patch {
        check: u128,
        result: Box<EcoResult>,
    },
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    order: VecDeque<u128>,
}

/// Crate-internal observer of cache insertions — the hook the durable
/// store uses to journal new entries as they are produced. Encoding
/// happens *outside* the shard lock and appending happens after the
/// insert, so a slow disk never stalls sibling lookups on the stripe.
pub(crate) trait EntrySink: Send + Sync {
    /// Serializes an entry for the journal, or `None` for kinds the sink
    /// does not persist.
    fn encode(&self, key: u128, entry: &Entry) -> Option<Vec<u8>>;
    /// Appends previously encoded bytes. Must not panic; IO failures are
    /// counted by the sink, not propagated (durability degrades, serving
    /// does not).
    fn append(&self, bytes: &[u8]);
}

/// Write-once slot for the optional entry sink (newtype so `MemoCache`
/// keeps its derived `Debug`).
#[derive(Default)]
struct SinkSlot(OnceLock<Arc<dyn EntrySink>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "SinkSlot(attached)"
        } else {
            "SinkSlot(none)"
        })
    }
}

crate::counters! {
    /// Cumulative counters of one cache over its lifetime.
    pub struct MemoStats {
        /// Lookups that returned a value (kind and check digest matched).
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
    sink: SinkSlot,
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
            sink: SinkSlot::default(),
        }
    }

    /// Attaches the journal sink. Returns `false` (and leaves the
    /// existing sink) if one is already attached. Attach *after* loading
    /// persisted entries, so a reload does not re-journal its own input.
    pub(crate) fn set_sink(&self, sink: Arc<dyn EntrySink>) -> bool {
        self.sink.0.set(sink).is_ok()
    }

    /// Inserts a recovered entry (durable-store load path). Same
    /// first-write-wins semantics as a live insert; call before
    /// [`MemoCache::set_sink`] so the replay is not re-journaled.
    pub(crate) fn import(&self, key: u128, entry: Entry) {
        self.store(key, entry);
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

    fn lookup<T>(&self, key: u128, extract: impl FnOnce(&Entry) -> Option<T>) -> Option<T> {
        let out = {
            let shard = self.lock_shard(key);
            shard.map.get(&key).and_then(extract)
        };
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn store(&self, key: u128, entry: Entry) {
        // Serialize for the journal before taking the stripe: encoding a
        // patch result (AIGER emission) is the slow part and must not
        // run under the shard lock.
        let encoded = self.sink.0.get().and_then(|sink| sink.encode(key, &entry));
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
        if let (Some(sink), Some(bytes)) = (self.sink.0.get(), encoded) {
            sink.append(&bytes);
        }
    }

    /// Returns the memoized complete result for an instance key, if any.
    /// The caller **must** re-verify it against the live instance before
    /// trusting it (and call [`MemoCache::record_fallback`] when refuted).
    pub fn lookup_patch(&self, key: u128, check: u128) -> Option<EcoResult> {
        self.lookup(key, |e| match e {
            Entry::Patch { check: c, result } if *c == check => Some((**result).clone()),
            _ => None,
        })
    }

    /// Stores a complete, verified result under an instance key.
    pub fn store_patch(&self, key: u128, check: u128, result: &EcoResult) {
        // Telemetry describes the producing run, not the value; strip it
        // so hits report their own (fresh) telemetry.
        let mut result = Box::new(result.clone());
        result.telemetry = Default::default();
        self.store(key, Entry::Patch { check, result });
    }

    /// Returns the memoized rectifiability verdict for an instance key.
    /// `Counterexample` verdicts must be audited via
    /// [`crate::check_rect_cex`] before use.
    pub fn lookup_rect(&self, key: u128, check: u128) -> Option<Rectifiability> {
        self.lookup(key, |e| match e {
            Entry::Rect { check: c, verdict } if *c == check => Some(verdict.clone()),
            _ => None,
        })
    }

    /// Stores a decided (never `Unknown`) rectifiability verdict.
    pub fn store_rect(&self, key: u128, check: u128, verdict: &Rectifiability) {
        debug_assert!(!matches!(verdict, Rectifiability::Unknown));
        self.store(
            key,
            Entry::Rect {
                check,
                verdict: verdict.clone(),
            },
        );
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

impl SweepMemo for MemoCache {
    fn lookup_sweep(&self, key: u128, check: u128) -> Option<(EquivClasses, SweepStats)> {
        self.lookup(key, |e| match e {
            Entry::Sweep {
                check: c,
                classes,
                stats,
            } if *c == check => Some(((**classes).clone(), *stats)),
            _ => None,
        })
    }

    fn store_sweep(&self, key: u128, check: u128, classes: &EquivClasses, stats: &SweepStats) {
        self.store(
            key,
            Entry::Sweep {
                check,
                classes: Box::new(classes.clone()),
                stats: *stats,
            },
        );
    }
}

/// Absorbs the identity of an instance and every result-relevant engine
/// option into `h`. Shared by the patch and rectifiability keys.
fn absorb_instance(h: &mut FpHasher, inst: &EcoInstance, opts: &EcoOptions) {
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
    // Result-relevant engine knobs. `jobs` and `budget` are excluded on
    // purpose: jobs never changes results (tests/determinism.rs) and the
    // memo is only consulted under an unlimited budget. The Debug
    // renderings of the plain option structs are stable and contain no
    // addresses.
    h.word(u64::from(opts.localization));
    h.str(&format!("{:?}", opts.initial_patch));
    h.word(u64::from(opts.optimize));
    h.str(&format!("{:?}", opts.optimize_opts));
    h.word(opts.fraig.sim_words as u64);
    h.word(opts.fraig.seed);
    h.word(opts.fraig.max_rounds as u64);
    h.word(opts.fraig.conflict_budget);
    h.word(opts.fraig.max_total_conflicts);
    h.word(opts.synth_budget);
    h.word(opts.verify_budget);
    h.word(u64::from(opts.precheck_rectifiability));
    h.word(u64::from(opts.size_optimize));
    h.str(&format!("{:?}", opts.size_opts));
}

/// Dual fingerprint identifying a whole instance run (patch-result memo):
/// both circuits' structures, targets, weighted candidates, and every
/// option that can change the emitted patches. The instance *name* is
/// excluded — identical circuits under different job names share entries.
pub fn patch_memo_key(inst: &EcoInstance, opts: &EcoOptions) -> (u128, u128) {
    let mut h = FpHasher::new();
    h.word(0x70a7_c4ac); // domain tag: patch-result entries
    absorb_instance(&mut h, inst, opts);
    h.finish()
}

/// Dual fingerprint identifying a rectifiability check over an instance.
pub fn rect_memo_key(inst: &EcoInstance, opts: &EcoOptions) -> (u128, u128) {
    let mut h = FpHasher::new();
    h.word(0x4ec7_cec2); // domain tag: rectifiability entries
    absorb_instance(&mut h, inst, opts);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
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

        let mut other = EcoOptions::default();
        other.fraig.seed ^= 1;
        assert_ne!(a, patch_memo_key(&instance("one", &["t"]), &other));

        assert_ne!(
            a,
            rect_memo_key(&instance("one", &["t"]), &opts),
            "domain tags separate patch and rectifiability keys"
        );
    }

    #[test]
    fn check_digest_guards_against_key_collisions() {
        let cache = MemoCache::new();
        cache.store_rect(7, 100, &Rectifiability::Rectifiable);
        assert_eq!(cache.lookup_rect(7, 100), Some(Rectifiability::Rectifiable));
        assert_eq!(cache.lookup_rect(7, 999), None, "check mismatch is a miss");
        assert_eq!(cache.lookup_rect(8, 100), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn kinds_never_alias_even_on_equal_keys() {
        let cache = MemoCache::new();
        cache.store_rect(42, 1, &Rectifiability::Rectifiable);
        assert!(
            cache.lookup_sweep(42, 1).is_none(),
            "a rect entry must not satisfy a sweep lookup"
        );
        assert!(cache.lookup_patch(42, 1).is_none());
    }

    #[test]
    fn fifo_eviction_bounds_each_shard() {
        let cache = MemoCache::with_shard_capacity(2);
        // Keys 0, 16, 32, 48 all land in shard 0.
        for k in [0u128, 16, 32] {
            cache.store_rect(k, 1, &Rectifiability::Rectifiable);
        }
        assert!(cache.lookup_rect(0, 1).is_none(), "oldest entry evicted");
        assert!(cache.lookup_rect(16, 1).is_some());
        assert!(cache.lookup_rect(32, 1).is_some());
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
        cache.store_rect(0, 1, &Rectifiability::Rectifiable);
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
        assert_eq!(cache.lookup_rect(0, 1), Some(Rectifiability::Rectifiable));
        assert_eq!(cache.lookup_rect(16, 1), None, "miss degrades cleanly");
        cache.store_rect(16, 1, &Rectifiability::Rectifiable);
        assert_eq!(cache.lookup_rect(16, 1), Some(Rectifiability::Rectifiable));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn concurrent_store_and_lookup_is_safe() {
        let cache = MemoCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = u128::from(i % 32);
                        cache.store_rect(key, 5, &Rectifiability::Rectifiable);
                        assert_eq!(
                            cache.lookup_rect(key, 5),
                            Some(Rectifiability::Rectifiable),
                            "thread {t}"
                        );
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 32);
        assert_eq!(cache.stats().insertions, 32, "first write wins");
    }
}
