//! Durable [`MemoCache`] persistence: snapshot + append-only journal.
//!
//! # What the memo store persists
//!
//! [`MemoStore`] journals each **complete patch result** as the cache
//! inserts it and compacts them into a snapshot on graceful shutdown.
//! Both files use the checksummed record log of [`crate::journal`]. Each
//! result is one tag-2 record; patch circuits travel as binary AIGER
//! ([`eco_aig::write_aiger_binary`]), which round-trips input/output
//! names exactly. Stores written by older versions may also hold tag-1
//! rectifiability records; the loader skips and counts them.
//!
//! # Why a corrupt-but-checksum-valid entry is still safe
//!
//! Durability never weakens the cache's soundness contract: a loaded
//! patch entry is SAT re-verified against the live instance on every
//! hit (see [`crate::MemoCache`]). The checksums exist to keep
//! *recovery* clean and counted — correctness never depends on them.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eco_aig::{parse_aiger_binary, write_aiger_binary};

use crate::engine::{EcoResult, TargetPatch};
use crate::faultpoint;
use crate::journal::{read_log, Journal, LogStats, LogWriter};
use crate::memo::{Entry, MemoCache};

/// Magic prefix of memo snapshot and journal files.
pub const MEMO_MAGIC: [u8; 8] = *b"ECOMEMO1";

// ---------------------------------------------------------------------------
// Entry codec.

/// Record tag of a patch result. Tag 1 stays reserved: older stores
/// hold rectifiability verdicts under it, which decode to `None`.
const TAG_PATCH: u8 = 2;

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
}

/// Serializes a cache entry as one tag-2 record.
pub(crate) fn encode_memo_entry(key: u128, entry: &Entry) -> Vec<u8> {
    let Entry { check, result } = entry;
    let mut e = Enc(Vec::new());
    e.u8(TAG_PATCH);
    e.u128(key);
    e.u128(*check);
    e.u64(result.cost);
    e.u64(result.size as u64);
    e.u8(u8::from(result.localization_fallback));
    e.u64(result.interpolation_fallbacks as u64);
    e.u64(result.optimize_delta.0);
    e.u64(result.optimize_delta.1);
    e.u32(result.patches.len() as u32);
    for patch in &result.patches {
        e.str(&patch.target);
        e.u32(patch.base.len() as u32);
        for b in &patch.base {
            e.str(b);
        }
        e.u64(patch.size as u64);
    }
    e.bytes(&write_aiger_binary(&result.patch_aig, &[]));
    e.0
}

/// Deserializes one journaled entry; `None` means the payload is
/// structurally invalid or not a patch record (counted as skipped by the
/// loader).
pub(crate) fn decode_memo_entry(payload: &[u8]) -> Option<(u128, Entry)> {
    let mut d = Dec(payload);
    if d.u8()? != TAG_PATCH {
        return None;
    }
    let key = d.u128()?;
    let check = d.u128()?;
    let cost = d.u64()?;
    let size = d.u64()? as usize;
    let localization_fallback = d.u8()? != 0;
    let interpolation_fallbacks = d.u64()? as usize;
    let optimize_delta = (d.u64()?, d.u64()?);
    let n = d.u32()? as usize;
    let mut patches = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let target = d.str()?;
        let nb = d.u32()? as usize;
        let mut base = Vec::with_capacity(nb.min(4096));
        for _ in 0..nb {
            base.push(d.str()?);
        }
        let psize = d.u64()? as usize;
        patches.push(TargetPatch {
            target,
            base,
            size: psize,
        });
    }
    // A patch circuit is combinational: a payload carrying latches is not
    // a patch record.
    let (patch_aig, latches) = parse_aiger_binary(d.bytes()?).ok()?;
    if !latches.is_empty() {
        return None;
    }
    let result = EcoResult {
        patches,
        patch_aig,
        cost,
        size,
        // Telemetry describes a producing run, never a cached value;
        // store_patch already strips it.
        localization_fallback,
        interpolation_fallbacks,
        optimize_delta,
        telemetry: Default::default(),
    };
    Some((
        key,
        Entry {
            check,
            result: Box::new(result),
        },
    ))
}

// ---------------------------------------------------------------------------
// The durable store.

/// What a [`MemoStore::load_into`] pass recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoLoadStats {
    /// Entries decoded and inserted into the cache.
    pub loaded: u64,
    /// Records skipped: torn/corrupt frames, undecodable payloads
    /// (including older stores' tag-1 rectifiability records), and
    /// `memo.load` fault injections.
    pub skipped: u64,
    /// Bytes discarded at torn tails (snapshot + journal).
    pub discarded_bytes: u64,
}

/// Durable backing for a [`MemoCache`]: `memo.snap` (compacted
/// snapshot) plus `memo.wal` (append-only journal of inserts since the
/// snapshot), both in the state directory handed to [`MemoStore::open`].
///
/// Lifecycle: `open` → [`MemoStore::load_into`] (recover) →
/// [`MemoStore::attach`] (journal new inserts) → serve →
/// [`MemoStore::snapshot`] on graceful drain (compact + truncate the
/// journal). Append failures degrade durability, never serving: they
/// are counted ([`MemoStore::append_errors`]) and the entry stays
/// cached in memory.
#[derive(Debug)]
pub struct MemoStore {
    snap_path: PathBuf,
    wal_path: PathBuf,
    wal: Journal,
}

impl MemoStore {
    /// Opens (creating if needed) the store in `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Arc<MemoStore>> {
        let wal_path = dir.join("memo.wal");
        Ok(Arc::new(MemoStore {
            snap_path: dir.join("memo.snap"),
            wal: Journal::open(&wal_path, &MEMO_MAGIC)?,
            wal_path,
        }))
    }

    /// Replays the snapshot, then the journal, into `cache`. Corrupt,
    /// torn, or undecodable records are skipped and counted — recovery
    /// never fails, it only recovers less. Call before [`MemoStore::attach`]
    /// so the replay is not re-journaled. Each record also consults the
    /// `memo.load` fault point (injected hit ⇒ treated as corrupt).
    pub fn load_into(&self, cache: &MemoCache) -> MemoLoadStats {
        let mut stats = MemoLoadStats::default();
        // The journal's open cut its torn tail off; count it here, where
        // the read would have.
        for (path, torn) in [
            (&self.snap_path, LogStats::default()),
            (&self.wal_path, self.wal.torn()),
        ] {
            let (records, mut log) = match read_log(path, &MEMO_MAGIC) {
                Ok(r) => r,
                Err(_) => {
                    stats.skipped += 1;
                    continue;
                }
            };
            log += torn;
            stats.skipped += log.skipped_frames;
            stats.discarded_bytes += log.discarded_bytes;
            for payload in records {
                if faultpoint::should_fail("memo.load") {
                    stats.skipped += 1;
                    continue;
                }
                match decode_memo_entry(&payload) {
                    Some((key, entry)) => {
                        cache.store(key, entry);
                        stats.loaded += 1;
                    }
                    None => stats.skipped += 1,
                }
            }
        }
        stats
    }

    /// Attaches this store as the cache's insert journal (a second
    /// attach leaves the first store in place).
    pub fn attach(self: &Arc<Self>, cache: &MemoCache) {
        let _ = cache.journal.set(self.clone());
    }

    /// Compacts every resident entry of `cache` into a fresh snapshot
    /// (written to a temp file, fsynced, renamed over `memo.snap`) and
    /// truncates the journal (a failed truncation is counted in
    /// [`MemoStore::append_errors`]). Returns the number of entries
    /// written.
    pub fn snapshot(&self, cache: &MemoCache) -> std::io::Result<u64> {
        let tmp_path = self.snap_path.with_extension("snap.tmp");
        let mut tmp = LogWriter::create(&tmp_path, &MEMO_MAGIC)?;
        let entries = cache.export_entries();
        for (key, entry) in &entries {
            tmp.append(&encode_memo_entry(*key, entry))?;
        }
        tmp.sync()?;
        std::fs::rename(&tmp_path, &self.snap_path)?;
        // Everything journaled so far is now in the snapshot.
        self.wal.reset();
        Ok(entries.len() as u64)
    }

    /// Journal records appended since open.
    pub fn appended(&self) -> u64 {
        self.wal.appended()
    }

    /// Journal appends and truncations that failed (durability
    /// degraded, serving continued).
    pub fn append_errors(&self) -> u64 {
        self.wal.append_errors()
    }

    /// Appends one encoded entry to the journal; an IO failure is
    /// counted, never raised.
    pub(crate) fn append(&self, bytes: &[u8]) {
        self.wal.append(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EcoEngine, EcoOptions};
    use crate::instance::EcoInstance;
    use crate::memo::patch_memo_key;
    use crate::memo::tests::tiny_result;
    use eco_netlist::{parse_verilog, WeightTable};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eco_memo_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn instance() -> EcoInstance {
        EcoInstance::from_netlists(
            "store-test",
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
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance")
    }

    /// The doc example's verified result with its memo key and check.
    fn doc_result() -> (u128, u128, EcoResult) {
        let inst = instance();
        let opts = EcoOptions::default();
        let (key, check) = patch_memo_key(&inst, &opts);
        let result = EcoEngine::new(inst, opts)
            .run()
            .expect("doc example rectifies");
        (key, check, result)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn attached_sink_journals_inserts_for_the_next_process() {
        let dir = tmpdir("sink");
        let (key, check, result) = doc_result();
        {
            let store = MemoStore::open(&dir).expect("open");
            let cache = MemoCache::new();
            store.attach(&cache);
            cache.store_patch(key, check, &result);
            assert_eq!(store.appended(), 1);
            assert_eq!(store.append_errors(), 0);
            // No snapshot: simulate a crash (journal only).
        }
        let store = MemoStore::open(&dir).expect("reopen");
        let cache = MemoCache::new();
        let stats = store.load_into(&cache);
        assert_eq!(stats.loaded, 1);
        let cached = cache.lookup_patch(key, check).expect("patch recovered");
        assert_eq!(cached.cost, result.cost);
        assert_eq!(cached.size, result.size);
        assert_eq!(cached.patches.len(), result.patches.len());
        assert_eq!(cached.patches[0].target, result.patches[0].target);
        assert_eq!(cached.patches[0].base, result.patches[0].base);
        assert_eq!(
            cached.patch_aig.structural_fingerprint(),
            result.patch_aig.structural_fingerprint(),
            "patch circuit must round-trip structurally intact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_journal_record_is_skipped_not_fatal() {
        let dir = tmpdir("undecodable");
        let store = MemoStore::open(&dir).expect("open");
        // A well-framed patch record whose circuit carries a latch (a
        // toggle flip-flop): the pinned record with its AIGER payload
        // swapped. A patch is combinational, so it must not load.
        let entry = Entry {
            check: PIN_CHECK,
            result: Box::new(tiny_result()),
        };
        let pinned = encode_memo_entry(PIN_KEY, &entry);
        let aiger_len = write_aiger_binary(&entry.result.patch_aig, &[]).len();
        let mut latched = Enc(pinned[..pinned.len() - 4 - aiger_len].to_vec());
        latched.bytes(b"aig 1 0 1 1 0\n3\n2\n");
        assert!(decode_memo_entry(&latched.0).is_none());
        {
            let mut wal = LogWriter::open_append(&dir.join("memo.wal"), &MEMO_MAGIC).expect("wal");
            wal.append(b"\xffgarbage-payload").expect("append");
            wal.append(&latched.0).expect("append");
        }
        let cache = MemoCache::new();
        let cache_stats_before = cache.stats();
        let stats = store.load_into(&cache);
        assert_eq!(stats.loaded, 0);
        assert_eq!(stats.skipped, 2);
        assert_eq!(cache.stats().entries, cache_stats_before.entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_the_journal() {
        let dir = tmpdir("truncate");
        let store = MemoStore::open(&dir).expect("open");
        let cache = MemoCache::new();
        store.attach(&cache);
        let (key, check, result) = doc_result();
        cache.store_patch(key, check, &result);
        assert_eq!(store.appended(), 1);
        store.snapshot(&cache).expect("snapshot");
        let (wal_records, _) = read_log(&dir.join("memo.wal"), &MEMO_MAGIC).expect("read");
        assert!(wal_records.is_empty(), "journal compacted into snapshot");
        let fresh = MemoCache::new();
        assert_eq!(store.load_into(&fresh).loaded, 1, "entry survives in snap");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tag-2 patch record of [`tiny_result`] under [`PIN_KEY`] and
    /// [`PIN_CHECK`], byte for byte as older binaries write it: a daemon
    /// restarted on a newer binary must keep decoding the
    /// `memo.snap`/`memo.wal` an older one left behind.
    const PINNED_PATCH_RECORD: &str = "\
        021032547698badcfeefcdab8967452301f0e1d2c3b4a5968778695a4b3c2d1e0f\
        0700000000000000010000000000000000010000000000000009000000000000\
        0007000000000000000100000001000000740200000001000000610100000062\
        010000000000000021000000616967203320322030203120310a360a01036930\
        20610a693120620a6f3020740a";
    /// An older store's tag-1 (rectifiability verdict) record: key 5,
    /// check 6, verdict `Rectifiable`.
    const LEGACY_RECT_RECORD: &str = "\
        0105000000000000000000000000000000060000000000000000000000000000\
        0000";
    const PIN_KEY: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
    const PIN_CHECK: u128 = 0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0;

    #[test]
    fn patch_record_bytes_are_pinned() {
        let entry = Entry {
            check: PIN_CHECK,
            result: Box::new(tiny_result()),
        };
        let bytes = encode_memo_entry(PIN_KEY, &entry);
        assert_eq!(hex(&bytes), PINNED_PATCH_RECORD);

        let (key, decoded) = decode_memo_entry(&bytes).expect("pinned record decodes");
        assert_eq!((key, decoded.check), (PIN_KEY, PIN_CHECK));
        let r = &decoded.result;
        assert_eq!((r.cost, r.size), (7, 1));
        assert!(!r.localization_fallback);
        assert_eq!(r.interpolation_fallbacks, 1);
        assert_eq!(r.optimize_delta, (9, 7));
        assert_eq!(r.patches.len(), 1);
        assert_eq!(r.patches[0].target, "t");
        assert_eq!(r.patches[0].base, ["a", "b"]);
        assert_eq!(r.patches[0].size, 1);
        assert_eq!(
            r.patch_aig.structural_fingerprint(),
            entry.result.patch_aig.structural_fingerprint()
        );
        assert_eq!(encode_memo_entry(key, &decoded), bytes, "round trip");

        // An older journal: a tag-1 record, then the pinned patch record.
        let dir = tmpdir("pinned");
        let mut wal = LogWriter::create(&dir.join("memo.wal"), &MEMO_MAGIC).expect("wal");
        wal.append(&unhex(LEGACY_RECT_RECORD)).expect("rect");
        wal.append(&unhex(PINNED_PATCH_RECORD)).expect("patch");
        drop(wal);
        let cache = MemoCache::new();
        let stats = MemoStore::open(&dir).expect("open").load_into(&cache);
        assert_eq!((stats.loaded, stats.skipped), (1, 1));
        let cached = cache.lookup_patch(PIN_KEY, PIN_CHECK).expect("loaded");
        assert_eq!(cached.cost, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
