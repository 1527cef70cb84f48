//! The workspace's one durable log: checksummed record framing, a
//! counted append handle, keyed journal records, and the state directory
//! eco-batch and eco-serve keep them in.
//!
//! # Record log format
//!
//! A log file is an 8-byte magic followed by length-prefixed records:
//!
//! ```text
//! [magic: 8 bytes] ([len: u32 LE] [crc32: u32 LE] [payload: len bytes])*
//! ```
//!
//! Every record carries a CRC-32 (IEEE) of its payload, so loading
//! tolerates exactly the failures a crash can produce: a torn tail
//! (partial last record after a kill mid-write) or a flipped byte. The
//! reader stops at the first frame whose length or checksum doesn't
//! hold and reports how much it discarded — an append-only log has no
//! trustworthy data past its first bad frame. Opening a log for append
//! therefore cuts it at that frame first, so new records land where the
//! reader looks; a load through the same handle still counts what the
//! cut dropped. The memo store's `memo.snap`/`memo.wal` and both job
//! journals use this framing.
//!
//! # Keyed journal records
//!
//! `batch.wal` ([`BATCH_WAL`]) and `requests.wal` ([`REQUESTS_WAL`])
//! hold payloads `[tag u8][key u128 LE][body]`, keyed by a fingerprint
//! of the job (eco-batch: its content; eco-serve: its request line):
//!
//! | tag | record  | body                         | written                          |
//! |-----|---------|------------------------------|----------------------------------|
//! | 1   | admit   | request line (batch: empty)  | before the job runs              |
//! | 2   | done    | response / JSONL record line | after it ran, before it is sent  |
//! | 3   | refused | empty                        | serve: an admitted job was shed  |
//! | 4   | attempt | empty                        | serve: before a resume re-runs it |
//!
//! A resume loads the whole journal into one [`JournalState`]: done
//! bodies replay verbatim, admitted jobs without one re-execute.
//!
//! # Degradation
//!
//! IO failures degrade durability, never the run: every failed append,
//! reset, open, snapshot and every record a load skips is counted, and
//! [`StateDir::persist_errors`] is their one sum.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::faultpoint;
use crate::memo::MemoCache;
use crate::memo_store::MemoStore;

/// Upper bound on a single record payload; longer length prefixes are
/// treated as corruption (a flipped length byte must not trigger a
/// gigabyte allocation).
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Resume attempts after which a journaled job is refused with a typed
/// `quarantined` error instead of recrashing the daemon forever.
pub const QUARANTINE_AFTER: u32 = 3;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), byte-at-a-time with a const-built table.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the per-record checksum of every log.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Framed record log.

/// Append handle on a framed record log (the format [`read_log`] reads).
#[derive(Debug)]
pub struct LogWriter {
    file: File,
    torn: LogStats,
}

impl LogWriter {
    /// Creates (truncating) a log at `path` with the given magic.
    pub fn create(path: &Path, magic: &[u8; 8]) -> io::Result<LogWriter> {
        let mut file = File::create(path)?;
        file.write_all(magic)?;
        Ok(LogWriter {
            file,
            torn: LogStats::default(),
        })
    }

    /// Opens a log for appending, creating it (with magic) if missing or
    /// empty. A torn or corrupt tail is cut off at the first bad frame,
    /// where [`read_log`] stops, so appended records are read back;
    /// [`LogWriter::torn`] reports what the cut dropped. Rejects a file
    /// that exists with a different magic.
    pub fn open_append(path: &Path, magic: &[u8; 8]) -> io::Result<LogWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let mut torn = LogStats::default();
        if data.is_empty() {
            file.write_all(magic)?;
        } else if data.len() < 8 || data[..8] != *magic {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a record log (bad magic)", path.display()),
            ));
        } else {
            let end = intact_frames(&data).1;
            if end < data.len() {
                file.set_len(end as u64)?;
                torn.skipped_frames = 1;
                torn.discarded_bytes = (data.len() - end) as u64;
            }
        }
        Ok(LogWriter { file, torn })
    }

    /// The torn tail [`LogWriter::open_append`] cut off: one skipped
    /// frame and its discarded bytes, or nothing.
    pub fn torn(&self) -> LogStats {
        self.torn
    }

    /// Appends one framed record. Consults the `io.write` fault point.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        faultpoint::inject_io("io.write")?;
        // One write_all for the whole frame: a crash can still tear it,
        // but only at the tail the reader is built to discard.
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)
    }

    /// Flushes file data to disk. Consults the `io.fsync` fault point.
    pub fn sync(&mut self) -> io::Result<()> {
        faultpoint::inject_io("io.fsync")?;
        self.file.sync_data()
    }
}

/// What [`read_log`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records read intact.
    pub records: u64,
    /// Corrupt or torn frames hit (at most 1: reading stops there).
    pub skipped_frames: u64,
    /// Bytes discarded from the first bad frame to end-of-file.
    pub discarded_bytes: u64,
}

impl std::ops::AddAssign for LogStats {
    fn add_assign(&mut self, rhs: LogStats) {
        self.records += rhs.records;
        self.skipped_frames += rhs.skipped_frames;
        self.discarded_bytes += rhs.discarded_bytes;
    }
}

/// The payloads of the intact frames of `data` (a whole log, magic
/// included) and the offset where they end: at the first torn or
/// corrupt frame, or at end-of-file.
fn intact_frames(data: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 8usize;
    while let Some(rest) = data.get(pos..).filter(|rest| rest.len() >= 8) {
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN || rest.len() < 8 + len as usize {
            break; // implausible length or torn payload
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break; // flipped bytes
        }
        payloads.push(payload);
        pos += 8 + len as usize;
    }
    (payloads, pos)
}

/// Reads every intact record of the log at `path`. A missing file is an
/// empty log; a file with the wrong magic yields no records and counts
/// one skipped frame. Reading stops at the first torn or corrupt frame
/// (append-only logs have no trustworthy data past it).
pub fn read_log(path: &Path, magic: &[u8; 8]) -> io::Result<(Vec<Vec<u8>>, LogStats)> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), LogStats::default()))
        }
        Err(e) => return Err(e),
    };
    let mut stats = LogStats::default();
    if data.len() < 8 || data[..8] != *magic {
        stats.skipped_frames = 1;
        stats.discarded_bytes = data.len() as u64;
        return Ok((Vec::new(), stats));
    }
    let (payloads, end) = intact_frames(&data);
    stats.records = payloads.len() as u64;
    if end < data.len() {
        stats.skipped_frames = 1;
        stats.discarded_bytes = (data.len() - end) as u64;
    }
    Ok((payloads.into_iter().map(<[u8]>::to_vec).collect(), stats))
}

// ---------------------------------------------------------------------------
// The counted append handle and its keyed records.

const REC_ADMIT: u8 = 1;
const REC_DONE: u8 = 2;
const REC_REFUSED: u8 = 3;
const REC_ATTEMPT: u8 = 4;

/// A shared append handle on one record log, counting what it appended
/// and what failed. Appends never fail the caller: an IO error is
/// counted in [`Journal::append_errors`] and the run goes on.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    magic: [u8; 8],
    log: Mutex<LogWriter>,
    appended: AtomicU64,
    append_errors: AtomicU64,
}

impl Journal {
    /// Opens the log at `path` for appending, creating it (and its
    /// directory) if missing.
    pub fn open(path: &Path, magic: &[u8; 8]) -> io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            magic: *magic,
            log: Mutex::new(LogWriter::open_append(path, magic)?),
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
        })
    }

    /// Appends one raw payload (consults the `io.write` fault point).
    pub fn append(&self, payload: &[u8]) {
        let counter = match self.lock().append(payload) {
            Ok(()) => &self.appended,
            Err(_) => &self.append_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Truncates the log back to an empty one. A failure leaves the old
    /// log in place and is counted in [`Journal::append_errors`].
    pub fn reset(&self) {
        let mut log = self.lock();
        match LogWriter::create(&self.path, &self.magic) {
            Ok(fresh) => *log = fresh,
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records appended since open.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Appends and resets that failed.
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// The torn tail cut off when this journal was opened, until a
    /// [`Journal::reset`] (see [`LogWriter::torn`]).
    pub fn torn(&self) -> LogStats {
        self.lock().torn()
    }

    /// Journals that job `key` is about to run; `body` is the request
    /// line a resume re-executes (empty for batch jobs).
    pub fn admit(&self, key: u128, body: &str) {
        self.keyed(REC_ADMIT, key, body);
    }

    /// Journals job `key`'s answer — before anyone sees it, so every
    /// delivered answer is durable.
    pub fn done(&self, key: u128, body: &str) {
        self.keyed(REC_DONE, key, body);
    }

    /// Journals that admitted job `key` was refused: resume must not
    /// re-execute it.
    pub fn refused(&self, key: u128) {
        self.keyed(REC_REFUSED, key, "");
    }

    /// Journals a resume re-execution of job `key`, before it runs; the
    /// attempt count drives [`QUARANTINE_AFTER`].
    pub fn attempt(&self, key: u128) {
        self.keyed(REC_ATTEMPT, key, "");
    }

    fn keyed(&self, tag: u8, key: u128, body: &str) {
        let mut payload = Vec::with_capacity(17 + body.len());
        payload.push(tag);
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(body.as_bytes());
        self.append(&payload);
    }

    fn lock(&self) -> MutexGuard<'_, LogWriter> {
        // A panic mid-append leaves at most a torn tail, which the
        // loader discards; the writer handle stays valid.
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a journal load recovered.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Admit bodies in first-admit order, deduped by key — the resume
    /// order.
    pub admits: Vec<(u128, String)>,
    /// Done bodies by key (the last record wins), replayed verbatim.
    pub done: HashMap<u128, String>,
    /// Keys refused after admission: never resumed.
    pub refused: HashSet<u128>,
    /// Prior resume attempts by key.
    pub attempts: HashMap<u128, u32>,
    /// Raw log framing stats (torn tails, discarded bytes).
    pub log: LogStats,
    /// Structurally invalid payloads skipped.
    pub bad_records: u64,
}

impl JournalState {
    /// Frames and payloads the load had to skip.
    pub fn skipped(&self) -> u64 {
        self.log.skipped_frames + self.bad_records
    }
}

/// One job journal of a state directory: its file name and magic.
#[derive(Clone, Copy, Debug)]
pub struct JournalFile {
    /// File name inside the state directory.
    pub name: &'static str,
    /// The log's 8-byte magic.
    pub magic: [u8; 8],
}

/// eco-batch's job journal.
pub const BATCH_WAL: JournalFile = JournalFile {
    name: "batch.wal",
    magic: *b"ECOBWAL1",
};

/// eco-serve's request journal.
pub const REQUESTS_WAL: JournalFile = JournalFile {
    name: "requests.wal",
    magic: *b"ECORQJL1",
};

impl JournalFile {
    /// Opens (creating if needed) this journal in `dir` for appending.
    pub fn open(&self, dir: &Path) -> io::Result<Journal> {
        Journal::open(&dir.join(self.name), &self.magic)
    }

    /// Loads this journal from `dir`. A missing journal is an empty
    /// state; torn or corrupt frames and undecodable payloads are
    /// skipped and counted.
    pub fn load(&self, dir: &Path) -> io::Result<JournalState> {
        let (records, log) = read_log(&dir.join(self.name), &self.magic)?;
        let mut state = JournalState {
            log,
            ..Default::default()
        };
        let mut seen_admits = HashSet::new();
        for payload in records {
            if payload.len() < 17 {
                state.bad_records += 1;
                continue;
            }
            let key =
                u128::from_le_bytes(payload[1..17].try_into().expect("17-byte prefix checked"));
            let body = || String::from_utf8(payload[17..].to_vec()).ok();
            match payload[0] {
                REC_ADMIT => match body() {
                    Some(line) if seen_admits.insert(key) => state.admits.push((key, line)),
                    Some(_) => {} // the same job admitted again
                    None => state.bad_records += 1,
                },
                REC_DONE => match body() {
                    Some(line) => {
                        state.done.insert(key, line);
                    }
                    None => state.bad_records += 1,
                },
                REC_REFUSED => {
                    state.refused.insert(key);
                }
                REC_ATTEMPT => *state.attempts.entry(key).or_insert(0) += 1,
                _ => state.bad_records += 1,
            }
        }
        Ok(state)
    }
}

// ---------------------------------------------------------------------------
// The state directory.

/// A crash-safety state directory: the durable memo store (`memo.snap`,
/// `memo.wal`) plus one job journal, with one failure count.
///
/// Lifecycle: [`StateDir::open`] (recover the memo store into the cache,
/// then journal its new inserts; open the job journal) → run, appending
/// through [`StateDir::journal`] → [`StateDir::load_journal`] on resume
/// → [`StateDir::snapshot`] on a graceful finish. A part that fails to
/// open is left out (the run goes on in memory) and counted.
#[derive(Debug)]
pub struct StateDir {
    dir: PathBuf,
    file: JournalFile,
    store: Option<Arc<MemoStore>>,
    journal: Option<Journal>,
    memo_loaded: u64,
    open_error: Option<String>,
    /// Open failures, load skips and snapshot failures.
    errors: AtomicU64,
}

impl StateDir {
    /// Opens the state in `dir`: loads the memo store into `cache`
    /// before attaching it (so the replay is not re-journaled), then
    /// opens `file` for appending.
    pub fn open(dir: &Path, file: JournalFile, cache: &MemoCache) -> StateDir {
        let mut errors = 0;
        let mut open_error = None;
        let mut memo_loaded = 0;
        let store = match MemoStore::open(dir) {
            Ok(store) => {
                let loaded = store.load_into(cache);
                memo_loaded = loaded.loaded;
                errors += loaded.skipped;
                store.attach(cache);
                Some(store)
            }
            Err(e) => {
                errors += 1;
                open_error = Some(format!("memo store: {e}"));
                None
            }
        };
        let journal = match file.open(dir) {
            Ok(journal) => Some(journal),
            Err(e) => {
                errors += 1;
                open_error = Some(format!("{}: {e}", file.name));
                None
            }
        };
        StateDir {
            dir: dir.to_path_buf(),
            file,
            store,
            journal,
            memo_loaded,
            open_error,
            errors: AtomicU64::new(errors),
        }
    }

    /// The job journal, unless it failed to open.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Why part of the state failed to open, if it did.
    pub fn open_error(&self) -> Option<&str> {
        self.open_error.as_deref()
    }

    /// Memo entries recovered at open.
    pub fn memo_loaded(&self) -> u64 {
        self.memo_loaded
    }

    /// Loads the job journal for a resume. Skipped frames and payloads
    /// are counted — the torn tail the journal's open cut off among them
    /// — and so is a failed read (which is also returned).
    pub fn load_journal(&self) -> io::Result<JournalState> {
        let loaded = self.file.load(&self.dir).map(|mut state| {
            if let Some(journal) = &self.journal {
                state.log += journal.torn();
            }
            state
        });
        let errors = loaded.as_ref().map_or(1, JournalState::skipped);
        self.errors.fetch_add(errors, Ordering::Relaxed);
        loaded
    }

    /// Compacts the memo store into its snapshot and truncates
    /// `memo.wal`; a failure is counted.
    pub fn snapshot(&self, cache: &MemoCache) {
        if let Some(store) = &self.store {
            if store.snapshot(cache).is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records appended to the journal and the memo store.
    pub fn appended(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::appended)
            + self.store.as_ref().map_or(0, |s| s.appended())
    }

    /// Every persistence failure: open failures, records skipped by a
    /// load, failed appends, resets and snapshots.
    pub fn persist_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
            + self.journal.as_ref().map_or(0, Journal::append_errors)
            + self.store.as_ref().map_or(0, |s| s.append_errors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo_store::MEMO_MAGIC;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eco_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn log_round_trips_and_missing_file_is_empty() {
        let dir = tmpdir("log");
        let path = dir.join("t.log");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("missing ok");
        assert!(records.is_empty());
        assert_eq!(stats, LogStats::default());
        let mut w = LogWriter::create(&path, &MEMO_MAGIC).expect("create");
        w.append(b"alpha").expect("a");
        w.append(b"").expect("empty payload is a valid record");
        w.append(b"gamma").expect("g");
        w.sync().expect("sync");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
        assert_eq!(stats.records, 3);
        assert_eq!(stats.skipped_frames, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_counted() {
        let dir = tmpdir("torn");
        let path = dir.join("t.log");
        let mut w = LogWriter::create(&path, &MEMO_MAGIC).expect("create");
        w.append(b"first").expect("a");
        w.append(b"second-record").expect("b");
        drop(w);
        let full = std::fs::read(&path).expect("read file");
        // Tear mid-way through the second record's payload.
        std::fs::write(&path, &full[..full.len() - 4]).expect("tear");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(records, vec![b"first".to_vec()]);
        assert_eq!(stats.records, 1);
        assert_eq!(stats.skipped_frames, 1);
        assert!(stats.discarded_bytes > 0);
        // Opening for append cuts the tear off and reports what the cut
        // dropped exactly as the read counted it, so records appended
        // afterwards are read back.
        let mut w = LogWriter::open_append(&path, &MEMO_MAGIC).expect("reopen");
        let torn = w.torn();
        assert_eq!(
            (torn.skipped_frames, torn.discarded_bytes),
            (stats.skipped_frames, stats.discarded_bytes)
        );
        w.append(b"third").expect("c");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(records, vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(stats.skipped_frames, 0);
        let reopened = LogWriter::open_append(&path, &MEMO_MAGIC).expect("reopen");
        assert_eq!(
            reopened.torn(),
            LogStats::default(),
            "an intact log is kept"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_stops_the_read() {
        let dir = tmpdir("flip");
        let path = dir.join("t.log");
        let mut w = LogWriter::create(&path, &MEMO_MAGIC).expect("create");
        w.append(b"aaaa").expect("a");
        w.append(b"bbbb").expect("b");
        w.append(b"cccc").expect("c");
        drop(w);
        let mut data = std::fs::read(&path).expect("read");
        // Flip one payload byte of the middle record.
        let mid = 8 + (8 + 4) + 8 + 1;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).expect("write");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(records, vec![b"aaaa".to_vec()]);
        assert_eq!(stats.skipped_frames, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_yields_no_records() {
        let dir = tmpdir("magic");
        let path = dir.join("t.log");
        std::fs::write(&path, b"NOTALOG!junkjunkjunk").expect("write");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert!(records.is_empty());
        assert_eq!(stats.skipped_frames, 1);
        assert!(LogWriter::open_append(&path, &MEMO_MAGIC).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    const LINE_1: &str = "{\"op\": \"run\", \"id\": 1}";
    const LINE_2: &str = "{\"op\": \"run\", \"id\": 2}";
    const LINE_3: &str = "{\"op\": \"run\", \"id\": 3}";
    /// eco-serve's request fingerprints of `LINE_1..3`.
    const KEY_1: u128 = 0x18b5_d1ac_7c52_d5ec_296f_a277_cb45_3040;
    const KEY_2: u128 = 0x6d32_2d17_d001_99d8_fa15_3f0b_aa49_1a7e;
    const KEY_3: u128 = 0xa135_b7f6_1f05_9732_b83a_831a_d7b5_f10f;

    /// Every record kind, as the daemon writes them.
    fn write_every_kind(journal: &Journal) {
        journal.admit(KEY_1, LINE_1);
        journal.done(KEY_1, "{\"id\": 1, \"ok\": true}");
        journal.admit(KEY_2, LINE_2);
        journal.refused(KEY_2);
        journal.admit(KEY_3, LINE_3); // the crash victim
        journal.attempt(KEY_3);
        journal.admit(KEY_3, LINE_3); // the same job admitted again
    }

    /// The `requests.wal` that [`write_every_kind`] leaves, byte for
    /// byte as older binaries write it: a daemon restarted on a newer
    /// binary must keep resuming the journal an older one left behind.
    const PINNED_REQUESTS_WAL: &str = "\
        45434f52514a4c31270000007cb678c901403045cb77a26f29ecd5527cacd1b5\
        187b226f70223a202272756e222c20226964223a20317d2600000088064dd202\
        403045cb77a26f29ecd5527cacd1b5187b226964223a20312c20226f6b223a20\
        747275657d2700000061d18c27017e1a49aa0b3f15fad89901d0172d326d7b22\
        6f70223a202272756e222c20226964223a20327d1100000060142e46037e1a49\
        aa0b3f15fad89901d0172d326d27000000c8cafcff010ff1b5d71a833ab83297\
        051ff6b735a17b226f70223a202272756e222c20226964223a20337d11000000\
        b1caff06040ff1b5d71a833ab83297051ff6b735a127000000c8cafcff010ff1\
        b5d71a833ab83297051ff6b735a17b226f70223a202272756e222c2022696422\
        3a20337d";

    #[test]
    fn journal_round_trips_all_record_kinds() {
        let dir = tmpdir("roundtrip");
        let journal = REQUESTS_WAL.open(&dir).expect("open");
        write_every_kind(&journal);
        assert_eq!(journal.appended(), 7);
        assert_eq!(journal.append_errors(), 0);
        drop(journal);
        let bytes = std::fs::read(dir.join("requests.wal")).expect("read");
        assert_eq!(hex(&bytes), PINNED_REQUESTS_WAL);

        let state = REQUESTS_WAL.load(&dir).expect("load");
        let admits: Vec<(u128, &str)> = state
            .admits
            .iter()
            .map(|(key, line)| (*key, line.as_str()))
            .collect();
        assert_eq!(
            admits,
            [(KEY_1, LINE_1), (KEY_2, LINE_2), (KEY_3, LINE_3)],
            "first-admit order, deduped by key"
        );
        assert_eq!(state.done.len(), 1);
        assert_eq!(
            state.done.get(&KEY_1).map(String::as_str),
            Some("{\"id\": 1, \"ok\": true}")
        );
        assert_eq!(state.refused, HashSet::from([KEY_2]));
        assert_eq!(state.attempts, HashMap::from([(KEY_3, 1)]));
        assert_eq!(state.log.records, 7);
        assert_eq!(state.skipped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_last_done_record_wins() {
        let dir = tmpdir("lastdone");
        let journal = BATCH_WAL.open(&dir).expect("open");
        journal.done(5, "first");
        journal.done(5, "second");
        drop(journal);
        let state = BATCH_WAL.load(&dir).expect("load");
        assert_eq!(state.done.get(&5).map(String::as_str), Some("second"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty() {
        let dir = tmpdir("missing");
        for file in [BATCH_WAL, REQUESTS_WAL] {
            let state = file.load(&dir).expect("load");
            assert!(state.admits.is_empty() && state.done.is_empty());
            assert_eq!(state.skipped(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_payloads_are_counted_not_fatal() {
        let dir = tmpdir("garbage");
        let journal = BATCH_WAL.open(&dir).expect("open");
        journal.append(b"short");
        journal.append(b"\x09sixteen-bytes!!!unknown-tag");
        journal.append(b"\x02sixteen-bytes!!!\xff not utf-8");
        journal.done(3, "kept");
        drop(journal);
        let state = BATCH_WAL.load(&dir).expect("load");
        assert_eq!(state.bad_records, 3);
        assert_eq!(state.skipped(), 3);
        assert_eq!(state.done.len(), 1, "only the well-formed record");
        // The other journal's magic: no records, one skipped frame.
        let foreign = dir.join(REQUESTS_WAL.name);
        std::fs::copy(dir.join(BATCH_WAL.name), &foreign).expect("copy");
        let state = REQUESTS_WAL.load(&dir).expect("load");
        assert_eq!((state.log.records, state.skipped()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_to_an_empty_log() {
        let dir = tmpdir("reset");
        let journal = REQUESTS_WAL.open(&dir).expect("open");
        journal.admit(1, "line");
        journal.reset();
        journal.admit(1, "line2"); // post-reset appends still land
        assert_eq!((journal.appended(), journal.append_errors()), (2, 0));
        drop(journal);
        let state = REQUESTS_WAL.load(&dir).expect("load");
        assert_eq!(state.admits, [(1, "line2".to_string())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_dir_counts_open_failures_and_load_skips() {
        let dir = tmpdir("statedir");
        // A clean directory opens whole and counts nothing.
        let state = StateDir::open(&dir, BATCH_WAL, &MemoCache::new());
        assert!(state.journal().is_some() && state.open_error().is_none());
        state.journal().expect("journal").done(1, "answer");
        assert_eq!((state.appended(), state.persist_errors()), (1, 0));
        drop(state);

        // A journal with a foreign magic is left out and counted once at
        // open; the resume load counts its skipped frame too.
        std::fs::write(dir.join(REQUESTS_WAL.name), b"NOTALOG!").expect("write");
        let state = StateDir::open(&dir, REQUESTS_WAL, &MemoCache::new());
        assert!(state.journal().is_none());
        assert!(
            state
                .open_error()
                .is_some_and(|e| e.starts_with("requests.wal: ")),
            "{:?}",
            state.open_error()
        );
        assert_eq!(state.persist_errors(), 1);
        let loaded = state.load_journal().expect("load");
        assert_eq!(loaded.log.skipped_frames, 1);
        assert_eq!(state.persist_errors(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
