//! Deterministic fault-injection registry for chaos testing (a public
//! module: consult sites live across the workspace).
//!
//! Production code consults *named fault points* at the places where the
//! real world can fail — disk writes, fsync, cache loads, admission,
//! worker scheduling — and the registry decides, from a seeded schedule,
//! whether to inject a failure there. Disarmed (the default), a consult
//! is a single relaxed atomic load and nothing else, so shipping the
//! consult sites costs nothing; armed, decisions are a pure function of
//! `(seed, site name, per-site consult counter)`, so a campaign replays
//! the same injection schedule per site on every run with the same seed.
//!
//! Worker threads run each job inside a [consult scope](scoped) keyed by
//! the job: its consults count per `(scope, site)`, so which worker runs
//! a job, and what runs beside it, cannot change its decisions. Consults
//! outside any scope (admission, startup load, checkpoint) count per site
//! and are made by one thread at a time.
//!
//! The registered site names (see [`SITES`]):
//!
//! | site | consulted where | injected failure |
//! |------|-----------------|------------------|
//! | `io.write` | record-log appends ([`LogWriter`](crate::LogWriter)) | `io::Error` |
//! | `io.fsync` | record-log syncs | `io::Error` |
//! | `memo.load` | memo-store load, per record | record treated as corrupt |
//! | `solver.panic` | job execution (batch/serve workers) | `panic!` |
//! | `queue.admit` | serve admission control | shed as `busy` |
//! | `worker.stall` | serve worker loop, per job | bounded sleep |
//!
//! Arm the registry with [`arm`] (CLI `--chaos seed=N,rate=P`) or
//! [`arm_from_env`] (`ECO_CHAOS=seed=N,rate=P`). Injection never
//! compromises soundness: every consult site sits on a path that already
//! has a typed degradation (skip + count, error record, refusal), which
//! is exactly the property the chaos campaign verifies.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Every registered fault-point name (documentation and campaign
/// sweeps; consulting an unlisted name works but won't be swept).
pub const SITES: &[&str] = &[
    "io.write",
    "io.fsync",
    "memo.load",
    "solver.panic",
    "queue.admit",
    "worker.stall",
];

/// A parsed `--chaos` specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Schedule seed; the same seed replays the same per-site decisions.
    pub seed: u64,
    /// Injection probability per consult, in `[0, 1]`.
    pub rate: f64,
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={},rate={}", self.seed, self.rate)
    }
}

/// Parses `seed=N,rate=P` (either key optional, any order; defaults
/// seed 1, rate 0.05).
pub fn parse_chaos_spec(text: &str) -> Result<ChaosSpec, String> {
    let mut spec = ChaosSpec {
        seed: 1,
        rate: 0.05,
    };
    for part in text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!("chaos spec: expected key=value, got `{part}`"));
        };
        match key.trim() {
            "seed" => {
                spec.seed = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("chaos spec: seed expects a number, got `{value}`"))?;
            }
            "rate" => {
                let rate: f64 = value.trim().parse().map_err(|_| {
                    format!("chaos spec: rate expects a probability, got `{value}`")
                })?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("chaos spec: rate must be in [0, 1], got `{value}`"));
                }
                spec.rate = rate;
            }
            other => return Err(format!("chaos spec: unknown key `{other}`")),
        }
    }
    Ok(spec)
}

/// Cumulative counters of the armed registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Consults answered while armed.
    pub consults: u64,
    /// Consults that injected a failure.
    pub injected: u64,
}

struct ChaosState {
    spec: ChaosSpec,
    /// Consults so far per `(scope, site)`; `None` is outside any scope.
    counters: HashMap<(Option<u128>, String), u64>,
    stats: FaultStats,
}

/// Fast-path gate: disarmed consults never touch the mutex.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ChaosState>> = Mutex::new(None);

fn lock_state() -> std::sync::MutexGuard<'static, Option<ChaosState>> {
    // The state is a plain map + counters, valid at every unwind point.
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms every fault point with a seeded schedule. Re-arming resets the
/// per-site counters, so a campaign iteration always starts from the
/// same schedule position.
pub fn arm(spec: ChaosSpec) {
    *lock_state() = Some(ChaosState {
        spec,
        counters: HashMap::new(),
        stats: FaultStats::default(),
    });
    ARMED.store(true, Ordering::Release);
}

/// Disarms the registry and returns the stats of the armed period
/// (zeroes if it was never armed).
pub fn disarm() -> FaultStats {
    ARMED.store(false, Ordering::Release);
    lock_state().take().map(|s| s.stats).unwrap_or_default()
}

/// Arms from the `ECO_CHAOS` environment variable (`seed=N,rate=P`) if
/// set; returns the spec used, or an error for a malformed value.
pub fn arm_from_env() -> Result<Option<ChaosSpec>, String> {
    match std::env::var("ECO_CHAOS") {
        Ok(text) => {
            let spec = parse_chaos_spec(&text)?;
            arm(spec);
            Ok(Some(spec))
        }
        Err(_) => Ok(None),
    }
}

/// Counters snapshot of the currently armed registry.
pub fn stats() -> FaultStats {
    lock_state().as_ref().map(|s| s.stats).unwrap_or_default()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

thread_local! {
    /// The consult scope of the job running on this thread, if any.
    static SCOPE: Cell<Option<u128>> = const { Cell::new(None) };
}

/// Restores the thread's previous consult scope, on unwind too.
struct ScopeGuard(Option<u128>);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.0));
    }
}

/// Runs `f` in the consult scope `key`, an identity of the job that
/// repeats from run to run (eco-batch: its journal fingerprint; eco-serve:
/// its position in its stream). Each consult `f` makes on this thread
/// draws from the schedule of `(key, site)`, so a job gets the same
/// decisions on whichever worker runs it. Scopes nest; the innermost one
/// counts.
pub fn scoped<R>(key: u128, f: impl FnOnce() -> R) -> R {
    let _restore = ScopeGuard(SCOPE.with(|s| s.replace(Some(key))));
    f()
}

/// Consults fault point `site`: `true` means the caller must inject its
/// failure now. Disarmed, this is one relaxed atomic load. Armed, the
/// decision is `splitmix64(seed ^ fnv(site) ^ mix(scope) ^ n)`
/// thresholded by the rate, where `n` counts the consults of this site in
/// this [scope](scoped) since arming (`mix` is 0 outside any scope) — the
/// schedule is deterministic whatever other sites and scopes do.
pub fn should_fail(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let scope = SCOPE.with(Cell::get);
    let mut guard = lock_state();
    let Some(state) = guard.as_mut() else {
        return false;
    };
    let mix = scope.map_or(0, |key| {
        splitmix64(key as u64 ^ splitmix64((key >> 64) as u64))
    });
    let n = state.counters.entry((scope, site.to_string())).or_insert(0);
    let draw = splitmix64(state.spec.seed ^ fnv64(site) ^ mix ^ *n);
    *n += 1;
    state.stats.consults += 1;
    // Top 53 bits → uniform in [0, 1).
    let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
    let inject = uniform < state.spec.rate;
    if inject {
        state.stats.injected += 1;
    }
    inject
}

/// IO-flavored consult: `Err` with a recognizable message when the site
/// fires, `Ok(())` otherwise.
pub fn inject_io(site: &str) -> std::io::Result<()> {
    if should_fail(site) {
        return Err(std::io::Error::other(format!(
            "chaos: injected {site} fault"
        )));
    }
    Ok(())
}

/// Panic-flavored consult (the `solver.panic` site): detonates inside
/// the caller's `catch_unwind` when the site fires.
pub fn maybe_panic(site: &str) {
    if should_fail(site) {
        panic!("chaos: injected panic at {site}");
    }
}

/// Stall-flavored consult (the `worker.stall` site): sleeps `dur` when
/// the site fires — long enough to reorder worker scheduling, bounded so
/// campaigns terminate.
pub fn stall(site: &str, dur: Duration) {
    if should_fail(site) {
        std::thread::sleep(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that arm the global registry.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_consults_never_fire_and_cost_no_state() {
        let _g = gate();
        disarm();
        for _ in 0..100 {
            assert!(!should_fail("io.write"));
        }
        assert_eq!(stats(), FaultStats::default());
        assert!(inject_io("io.fsync").is_ok());
        maybe_panic("solver.panic"); // must not panic
    }

    #[test]
    fn armed_schedule_is_deterministic_per_site() {
        let _g = gate();
        let run = || -> Vec<bool> {
            arm(ChaosSpec {
                seed: 42,
                rate: 0.3,
            });
            let seq: Vec<bool> = (0..64).map(|_| should_fail("io.write")).collect();
            disarm();
            seq
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.iter().any(|&x| x), "rate 0.3 over 64 draws must fire");
        assert!(!a.iter().all(|&x| x), "rate 0.3 must not always fire");
    }

    #[test]
    fn sites_draw_independent_schedules() {
        let _g = gate();
        arm(ChaosSpec { seed: 7, rate: 0.5 });
        let a: Vec<bool> = (0..64).map(|_| should_fail("io.write")).collect();
        let b: Vec<bool> = (0..64).map(|_| should_fail("memo.load")).collect();
        disarm();
        assert_ne!(a, b, "distinct sites must not share one schedule");
    }

    #[test]
    fn rate_bounds_are_exact() {
        let _g = gate();
        arm(ChaosSpec { seed: 3, rate: 1.0 });
        assert!((0..32).all(|_| should_fail("queue.admit")));
        disarm();
        arm(ChaosSpec { seed: 3, rate: 0.0 });
        assert!((0..32).all(|_| !should_fail("queue.admit")));
        let s = disarm();
        assert_eq!(s.consults, 32);
        assert_eq!(s.injected, 0);
    }

    #[test]
    fn inject_io_reports_the_site() {
        let _g = gate();
        arm(ChaosSpec { seed: 1, rate: 1.0 });
        let err = inject_io("io.write").unwrap_err();
        assert!(err.to_string().contains("io.write"), "{err}");
        disarm();
    }

    /// Two workers consult under two job scopes; whichever order their
    /// consults interleave in, each scope gets the same decisions.
    #[test]
    fn scoped_decisions_do_not_depend_on_interleaving() {
        use std::sync::mpsc;

        let _g = gate();
        // Worker `id` makes its four consults when the channel hands it
        // the turn, and hands the turn back after each one.
        let run = |order: [usize; 8]| -> [Vec<bool>; 2] {
            arm(ChaosSpec {
                seed: 11,
                rate: 0.5,
            });
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let decisions = std::thread::scope(|s| {
                let workers: Vec<_> = [0xa11ce_u128, 0xb0b_u128]
                    .into_iter()
                    .map(|key| {
                        let (turn_tx, turn_rx) = mpsc::channel::<()>();
                        let done_tx = done_tx.clone();
                        let worker = s.spawn(move || {
                            scoped(key, || {
                                (0..4)
                                    .map(|_| {
                                        turn_rx.recv().expect("turn");
                                        let fired = should_fail("io.write");
                                        done_tx.send(()).expect("done");
                                        fired
                                    })
                                    .collect::<Vec<bool>>()
                            })
                        });
                        (turn_tx, worker)
                    })
                    .collect();
                for id in order {
                    workers[id].0.send(()).expect("turn");
                    done_rx.recv().expect("done");
                }
                let mut joined = workers
                    .into_iter()
                    .map(|(_, worker)| worker.join().expect("worker"));
                [0, 1].map(|_| joined.next().expect("two workers"))
            });
            disarm();
            decisions
        };
        let ab = run([0, 1, 0, 1, 0, 1, 0, 1]);
        let ba = run([1, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(ab, ba, "a scope's decisions must not depend on order");
        assert_ne!(ab[0], ab[1], "scopes draw distinct schedules");
    }

    #[test]
    fn spec_parsing_accepts_partial_and_rejects_junk() {
        assert_eq!(
            parse_chaos_spec("seed=9,rate=0.25"),
            Ok(ChaosSpec {
                seed: 9,
                rate: 0.25
            })
        );
        assert_eq!(parse_chaos_spec("rate=1").map(|s| s.seed), Ok(1));
        assert_eq!(parse_chaos_spec("").map(|s| s.rate), Ok(0.05));
        assert!(parse_chaos_spec("rate=2").is_err());
        assert!(parse_chaos_spec("seed=x").is_err());
        assert!(parse_chaos_spec("bogus=1").is_err());
        assert!(parse_chaos_spec("seed").is_err());
    }
}
