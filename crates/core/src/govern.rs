//! Run-wide resource governance: deadlines, cooperative cancellation, and
//! per-cluster conflict metering.
//!
//! A [`Budget`] is the shared governor handle threaded through the whole
//! pipeline. It carries an optional wall-clock deadline, an optional
//! per-cluster conflict allowance, and a cooperative cancellation flag.
//! Long-running stages poll [`Budget::expired`] between units of work and
//! pass [`Budget::ctl`] into SAT solvers so an in-flight search aborts
//! between Luby restarts instead of running to completion.
//!
//! Conflict accounting is deliberately *worker-local*: each cluster worker
//! draws a private [`ConflictMeter`] from the budget and charges it with
//! the deterministic conflict counts of its own SAT calls. Because no
//! global counter races across threads, the set of clusters diagnosed
//! [`ClusterDiagnosis::BudgetExhausted`] is identical for any `--jobs`
//! value — degradation is reproducible.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eco_sat::SolveCtl;

/// User-facing resource limits (the CLI's `--timeout` and
/// `--conflict-budget` flags map onto the two fields 1:1). The default is
/// fully unlimited, which preserves pre-governor behavior exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetOptions {
    /// Wall-clock limit for the whole run.
    pub timeout: Option<Duration>,
    /// SAT conflict allowance granted to each cluster worker, and the cap
    /// applied to every serial stage's own conflict budget.
    pub cluster_conflicts: Option<u64>,
}

/// Parses a `--timeout` value in seconds: finite, non-negative, and
/// near enough that a deadline that far ahead is representable (so
/// [`Budget::new`] cannot overflow the clock).
pub fn parse_timeout(value: &str) -> Result<Duration, String> {
    value
        .parse()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .filter(|&timeout| Instant::now().checked_add(timeout).is_some())
        .ok_or_else(|| format!("--timeout expects non-negative seconds, got `{value}`"))
}

/// The shared run-wide governor handle. Cheap to clone; all clones share
/// one cancellation flag.
#[derive(Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    cluster_conflicts: Option<u64>,
}

impl Budget {
    /// Starts the governor clock: the deadline (if any) is `now + timeout`.
    pub fn new(opts: &BudgetOptions) -> Self {
        Budget {
            deadline: opts.timeout.map(|t| Instant::now() + t),
            cancel: Arc::new(AtomicBool::new(false)),
            cluster_conflicts: opts.cluster_conflicts,
        }
    }

    /// A governor that never fires.
    pub fn unlimited() -> Self {
        Budget::new(&BudgetOptions::default())
    }

    /// Returns `true` if neither a deadline nor a conflict allowance is
    /// set; governed code paths use this to fall back to their exact
    /// pre-governor behavior.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cluster_conflicts.is_none()
    }

    /// Polls the deadline and the cancellation flag. Once the deadline
    /// passes the flag is latched, so every later poll — and every solver
    /// enrolled via [`Budget::ctl`] — observes the stop without re-reading
    /// the clock.
    pub fn expired(&self) -> bool {
        if self.cancel.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.cancel.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Latches the cancellation flag immediately (external abort).
    pub fn cancel_now(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// A [`SolveCtl`] enrolling a solver in this governor: the solver
    /// aborts between Luby restarts once the deadline passes or the flag
    /// is raised. Unlimited budgets yield the unlimited control block, so
    /// enrolling is a no-op on ungoverned runs.
    pub fn ctl(&self) -> SolveCtl {
        if self.is_unlimited() {
            SolveCtl::unlimited()
        } else {
            SolveCtl {
                deadline: self.deadline,
                cancel: Some(self.cancel.clone()),
            }
        }
    }

    /// The per-cluster conflict allowance, if any.
    pub fn cluster_conflicts(&self) -> Option<u64> {
        self.cluster_conflicts
    }

    /// Derives a child budget sharing this governor's deadline and
    /// cancellation flag but with its own per-cluster conflict allowance.
    ///
    /// The batch runner uses this to apportion one run-wide budget across
    /// jobs: every job observes the same wall-clock deadline (and a
    /// [`Budget::cancel_now`] on the parent stops them all), while conflict
    /// allowances are divided so one hard job cannot starve the rest.
    pub fn child(&self, cluster_conflicts: Option<u64>) -> Budget {
        Budget {
            deadline: self.deadline,
            cancel: Arc::clone(&self.cancel),
            cluster_conflicts,
        }
    }

    /// Draws a fresh worker-local meter charged against the per-cluster
    /// allowance.
    pub fn meter(&self) -> ConflictMeter {
        ConflictMeter {
            remaining: self.cluster_conflicts,
        }
    }

    /// Caps a serial stage's own conflict budget at the governed
    /// allowance (identity when unlimited).
    pub fn cap(&self, budget: u64) -> u64 {
        match self.cluster_conflicts {
            Some(c) => budget.min(c),
            None => budget,
        }
    }
}

/// A worker-local conflict allowance. Charged with the deterministic
/// conflict counts of finished SAT calls, never with wall-clock time, so
/// exhaustion is reproducible across thread counts.
#[derive(Clone, Debug)]
pub struct ConflictMeter {
    remaining: Option<u64>,
}

impl ConflictMeter {
    /// A meter that never exhausts.
    pub fn unlimited() -> Self {
        ConflictMeter { remaining: None }
    }

    /// Deducts `conflicts` (saturating at zero).
    pub fn charge(&mut self, conflicts: u64) {
        if let Some(r) = &mut self.remaining {
            *r = r.saturating_sub(conflicts);
        }
    }

    /// Returns `true` once the allowance is spent.
    pub fn exhausted(&self) -> bool {
        self.remaining == Some(0)
    }

    /// Conflicts left, or `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        self.remaining
    }

    /// Caps a stage budget at what is left (identity when unlimited).
    pub fn cap(&self, budget: u64) -> u64 {
        match self.remaining {
            Some(r) => budget.min(r),
            None => budget,
        }
    }
}

/// Why a cluster did, or did not, produce its patches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterDiagnosis {
    /// All targets in the cluster were patched.
    Patched,
    /// The cluster's conflict allowance ran out mid-synthesis.
    BudgetExhausted,
    /// The run deadline (or an external cancel) fired before or during
    /// the cluster's work.
    Deadline,
    /// The worker panicked; the payload is the panic message.
    Panicked(String),
}

impl ClusterDiagnosis {
    /// Stable machine-readable tag (used in telemetry events and JSON).
    pub fn tag(&self) -> &'static str {
        match self {
            ClusterDiagnosis::Patched => "patched",
            ClusterDiagnosis::BudgetExhausted => "budget-exhausted",
            ClusterDiagnosis::Deadline => "deadline",
            ClusterDiagnosis::Panicked(_) => "panicked",
        }
    }
}

impl fmt::Display for ClusterDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterDiagnosis::Panicked(msg) => write!(f, "panicked: {msg}"),
            other => f.write_str(other.tag()),
        }
    }
}

/// Per-cluster outcome in a degraded run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Target names in the cluster, in instance order.
    pub targets: Vec<String>,
    /// What happened to the cluster.
    pub diagnosis: ClusterDiagnosis,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fires() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.expired());
        let ctl = b.ctl();
        assert!(ctl.deadline.is_none() && ctl.cancel.is_none());
        assert_eq!(b.cap(123), 123);
        let mut m = b.meter();
        assert_eq!(m.remaining(), None);
        m.charge(u64::MAX);
        assert!(!m.exhausted());
        assert_eq!(m.cap(7), 7);
    }

    #[test]
    fn zero_timeout_expires_and_latches() {
        let b = Budget::new(&BudgetOptions {
            timeout: Some(Duration::ZERO),
            cluster_conflicts: None,
        });
        assert!(b.expired());
        // The latch means the shared ctl flag is raised too.
        let ctl = b.ctl();
        assert!(ctl.expired());
        assert!(b.expired(), "latched");
    }

    #[test]
    fn cancel_now_propagates_through_clones_and_ctl() {
        let b = Budget::new(&BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(10),
        });
        let clone = b.clone();
        let ctl = b.ctl();
        assert!(!clone.expired());
        b.cancel_now();
        assert!(clone.expired());
        assert!(ctl.expired());
    }

    #[test]
    fn meter_charges_and_caps() {
        let b = Budget::new(&BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(100),
        });
        assert_eq!(b.cap(1 << 20), 100);
        assert_eq!(b.cap(3), 3);
        let mut m = b.meter();
        assert_eq!(m.remaining(), Some(100));
        m.charge(60);
        assert_eq!(m.cap(1 << 20), 40);
        assert!(!m.exhausted());
        m.charge(1000);
        assert!(m.exhausted());
        assert_eq!(m.remaining(), Some(0));
    }

    #[test]
    fn child_shares_cancel_but_not_allowance() {
        let parent = Budget::new(&BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(100),
        });
        let child = parent.child(Some(25));
        assert_eq!(child.cluster_conflicts(), Some(25));
        assert_eq!(child.cap(1 << 20), 25);
        assert!(!child.expired());
        parent.cancel_now();
        assert!(child.expired(), "child observes the parent's cancel");

        let unlimited_child = parent.child(None);
        assert!(unlimited_child.cluster_conflicts().is_none());
    }

    #[test]
    fn timeouts_parse_or_name_the_flag() {
        assert_eq!(parse_timeout("0"), Ok(Duration::ZERO));
        assert_eq!(parse_timeout("1.5"), Ok(Duration::from_millis(1500)));
        for bad in ["-1", "nan", "inf", "1e30", "1e19", "soon", ""] {
            let err = parse_timeout(bad).expect_err(bad);
            assert!(err.starts_with("--timeout expects"), "{bad}: {err}");
        }
    }

    #[test]
    fn diagnosis_tags_are_stable() {
        assert_eq!(ClusterDiagnosis::Patched.tag(), "patched");
        assert_eq!(
            ClusterDiagnosis::BudgetExhausted.to_string(),
            "budget-exhausted"
        );
        assert_eq!(ClusterDiagnosis::Deadline.to_string(), "deadline");
        let p = ClusterDiagnosis::Panicked("boom".into());
        assert_eq!(p.tag(), "panicked");
        assert_eq!(p.to_string(), "panicked: boom");
    }
}
