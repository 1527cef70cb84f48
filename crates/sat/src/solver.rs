//! A CDCL SAT solver with incremental assumptions, unsat cores, and
//! optional resolution-interpolant tracking.
//!
//! The design follows MiniSat [Eén & Sörensson, SAT 2003]: two-literal
//! watching, first-UIP conflict analysis, VSIDS decision order, phase
//! saving, and Luby restarts. Two deliberate deviations serve the ECO use
//! case:
//!
//! * every clause — including units — lives in the clause arena and acts as
//!   a propagation *reason*, so every implied literal has a resolution
//!   ancestry;
//! * when interpolation is enabled (see [`Solver::enable_interpolation`]),
//!   each clause carries a partial interpolant in McMillan's system
//!   [McMillan, CAV 2003], maintained through every resolution performed by
//!   conflict analysis (including the implicit resolutions that drop
//!   level-0 literals), so an UNSAT outcome yields a Craig interpolant as
//!   an AIG.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eco_aig::{Aig, Lit as ALit};

use crate::heap::VarHeap;
use crate::{LBool, Lit, Var};

/// Cooperative controls for long-running solves: an optional wall-clock
/// deadline plus an optional shared cancellation flag.
///
/// Both are polled between Luby restarts (roughly every hundred
/// conflicts), so honoring them costs nothing on the hot propagation
/// path. A solver with the default (empty) controls behaves exactly as
/// before — no clock is ever read.
#[derive(Clone, Debug, Default)]
pub struct SolveCtl {
    /// Wall-clock instant after which budgeted solves return `None`.
    pub deadline: Option<Instant>,
    /// Shared cancellation flag; when set, budgeted solves return `None`.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl SolveCtl {
    /// Controls that never fire (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True once the deadline has passed or the cancellation flag is set.
    pub fn expired(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// VSIDS activity decay factor (activity increment grows by `1/decay` per
/// conflict).
const VAR_DECAY: f64 = 0.95;

/// Conflicts per Luby restart unit: restart `i`'s conflict budget is
/// `luby(i) * RESTART_INTERVAL`. This is also the cooperative-cancellation
/// poll granularity (see [`SolveCtl`]).
const RESTART_INTERVAL: u64 = 100;

/// When inter-restart inprocessing runs. A pass is due at `solve_limited`
/// entry once the solve count passes its next mark (incremental workloads
/// rarely restart, so a conflict-only schedule would never fire for
/// them), or at a Luby restart once the conflict count reaches its mark.
#[derive(Clone, Copy)]
struct Schedule {
    /// A due pass does nothing below this many stored clauses, so small
    /// instances are untouched.
    min_clauses: usize,
    /// Solve count the first solve-count pass of a [`Solver::new`] solver
    /// waits for. One-shot solvers never reach it, so they pay nothing;
    /// [`Solver::eliminating`] starts at 0 and preprocesses up front.
    first_solve: u64,
    /// Solve calls between solve-count passes.
    solve_interval: u64,
    /// Conflicts between conflict-count passes.
    conflict_interval: u64,
}

/// The inprocessing schedule of every solver.
const SCHEDULE: Schedule = Schedule {
    min_clauses: 300,
    first_solve: 8,
    solve_interval: 256,
    conflict_interval: 4000,
};

/// Per-pass subsumption budget, counted in clause-literal visits.
const SUBSUME_BUDGET: u64 = 200_000;
/// Per-pass vivification budget, counted in probe propagations.
const VIVIFY_BUDGET: u64 = 50_000;
/// Per-pass BVE budget, counted in clause pairs tried.
const BVE_BUDGET: u64 = 50_000;

/// The schedule solvers follow: always [`SCHEDULE`] outside this crate's
/// unit tests.
#[cfg(not(test))]
#[inline]
fn schedule() -> Schedule {
    SCHEDULE
}

/// Unit tests may force an aggressive schedule on their own thread (see
/// `inprocessing_tests::Aggressive`) so every pass fires on small
/// instances.
#[cfg(test)]
fn schedule() -> Schedule {
    inprocessing_tests::FORCED
        .with(|f| f.get())
        .unwrap_or(SCHEDULE)
}

/// Whether `garbage` dead literals in an arena of `arena` literals are
/// worth collecting: once they are half of it.
#[cfg(not(test))]
#[inline]
fn collection_due(garbage: usize, arena: usize) -> bool {
    garbage > 0 && 2 * garbage >= arena
}

/// Unit tests may force collection on or off on their own thread (see
/// `inprocessing_tests::Collect`).
#[cfg(test)]
fn collection_due(garbage: usize, arena: usize) -> bool {
    inprocessing_tests::COLLECT
        .with(|f| f.get())
        .unwrap_or(garbage > 0 && 2 * garbage >= arena)
}

/// Which side of the interpolation partition a clause belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClauseLabel {
    /// The `phi_A` side; the interpolant over-approximates A.
    A,
    /// The `phi_B` side.
    B,
}

/// Aggregate search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted: u64,
    /// Literals removed by conflict-clause minimization.
    pub minimized: u64,
    /// Clauses shortened by inprocessing vivification.
    pub vivified_clauses: u64,
    /// Clauses dropped or strengthened by (self-)subsumption.
    pub subsumed_clauses: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.conflicts += rhs.conflicts;
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.restarts += rhs.restarts;
        self.learned += rhs.learned;
        self.deleted += rhs.deleted;
        self.minimized += rhs.minimized;
        self.vivified_clauses += rhs.vivified_clauses;
        self.subsumed_clauses += rhs.subsumed_clauses;
        self.eliminated_vars += rhs.eliminated_vars;
    }
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// One stored clause. Its literals are `arena[start..start + len]`; its
/// reference (`cref`) is its index among the stored clauses, which stay
/// in creation order.
#[derive(Clone, Copy)]
struct ClauseHeader {
    /// Offset of the first literal in the arena.
    start: u32,
    /// Number of literals.
    len: u32,
    /// Partial interpolant (meaningful only when interpolation is enabled).
    itp: ALit,
    /// Activity for the reduce-DB heuristic.
    activity: f32,
    /// Learned (vs original) clause.
    learnt: bool,
    /// Deleted. Propagation drops the clause's watchers when it meets
    /// them, and the next collection reclaims the clause unless it is
    /// still a reason.
    dead: bool,
}

struct ItpCtx {
    aig: Aig,
    /// Per SAT variable: does it occur in any B clause?
    var_in_b: Vec<bool>,
    /// Per SAT variable: AIG input literal, for shared (A∩B) variables.
    var_input: Vec<Option<ALit>>,
    /// Memoized interpolants of the derived unit clause of each level-0 var.
    l0_cache: Vec<Option<ALit>>,
    /// Interpolant of the derived empty clause, set on UNSAT.
    final_itp: Option<ALit>,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use eco_sat::Solver;
/// let mut s = Solver::new();
/// let x = s.new_var();
/// let y = s.new_var();
/// s.add_clause(&[x.pos(), y.pos()]);
/// s.add_clause(&[!x.pos()]);
/// assert_eq!(s.solve(&[]), Some(true));
/// assert_eq!(s.model_value(y.pos()).as_bool(), Some(true));
/// assert_eq!(s.solve(&[y.neg()]), Some(false));
/// assert_eq!(s.unsat_core(), &[y.neg()]);
/// ```
pub struct Solver {
    /// The literals of every stored clause, back to back in creation
    /// order.
    arena: Vec<Lit>,
    /// One header per stored clause, indexed by clause reference.
    headers: Vec<ClauseHeader>,
    /// Clauses ever stored, dead and collected ones included; the
    /// inprocessing size gate counts these.
    stored: usize,
    /// Arena literals of dead clauses not yet collected.
    garbage: usize,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    heap: VarHeap,
    activity: Vec<f64>,
    var_inc: f64,
    seen: Vec<bool>,
    ok: bool,
    assumptions: Vec<Lit>,
    model: Vec<LBool>,
    core: Vec<Lit>,
    stats: SolverStats,
    itp: Option<ItpCtx>,
    cla_inc: f32,
    /// Learned-clause budget before the next database reduction.
    max_learnts: usize,
    n_learnt_alive: usize,
    /// Deadline and cancellation flag, polled between restarts.
    ctl: SolveCtl,
    /// Inprocessing includes bounded variable elimination (see
    /// [`Solver::eliminating`]).
    bve: bool,
    /// Variables exempt from elimination (assumed/read/re-mentioned by
    /// the caller).
    frozen: Vec<bool>,
    /// Variables removed by BVE; never branched on, asserted absent from
    /// later clauses and assumptions.
    eliminated: Vec<bool>,
    solve_calls: u64,
    next_inprocess_solve: u64,
    next_inprocess_conflicts: u64,
    /// Scratch in which added clauses are sorted.
    add_buf: Vec<Lit>,
    /// The last conflict's learned clause; the buffer is reused.
    learnt_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver. Its inprocessing (subsumption and
    /// vivification) first runs at its ninth solve call or 4,000th
    /// conflict, and only once it stores 300 clauses.
    pub fn new() -> Self {
        Self::build(false, schedule().first_solve)
    }

    /// Creates an empty solver for a long stream of incremental queries:
    /// its inprocessing runs before the first solve and adds bounded
    /// variable elimination (BVE).
    ///
    /// BVE only preserves satisfiability over the *remaining* variables,
    /// so the caller must [`Solver::freeze_var`] every variable it will
    /// later mention in an assumption, a new clause, or a model read. BVE
    /// never runs in interpolation mode.
    pub fn eliminating() -> Self {
        Self::build(true, 0)
    }

    fn build(bve: bool, first_solve: u64) -> Self {
        Solver {
            arena: Vec::new(),
            headers: Vec::new(),
            stored: 0,
            garbage: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: VarHeap::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            seen: Vec::new(),
            ok: true,
            assumptions: Vec::new(),
            model: Vec::new(),
            core: Vec::new(),
            stats: SolverStats::default(),
            itp: None,
            cla_inc: 1.0,
            max_learnts: 4000,
            n_learnt_alive: 0,
            ctl: SolveCtl::unlimited(),
            bve,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            solve_calls: 0,
            next_inprocess_solve: first_solve,
            next_inprocess_conflicts: schedule().conflict_interval,
            add_buf: Vec::new(),
            learnt_buf: Vec::new(),
        }
    }

    /// Marks a variable as off-limits to variable elimination. Required,
    /// on a [`Solver::eliminating`] solver, for every variable the caller
    /// will later assume, mention in a new clause, or read from a model.
    pub fn freeze_var(&mut self, v: Var) {
        self.frozen[v.index() as usize] = true;
    }

    /// Installs governor controls, replacing the previous ones: a deadline
    /// and/or a shared cancellation flag, so one governor latch stops
    /// every enrolled solver. [`SolveCtl::unlimited`] lifts both.
    pub fn set_ctl(&mut self, ctl: &SolveCtl) {
        self.ctl = ctl.clone();
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        // Phase saving starts negative (MiniSat's default).
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.heap.insert(v, &self.activity);
        if let Some(ctx) = self.itp.as_mut() {
            ctx.var_in_b.push(false);
            ctx.var_input.push(None);
            ctx.l0_cache.push(None);
        }
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses stored so far (original, learned and derived by
    /// inprocessing), deleted ones included. Dropped tautologies were
    /// never stored.
    pub fn num_clauses(&self) -> usize {
        self.stored
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Returns `false` once the clause set is known unsatisfiable without
    /// assumptions.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Sets the learned-clause count that triggers the first database
    /// reduction (the budget then grows by 10% per reduction).
    #[cfg(test)]
    pub(crate) fn set_reduce_db_threshold(&mut self, max_learnts: usize) {
        self.max_learnts = max_learnts.max(16);
    }

    /// Switches the solver into interpolation mode.
    ///
    /// `var_in_b[v]` must be true iff variable `v` occurs in some B-labeled
    /// clause; `shared` lists the variables occurring in both partitions,
    /// which become the inputs (in order) of the interpolant AIG.
    ///
    /// Must be called before any clause is added; all clauses must then be
    /// added with [`Solver::add_clause_labeled`], and assumptions are not
    /// supported while in this mode.
    ///
    /// # Panics
    ///
    /// Panics if clauses were already added.
    pub fn enable_interpolation(&mut self, var_in_b: Vec<bool>, shared: &[Var]) {
        assert!(
            self.stored == 0,
            "interpolation must be enabled before adding clauses"
        );
        let mut aig = Aig::new();
        let mut var_input = vec![None; self.num_vars().max(var_in_b.len())];
        for &v in shared {
            let lit = aig.add_input(format!("s{}", v.index()));
            var_input[v.index() as usize] = Some(lit);
        }
        let n = var_input.len();
        let mut var_in_b = var_in_b;
        var_in_b.resize(n, false);
        self.itp = Some(ItpCtx {
            aig,
            var_in_b,
            var_input,
            l0_cache: vec![None; n],
            final_itp: None,
        });
    }

    /// Returns the interpolant of the empty clause after an UNSAT answer in
    /// interpolation mode, as `(aig, root)`; the AIG inputs correspond to
    /// the `shared` variables passed to [`Solver::enable_interpolation`].
    pub fn interpolant(&self) -> Option<(&Aig, ALit)> {
        let ctx = self.itp.as_ref()?;
        ctx.final_itp.map(|root| (&ctx.aig, root))
    }

    /// Current assignment of a literal (during/after search).
    #[inline]
    pub fn value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index() as usize].xor(lit.is_negated())
    }

    /// Value of a literal in the most recent satisfying model.
    pub fn model_value(&self, lit: Lit) -> LBool {
        self.model
            .get(lit.var().index() as usize)
            .copied()
            .unwrap_or(LBool::Undef)
            .xor(lit.is_negated())
    }

    /// The subset of assumptions responsible for the last UNSAT answer.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    /// Adds an unlabeled clause (plain mode).
    ///
    /// Returns `false` if the clause set is now trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if interpolation mode is enabled (use
    /// [`Solver::add_clause_labeled`]).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.itp.is_none(),
            "interpolation mode requires labeled clauses"
        );
        self.add_clause_inner(lits, None)
    }

    /// Adds a clause labeled with its interpolation partition.
    ///
    /// Returns `false` if the clause set is now trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if interpolation mode is not enabled.
    pub fn add_clause_labeled(&mut self, lits: &[Lit], label: ClauseLabel) -> bool {
        assert!(self.itp.is_some(), "enable_interpolation first");
        self.add_clause_inner(lits, Some(label))
    }

    fn leaf_itp(&mut self, lits: &[Lit], label: ClauseLabel) -> ALit {
        let ctx = self.itp.as_mut().expect("itp mode");
        match label {
            ClauseLabel::B => ALit::TRUE,
            ClauseLabel::A => {
                let parts: Vec<ALit> = lits
                    .iter()
                    .filter(|l| ctx.var_in_b[l.var().index() as usize])
                    .map(|l| {
                        let input = ctx.var_input[l.var().index() as usize]
                            .expect("A-clause literal in B must be a shared variable");
                        input.xor_complement(l.is_negated())
                    })
                    .collect();
                ctx.aig.or_many(&parts)
            }
        }
    }

    fn add_clause_inner(&mut self, lits: &[Lit], label: Option<ClauseLabel>) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return false;
        }
        debug_assert!(
            lits.iter()
                .all(|l| !self.eliminated[l.var().index() as usize]),
            "clause mentions an eliminated variable (freeze it before enabling BVE)"
        );
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend_from_slice(lits);
        // A tautology is dropped: that preserves both satisfiability and
        // interpolant validity.
        let ok = !normalize(&mut buf) || {
            let itp = label.map_or(ALit::FALSE, |lbl| self.leaf_itp(&buf, lbl));
            self.store_clause(&mut buf, itp, false, 0.0)
        };
        self.add_buf = buf;
        ok
    }

    /// Stores a sorted, duplicate-free clause at level 0: it watches two
    /// non-false literals when it has them, and a clause with one is
    /// asserted and propagated. Returns `false` once the clause set is
    /// unsatisfiable.
    fn store_clause(&mut self, lits: &mut [Lit], itp: ALit, learnt: bool, activity: f32) -> bool {
        if lits.is_empty() {
            self.ok = false;
            if let Some(ctx) = self.itp.as_mut() {
                ctx.final_itp = Some(itp);
            }
            return false;
        }
        // Prefer non-false literals in the watch positions.
        let mut k = 0;
        for i in 0..lits.len() {
            if self.value(lits[i]) != LBool::False {
                lits.swap(k, i);
                k += 1;
                if k == 2 {
                    break;
                }
            }
        }
        let cref = self.push_clause(lits, itp, learnt, activity);
        if lits.len() >= 2 {
            self.attach(cref);
        }
        match k {
            0 => {
                // Conflicts with level-0 assignments: derive the empty clause.
                self.finalize_unsat(cref);
                false
            }
            1 => {
                let first = lits[0];
                if self.value(first) == LBool::Undef {
                    self.enqueue(first, Some(cref));
                    // Propagate eagerly so later adds see the consequences.
                    if let Some(confl) = self.propagate() {
                        self.finalize_unsat(confl);
                        return false;
                    }
                }
                true
            }
            _ => true,
        }
    }

    /// Appends a clause to the arena, unwatched, and returns its
    /// reference.
    fn push_clause(&mut self, lits: &[Lit], itp: ALit, learnt: bool, activity: f32) -> u32 {
        let cref = u32::try_from(self.headers.len()).expect("clause references fit in u32");
        let start = self.arena.len();
        let end = u32::try_from(start + lits.len()).expect("clause arena fits u32 offsets");
        self.arena.extend_from_slice(lits);
        self.headers.push(ClauseHeader {
            start: start as u32,
            len: end - start as u32,
            itp,
            activity,
            learnt,
            dead: false,
        });
        self.stored += 1;
        if learnt {
            self.n_learnt_alive += 1;
        }
        cref
    }

    /// The literals of the clause with header `h`.
    #[inline]
    fn lits_of(&self, h: &ClauseHeader) -> &[Lit] {
        let start = h.start as usize;
        &self.arena[start..start + h.len as usize]
    }

    /// The literals of clause `cref`.
    #[inline]
    fn clause(&self, cref: u32) -> &[Lit] {
        self.lits_of(&self.headers[cref as usize])
    }

    fn attach(&mut self, cref: u32) {
        let c = self.clause(cref);
        let (l0, l1) = (c[0], c[1]);
        self.watches[l0.code() as usize].push(Watcher { cref, blocker: l1 });
        self.watches[l1.code() as usize].push(Watcher { cref, blocker: l0 });
    }

    /// Resolves a conflict clause whose literals are all false at level 0
    /// down to the empty clause, recording the final interpolant.
    fn finalize_unsat(&mut self, confl: u32) {
        self.ok = false;
        let mut ctx = match self.itp.take() {
            Some(c) => c,
            None => return,
        };
        let mut itp = self.headers[confl as usize].itp;
        for &q in self.clause(confl) {
            debug_assert_eq!(self.value(q), LBool::False);
            debug_assert_eq!(self.level[q.var().index() as usize], 0);
            let sub = self.l0_itp(&mut ctx, q.var());
            itp = Self::combine(&mut ctx, itp, sub, q.var());
        }
        ctx.final_itp = Some(itp);
        self.itp = Some(ctx);
    }

    /// Interpolant of the derived unit clause for level-0 variable `v`.
    fn l0_itp(&self, ctx: &mut ItpCtx, v: Var) -> ALit {
        if let Some(x) = ctx.l0_cache[v.index() as usize] {
            return x;
        }
        let end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for idx in 0..end {
            let x = self.trail[idx].var();
            if ctx.l0_cache[x.index() as usize].is_some() {
                continue;
            }
            let cref = self.reason[x.index() as usize].expect("level-0 literal has a reason");
            let mut t = self.headers[cref as usize].itp;
            for &q in self.clause(cref) {
                if q.var() != x {
                    let sub = ctx.l0_cache[q.var().index() as usize]
                        .expect("antecedent precedes in trail");
                    t = Self::combine(ctx, t, sub, q.var());
                }
            }
            ctx.l0_cache[x.index() as usize] = Some(t);
            if x == v {
                break;
            }
        }
        ctx.l0_cache[v.index() as usize].expect("level-0 var reached in trail")
    }

    fn combine(ctx: &mut ItpCtx, a: ALit, b: ALit, pivot: Var) -> ALit {
        if ctx.var_in_b[pivot.index() as usize] {
            ctx.aig.and(a, b)
        } else {
            ctx.aig.or(a, b)
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value(lit), LBool::Undef);
        let v = lit.var().index() as usize;
        self.assigns[v] = LBool::from_bool(!lit.is_negated());
        self.polarity[v] = !lit.is_negated();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index() as usize] = LBool::Undef;
            self.reason[v.index() as usize] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let widx = (!p).code() as usize;
            let mut ws = std::mem::take(&mut self.watches[widx]);
            let false_lit = !p;
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // A true blocker keeps the watcher without reading the
                // clause.
                if self.value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let h = self.headers[w.cref as usize];
                if h.dead {
                    continue; // drop the watcher
                }
                let start = h.start as usize;
                let end = start + h.len as usize;
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                debug_assert_eq!(self.arena[start + 1], false_lit);
                let first = self.arena[start];
                let kept = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                for k in start + 2..end {
                    let lk = self.arena[k];
                    if self.value(lk) != LBool::False {
                        self.arena.swap(start + 1, k);
                        self.watches[lk.code() as usize].push(kept);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = kept;
                j += 1;
                if self.value(first) == LBool::False {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(j);
            self.watches[widx] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.index() as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bump(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn bump_clause(&mut self, cref: usize) {
        let h = &mut self.headers[cref];
        if !h.learnt {
            return;
        }
        h.activity += self.cla_inc;
        if h.activity > 1e20 {
            for h in &mut self.headers {
                h.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// Removes clauses satisfied by the top-level (level-0) assignment.
    ///
    /// Sound in interpolation mode too: dropping a clause only weakens the
    /// respective partition, and both directions of the Craig contract are
    /// preserved under weakening. Locked (reason) clauses are kept because
    /// level-0 interpolant chains may still traverse them. Once dead
    /// clauses fill half the clause store, their memory is reclaimed.
    pub fn simplify(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "simplify only at level 0");
        let locked = self.locked_clauses();
        for cref in 0..self.headers.len() as u32 {
            if self.headers[cref as usize].dead || locked[cref as usize] {
                continue;
            }
            let satisfied = self.clause(cref).iter().any(|&l| {
                self.value(l) == LBool::True && self.level[l.var().index() as usize] == 0
            });
            if satisfied {
                self.kill_clause(cref);
                self.stats.deleted += 1;
            }
        }
        self.collect_if_wasteful();
    }

    /// Deletes the lower-activity half of the unlocked learned clauses,
    /// then collects if dead clauses fill half the arena. Reason
    /// ("locked") clauses are kept, both for propagation correctness and
    /// because the interpolation level-0 chains may revisit them.
    fn reduce_db(&mut self) {
        let locked = self.locked_clauses();
        let mut cands: Vec<u32> = (0..self.headers.len() as u32)
            .filter(|&i| {
                let h = &self.headers[i as usize];
                h.learnt && !h.dead && h.len > 2 && !locked[i as usize]
            })
            .collect();
        cands.sort_by(|&a, &b| {
            self.headers[a as usize]
                .activity
                .partial_cmp(&self.headers[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in cands.iter().take(cands.len() / 2) {
            self.kill_clause(i);
            self.stats.deleted += 1;
        }
        self.collect_if_wasteful();
    }

    /// First-UIP conflict analysis; returns (learned clause, backtrack
    /// level, partial interpolant of the learned clause). The clause is
    /// [`Solver::learnt_buf`], lent to the caller.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32, ALit) {
        let mut ictx = self.itp.take();
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit::from_code(0));
        let mut path = 0u32;
        let mut idx = self.trail.len();
        let mut cur = confl as usize;
        let mut skip_first = false;
        let dl = self.decision_level();
        let mut itp = ictx.as_ref().map_or(ALit::FALSE, |_| self.headers[cur].itp);
        loop {
            self.bump_clause(cur);
            let h = self.headers[cur];
            for ji in usize::from(skip_first)..h.len as usize {
                let q = self.arena[h.start as usize + ji];
                let v = q.var();
                let lvl = self.level[v.index() as usize];
                if lvl == 0 {
                    // Implicit resolution with the level-0 unit chain.
                    if let Some(ctx) = ictx.as_mut() {
                        let sub = self.l0_itp(ctx, v);
                        itp = Self::combine(ctx, itp, sub, v);
                    }
                    continue;
                }
                if !self.seen[v.index() as usize] {
                    self.seen[v.index() as usize] = true;
                    self.bump_var(v);
                    if lvl >= dl {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index() as usize] {
                    break;
                }
            }
            let p = self.trail[idx];
            let v = p.var();
            self.seen[v.index() as usize] = false;
            path -= 1;
            if path == 0 {
                learnt[0] = !p;
                break;
            }
            cur = self.reason[v.index() as usize].expect("UIP-side literal has a reason") as usize;
            debug_assert_eq!(self.clause(cur as u32)[0], p);
            skip_first = true;
            if let Some(ctx) = ictx.as_mut() {
                let r_itp = self.headers[cur].itp;
                itp = Self::combine(ctx, itp, r_itp, v);
            }
        }
        // The walk cleared `seen` for every conflict-level variable, so it
        // now marks exactly the variables of `learnt[1..]`.
        //
        // Local conflict-clause minimization: a literal is redundant if its
        // reason's other literals are all *still in the clause* (or level
        // 0): a removed literal's variable leaves `seen`. Each removal is
        // one more resolution, tracked in the interpolant. The "still in
        // the clause" restriction (rather than MiniSat's "was marked seen")
        // matters for interpolation: allowing a removed literal to justify
        // a later removal re-introduces it in the true resolvent, which the
        // single-combine bookkeeping below would not account for.
        let mut kept = 1;
        for i in 1..learnt.len() {
            let q = learnt[i];
            let v = q.var();
            let redundant = match self.reason[v.index() as usize] {
                None => false,
                Some(r) => self.clause(r)[1..].iter().all(|&l| {
                    self.seen[l.var().index() as usize] || self.level[l.var().index() as usize] == 0
                }),
            };
            if redundant {
                self.stats.minimized += 1;
                self.seen[v.index() as usize] = false;
                if let Some(ctx) = ictx.as_mut() {
                    let r = self.reason[v.index() as usize].expect("checked");
                    // Resolve away q, plus any level-0 literals its reason
                    // introduces.
                    let mut t = Self::combine(ctx, itp, self.headers[r as usize].itp, v);
                    for &l in &self.clause(r)[1..] {
                        if self.level[l.var().index() as usize] == 0 {
                            let sub = self.l0_itp(ctx, l.var());
                            t = Self::combine(ctx, t, sub, l.var());
                        }
                    }
                    itp = t;
                }
            } else {
                learnt[kept] = q;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for q in &learnt[1..] {
            self.seen[q.var().index() as usize] = false;
        }
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index() as usize]
                    > self.level[learnt[max_i].var().index() as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index() as usize]
        };
        self.itp = ictx;
        (learnt, bt, itp)
    }

    /// Computes the failed-assumption core given an assumption `p` that is
    /// false under the current trail.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index() as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if !self.seen[x.index() as usize] {
                continue;
            }
            match self.reason[x.index() as usize] {
                None => self.core.push(self.trail[i]),
                Some(cref) => {
                    let h = &self.headers[cref as usize];
                    let start = h.start as usize;
                    for &l in &self.arena[start + 1..start + h.len as usize] {
                        if self.level[l.var().index() as usize] > 0 {
                            self.seen[l.var().index() as usize] = true;
                        }
                    }
                }
            }
            self.seen[x.index() as usize] = false;
        }
        self.seen[p.var().index() as usize] = false;
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        loop {
            let v = self.heap.pop(&self.activity)?;
            if self.assigns[v.index() as usize] == LBool::Undef
                && !self.eliminated[v.index() as usize]
            {
                return Some(v.lit(!self.polarity[v.index() as usize]));
            }
        }
    }

    /// Runs search until a result or `budget` conflicts (for this call).
    /// The budget is checked at conflict-free fixpoints, so a chain of
    /// conflicts may run past it, unless `hard`: then search stops right
    /// after the conflict that reaches it.
    fn search(&mut self, budget: u64, hard: bool) -> LBool {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.finalize_unsat(confl);
                    self.core.clear();
                    return LBool::False;
                }
                let (learnt, bt, itp) = self.analyze(confl);
                self.cancel_until(bt);
                let cref = self.push_clause(&learnt, itp, true, self.cla_inc);
                if learnt.len() >= 2 {
                    self.attach(cref);
                }
                let asserting = learnt[0];
                self.learnt_buf = learnt;
                self.stats.learned += 1;
                self.enqueue(asserting, Some(cref));
                self.decay_var_activity();
                self.decay_clause_activity();
                if self.n_learnt_alive > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += self.max_learnts / 10;
                }
                if hard && conflicts_here >= budget {
                    self.cancel_until(0);
                    return LBool::Undef;
                }
            } else {
                if conflicts_here >= budget {
                    self.cancel_until(0);
                    return LBool::Undef;
                }
                let mut next = None;
                while (self.decision_level() as usize) < self.assumptions.len() {
                    let p = self.assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(p);
                            return LBool::False;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                if next.is_none() {
                    next = self.pick_branch();
                    if next.is_none() {
                        self.model.clone_from(&self.assigns);
                        return LBool::True;
                    }
                    self.stats.decisions += 1;
                }
                self.new_decision_level();
                self.enqueue(next.expect("checked above"), None);
            }
        }
    }

    /// Solves under the given assumptions.
    ///
    /// Returns `Some(true)` if satisfiable (see [`Solver::model_value`]),
    /// `Some(false)` if unsatisfiable (see [`Solver::unsat_core`] and, in
    /// interpolation mode, [`Solver::interpolant`]). Returns `None` only
    /// when a deadline or cancellation installed via [`Solver::set_ctl`]
    /// fires; use [`Solver::solve_limited`] for conflict-budgeted solving.
    ///
    /// # Panics
    ///
    /// Panics if assumptions are given in interpolation mode.
    pub fn solve(&mut self, assumptions: &[Lit]) -> Option<bool> {
        self.solve_limited(assumptions, u64::MAX)
    }

    /// Solves under assumptions with a conflict budget; `None` on budget
    /// exhaustion, deadline expiry, or cooperative cancellation (see
    /// [`Solver::set_ctl`]). The call spends at most `max_conflicts`
    /// conflicts (at least one). The deadline and cancellation flag are
    /// polled between Luby restarts, so cancellation latency is bounded by
    /// one restart's conflict budget.
    ///
    /// # Panics
    ///
    /// Panics if assumptions are given in interpolation mode.
    pub fn solve_limited(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<bool> {
        assert!(
            assumptions.is_empty() || self.itp.is_none(),
            "assumptions are not supported in interpolation mode"
        );
        if !self.ok {
            self.core.clear();
            return Some(false);
        }
        debug_assert!(
            assumptions
                .iter()
                .all(|l| !self.eliminated[l.var().index() as usize]),
            "assumption over an eliminated variable (freeze it before enabling BVE)"
        );
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        self.solve_calls += 1;
        self.maybe_inprocess();
        if !self.ok {
            self.core.clear();
            return Some(false);
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart = 0u32;
        loop {
            if self.ctl.expired() {
                self.cancel_until(0);
                return None;
            }
            let segment = (luby(restart) * RESTART_INTERVAL).max(1);
            let spent = self.stats.conflicts - start_conflicts;
            let remaining = max_conflicts.saturating_sub(spent).max(1);
            // The segment that can reach the call's cap stops exactly at
            // it; earlier segments end at their Luby restart as usual.
            let outcome = if remaining <= segment {
                self.search(remaining, true)
            } else {
                self.search(segment, false)
            };
            match outcome {
                LBool::True => {
                    self.cancel_until(0);
                    return Some(true);
                }
                LBool::False => {
                    self.cancel_until(0);
                    return Some(false);
                }
                LBool::Undef => {
                    self.stats.restarts += 1;
                    restart += 1;
                    if self.stats.conflicts - start_conflicts >= max_conflicts {
                        self.cancel_until(0);
                        return None;
                    }
                    self.maybe_inprocess();
                    if !self.ok {
                        self.core.clear();
                        return Some(false);
                    }
                }
            }
        }
    }

    // ---- Clause storage --------------------------------------------------
    //
    // Every clause lives in one literal arena, in creation order, behind a
    // fixed-size header; a clause reference is the header's index. Killing
    // a clause only marks it dead (deletions are counted where clauses are
    // killed). Dead clauses are reclaimed in bulk, at the points that kill
    // many at once (after `simplify`, `reduce_db` and each inprocessing
    // round), once their literals fill half the arena. Collection never
    // changes the search: survivors and every watch list keep their
    // order, and a dead clause that is still some variable's reason is
    // kept, since interpolation reads level-0 reasons (`l0_itp`).

    /// Per clause reference: is the clause some variable's reason?
    fn locked_clauses(&self) -> Vec<bool> {
        let mut locked = vec![false; self.headers.len()];
        for &r in self.reason.iter().flatten() {
            locked[r as usize] = true;
        }
        locked
    }

    /// Marks a clause dead, maintaining the learnt-alive count.
    fn kill_clause(&mut self, cref: u32) {
        let h = &mut self.headers[cref as usize];
        debug_assert!(!h.dead);
        h.dead = true;
        self.garbage += h.len as usize;
        if h.learnt {
            self.n_learnt_alive -= 1;
        }
    }

    /// Collects once dead clauses hold half of the arena's literals.
    fn collect_if_wasteful(&mut self) {
        if collection_due(self.garbage, self.arena.len()) {
            self.collect_garbage();
        }
    }

    /// Compacts the arena in place: drops every dead clause that is no
    /// longer a reason and the watchers of every dead clause, keeping the
    /// order of the survivors and of each watch list, and renumbers
    /// clause references.
    fn collect_garbage(&mut self) {
        const GONE: u32 = u32::MAX;
        let mut remap = vec![GONE; self.headers.len()];
        for &r in self.reason.iter().flatten() {
            remap[r as usize] = 0; // kept: renumbered below
        }
        let (mut kept, mut top) = (0, 0);
        for (cref, slot) in remap.iter_mut().enumerate() {
            let h = self.headers[cref];
            if h.dead && *slot == GONE {
                continue;
            }
            let start = h.start as usize;
            self.arena.copy_within(start..start + h.len as usize, top);
            self.headers[kept] = ClauseHeader {
                start: top as u32,
                ..h
            };
            *slot = kept as u32;
            kept += 1;
            top += h.len as usize;
        }
        self.headers.truncate(kept);
        self.arena.truncate(top);
        // Kept dead clauses are level-0 reasons, which stay reasons for
        // good: they are not garbage any more.
        self.garbage = 0;
        for r in self.reason.iter_mut().flatten() {
            *r = remap[*r as usize];
        }
        let headers = &self.headers;
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                let to = remap[w.cref as usize];
                w.cref = to;
                to != GONE && !headers[to as usize].dead
            });
        }
        #[cfg(test)]
        inprocessing_tests::check_clause_store(self);
    }

    /// A flat occurrence index over the live clauses `keep` accepts: the
    /// clauses with a literal of key `k` are `flat[at[k]..at[k + 1]]`, in
    /// clause order. Returns `(at, flat)`.
    fn occurrences(
        &self,
        n_keys: usize,
        keep: impl Fn(&ClauseHeader) -> bool,
        key: impl Fn(Lit) -> usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let kept = || {
            (0u32..)
                .zip(&self.headers)
                .filter(|(_, h)| !h.dead && keep(h))
        };
        let mut at = vec![0u32; n_keys + 1];
        for (_, h) in kept() {
            for &l in self.lits_of(h) {
                at[key(l) + 1] += 1;
            }
        }
        for k in 0..n_keys {
            at[k + 1] += at[k];
        }
        let mut next = at.clone();
        let mut flat = vec![0u32; at[n_keys] as usize];
        for (cref, h) in kept() {
            for &l in self.lits_of(h) {
                let slot = &mut next[key(l)];
                flat[*slot as usize] = cref;
                *slot += 1;
            }
        }
        (at, flat)
    }

    // ---- Inprocessing ----------------------------------------------------
    //
    // Runs between Luby restarts and at `solve_limited` entry (incremental
    // workloads rarely restart, so a conflict-only schedule would never
    // fire for them). Every technique is deterministic — fixed iteration
    // orders, explicit budgets — so inprocessing never perturbs the
    // jobs-independence guarantee.
    //
    // Interpolation-mode soundness: dropping a subsumed clause only
    // weakens its partition (same argument as `simplify`), and
    // self-subsumption is one genuine resolution whose interpolant is
    // tracked with a single `combine`. Vivification and variable
    // elimination have no such single-step interpolant bookkeeping, so
    // they are skipped in interpolation mode.

    /// Fires [`Solver::inprocess`] when a schedule is due. Must be called
    /// at decision level 0.
    fn maybe_inprocess(&mut self) {
        if !self.ok || !self.trail_lim.is_empty() {
            return;
        }
        let due = self.solve_calls > self.next_inprocess_solve
            || self.stats.conflicts >= self.next_inprocess_conflicts;
        if !due {
            return;
        }
        let schedule = schedule();
        self.next_inprocess_solve = self.solve_calls + schedule.solve_interval;
        self.next_inprocess_conflicts = self.stats.conflicts + schedule.conflict_interval;
        if self.stored < schedule.min_clauses {
            return;
        }
        self.inprocess();
    }

    /// One inprocessing round: top-level simplification, then
    /// (self-)subsumption, then — outside interpolation mode —
    /// vivification and (on an [`Solver::eliminating`] solver) bounded
    /// variable elimination; then collection, if due.
    fn inprocess(&mut self) {
        self.simplify();
        self.subsume_pass();
        if self.itp.is_none() && self.ok {
            self.vivify_pass();
            if self.bve && self.ok {
                self.bve_pass();
            }
        }
        self.collect_if_wasteful();
    }

    /// Adds a clause derived by inprocessing: the interpolant is supplied
    /// (not recomputed from a label) and the learnt flag/activity carry
    /// over from the clause it replaces. Returns `false` if the clause
    /// set became unsatisfiable.
    fn add_derived_clause(&mut self, lits: &[Lit], itp: ALit, learnt: bool, activity: f32) -> bool {
        debug_assert!(self.trail_lim.is_empty());
        if !self.ok {
            return false;
        }
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend_from_slice(lits);
        let ok = !normalize(&mut buf) || self.store_clause(&mut buf, itp, learnt, activity);
        self.add_buf = buf;
        ok
    }

    /// Forward subsumption and self-subsumption over the stored clauses,
    /// bounded by [`SUBSUME_BUDGET`] clause-literal visits.
    ///
    /// Sound in interpolation mode: removing a subsumed clause weakens
    /// its partition; strengthening `D` with subsumer `C` on pivot `l` is
    /// the resolution `C ⊗_l D`, whose interpolant is one `combine`.
    fn subsume_pass(&mut self) {
        const MAX_SUBSUMER_LEN: usize = 20;
        let locked = self.locked_clauses();
        let n_codes = self.assigns.len() * 2;
        let short = |h: &ClauseHeader| h.len as usize <= MAX_SUBSUMER_LEN;
        let (occ_at, occ) = self.occurrences(n_codes, short, |l| l.code() as usize);
        let occ_of = |l: Lit| {
            &occ[occ_at[l.code() as usize] as usize..occ_at[l.code() as usize + 1] as usize]
        };
        // Variable-based signatures so a flipped literal still matches.
        let sig = |lits: &[Lit]| -> u64 {
            lits.iter()
                .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
        };
        let mut sigs = vec![0u64; self.headers.len()];
        let mut cands: Vec<u32> = Vec::new();
        for (cref, h) in (0u32..).zip(&self.headers) {
            if !h.dead && short(h) {
                sigs[cref as usize] = sig(self.lits_of(h));
                cands.push(cref);
            }
        }
        cands.sort_by_key(|&i| self.headers[i as usize].len);
        let mut budget = SUBSUME_BUDGET;
        // Scratch marker per literal code, stamped per subsumer.
        let mut mark: Vec<u32> = vec![0; n_codes];
        let mut stamp = 0u32;
        let mut c_lits: Vec<Lit> = Vec::new();
        let mut strengthened: Vec<Lit> = Vec::new();
        'outer: for &ci in &cands {
            if budget == 0 || !self.ok {
                break;
            }
            if self.headers[ci as usize].dead {
                continue;
            }
            c_lits.clear();
            c_lits.extend_from_slice(self.clause(ci));
            let c_sig = sigs[ci as usize];
            stamp += 1;
            for &l in &c_lits {
                mark[l.code() as usize] = stamp;
            }
            let hits = |d: &[Lit]| {
                d.iter()
                    .filter(|l| mark[l.code() as usize] == stamp)
                    .count()
            };
            // Forward subsumption: scan the occurrence list of C's rarest
            // literal for clauses D ⊇ C.
            let lmin = c_lits
                .iter()
                .copied()
                .min_by_key(|&l| occ_of(l).len())
                .expect("non-empty clause");
            for &di in occ_of(lmin) {
                if di == ci || budget == 0 {
                    continue;
                }
                let d = self.headers[di as usize];
                if d.dead || (d.len as usize) < c_lits.len() || (c_sig & !sigs[di as usize]) != 0 {
                    continue;
                }
                if locked[di as usize] {
                    continue;
                }
                budget = budget.saturating_sub(u64::from(d.len));
                if hits(self.lits_of(&d)) == c_lits.len() {
                    self.kill_clause(di);
                    self.stats.subsumed_clauses += 1;
                }
            }
            // Self-subsumption: for each literal l of C, a clause D with
            // ¬l whose remaining literals cover C∖{l} loses ¬l.
            for &l in &c_lits {
                if self.headers[ci as usize].dead {
                    continue 'outer;
                }
                for &di in occ_of(!l) {
                    if budget == 0 {
                        continue 'outer;
                    }
                    let d = self.headers[di as usize];
                    if d.dead
                        || (d.len as usize) < c_lits.len()
                        || (c_sig & !sigs[di as usize]) != 0
                        || locked[di as usize]
                    {
                        continue;
                    }
                    budget = budget.saturating_sub(u64::from(d.len));
                    if hits(self.lits_of(&d)) != c_lits.len() - 1 {
                        continue;
                    }
                    // Resolve C ⊗ D on var(l): the resolvent is D ∖ {¬l}.
                    strengthened.clear();
                    strengthened.extend(self.lits_of(&d).iter().copied().filter(|&q| q != !l));
                    debug_assert_eq!(strengthened.len(), d.len as usize - 1);
                    let c_itp = self.headers[ci as usize].itp;
                    let new_itp = match self.itp.as_mut() {
                        Some(ctx) => Self::combine(ctx, c_itp, d.itp, l.var()),
                        None => ALit::FALSE,
                    };
                    self.kill_clause(di);
                    self.stats.subsumed_clauses += 1;
                    if !self.add_derived_clause(&strengthened, new_itp, d.learnt, d.activity) {
                        return;
                    }
                }
            }
        }
    }

    /// Clause vivification: for each candidate clause `C`, assume the
    /// negation of a growing prefix of its literals and propagate against
    /// the rest of the formula; an implied/satisfied/falsified outcome
    /// shortens `C`. Equivalence-preserving (the shortened clause is
    /// implied by F∖{C}), so it is safe for later incremental solves
    /// under any assumptions. Plain mode only — the derivation is a
    /// multi-step UP proof with no single-resolution interpolant.
    fn vivify_pass(&mut self) {
        debug_assert!(self.itp.is_none());
        const MAX_VIVIFY_LEN: usize = 32;
        let locked = self.locked_clauses();
        let mut budget = VIVIFY_BUDGET;
        let cands: Vec<u32> = (0u32..)
            .zip(&self.headers)
            .filter(|&(i, h)| {
                !h.dead && (3..=MAX_VIVIFY_LEN).contains(&(h.len as usize)) && !locked[i as usize]
            })
            .map(|(i, _)| i)
            .collect();
        let mut lits: Vec<Lit> = Vec::new();
        let mut new_lits: Vec<Lit> = Vec::new();
        for ci in cands {
            if budget == 0 || !self.ok {
                break;
            }
            let h = self.headers[ci as usize];
            if h.dead {
                continue;
            }
            lits.clear();
            lits.extend_from_slice(self.lits_of(&h));
            // Kill C so it cannot propagate in its own probe; probing
            // derives C's replacement from F∖{C}, which is stored as a
            // fresh clause below.
            self.kill_clause(ci);
            let props_before = self.stats.propagations;
            new_lits.clear();
            for &l in &lits {
                match self.value(l) {
                    LBool::True => {
                        // F∖{C} ∧ ¬prefix ⊨ l: prefix ∪ {l} is implied.
                        new_lits.push(l);
                        break;
                    }
                    LBool::False => continue, // l redundant in C
                    LBool::Undef => {
                        new_lits.push(l);
                        self.new_decision_level();
                        self.enqueue(!l, None);
                        if self.propagate().is_some() {
                            // F∖{C} ∧ ¬prefix is contradictory: the
                            // prefix alone is an implied clause.
                            break;
                        }
                    }
                }
            }
            self.cancel_until(0);
            budget = budget.saturating_sub((self.stats.propagations - props_before).max(1));
            if new_lits.len() < lits.len() {
                self.stats.vivified_clauses += 1;
            }
            if !self.add_derived_clause(&new_lits, ALit::FALSE, h.learnt, h.activity) {
                break;
            }
        }
    }

    /// Bounded variable elimination (SatELite-style DP resolution) over
    /// unfrozen, unassigned, unassumed variables, with a no-growth rule
    /// and a resolvent-length cap. Eliminating `v` existentially
    /// quantifies it: satisfiability over the remaining variables is
    /// preserved, which is why callers must freeze every variable they
    /// later assume, re-mention, or read (see [`Solver::freeze_var`]).
    /// Plain mode only.
    ///
    /// Each pair's resolvent is measured with literal marks; resolvents
    /// are only built for a variable the pass eliminates.
    fn bve_pass(&mut self) {
        debug_assert!(self.itp.is_none());
        const MAX_OCCS: usize = 10;
        const MAX_RESOLVENT_LEN: usize = 24;
        let n_vars = self.assigns.len();
        let (at, flat) = self.occurrences(n_vars, |_| true, |l| l.var().index() as usize);
        let mut occs = VarOccs::new(at, flat);
        let mut assumed = vec![false; n_vars];
        for l in &self.assumptions {
            assumed[l.var().index() as usize] = true;
        }
        let mut budget = BVE_BUDGET;
        // Scratch marker per literal code, stamped per positive clause.
        let mut mark: Vec<u32> = vec![0; 2 * n_vars];
        let mut stamp = 0u32;
        let (mut pos, mut neg, mut learnt_occs) = (Vec::new(), Vec::new(), Vec::new());
        let mut resolvent: Vec<Lit> = Vec::new();
        for (v, &is_assumed) in assumed.iter().enumerate() {
            if budget == 0 || !self.ok {
                break;
            }
            if self.frozen[v] || self.eliminated[v] || is_assumed || self.assigns[v] != LBool::Undef
            {
                continue;
            }
            let var = Var::new(v as u32);
            pos.clear();
            neg.clear();
            learnt_occs.clear();
            occs.for_each(v, |ci| {
                let h = &self.headers[ci as usize];
                if h.dead {
                    return;
                }
                if h.learnt {
                    learnt_occs.push(ci);
                } else if self.lits_of(h).contains(&var.pos()) {
                    pos.push(ci);
                } else {
                    neg.push(ci);
                }
            });
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            if pos.len() > MAX_OCCS || neg.len() > MAX_OCCS {
                continue;
            }
            // Measure every pair's resolvent; reject the variable if one
            // is too long or the non-tautological ones outnumber the
            // clauses they replace. One budget unit per pair tried.
            let mut resolvents = 0;
            let mut reject = false;
            'pairs: for &cp in &pos {
                stamp += 1;
                for &l in self.clause(cp) {
                    mark[l.code() as usize] = stamp;
                }
                let cp_len = self.headers[cp as usize].len as usize - 1;
                for &cn in &neg {
                    budget = budget.saturating_sub(1);
                    let mut len = cp_len;
                    let mut taut = false;
                    for &l in self.clause(cn) {
                        if l == var.neg() {
                            continue;
                        }
                        if mark[(!l).code() as usize] == stamp {
                            taut = true;
                            break;
                        }
                        if mark[l.code() as usize] != stamp {
                            len += 1;
                        }
                    }
                    if taut {
                        continue;
                    }
                    if len > MAX_RESOLVENT_LEN {
                        reject = true;
                        break 'pairs;
                    }
                    resolvents += 1;
                    if resolvents > pos.len() + neg.len() {
                        reject = true;
                        break 'pairs;
                    }
                    if budget == 0 {
                        reject = true;
                        break 'pairs;
                    }
                }
            }
            if reject {
                continue;
            }
            // Commit: drop every clause mentioning v (learnt ones are
            // merely implied, so dropping them is sound), then add the
            // resolvents, built from the dead clauses' literals.
            self.eliminated[v] = true;
            self.stats.eliminated_vars += 1;
            for &ci in pos.iter().chain(&neg).chain(&learnt_occs) {
                self.kill_clause(ci);
                self.stats.deleted += 1;
            }
            for &cp in &pos {
                for &cn in &neg {
                    resolvent.clear();
                    resolvent.extend(self.clause(cp).iter().filter(|&&l| l != var.pos()));
                    resolvent.extend(self.clause(cn).iter().filter(|&&l| l != var.neg()));
                    if !normalize(&mut resolvent) {
                        continue;
                    }
                    let cref = self.headers.len() as u32;
                    if !self.add_derived_clause(&resolvent, ALit::FALSE, false, 0.0) {
                        return;
                    }
                    // Register the stored resolvent for later variables.
                    if (cref as usize) < self.headers.len() {
                        for &l in self.clause(cref) {
                            occs.push(l.var().index() as usize, cref);
                        }
                    }
                }
            }
        }
    }
}

/// Sorts a clause's literals by code and drops duplicates. Returns
/// `false` if the clause is a tautology.
fn normalize(buf: &mut Vec<Lit>) -> bool {
    buf.sort_unstable_by_key(|l| l.code());
    buf.dedup();
    !buf.windows(2).any(|w| w[0].var() == w[1].var())
}

/// BVE's occurrence lists: per variable, the clauses that mention it, in
/// clause order. The clauses stored when the pass starts sit in one flat
/// index; the resolvents it adds are chained per variable behind them.
struct VarOccs {
    /// `flat[at[v]..at[v + 1]]`: variable `v`'s clauses at pass start.
    at: Vec<u32>,
    flat: Vec<u32>,
    /// Per variable: its first and last added entry, or [`VarOccs::NIL`].
    first: Vec<u32>,
    last: Vec<u32>,
    /// Added entries: a clause reference and the variable's next entry.
    added: Vec<(u32, u32)>,
}

impl VarOccs {
    const NIL: u32 = u32::MAX;

    fn new(at: Vec<u32>, flat: Vec<u32>) -> Self {
        let n = at.len() - 1;
        VarOccs {
            at,
            flat,
            first: vec![Self::NIL; n],
            last: vec![Self::NIL; n],
            added: Vec::new(),
        }
    }

    fn push(&mut self, v: usize, cref: u32) {
        let e = self.added.len() as u32;
        self.added.push((cref, Self::NIL));
        match self.last[v] {
            Self::NIL => self.first[v] = e,
            l => self.added[l as usize].1 = e,
        }
        self.last[v] = e;
    }

    fn for_each(&self, v: usize, mut f: impl FnMut(u32)) {
        for &cref in &self.flat[self.at[v] as usize..self.at[v + 1] as usize] {
            f(cref);
        }
        let mut e = self.first[v];
        while e != Self::NIL {
            let (cref, next) = self.added[e as usize];
            f(cref);
            e = next;
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...).
fn luby(i: u32) -> u64 {
    let mut x = u64::from(i) + 1;
    loop {
        let mut k = 1;
        while (1u64 << k) - 1 < x {
            k += 1;
        }
        if (1u64 << k) - 1 == x {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    fn vars(s: &mut Solver, n: usize) {
        for _ in 0..n {
            s.new_var();
        }
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        vars(&mut s, 2);
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(&[]), Some(true));
        assert_eq!(s.model_value(lit(1)).as_bool(), Some(false));
        assert_eq!(s.model_value(lit(2)).as_bool(), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        vars(&mut s, 1);
        s.add_clause(&[lit(1)]);
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(&[]), Some(false));
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), Some(false));
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new();
        vars(&mut s, 1);
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(&[]), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{ij}: pigeon i in hole j, i in 0..3, j in 0..2.
        let mut s = Solver::new();
        vars(&mut s, 6);
        let p = |i: u32, j: u32| Var::new(i * 2 + j).pos();
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), Some(false));
    }

    #[test]
    fn assumptions_flip_outcomes() {
        let mut s = Solver::new();
        vars(&mut s, 3);
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        assert_eq!(s.solve(&[lit(-1), lit(-3)]), Some(false));
        assert_eq!(s.solve(&[lit(-1)]), Some(true));
        assert_eq!(s.model_value(lit(2)).as_bool(), Some(true));
        // Solver stays usable after UNSAT-under-assumptions.
        assert_eq!(s.solve(&[]), Some(true));
    }

    #[test]
    fn unsat_core_is_minimal_here() {
        let mut s = Solver::new();
        vars(&mut s, 4);
        // x1 & x2 -> x3; assume x1, x2, !x3, x4: core should avoid x4.
        s.add_clause(&[lit(-1), lit(-2), lit(3)]);
        assert_eq!(s.solve(&[lit(1), lit(2), lit(-3), lit(4)]), Some(false));
        let core: Vec<i32> = s.unsat_core().iter().map(|l| l.to_dimacs()).collect();
        assert!(core.contains(&-3) || (core.contains(&1) && core.contains(&2)));
        assert!(!core.contains(&4), "core {core:?} should not mention x4");
    }

    #[test]
    fn solve_limited_respects_budget() {
        // A hard-ish pigeonhole to exhaust a tiny budget.
        let mut s = Solver::new();
        let n = 7u32; // 7 pigeons, 6 holes
        let h = n - 1;
        vars(&mut s, (n * h) as usize);
        let p = |i: u32, j: u32| Var::new(i * h + j).pos();
        for i in 0..n {
            let row: Vec<Lit> = (0..h).map(|j| p(i, j)).collect();
            s.add_clause(&row);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve_limited(&[], 1), None);
        // And a full solve still works afterwards.
        assert_eq!(s.solve(&[]), Some(false));
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic xorshift generator for reproducibility.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let n = 4 + (next() % 6) as usize; // 4..9 vars
            let m = 3 + (next() % (3 * n as u64)) as usize;
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % n as u64) as u32;
                    c.push(Var::new(v).lit(next() & 1 == 1));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut bf_sat = false;
            'assign: for bits in 0u32..1 << n {
                for c in &clauses {
                    let ok = c.iter().any(|l| {
                        let val = bits >> l.var().index() & 1 == 1;
                        val != l.is_negated()
                    });
                    if !ok {
                        continue 'assign;
                    }
                }
                bf_sat = true;
                break;
            }
            let mut s = Solver::new();
            for _ in 0..n {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve(&[]);
            assert_eq!(got, Some(bf_sat), "round {round}: clauses {clauses:?}");
            if got == Some(true) {
                // Model must satisfy all clauses.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.model_value(l) == LBool::True),
                        "model violates {c:?}"
                    );
                }
            }
        }
    }

    fn pigeonhole(n: u32) -> Solver {
        let h = n - 1;
        let mut s = Solver::new();
        vars(&mut s, (n * h) as usize);
        let p = |i: u32, j: u32| Var::new(i * h + j).pos();
        for i in 0..n {
            let row: Vec<Lit> = (0..h).map(|j| p(i, j)).collect();
            s.add_clause(&row);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s
    }

    #[test]
    fn cancel_flag_stops_an_unlimited_solve() {
        let mut s = pigeonhole(7);
        s.set_ctl(&SolveCtl {
            deadline: None,
            cancel: Some(Arc::new(AtomicBool::new(true))),
        });
        assert_eq!(s.solve_limited(&[], u64::MAX), None);
        // The flag latches; lifting the controls makes the solver usable.
        assert_eq!(s.solve_limited(&[], u64::MAX), None);
        s.set_ctl(&SolveCtl::unlimited());
        assert_eq!(s.solve(&[]), Some(false));
    }

    #[test]
    fn expired_deadline_stops_before_searching() {
        let mut s = pigeonhole(7);
        s.set_ctl(&SolveCtl {
            deadline: Some(Instant::now()),
            cancel: None,
        });
        let before = s.stats().conflicts;
        assert_eq!(s.solve_limited(&[], u64::MAX), None);
        assert_eq!(s.stats().conflicts, before, "no search past the deadline");
        s.set_ctl(&SolveCtl::unlimited());
        assert_eq!(s.solve(&[]), Some(false));
    }

    #[test]
    fn shared_cancel_flag_stops_enrolled_solvers() {
        let cancel = Arc::new(AtomicBool::new(false));
        let ctl = SolveCtl {
            deadline: None,
            cancel: Some(Arc::clone(&cancel)),
        };
        let mut s = pigeonhole(7);
        s.set_ctl(&ctl);
        assert_eq!(s.solve(&[]), Some(false), "flag unset: solve runs");
        cancel.store(true, Ordering::Relaxed);
        let mut t = pigeonhole(7);
        t.set_ctl(&ctl);
        assert_eq!(t.solve_limited(&[], u64::MAX), None);
    }

    /// Random 3-SAT over 40 variables at the threshold ratio (4.25), so
    /// solves take some hundreds of conflicts.
    fn random_3sat(mut state: u64) -> Vec<Vec<Lit>> {
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..170)
            .map(|_| {
                (0..3)
                    .map(|_| Var::new((next() % 40) as u32).lit(next() & 1 == 1))
                    .collect()
            })
            .collect()
    }

    /// A capped solve spends at most its cap, on plain and interpolation
    /// solvers alike, pigeonhole and random instances, every cap from 1
    /// to 60.
    #[test]
    fn conflict_cap_is_a_hard_bound() {
        let instances: Vec<(usize, Vec<Vec<Lit>>)> = [42, 7, 0x5eed]
            .into_iter()
            .map(|seed| (40, random_3sat(seed)))
            .chain(std::iter::once({
                let s = pigeonhole(7);
                let clauses = (0..s.headers.len() as u32)
                    .map(|c| s.clause(c).to_vec())
                    .collect();
                (s.num_vars(), clauses)
            }))
            .collect();
        let mut capped = 0;
        for (i, (n, clauses)) in instances.iter().enumerate() {
            for cap in 1..=60 {
                let mut s = Solver::new();
                vars(&mut s, *n);
                for c in clauses {
                    s.add_clause(c);
                }
                let got = s.solve_limited(&[], cap);
                let spent = s.stats().conflicts;
                assert!(spent <= cap, "instance {i} cap {cap}: spent {spent}");
                capped += usize::from(got.is_none());

                let mut q = crate::ItpSolver::new();
                for _ in 0..*n {
                    q.new_var();
                }
                for (k, c) in clauses.iter().enumerate() {
                    let label = if k % 2 == 0 {
                        ClauseLabel::A
                    } else {
                        ClauseLabel::B
                    };
                    q.add_clause(c, label);
                }
                let got = q.solve_limited(cap);
                let spent = q.last_stats().conflicts;
                assert!(spent <= cap, "itp instance {i} cap {cap}: spent {spent}");
                capped += usize::from(got.is_none());
            }
        }
        assert!(capped > 200, "only {capped} solves reached their cap");
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}

#[cfg(test)]
mod reduce_db_tests {
    use super::*;

    fn pigeonhole_clauses(n: u32) -> (usize, Vec<Vec<Lit>>) {
        let h = n - 1;
        let p = |i: u32, j: u32| Var::new(i * h + j).pos();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for i in 0..n {
            clauses.push((0..h).map(|j| p(i, j)).collect());
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    clauses.push(vec![!p(i1, j), !p(i2, j)]);
                }
            }
        }
        ((n * h) as usize, clauses)
    }

    /// With an aggressive reduce-DB threshold, the solver still decides
    /// pigeonhole correctly and actually deletes clauses.
    #[test]
    fn reduction_preserves_correctness() {
        let (nv, clauses) = pigeonhole_clauses(7);
        let mut s = Solver::new();
        s.set_reduce_db_threshold(32);
        for _ in 0..nv {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(&[]), Some(false));
        assert!(s.stats().deleted > 0, "stats: {:?}", s.stats());
    }

    /// Minimization removes literals without changing answers on random
    /// instances (cross-checked against brute force).
    #[test]
    fn minimization_agrees_with_brute_force() {
        let mut state = 0x51ed_1234_5678_9abcu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut total_minimized = 0;
        for _ in 0..80 {
            let n = 6 + (next() % 4) as usize;
            let m = 4 * n;
            let clauses: Vec<Vec<Lit>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| Var::new((next() % n as u64) as u32).lit(next() & 1 == 1))
                        .collect()
                })
                .collect();
            let mut bf = false;
            'assign: for bits in 0u32..1 << n {
                for c in &clauses {
                    if !c
                        .iter()
                        .any(|l| (bits >> l.var().index() & 1 == 1) != l.is_negated())
                    {
                        continue 'assign;
                    }
                }
                bf = true;
                break;
            }
            let mut s = Solver::new();
            for _ in 0..n {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            assert_eq!(s.solve(&[]), Some(bf));
            total_minimized += s.stats().minimized;
        }
        // Minimization should fire at least occasionally across 80 runs.
        assert!(total_minimized > 0, "minimization never fired");
    }
}

#[cfg(test)]
mod simplify_tests {
    use super::*;

    #[test]
    fn simplify_drops_satisfied_clauses() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        let l = |d: i32| Lit::from_dimacs(d);
        s.add_clause(&[l(1)]); // unit: x1 = true at level 0
        s.add_clause(&[l(1), l(2)]); // satisfied
        s.add_clause(&[l(-2), l(3)]);
        s.add_clause(&[l(2), l(4)]);
        let before = s.stats().deleted;
        s.simplify();
        assert!(s.stats().deleted > before);
        // Still correct afterwards.
        assert_eq!(s.solve(&[]), Some(true));
        assert_eq!(s.solve(&[l(-3), l(2)]), Some(false));
        assert_eq!(s.solve(&[l(-4), l(-2)]), Some(false));
    }

    #[test]
    fn simplify_after_solve_keeps_incremental_sessions_sound() {
        // Random instance: interleave solves, unit additions, simplify.
        let mut state = 0x77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 8;
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for round in 0..30 {
            let c: Vec<Lit> = (0..3)
                .map(|_| Var::new((next() % n as u64) as u32).lit(next() & 1 == 1))
                .collect();
            s.add_clause(&c);
            clauses.push(c);
            if round % 5 == 0 && s.is_ok() {
                s.simplify();
            }
            let got = s.solve(&[]);
            // Brute force.
            let mut bf = false;
            'assign: for bits in 0u32..1 << n {
                for c in &clauses {
                    if !c
                        .iter()
                        .any(|l| (bits >> l.var().index() & 1 == 1) != l.is_negated())
                    {
                        continue 'assign;
                    }
                }
                bf = true;
                break;
            }
            assert_eq!(got, Some(bf), "round {round}");
            if got == Some(false) {
                break;
            }
        }
    }
}

/// Soundness of the inprocessing passes, checked against brute force
/// under an aggressive schedule that makes every pass fire on small
/// instances.
#[cfg(test)]
pub(crate) mod inprocessing_tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashMap;

    thread_local! {
        /// The schedule [`schedule`] returns on this thread, if forced.
        pub(super) static FORCED: Cell<Option<Schedule>> = const { Cell::new(None) };
        /// What [`collection_due`] answers on this thread, if forced.
        pub(super) static COLLECT: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// Inprocessing before every solve and every 20 conflicts, with no
    /// size gate.
    const AGGRESSIVE: Schedule = Schedule {
        min_clauses: 0,
        first_solve: 0,
        solve_interval: 1,
        conflict_interval: 20,
    };

    /// Forces [`AGGRESSIVE`] on every solver this thread builds while the
    /// guard lives.
    pub(crate) struct Aggressive;

    impl Aggressive {
        pub(crate) fn force() -> Aggressive {
            FORCED.with(|f| f.set(Some(AGGRESSIVE)));
            Aggressive
        }
    }

    impl Drop for Aggressive {
        fn drop(&mut self) {
            FORCED.with(|f| f.set(None));
        }
    }

    /// Forces clause collection to run at every opportunity (`true`) or
    /// never (`false`) on this thread while the guard lives.
    pub(crate) struct Collect;

    impl Collect {
        pub(crate) fn force(always: bool) -> Collect {
            COLLECT.with(|f| f.set(Some(always)));
            Collect
        }
    }

    impl Drop for Collect {
        fn drop(&mut self) {
            COLLECT.with(|f| f.set(None));
        }
    }

    /// Runs `run` with collection never running, then at every
    /// opportunity, asserts both give the same outcome, and returns it.
    pub(crate) fn same_with_collection<T: PartialEq + std::fmt::Debug>(
        what: &str,
        mut run: impl FnMut() -> T,
    ) -> T {
        let never = {
            let _never = Collect::force(false);
            run()
        };
        let always = {
            let _always = Collect::force(true);
            run()
        };
        assert_eq!(never, always, "{what}: collection changed the outcome");
        never
    }

    /// The clause store's invariants after a collection: the headers tile
    /// the arena in order, no garbage is left, every live clause of two or
    /// more literals is watched by exactly its first two, no watcher names
    /// a dead clause, and every reason clause has the literal it implied
    /// first.
    pub(super) fn check_clause_store(s: &Solver) {
        let mut top = 0;
        for h in &s.headers {
            assert_eq!(h.start as usize, top, "headers tile the arena");
            top += h.len as usize;
        }
        assert_eq!(top, s.arena.len());
        assert_eq!(s.garbage, 0);
        let mut watched_by: Vec<Vec<u32>> = vec![Vec::new(); s.headers.len()];
        for (code, ws) in (0u32..).zip(&s.watches) {
            for w in ws {
                assert!(
                    !s.headers[w.cref as usize].dead,
                    "watcher of dead clause {}",
                    w.cref
                );
                watched_by[w.cref as usize].push(code);
            }
        }
        for (cref, h) in (0u32..).zip(&s.headers) {
            let lits = s.clause(cref);
            let mut want = match lits {
                [a, b, ..] if !h.dead => vec![a.code(), b.code()],
                _ => Vec::new(),
            };
            want.sort_unstable();
            let got = &mut watched_by[cref as usize];
            got.sort_unstable();
            assert_eq!(
                *got, want,
                "clause {cref} {lits:?}: watched by literal codes"
            );
        }
        for (v, reason) in s.reason.iter().enumerate() {
            if let Some(r) = *reason {
                let first = s.clause(r)[0];
                assert_eq!(
                    first.var().index() as usize,
                    v,
                    "reason {r} implies its first literal"
                );
                assert_eq!(s.value(first), LBool::True);
            }
        }
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The two solver setups every case runs: leg 0 without BVE, leg 1
    /// with it.
    const LEGS: [fn() -> Solver; 2] = [Solver::new, Solver::eliminating];

    fn random_cnf(next: &mut impl FnMut() -> u64, n: usize, max_clauses: u64) -> Vec<Vec<Lit>> {
        let m = 1 + (next() % max_clauses) as usize;
        (0..m).map(|_| random_clause(next, n)).collect()
    }

    fn random_clause(next: &mut impl FnMut() -> u64, n: usize) -> Vec<Lit> {
        let len = 1 + (next() % 3) as usize;
        (0..len)
            .map(|_| Var::new((next() % n as u64) as u32).lit(next() & 1 == 1))
            .collect()
    }

    /// Whether some assignment of `n` variables agreeing with `fixed`
    /// satisfies every clause.
    fn brute_force(n: usize, clauses: &[Vec<Lit>], fixed: &[Lit]) -> bool {
        let holds = |bits: u32, l: &Lit| (bits >> l.var().index() & 1 == 1) != l.is_negated();
        (0u32..1 << n).any(|bits| {
            fixed.iter().all(|l| holds(bits, l))
                && clauses.iter().all(|c| c.iter().any(|l| holds(bits, l)))
        })
    }

    /// Sums each leg's pass counters and checks that every pass fired.
    #[derive(Default)]
    struct Fired {
        vivified: u64,
        subsumed: u64,
        eliminated: [u64; 2],
    }

    impl Fired {
        fn add(&mut self, leg: usize, stats: SolverStats) {
            self.vivified += stats.vivified_clauses;
            self.subsumed += stats.subsumed_clauses;
            self.eliminated[leg] += stats.eliminated_vars;
        }

        fn check(&self) {
            assert!(self.vivified > 0, "vivification never fired");
            assert!(self.subsumed > 0, "subsumption never fired");
            assert_eq!(self.eliminated[0], 0, "BVE ran on a Solver::new solver");
            assert!(self.eliminated[1] > 0, "BVE never fired");
        }
    }

    /// Subsumption derives a unit after taking its locked set, the unit
    /// makes a clause a level-0 reason, and the same pass then kills that
    /// clause. Collection keeps it: in interpolation mode `l0_itp` reads
    /// it when a later clause conflicts at level 0, and the interpolant
    /// meets the Craig contract.
    #[test]
    fn collection_keeps_a_reason_killed_mid_pass() {
        let _aggressive = Aggressive::force();
        let [a, b, e] = [0, 1, 2].map(Var::new);
        // (a ∨ b) strengthens (¬a ∨ b) to the unit b, which makes (¬b ∨ e)
        // the reason of e; then (b ∨ e) strengthens (¬b ∨ e) to e, which
        // kills that reason.
        let clauses = [
            (vec![a.pos(), b.pos()], ClauseLabel::A),
            (vec![a.neg(), b.pos()], ClauseLabel::A),
            (vec![b.pos(), e.pos()], ClauseLabel::B),
            (vec![b.neg(), e.pos()], ClauseLabel::B),
            (vec![e.neg()], ClauseLabel::B),
        ];
        let (first, last) = clauses.split_at(4);
        for itp_mode in [false, true] {
            let what = format!("interpolation {itp_mode}");
            let itp = same_with_collection(&what, || {
                let mut s = Solver::new();
                for _ in 0..3 {
                    s.new_var();
                }
                if itp_mode {
                    s.enable_interpolation(vec![false, true, true], &[b]);
                }
                let add = |s: &mut Solver, (c, label): &(Vec<Lit>, ClauseLabel)| {
                    if itp_mode {
                        s.add_clause_labeled(c, *label)
                    } else {
                        s.add_clause(c)
                    }
                };
                for c in first {
                    assert!(add(&mut s, c));
                }
                assert_eq!(s.solve(&[]), Some(true), "{what}");
                let reason = s.reason[e.index() as usize].expect("e is implied at level 0");
                assert!(
                    s.headers[reason as usize].dead,
                    "{what}: the pass killed e's reason"
                );
                assert!(!add(&mut s, &last[0]), "{what}");
                assert_eq!(s.solve(&[]), Some(false), "{what}");
                let stats = s.stats();
                assert_eq!(stats.subsumed_clauses, 2, "{what}");
                let itp = s
                    .interpolant()
                    .map(|(aig, root)| [false, true].map(|bv| aig.eval_lit(root, &[bv])));
                (itp, stats)
            })
            .0;
            let Some(itp) = itp else {
                assert!(!itp_mode, "interpolation mode yields an interpolant");
                continue;
            };
            // Craig: A ⊨ I(b), and I(b) ∧ B is unsatisfiable.
            for bits in 0u32..8 {
                let val = |v: Var| bits >> v.index() & 1 == 1;
                let side = |label: ClauseLabel| {
                    clauses
                        .iter()
                        .filter(|(_, l)| *l == label)
                        .all(|(c, _)| c.iter().any(|l| val(l.var()) != l.is_negated()))
                };
                let i = itp[usize::from(val(b))];
                assert!(
                    !side(ClauseLabel::A) || i,
                    "A holds but I fails at {bits:03b}"
                );
                assert!(
                    !side(ClauseLabel::B) || !i,
                    "I and B both hold at {bits:03b}"
                );
            }
        }
    }

    /// Vivification, subsumption and BVE leave one-shot answers equal to
    /// brute force; collection leaves models and statistics as they are.
    #[test]
    fn inprocessing_preserves_oneshot_answers() {
        let _aggressive = Aggressive::force();
        let mut next = xorshift(0x1f2e_3d4c_5b6a_7988);
        let mut fired = Fired::default();
        for case in 0..300 {
            let cnf = random_cnf(&mut next, 8, 30);
            let want = brute_force(8, &cnf, &[]);
            for (leg, build) in LEGS.into_iter().enumerate() {
                let what = format!("case {case} leg {leg}");
                let (_, stats) = same_with_collection(&what, || {
                    let mut s = build();
                    for _ in 0..8 {
                        s.new_var();
                    }
                    for c in &cnf {
                        s.add_clause(c);
                    }
                    assert_eq!(s.solve(&[]), Some(want), "{what}: {cnf:?}");
                    (s.model.clone(), s.stats())
                });
                fired.add(leg, stats);
            }
        }
        fired.check();
    }

    /// Repeated solves under assumptions, with clauses added between them
    /// (the Eq.-12 query's pattern), agree with brute force. The BVE leg
    /// freezes the variables it assumes, adds clauses over and reads
    /// models of, as [`Solver::eliminating`] requires; models must satisfy
    /// the assumptions, and on the plain leg every clause. Collection
    /// leaves answers, models, cores and statistics as they are.
    #[test]
    fn inprocessing_preserves_incremental_answers() {
        const FROZEN: usize = 5;
        let _aggressive = Aggressive::force();
        let mut next = xorshift(0x2468_ace0_1357_9bdf);
        let mut fired = Fired::default();
        for case in 0..200 {
            let base = random_cnf(&mut next, 8, 30);
            let rounds: Vec<(Vec<Lit>, Vec<Lit>)> = (0..1 + next() % 4)
                .map(|_| {
                    let picks = (0..next() % 4)
                        .map(|_| Var::new((next() % FROZEN as u64) as u32).lit(next() & 1 == 1))
                        .collect();
                    (picks, random_clause(&mut next, FROZEN))
                })
                .collect();
            for (leg, build) in LEGS.into_iter().enumerate() {
                let what = format!("case {case} leg {leg}");
                let (_, stats) = same_with_collection(&what, || {
                    let mut s = build();
                    for v in 0..8 {
                        s.new_var();
                        if v < FROZEN {
                            s.freeze_var(Var::new(v as u32));
                        }
                    }
                    let mut cnf = base.clone();
                    for c in &cnf {
                        s.add_clause(c);
                    }
                    let mut answers = Vec::new();
                    for (round, (assumptions, extra)) in rounds.iter().enumerate() {
                        let want = brute_force(8, &cnf, assumptions);
                        let got = s.solve(assumptions);
                        assert_eq!(got, Some(want), "{what} round {round}");
                        if want {
                            for &l in assumptions {
                                assert_eq!(s.model_value(l), LBool::True, "{what}");
                            }
                            if leg == 0 {
                                for c in &cnf {
                                    let sat = c.iter().any(|&l| s.model_value(l) == LBool::True);
                                    assert!(sat, "{what}: model violates {c:?}");
                                }
                            }
                        }
                        answers.push((got, s.model.clone(), s.unsat_core().to_vec()));
                        s.add_clause(extra);
                        cnf.push(extra.clone());
                    }
                    (answers, s.stats())
                });
                fired.add(leg, stats);
            }
        }
        fired.check();
    }

    /// Random Tseitin-encoded AIG miters: answers equal exhaustive
    /// evaluation, and every SAT model's inputs satisfy the miter, with
    /// and without collection.
    #[test]
    fn inprocessing_agrees_on_tseitin_miters() {
        use eco_aig::Aig;

        let _aggressive = Aggressive::force();
        let mut next = xorshift(0x0bad_5eed_cafe_f00d);
        let mut fired = Fired::default();
        for case in 0..200 {
            let mut mgr = Aig::new();
            let mut nodes: Vec<ALit> = (0..4).map(|i| mgr.add_input(format!("x{i}"))).collect();
            for _ in 0..1 + next() % 40 {
                let pick = |next: &mut dyn FnMut() -> u64, nodes: &[ALit]| {
                    let x = nodes[(next() % nodes.len() as u64) as usize];
                    x.xor_complement(next() & 1 == 1)
                };
                let (x, y) = (pick(&mut next, &nodes), pick(&mut next, &nodes));
                let gate = if next() & 1 == 1 {
                    mgr.and(x, y)
                } else {
                    mgr.xor(x, y)
                };
                nodes.push(gate);
            }
            let f = *nodes.last().expect("nonempty");
            let g = nodes[nodes.len() / 2];
            let miter = mgr.xor(f, g);
            let want = (0u32..16).any(|bits| {
                let inputs: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                mgr.eval_lit(miter, &inputs)
            });
            for (leg, build) in LEGS.into_iter().enumerate() {
                let what = format!("case {case} leg {leg}");
                let (_, stats) = same_with_collection(&what, || {
                    let mut s = build();
                    let mut map: HashMap<eco_aig::Var, Lit> = HashMap::new();
                    let roots = crate::encode_cone(&mgr, &[miter], &mut map, &mut s);
                    // The model's input values are read back below.
                    for (&v, &sl) in &map {
                        if mgr.input_pos(v).is_some() {
                            s.freeze_var(sl.var());
                        }
                    }
                    s.add_clause(&[roots[0]]);
                    let got = s.solve(&[]);
                    assert_eq!(got, Some(want), "{what}");
                    let mut inputs = vec![false; mgr.num_inputs()];
                    for (&v, &sl) in &map {
                        if let Some(pos) = mgr.input_pos(v) {
                            inputs[pos] = s.model_value(sl) == LBool::True;
                        }
                    }
                    if want {
                        assert!(mgr.eval_lit(miter, &inputs), "{what}: model");
                    }
                    (inputs, s.stats())
                });
                fired.add(leg, stats);
            }
        }
        fired.check();
    }
}
