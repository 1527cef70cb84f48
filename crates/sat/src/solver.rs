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
/// Per-pass BVE budget, counted in resolvent constructions.
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

/// Which side of the interpolation partition a clause belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClauseLabel {
    /// The `phi_A` side; the interpolant over-approximates A.
    A,
    /// The `phi_B` side.
    B,
}

/// Aggregate search statistics.
#[derive(Clone, Copy, Debug, Default)]
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

struct Clause {
    lits: Vec<Lit>,
    /// Partial interpolant (meaningful only when interpolation is enabled).
    itp: ALit,
    /// Learned (vs original) clause.
    learnt: bool,
    /// Activity for the reduce-DB heuristic.
    activity: f32,
    /// Lazily deleted by [`Solver::reduce_db`]; watchers skip dead clauses.
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
    clauses: Vec<Clause>,
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
            clauses: Vec::new(),
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

    /// Number of stored clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
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
            self.clauses.is_empty(),
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
        let mut lits: Vec<Lit> = lits.to_vec();
        lits.sort_unstable_by_key(|l| l.code());
        lits.dedup();
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                // Tautology: dropping it preserves both satisfiability and
                // interpolant validity.
                return true;
            }
        }
        let itp = label.map_or(ALit::FALSE, |lbl| self.leaf_itp(&lits, lbl));
        let cref = self.clauses.len() as u32;

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
        let n_nonfalse = k;
        self.clauses.push(Clause {
            lits,
            itp,
            learnt: false,
            activity: 0.0,
            dead: false,
        });
        let clause_len = self.clauses[cref as usize].lits.len();

        if clause_len >= 2 {
            self.attach(cref);
        }
        match n_nonfalse {
            0 => {
                // Conflicts with level-0 assignments: derive the empty clause.
                self.finalize_unsat(cref);
                false
            }
            1 => {
                let first = self.clauses[cref as usize].lits[0];
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

    fn attach(&mut self, cref: u32) {
        let c = &self.clauses[cref as usize];
        let (l0, l1) = (c.lits[0], c.lits[1]);
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
        let mut itp = self.clauses[confl as usize].itp;
        for j in 0..self.clauses[confl as usize].lits.len() {
            let q = self.clauses[confl as usize].lits[j];
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
            let cref =
                self.reason[x.index() as usize].expect("level-0 literal has a reason") as usize;
            let mut t = self.clauses[cref].itp;
            for &q in &self.clauses[cref].lits {
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
                let cref = w.cref as usize;
                if self.clauses[cref].dead {
                    continue; // drop the watcher
                }
                if self.value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                for k in 2..self.clauses[cref].lits.len() {
                    let lk = self.clauses[cref].lits[k];
                    if self.value(lk) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[lk.code() as usize].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
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
        if !self.clauses[cref].learnt {
            return;
        }
        self.clauses[cref].activity += self.cla_inc;
        if self.clauses[cref].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
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
    /// level-0 interpolant chains may still traverse them.
    pub fn simplify(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "simplify only at level 0");
        let locked: std::collections::HashSet<u32> =
            self.reason.iter().flatten().copied().collect();
        for i in 0..self.clauses.len() {
            if self.clauses[i].dead || locked.contains(&(i as u32)) {
                continue;
            }
            let satisfied = self.clauses[i].lits.iter().any(|&l| {
                self.value(l) == LBool::True && self.level[l.var().index() as usize] == 0
            });
            if satisfied {
                self.clauses[i].dead = true;
                if self.clauses[i].learnt {
                    self.n_learnt_alive -= 1;
                }
                self.stats.deleted += 1;
            }
        }
    }

    /// Deletes the lower-activity half of the unlocked learned clauses.
    ///
    /// Deletion is lazy: clauses are marked dead and their watchers are
    /// dropped the next time propagation touches them. Reason ("locked")
    /// clauses are kept — both for propagation correctness and because the
    /// interpolation level-0 chains may revisit them.
    fn reduce_db(&mut self) {
        let mut cands: Vec<usize> = Vec::new();
        let locked: std::collections::HashSet<u32> =
            self.reason.iter().flatten().copied().collect();
        for (i, c) in self.clauses.iter().enumerate() {
            if c.learnt && !c.dead && c.lits.len() > 2 && !locked.contains(&(i as u32)) {
                cands.push(i);
            }
        }
        cands.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in cands.iter().take(cands.len() / 2) {
            self.clauses[i].dead = true;
            self.n_learnt_alive -= 1;
            self.stats.deleted += 1;
        }
    }

    /// First-UIP conflict analysis; returns (learned clause, backtrack
    /// level, partial interpolant of the learned clause).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32, ALit) {
        let mut ictx = self.itp.take();
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)];
        let mut cleanup: Vec<Var> = Vec::new();
        let mut path = 0u32;
        let mut idx = self.trail.len();
        let mut cur = confl as usize;
        let mut skip_first = false;
        let dl = self.decision_level();
        let mut itp = ictx.as_ref().map_or(ALit::FALSE, |_| self.clauses[cur].itp);
        loop {
            self.bump_clause(cur);
            let start = usize::from(skip_first);
            for ji in start..self.clauses[cur].lits.len() {
                let q = self.clauses[cur].lits[ji];
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
                    cleanup.push(v);
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
            debug_assert_eq!(self.clauses[cur].lits[0], p);
            skip_first = true;
            if let Some(ctx) = ictx.as_mut() {
                let r_itp = self.clauses[cur].itp;
                itp = Self::combine(ctx, itp, r_itp, v);
            }
        }
        // Local conflict-clause minimization: a literal is redundant if its
        // reason's other literals are all *still in the clause* (or level
        // 0). Each removal is one more resolution, tracked in the
        // interpolant. The "still in the clause" restriction (rather than
        // MiniSat's "was marked seen") matters for interpolation: allowing
        // a removed literal to justify a later removal re-introduces it in
        // the true resolvent, which the single-combine bookkeeping below
        // would not account for.
        let mut removed: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut kept: Vec<Lit> = Vec::with_capacity(learnt.len());
        kept.push(learnt[0]);
        for &q in &learnt[1..] {
            let v = q.var();
            let redundant = match self.reason[v.index() as usize] {
                None => false,
                Some(r) => self.clauses[r as usize].lits[1..].iter().all(|&l| {
                    (self.seen[l.var().index() as usize] && !removed.contains(&l.var().index()))
                        || self.level[l.var().index() as usize] == 0
                }),
            };
            if redundant {
                self.stats.minimized += 1;
                removed.insert(v.index());
                if let Some(ctx) = ictx.as_mut() {
                    let r = self.reason[v.index() as usize].expect("checked") as usize;
                    // Resolve away q, plus any level-0 literals its reason
                    // introduces.
                    let mut t = Self::combine(ctx, itp, self.clauses[r].itp, v);
                    for j in 1..self.clauses[r].lits.len() {
                        let l = self.clauses[r].lits[j];
                        if self.level[l.var().index() as usize] == 0 {
                            let sub = self.l0_itp(ctx, l.var());
                            t = Self::combine(ctx, t, sub, l.var());
                        }
                    }
                    itp = t;
                }
            } else {
                kept.push(q);
            }
        }
        let mut learnt = kept;
        for v in cleanup {
            self.seen[v.index() as usize] = false;
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
                    let c = &self.clauses[cref as usize];
                    for &l in &c.lits[1..] {
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
                let cref = self.clauses.len() as u32;
                let asserting = learnt[0];
                let len = learnt.len();
                self.clauses.push(Clause {
                    lits: learnt,
                    itp,
                    learnt: true,
                    activity: self.cla_inc,
                    dead: false,
                });
                self.stats.learned += 1;
                self.n_learnt_alive += 1;
                if len >= 2 {
                    self.attach(cref);
                }
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
                        self.model = self.assigns.clone();
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
        self.assumptions = assumptions.to_vec();
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
        if self.clauses.len() < schedule.min_clauses {
            return;
        }
        self.inprocess();
    }

    /// One inprocessing round: top-level simplification, then
    /// (self-)subsumption, then — outside interpolation mode —
    /// vivification and (on an [`Solver::eliminating`] solver) bounded
    /// variable elimination.
    fn inprocess(&mut self) {
        self.simplify();
        self.subsume_pass();
        if self.itp.is_none() && self.ok {
            self.vivify_pass();
            if self.bve && self.ok {
                self.bve_pass();
            }
        }
    }

    /// Indices of clauses currently acting as propagation reasons.
    fn locked_clauses(&self) -> std::collections::HashSet<u32> {
        self.reason.iter().flatten().copied().collect()
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
        let mut lits: Vec<Lit> = lits.to_vec();
        lits.sort_unstable_by_key(|l| l.code());
        lits.dedup();
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return true;
            }
        }
        let cref = self.clauses.len() as u32;
        if lits.is_empty() {
            self.ok = false;
            if let Some(ctx) = self.itp.as_mut() {
                ctx.final_itp = Some(itp);
            }
            return false;
        }
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
        let n_nonfalse = k;
        self.clauses.push(Clause {
            lits,
            itp,
            learnt,
            activity,
            dead: false,
        });
        if learnt {
            self.n_learnt_alive += 1;
        }
        if self.clauses[cref as usize].lits.len() >= 2 {
            self.attach(cref);
        }
        match n_nonfalse {
            0 => {
                self.finalize_unsat(cref);
                false
            }
            1 => {
                let first = self.clauses[cref as usize].lits[0];
                if self.value(first) == LBool::Undef {
                    self.enqueue(first, Some(cref));
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

    /// Marks a clause dead, maintaining the learnt-alive count.
    fn kill_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        debug_assert!(!c.dead);
        c.dead = true;
        if c.learnt {
            self.n_learnt_alive -= 1;
        }
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
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); n_codes];
        let mut cands: Vec<u32> = Vec::new();
        for (i, c) in self.clauses.iter().enumerate() {
            if c.dead || c.lits.len() > MAX_SUBSUMER_LEN {
                continue;
            }
            for &l in &c.lits {
                occ[l.code() as usize].push(i as u32);
            }
            cands.push(i as u32);
        }
        // Variable-based signatures so a flipped literal still matches.
        let sig = |lits: &[Lit]| -> u64 {
            lits.iter()
                .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
        };
        let sigs: Vec<u64> = self
            .clauses
            .iter()
            .map(|c| if c.dead { 0 } else { sig(&c.lits) })
            .collect();
        cands.sort_by_key(|&i| self.clauses[i as usize].lits.len());
        let mut budget = SUBSUME_BUDGET;
        // Scratch marker per literal code, stamped per subsumer.
        let mut mark: Vec<u32> = vec![0; n_codes];
        let mut stamp = 0u32;
        'outer: for &ci in &cands {
            if budget == 0 || !self.ok {
                break;
            }
            if self.clauses[ci as usize].dead {
                continue;
            }
            let c_lits = self.clauses[ci as usize].lits.clone();
            let c_sig = sig(&c_lits);
            stamp += 1;
            for &l in &c_lits {
                mark[l.code() as usize] = stamp;
            }
            // Forward subsumption: scan the occurrence list of C's rarest
            // literal for clauses D ⊇ C.
            let lmin = c_lits
                .iter()
                .copied()
                .min_by_key(|l| occ[l.code() as usize].len())
                .expect("non-empty clause");
            for &di in &occ[lmin.code() as usize] {
                if di == ci || budget == 0 {
                    continue;
                }
                let d = &self.clauses[di as usize];
                if d.dead || d.lits.len() < c_lits.len() || (c_sig & !sigs[di as usize]) != 0 {
                    continue;
                }
                if locked.contains(&di) {
                    continue;
                }
                budget = budget.saturating_sub(d.lits.len() as u64);
                let hits = d
                    .lits
                    .iter()
                    .filter(|l| mark[l.code() as usize] == stamp)
                    .count();
                if hits == c_lits.len() {
                    self.kill_clause(di);
                    self.stats.subsumed_clauses += 1;
                }
            }
            // Self-subsumption: for each literal l of C, a clause D with
            // ¬l whose remaining literals cover C∖{l} loses ¬l.
            for &l in &c_lits {
                if self.clauses[ci as usize].dead {
                    continue 'outer;
                }
                for &di in &occ[(!l).code() as usize] {
                    if budget == 0 {
                        continue 'outer;
                    }
                    let d = &self.clauses[di as usize];
                    if d.dead
                        || d.lits.len() < c_lits.len()
                        || (c_sig & !sigs[di as usize]) != 0
                        || locked.contains(&di)
                    {
                        continue;
                    }
                    budget = budget.saturating_sub(d.lits.len() as u64);
                    let hits = d
                        .lits
                        .iter()
                        .filter(|q| mark[q.code() as usize] == stamp)
                        .count();
                    if hits != c_lits.len() - 1 {
                        continue;
                    }
                    // Resolve C ⊗ D on var(l): the resolvent is D ∖ {¬l}.
                    let new_lits: Vec<Lit> = d.lits.iter().copied().filter(|&q| q != !l).collect();
                    debug_assert_eq!(new_lits.len(), d.lits.len() - 1);
                    let new_itp = if self.itp.is_some() {
                        let mut ctx = self.itp.take().expect("checked");
                        let c_itp = self.clauses[ci as usize].itp;
                        let d_itp = self.clauses[di as usize].itp;
                        let itp = Self::combine(&mut ctx, c_itp, d_itp, l.var());
                        self.itp = Some(ctx);
                        itp
                    } else {
                        ALit::FALSE
                    };
                    let learnt = self.clauses[di as usize].learnt;
                    let act = self.clauses[di as usize].activity;
                    self.kill_clause(di);
                    self.stats.subsumed_clauses += 1;
                    if !self.add_derived_clause(&new_lits, new_itp, learnt, act) {
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
        let cands: Vec<u32> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                !c.dead
                    && (3..=MAX_VIVIFY_LEN).contains(&c.lits.len())
                    && !locked.contains(&(*i as u32))
            })
            .map(|(i, _)| i as u32)
            .collect();
        for ci in cands {
            if budget == 0 || !self.ok {
                break;
            }
            if self.clauses[ci as usize].dead {
                continue;
            }
            let lits = self.clauses[ci as usize].lits.clone();
            // Detach C so it cannot propagate in its own probe; probing
            // derives C's replacement from F∖{C}. The arena entry stays
            // dead (watchers drop lazily) and a fresh clause is attached
            // below.
            self.kill_clause(ci);
            let props_before = self.stats.propagations;
            let mut new_lits: Vec<Lit> = Vec::with_capacity(lits.len());
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
            let learnt = self.clauses[ci as usize].learnt;
            let act = self.clauses[ci as usize].activity;
            if !self.add_derived_clause(&new_lits, ALit::FALSE, learnt, act) {
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
    fn bve_pass(&mut self) {
        debug_assert!(self.itp.is_none());
        const MAX_OCCS: usize = 10;
        const MAX_RESOLVENT_LEN: usize = 24;
        let n_vars = self.assigns.len();
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); n_vars];
        for (i, c) in self.clauses.iter().enumerate() {
            if c.dead {
                continue;
            }
            for &l in &c.lits {
                occ[l.var().index() as usize].push(i as u32);
            }
        }
        let mut assumed = vec![false; n_vars];
        for l in &self.assumptions {
            assumed[l.var().index() as usize] = true;
        }
        let mut budget = BVE_BUDGET;
        for v in 0..n_vars {
            if budget == 0 || !self.ok {
                break;
            }
            if self.frozen[v] || self.eliminated[v] || assumed[v] || self.assigns[v] != LBool::Undef
            {
                continue;
            }
            let var = Var::new(v as u32);
            let mut pos: Vec<u32> = Vec::new();
            let mut neg: Vec<u32> = Vec::new();
            let mut learnt_occs: Vec<u32> = Vec::new();
            for &ci in &occ[v] {
                let c = &self.clauses[ci as usize];
                if c.dead {
                    continue;
                }
                if c.learnt {
                    learnt_occs.push(ci);
                } else if c.lits.contains(&var.pos()) {
                    pos.push(ci);
                } else {
                    neg.push(ci);
                }
            }
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            if pos.len() > MAX_OCCS || neg.len() > MAX_OCCS {
                continue;
            }
            // Build all non-tautological resolvents; reject the variable
            // if any is too long or the set grows the clause count.
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut reject = false;
            'pairs: for &cp in &pos {
                for &cn in &neg {
                    budget = budget.saturating_sub(1);
                    let mut r: Vec<Lit> = self.clauses[cp as usize]
                        .lits
                        .iter()
                        .copied()
                        .filter(|&l| l != var.pos())
                        .chain(
                            self.clauses[cn as usize]
                                .lits
                                .iter()
                                .copied()
                                .filter(|&l| l != var.neg()),
                        )
                        .collect();
                    r.sort_unstable_by_key(|l| l.code());
                    r.dedup();
                    let taut = r.windows(2).any(|w| w[0].var() == w[1].var());
                    if taut {
                        continue;
                    }
                    if r.len() > MAX_RESOLVENT_LEN {
                        reject = true;
                        break 'pairs;
                    }
                    resolvents.push(r);
                    if resolvents.len() > pos.len() + neg.len() {
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
            // resolvents.
            self.eliminated[v] = true;
            self.stats.eliminated_vars += 1;
            for &ci in pos.iter().chain(neg.iter()).chain(learnt_occs.iter()) {
                self.kill_clause(ci);
                self.stats.deleted += 1;
            }
            for r in resolvents {
                let cref = self.clauses.len() as u32;
                if !self.add_derived_clause(&r, ALit::FALSE, false, 0.0) {
                    return;
                }
                // The resolvent may itself have been dropped (tautology)
                // or appended; register occurrences for later variables.
                if (cref as usize) < self.clauses.len() {
                    for &l in &self.clauses[cref as usize].lits.clone() {
                        occ[l.var().index() as usize].push(cref);
                    }
                }
            }
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
        for round in 0..120 {
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
                let clauses = s.clauses.iter().map(|c| c.lits.clone()).collect();
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

    /// Vivification, subsumption and BVE leave one-shot answers equal to
    /// brute force.
    #[test]
    fn inprocessing_preserves_oneshot_answers() {
        let _aggressive = Aggressive::force();
        let mut next = xorshift(0x1f2e_3d4c_5b6a_7988);
        let mut fired = Fired::default();
        for case in 0..300 {
            let cnf = random_cnf(&mut next, 8, 30);
            let want = brute_force(8, &cnf, &[]);
            for (leg, build) in LEGS.into_iter().enumerate() {
                let mut s = build();
                for _ in 0..8 {
                    s.new_var();
                }
                for c in &cnf {
                    s.add_clause(c);
                }
                assert_eq!(s.solve(&[]), Some(want), "case {case} leg {leg}: {cnf:?}");
                fired.add(leg, s.stats());
            }
        }
        fired.check();
    }

    /// Repeated solves under assumptions, with clauses added between them
    /// (the Eq.-12 query's pattern), agree with brute force. The BVE leg
    /// freezes the variables it assumes, adds clauses over and reads
    /// models of, as [`Solver::eliminating`] requires; models must satisfy
    /// the assumptions, and on the plain leg every clause.
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
                for (round, (assumptions, extra)) in rounds.iter().enumerate() {
                    let want = brute_force(8, &cnf, assumptions);
                    let got = s.solve(assumptions);
                    assert_eq!(got, Some(want), "case {case} leg {leg} round {round}");
                    if want {
                        for &l in assumptions {
                            assert_eq!(s.model_value(l), LBool::True, "case {case} leg {leg}");
                        }
                        if leg == 0 {
                            for c in &cnf {
                                let sat = c.iter().any(|&l| s.model_value(l) == LBool::True);
                                assert!(sat, "case {case}: model violates {c:?}");
                            }
                        }
                    }
                    s.add_clause(extra);
                    cnf.push(extra.clone());
                }
                fired.add(leg, s.stats());
            }
        }
        fired.check();
    }

    /// Random Tseitin-encoded AIG miters: answers equal exhaustive
    /// evaluation, and every SAT model's inputs satisfy the miter.
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
                assert_eq!(got, Some(want), "case {case} leg {leg}");
                if want {
                    let mut inputs = vec![false; mgr.num_inputs()];
                    for (&v, &sl) in &map {
                        if let Some(pos) = mgr.input_pos(v) {
                            inputs[pos] = s.model_value(sl) == LBool::True;
                        }
                    }
                    assert!(mgr.eval_lit(miter, &inputs), "case {case} leg {leg}: model");
                }
                fired.add(leg, s.stats());
            }
        }
        fired.check();
    }
}
