//! One-shot Craig interpolation queries.
//!
//! [`ItpSolver`] collects clauses partitioned into `A` and `B`, then solves
//! `A ∧ B`. If the conjunction is unsatisfiable, it returns a Craig
//! [`Interpolant`] `I` with `A → I`, `I ∧ B` unsatisfiable, and
//! `vars(I) ⊆ vars(A) ∩ vars(B)` (Theorem 1 of the paper), constructed from
//! the solver's resolution proof in McMillan's labeling system and emitted
//! directly as an [`Aig`].

use eco_aig::{Aig, Lit as ALit};

use crate::{ClauseLabel, LBool, Lit, SolveCtl, Solver, SolverStats, Var};

/// A Craig interpolant represented as an AIG over shared variables.
#[derive(Clone, Debug)]
pub struct Interpolant {
    /// The interpolant circuit; its inputs correspond 1:1 to [`Interpolant::inputs`].
    pub aig: Aig,
    /// Root literal of the interpolant within [`Interpolant::aig`].
    pub root: ALit,
    /// The shared SAT variables, in AIG-input order.
    pub inputs: Vec<Var>,
}

impl Interpolant {
    /// Evaluates the interpolant under a total assignment to the SAT
    /// variables (indexed by variable index).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the largest shared variable
    /// index.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let inputs: Vec<bool> = self
            .inputs
            .iter()
            .map(|v| assignment[v.index() as usize])
            .collect();
        self.aig.eval_lit(self.root, &inputs)
    }

    /// Number of AND gates in the interpolant cone.
    pub fn size(&self) -> usize {
        self.aig.count_cone_ands(&[self.root])
    }
}

/// Outcome of an interpolation query.
#[derive(Clone, Debug)]
pub enum ItpOutcome {
    /// `A ∧ B` is satisfiable; the witness model is given per variable.
    Sat(Vec<LBool>),
    /// `A ∧ B` is unsatisfiable; a Craig interpolant was derived.
    Unsat(Interpolant),
}

impl ItpOutcome {
    /// Returns the interpolant if the query was unsatisfiable.
    pub fn into_interpolant(self) -> Option<Interpolant> {
        match self {
            ItpOutcome::Unsat(i) => Some(i),
            ItpOutcome::Sat(_) => None,
        }
    }
}

/// Collects an `(A, B)` clause partition and solves it with interpolant
/// tracking.
///
/// # Examples
///
/// ```
/// use eco_sat::{ClauseLabel, ItpSolver};
///
/// // A: x & (x -> y)    B: (y -> z) & !z     shared: y
/// let mut q = ItpSolver::new();
/// let x = q.new_var();
/// let y = q.new_var();
/// let z = q.new_var();
/// q.add_clause(&[x.pos()], ClauseLabel::A);
/// q.add_clause(&[x.neg(), y.pos()], ClauseLabel::A);
/// q.add_clause(&[y.neg(), z.pos()], ClauseLabel::B);
/// q.add_clause(&[z.neg()], ClauseLabel::B);
/// let outcome = q.solve_limited(u64::MAX).expect("no budget, no controls");
/// let itp = outcome.into_interpolant().expect("unsat");
/// assert_eq!(itp.inputs, vec![y]);
/// // The interpolant must be exactly `y` here (A forces y, B forbids it).
/// assert!(itp.eval(&[false, true, false]));
/// assert!(!itp.eval(&[false, false, false]));
/// ```
#[derive(Default)]
pub struct ItpSolver {
    n_vars: u32,
    clauses: Vec<(Vec<Lit>, ClauseLabel)>,
    ctl: SolveCtl,
    last_stats: std::cell::Cell<SolverStats>,
}

impl ItpSolver {
    /// Creates an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Search statistics of the most recent [`ItpSolver::solve_limited`]
    /// call (zeroed before any solve).
    pub fn last_stats(&self) -> SolverStats {
        self.last_stats.get()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.n_vars as usize
    }

    /// Adds a clause to partition `label`.
    pub fn add_clause(&mut self, lits: &[Lit], label: ClauseLabel) {
        for l in lits {
            assert!(l.var().index() < self.n_vars, "undeclared variable {l:?}");
        }
        self.clauses.push((lits.to_vec(), label));
    }

    /// Installs governor controls (deadline / cancellation flag) forwarded
    /// to the inner solver of every subsequent solve (see
    /// [`Solver::set_ctl`]).
    pub fn set_ctl(&mut self, ctl: SolveCtl) {
        self.ctl = ctl;
    }

    /// Variables occurring in both partitions, in index order.
    fn shared_vars(&self) -> Vec<Var> {
        let (in_a, in_b) = self.occurrence_flags();
        (0..self.n_vars)
            .filter(|&i| in_a[i as usize] && in_b[i as usize])
            .map(Var::new)
            .collect()
    }

    fn occurrence_flags(&self) -> (Vec<bool>, Vec<bool>) {
        let mut in_a = vec![false; self.n_vars as usize];
        let mut in_b = vec![false; self.n_vars as usize];
        for (lits, label) in &self.clauses {
            let flags = match label {
                ClauseLabel::A => &mut in_a,
                ClauseLabel::B => &mut in_b,
            };
            for l in lits {
                flags[l.var().index() as usize] = true;
            }
        }
        (in_a, in_b)
    }

    /// Solves the query within `max_conflicts` conflicts (as
    /// [`Solver::solve_limited`]) under the governor controls; `None` when
    /// the budget is exhausted, the deadline passes, or the cancellation
    /// flag fires. This is the only solve entry point: with `u64::MAX` and
    /// no controls it always returns `Some`.
    ///
    /// The inner solver's inprocessing keeps only the interpolant-sound
    /// subsumption and self-subsumption; vivification and variable
    /// elimination skip interpolation mode.
    pub fn solve_limited(&self, max_conflicts: u64) -> Option<ItpOutcome> {
        self.solve_on(Solver::new(), max_conflicts)
    }

    /// [`ItpSolver::solve_limited`] on a given empty solver.
    fn solve_on(&self, mut solver: Solver, max_conflicts: u64) -> Option<ItpOutcome> {
        let (_, in_b) = self.occurrence_flags();
        let shared = self.shared_vars();
        solver.set_ctl(&self.ctl);
        solver.enable_interpolation(in_b, &shared);
        for _ in 0..self.n_vars {
            solver.new_var();
        }
        for (lits, label) in &self.clauses {
            if !solver.add_clause_labeled(lits, *label) {
                break;
            }
        }
        let solved = solver.solve_limited(&[], max_conflicts);
        self.last_stats.set(solver.stats());
        match solved? {
            true => {
                let model = (0..self.n_vars)
                    .map(|i| solver.model_value(Var::new(i).pos()))
                    .collect();
                Some(ItpOutcome::Sat(model))
            }
            false => {
                let (aig, root) = solver.interpolant().expect("unsat in itp mode");
                Some(ItpOutcome::Unsat(Interpolant {
                    aig: aig.clone(),
                    root,
                    inputs: shared,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(q: &ItpSolver) -> ItpOutcome {
        q.solve_limited(u64::MAX)
            .expect("unbounded solve completes")
    }

    fn check_interpolant(n_vars: usize, clauses: &[(Vec<Lit>, ClauseLabel)], itp: &Interpolant) {
        // Exhaustively verify: A -> I, and I & B unsat; support containment
        // holds by construction (inputs are the shared vars).
        assert!(n_vars <= 16, "exhaustive check only for small n");
        for bits in 0u32..1 << n_vars {
            let assignment: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
            let sat_side = |label: ClauseLabel| {
                clauses.iter().filter(|(_, l)| *l == label).all(|(c, _)| {
                    c.iter()
                        .any(|l| assignment[l.var().index() as usize] != l.is_negated())
                })
            };
            let i_val = itp.eval(&assignment);
            if sat_side(ClauseLabel::A) {
                assert!(i_val, "A holds but I fails at {assignment:?}");
            }
            if sat_side(ClauseLabel::B) {
                assert!(!i_val, "I & B both hold at {assignment:?}");
            }
        }
    }

    #[test]
    fn implication_chain_interpolant() {
        let mut q = ItpSolver::new();
        let x = q.new_var();
        let y = q.new_var();
        let z = q.new_var();
        q.add_clause(&[x.pos()], ClauseLabel::A);
        q.add_clause(&[x.neg(), y.pos()], ClauseLabel::A);
        q.add_clause(&[y.neg(), z.pos()], ClauseLabel::B);
        q.add_clause(&[z.neg()], ClauseLabel::B);
        let clauses = q.clauses.clone();
        let itp = solve(&q).into_interpolant().expect("unsat");
        assert_eq!(itp.inputs, vec![y]);
        check_interpolant(3, &clauses, &itp);
    }

    #[test]
    fn a_alone_unsat_gives_false() {
        let mut q = ItpSolver::new();
        let x = q.new_var();
        let y = q.new_var();
        q.add_clause(&[x.pos()], ClauseLabel::A);
        q.add_clause(&[x.neg()], ClauseLabel::A);
        q.add_clause(&[y.pos()], ClauseLabel::B);
        let clauses = q.clauses.clone();
        let itp = solve(&q).into_interpolant().expect("unsat");
        check_interpolant(2, &clauses, &itp);
        // I must be constant-false-equivalent: B is satisfiable, so there
        // is an assignment where B holds, hence I must be 0 there; and A
        // never holds. Check I is false everywhere.
        for bits in 0u32..4 {
            let assignment: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            assert!(!itp.eval(&assignment));
        }
    }

    #[test]
    fn b_alone_unsat_gives_true() {
        let mut q = ItpSolver::new();
        let x = q.new_var();
        let y = q.new_var();
        q.add_clause(&[x.pos()], ClauseLabel::A);
        q.add_clause(&[y.pos()], ClauseLabel::B);
        q.add_clause(&[y.neg()], ClauseLabel::B);
        let clauses = q.clauses.clone();
        let itp = solve(&q).into_interpolant().expect("unsat");
        check_interpolant(2, &clauses, &itp);
        for bits in 0u32..4 {
            let assignment: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            assert!(itp.eval(&assignment));
        }
    }

    #[test]
    fn sat_query_returns_model() {
        let mut q = ItpSolver::new();
        let x = q.new_var();
        let y = q.new_var();
        q.add_clause(&[x.pos(), y.pos()], ClauseLabel::A);
        q.add_clause(&[x.neg(), y.neg()], ClauseLabel::B);
        match solve(&q) {
            ItpOutcome::Sat(model) => {
                let xv = model[0].as_bool().expect("assigned");
                let yv = model[1].as_bool().expect("assigned");
                assert!(xv || yv);
                assert!(!xv || !yv);
            }
            ItpOutcome::Unsat(_) => panic!("should be sat"),
        }
    }

    #[test]
    fn random_unsat_partitions_yield_valid_interpolants() {
        let mut state = 0xdeadbeef12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unsat_seen = 0;
        for _ in 0..400 {
            let n = 4 + (next() % 5) as usize; // 4..8 vars
            let m = 6 + (next() % (4 * n as u64)) as usize;
            let mut q = ItpSolver::new();
            for _ in 0..n {
                q.new_var();
            }
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Var::new((next() % n as u64) as u32).lit(next() & 1 == 1))
                    .collect();
                let label = if next() & 1 == 1 {
                    ClauseLabel::A
                } else {
                    ClauseLabel::B
                };
                q.add_clause(&lits, label);
            }
            let clauses = q.clauses.clone();
            if let ItpOutcome::Unsat(itp) = solve(&q) {
                unsat_seen += 1;
                check_interpolant(n, &clauses, &itp);
            }
        }
        assert!(unsat_seen > 30, "want many unsat samples, got {unsat_seen}");
    }

    #[test]
    fn interpolants_stay_valid_with_inprocessing_forced_on() {
        // Force inprocessing to fire on every solve with no size gate, on
        // a solver that also asks for BVE: in interpolation mode the
        // solver must keep only the label-sound techniques (subsumption
        // with tracked partial interpolants; vivification and BVE skip),
        // so the Craig contract must hold on every UNSAT sample.
        use crate::solver::inprocessing_tests::{same_with_collection, Aggressive};
        let _aggressive = Aggressive::force();
        let mut state = 0x0123456789abcdefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unsat_seen = 0;
        let mut inprocessed = 0u64;
        for sample in 0..400 {
            let n = 4 + (next() % 5) as usize; // 4..8 vars
            let m = 6 + (next() % (4 * n as u64)) as usize;
            let mut q = ItpSolver::new();
            for _ in 0..n {
                q.new_var();
            }
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Var::new((next() % n as u64) as u32).lit(next() & 1 == 1))
                    .collect();
                let label = if next() & 1 == 1 {
                    ClauseLabel::A
                } else {
                    ClauseLabel::B
                };
                q.add_clause(&lits, label);
            }
            let clauses = q.clauses.clone();
            // Collection never changes the outcome, interpolant included.
            let (_, stats, unsat) = same_with_collection(&format!("sample {sample}"), || {
                let outcome = q
                    .solve_on(Solver::eliminating(), u64::MAX)
                    .expect("unbounded solve completes");
                let unsat = matches!(outcome, ItpOutcome::Unsat(_));
                if let ItpOutcome::Unsat(itp) = &outcome {
                    check_interpolant(n, &clauses, itp);
                }
                (format!("{outcome:?}"), q.last_stats(), unsat)
            });
            unsat_seen += usize::from(unsat);
            inprocessed += stats.subsumed_clauses;
            assert_eq!(stats.vivified_clauses, 0, "vivification must skip itp mode");
            assert_eq!(stats.eliminated_vars, 0, "BVE must skip itp mode");
        }
        assert!(unsat_seen > 30, "want many unsat samples, got {unsat_seen}");
        assert!(
            inprocessed > 0,
            "subsumption never fired across 400 samples"
        );
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // Pigeonhole 6->5 split across partitions with a 1-conflict budget.
        let mut q = ItpSolver::new();
        let n = 6u32;
        let h = 5u32;
        let vars: Vec<Var> = (0..n * h).map(|_| q.new_var()).collect();
        let p = |i: u32, j: u32| vars[(i * h + j) as usize];
        for i in 0..n {
            let row: Vec<Lit> = (0..h).map(|j| p(i, j).pos()).collect();
            q.add_clause(&row, ClauseLabel::A);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    q.add_clause(&[p(i1, j).neg(), p(i2, j).neg()], ClauseLabel::B);
                }
            }
        }
        assert!(q.solve_limited(1).is_none());
    }

    /// Interpolation with reduction enabled still yields valid interpolants.
    #[test]
    fn interpolation_survives_reduction() {
        // Pigeonhole split A/B with a tiny threshold.
        let n: u32 = 6;
        let h = n - 1;
        let mut q = ItpSolver::new();
        let vars: Vec<Var> = (0..n * h).map(|_| q.new_var()).collect();
        let p = |i: u32, j: u32| vars[(i * h + j) as usize];
        for i in 0..n {
            let row: Vec<Lit> = (0..h).map(|j| p(i, j).pos()).collect();
            q.add_clause(&row, ClauseLabel::A);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    q.add_clause(&[p(i1, j).neg(), p(i2, j).neg()], ClauseLabel::B);
                }
            }
        }
        let mut solver = Solver::new();
        solver.set_reduce_db_threshold(32);
        let itp = q
            .solve_on(solver, u64::MAX)
            .expect("unbounded")
            .into_interpolant()
            .expect("unsat");
        // Spot-check the contract on random assignments (30 vars is too
        // many for exhaustion): A -> I and I -> !B.
        let mut state = 0xabcdu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let assignment: Vec<bool> = (0..n * h).map(|_| next() & 1 == 1).collect();
            let a_holds = (0..n).all(|i| (0..h).any(|j| assignment[(i * h + j) as usize]));
            let b_holds = (0..h).all(|j| {
                let mut count = 0;
                for i in 0..n {
                    count += assignment[(i * h + j) as usize] as u32;
                }
                count <= 1
            });
            let i_val = itp.eval(&assignment);
            if a_holds {
                assert!(i_val, "A -> I violated");
            }
            if b_holds {
                assert!(!i_val, "I & B satisfiable");
            }
        }
    }
}
