//! Rebasing with functional dependency (§6.1, Eq. 12, Fig. 3).
//!
//! A [`RebaseQuery`] holds one incremental SAT instance with two CNF
//! copies of the specification circuit — the on-set copy `Φ(µ=1, B', X)`
//! and the off-set copy `Φ*(µ*=0, B'*, X*)` — plus, per base-candidate
//! signal `b_i`, a selector `s_i` with `s_i → (b_i ≡ b_i*)`. A candidate
//! base `S` can realize the patch iff the formula is UNSAT under the unit
//! assumptions `{s_i : i ∈ S}`. The query also keeps the table of
//! candidate values at every on-set and off-set point its enumeration
//! models returned (see [`crate::enumerate_cex`]). Once a base is chosen,
//! [`resynthesize`] interpolates the patch function over fresh shared
//! variables `y_i ≡ b_i(X)`.

use std::collections::HashMap;

use eco_aig::{Lit as ALit, Var as AVar};
use eco_sat::{
    encode_cone, ClauseLabel, ClauseSink, ItpOutcome, ItpSolver, LabeledSink, Lit as SLit, Solver,
};

use crate::cexenum::ModelTable;
use crate::telemetry::SelectTotals;
use crate::Workspace;

/// The incremental Eq.-12 feasibility oracle for one patch specification.
pub struct RebaseQuery {
    solver: Solver,
    /// Selector literal per pool entry.
    sel: Vec<SLit>,
    /// Candidate indices (into `workspace.cands`) forming the pool.
    pool: Vec<usize>,
    /// On-copy SAT literal of each pool candidate.
    b1: Vec<SLit>,
    /// Off-copy SAT literal of each pool candidate.
    b2: Vec<SLit>,
    /// Candidate values at the on-set and off-set points of every
    /// enumeration model so far.
    pub(crate) table: ModelTable,
    /// Enumeration totals so far, for telemetry aggregation.
    pub(crate) counts: SelectTotals,
}

impl RebaseQuery {
    /// Builds the query for a specification `(on, off)` — manager literals
    /// over `X` only — and a candidate pool.
    ///
    /// Both copies encode the candidate cones against the *same* copy-local
    /// input variables as the specification cone, so satisfiability don't
    /// cares of the existing logic are respected for free.
    ///
    /// # Panics
    ///
    /// Panics if `on`/`off` or a pool candidate depends on a target
    /// pseudo-input (substitute patches first).
    pub fn new(ws: &Workspace, on: ALit, off: ALit, pool: Vec<usize>) -> Self {
        // The query answers hundreds of small incremental model-finding
        // solves (base probes and counterexample enumeration), so it is
        // the prime beneficiary of aggressive preprocessing: variable
        // elimination collapses the redundant Tseitin copies before the
        // first solve.
        Self::on_solver(Solver::eliminating(), ws, on, off, pool)
    }

    /// [`RebaseQuery::new`] on the given empty solver. Every variable
    /// read or assumed later — selectors, both candidate rails, and the
    /// enumeration control vars (frozen at creation in `cexenum`) — is
    /// frozen, so an eliminating solver answers as a plain one does.
    pub(crate) fn on_solver(
        mut solver: Solver,
        ws: &Workspace,
        on: ALit,
        off: ALit,
        pool: Vec<usize>,
    ) -> Self {
        let cand_lits: Vec<ALit> = pool.iter().map(|&i| ws.cands[i].lit).collect();
        let mut roots1 = vec![on];
        roots1.extend(&cand_lits);
        let mut roots2 = vec![off];
        roots2.extend(&cand_lits);

        let mut map1: HashMap<AVar, SLit> = HashMap::new();
        let enc1 = encode_cone(&ws.mgr, &roots1, &mut map1, &mut solver);
        let mut map2: HashMap<AVar, SLit> = HashMap::new();
        let enc2 = encode_cone(&ws.mgr, &roots2, &mut map2, &mut solver);
        for tv in &ws.target_vars {
            assert!(
                !map1.contains_key(tv) && !map2.contains_key(tv),
                "rebase specification must be target-free"
            );
        }
        solver.add_clause(&[enc1[0]]);
        solver.add_clause(&[enc2[0]]);

        let b1: Vec<SLit> = enc1[1..].to_vec();
        let b2: Vec<SLit> = enc2[1..].to_vec();
        let mut sel = Vec::with_capacity(pool.len());
        for i in 0..pool.len() {
            let s = solver.new_var().pos();
            solver.add_clause(&[!s, !b1[i], b2[i]]);
            solver.add_clause(&[!s, b1[i], !b2[i]]);
            sel.push(s);
        }
        for l in b1.iter().chain(b2.iter()).chain(sel.iter()) {
            solver.freeze_var(l.var());
        }
        RebaseQuery {
            solver,
            sel,
            table: ModelTable::new(pool.len()),
            pool,
            b1,
            b2,
            counts: SelectTotals::default(),
        }
    }

    /// The candidate pool (indices into `workspace.cands`).
    pub fn pool(&self) -> &[usize] {
        &self.pool
    }

    /// The incremental solver's statistics so far (cumulative over every
    /// [`RebaseQuery::feasible`] call), for telemetry aggregation.
    pub fn stats(&self) -> eco_sat::SolverStats {
        self.solver.stats()
    }

    /// Enrolls the query's solver in a governor control block: a fired
    /// deadline or cancellation flag makes every later feasibility or
    /// enumeration call answer `None` (budget exhausted).
    pub fn set_ctl(&mut self, ctl: &eco_sat::SolveCtl) {
        self.solver.set_ctl(ctl);
    }

    /// Tests whether selecting the pool entries `base` (indices into the
    /// *pool*) suffices to realize the patch. `Some(true)` = feasible;
    /// `None` = budget exhausted.
    pub fn feasible(&mut self, base: &[usize], conflict_budget: u64) -> Option<bool> {
        let assumptions: Vec<SLit> = base.iter().map(|&i| self.sel[i]).collect();
        self.solve(&assumptions, conflict_budget).map(|sat| !sat)
    }

    /// Every feasibility and enumeration solve of the query: `Some(sat)`,
    /// or `None` once `conflict_budget` or the control block stops it.
    pub(crate) fn solve(&mut self, assumptions: &[SLit], conflict_budget: u64) -> Option<bool> {
        #[cfg(test)]
        let before = self.solver.stats().conflicts;
        let solved = self.solver.solve_limited(assumptions, conflict_budget);
        #[cfg(test)]
        tests::note_solve(conflict_budget, self.solver.stats().conflicts - before);
        solved
    }

    pub(crate) fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    pub(crate) fn sel_lits(&self) -> &[SLit] {
        &self.sel
    }

    pub(crate) fn b1_lits(&self) -> &[SLit] {
        &self.b1
    }

    /// Records the last model's on-row (the `b1` values) and off-row (the
    /// `b2` values) in the table, and returns their indices.
    pub(crate) fn record_model(&mut self) -> usize {
        let value = |l: &SLit| self.solver.model_value(*l) == eco_sat::LBool::True;
        let on: Vec<bool> = self.b1.iter().map(value).collect();
        let off: Vec<bool> = self.b2.iter().map(value).collect();
        self.table.push(&on, &off)
    }
}

/// Synthesizes a patch function over the chosen base by interpolation
/// (the reference \[12\]-style dependency network): returns the patch as a
/// literal over the base candidates' driving signals, or `None` if the
/// base is infeasible, the budget runs out, or `ctl` fires. The
/// interpolation solver is enrolled in `ctl`.
pub fn resynthesize(
    ws: &mut Workspace,
    on: ALit,
    off: ALit,
    base: &[usize],
    conflict_budget: u64,
    ctl: &eco_sat::SolveCtl,
    tel: &crate::Telemetry,
) -> Option<ALit> {
    let mut q = ItpSolver::new();
    q.set_ctl(ctl.clone());
    let ys: Vec<SLit> = base.iter().map(|_| q.new_var().pos()).collect();
    let cand_lits: Vec<ALit> = base.iter().map(|&i| ws.cands[i].lit).collect();

    {
        let mut map: HashMap<AVar, SLit> = HashMap::new();
        let mut sink = LabeledSink::new(&mut q, ClauseLabel::A);
        let mut roots = vec![on];
        roots.extend(&cand_lits);
        let enc = encode_cone(&ws.mgr, &roots, &mut map, &mut sink);
        sink.sink_clause(&[enc[0]]);
        for (y, b) in ys.iter().zip(&enc[1..]) {
            sink.sink_clause(&[!*y, *b]);
            sink.sink_clause(&[*y, !*b]);
        }
    }
    {
        let mut map: HashMap<AVar, SLit> = HashMap::new();
        let mut sink = LabeledSink::new(&mut q, ClauseLabel::B);
        let mut roots = vec![off];
        roots.extend(&cand_lits);
        let enc = encode_cone(&ws.mgr, &roots, &mut map, &mut sink);
        sink.sink_clause(&[enc[0]]);
        for (y, b) in ys.iter().zip(&enc[1..]) {
            sink.sink_clause(&[!*y, *b]);
            sink.sink_clause(&[*y, !*b]);
        }
    }

    let solved = q.solve_limited(conflict_budget);
    tel.record_solver(&q.last_stats());
    let itp = match solved? {
        ItpOutcome::Unsat(itp) => itp,
        ItpOutcome::Sat(_) => return None,
    };
    let mut input_map: HashMap<AVar, ALit> = HashMap::new();
    for (i, &sv) in itp.inputs.iter().enumerate() {
        let pos = ys
            .iter()
            .position(|y| y.var() == sv)
            .expect("interpolant inputs are y variables");
        input_map.insert(itp.aig.input_var(i), cand_lits[pos]);
    }
    Some(
        ws.mgr
            .import(&itp.aig, &[itp.root], &input_map)
            .expect("interpolant inputs are fully mapped")[0],
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::carediff::on_off_sets;
    use crate::EcoInstance;
    use eco_netlist::{parse_verilog, WeightTable};
    use std::cell::Cell;

    thread_local! {
        /// The largest conflict budget a [`RebaseQuery::solve`] on this
        /// thread ran under, and the most conflicts one spent, since the
        /// last [`take_max_budget`].
        static MAX_BUDGET: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn note_solve(conflict_budget: u64, spent: u64) {
        MAX_BUDGET.with(|m| {
            let (budget, most) = m.get();
            m.set((budget.max(conflict_budget), most.max(spent)));
        });
    }

    /// Returns and clears this thread's largest rebase solve budget and
    /// the most conflicts one solve spent.
    pub(crate) fn take_max_budget() -> (u64, u64) {
        MAX_BUDGET.with(|m| m.replace((0, 0)))
    }

    /// F: y = t ^ c with an existing net `w = a & b`; G: y = (a&b) ^ c.
    /// The spec for t is on = a&b. Base {w} must be feasible; base {a}
    /// alone must not; base {a, b} must be.
    fn fixture() -> (Workspace, ALit, ALit, Vec<usize>) {
        let faulty = parse_verilog(
            "module f (a, b, c, t, y, u); input a, b, c, t; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, t, c); buf g2 (u, w); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y, u); input a, b, c; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, w, c); buf g2 (u, w); endmodule",
        )
        .expect("golden");
        let inst = EcoInstance::from_netlists(
            "rb",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let mut ws = Workspace::new(&inst);
        let t = ws.target_vars[0];
        let f_outs = ws.f_outs.clone();
        let g_outs = ws.g_outs.clone();
        let onoff = on_off_sets(&mut ws.mgr, &f_outs, &g_outs, t);
        let pool: Vec<usize> = (0..ws.cands.len()).collect();
        (ws, onoff.on, onoff.off, pool)
    }

    fn pool_idx(ws: &Workspace, pool: &[usize], name: &str) -> usize {
        pool.iter()
            .position(|&i| ws.cands[i].name == name)
            .unwrap_or_else(|| panic!("{name} in pool"))
    }

    #[test]
    fn feasibility_distinguishes_bases() {
        let (ws, on, off, pool) = fixture();
        let w = pool_idx(&ws, &pool, "w");
        let a = pool_idx(&ws, &pool, "a");
        let b = pool_idx(&ws, &pool, "b");
        let mut q = RebaseQuery::new(&ws, on, off, pool);
        assert_eq!(q.feasible(&[w], 1 << 20), Some(true));
        assert_eq!(q.feasible(&[a], 1 << 20), Some(false));
        assert_eq!(q.feasible(&[a, b], 1 << 20), Some(true));
        // Empty base cannot implement a non-constant patch.
        assert_eq!(q.feasible(&[], 1 << 20), Some(false));
    }

    #[test]
    fn resynthesize_builds_correct_patch() {
        let (mut ws, on, off, pool) = fixture();
        let w = pool_idx(&ws, &pool, "w");
        let tel = crate::Telemetry::new();
        let patch = resynthesize(
            &mut ws,
            on,
            off,
            &[pool[w]],
            1 << 20,
            &eco_sat::SolveCtl::unlimited(),
            &tel,
        )
        .expect("feasible");
        assert!(tel.snapshot().sat.solvers >= 1, "resynthesis recorded");
        // patch must equal w = a & b on all X.
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        mgr.add_output("p", patch);
        for bits in 0u32..16 {
            let vals: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(mgr.eval(&vals)[0], vals[0] && vals[1], "at {vals:?}");
        }
    }

    #[test]
    fn resynthesize_infeasible_base_returns_none() {
        let (mut ws, on, off, pool) = fixture();
        let a = pool_idx(&ws, &pool, "a");
        let tel = crate::Telemetry::new();
        assert_eq!(
            resynthesize(
                &mut ws,
                on,
                off,
                &[pool[a]],
                1 << 20,
                &eco_sat::SolveCtl::unlimited(),
                &tel
            ),
            None
        );
    }
}
