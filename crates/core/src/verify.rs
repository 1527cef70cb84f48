//! SAT-based equivalence verification of the patched circuit.

use std::collections::HashMap;

use eco_aig::{Aig, Lit, Var};
use eco_sat::{encode_cone, LBool, SolveCtl, Solver, SolverStats};

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// All output pairs agree for every input assignment.
    Equivalent,
    /// A distinguishing input assignment, per free (non-target) input
    /// variable of the checked cones, as `(input name, value)`.
    Counterexample(Vec<(String, bool)>),
    /// The conflict budget ran out.
    Unknown,
}

/// Checks `⋁_j (a_j ⊕ b_j)` for unsatisfiability over the cone inputs.
///
/// Every input reached by the cones becomes a free SAT variable; a SAT
/// answer yields the input assignment as a counterexample. Builds miter
/// nodes in `mgr` (scratch growth is harmless — cones are shared).
///
/// The solver is enrolled in `ctl`: a fired deadline or cancellation flag
/// ends the check with [`VerifyOutcome::Unknown`] at the next Luby
/// restart. Also returns the solver's final statistics for telemetry, or
/// `None` when structural hashing decides the check before any solver is
/// built.
pub fn check_equivalence(
    mgr: &mut Aig,
    pairs: &[(Lit, Lit)],
    conflict_budget: u64,
    ctl: &SolveCtl,
) -> (VerifyOutcome, Option<SolverStats>) {
    let xors: Vec<Lit> = pairs.iter().map(|&(a, b)| mgr.xor(a, b)).collect();
    let miter = mgr.or_many(&xors);
    if miter == Lit::FALSE {
        return (VerifyOutcome::Equivalent, None);
    }
    let mut solver = Solver::new();
    solver.set_ctl(ctl);
    let mut map: HashMap<Var, eco_sat::Lit> = HashMap::new();
    let roots = encode_cone(mgr, &[miter], &mut map, &mut solver);
    solver.add_clause(&[roots[0]]);
    let outcome = match solver.solve_limited(&[], conflict_budget) {
        Some(false) => VerifyOutcome::Equivalent,
        None => VerifyOutcome::Unknown,
        Some(true) => {
            // Project the model onto the cone's primary inputs, by name.
            let mut cex = Vec::new();
            for (&v, &sl) in &map {
                if let Some(pos) = mgr.input_pos(v) {
                    let val = solver.model_value(sl) == LBool::True;
                    cex.push((mgr.input_name(pos).to_owned(), val));
                }
            }
            cex.sort();
            VerifyOutcome::Counterexample(cex)
        }
    };
    (outcome, Some(solver.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(mgr: &mut Aig, pairs: &[(Lit, Lit)], conflict_budget: u64) -> VerifyOutcome {
        check_equivalence(mgr, pairs, conflict_budget, &SolveCtl::unlimited()).0
    }

    #[test]
    fn equivalent_pairs_pass() {
        let mut mgr = Aig::new();
        let a = mgr.add_input("a");
        let b = mgr.add_input("b");
        let f = mgr.and(a, b);
        // Same function built differently: !( !a | !b )
        let t = mgr.or(!a, !b);
        let g = !t;
        assert!(matches!(
            check(&mut mgr, &[(f, g)], 1 << 20),
            VerifyOutcome::Equivalent
        ));
    }

    #[test]
    fn inequivalent_pairs_give_cex() {
        let mut mgr = Aig::new();
        let a = mgr.add_input("a");
        let b = mgr.add_input("b");
        let f = mgr.and(a, b);
        let g = mgr.or(a, b);
        match check(&mut mgr, &[(f, g)], 1 << 20) {
            VerifyOutcome::Counterexample(cex) => {
                // The cex must distinguish AND from OR: exactly one of a, b.
                let a_v = cex.iter().find(|(n, _)| n == "a").expect("a").1;
                let b_v = cex.iter().find(|(n, _)| n == "b").expect("b").1;
                assert_ne!(a_v, b_v, "cex {cex:?}");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn multiple_pairs_all_checked() {
        let mut mgr = Aig::new();
        let a = mgr.add_input("a");
        let b = mgr.add_input("b");
        let pairs = [(a, a), (b, b)];
        assert!(matches!(
            check(&mut mgr, &pairs, 1 << 20),
            VerifyOutcome::Equivalent
        ));
        let bad = [(a, a), (b, !b)];
        assert!(!matches!(
            check(&mut mgr, &bad, 1 << 20),
            VerifyOutcome::Equivalent
        ));
    }

    #[test]
    fn fired_ctl_reports_unknown() {
        let mut mgr = Aig::new();
        let a = mgr.add_input("a");
        let b = mgr.add_input("b");
        let c = mgr.add_input("c");
        // Equivalent but associated differently, so the miter does not
        // fold structurally and a SAT call is required.
        let ab = mgr.and(a, b);
        let f = mgr.and(ab, c);
        let bc = mgr.and(b, c);
        let g = mgr.and(a, bc);
        let ctl = SolveCtl {
            deadline: None,
            cancel: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
                true,
            ))),
        };
        let (outcome, _) = check_equivalence(&mut mgr, &[(f, g)], 1 << 20, &ctl);
        assert_eq!(outcome, VerifyOutcome::Unknown);
    }

    #[test]
    fn structurally_equal_short_circuits() {
        let mut mgr = Aig::new();
        let a = mgr.add_input("a");
        // No SAT call needed: xor folds to constant false.
        let (outcome, stats) = check_equivalence(&mut mgr, &[(a, a)], 0, &SolveCtl::unlimited());
        assert_eq!(outcome, VerifyOutcome::Equivalent);
        assert!(stats.is_none(), "no solver may be built");
    }
}
