// Needs the external `proptest` crate; compiled out by default so the
// workspace builds offline. Enable with `--features proptest` (see Cargo.toml).
#![cfg(feature = "proptest")]

//! Property-based tests for the SAT solver: agreement with brute force,
//! assumption semantics, unsat-core soundness, and the full interpolant
//! contract. The inprocessing passes are checked by seeded unit tests in
//! `src/solver.rs`, which can force an aggressive schedule.

use eco_sat::{ClauseLabel, ItpOutcome, ItpSolver, LBool, Lit, Solver, Var};
use proptest::prelude::*;

type Cnf = Vec<Vec<i32>>;

fn cnf_strategy(max_var: i32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let lit = (1..=max_var).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    prop::collection::vec(prop::collection::vec(lit, 1..4), 1..max_clauses)
}

fn to_lits(clause: &[i32]) -> Vec<Lit> {
    clause.iter().map(|&d| Lit::from_dimacs(d)).collect()
}

fn brute_force(n: usize, cnf: &Cnf, fixed: &[(usize, bool)]) -> bool {
    'assign: for bits in 0u32..1 << n {
        for &(v, val) in fixed {
            if (bits >> v & 1 == 1) != val {
                continue 'assign;
            }
        }
        for c in cnf {
            let sat = c.iter().any(|&d| {
                let v = d.unsigned_abs() as usize - 1;
                (bits >> v & 1 == 1) == (d > 0)
            });
            if !sat {
                continue 'assign;
            }
        }
        return true;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// solve() agrees with brute force; SAT models satisfy every clause.
    #[test]
    fn agrees_with_brute_force(cnf in cnf_strategy(8, 30)) {
        let mut s = Solver::new();
        for _ in 0..8 {
            s.new_var();
        }
        for c in &cnf {
            s.add_clause(&to_lits(c));
        }
        let got = s.solve(&[]).expect("unbounded");
        prop_assert_eq!(got, brute_force(8, &cnf, &[]));
        if got {
            for c in &cnf {
                prop_assert!(
                    to_lits(c).iter().any(|&l| s.model_value(l) == LBool::True),
                    "model violates {:?}", c
                );
            }
        }
    }

    /// Assumptions behave exactly like temporary unit clauses, and the
    /// solver remains reusable afterwards.
    #[test]
    fn assumptions_are_temporary_units(
        cnf in cnf_strategy(7, 24),
        a1 in 0..7u32,
        s1 in any::<bool>(),
        a2 in 0..7u32,
        s2 in any::<bool>(),
    ) {
        let mut s = Solver::new();
        for _ in 0..7 {
            s.new_var();
        }
        for c in &cnf {
            s.add_clause(&to_lits(c));
        }
        let assumptions = vec![Var::new(a1).lit(!s1), Var::new(a2).lit(!s2)];
        let got = s.solve(&assumptions).expect("unbounded");
        let mut fixed = vec![(a1 as usize, s1), (a2 as usize, s2)];
        if a1 == a2 && s1 != s2 {
            prop_assert!(!got, "contradictory assumptions");
        } else {
            fixed.dedup();
            prop_assert_eq!(got, brute_force(7, &cnf, &fixed));
        }
        // Reusable: plain solve matches brute force afterwards.
        let plain = s.solve(&[]).expect("unbounded");
        prop_assert_eq!(plain, brute_force(7, &cnf, &[]));
    }

    /// Unsat cores are sound: re-solving under just the core is UNSAT.
    #[test]
    fn unsat_cores_are_sound(cnf in cnf_strategy(7, 24), picks in prop::collection::vec((0..7u32, any::<bool>()), 1..6)) {
        let mut s = Solver::new();
        for _ in 0..7 {
            s.new_var();
        }
        for c in &cnf {
            s.add_clause(&to_lits(c));
        }
        let assumptions: Vec<Lit> = picks.iter().map(|&(v, neg)| Var::new(v).lit(neg)).collect();
        if s.solve(&assumptions).expect("unbounded") {
            return Ok(());
        }
        let core: Vec<Lit> = s.unsat_core().to_vec();
        prop_assert!(core.iter().all(|l| assumptions.contains(l)), "core ⊆ assumptions");
        prop_assert_eq!(s.solve(&core), Some(false), "core must stay unsat");
    }

    /// Full interpolant contract on random labeled CNFs: A → I, I ∧ B
    /// unsat, vars(I) ⊆ shared.
    #[test]
    fn interpolants_satisfy_craig_contract(
        cnf in cnf_strategy(7, 28),
        labels in prop::collection::vec(any::<bool>(), 28),
    ) {
        let mut q = ItpSolver::new();
        for _ in 0..7 {
            q.new_var();
        }
        let labeled: Vec<(Vec<Lit>, ClauseLabel)> = cnf
            .iter()
            .zip(labels.iter().cycle())
            .map(|(c, &a)| {
                (to_lits(c), if a { ClauseLabel::A } else { ClauseLabel::B })
            })
            .collect();
        for (lits, label) in &labeled {
            q.add_clause(lits, *label);
        }
        let itp = match q.solve_limited(u64::MAX).expect("unbounded") {
            ItpOutcome::Sat(_) => return Ok(()),
            ItpOutcome::Unsat(i) => i,
        };
        for bits in 0u32..128 {
            let assignment: Vec<bool> = (0..7).map(|i| bits >> i & 1 == 1).collect();
            let holds = |label: ClauseLabel| {
                labeled
                    .iter()
                    .filter(|(_, l)| *l == label)
                    .all(|(c, _)| {
                        c.iter().any(|l| {
                            assignment[l.var().index() as usize] != l.is_negated()
                        })
                    })
            };
            let i_val = itp.eval(&assignment);
            if holds(ClauseLabel::A) {
                prop_assert!(i_val, "A → I violated at {:?}", assignment);
            }
            if holds(ClauseLabel::B) {
                prop_assert!(!i_val, "I ∧ B satisfiable at {:?}", assignment);
            }
        }
    }
}
