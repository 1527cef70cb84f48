//! Property tests for the SAT solver: assumption semantics and unsat-core
//! soundness against brute force. Each property checks `CASES` random
//! CNFs drawn from one fixed-seed [`SplitMix64`]; a failing case names its
//! index and its inputs. Agreement with brute force and the interpolant
//! contract are checked by seeded unit tests in `src/solver.rs` and
//! `src/interpolate.rs`, the inprocessing passes by those in
//! `src/solver.rs`, which can force an aggressive schedule.

use eco_aig::SplitMix64;
use eco_sat::{Lit, Solver, Var};

/// CNFs checked per property.
const CASES: usize = 200;

/// Seed of every property's generator.
const SEED: u64 = 0x5eed_05a7;

/// Variables of every CNF.
const VARS: u32 = 7;

type Cnf = Vec<Vec<i32>>;

/// 1 to 23 clauses of 1 to 3 DIMACS literals over [`VARS`] variables.
fn draw_cnf(rng: &mut SplitMix64) -> Cnf {
    (0..rng.range_inclusive(1, 23))
        .map(|_| {
            (0..rng.range_inclusive(1, 3))
                .map(|_| {
                    let v = rng.range_inclusive(1, u64::from(VARS)) as i32;
                    if rng.chance(0.5) {
                        -v
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// A solver over [`VARS`] variables holding `cnf`.
fn load(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    for _ in 0..VARS {
        s.new_var();
    }
    for c in cnf {
        let lits: Vec<Lit> = c.iter().map(|&d| Lit::from_dimacs(d)).collect();
        s.add_clause(&lits);
    }
    s
}

/// Whether `cnf` has a model that gives each `(var, value)` of `fixed`
/// its value.
fn brute_force(cnf: &Cnf, fixed: &[(u32, bool)]) -> bool {
    (0u32..1 << VARS).any(|bits| {
        fixed.iter().all(|&(v, val)| (bits >> v & 1 == 1) == val)
            && cnf.iter().all(|c| {
                c.iter().any(|&d| {
                    let v = d.unsigned_abs() - 1;
                    (bits >> v & 1 == 1) == (d > 0)
                })
            })
    })
}

/// Assumptions behave exactly like temporary unit clauses, and the
/// solver remains reusable afterwards.
#[test]
fn assumptions_are_temporary_units() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let cnf = draw_cnf(&mut rng);
        let fixed: Vec<(u32, bool)> = (0..2)
            .map(|_| (rng.index(VARS as usize) as u32, rng.chance(0.5)))
            .collect();
        let ctx = format!("case {case}: {cnf:?} assuming {fixed:?}");
        let mut s = load(&cnf);
        let assumptions: Vec<Lit> = fixed
            .iter()
            .map(|&(v, val)| Var::new(v).lit(!val))
            .collect();
        let got = s.solve(&assumptions).expect("unbounded");
        if fixed[0].0 == fixed[1].0 && fixed[0].1 != fixed[1].1 {
            assert!(!got, "{ctx}: contradictory assumptions");
        } else {
            assert_eq!(got, brute_force(&cnf, &fixed), "{ctx}");
        }
        // Reusable: plain solve matches brute force afterwards.
        let plain = s.solve(&[]).expect("unbounded");
        assert_eq!(plain, brute_force(&cnf, &[]), "{ctx}: plain solve after");
    }
}

/// Unsat cores are sound: re-solving under just the core is UNSAT.
#[test]
fn unsat_cores_are_sound() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let cnf = draw_cnf(&mut rng);
        let assumptions: Vec<Lit> = (0..rng.range_inclusive(1, 5))
            .map(|_| Var::new(rng.index(VARS as usize) as u32).lit(rng.chance(0.5)))
            .collect();
        let ctx = format!("case {case}: {cnf:?} assuming {assumptions:?}");
        let mut s = load(&cnf);
        if s.solve(&assumptions).expect("unbounded") {
            continue;
        }
        let core: Vec<Lit> = s.unsat_core().to_vec();
        assert!(
            core.iter().all(|l| assumptions.contains(l)),
            "{ctx}: core {core:?} ⊄ assumptions"
        );
        assert_eq!(s.solve(&core), Some(false), "{ctx}: core must stay unsat");
    }
}
