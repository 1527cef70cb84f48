//! Rectifiability checking (§4.1, Eq. 2): `∀X ∃T. F(X, T) = G(X)`.
//!
//! The paper resolves multi-fix completeness through this 2QBF condition
//! (citing the Skolem-certificate view of [20]); here it is decided by the
//! standard counterexample-guided abstraction refinement for `∀∃`
//! formulas: an A-solver proposes universal assignments `x*` that defeat
//! every *strategy* `t*` seen so far, and a B-solver checks whether some
//! `T` completes the proposed `x*`. Each B-witness `t*` refines the
//! A-solver with a fresh constraint `¬R(X, t*)`; UNSAT on the A side
//! proves rectifiability (finitely many strategies cover all of `X`).

use std::collections::HashMap;

use eco_aig::{Lit as ALit, Var as AVar};
use eco_sat::{encode_cone, LBool, Lit as SLit, SolveCtl, Solver};

use crate::telemetry::Telemetry;
use crate::Workspace;

/// Outcome of the Eq.-2 check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rectifiability {
    /// `∀X ∃T. F = G` holds: a patch over the targets exists.
    Rectifiable,
    /// A universal counterexample: for this `X` assignment (by input
    /// name), no target assignment makes all outputs match.
    Counterexample(Vec<(String, bool)>),
    /// A budget ran out before the CEGAR loop converged.
    Unknown,
}

impl Rectifiability {
    /// `true` for [`Rectifiability::Rectifiable`].
    pub fn is_rectifiable(&self) -> bool {
        *self == Rectifiability::Rectifiable
    }
}

/// Decides Eq. (2) for the workspace's circuits and targets.
///
/// `max_iterations` bounds the CEGAR refinements (each adds one cofactored
/// miter cone to the A-solver); `conflict_budget` bounds each SAT call.
/// Every solver is enrolled in `ctl` (a fired deadline or cancellation
/// flag yields [`Rectifiability::Unknown`]) and recorded in `tel`. Builds
/// scratch nodes in `ws.mgr`.
pub fn check_rectifiable(
    ws: &mut Workspace,
    max_iterations: usize,
    conflict_budget: u64,
    ctl: &SolveCtl,
    tel: &Telemetry,
) -> Rectifiability {
    // R(X, T) = ∧_j (f_j ≡ g_j), built once.
    let eqs: Vec<ALit> = ws
        .f_outs
        .iter()
        .zip(&ws.g_outs)
        .map(|(&f, &g)| ws.mgr.xnor(f, g))
        .collect();
    let r = ws.mgr.and_many(&eqs);

    // A-solver over shared X variables; constraints added per strategy.
    let mut a_solver = Solver::new();
    a_solver.set_ctl(ctl);
    let x_sat: HashMap<AVar, SLit> =
        ws.x.iter()
            .map(|(_, l)| (l.var(), a_solver.new_var().pos()))
            .collect();

    let verdict = 'cegar: {
        for _ in 0..max_iterations.max(1) {
            // Propose x*: any X defeating all strategies seen so far.
            let x_star: Vec<(AVar, bool)> = match a_solver.solve_limited(&[], conflict_budget) {
                None => break 'cegar Rectifiability::Unknown,
                Some(false) => break 'cegar Rectifiability::Rectifiable,
                Some(true) => {
                    ws.x.iter()
                        .map(|(_, l)| {
                            (
                                l.var(),
                                a_solver.model_value(x_sat[&l.var()]) == LBool::True,
                            )
                        })
                        .collect()
                }
            };

            // B-check: ∃T. R(x*, T)?
            let r_fixed = {
                let map: HashMap<AVar, ALit> = x_star
                    .iter()
                    .map(|&(v, b)| (v, if b { ALit::TRUE } else { ALit::FALSE }))
                    .collect();
                ws.mgr.substitute(&[r], &map)[0]
            };
            let mut b_solver = Solver::new();
            b_solver.set_ctl(ctl);
            let mut b_map: HashMap<AVar, SLit> = HashMap::new();
            let roots = encode_cone(&ws.mgr, &[r_fixed], &mut b_map, &mut b_solver);
            b_solver.add_clause(&[roots[0]]);
            let solved = b_solver.solve_limited(&[], conflict_budget);
            tel.record_solver(&b_solver.stats());
            match solved {
                None => break 'cegar Rectifiability::Unknown,
                Some(false) => {
                    // No strategy completes x*: genuine counterexample.
                    let mut cex: Vec<(String, bool)> =
                        ws.x.iter()
                            .zip(&x_star)
                            .map(|((name, _), &(_, b))| (name.clone(), b))
                            .collect();
                    cex.sort();
                    break 'cegar Rectifiability::Counterexample(cex);
                }
                Some(true) => {
                    // Strategy t*: refine A with ¬R(X, t*).
                    let t_star: HashMap<AVar, ALit> = ws
                        .target_vars
                        .iter()
                        .map(|&tv| {
                            let val = b_map
                                .get(&tv)
                                .map(|&sl| b_solver.model_value(sl) == LBool::True)
                                .unwrap_or(false);
                            (tv, if val { ALit::TRUE } else { ALit::FALSE })
                        })
                        .collect();
                    let r_strategy = ws.mgr.substitute(&[r], &t_star)[0];
                    let mut seed = x_sat.clone();
                    let enc = encode_cone(&ws.mgr, &[r_strategy], &mut seed, &mut a_solver);
                    a_solver.add_clause(&[!enc[0]]);
                }
            }
        }
        Rectifiability::Unknown
    };
    tel.record_solver(&a_solver.stats());
    verdict
}

/// Re-validates a claimed Eq.-2 universal counterexample with a single
/// B-check: substitutes the named `X` assignment into `R(X, T)` and asks a
/// fresh solver whether *some* target strategy still completes it.
///
/// Returns `Some(true)` when the counterexample is confirmed genuine (no
/// strategy exists), `Some(false)` when it is refuted (a strategy exists,
/// or the assignment is malformed — wrong names or incomplete), and `None`
/// when the conflict budget ran out or `ctl` fired. It audits a CEGAR
/// counterexample independently of the loop that found it. The solver is
/// enrolled in `ctl` and recorded in `tel`.
///
/// Builds scratch nodes in `ws.mgr`, so callers pass a throwaway
/// workspace.
pub fn check_rect_cex(
    ws: &mut Workspace,
    cex: &[(String, bool)],
    conflict_budget: u64,
    ctl: &SolveCtl,
    tel: &Telemetry,
) -> Option<bool> {
    let by_name: HashMap<&str, bool> = cex.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    let map: HashMap<AVar, ALit> =
        ws.x.iter()
            .filter_map(|(name, l)| {
                by_name
                    .get(name.as_str())
                    .map(|&b| (l.var(), if b { ALit::TRUE } else { ALit::FALSE }))
            })
            .collect();
    if map.len() != ws.x.len() || by_name.len() != ws.x.len() {
        return Some(false);
    }
    let eqs: Vec<ALit> = ws
        .f_outs
        .iter()
        .zip(&ws.g_outs)
        .map(|(&f, &g)| ws.mgr.xnor(f, g))
        .collect();
    let r = ws.mgr.and_many(&eqs);
    let r_fixed = ws.mgr.substitute(&[r], &map)[0];
    let mut b_solver = Solver::new();
    b_solver.set_ctl(ctl);
    let mut b_map: HashMap<AVar, SLit> = HashMap::new();
    let roots = encode_cone(&ws.mgr, &[r_fixed], &mut b_map, &mut b_solver);
    b_solver.add_clause(&[roots[0]]);
    let solved = b_solver.solve_limited(&[], conflict_budget);
    tel.record_solver(&b_solver.stats());
    solved.map(|sat| !sat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EcoInstance;
    use eco_netlist::{parse_verilog, WeightTable};

    fn ws_of(faulty: &str, golden: &str, targets: &[&str]) -> Workspace {
        let inst = EcoInstance::from_netlists(
            "rect",
            &parse_verilog(faulty).expect("faulty"),
            &parse_verilog(golden).expect("golden"),
            targets.iter().map(|s| s.to_string()).collect(),
            &WeightTable::new(1),
        )
        .expect("instance");
        Workspace::new(&inst)
    }

    fn rect(ws: &mut Workspace, max_iterations: usize) -> Rectifiability {
        check_rectifiable(
            ws,
            max_iterations,
            1 << 20,
            &SolveCtl::unlimited(),
            &Telemetry::new(),
        )
    }

    fn audit(ws: &mut Workspace, cex: &[(String, bool)]) -> Option<bool> {
        check_rect_cex(ws, cex, 1 << 20, &SolveCtl::unlimited(), &Telemetry::new())
    }

    fn fired_ctl() -> SolveCtl {
        SolveCtl {
            deadline: None,
            cancel: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
                true,
            ))),
        }
    }

    #[test]
    fn cut_instances_are_rectifiable() {
        let mut ws = ws_of(
            "module f (a, b, c, t, y); input a, b, c, t; output y; \
             xor g1 (y, t, c); endmodule",
            "module g (a, b, c, y); input a, b, c; output y; \
             wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
            &["t"],
        );
        assert!(rect(&mut ws, 64).is_rectifiable());
    }

    #[test]
    fn unpatchable_output_gives_counterexample() {
        // z = a in F but !a in G; t cannot reach z.
        let mut ws = ws_of(
            "module f (a, t, y, z); input a, t; output y, z; \
             buf g1 (y, t); buf g2 (z, a); endmodule",
            "module g (a, y, z); input a; output y, z; \
             buf g1 (y, a); not g2 (z, a); endmodule",
            &["t"],
        );
        match rect(&mut ws, 64) {
            Rectifiability::Counterexample(cex) => {
                assert_eq!(cex.len(), 1);
                assert_eq!(cex[0].0, "a");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_outputs_unrectifiable() {
        // y1 = t must be a, y2 = !t must be a: impossible for any X.
        let mut ws = ws_of(
            "module f (a, t, y1, y2); input a, t; output y1, y2; \
             buf g1 (y1, t); not g2 (y2, t); endmodule",
            "module g (a, y1, y2); input a; output y1, y2; \
             buf g1 (y1, a); buf g2 (y2, a); endmodule",
            &["t"],
        );
        assert!(matches!(
            rect(&mut ws, 64),
            Rectifiability::Counterexample(_)
        ));
    }

    #[test]
    fn multi_target_rectifiable() {
        let mut ws = ws_of(
            "module f (a, b, t1, t2, y); input a, b, t1, t2; output y; \
             or g1 (y, t1, t2); endmodule",
            "module g (a, b, y); input a, b; output y; \
             xor g1 (y, a, b); endmodule",
            &["t1", "t2"],
        );
        assert!(rect(&mut ws, 128).is_rectifiable());
    }

    #[test]
    fn cex_audit_confirms_and_refutes() {
        // Genuine counterexample from the unpatchable-output instance.
        let mut ws = ws_of(
            "module f (a, t, y, z); input a, t; output y, z; \
             buf g1 (y, t); buf g2 (z, a); endmodule",
            "module g (a, y, z); input a; output y, z; \
             buf g1 (y, a); not g2 (z, a); endmodule",
            &["t"],
        );
        let cex = match rect(&mut ws, 64) {
            Rectifiability::Counterexample(cex) => cex,
            other => panic!("expected counterexample, got {other:?}"),
        };
        assert_eq!(audit(&mut ws, &cex), Some(true));

        // The same assignment against a rectifiable instance is refuted.
        let mut ws2 = ws_of(
            "module f (a, t, y); input a, t; output y; buf g1 (y, t); endmodule",
            "module g (a, y); input a; output y; buf g1 (y, a); endmodule",
            &["t"],
        );
        assert_eq!(audit(&mut ws2, &cex), Some(false));

        // Malformed (wrong names / incomplete) assignments are refuted,
        // never trusted.
        assert_eq!(audit(&mut ws, &[]), Some(false));
        assert_eq!(audit(&mut ws, &[("nope".into(), true)]), Some(false));
    }

    #[test]
    fn iteration_budget_reports_unknown() {
        let mut ws = ws_of(
            "module f (a, b, t, y); input a, b, t; output y; \
             and g1 (y, t, a); endmodule",
            "module g (a, b, y); input a, b; output y; \
             and g1 (y, a, b); endmodule",
            &["t"],
        );
        // A tiny iteration budget may fail to converge but must never
        // produce a wrong counterexample on a rectifiable instance.
        for budget in [0usize, 1, 2] {
            let got = rect(&mut ws, budget);
            assert!(
                !matches!(got, Rectifiability::Counterexample(_)),
                "rectifiable instance produced a counterexample at budget {budget}: {got:?}"
            );
        }
        // A generous budget decides it.
        assert!(rect(&mut ws, 64).is_rectifiable());
    }

    #[test]
    fn fired_ctl_reports_unknown() {
        // Rectifiable, but the A-solver's first proposal already needs a
        // search, which a fired flag stops.
        let mut ws = ws_of(
            "module f (a, b, c, t, y); input a, b, c, t; output y; \
             xor g1 (y, t, c); endmodule",
            "module g (a, b, c, y); input a, b, c; output y; \
             wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
            &["t"],
        );
        let tel = Telemetry::new();
        let got = check_rectifiable(&mut ws, 64, 1 << 20, &fired_ctl(), &tel);
        assert_eq!(got, Rectifiability::Unknown);
        assert_eq!(tel.snapshot().sat.solvers, 1, "the A-solver is recorded");
    }

    #[test]
    fn fired_ctl_leaves_the_audit_undecided() {
        // Without the flag this audit refutes the assignment (`Some(false)`).
        let mut ws = ws_of(
            "module f (a, t, y); input a, t; output y; buf g1 (y, t); endmodule",
            "module g (a, y); input a; output y; buf g1 (y, a); endmodule",
            &["t"],
        );
        let cex = [("a".to_string(), true)];
        let tel = Telemetry::new();
        assert_eq!(
            check_rect_cex(&mut ws, &cex, 1 << 20, &fired_ctl(), &tel),
            None
        );
        assert_eq!(tel.snapshot().sat.solvers, 1, "the B-solver is recorded");
        assert_eq!(audit(&mut ws, &cex), Some(false));
    }
}
