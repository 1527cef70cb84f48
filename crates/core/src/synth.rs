//! `SynthesizePatch` (§4.2/§4.3): realize a patch function from its on/off
//! sets, by interpolation or by taking the on-set / negated off-set.

use std::collections::HashMap;

use eco_aig::{Lit, Var};
use eco_sat::{ClauseLabel, ItpOutcome, ItpSolver, LabeledSink, Lit as SLit, SolveCtl};

use crate::carediff::OnOff;
use crate::govern::ConflictMeter;
use crate::localize::Cut;
use crate::Workspace;

/// How the initial patch function is realized from the on/off pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InitialPatchKind {
    /// Take the on-set circuit directly (the paper's choice, §4.3
    /// option 2 — cheap and always applicable).
    #[default]
    OnSet,
    /// Take the negated off-set circuit.
    NegOffSet,
    /// Try Craig interpolation between on and off (smaller patches when it
    /// succeeds); falls back to the on-set when `on ∧ off` is satisfiable
    /// (the multi-output conflict of §4.3) or the budget is exhausted.
    Interpolant,
}

/// Result of one `SynthesizePatch` call.
#[derive(Clone, Copy, Debug)]
pub struct SynthOutcome {
    /// The patch function `p'_k` as a manager literal (over cut signals and
    /// the remaining target variables).
    pub lit: Lit,
    /// `true` if the result came from a successful interpolation.
    pub interpolated: bool,
    /// `true` if interpolation was requested but failed (satisfiable
    /// overlap or budget), triggering the on-set fallback.
    pub fallback: bool,
    /// `true` if the budget-escalation ladder took its second (full
    /// remaining allowance) interpolation attempt.
    pub escalated: bool,
}

/// Fewest conflicts worth spending on the ladder's cheap first tier; below
/// this the attempt is pure overhead and the ladder escalates directly.
const MIN_CHEAP_TIER: u64 = 64;

/// Synthesizes `p'_k` from its on/off sets over the cut `C_d` and the
/// remaining targets `T_k` (Theorem 2).
///
/// For [`InitialPatchKind::Interpolant`], the A-side encodes the on-set
/// cone and the B-side the off-set cone, cut at `C_d ∪ T_k`; the shared
/// variables are exactly the cut signals and remaining targets, so the
/// interpolant — imported back into the manager — is a valid patch
/// whenever `on ∧ off` is unsatisfiable.
///
/// Interpolation attempts charge the cluster's [`ConflictMeter`] and
/// enroll in `ctl`, and — when the meter is finite — run as a
/// budget-escalation ladder: a cheap attempt at an eighth of the remaining
/// allowance, an escalated attempt at the full remainder, and finally the
/// structural on-set fallback (which always succeeds). With an unlimited
/// meter the ladder collapses to exactly one attempt at `conflict_budget`.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_patch(
    ws: &mut Workspace,
    onoff: OnOff,
    cut: &Cut,
    kind: InitialPatchKind,
    conflict_budget: u64,
    ctl: &SolveCtl,
    meter: &mut ConflictMeter,
    tel: &crate::Telemetry,
) -> SynthOutcome {
    let plain = |lit: Lit| SynthOutcome {
        lit,
        interpolated: false,
        fallback: false,
        escalated: false,
    };
    match kind {
        InitialPatchKind::OnSet => plain(onoff.on),
        InitialPatchKind::NegOffSet => plain(!onoff.off),
        InitialPatchKind::Interpolant => {
            let interpolated = |lit: Lit, escalated: bool| SynthOutcome {
                lit,
                interpolated: true,
                fallback: false,
                escalated,
            };
            let fallback = |escalated: bool| SynthOutcome {
                lit: onoff.on,
                interpolated: false,
                fallback: true,
                escalated,
            };
            let Some(remaining) = meter.remaining() else {
                // Unlimited meter: the single pre-governor attempt.
                return match try_interpolate(ws, onoff, cut, conflict_budget, ctl, meter, tel) {
                    ItpAttempt::Done(lit) => interpolated(lit, false),
                    ItpAttempt::Overlap | ItpAttempt::Exhausted => fallback(false),
                };
            };
            // Tier 1: cheap probe at an eighth of the allowance.
            let cheap = (remaining / 8).min(conflict_budget);
            if cheap >= MIN_CHEAP_TIER {
                match try_interpolate(ws, onoff, cut, cheap, ctl, meter, tel) {
                    ItpAttempt::Done(lit) => return interpolated(lit, false),
                    // A satisfiable overlap is definitive: more budget
                    // cannot change a found model.
                    ItpAttempt::Overlap => return fallback(false),
                    ItpAttempt::Exhausted => {}
                }
            }
            // Tier 2: escalate to everything the meter still allows.
            let escalated_budget = meter.cap(conflict_budget);
            if meter.exhausted() || escalated_budget == 0 || ctl.expired() {
                return fallback(false);
            }
            tel.update(|t| t.governor.escalations += 1);
            match try_interpolate(ws, onoff, cut, escalated_budget, ctl, meter, tel) {
                ItpAttempt::Done(lit) => interpolated(lit, true),
                // Tier 3: the structural on-set fallback.
                ItpAttempt::Overlap | ItpAttempt::Exhausted => fallback(true),
            }
        }
    }
}

/// Outcome of a single interpolation attempt.
enum ItpAttempt {
    /// Interpolant found and imported.
    Done(Lit),
    /// `on ∧ off` is satisfiable — definitive, retrying cannot help.
    Overlap,
    /// Conflict budget spent or the control block fired.
    Exhausted,
}

fn try_interpolate(
    ws: &mut Workspace,
    onoff: OnOff,
    cut: &Cut,
    conflict_budget: u64,
    ctl: &SolveCtl,
    meter: &mut ConflictMeter,
    tel: &crate::Telemetry,
) -> ItpAttempt {
    let mut q = ItpSolver::new();
    if !ctl.is_unlimited() {
        q.set_ctl(ctl.clone());
    }

    // Shared variables: one per cut signal, one per frontier target.
    let sig_sat: Vec<SLit> = cut.signals.iter().map(|_| q.new_var().pos()).collect();
    let tgt_sat: HashMap<Var, SLit> = cut
        .targets
        .iter()
        .map(|&k| (ws.target_vars[k], q.new_var().pos()))
        .collect();

    // Seed map shared by both copies: frontier nodes and targets.
    let mut seed: HashMap<Var, SLit> = HashMap::new();
    for (&v, &(sig, phase)) in &cut.node_map {
        let sl = sig_sat[sig];
        seed.insert(v, if phase { !sl } else { sl });
    }
    for (&v, &sl) in &tgt_sat {
        seed.insert(v, sl);
    }

    // A: on-set asserted; B: off-set asserted. Separate maps above the cut.
    {
        let mut map_a = seed.clone();
        let mut sink = LabeledSink::new(&mut q, ClauseLabel::A);
        let roots = eco_sat::encode_cone(&ws.mgr, &[onoff.on], &mut map_a, &mut sink);
        sink.sink_clause(&[roots[0]]);
    }
    {
        let mut map_b = seed.clone();
        let mut sink = LabeledSink::new(&mut q, ClauseLabel::B);
        let roots = eco_sat::encode_cone(&ws.mgr, &[onoff.off], &mut map_b, &mut sink);
        sink.sink_clause(&[roots[0]]);
    }

    q.set_conflict_budget(conflict_budget);
    let solved = q.solve_limited();
    let stats = q.last_stats();
    tel.record_solver(&stats);
    meter.charge(stats.conflicts);
    let itp = match solved {
        None => return ItpAttempt::Exhausted,
        Some(ItpOutcome::Unsat(itp)) => itp,
        Some(ItpOutcome::Sat(_)) => return ItpAttempt::Overlap,
    };

    // Import the interpolant into the manager: map its inputs (shared SAT
    // vars) back to the corresponding manager literals.
    let mut input_map: HashMap<Var, Lit> = HashMap::new();
    for (i, &sv) in itp.inputs.iter().enumerate() {
        let mgr_lit = sig_sat
            .iter()
            .position(|sl| sl.var() == sv)
            .map(|sig| cut.signals[sig].lit)
            .or_else(|| {
                tgt_sat
                    .iter()
                    .find(|(_, sl)| sl.var() == sv)
                    .map(|(&tv, _)| tv.pos())
            })
            .expect("shared var maps to a cut signal or target");
        input_map.insert(itp.aig.input_var(i), mgr_lit);
    }
    ItpAttempt::Done(
        ws.mgr
            .import(&itp.aig, &[itp.root], &input_map)
            .expect("interpolant inputs are fully mapped")[0],
    )
}

// `LabeledSink` needs `ClauseSink` in scope for `sink_clause`.
use eco_sat::ClauseSink as _;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carediff::on_off_sets;
    use crate::localize::TapMap;
    use crate::EcoInstance;
    use eco_netlist::{parse_verilog, WeightTable};

    fn tel() -> crate::Telemetry {
        crate::Telemetry::new()
    }

    fn xor_instance() -> (EcoInstance, Workspace) {
        // F: y = t ^ c (target t). G: y = (a & b) ^ c. Patch must be a & b.
        let faulty = parse_verilog(
            "module f (a, b, c, t, y); input a, b, c, t; output y; \
             xor g1 (y, t, c); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y); input a, b, c; output y; \
             wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
        )
        .expect("golden");
        let inst = EcoInstance::from_netlists(
            "x",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let ws = Workspace::new(&inst);
        (inst, ws)
    }

    fn check_patch_semantics(ws: &Workspace, patch: Lit) {
        // Patch must equal a & b for every X assignment (T irrelevant here).
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        mgr.add_output("p", patch);
        for bits in 0u32..16 {
            let vals: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(mgr.eval(&vals)[0], vals[0] && vals[1], "patch at {vals:?}");
        }
    }

    #[test]
    fn onset_patch_is_correct() {
        let (_i, mut ws) = xor_instance();
        let t = ws.target_vars[0];
        let onoff = on_off_sets(&mut ws.mgr, &ws.f_outs.clone(), &ws.g_outs.clone(), t);
        let cut = Cut::frontier(&ws, &TapMap::empty(), &[onoff.on, onoff.off]);
        let got = synthesize_patch(
            &mut ws,
            onoff,
            &cut,
            InitialPatchKind::OnSet,
            1 << 20,
            &SolveCtl::unlimited(),
            &mut ConflictMeter::unlimited(),
            &tel(),
        );
        assert!(!got.interpolated && !got.fallback);
        check_patch_semantics(&ws, got.lit);
    }

    #[test]
    fn neg_offset_patch_is_correct() {
        let (_i, mut ws) = xor_instance();
        let t = ws.target_vars[0];
        let onoff = on_off_sets(&mut ws.mgr, &ws.f_outs.clone(), &ws.g_outs.clone(), t);
        let cut = Cut::frontier(&ws, &TapMap::empty(), &[onoff.on, onoff.off]);
        let got = synthesize_patch(
            &mut ws,
            onoff,
            &cut,
            InitialPatchKind::NegOffSet,
            1 << 20,
            &SolveCtl::unlimited(),
            &mut ConflictMeter::unlimited(),
            &tel(),
        );
        check_patch_semantics(&ws, got.lit);
    }

    #[test]
    fn interpolant_patch_is_correct_and_flagged() {
        let (_i, mut ws) = xor_instance();
        let t = ws.target_vars[0];
        let onoff = on_off_sets(&mut ws.mgr, &ws.f_outs.clone(), &ws.g_outs.clone(), t);
        let cut = Cut::frontier(&ws, &TapMap::empty(), &[onoff.on, onoff.off]);
        let got = synthesize_patch(
            &mut ws,
            onoff,
            &cut,
            InitialPatchKind::Interpolant,
            1 << 20,
            &SolveCtl::unlimited(),
            &mut ConflictMeter::unlimited(),
            &tel(),
        );
        assert!(got.interpolated && !got.fallback);
        check_patch_semantics(&ws, got.lit);
    }

    #[test]
    fn governed_ladder_escalates_then_interpolates() {
        let (_i, mut ws) = xor_instance();
        let t = ws.target_vars[0];
        let onoff = on_off_sets(&mut ws.mgr, &ws.f_outs.clone(), &ws.g_outs.clone(), t);
        let cut = Cut::frontier(&ws, &TapMap::empty(), &[onoff.on, onoff.off]);
        // Allowance 100: the cheap tier (100/8 = 12 < MIN_CHEAP_TIER) is
        // skipped, so the ladder goes straight to the escalated attempt.
        let budget = crate::Budget::new(&crate::BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(100),
        });
        let mut meter = budget.meter();
        let tel = tel();
        let got = synthesize_patch(
            &mut ws,
            onoff,
            &cut,
            InitialPatchKind::Interpolant,
            1 << 20,
            &budget.ctl(),
            &mut meter,
            &tel,
        );
        assert!(got.interpolated && got.escalated, "{got:?}");
        assert_eq!(tel.snapshot().governor.escalations, 1);
        check_patch_semantics(&ws, got.lit);
    }

    #[test]
    fn exhausted_meter_falls_back_to_onset() {
        let (_i, mut ws) = xor_instance();
        let t = ws.target_vars[0];
        let onoff = on_off_sets(&mut ws.mgr, &ws.f_outs.clone(), &ws.g_outs.clone(), t);
        let cut = Cut::frontier(&ws, &TapMap::empty(), &[onoff.on, onoff.off]);
        let budget = crate::Budget::new(&crate::BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(0),
        });
        let mut meter = budget.meter();
        let tel = tel();
        let got = synthesize_patch(
            &mut ws,
            onoff,
            &cut,
            InitialPatchKind::Interpolant,
            1 << 20,
            &budget.ctl(),
            &mut meter,
            &tel,
        );
        assert!(got.fallback && !got.interpolated && !got.escalated);
        assert_eq!(got.lit, onoff.on);
        assert_eq!(tel.snapshot().governor.escalations, 0);
    }

    #[test]
    fn conflicting_onoff_falls_back_to_onset() {
        // Two outputs demanding opposite t values everywhere: on ∧ off sat.
        let faulty = parse_verilog(
            "module f (a, t, y1, y2); input a, t; output y1, y2; \
             buf g1 (y1, t); not g2 (y2, t); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, y1, y2); input a; output y1, y2; \
             buf g1 (y1, a); buf g2 (y2, a); endmodule",
        )
        .expect("golden");
        let inst = EcoInstance::from_netlists(
            "c",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let mut ws = Workspace::new(&inst);
        let t = ws.target_vars[0];
        let onoff = on_off_sets(&mut ws.mgr, &ws.f_outs.clone(), &ws.g_outs.clone(), t);
        let got = {
            let cut = Cut::frontier(&ws, &TapMap::empty(), &[onoff.on, onoff.off]);
            synthesize_patch(
                &mut ws,
                onoff,
                &cut,
                InitialPatchKind::Interpolant,
                1 << 20,
                &SolveCtl::unlimited(),
                &mut ConflictMeter::unlimited(),
                &tel(),
            )
        };
        assert!(got.fallback);
        assert_eq!(got.lit, onoff.on);
    }
}
