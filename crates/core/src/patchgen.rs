//! Multi-fix patch generation (Algorithm 1 `DependentPatchGen` plus the
//! phase-2 target-variable elimination of §4.2, with the multi-output
//! extension of §4.3 and the localized expressions of Theorem 2).

use std::collections::HashMap;

use eco_aig::{Aig, Lit, Var};

use crate::carediff::{exact_on_off_sets, on_off_sets};
use crate::govern::{Budget, ClusterDiagnosis, ConflictMeter};
use crate::localize::{Cut, TapMap};
use crate::synth::{synthesize_patch, InitialPatchKind, SynthOutcome};
use crate::{EcoError, TargetCluster, Workspace};

/// Knobs for one `DependentPatchGen` run.
#[derive(Clone, Copy, Debug)]
pub struct PatchGenOptions {
    /// How patch functions are realized from on/off sets (§4.3).
    pub kind: InitialPatchKind,
    /// SAT conflict budget for interpolation queries.
    pub conflict_budget: u64,
    /// Escape hatch against structural blow-up: when the on/off cone of a
    /// target exceeds this many AND gates, interpolation is attempted even
    /// in on-set/off-set mode (a successful interpolant is a fresh small
    /// circuit, so the Alg.-1 substitution chain stops compounding; on
    /// failure the on-set is still taken). Chained on-set patches grow
    /// multiplicatively with the target count — the very blow-up the
    /// paper's localization tames — so without this cap an unlocalized
    /// 8-target run can exhaust memory.
    pub auto_interp_threshold: usize,
}

impl Default for PatchGenOptions {
    fn default() -> Self {
        PatchGenOptions {
            kind: InitialPatchKind::OnSet,
            conflict_budget: 1 << 22,
            auto_interp_threshold: 1500,
        }
    }
}

/// One finished (target-variable-free) patch function.
#[derive(Clone, Debug)]
pub struct PatchFn {
    /// Index into `instance.targets`.
    pub target: usize,
    /// The patch function in the workspace manager; its cone bottoms out
    /// on the frontier of `cut`.
    pub lit: Lit,
    /// The cut the patch is expressed over — its *base*.
    pub cut: Cut,
}

/// Patches generated for one target cluster.
#[derive(Clone, Debug)]
pub struct GroupPatches {
    /// One entry per cluster target, in cluster order.
    pub patches: Vec<PatchFn>,
    /// How many targets fell back from interpolation to the on-set.
    pub fallbacks: usize,
    /// How many targets were synthesized by interpolation.
    pub interpolated: usize,
}

/// Runs `DependentPatchGen` on one cluster.
///
/// Phase 1 walks the targets in order, deriving `p'_k(C_d, T_k)` from the
/// on/off sets of Eqs. (7)/(8) in the *current* circuit (earlier targets
/// already substituted, exactly the `F' ← F'|t_k=p'_k` update of
/// Algorithm 1 line 8). Phase 2 back-substitutes `p'_α … p'_1` to remove
/// the remaining target-variable dependencies.
///
/// Each target's synthesis runs the escalation ladder against `meter`,
/// every SAT query is enrolled in the budget's control block, and the walk
/// stops with a [`ClusterDiagnosis`] when the deadline fires or the
/// cluster's conflict allowance runs dry between targets. An unlimited
/// budget and meter never degrade.
pub fn generate_group_patches(
    ws: &mut Workspace,
    tap: &TapMap,
    cluster: &TargetCluster,
    opts: &PatchGenOptions,
    budget: &Budget,
    meter: &mut ConflictMeter,
    tel: &crate::Telemetry,
) -> Result<GroupPatches, ClusterDiagnosis> {
    let PatchGenOptions {
        kind,
        conflict_budget,
        auto_interp_threshold,
    } = *opts;
    let mut f_cur: Vec<Lit> = cluster.outputs.iter().map(|&j| ws.f_outs[j]).collect();
    let g_cur: Vec<Lit> = cluster.outputs.iter().map(|&j| ws.g_outs[j]).collect();

    let mut fallbacks = 0;
    let mut interpolated = 0;
    let mut p_prime: Vec<Lit> = Vec::with_capacity(cluster.targets.len());

    // Phase 1: target-variable dependent patches.
    for &k in &cluster.targets {
        if budget.expired() {
            return Err(ClusterDiagnosis::Deadline);
        }
        if meter.exhausted() {
            return Err(ClusterDiagnosis::BudgetExhausted);
        }
        let t = ws.target_vars[k];
        let onoff = on_off_sets(&mut ws.mgr, &f_cur, &g_cur, t);
        let cut = Cut::frontier(ws, tap, &[onoff.on, onoff.off]);
        let effective_kind = if kind == InitialPatchKind::Interpolant
            || ws.mgr.count_cone_ands(&[onoff.on, onoff.off]) > auto_interp_threshold
        {
            InitialPatchKind::Interpolant
        } else {
            kind
        };
        let ctl = budget.ctl();
        let mut outcome = synthesize_patch(
            ws,
            onoff,
            &cut,
            effective_kind,
            conflict_budget,
            &ctl,
            meter,
            tel,
        );
        if outcome.fallback
            && effective_kind == InitialPatchKind::Interpolant
            && !budget.expired()
            && !meter.exhausted()
        {
            // §4.3 conflict (on ∧ off satisfiable): retry over the exact
            // relation-determinization sets, which are disjoint by
            // construction, before accepting the (possibly huge) on-set.
            let exact = exact_on_off_sets(&mut ws.mgr, &f_cur, &g_cur, t);
            let exact_cut = Cut::frontier(ws, tap, &[exact.on, exact.off]);
            let retry = synthesize_patch(
                ws,
                exact,
                &exact_cut,
                InitialPatchKind::Interpolant,
                conflict_budget,
                &ctl,
                meter,
                tel,
            );
            if retry.interpolated {
                outcome = retry;
            }
        }
        let SynthOutcome {
            lit,
            interpolated: used_itp,
            fallback,
            escalated: _,
        } = outcome;
        fallbacks += usize::from(fallback);
        interpolated += usize::from(used_itp);
        if fallback {
            tel.event(
                crate::Stage::PatchGen,
                "interpolation_fallback",
                format!("target {k} fell back to the on-set circuit"),
            );
        }
        // F' <- F'|t_k = p'_k
        let mut map = HashMap::new();
        map.insert(t, lit);
        f_cur = ws.mgr.substitute(&f_cur, &map);
        p_prime.push(lit);
    }

    // Phase 2: eliminate dependencies on later target variables.
    let n = cluster.targets.len();
    let mut final_p = p_prime;
    for i in (0..n.saturating_sub(1)).rev() {
        let map: HashMap<Var, Lit> = (i + 1..n)
            .map(|j| (ws.target_vars[cluster.targets[j]], final_p[j]))
            .collect();
        final_p[i] = ws.mgr.substitute(&[final_p[i]], &map)[0];
    }

    let patches = cluster
        .targets
        .iter()
        .zip(final_p)
        .map(|(&target, lit)| PatchFn {
            target,
            lit,
            cut: Cut::frontier(ws, tap, &[lit]),
        })
        .collect();
    tel.update(|t| {
        t.interpolated += interpolated as u64;
        t.interpolation_fallbacks += fallbacks as u64;
    });
    Ok(GroupPatches {
        patches,
        fallbacks,
        interpolated,
    })
}

/// Extracts the cones of `roots` into a standalone patch AIG whose inputs
/// are the distinct cut *signals* on the frontier of the roots.
///
/// Unlike [`Aig::extract_cone`], several frontier nodes mapping to the same
/// signal (via FRAIG equivalence) share one input. Returns the patch AIG
/// and the root literals within it; `cut` lists the frontier.
///
/// Errors if a root cone reaches a target variable (phase-2 dependent
/// resubstitution incomplete) or an input the cut does not cover — a bad
/// base set surfaces as [`EcoError`] instead of aborting the process.
pub fn extract_patch_aig(
    mgr: &Aig,
    ws_targets: &[Var],
    roots: &[Lit],
    cut: &Cut,
) -> Result<(Aig, Vec<Lit>), EcoError> {
    let mut patch = Aig::new();
    let mut cache: HashMap<Var, Lit> = HashMap::new();
    cache.insert(Var::CONST, Lit::FALSE);
    let sig_inputs: Vec<Lit> = cut
        .signals
        .iter()
        .map(|s| patch.add_input(s.name.clone()))
        .collect();
    for (&v, &(sig, phase)) in &cut.node_map {
        cache.insert(v, sig_inputs[sig].xor_complement(phase));
    }

    let frontier = cut.frontier_vars();
    for v in mgr.cone_vars_to_cut(roots, &frontier) {
        if cache.contains_key(&v) {
            continue;
        }
        if let Some((fan0, fan1)) = mgr.and_fanins(v) {
            let n0 = cache[&fan0.var()].xor_complement(fan0.is_complement());
            let n1 = cache[&fan1.var()].xor_complement(fan1.is_complement());
            let lit = patch.and(n0, n1);
            cache.insert(v, lit);
        } else if let Some(pos) = mgr.input_pos(v) {
            let name = mgr.input_name(pos).to_owned();
            return Err(if ws_targets.contains(&v) {
                EcoError::Unrectifiable(format!(
                    "patch cone reached target `{name}`; dependent resubstitution incomplete"
                ))
            } else {
                EcoError::Transform(eco_aig::TransformError::InputNotInCut(name))
            });
        }
        // Constant: Lit::FALSE is pre-seeded in the cache.
    }
    let out = roots
        .iter()
        .map(|&r| cache[&r.var()].xor_complement(r.is_complement()))
        .collect();
    Ok((patch, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster_targets, EcoInstance};
    use eco_netlist::{parse_verilog, WeightTable};

    /// Two targets on one output: y = t1 | t2 must become (a&b) | (a^c).
    fn two_target_instance() -> (EcoInstance, Workspace) {
        let faulty = parse_verilog(
            "module f (a, b, c, t1, t2, y); input a, b, c, t1, t2; output y; \
             or g1 (y, t1, t2); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y); input a, b, c; output y; \
             wire w1, w2; and g1 (w1, a, b); xor g2 (w2, a, c); \
             or g3 (y, w1, w2); endmodule",
        )
        .expect("golden");
        let inst = EcoInstance::from_netlists(
            "two",
            &faulty,
            &golden,
            vec!["t1".into(), "t2".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let ws = Workspace::new(&inst);
        (inst, ws)
    }

    fn patched_outputs_match(ws: &mut Workspace, patches: &[PatchFn]) {
        let map: HashMap<Var, Lit> = patches
            .iter()
            .map(|p| (ws.target_vars[p.target], p.lit))
            .collect();
        let f_outs = ws.f_outs.clone();
        let patched = ws.mgr.substitute(&f_outs, &map);
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        for (j, (&p, &g)) in patched.iter().zip(&ws.g_outs).enumerate() {
            let m = mgr.xor(p, g);
            mgr.add_output(format!("m{j}"), m);
        }
        let n = mgr.num_inputs();
        assert!(n <= 8, "exhaustive check requires few inputs");
        for bits in 0u32..1 << n {
            let vals: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let out = mgr.eval(&vals);
            assert!(
                out.iter().all(|&b| !b),
                "patched output differs from golden at {vals:?}"
            );
        }
    }

    #[test]
    fn multi_target_onset_patches_verify() {
        let (_i, mut ws) = two_target_instance();
        let clustering = cluster_targets(&ws);
        assert_eq!(clustering.clusters.len(), 1);
        let got = generate_group_patches(
            &mut ws,
            &TapMap::empty(),
            &clustering.clusters[0],
            &PatchGenOptions::default(),
            &Budget::unlimited(),
            &mut ConflictMeter::unlimited(),
            &crate::Telemetry::new(),
        )
        .expect("unlimited budget never degrades");
        assert_eq!(got.patches.len(), 2);
        patched_outputs_match(&mut ws, &got.patches);
    }

    #[test]
    fn multi_target_interpolant_patches_verify() {
        let (_i, mut ws) = two_target_instance();
        let clustering = cluster_targets(&ws);
        let got = generate_group_patches(
            &mut ws,
            &TapMap::empty(),
            &clustering.clusters[0],
            &PatchGenOptions {
                kind: InitialPatchKind::Interpolant,
                ..Default::default()
            },
            &Budget::unlimited(),
            &mut ConflictMeter::unlimited(),
            &crate::Telemetry::new(),
        )
        .expect("unlimited budget never degrades");
        patched_outputs_match(&mut ws, &got.patches);
    }

    #[test]
    fn final_patches_are_target_free() {
        let (_i, mut ws) = two_target_instance();
        let clustering = cluster_targets(&ws);
        let got = generate_group_patches(
            &mut ws,
            &TapMap::empty(),
            &clustering.clusters[0],
            &PatchGenOptions::default(),
            &Budget::unlimited(),
            &mut ConflictMeter::unlimited(),
            &crate::Telemetry::new(),
        )
        .expect("unlimited budget never degrades");
        for p in &got.patches {
            let sup = ws.mgr.support(&[p.lit]);
            for tv in &ws.target_vars {
                assert!(!sup.contains(tv), "patch depends on target {tv:?}");
            }
        }
    }

    #[test]
    fn extraction_builds_standalone_patch() {
        let (_i, mut ws) = two_target_instance();
        let clustering = cluster_targets(&ws);
        let got = generate_group_patches(
            &mut ws,
            &TapMap::empty(),
            &clustering.clusters[0],
            &PatchGenOptions::default(),
            &Budget::unlimited(),
            &mut ConflictMeter::unlimited(),
            &crate::Telemetry::new(),
        )
        .expect("unlimited budget never degrades");
        let roots: Vec<Lit> = got.patches.iter().map(|p| p.lit).collect();
        let cut = Cut::merge(got.patches.iter().map(|p| &p.cut));
        let (patch, outs) =
            extract_patch_aig(&ws.mgr, &ws.target_vars, &roots, &cut).expect("cut covers cones");
        assert_eq!(outs.len(), 2);
        // Standalone patch evaluates like the manager cones.
        let mut patch = patch;
        for (i, &o) in outs.iter().enumerate() {
            patch.add_output(format!("t{i}"), o);
        }
        let mut check = ws.mgr.clone();
        check.clear_outputs();
        for (i, &r) in roots.iter().enumerate() {
            check.add_output(format!("t{i}"), r);
        }
        // patch inputs are a subset of X by name; evaluate both on all X.
        let n = check.num_inputs();
        for bits in 0u32..1 << n {
            let vals: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let want = check.eval(&vals);
            let pvals: Vec<bool> = (0..patch.num_inputs())
                .map(|p| {
                    let name = patch.input_name(p);
                    let pos = (0..check.num_inputs())
                        .position(|q| check.input_name(q) == name)
                        .expect("patch input exists in manager");
                    vals[pos]
                })
                .collect();
            assert_eq!(patch.eval(&pvals), want, "at {vals:?}");
        }
    }

    /// A cut that does not cover the patch cone surfaces as a typed
    /// `EcoError` (previously a panic) — both for plain inputs and for
    /// target pseudo-inputs the cone reaches.
    #[test]
    fn extraction_with_uncovered_cut_is_typed_error() {
        let (_i, ws) = two_target_instance();
        // Patch "function" that is just the faulty output cone: it reaches
        // the X inputs, which an empty cut does not cover.
        let roots = vec![ws.f_outs[0]];
        let err = extract_patch_aig(&ws.mgr, &ws.target_vars, &roots, &Cut::default())
            .expect_err("empty cut cannot cover the cone");
        match err {
            EcoError::Unrectifiable(msg) => assert!(msg.contains("target"), "{msg}"),
            EcoError::Transform(e) => {
                assert!(matches!(e, eco_aig::TransformError::InputNotInCut(_)))
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
