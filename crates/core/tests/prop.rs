// Needs the external `proptest` crate; compiled out by default so the
// workspace builds offline. Enable with `--features proptest` (see Cargo.toml).
#![cfg(feature = "proptest")]

//! Property-based tests for the §6 optimization machinery.

use eco_core::{
    enumerate_cex, on_off_sets, select_base, BaseSelectOptions, EcoInstance, OptimizeOptions,
    RebaseQuery, Workspace,
};
use eco_netlist::elaborate;
use proptest::prelude::*;

/// Builds a random rectifiable single-target instance over a random-DAG
/// golden circuit and returns the workspace plus the target's on/off pair
/// and candidate pool.
fn random_query(
    seed: u64,
    n_gates: usize,
) -> Option<(Workspace, eco_aig::Lit, eco_aig::Lit, Vec<usize>)> {
    let golden = eco_workgen::circuits::random_dag(5, n_gates, 3, seed);
    let live: Vec<String> = {
        let e = elaborate(&golden).ok()?;
        let roots: Vec<_> = e.aig.outputs().iter().map(|o| o.lit).collect();
        let cone: std::collections::HashSet<_> = e.aig.cone_vars(&roots).into_iter().collect();
        golden
            .wires
            .iter()
            .filter(|w| e.net_lits.get(*w).is_some_and(|l| cone.contains(&l.var())))
            .cloned()
            .collect()
    };
    if live.is_empty() {
        return None;
    }
    let target = live[live.len() / 2].clone();
    let faulty =
        eco_workgen::cut_targets(&golden, std::slice::from_ref(&target)).expect("target is driven");
    let weights = eco_workgen::assign_weights(
        &faulty,
        eco_workgen::WeightProfile::Uniform { lo: 1, hi: 9 },
        seed,
    );
    let inst = EcoInstance::from_netlists("prop", &faulty, &golden, vec![target], &weights).ok()?;
    let mut ws = Workspace::new(&inst);
    let t = ws.target_vars[0];
    let (f, g) = (ws.f_outs.clone(), ws.g_outs.clone());
    let onoff = on_off_sets(&mut ws.mgr, &f, &g, t);
    if onoff.on == eco_aig::Lit::FALSE || onoff.off == eco_aig::Lit::FALSE {
        return None; // constant patch; nothing to select
    }
    let mut pool: Vec<usize> = (0..ws.cands.len()).collect();
    pool.sort_by_key(|&i| (ws.cands[i].weight, ws.cands[i].name.clone()));
    pool.truncate(24);
    Some((ws, onoff.on, onoff.off, pool))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counterexample enumeration invariants: masks are unique, bounded by
    /// 2^|watch|, and probing a feasible selection yields the empty set.
    #[test]
    fn cex_enumeration_invariants(seed in 0u64..2000, n_gates in 15usize..40) {
        let Some((ws, on, off, pool)) = random_query(seed, n_gates) else {
            return Ok(());
        };
        let mut q = RebaseQuery::new(&ws, on, off, pool.clone());
        let full: Vec<usize> = (0..pool.len()).collect();
        prop_assume!(q.feasible(&full, 100_000) == Some(true));

        let watch: Vec<usize> = full.iter().copied().take(3).collect();
        let cex = enumerate_cex(&mut q, &[], None, &watch, 200_000)
            .expect("within budget");
        prop_assert!(cex.len() <= 1 << watch.len());
        let mut masks = cex.masks.clone();
        masks.sort_unstable();
        masks.dedup();
        prop_assert_eq!(masks.len(), cex.len(), "masks must be unique");

        // Probing with everything selected leaves no counterexample.
        let (probe, hold) = full.split_first().expect("non-empty pool");
        let none = enumerate_cex(&mut q, hold, Some(*probe), &watch, 200_000)
            .expect("within budget");
        prop_assert!(none.is_empty());
    }

    /// select_base always returns a feasible base no more expensive than
    /// the initial one.
    #[test]
    fn selected_bases_are_feasible_and_no_worse(seed in 0u64..2000, n_gates in 15usize..40) {
        let Some((ws, on, off, pool)) = random_query(seed, n_gates) else {
            return Ok(());
        };
        let mut q = RebaseQuery::new(&ws, on, off, pool.clone());
        let full: Vec<usize> = (0..pool.len()).collect();
        prop_assume!(q.feasible(&full, 100_000) == Some(true));
        let initial_cost: u64 = full.iter().map(|&i| ws.cands[pool[i]].weight).sum();

        let opts = BaseSelectOptions {
            watch_size: 3,
            max_rounds: 3,
            ..Default::default()
        };
        let sel = select_base(&ws, &mut q, &full, &opts);
        prop_assert!(sel.cost <= initial_cost);
        prop_assert_eq!(q.feasible(&sel.base, 200_000), Some(true));
        let recomputed: u64 = sel.base.iter().map(|&i| ws.cands[pool[i]].weight).sum();
        prop_assert_eq!(sel.cost, recomputed);
    }

    /// optimize_patches never increases the total cost.
    #[test]
    fn optimization_is_monotone(seed in 0u64..2000, n_gates in 15usize..45) {
        let golden = eco_workgen::circuits::random_dag(5, n_gates, 3, seed);
        let live: Vec<String> = {
            let e = elaborate(&golden).expect("elab");
            let roots: Vec<_> = e.aig.outputs().iter().map(|o| o.lit).collect();
            let cone: std::collections::HashSet<_> =
                e.aig.cone_vars(&roots).into_iter().collect();
            golden
                .wires
                .iter()
                .filter(|w| e.net_lits.get(*w).is_some_and(|l| cone.contains(&l.var())))
                .cloned()
                .collect()
        };
        prop_assume!(live.len() >= 2);
        let targets: Vec<String> = vec![live[live.len() / 3].clone(), live[2 * live.len() / 3].clone()];
        prop_assume!(targets[0] != targets[1]);
        let faulty = eco_workgen::cut_targets(&golden, &targets).expect("targets are driven");
        let weights = eco_workgen::assign_weights(
            &faulty,
            eco_workgen::WeightProfile::Uniform { lo: 1, hi: 20 },
            seed,
        );
        let inst = EcoInstance::from_netlists("mono", &faulty, &golden, targets, &weights)
            .expect("valid");
        let mut ws = Workspace::new(&inst);
        let clustering = eco_core::cluster_targets(&ws);
        let tap = eco_core::TapMap::empty();
        let mut patches = Vec::new();
        for cluster in &clustering.clusters {
            patches.extend(
                eco_core::generate_group_patches(
                    &mut ws,
                    &tap,
                    cluster,
                    &eco_core::PatchGenOptions::default(),
                    &eco_core::Budget::unlimited(),
                    &mut eco_core::ConflictMeter::unlimited(),
                    &eco_core::Telemetry::new(),
                )
                .expect("unlimited budget never degrades")
                .patches,
            );
        }
        prop_assume!(!patches.is_empty());
        let stats = eco_core::optimize_patches(
            &mut ws,
            &mut patches,
            &OptimizeOptions::default(),
            &eco_core::Budget::unlimited(),
            &eco_core::Telemetry::new(),
        );
        prop_assert!(
            stats.cost_after <= stats.cost_before,
            "optimizer regressed: {:?}",
            stats
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Eq.-2 precheck agrees with the engine on cut (rectifiable)
    /// instances.
    #[test]
    fn precheck_agrees_on_rectifiable_instances(seed in 0u64..2000, n_gates in 12usize..35) {
        let golden = eco_workgen::circuits::random_dag(5, n_gates, 3, seed);
        let live: Vec<String> = {
            let e = elaborate(&golden).expect("elab");
            let roots: Vec<_> = e.aig.outputs().iter().map(|o| o.lit).collect();
            let cone: std::collections::HashSet<_> =
                e.aig.cone_vars(&roots).into_iter().collect();
            golden
                .wires
                .iter()
                .filter(|w| e.net_lits.get(*w).is_some_and(|l| cone.contains(&l.var())))
                .cloned()
                .collect()
        };
        prop_assume!(!live.is_empty());
        let targets = vec![live[live.len() / 2].clone()];
        let faulty = eco_workgen::cut_targets(&golden, &targets).expect("targets are driven");
        let weights = eco_workgen::assign_weights(
            &faulty,
            eco_workgen::WeightProfile::Unit,
            seed,
        );
        let inst = EcoInstance::from_netlists("pre", &faulty, &golden, targets, &weights)
            .expect("valid");
        let mut ws = Workspace::new(&inst);
        let got = eco_core::check_rectifiable(
            &mut ws,
            512,
            1 << 22,
            &eco_sat::SolveCtl::unlimited(),
            &eco_core::Telemetry::new(),
        );
        prop_assert!(got.is_rectifiable(), "{got:?}");
        // And with the precheck enabled, the engine still succeeds.
        let opts = eco_core::EcoOptions {
            precheck_rectifiability: true,
            ..Default::default()
        };
        eco_core::EcoEngine::new(inst, opts).run().expect("rectifiable");
    }
}
