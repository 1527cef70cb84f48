//! Property tests for the §6 optimization machinery and the Eq.-2
//! precheck on random-DAG instances. Each property checks the persisted
//! regression input first, then `(seed, n_gates)` draws from one
//! fixed-seed [`SplitMix64`], until a fixed number of cases met its
//! preconditions; a failing case names its seed and gate count.

use eco_aig::{Lit, SplitMix64};
use eco_core::{on_off_sets, select_base, EcoInstance, RebaseQuery, Workspace};
use eco_netlist::{elaborate, Netlist};

/// Seed of every property's generator.
const SEED: u64 = 0x5eed_c0de;

/// The `(seed, n_gates)` input an earlier run of these properties failed
/// on, checked first by each of them.
const REGRESSION: (u64, usize) = (82, 23);

/// Feeds `check` the regression input, then draws with `seed < 2000` and
/// `n_gates` in `lo..=hi`, until `cases` of them met its preconditions
/// (`check` returns `true`). Fails if four times as many inputs do not
/// get there.
fn check_cases(cases: usize, (lo, hi): (u64, u64), mut check: impl FnMut(u64, usize) -> bool) {
    let mut rng = SplitMix64::new(SEED);
    let draws = std::iter::repeat_with(|| (rng.below(2000), rng.range_inclusive(lo, hi) as usize));
    let mut passed = 0;
    for (seed, n_gates) in std::iter::once(REGRESSION).chain(draws).take(4 * cases) {
        passed += usize::from(check(seed, n_gates));
        if passed == cases {
            return;
        }
    }
    panic!(
        "only {passed} of {} inputs met the preconditions",
        4 * cases
    );
}

/// A random DAG over 5 inputs with 3 outputs, and its wires that drive
/// an output.
fn live_dag(seed: u64, n_gates: usize) -> (Netlist, Vec<String>) {
    let golden = eco_workgen::circuits::random_dag(5, n_gates, 3, seed);
    let e = elaborate(&golden).expect("generated DAG elaborates");
    let roots: Vec<_> = e.aig.outputs().iter().map(|o| o.lit).collect();
    let cone: std::collections::HashSet<_> = e.aig.cone_vars(&roots).into_iter().collect();
    let live = golden
        .wires
        .iter()
        .filter(|w| e.net_lits.get(*w).is_some_and(|l| cone.contains(&l.var())))
        .cloned()
        .collect();
    (golden, live)
}

/// The instance rectifying `golden` with `targets` cut, weighted by
/// `profile`.
fn cut_instance(
    golden: &Netlist,
    targets: Vec<String>,
    profile: eco_workgen::WeightProfile,
    seed: u64,
) -> EcoInstance {
    let faulty = eco_workgen::cut_targets(golden, &targets).expect("targets are driven");
    let weights = eco_workgen::assign_weights(&faulty, profile, seed);
    EcoInstance::from_netlists("prop", &faulty, golden, targets, &weights).expect("valid instance")
}

/// A rectifiable single-target query over a random-DAG golden circuit:
/// the workspace, the target's on/off pair and its 24 cheapest
/// candidates. `None` when no wire is live or the patch is constant.
fn random_query(seed: u64, n_gates: usize) -> Option<(Workspace, Lit, Lit, Vec<usize>)> {
    let (golden, live) = live_dag(seed, n_gates);
    let target = live.get(live.len() / 2)?.clone();
    let profile = eco_workgen::WeightProfile::Uniform { lo: 1, hi: 9 };
    let mut ws = Workspace::new(&cut_instance(&golden, vec![target], profile, seed));
    let t = ws.target_vars[0];
    let (f, g) = (ws.f_outs.clone(), ws.g_outs.clone());
    let onoff = on_off_sets(&mut ws.mgr, &f, &g, t);
    if onoff.on == Lit::FALSE || onoff.off == Lit::FALSE {
        return None; // constant patch; nothing to select
    }
    let mut pool: Vec<usize> = (0..ws.cands.len()).collect();
    pool.sort_by_key(|&i| (ws.cands[i].weight, ws.cands[i].name.clone()));
    pool.truncate(24);
    Some((ws, onoff.on, onoff.off, pool))
}

/// select_base always returns a feasible base no more expensive than
/// the initial one, and reports its cost truthfully.
#[test]
fn selected_bases_are_feasible_and_no_worse() {
    check_cases(24, (15, 39), |seed, n_gates| {
        let Some((ws, on, off, pool)) = random_query(seed, n_gates) else {
            return false;
        };
        let mut q = RebaseQuery::new(&ws, on, off, pool.clone());
        let full: Vec<usize> = (0..pool.len()).collect();
        if q.feasible(&full, 100_000) != Some(true) {
            return false;
        }
        let cost = |base: &[usize]| base.iter().map(|&i| ws.cands[pool[i]].weight).sum::<u64>();
        let sel = select_base(&ws, &mut q, &full, 3, 50_000);
        let ctx = format!("seed {seed}, n_gates {n_gates}: {sel:?}");
        assert!(sel.cost <= cost(&full), "{ctx}");
        assert_eq!(q.feasible(&sel.base, 200_000), Some(true), "{ctx}");
        assert_eq!(sel.cost, cost(&sel.base), "{ctx}");
        true
    });
}

/// optimize_patches never increases the total cost.
#[test]
fn optimization_is_monotone() {
    check_cases(24, (15, 44), |seed, n_gates| {
        let (golden, live) = live_dag(seed, n_gates);
        if live.len() < 2 {
            return false;
        }
        // Two distinct live wires, a third and two thirds of the way in.
        let targets = vec![
            live[live.len() / 3].clone(),
            live[2 * live.len() / 3].clone(),
        ];
        let profile = eco_workgen::WeightProfile::Uniform { lo: 1, hi: 20 };
        let mut ws = Workspace::new(&cut_instance(&golden, targets, profile, seed));
        let clustering = eco_core::cluster_targets(&ws);
        let tap = eco_core::TapMap::empty();
        let mut patches = Vec::new();
        for cluster in &clustering.clusters {
            patches.extend(
                eco_core::generate_group_patches(
                    &mut ws,
                    &tap,
                    cluster,
                    eco_core::InitialPatchKind::OnSet,
                    &eco_core::Budget::unlimited(),
                    &mut eco_core::ConflictMeter::unlimited(),
                    &eco_core::Telemetry::new(),
                )
                .expect("unlimited budget never degrades")
                .patches,
            );
        }
        if patches.is_empty() {
            return false;
        }
        let stats = eco_core::optimize_patches(
            &mut ws,
            &mut patches,
            5,
            &eco_core::Budget::unlimited(),
            &eco_core::Telemetry::new(),
        );
        assert!(
            stats.cost_after <= stats.cost_before,
            "seed {seed}, n_gates {n_gates}: optimizer regressed: {stats:?}"
        );
        true
    });
}

/// The Eq.-2 precheck agrees with the engine on cut (rectifiable)
/// instances.
#[test]
fn precheck_agrees_on_rectifiable_instances() {
    check_cases(16, (12, 34), |seed, n_gates| {
        let (golden, live) = live_dag(seed, n_gates);
        let Some(target) = live.get(live.len() / 2) else {
            return false;
        };
        let profile = eco_workgen::WeightProfile::Unit;
        let inst = cut_instance(&golden, vec![target.clone()], profile, seed);
        let got = eco_core::check_rectifiable(
            &mut Workspace::new(&inst),
            512,
            1 << 22,
            &eco_sat::SolveCtl::unlimited(),
            &eco_core::Telemetry::new(),
        );
        assert!(
            got.is_rectifiable(),
            "seed {seed}, n_gates {n_gates}: {got:?}"
        );
        // And with the precheck enabled, the engine still succeeds.
        let opts = eco_core::EcoOptions {
            precheck_rectifiability: true,
            ..Default::default()
        };
        if let Err(e) = eco_core::EcoEngine::new(inst, opts).run() {
            panic!("seed {seed}, n_gates {n_gates}: {e}");
        }
        true
    });
}
