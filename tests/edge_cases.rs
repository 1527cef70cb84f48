//! Edge-case integration tests: budget exhaustion, degenerate circuits,
//! and option corners that the happy-path suites don't reach.

mod common;

use std::collections::HashMap;

use eco::aig::{Lit, Var};
use eco::core::{
    check_equivalence, cluster_targets, generate_group_patches, Budget, BudgetOptions,
    ConflictMeter, Cut, EcoEngine, EcoError, EcoInstance, EcoOptions, InitialPatchKind, TapMap,
    Telemetry, VerifyOutcome, Workspace,
};
use eco::fraig::{fraig_classes, FraigOptions};
use eco::netlist::{parse_verilog, WeightTable};
use eco::sat::SolveCtl;
use eco::workgen::contest_suite;

fn simple_instance() -> (eco::netlist::Netlist, eco::netlist::Netlist, EcoInstance) {
    let faulty =
        parse_verilog("module f (a, b, t, y); input a, b, t; output y; or g1 (y, t, b); endmodule")
            .expect("faulty");
    let golden = parse_verilog(
        "module g (a, b, y); input a, b; output y; \
         wire w; xor g0 (w, a, b); or g1 (y, w, b); endmodule",
    )
    .expect("golden");
    let inst = EcoInstance::from_netlists(
        "edge",
        &faulty,
        &golden,
        vec!["t".into()],
        &WeightTable::new(2),
    )
    .expect("instance");
    (faulty, golden, inst)
}

/// A one-conflict allowance yields ResourceLimit, not a wrong answer.
#[test]
fn exhausted_verify_budget_is_reported() {
    // Big enough that verification actually needs search: a multiplier.
    let unit = eco::workgen::build_unit(&eco::workgen::UnitSpec {
        name: "budget".into(),
        family: eco::workgen::Family::Multiplier(4),
        n_targets: 1,
        bias: eco::workgen::TargetBias::Deep,
        weights: eco::workgen::WeightProfile::Unit,
        difficult: false,
        seed: 5,
    });
    let inst = unit.instance().expect("valid");
    let opts = EcoOptions {
        budget: BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(1),
        },
        optimize: false,
        ..Default::default()
    };
    match EcoEngine::new(inst, opts).run() {
        Err(EcoError::ResourceLimit(_)) => {}
        // A 1-conflict budget may still suffice if propagation alone
        // decides the miters; accept a verified success too.
        Ok(result) => {
            common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
        }
        Err(other) => panic!("unexpected error: {other}"),
    }
}

/// FRAIG with a zero conflict budget proves nothing by SAT — and
/// localization over its classes still rectifies (it silently degrades
/// to structural sharing): the tap map of that sweep drives patch
/// generation, and a miter proves the patched circuit equivalent.
#[test]
fn fraig_budget_zero_degrades_gracefully() {
    let (_f, _g, inst) = simple_instance();
    let mut ws = Workspace::new(&inst);
    let starved = FraigOptions {
        conflict_budget: 0,
        ..Default::default()
    };
    let tap = TapMap::build(&ws, &fraig_classes(&ws.mgr, &starved));
    let cluster = cluster_targets(&ws).clusters.remove(0);
    let group = generate_group_patches(
        &mut ws,
        &tap,
        &cluster,
        InitialPatchKind::OnSet,
        &Budget::unlimited(),
        &mut ConflictMeter::unlimited(),
        &Telemetry::new(),
    )
    .expect("an unlimited budget never degrades");
    let map: HashMap<Var, Lit> = group
        .patches
        .iter()
        .map(|p| (ws.target_vars[p.target], p.lit))
        .collect();
    let f_outs = ws.f_outs.clone();
    let patched = ws.mgr.substitute(&f_outs, &map);
    let pairs: Vec<(Lit, Lit)> = patched.into_iter().zip(ws.g_outs.clone()).collect();
    let (verdict, _) = check_equivalence(&mut ws.mgr, &pairs, u64::MAX, &SolveCtl::unlimited());
    assert!(matches!(verdict, VerifyOutcome::Equivalent), "{verdict:?}");
}

/// All-option engine sweep on one difficult unit, splice-checked.
#[test]
fn difficult_unit_option_sweep() {
    let unit = contest_suite()
        .into_iter()
        .find(|u| u.spec.name == "unit06")
        .expect("unit06");
    for initial in [
        InitialPatchKind::OnSet,
        InitialPatchKind::NegOffSet,
        InitialPatchKind::Interpolant,
    ] {
        let inst = unit.instance().expect("valid");
        let opts = EcoOptions {
            initial_patch: initial,
            ..Default::default()
        };
        let result = EcoEngine::new(inst, opts).run().expect("rectifiable");
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
    }
}

/// Single-input identity instance: the patch is just a wire.
#[test]
fn wire_only_patch() {
    let faulty = parse_verilog("module f (a, t, y); input a, t; output y; buf g (y, t); endmodule")
        .expect("faulty");
    let golden = parse_verilog("module g (a, y); input a; output y; buf g (y, a); endmodule")
        .expect("golden");
    let inst = EcoInstance::from_netlists(
        "wire",
        &faulty,
        &golden,
        vec!["t".into()],
        &WeightTable::new(4),
    )
    .expect("instance");
    let result = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .expect("ok");
    assert_eq!(result.size, 0, "identity patch needs no gates");
    assert_eq!(result.cost, 4);
    assert_eq!(result.patches[0].base, vec!["a"]);
    common::assert_patched_equals_golden(&faulty, &golden, &result);
}

/// An inverted-wire patch costs one signal and zero AND gates.
#[test]
fn inverter_only_patch() {
    let faulty = parse_verilog("module f (a, t, y); input a, t; output y; buf g (y, t); endmodule")
        .expect("faulty");
    let golden = parse_verilog("module g (a, y); input a; output y; not g (y, a); endmodule")
        .expect("golden");
    let inst = EcoInstance::from_netlists(
        "inv",
        &faulty,
        &golden,
        vec!["t".into()],
        &WeightTable::new(4),
    )
    .expect("instance");
    let result = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .expect("ok");
    assert_eq!(result.size, 0, "inverters are free in the AIG metric");
    common::assert_patched_equals_golden(&faulty, &golden, &result);
}

/// Cut merging dedups signals by name and keeps phases consistent.
#[test]
fn cut_merge_semantics() {
    let (_f, _g, inst) = simple_instance();
    let ws = Workspace::new(&inst);
    let classes = fraig_classes(&ws.mgr, &FraigOptions::default());
    let tap = TapMap::build(&ws, &classes);
    let cut1 = Cut::frontier(&ws, &tap, &[ws.g_outs[0]]);
    let cut2 = Cut::frontier(&ws, &tap, &[ws.f_outs[0]]);
    let merged = Cut::merge([&cut1, &cut2]);
    // No duplicate signal names.
    let mut names: Vec<&str> = merged.signals.iter().map(|s| s.name.as_str()).collect();
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "merge must dedup by name");
    // Every node's mapping is consistent with one of the source cuts.
    assert!(merged.node_map.len() >= cut1.node_map.len().max(cut2.node_map.len()));
}

/// Identical faulty/golden with zero targets: nothing to do, verified.
#[test]
fn zero_target_instance() {
    let faulty =
        parse_verilog("module f (a, b, y); input a, b; output y; and g (y, a, b); endmodule")
            .expect("faulty");
    let golden =
        parse_verilog("module g (a, b, y); input a, b; output y; and g (y, a, b); endmodule")
            .expect("golden");
    let inst = EcoInstance::from_netlists("zero", &faulty, &golden, vec![], &WeightTable::new(1))
        .expect("instance");
    let result = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .expect("ok");
    assert!(result.patches.is_empty());
    assert_eq!(result.cost, 0);
    assert_eq!(result.size, 0);
}

/// Zero targets with non-equivalent circuits: cleanly unrectifiable.
#[test]
fn zero_target_nonequivalent_is_unrectifiable() {
    let faulty =
        parse_verilog("module f (a, b, y); input a, b; output y; and g (y, a, b); endmodule")
            .expect("faulty");
    let golden =
        parse_verilog("module g (a, b, y); input a, b; output y; or g (y, a, b); endmodule")
            .expect("golden");
    let inst = EcoInstance::from_netlists("zero2", &faulty, &golden, vec![], &WeightTable::new(1))
        .expect("instance");
    let err = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .unwrap_err();
    assert!(matches!(err, EcoError::Unrectifiable(_)));
}

/// Weight overflow resistance: huge weights sum without panicking.
#[test]
fn huge_weights_are_handled() {
    let (faulty, golden, _) = simple_instance();
    let mut weights = WeightTable::new(u64::MAX / 1_000_000);
    weights.set("b", 1);
    let inst = EcoInstance::from_netlists("huge", &faulty, &golden, vec!["t".into()], &weights)
        .expect("instance");
    let result = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .expect("ok");
    assert!(result.cost >= 1);
    common::assert_patched_equals_golden(&faulty, &golden, &result);
}
