//! Table-2-shape reproduction as a test: on the synthetic contest suite,
//! the cost-aware engine must (a) always produce verified patches and
//! (b) beat the PI-support baseline on every difficult unit.
//!
//! The full 20-unit sweep lives in `cargo run -p eco-bench --bin table2`;
//! this test pins the *shape* on a fast subset so regressions surface in
//! `cargo test`.

mod common;

use eco::aig::write_aiger_ascii;
use eco::core::{EcoEngine, EcoOptions};
use eco::workgen::contest_suite;

fn fast_subset() -> Vec<&'static str> {
    vec![
        "unit01", "unit02", "unit03", "unit04", "unit06", "unit10", "unit12", "unit15",
    ]
}

#[test]
fn suite_units_patch_and_verify() {
    for unit in contest_suite() {
        if !fast_subset().contains(&unit.spec.name.as_str()) {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
    }
}

/// FNV-1a, 64-bit: a stable digest of the emitted patch bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts `(cost, size, FNV-1a-64 of the ASCII AIGER patch)` of every
/// pinned unit under `options`.
fn assert_pinned(options: EcoOptions, pinned: &[(&str, u64, usize, u64)]) {
    for unit in contest_suite() {
        let Some(&(name, cost, size, digest)) = pinned.iter().find(|p| p.0 == unit.spec.name)
        else {
            continue;
        };
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, options.clone())
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let bytes = write_aiger_ascii(&result.patch_aig);
        assert_eq!(
            (result.cost, result.size, fnv1a64(bytes.as_bytes())),
            (cost, size, digest),
            "{name}: (cost, size, patch digest) moved"
        );
    }
}

/// Speed work must not move the output: cost, size and the ASCII AIGER
/// bytes of the patch stay pinned on the fast subset plus unit17 (the
/// slowest unit) and unit19.
#[test]
fn patch_bytes_are_pinned() {
    assert_pinned(
        EcoOptions::default(),
        &[
            ("unit01", 2, 3, 0x11d6_cbd0_4997_1181),
            ("unit02", 10, 0, 0xcc7e_001d_2545_7d11),
            ("unit03", 33, 0, 0x168c_ebbf_b02d_c890),
            ("unit04", 60, 1, 0x4bac_a42d_f945_f76a),
            ("unit06", 10, 4, 0x37c2_4e76_b162_451b),
            ("unit10", 14, 6, 0x78d2_8415_0168_905a),
            ("unit12", 36, 0, 0xbaf4_05c5_b6b8_9086),
            ("unit15", 8, 1, 0x0689_cd40_6a78_753f),
            ("unit17", 53, 7, 0x39ea_603b_78f7_f295),
            ("unit19", 14, 6, 0xe726_5bf9_cca0_209f),
        ],
    );
}

/// The same pins for the PI-only baseline (no localization, no cost
/// optimization), so simplifying the engine's settings cannot move the
/// baseline column of Table 2 either.
#[test]
fn baseline_patch_bytes_are_pinned() {
    assert_pinned(
        EcoOptions::baseline(),
        &[
            ("unit01", 4, 9, 0x8902_b47f_29ef_a748),
            ("unit02", 20, 0, 0x1646_31c1_fe3f_449c),
            ("unit03", 59, 3, 0x796b_4ee7_f29c_c980),
            ("unit04", 60, 1, 0x4bac_a42d_f945_f76a),
            ("unit06", 600, 19, 0xe905_ca8d_0b77_2c90),
            ("unit10", 700, 27, 0xdde2_5014_3620_9048),
            ("unit12", 1137, 59, 0xe28d_bb80_4b98_01d9),
            ("unit15", 425, 45, 0xf4f1_79a8_c945_c9e4),
            ("unit17", 145, 97, 0x92eb_c2e2_9f31_fa9d),
            ("unit19", 1400, 27, 0xc8ec_59e1_2d59_a890),
        ],
    );
}

#[test]
fn difficult_units_beat_baseline_on_cost_and_size() {
    for unit in contest_suite() {
        if !unit.spec.difficult {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let ours = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        let baseline = EcoEngine::new(inst, EcoOptions::baseline())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &baseline);
        assert!(
            ours.cost * 2 <= baseline.cost,
            "{}: ours {} vs baseline {} — expected a decisive cost win on a difficult unit",
            unit.spec.name,
            ours.cost,
            baseline.cost
        );
        assert!(
            ours.size <= baseline.size,
            "{}: patch size {} vs baseline {}",
            unit.spec.name,
            ours.size,
            baseline.size
        );
    }
}

#[test]
fn baseline_is_also_sound() {
    for unit in contest_suite() {
        if !matches!(unit.spec.name.as_str(), "unit01" | "unit05" | "unit09") {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, EcoOptions::baseline())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
    }
}

/// Regression: unit17's shape (many targets, no localization, adaptive
/// interpolation kicking in) once produced an unsound interpolant through
/// over-eager conflict-clause minimization. Pin the whole path.
#[test]
fn many_target_unlocalized_adaptive_interpolation_is_sound() {
    let unit = contest_suite()
        .into_iter()
        .find(|u| u.spec.name == "unit17")
        .expect("unit17");
    let inst = unit.instance().expect("valid");
    let baseline = EcoEngine::new(inst, EcoOptions::baseline())
        .run()
        .expect("rectifiable by construction");
    common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &baseline);
}

/// Stress units (bigger multiplier/shifter/datapath workloads) all patch
/// and verify under the default configuration.
#[test]
#[ignore = "heavier workloads; run with `cargo test -- --ignored`"]
fn stress_suite_patches_and_verifies() {
    for unit in eco::workgen::stress_suite() {
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
    }
}

/// The cheapest stress unit runs un-ignored as a smoke check.
#[test]
fn stress_smoke_unit() {
    let unit = eco::workgen::stress_suite()
        .into_iter()
        .find(|u| u.spec.name == "stress05")
        .expect("stress05");
    let inst = unit.instance().expect("valid instance");
    let result = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .expect("rectifiable");
    common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
}
