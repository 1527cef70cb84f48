//! Table-2-shape reproduction as a test: on the synthetic contest suite,
//! the cost-aware engine must (a) always produce verified patches and
//! (b) beat the PI-support baseline on every difficult unit.
//!
//! The full 20-unit sweep lives in `cargo run -p eco-bench --bin table2`;
//! this test pins the *shape* on a fast subset so regressions surface in
//! `cargo test`.

mod common;

use eco::aig::write_aiger_ascii;
use eco::batch::{load_job_instance, JobSpec};
use eco::core::{EcoEngine, EcoOptions};
use eco::workgen::{contest_suite, write_unit};

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
    fnv1a64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a-64 digest `h` over `bytes`.
fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
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

/// Loading must not move the instance. Every suite unit, written to disk
/// and read back through `load_job_instance` (the path eco-batch and
/// eco-serve take), keeps the key half of its faulty and golden
/// structural fingerprints and an FNV-1a-64 over its candidate list
/// (name, literal code, weight). AIG node order is a byte-identity
/// contract: node numbering feeds the memo key and the solver's variable
/// numbering, so this pin fails before either would show a change.
#[test]
fn instances_are_pinned() {
    let pinned: &[(&str, u128, u128, u64)] = &[
        (
            "unit01",
            0xca99_1343_b632_03f1_03f7_95df_41a3_6144,
            0x0707_8cd7_b3c3_605b_7a13_d3b4_2802_8959,
            0xf71c_4130_827e_5bb4,
        ),
        (
            "unit02",
            0x37d2_3604_bf33_61c6_548e_b956_8d0f_4315,
            0xb5fb_91b1_ac21_c412_cf9d_5737_84d6_ca1f,
            0x9873_fcff_f40c_daa2,
        ),
        (
            "unit03",
            0xf41c_7123_24ac_c216_b48e_7ab3_89d0_9947,
            0xe6f4_e08f_21ff_e7f4_ef86_dca7_426a_700f,
            0xd27d_a1c3_c400_724a,
        ),
        (
            "unit04",
            0xf494_8be0_8053_816c_8595_0c9c_2a95_1c52,
            0x94a8_b384_2467_f724_8f19_5991_e897_82cd,
            0x76bc_b9c7_092c_1d9c,
        ),
        (
            "unit05",
            0x8d14_155c_7868_ebfc_f8bc_739a_180d_9af2,
            0x1e20_5cf6_92f6_d450_f638_2995_2658_546c,
            0xd9a6_8e9e_3417_7d94,
        ),
        (
            "unit06",
            0xcf1f_be6d_6b3c_a163_ca75_3097_e51e_0b9a,
            0x9948_7d87_df10_4fbb_8f1a_c758_6b9a_fed2,
            0x5d47_417f_e655_63e6,
        ),
        (
            "unit07",
            0x5f4c_e9c5_7626_637d_3617_cd37_a45f_78cf,
            0x7185_0064_0e1f_180c_ea7e_5fd1_7055_0a17,
            0xf939_544a_1e67_808b,
        ),
        (
            "unit08",
            0x51ed_d52f_08c4_0de9_0145_e86e_aea4_16df,
            0x11f3_fd12_b746_2217_11f6_ad08_d04e_01f1,
            0xaaf9_400b_9317_ef82,
        ),
        (
            "unit09",
            0x5ab9_3f1b_3072_d150_f742_1dd7_c537_b011,
            0xbf14_b46b_0c53_f04f_01bc_cd1d_14b8_4fc3,
            0xbdb0_03b7_6095_4458,
        ),
        (
            "unit10",
            0x5aa5_4f3f_ae00_32db_3c5a_40a1_b4d0_c1ef,
            0xa72f_0210_8fb6_176c_26fa_c533_52e8_ed2f,
            0xeff8_ae17_5cca_ce9f,
        ),
        (
            "unit11",
            0x4993_058c_5fa1_46bb_55a8_23c8_ebf4_64fe,
            0x9665_634f_47e7_7bd5_5449_be5f_9e57_a071,
            0x57b7_5524_46bb_c16f,
        ),
        (
            "unit12",
            0xbc10_c3a0_41b2_f8d0_6904_2b71_1efa_2b62,
            0x48d2_6376_2d89_ab45_4394_c1ca_b97a_8423,
            0x2ec9_b8ab_ab80_9ae0,
        ),
        (
            "unit13",
            0xee5d_4aca_0c1b_5546_3980_ad5e_1fb4_3ff7,
            0x7655_0b8e_4d7a_5ab5_9b62_ff91_8eb6_2a90,
            0x7fb8_e9e9_f638_6b82,
        ),
        (
            "unit14",
            0x3b8a_950f_d0ee_d301_4b2a_a6f1_eace_2b96,
            0x93d8_fa11_c593_2037_3f9d_fc42_d819_13f8,
            0xd554_12dd_3654_de6d,
        ),
        (
            "unit15",
            0xd7d9_f487_7677_6448_c9f1_e1bb_71d8_f79f,
            0x9623_0b3d_9452_854f_81a9_eff4_4060_8f2a,
            0x620a_c250_cd24_65d1,
        ),
        (
            "unit16",
            0x09e0_8d85_ff31_7eab_f46a_a96c_7846_d9b4,
            0x2a48_3598_987a_24da_1a44_31ec_d430_651e,
            0x8619_7333_9905_ef57,
        ),
        (
            "unit17",
            0xa987_4276_6177_4786_955b_7827_377e_257e,
            0xec0a_5e37_d4af_416a_9137_efbb_173f_59b0,
            0x98a5_bd92_d498_8ce0,
        ),
        (
            "unit18",
            0x092d_7226_a421_bfb0_930b_cfdd_235f_c55c,
            0x4c0d_70a3_0c0e_983d_45ba_d8bc_a8f8_e6ae,
            0x160f_a007_973a_a7dc,
        ),
        (
            "unit19",
            0x17a9_fc73_42ec_3600_f9e3_de0d_5c70_f580,
            0x5030_df78_c1fd_7320_00e1_44d4_b50b_ef5c,
            0x4d3a_c779_56fb_68e2,
        ),
        (
            "unit20",
            0x20b4_973b_b991_8367_500f_d07d_254d_d013,
            0x1e20_5cf6_92f6_d450_f638_2995_2658_546c,
            0x68ea_03ec_f105_7264,
        ),
    ];
    let dir = std::env::temp_dir().join(format!("eco_instances_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut got = Vec::new();
    for unit in contest_suite() {
        let entry = write_unit(&dir, &unit).expect("write unit files");
        let spec = JobSpec {
            name: entry.name,
            faulty: dir.join(entry.faulty),
            golden: dir.join(entry.golden),
            weights: Some(dir.join(entry.weights)),
            targets: entry.targets,
            budget: None,
        };
        let inst = load_job_instance(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let candidates = inst.candidates.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
            let h = fnv1a64_from(h, c.name.as_bytes());
            let h = fnv1a64_from(h, &c.lit.code().to_le_bytes());
            fnv1a64_from(h, &c.weight.to_le_bytes())
        });
        got.push((
            spec.name,
            inst.faulty.structural_fingerprint().0,
            inst.golden.structural_fingerprint().0,
            candidates,
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let want: Vec<(String, u128, u128, u64)> = pinned
        .iter()
        .map(|&(n, f, g, c)| (n.to_string(), f, g, c))
        .collect();
    assert_eq!(got, want, "loaded instances moved");
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
