//! Determinism regression: the per-cluster patch-generation stage runs on
//! scoped worker threads when `jobs > 1`, but merges in cluster order, so
//! every `jobs` value must produce *identical* results — same cost, same
//! size, same per-target base sets, byte-identical patch AIG.

mod common;

use eco::core::{
    Budget, BudgetOptions, ClusterDiagnosis, EcoEngine, EcoOptions, EcoOutcome, EcoResult,
};
use eco::workgen::contest_suite;

fn run_with_jobs(inst: &eco::core::EcoInstance, jobs: usize) -> EcoResult {
    EcoEngine::new(
        inst.clone(),
        EcoOptions {
            jobs,
            ..Default::default()
        },
    )
    .run()
    .expect("rectifiable")
}

fn assert_identical(unit: &str, seq: &EcoResult, par: &EcoResult) {
    assert_eq!(seq.cost, par.cost, "{unit}: cost differs");
    assert_eq!(seq.size, par.size, "{unit}: size differs");
    assert_eq!(
        seq.patches.len(),
        par.patches.len(),
        "{unit}: patch count differs"
    );
    for (a, b) in seq.patches.iter().zip(&par.patches) {
        assert_eq!(a.target, b.target, "{unit}: target order differs");
        assert_eq!(a.base, b.base, "{unit}: base set differs for {}", a.target);
        assert_eq!(
            a.size, b.size,
            "{unit}: patch size differs for {}",
            a.target
        );
    }
    assert_eq!(
        format!("{:?}", seq.patch_aig),
        format!("{:?}", par.patch_aig),
        "{unit}: patch AIG differs structurally"
    );
}

/// Multi-cluster units from the synthetic contest suite, jobs=1 vs jobs=4.
#[test]
fn parallel_patchgen_is_deterministic() {
    let subset = ["unit02", "unit04", "unit06", "unit10", "unit12"];
    let mut checked = 0;
    for unit in contest_suite() {
        if !subset.contains(&unit.spec.name.as_str()) {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let seq = run_with_jobs(&inst, 1);
        let par = run_with_jobs(&inst, 4);
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &par);
        assert_identical(&unit.spec.name, &seq, &par);
        assert!(
            par.telemetry.jobs >= 1 && par.telemetry.clusters >= 1,
            "{}: telemetry must record the flow shape",
            unit.spec.name
        );
        checked += 1;
    }
    assert_eq!(checked, subset.len(), "suite units went missing");
}

/// Degradation must be jobs-independent too: under a fixed conflict
/// budget (no wall clock), the patched-vs-exhausted cluster split and the
/// merged partial patches are identical for `--jobs 1` and `--jobs 4`,
/// because conflict accounting is worker-local and charged with
/// deterministic SAT conflict counts.
#[test]
fn degradation_is_jobs_independent() {
    let run_governed = |inst: &eco::core::EcoInstance, jobs: usize, conflicts: u64| {
        let budget = Budget::new(&BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(conflicts),
        });
        EcoEngine::new(
            inst.clone(),
            EcoOptions {
                jobs,
                ..Default::default()
            },
        )
        .run_governed(&budget)
        .expect("governed runs degrade, they do not error")
    };
    let unit = contest_suite()
        .into_iter()
        .find(|u| u.spec.name == "unit06")
        .expect("unit06 exists");
    let inst = unit.instance().expect("valid instance");
    // A zero allowance exhausts every cluster up front; a generous one
    // completes. Either way jobs=1 and jobs=4 must agree exactly.
    for conflicts in [0, 1 << 30] {
        let seq = run_governed(&inst, 1, conflicts);
        let par = run_governed(&inst, 4, conflicts);
        match (&seq, &par) {
            (EcoOutcome::Complete(a), EcoOutcome::Complete(b)) => {
                assert_identical("unit06-governed", a, b);
            }
            (EcoOutcome::Partial(a), EcoOutcome::Partial(b)) => {
                assert_eq!(a.reason, b.reason, "degradation reason differs");
                assert_eq!(a.clusters.len(), b.clusters.len());
                for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                    assert_eq!(ca.targets, cb.targets, "cluster order differs");
                    assert_eq!(
                        ca.diagnosis, cb.diagnosis,
                        "diagnosis differs for {:?}",
                        ca.targets
                    );
                }
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.size, b.size);
                assert_eq!(
                    format!("{:?}", a.patch_aig),
                    format!("{:?}", b.patch_aig),
                    "partial patch AIG differs structurally"
                );
            }
            _ => panic!("jobs=1 and jobs=4 disagree on complete-vs-partial"),
        }
        if conflicts == 0 {
            let EcoOutcome::Partial(p) = &seq else {
                panic!("a zero allowance must degrade");
            };
            assert!(p
                .clusters
                .iter()
                .all(|c| c.diagnosis == ClusterDiagnosis::BudgetExhausted));
        } else {
            assert!(
                matches!(seq, EcoOutcome::Complete(_)),
                "a generous allowance must complete"
            );
        }
    }
}

fn run_with_precheck(inst: &eco::core::EcoInstance, precheck: bool, jobs: usize) -> EcoResult {
    EcoEngine::new(
        inst.clone(),
        EcoOptions {
            jobs,
            precheck_rectifiability: precheck,
            ..Default::default()
        },
    )
    .run()
    .expect("rectifiable")
}

/// The Eq.-2 precheck (2QBF CEGAR) runs on a scratch workspace, so it
/// must be invisible in the results: with the precheck on, `jobs` 1 and 4
/// agree exactly, the patch rectifies, and the result equals a
/// precheck-off run. Its solvers must still be recorded in the telemetry.
#[test]
fn precheck_is_deterministic() {
    let subset = ["unit04", "unit06"];
    let mut checked = 0;
    for unit in contest_suite() {
        if !subset.contains(&unit.spec.name.as_str()) {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let off = run_with_precheck(&inst, false, 1);
        let seq = run_with_precheck(&inst, true, 1);
        let par = run_with_precheck(&inst, true, 4);
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &par);
        assert_identical(&unit.spec.name, &seq, &par);
        assert_identical(&unit.spec.name, &off, &seq);
        assert!(
            seq.telemetry.sat.solvers > off.telemetry.sat.solvers,
            "{}: precheck solvers not recorded ({} with it, {} without)",
            unit.spec.name,
            seq.telemetry.sat.solvers,
            off.telemetry.sat.solvers
        );
        checked += 1;
    }
    assert_eq!(checked, subset.len(), "suite units went missing");
}

/// The sequential flow (`eco-patch --unroll`) must be jobs-invariant
/// end to end: the unrolled combinational stage runs on worker threads,
/// but the folded sequential patch — and the emitted BTOR2 of the
/// patched design — is byte-identical for every `jobs` value.
#[test]
fn unrolled_seq_eco_is_jobs_invariant() {
    use eco::core::EcoOptions;
    use eco::seq::{write_btor2, SeqEcoEngine, SeqEcoOptions};
    use eco::workgen::gen_seq_unit;

    let unit = (0..64)
        .find_map(|s| gen_seq_unit(0, s, 1))
        .expect("some seed yields a unit");
    let run = |jobs: usize| {
        SeqEcoEngine::new(
            unit.faulty.clone(),
            unit.golden.clone(),
            unit.targets.clone(),
            unit.weights.clone(),
            SeqEcoOptions {
                frames: unit.frames,
                eco: EcoOptions {
                    jobs,
                    ..Default::default()
                },
            },
        )
        .expect("valid engine")
        .run()
        .expect("rectifiable by construction")
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.cost, par.cost, "seq ECO cost differs across jobs");
    assert_eq!(seq.size, par.size, "seq ECO size differs across jobs");
    assert_eq!(seq.fold_frames, par.fold_frames, "fold frames differ");
    assert_eq!(
        write_btor2(&seq.patched),
        write_btor2(&par.patched),
        "patched BTOR2 output is not byte-identical across jobs"
    );
}

/// `jobs: 0` (auto) must agree with explicit sequential execution too.
#[test]
fn auto_jobs_matches_sequential() {
    for unit in contest_suite() {
        if unit.spec.name != "unit06" {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let seq = run_with_jobs(&inst, 1);
        let auto = run_with_jobs(&inst, 0);
        assert_identical(&unit.spec.name, &seq, &auto);
    }
}
