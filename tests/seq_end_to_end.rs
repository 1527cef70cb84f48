//! End-to-end sequential ECO: generate a latch-bearing golden design,
//! cut a fault into a floating target, emit the case through the format
//! hub, read it back from disk, rectify with [`eco::seq::SeqEcoEngine`],
//! and verify the patched design against golden — by a fresh unrolled
//! SAT miter *and* a cycle-accurate simulation cross-check. A second
//! test pins jobs-invariance: the folded sequential patch must be
//! byte-identical for every `jobs` value.

use eco::aig::SplitMix64;
use eco::core::{check_equivalence, EcoOptions, VerifyOutcome};
use eco::sat::SolveCtl;
use eco::seq::hub::{read_design, Format};
use eco::seq::{unroll_miter, write_btor2, SeqEcoEngine, SeqEcoOptions, SeqEcoResult};
use eco::workgen::{gen_seq_unit, write_seq_unit, SeqUnit};

fn some_unit(index: u64) -> SeqUnit {
    (0..64)
        .find_map(|s| gen_seq_unit(index, s, 1))
        .expect("some seed yields a unit")
}

fn rectify(unit: &SeqUnit, jobs: usize) -> SeqEcoResult {
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
}

#[test]
fn disk_round_tripped_case_rectifies_and_verifies() {
    let unit = some_unit(0);
    let dir = std::env::temp_dir().join(format!("eco-seq-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    write_seq_unit(&dir, &unit).expect("unit emits");

    // The engine consumes the on-disk BTOR2 pair, not the in-memory one:
    // the whole parser/writer stack is on the verified path.
    let read = |stem: &str| {
        let path = dir.join(format!("{}_{stem}.btor2", unit.name));
        read_design(Format::Btor2, &std::fs::read(&path).expect("read"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let golden = read("golden");
    let faulty = read("faulty");
    let result = SeqEcoEngine::new(
        faulty,
        golden.clone(),
        unit.targets.clone(),
        unit.weights.clone(),
        SeqEcoOptions {
            frames: unit.frames,
            eco: EcoOptions::default(),
        },
    )
    .expect("valid engine")
    .run()
    .expect("rectifiable by construction");

    // Independent proof: a fresh unrolled miter over the engine's frame
    // count, not the engine's own verdict.
    let (mut miter, pairs) =
        unroll_miter(&result.patched, &golden, unit.frames).expect("miter builds");
    assert_eq!(
        check_equivalence(&mut miter, &pairs, 1 << 30, &SolveCtl::unlimited()).0,
        VerifyOutcome::Equivalent,
        "patched design must match golden over {} frames",
        unit.frames
    );

    // Cycle-accurate simulation cross-check from reset.
    let n_pi = golden.primary_input_positions().len();
    let mut rng = SplitMix64::new(0xe2e);
    for _ in 0..64 {
        let stim: Vec<Vec<bool>> = (0..unit.frames)
            .map(|_| (0..n_pi).map(|_| rng.chance(0.5)).collect())
            .collect();
        assert_eq!(
            golden.simulate(&stim),
            result.patched.simulate(&stim),
            "simulation diverged on {stim:?}"
        );
    }

    // The folded patch is time-invariant: no frame-indexed inputs leak.
    for p in 0..result.patch_aig.num_inputs() {
        let name = result.patch_aig.input_name(p);
        assert!(!name.contains('@'), "frame-indexed patch input `{name}`");
    }
}

#[test]
fn folded_patch_is_jobs_invariant() {
    // Both generator families.
    for index in [0, 1] {
        let unit = some_unit(index);
        let baseline = rectify(&unit, 1);
        for jobs in [2, 4, 0] {
            let other = rectify(&unit, jobs);
            assert_eq!(baseline.cost, other.cost, "jobs={jobs}: cost differs");
            assert_eq!(baseline.size, other.size, "jobs={jobs}: size differs");
            assert_eq!(
                baseline.fold_frames, other.fold_frames,
                "jobs={jobs}: fold frames differ"
            );
            assert_eq!(
                write_btor2(&baseline.patched),
                write_btor2(&other.patched),
                "jobs={jobs}: patched design is not byte-identical"
            );
            assert_eq!(
                format!("{:?}", baseline.patch_aig),
                format!("{:?}", other.patch_aig),
                "jobs={jobs}: patch AIG differs structurally"
            );
        }
    }
}
