//! Property tests for FRAIG sweeping: soundness of reported equivalence
//! classes and semantics preservation of reduction. Each property checks
//! `CASES` random recipes drawn from one fixed-seed [`SplitMix64`]; a
//! failing case names its index and its recipe.

use eco_aig::{Aig, Lit, SplitMix64};
use eco_fraig::{fraig_classes, fraig_reduce, FraigOptions};

/// Recipes checked per property.
const CASES: usize = 48;

/// Seed of every property's generator.
const SEED: u64 = 0x5eed_f4a1;

type Recipe = Vec<(u8, usize, usize, bool, bool)>;

fn build(n_inputs: usize, recipe: &Recipe) -> Aig {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs)
        .map(|i| aig.add_input(format!("x{i}")))
        .collect();
    for &(op, i, j, ci, cj) in recipe {
        let a = nets[i % nets.len()].xor_complement(ci);
        let b = nets[j % nets.len()].xor_complement(cj);
        let w = match op % 3 {
            0 => aig.and(a, b),
            1 => aig.or(a, b),
            _ => aig.xor(a, b),
        };
        nets.push(w);
    }
    // Register several outputs so sweeping covers interesting cones.
    let n = nets.len();
    for (k, &lit) in nets[n.saturating_sub(3)..].iter().enumerate() {
        aig.add_output(format!("o{k}"), lit);
    }
    aig
}

/// A recipe of 4 to 59 steps with operand picks below 64.
fn draw_recipe(rng: &mut SplitMix64) -> Recipe {
    (0..rng.range_inclusive(4, 59))
        .map(|_| {
            (
                rng.next_u64() as u8,
                rng.index(64),
                rng.index(64),
                rng.chance(0.5),
                rng.chance(0.5),
            )
        })
        .collect()
}

/// The 64 exhaustive input patterns over 6 inputs.
fn patterns() -> impl Iterator<Item = Vec<bool>> {
    (0u32..64).map(|bits| (0..6).map(|i| bits >> i & 1 == 1).collect())
}

/// Every reported equivalence is semantically true (checked
/// exhaustively over 6 inputs).
#[test]
fn classes_are_sound() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let aig = build(6, &recipe);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        for class in &classes.classes {
            for &(v, phase) in &class.members {
                for vals in patterns() {
                    let rep = aig.eval_lit(class.repr.pos(), &vals);
                    let mem = aig.eval_lit(v.pos(), &vals);
                    assert_eq!(
                        mem,
                        rep ^ phase,
                        "case {case}: {recipe:?}: class {:?}: member {v:?} phase {phase} at {vals:?}",
                        class.repr
                    );
                }
            }
        }
    }
}

/// Reduction preserves all output functions and never grows the AIG.
#[test]
fn reduce_preserves_outputs() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let aig = build(6, &recipe);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        let reduced = fraig_reduce(&aig, &classes);
        assert!(
            reduced.num_ands() <= aig.num_ands(),
            "case {case}: {recipe:?}"
        );
        for vals in patterns() {
            assert_eq!(
                aig.eval(&vals),
                reduced.eval(&vals),
                "case {case}: {recipe:?} at {vals:?}"
            );
        }
    }
}
