//! Property tests over the whole stack. Each property checks a fixed
//! number of inputs drawn from one fixed-seed [`SplitMix64`] (persisted
//! regression inputs first); a failing case names its inputs.

mod common;

use eco::aig::{Aig, Lit, SplitMix64};
use eco::core::{EcoEngine, EcoInstance, EcoOptions, InitialPatchKind};
use eco::netlist::Netlist;
use eco::sat::{ClauseLabel, ClauseSink as _, ItpOutcome, ItpSolver, LabeledSink, Solver};
use eco::workgen::{assign_weights, cut_targets, WeightProfile};

/// Random circuits checked per circuit property.
const CIRCUITS: usize = 64;

/// Seed of every property's generator.
const SEED: u64 = 0x5eed_0f10;

type Ops = Vec<(u8, usize, usize, bool, bool)>;

/// Builds a random AIG over `n_inputs` inputs from a recipe of ops.
fn random_aig(n_inputs: usize, ops: &Ops) -> (Aig, Lit) {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs)
        .map(|i| aig.add_input(format!("x{i}")))
        .collect();
    for &(kind, i, j, ci, cj) in ops {
        let a = nets[i % nets.len()].xor_complement(ci);
        let b = nets[j % nets.len()].xor_complement(cj);
        let w = match kind % 3 {
            0 => aig.and(a, b),
            1 => aig.or(a, b),
            _ => aig.xor(a, b),
        };
        nets.push(w);
    }
    let root = *nets.last().expect("non-empty");
    (aig, root)
}

/// A recipe of 1 to 39 ops with operand picks below 64.
fn draw_ops(rng: &mut SplitMix64) -> Ops {
    (0..rng.range_inclusive(1, 39))
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

/// The input values of exhaustive pattern `bits` over `n` inputs.
fn pattern(bits: u32, n: usize) -> Vec<bool> {
    (0..n).map(|i| bits >> i & 1 == 1).collect()
}

/// Feeds `check` the `pinned` inputs, then `draw`n ones, until `cases`
/// of them met its preconditions (`check` returns `true`). Fails if four
/// times as many inputs do not get there.
fn check_cases<T: Copy>(
    cases: usize,
    pinned: &[T],
    mut draw: impl FnMut(&mut SplitMix64) -> T,
    mut check: impl FnMut(T) -> bool,
) {
    let mut rng = SplitMix64::new(SEED);
    let inputs = pinned
        .iter()
        .copied()
        .chain(std::iter::repeat_with(|| draw(&mut rng)));
    let mut passed = 0;
    for input in inputs.take(4 * cases) {
        passed += usize::from(check(input));
        if passed == cases {
            return;
        }
    }
    panic!(
        "only {passed} of {} inputs met the preconditions",
        4 * cases
    );
}

/// A random DAG over 6 inputs and its wires that drive an output.
fn live_dag(seed: u64, n_gates: usize, n_outputs: usize) -> (Netlist, Vec<String>) {
    let golden = eco::workgen::circuits::random_dag(6, n_gates, n_outputs, seed);
    let e = eco::netlist::elaborate(&golden).expect("generated DAG elaborates");
    let roots: Vec<_> = e.aig.outputs().iter().map(|o| o.lit).collect();
    let cone: std::collections::HashSet<_> = e.aig.cone_vars(&roots).into_iter().collect();
    // Dangling wires are not elaborated at all.
    let live = golden
        .wires
        .iter()
        .filter(|w| e.net_lits.get(*w).is_some_and(|l| cone.contains(&l.var())))
        .cloned()
        .collect();
    (golden, live)
}

/// Cofactor identity: f = (!x & f|x=0) | (x & f|x=1).
#[test]
fn shannon_expansion_holds() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CIRCUITS {
        let ops = draw_ops(&mut rng);
        let pick = rng.index(6);
        let (mut aig, f) = random_aig(6, &ops);
        let x = aig.input_var(pick);
        let f0 = aig.cofactor(&[f], x, false)[0];
        let f1 = aig.cofactor(&[f], x, true)[0];
        let xl = x.pos();
        let lo = aig.and(!xl, f0);
        let hi = aig.and(xl, f1);
        let rebuilt = aig.or(lo, hi);
        aig.add_output("f", f);
        aig.add_output("r", rebuilt);
        for bits in 0u32..64 {
            let vals = pattern(bits, 6);
            let out = aig.eval(&vals);
            assert_eq!(out[0], out[1], "case {case}: {ops:?} x{pick} at {vals:?}");
        }
    }
}

/// Tseitin encoding of a random cone is satisfiable exactly when the
/// function is not constant-false, and models always agree with
/// simulation.
#[test]
fn tseitin_models_satisfy_circuit() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CIRCUITS {
        let ops = draw_ops(&mut rng);
        let (aig, f) = random_aig(6, &ops);
        let mut solver = Solver::new();
        let mut map = std::collections::HashMap::new();
        let roots = eco::sat::encode_cone(&aig, &[f], &mut map, &mut solver);
        solver.add_clause(&[roots[0]]);
        let truth: Vec<bool> = (0..64u32)
            .map(|bits| aig.eval_lit(f, &pattern(bits, 6)))
            .collect();
        let sat = solver.solve(&[]).expect("no budget");
        assert_eq!(sat, truth.contains(&true), "case {case}: {ops:?}");
        if sat {
            let mut bits = 0u32;
            for (pos, &v) in aig.inputs().iter().enumerate() {
                if let Some(&sl) = map.get(&v) {
                    if solver.model_value(sl) == eco::sat::LBool::True {
                        bits |= 1 << pos;
                    }
                }
            }
            assert!(
                truth[bits as usize],
                "case {case}: {ops:?}: model {bits:#b} must satisfy f"
            );
        }
    }
}

/// Interpolation contract on circuit-shaped partitions: for random f,
/// A = Tseitin(f) asserted, B = Tseitin(f') (fresh copy) negated →
/// unsat; the interpolant over shared inputs separates f from !f.
#[test]
fn circuit_interpolants_separate() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CIRCUITS {
        let ops = draw_ops(&mut rng);
        let (aig, f) = random_aig(5, &ops);
        let mut q = ItpSolver::new();
        // Shared input variables.
        let shared: Vec<eco::sat::Lit> = (0..5).map(|_| q.new_var().pos()).collect();
        let seed: std::collections::HashMap<_, _> = aig
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, shared[i]))
            .collect();
        for (label, negate) in [(ClauseLabel::A, false), (ClauseLabel::B, true)] {
            let mut map = seed.clone();
            let mut sink = LabeledSink::new(&mut q, label);
            let r = eco::sat::encode_cone(&aig, &[f], &mut map, &mut sink);
            sink.sink_clause(&[if negate { !r[0] } else { r[0] }]);
        }
        let ItpOutcome::Unsat(itp) = q.solve_limited(u64::MAX).expect("unbounded") else {
            panic!("case {case}: {ops:?}: f & !f must be unsat");
        };
        // The interpolant must equal f on every assignment (A -> I and
        // I -> f since I & !f unsat).
        for bits in 0u32..32 {
            let vals = pattern(bits, 5);
            let mut assignment = vec![false; q.num_vars()];
            for (i, &sl) in shared.iter().enumerate() {
                assignment[sl.var().index() as usize] = vals[i];
            }
            assert_eq!(
                itp.eval(&assignment),
                aig.eval_lit(f, &vals),
                "case {case}: {ops:?} at {vals:?}"
            );
        }
    }
}

/// The headline property: for any generated rectifiable instance, the
/// engine produces a patch whose textual splice into the faulty
/// netlist is equivalent to the golden circuit — under every initial
/// patch kind.
#[test]
fn generated_instances_always_patch() {
    use InitialPatchKind::{Interpolant, NegOffSet, OnSet};
    // (seed, n_gates, n_targets, initial patch kind)
    let pinned = [(0, 12, 1, OnSet), (1268, 27, 3, OnSet)];
    let draw = |rng: &mut SplitMix64| {
        (
            rng.below(5000),
            rng.range_inclusive(12, 59) as usize,
            rng.range_inclusive(1, 3) as usize,
            [OnSet, NegOffSet, Interpolant][rng.index(3)],
        )
    };
    check_cases(12, &pinned, draw, |(seed, n_gates, n_targets, initial)| {
        let ctx = format!("seed {seed}, n_gates {n_gates}, n_targets {n_targets}, {initial:?}");
        let (golden, live) = live_dag(seed, n_gates, 3);
        if live.len() < n_targets {
            return false;
        }
        let step = (live.len() / n_targets).max(1);
        let targets: Vec<String> = live.iter().step_by(step).take(n_targets).cloned().collect();
        let faulty = cut_targets(&golden, &targets).expect("targets are driven");
        let weights = assign_weights(&faulty, WeightProfile::Uniform { lo: 1, hi: 30 }, seed);
        let instance = EcoInstance::from_netlists("prop", &faulty, &golden, targets, &weights)
            .expect("valid instance");
        let options = EcoOptions {
            initial_patch: initial,
            ..Default::default()
        };
        let result = EcoEngine::new(instance, options)
            .run()
            .unwrap_or_else(|e| panic!("{ctx}: rectifiable by construction, got {e}"));
        let spliced = std::panic::catch_unwind(|| {
            common::assert_patched_equals_golden(&faulty, &golden, &result);
        });
        assert!(
            spliced.is_ok(),
            "{ctx}: patched netlist differs from golden"
        );
        true
    });
}

/// Failure injection: breaking an output outside every target cone
/// must always be *detected* — the engine reports Unrectifiable and
/// never emits a bogus "verified" patch.
#[test]
fn broken_instances_are_always_rejected() {
    let draw = |rng: &mut SplitMix64| (rng.below(1000), rng.range_inclusive(20, 49) as usize);
    check_cases(10, &[], draw, |(seed, n_gates)| {
        let (golden, live) = live_dag(seed, n_gates, 4);
        let Some(target) = live.get(live.len() / 2) else {
            return false;
        };
        let targets = vec![target.clone()];
        let mut faulty = cut_targets(&golden, &targets).expect("targets are driven");
        if eco::workgen::break_untouched_output(&mut faulty, &golden, &targets, seed).is_none() {
            return false;
        }
        let weights = assign_weights(&faulty, WeightProfile::Unit, seed);
        let instance = EcoInstance::from_netlists("broken", &faulty, &golden, targets, &weights)
            .expect("valid instance");
        let err = EcoEngine::new(instance, EcoOptions::default()).run().err();
        assert!(
            matches!(err, Some(eco::core::EcoError::Unrectifiable(_))),
            "seed {seed}, n_gates {n_gates}: broken instance must be rejected, got {err:?}"
        );
        true
    });
}
