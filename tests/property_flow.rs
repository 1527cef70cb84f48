// Needs the external `proptest` crate; compiled out by default so the
// workspace builds offline. Enable with `--features proptest` (see Cargo.toml).
#![cfg(feature = "proptest")]

//! Property-based tests over the whole stack (proptest).

mod common;

use eco::aig::{Aig, Lit};
use eco::core::{EcoEngine, EcoInstance, EcoOptions, InitialPatchKind};
use eco::sat::{ClauseLabel, ItpOutcome, ItpSolver, Solver};
use eco::workgen::{assign_weights, cut_targets, WeightProfile};
use proptest::prelude::*;

/// Builds a random AIG over `n_inputs` inputs from a recipe of ops.
fn random_aig(n_inputs: usize, ops: &[(u8, usize, usize, bool, bool)]) -> (Aig, Lit) {
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

fn op_strategy() -> impl Strategy<Value = Vec<(u8, usize, usize, bool, bool)>> {
    prop::collection::vec(
        (
            any::<u8>(),
            0..64usize,
            0..64usize,
            any::<bool>(),
            any::<bool>(),
        ),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cofactor identity: f = (!x & f|x=0) | (x & f|x=1).
    #[test]
    fn shannon_expansion_holds(ops in op_strategy(), pick in 0..6usize) {
        let (mut aig, f) = random_aig(6, &ops);
        let x = aig.input_var(pick % 6);
        let f0 = aig.cofactor(&[f], x, false)[0];
        let f1 = aig.cofactor(&[f], x, true)[0];
        let xl = x.pos();
        let lo = aig.and(!xl, f0);
        let hi = aig.and(xl, f1);
        let rebuilt = aig.or(lo, hi);
        aig.add_output("f", f);
        aig.add_output("r", rebuilt);
        for bits in 0u32..64 {
            let vals: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            let out = aig.eval(&vals);
            prop_assert_eq!(out[0], out[1], "at {:?}", vals);
        }
    }

    /// Tseitin encoding of a random cone is satisfiable exactly when the
    /// function is not constant-false, and models always agree with
    /// simulation.
    #[test]
    fn tseitin_models_satisfy_circuit(ops in op_strategy()) {
        let (aig, f) = random_aig(6, &ops);
        let mut solver = Solver::new();
        let mut map = std::collections::HashMap::new();
        let roots = eco::sat::encode_cone(&aig, &[f], &mut map, &mut solver);
        solver.add_clause(&[roots[0]]);
        let truth: Vec<bool> = (0..64u32)
            .map(|bits| {
                let vals: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
                aig.eval_lit(f, &vals)
            })
            .collect();
        let any_true = truth.iter().any(|&b| b);
        let sat = solver.solve(&[]).expect("no budget");
        prop_assert_eq!(sat, any_true);
        if sat {
            let mut bits = 0u32;
            for (pos, &v) in aig.inputs().iter().enumerate() {
                if let Some(&sl) = map.get(&v) {
                    if solver.model_value(sl) == eco::sat::LBool::True {
                        bits |= 1 << pos;
                    }
                }
            }
            prop_assert!(truth[bits as usize], "model must satisfy f");
        }
    }

    /// Interpolation contract on circuit-shaped partitions: for random f,
    /// A = Tseitin(f) asserted, B = Tseitin(f') (fresh copy) negated →
    /// unsat; the interpolant over shared inputs separates f from !f.
    #[test]
    fn circuit_interpolants_separate(ops in op_strategy()) {
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
        {
            let mut map = seed.clone();
            let mut sink = eco::sat::LabeledSink::new(&mut q, ClauseLabel::A);
            let r = eco::sat::encode_cone(&aig, &[f], &mut map, &mut sink);
            use eco::sat::ClauseSink as _;
            sink.sink_clause(&[r[0]]);
        }
        {
            let mut map = seed.clone();
            let mut sink = eco::sat::LabeledSink::new(&mut q, ClauseLabel::B);
            let r = eco::sat::encode_cone(&aig, &[f], &mut map, &mut sink);
            use eco::sat::ClauseSink as _;
            sink.sink_clause(&[!r[0]]);
        }
        let itp = match q.solve_limited(u64::MAX).expect("unbounded") {
            ItpOutcome::Unsat(itp) => itp,
            ItpOutcome::Sat(_) => return Err(TestCaseError::fail("f & !f must be unsat")),
        };
        // The interpolant must equal f on every assignment (A -> I and
        // I -> f since I & !f unsat).
        for bits in 0u32..32 {
            let vals: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let mut assignment = vec![false; q.num_vars()];
            for (i, &sl) in shared.iter().enumerate() {
                assignment[sl.var().index() as usize] = vals[i];
            }
            prop_assert_eq!(
                itp.eval(&assignment),
                aig.eval_lit(f, &vals),
                "at {:?}", vals
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for any generated rectifiable instance, the
    /// engine produces a patch whose textual splice into the faulty
    /// netlist is equivalent to the golden circuit — under every initial
    /// patch kind.
    #[test]
    fn generated_instances_always_patch(
        seed in 0u64..5000,
        n_gates in 12usize..60,
        n_targets in 1usize..4,
        initial in prop::sample::select(vec![
            InitialPatchKind::OnSet,
            InitialPatchKind::NegOffSet,
            InitialPatchKind::Interpolant,
        ]),
    ) {
        let golden = eco::workgen::circuits::random_dag(6, n_gates, 3, seed);
        // Pick targets among wires feeding outputs.
        let live: Vec<String> = {
            let e = eco::netlist::elaborate(&golden).expect("elab");
            let roots: Vec<_> = e.aig.outputs().iter().map(|o| o.lit).collect();
            let sup_cone: std::collections::HashSet<_> =
                e.aig.cone_vars(&roots).into_iter().collect();
            golden
                .wires
                .iter()
                .filter(|w| {
                    // Dangling wires are not elaborated at all.
                    e.net_lits
                        .get(*w)
                        .is_some_and(|l| sup_cone.contains(&l.var()))
                })
                .cloned()
                .collect()
        };
        prop_assume!(live.len() >= n_targets);
        let step = (live.len() / n_targets).max(1);
        let targets: Vec<String> = live.iter().step_by(step).take(n_targets).cloned().collect();
        let faulty = cut_targets(&golden, &targets).expect("targets are driven");
        let weights = assign_weights(&faulty, WeightProfile::Uniform { lo: 1, hi: 30 }, seed);
        let instance = EcoInstance::from_netlists(
            "prop", &faulty, &golden, targets, &weights,
        ).expect("valid instance");
        let options = EcoOptions { initial_patch: initial, ..Default::default() };
        let result = EcoEngine::new(instance, options).run().expect("rectifiable by construction");
        common::assert_patched_equals_golden(&faulty, &golden, &result);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Failure injection: breaking an output outside every target cone
    /// must always be *detected* — the engine reports Unrectifiable and
    /// never emits a bogus "verified" patch.
    #[test]
    fn broken_instances_are_always_rejected(seed in 0u64..1000, n_gates in 20usize..50) {
        let golden = eco::workgen::circuits::random_dag(6, n_gates, 4, seed);
        let live: Vec<String> = {
            let e = eco::netlist::elaborate(&golden).expect("elab");
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
        let mut faulty = cut_targets(&golden, &targets).expect("targets are driven");
        let broke = eco::workgen::break_untouched_output(&mut faulty, &golden, &targets, seed);
        prop_assume!(broke.is_some());
        let weights = assign_weights(&faulty, WeightProfile::Unit, seed);
        let instance = EcoInstance::from_netlists(
            "broken", &faulty, &golden, targets, &weights,
        ).expect("valid instance");
        let err = EcoEngine::new(instance, EcoOptions::default())
            .run()
            .expect_err("broken instance must be rejected");
        prop_assert!(matches!(err, eco::core::EcoError::Unrectifiable(_)), "{err}");
    }
}
