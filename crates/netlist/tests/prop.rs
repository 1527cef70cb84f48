//! Property tests: writer/parser round trips and elaboration semantics on
//! randomly generated netlists. Each property checks `CASES` random
//! recipes drawn from one fixed-seed [`SplitMix64`]; a failing case names
//! its index and its recipe.

use eco_aig::SplitMix64;
use eco_netlist::{elaborate, parse_verilog, write_verilog, Gate, GateKind, NetRef, Netlist};

/// Recipes checked per property.
const CASES: usize = 96;

/// Seed of every property's generator.
const SEED: u64 = 0x5eed_ae71;

/// A random flat netlist recipe: gate kinds and operand picks.
type Recipe = Vec<(u8, usize, usize)>;

fn build(n_inputs: usize, recipe: &Recipe) -> Netlist {
    let mut nl = Netlist::new("m");
    let mut nets: Vec<String> = (0..n_inputs).map(|i| format!("i{i}")).collect();
    nl.inputs = nets.clone();
    for (k, &(kind, a, b)) in recipe.iter().enumerate() {
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];
        let kind = kinds[kind as usize % kinds.len()];
        let out = format!("w{k}");
        let mut inputs = vec![NetRef::named(nets[a % nets.len()].clone())];
        if !matches!(kind, GateKind::Not | GateKind::Buf) {
            inputs.push(NetRef::named(nets[b % nets.len()].clone()));
        }
        nl.wires.push(out.clone());
        nl.gates.push(Gate {
            kind,
            name: None,
            output: out.clone(),
            inputs,
        });
        nets.push(out);
    }
    let last = nets.last().expect("non-empty").clone();
    nl.outputs.push("y".into());
    nl.gates.push(Gate {
        kind: GateKind::Buf,
        name: None,
        output: "y".into(),
        inputs: vec![NetRef::named(last)],
    });
    nl
}

/// A recipe of 1 to 39 gates with operand picks below 64.
fn draw_recipe(rng: &mut SplitMix64) -> Recipe {
    (0..rng.range_inclusive(1, 39))
        .map(|_| (rng.next_u64() as u8, rng.index(64), rng.index(64)))
        .collect()
}

/// The input values of exhaustive pattern `bits` over `n` inputs.
fn pattern(bits: u32, n: usize) -> Vec<bool> {
    (0..n).map(|i| bits >> i & 1 == 1).collect()
}

/// write → parse is the identity on semantics.
#[test]
fn write_parse_round_trip() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let nl = build(5, &recipe);
        let text = write_verilog(&nl);
        let back = parse_verilog(&text).expect("written netlist parses");
        let e1 = elaborate(&nl).expect("original elaborates");
        let e2 = elaborate(&back).expect("round trip elaborates");
        for bits in 0u32..32 {
            let vals = pattern(bits, 5);
            assert_eq!(
                e1.aig.eval(&vals),
                e2.aig.eval(&vals),
                "case {case}: {recipe:?} at {vals:?}"
            );
        }
    }
}

/// netlist → AIG → netlist preserves semantics.
#[test]
fn aig_round_trip() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let nl = build(5, &recipe);
        let e1 = elaborate(&nl).expect("elaborates");
        let back = eco_netlist::netlist_from_aig(&e1.aig, "rt");
        let e2 = elaborate(&back).expect("round trip elaborates");
        for bits in 0u32..32 {
            let vals = pattern(bits, 5);
            assert_eq!(
                e1.aig.eval(&vals),
                e2.aig.eval(&vals),
                "case {case}: {recipe:?} at {vals:?}"
            );
        }
    }
}

/// Every named net's literal evaluates consistently with a rebuilt
/// output on that net.
#[test]
fn net_lits_are_consistent() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let pick = rng.index(40);
        let nl = build(4, &recipe);
        let e = elaborate(&nl).expect("elaborates");
        let wire = &nl.wires[pick % nl.wires.len()];
        let lit = e.net_lits[wire.as_str()];
        // Re-elaborate with that wire promoted to an output.
        let mut nl2 = nl.clone();
        nl2.outputs.push("probe".into());
        nl2.gates.push(Gate {
            kind: GateKind::Buf,
            name: None,
            output: "probe".into(),
            inputs: vec![NetRef::named(wire.clone())],
        });
        let e2 = elaborate(&nl2).expect("elaborates");
        let probe = e2.aig.find_output("probe").expect("probe output");
        for bits in 0u32..16 {
            let vals = pattern(bits, 4);
            assert_eq!(
                e.aig.eval_lit(lit, &vals),
                e2.aig.eval(&vals)[probe],
                "case {case}: {recipe:?}: wire {wire} at {vals:?}"
            );
        }
    }
}
