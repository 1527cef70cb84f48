//! Conversion between gate-level netlists and AIGs.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use eco_aig::{Aig, Lit, Var};

use crate::ast::{Gate, GateKind, NetRef, Netlist};

/// Error produced when a netlist cannot be elaborated into an AIG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateError {
    /// A net is driven by more than one gate.
    MultipleDrivers(String),
    /// A referenced net is neither an input nor driven by any gate.
    Undriven(String),
    /// The gates form a combinational cycle through the named net.
    CombinationalCycle(String),
    /// An output is not declared/driven.
    UndrivenOutput(String),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            ElaborateError::Undriven(n) => write!(f, "net `{n}` is referenced but never driven"),
            ElaborateError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net `{n}`")
            }
            ElaborateError::UndrivenOutput(n) => write!(f, "output `{n}` is not driven"),
        }
    }
}

impl Error for ElaborateError {}

/// Elaborated netlist: the AIG plus the net-name → literal map.
#[derive(Clone, Debug)]
pub struct Elaboration {
    /// The resulting AIG (inputs in netlist declaration order, outputs in
    /// netlist output order).
    pub aig: Aig,
    /// Literal of every named net.
    pub net_lits: HashMap<String, Lit>,
}

/// Builds an AIG from a gate-level netlist.
///
/// # Errors
///
/// See [`ElaborateError`].
///
/// # Examples
///
/// ```
/// let n = eco_netlist::parse_verilog(
///     "module m (a, b, y); input a, b; output y; nand g (y, a, b); endmodule",
/// )?;
/// let e = eco_netlist::elaborate(&n)?;
/// assert_eq!(e.aig.eval(&[true, true]), vec![false]);
/// assert_eq!(e.aig.eval(&[true, false]), vec![true]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn elaborate(netlist: &Netlist) -> Result<Elaboration, ElaborateError> {
    let (aig, nets) = elaborate_nets(netlist)?;
    let net_lits = nets.into_iter().map(|(n, l)| (n.to_owned(), l)).collect();
    Ok(Elaboration { aig, net_lits })
}

/// Every net's literal under its name borrowed from the netlist: inputs in
/// declaration order, then gate outputs in gate order. Names are unique.
pub type BorrowedNets<'a> = Vec<(&'a str, Lit)>;

/// [`elaborate`] without the owned name map: the AIG plus
/// [`BorrowedNets`].
///
/// # Errors
///
/// See [`ElaborateError`].
pub fn elaborate_nets(netlist: &Netlist) -> Result<(Aig, BorrowedNets<'_>), ElaborateError> {
    /// Where a net's value comes from.
    #[derive(Clone, Copy)]
    enum Net {
        Input(Lit),
        Gate(usize),
    }
    /// Depth-first state of a gate; a built gate carries its literal.
    #[derive(Clone, Copy)]
    enum Mark {
        Unvisited,
        Visiting,
        Done(Lit),
    }

    let mut aig = Aig::new();
    // Every net by its borrowed name: inputs first, then gate outputs.
    let mut by_name: HashMap<&str, Net> =
        HashMap::with_capacity(netlist.inputs.len() + netlist.gates.len());
    for name in &netlist.inputs {
        let lit = aig.add_input(name.clone());
        if by_name.insert(name, Net::Input(lit)).is_some() {
            return Err(ElaborateError::MultipleDrivers(name.clone()));
        }
    }
    for (i, g) in netlist.gates.iter().enumerate() {
        if by_name.insert(&g.output, Net::Gate(i)).is_some() {
            return Err(ElaborateError::MultipleDrivers(g.output.clone()));
        }
    }

    // Iterative DFS elaboration with cycle detection. The order in which
    // gates are built fixes the AIG's node numbering, which the memo key
    // and the solver's variable numbering depend on: it must not change.
    let mut marks = vec![Mark::Unvisited; netlist.gates.len()];
    // Elaborate every gate — including dangling logic not reaching any
    // output. ECO flows rely on this: the faulty design keeps obsolete
    // "spare" logic around, and those nets must exist as patch candidates.
    let mut roots: Vec<usize> = Vec::with_capacity(netlist.outputs.len() + netlist.gates.len());
    for out in &netlist.outputs {
        match by_name.get(out.as_str()) {
            Some(Net::Input(_)) => {}
            Some(&Net::Gate(gi)) => roots.push(gi),
            None => return Err(ElaborateError::UndrivenOutput(out.clone())),
        }
    }
    roots.extend(0..netlist.gates.len());
    let mut stack: Vec<usize> = Vec::new();
    let mut ins: Vec<Lit> = Vec::new();
    for start in roots {
        stack.push(start);
        while let Some(&gi) = stack.last() {
            let gate = &netlist.gates[gi];
            match marks[gi] {
                Mark::Done(_) => {
                    stack.pop();
                }
                Mark::Visiting => {
                    // All dependencies resolved (or cycle).
                    ins.clear();
                    for input in &gate.inputs {
                        let lit = match input {
                            NetRef::Const(b) => Lit::FALSE.xor_complement(*b),
                            // Every named input was found when the gate
                            // was first visited.
                            NetRef::Named(n) => match by_name[n.as_str()] {
                                Net::Input(lit) => lit,
                                Net::Gate(di) => match marks[di] {
                                    Mark::Done(lit) => lit,
                                    _ => {
                                        return Err(ElaborateError::CombinationalCycle(
                                            gate.output.clone(),
                                        ))
                                    }
                                },
                            },
                        };
                        ins.push(lit);
                    }
                    marks[gi] = Mark::Done(build_gate(&mut aig, gate.kind, &ins));
                    stack.pop();
                }
                Mark::Unvisited => {
                    marks[gi] = Mark::Visiting;
                    for input in &gate.inputs {
                        let NetRef::Named(n) = input else {
                            continue;
                        };
                        match by_name.get(n.as_str()) {
                            None => return Err(ElaborateError::Undriven(n.clone())),
                            Some(Net::Input(_)) => {}
                            Some(&Net::Gate(di)) => match marks[di] {
                                Mark::Done(_) => {}
                                Mark::Visiting => {
                                    return Err(ElaborateError::CombinationalCycle(n.clone()))
                                }
                                Mark::Unvisited => stack.push(di),
                            },
                        }
                    }
                }
            }
        }
    }

    // Every gate is built now.
    let built = |gi: usize| match marks[gi] {
        Mark::Done(lit) => lit,
        _ => unreachable!("every gate is elaborated"),
    };
    for out in &netlist.outputs {
        let lit = match by_name[out.as_str()] {
            Net::Input(lit) => lit,
            Net::Gate(gi) => built(gi),
        };
        aig.add_output(out.clone(), lit);
    }
    let inputs = netlist
        .inputs
        .iter()
        .zip(aig.inputs())
        .map(|(n, v)| (n.as_str(), v.pos()));
    let gates = netlist
        .gates
        .iter()
        .enumerate()
        .map(|(gi, g)| (g.output.as_str(), built(gi)));
    let nets = inputs.chain(gates).collect();
    Ok((aig, nets))
}

fn build_gate(aig: &mut Aig, kind: GateKind, ins: &[Lit]) -> Lit {
    match kind {
        GateKind::Buf => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And => aig.and_many(ins),
        GateKind::Nand => !aig.and_many(ins),
        GateKind::Or => aig.or_many(ins),
        GateKind::Nor => !aig.or_many(ins),
        GateKind::Xor => aig.xor_many(ins),
        GateKind::Xnor => !aig.xor_many(ins),
    }
}

/// Converts an AIG back into a gate-level netlist (`and`/`not`/`buf`
/// primitives).
///
/// Internal nets are named `n<k>`; an inverter net for node `k` is
/// `n<k>_inv`. Inputs and outputs keep their AIG names.
pub fn netlist_from_aig(aig: &Aig, module_name: &str) -> Netlist {
    let mut nl = Netlist::new(module_name);
    nl.inputs = (0..aig.num_inputs())
        .map(|p| aig.input_name(p).to_owned())
        .collect();
    nl.outputs = aig.outputs().iter().map(|o| o.name.clone()).collect();

    let roots: Vec<Lit> = aig.outputs().iter().map(|o| o.lit).collect();
    let cone = aig.cone_vars(&roots);

    // Generated names (internal `n<k>`, `const0`, `_inv` wires) must not
    // collide with port names: a patch whose target is called `n8` would
    // otherwise get an internal wire `n8` double-driving the output.
    let mut taken: std::collections::HashSet<String> =
        nl.inputs.iter().chain(nl.outputs.iter()).cloned().collect();
    let uniquify = |base: String, taken: &mut std::collections::HashSet<String>| -> String {
        let mut name = base;
        while taken.contains(&name) {
            name.push('_');
        }
        taken.insert(name.clone());
        name
    };
    let mut name_of: HashMap<Var, String> = HashMap::new();
    for &v in &cone {
        let name = if let Some(pos) = aig.input_pos(v) {
            aig.input_name(pos).to_owned()
        } else if v == Var::CONST {
            uniquify("const0".to_string(), &mut taken)
        } else {
            uniquify(format!("n{}", v.index()), &mut taken)
        };
        name_of.insert(v, name);
    }

    let mut inv_emitted: HashMap<Var, String> = HashMap::new();

    // Emit AND gates in topological order; inverters on demand.
    let mut gates: Vec<Gate> = Vec::new();
    let mut wires: Vec<String> = Vec::new();
    let lit_net = |lit: Lit,
                   gates: &mut Vec<Gate>,
                   wires: &mut Vec<String>,
                   inv_emitted: &mut HashMap<Var, String>,
                   taken: &mut std::collections::HashSet<String>|
     -> NetRef {
        let v = lit.var();
        if v == Var::CONST {
            return NetRef::Const(lit.is_complement());
        }
        if !lit.is_complement() {
            return NetRef::Named(name_of[&v].clone());
        }
        if let Some(n) = inv_emitted.get(&v) {
            return NetRef::Named(n.clone());
        }
        let mut inv_name = format!("{}_inv", name_of[&v]);
        while taken.contains(&inv_name) {
            inv_name.push('_');
        }
        taken.insert(inv_name.clone());
        wires.push(inv_name.clone());
        gates.push(Gate {
            kind: GateKind::Not,
            name: None,
            output: inv_name.clone(),
            inputs: vec![NetRef::Named(name_of[&v].clone())],
        });
        inv_emitted.insert(v, inv_name.clone());
        NetRef::Named(inv_name)
    };

    for &v in &cone {
        if let Some((fan0, fan1)) = aig.and_fanins(v) {
            let i0 = lit_net(fan0, &mut gates, &mut wires, &mut inv_emitted, &mut taken);
            let i1 = lit_net(fan1, &mut gates, &mut wires, &mut inv_emitted, &mut taken);
            let out = name_of[&v].clone();
            wires.push(out.clone());
            gates.push(Gate {
                kind: GateKind::And,
                name: None,
                output: out,
                inputs: vec![i0, i1],
            });
        }
    }

    // Output drivers: buf/not from the driving net.
    for out in aig.outputs() {
        let v = out.lit.var();
        let (kind, src) = if v == Var::CONST {
            (GateKind::Buf, NetRef::Const(out.lit.is_complement()))
        } else if out.lit.is_complement() {
            (GateKind::Not, NetRef::Named(name_of[&v].clone()))
        } else {
            (GateKind::Buf, NetRef::Named(name_of[&v].clone()))
        };
        gates.push(Gate {
            kind,
            name: None,
            output: out.name.clone(),
            inputs: vec![src],
        });
    }

    // Internal AND output nets shadowing output names would double-drive;
    // the `n<k>` naming scheme avoids collisions with user nets as long as
    // user nets don't use that scheme for other nodes — acceptable for
    // generated netlists.
    nl.wires = wires;
    nl.gates = gates;
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_verilog;

    #[test]
    fn elaborate_out_of_order_gates() {
        // g2 uses w1 which is defined later by g1.
        let src = "module m (a, b, y); input a, b; output y; \
                   xor g2 (y, w1, b); wire w1; and g1 (w1, a, b); endmodule";
        let e = elaborate(&parse_verilog(src).expect("parse")).expect("elaborate");
        for bits in 0u32..4 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            let expect = (vals[0] && vals[1]) ^ vals[1];
            assert_eq!(e.aig.eval(&vals), vec![expect]);
        }
    }

    #[test]
    fn multi_input_gates_elaborate() {
        let src = "module m (a, b, c, y); input a, b, c; output y; \
                   nor g (y, a, b, c); endmodule";
        let e = elaborate(&parse_verilog(src).expect("parse")).expect("elaborate");
        assert_eq!(e.aig.eval(&[false, false, false]), vec![true]);
        assert_eq!(e.aig.eval(&[false, true, false]), vec![false]);
    }

    #[test]
    fn detects_multiple_drivers() {
        let src = "module m (a, y); input a; output y; buf g1 (y, a); not g2 (y, a); endmodule";
        let err = elaborate(&parse_verilog(src).expect("parse")).unwrap_err();
        assert_eq!(err, ElaborateError::MultipleDrivers("y".into()));
    }

    #[test]
    fn detects_undriven_nets() {
        let src = "module m (a, y); input a; output y; and g (y, a, ghost); endmodule";
        let err = elaborate(&parse_verilog(src).expect("parse")).unwrap_err();
        assert_eq!(err, ElaborateError::Undriven("ghost".into()));
    }

    #[test]
    fn detects_cycles() {
        let src = "module m (a, y); input a; output y; \
                   and g1 (y, a, w); and g2 (w, y, a); wire w; endmodule";
        let err = elaborate(&parse_verilog(src).expect("parse")).unwrap_err();
        assert!(matches!(err, ElaborateError::CombinationalCycle(_)));
    }

    #[test]
    fn detects_undriven_output() {
        let src = "module m (a, y); input a; output y; endmodule";
        let err = elaborate(&parse_verilog(src).expect("parse")).unwrap_err();
        assert_eq!(err, ElaborateError::UndrivenOutput("y".into()));
    }

    #[test]
    fn aig_netlist_round_trip_preserves_semantics() {
        let src = "module m (a, b, c, y, z); input a, b, c; output y, z; \
                   wire w1; and g1 (w1, a, b); xor g2 (y, w1, c); nor g3 (z, a, c); endmodule";
        let e = elaborate(&parse_verilog(src).expect("parse")).expect("elaborate");
        let nl2 = netlist_from_aig(&e.aig, "m2");
        let e2 = elaborate(&nl2).expect("re-elaborate");
        for bits in 0u32..8 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(e.aig.eval(&vals), e2.aig.eval(&vals), "bits {vals:?}");
        }
    }

    #[test]
    fn constant_output_round_trip() {
        let src = "module m (y); output y; assign y = 1'b1; endmodule";
        let e = elaborate(&parse_verilog(src).expect("parse")).expect("elaborate");
        assert_eq!(e.aig.eval(&[]), vec![true]);
        let nl2 = netlist_from_aig(&e.aig, "m2");
        let e2 = elaborate(&nl2).expect("re-elaborate");
        assert_eq!(e2.aig.eval(&[]), vec![true]);
    }

    /// Port names shaped like generated nets (an ECO target `n8`, an
    /// input `n2`) must not collide with the writer's internal `n<k>` /
    /// `_inv` wires: the emitted netlist re-elaborates (single driver
    /// per net) and keeps its semantics.
    #[test]
    fn generated_wire_names_skip_colliding_ports() {
        let mut aig = Aig::new();
        let a = aig.add_input("n20");
        let b = aig.add_input("x1");
        for k in 0..12 {
            let g = aig.and(a, if k % 2 == 0 { b } else { !b });
            let h = aig.and(!g, a);
            aig.add_output(format!("n{k}"), if k % 3 == 0 { !h } else { h });
        }
        let nl = netlist_from_aig(&aig, "patch");
        let e = elaborate(&nl).expect("no colliding drivers");
        for bits in 0u32..4 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(&vals), e.aig.eval(&vals), "bits {vals:?}");
        }
    }

    #[test]
    fn output_feeding_another_gate() {
        // Output net `y` is also an internal fanin.
        let src = "module m (a, b, y, z); input a, b; output y, z; \
                   and g1 (y, a, b); not g2 (z, y); endmodule";
        let e = elaborate(&parse_verilog(src).expect("parse")).expect("elaborate");
        assert_eq!(e.aig.eval(&[true, true]), vec![true, false]);
    }
}
