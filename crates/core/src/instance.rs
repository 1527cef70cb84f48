//! ECO problem instances.

use std::collections::{HashMap, HashSet};

use eco_aig::{Aig, Lit, Var};
use eco_netlist::{elaborate_nets, ElaborateError, NetRef, Netlist, WeightTable};

use crate::EcoError;

/// A signal of the faulty circuit that patches may use as an input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseCandidate {
    /// Net name (as in the weight file).
    pub name: String,
    /// Literal in the faulty AIG driving this net.
    pub lit: Lit,
    /// Cost of tapping this signal.
    pub weight: u64,
}

/// A multi-target ECO problem: faulty circuit `F(X, T)` with floating
/// target pseudo-inputs `T`, golden circuit `G(X)`, and weighted base
/// candidates (CAD Contest 2017 formulation, §2.2 of the paper).
#[derive(Clone, Debug)]
pub struct EcoInstance {
    /// Instance name (for reports).
    pub name: String,
    /// Faulty circuit; its inputs are `X ∪ T`.
    pub faulty: Aig,
    /// Golden circuit over `X`.
    pub golden: Aig,
    /// Target pseudo-input names, in rectification order `t_1..t_α`.
    pub targets: Vec<String>,
    /// Signals available as patch inputs, with weights.
    pub candidates: Vec<BaseCandidate>,
}

impl EcoInstance {
    /// Builds and validates an instance from pre-elaborated AIGs.
    ///
    /// Candidates must already be restricted to signals whose cones do not
    /// depend on any target (this is checked).
    ///
    /// # Errors
    ///
    /// Returns [`EcoError`] if a target is not a faulty input or is
    /// declared twice, the input or output name sets are inconsistent, or
    /// a candidate depends on a target.
    pub fn new(
        name: impl Into<String>,
        faulty: Aig,
        golden: Aig,
        targets: Vec<String>,
        candidates: Vec<BaseCandidate>,
    ) -> Result<Self, EcoError> {
        Self::validated(name.into(), faulty, golden, targets, |_| candidates)
    }

    /// Builds an instance from contest-format netlists and a weight table.
    ///
    /// Every named net of the faulty netlist whose logic does not depend on
    /// a target becomes a base candidate, weighted by `weights`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures (as [`EcoError::Unrectifiable`] is
    /// *not* used here; malformed circuits yield the corresponding
    /// validation error) and the checks of [`EcoInstance::new`].
    pub fn from_netlists(
        name: impl Into<String>,
        faulty_nl: &Netlist,
        golden_nl: &Netlist,
        targets: Vec<String>,
        weights: &WeightTable,
    ) -> Result<Self, EcoError> {
        let conv = |e: ElaborateError| EcoError::OutputMismatch(e.to_string());
        let (faulty, nets) = elaborate_nets(faulty_nl).map_err(conv)?;
        let (golden, _) = elaborate_nets(golden_nl).map_err(conv)?;
        // Structural taint: nets in the *netlist-level* transitive fanout
        // of a target must not become candidates even when constant
        // folding removes the dependency from the AIG (e.g. `and(t, 0)`),
        // because tapping such a net would wire a physical combinational
        // cycle once the patch drives the target.
        let tainted = structurally_tainted(faulty_nl, &targets);
        let nets = nets
            .into_iter()
            .filter(|(n, _)| !tainted.contains(n))
            .collect();
        Self::from_nets(name.into(), faulty, nets, golden, targets, weights)
    }

    /// Builds an instance from already-elaborated AIGs plus the faulty
    /// circuit's net-name → literal map (as produced by
    /// [`eco_netlist::elaborate`] or [`eco_netlist::parse_blif`]).
    ///
    /// Every named, target-independent net becomes a weighted base
    /// candidate. Independence is judged on the AIG — if constant folding
    /// erased a structural dependency on a target, the corresponding net
    /// will still be offered as a candidate even though tapping it wires a
    /// (semantically false but physically real) combinational loop; strip
    /// such nets from `faulty_nets` first when the netlist structure is
    /// available, as [`EcoInstance::from_netlists`] does.
    ///
    /// # Errors
    ///
    /// Same checks as [`EcoInstance::new`].
    pub fn from_elaborated(
        name: impl Into<String>,
        faulty: Aig,
        faulty_nets: &HashMap<String, Lit>,
        golden: Aig,
        targets: Vec<String>,
        weights: &WeightTable,
    ) -> Result<Self, EcoError> {
        let nets = faulty_nets.iter().map(|(n, &l)| (n.as_str(), l)).collect();
        Self::from_nets(name.into(), faulty, nets, golden, targets, weights)
    }

    /// The candidates of both builders: every net of `nets` that is not a
    /// target and whose AIG cone reads no target, in name order.
    fn from_nets(
        name: String,
        faulty: Aig,
        mut nets: Vec<(&str, Lit)>,
        golden: Aig,
        targets: Vec<String>,
        weights: &WeightTable,
    ) -> Result<Self, EcoError> {
        let target_set: HashSet<&str> = targets.iter().map(String::as_str).collect();
        nets.retain(|(n, _)| !target_set.contains(n));
        nets.sort_unstable_by_key(|&(n, _)| n);
        Self::validated(name, faulty, golden, targets, |dependent| {
            nets.into_iter()
                .filter(|(_, lit)| !dependent[lit.var().index() as usize])
                .map(|(n, lit)| BaseCandidate {
                    name: n.to_owned(),
                    lit,
                    weight: weights.weight(n),
                })
                .collect()
        })
    }

    /// Checks the targets and the input and output names, then takes the
    /// candidates from `candidates` (given each faulty node's target
    /// dependence) and checks that none depends on a target.
    fn validated(
        name: String,
        faulty: Aig,
        golden: Aig,
        targets: Vec<String>,
        candidates: impl FnOnce(&[bool]) -> Vec<BaseCandidate>,
    ) -> Result<Self, EcoError> {
        // The first faulty input of each name, as `Aig::find_input` finds it.
        let mut inputs: HashMap<&str, Var> = HashMap::with_capacity(faulty.num_inputs());
        for pos in 0..faulty.num_inputs() {
            inputs
                .entry(faulty.input_name(pos))
                .or_insert(faulty.input_var(pos));
        }
        let mut target_set: HashSet<&str> = HashSet::with_capacity(targets.len());
        let mut target_vars: Vec<Var> = Vec::with_capacity(targets.len());
        for t in &targets {
            let &v = inputs
                .get(t.as_str())
                .ok_or_else(|| EcoError::UnknownTarget(t.clone()))?;
            if !target_set.insert(t.as_str()) {
                return Err(EcoError::DuplicateTarget(t.clone()));
            }
            target_vars.push(v);
        }
        // Golden inputs must all exist among the faulty X inputs.
        for pos in 0..golden.num_inputs() {
            let n = golden.input_name(pos);
            if target_set.contains(n) || !inputs.contains_key(n) {
                return Err(EcoError::MissingInput(n.to_string()));
            }
        }
        // Output name sets must match.
        let faulty_outs: HashSet<&str> = faulty.outputs().iter().map(|o| &*o.name).collect();
        let golden_outs: HashSet<&str> = golden.outputs().iter().map(|o| &*o.name).collect();
        let unmatched = faulty
            .outputs()
            .iter()
            .find(|o| !golden_outs.contains(&*o.name))
            .or_else(|| {
                golden
                    .outputs()
                    .iter()
                    .find(|o| !faulty_outs.contains(&*o.name))
            });
        if let Some(out) = unmatched {
            return Err(EcoError::OutputMismatch(out.name.clone()));
        }
        // Candidates must not depend on targets (patching must stay acyclic).
        let dependent = target_dependence(&faulty, &target_vars);
        let candidates = candidates(&dependent);
        if let Some(c) = candidates
            .iter()
            .find(|c| dependent[c.lit.var().index() as usize])
        {
            return Err(EcoError::UnknownTarget(format!(
                "candidate `{}` depends on a target signal",
                c.name
            )));
        }
        Ok(EcoInstance {
            name,
            faulty,
            golden,
            targets,
            candidates,
        })
    }

    /// Number of targets `α`.
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// The primary-input names `X` (faulty inputs that are not targets), in
    /// faulty declaration order.
    pub fn x_names(&self) -> Vec<String> {
        let target_set: HashSet<&str> = self.targets.iter().map(String::as_str).collect();
        (0..self.faulty.num_inputs())
            .map(|p| self.faulty.input_name(p).to_owned())
            .filter(|n| !target_set.contains(n.as_str()))
            .collect()
    }
}

/// Whether each node of `aig` depends on one of `targets`: a target input
/// itself, or an AND with a dependent fanin. Node indices are topological,
/// so one pass in index order decides every node — the same verdict as
/// asking whether [`Aig::support`] of the node meets `targets`.
fn target_dependence(aig: &Aig, targets: &[Var]) -> Vec<bool> {
    let mut dependent = vec![false; aig.len()];
    for v in targets {
        dependent[v.index() as usize] = true;
    }
    for (v, fan0, fan1) in aig.iter_ands() {
        dependent[v.index() as usize] =
            dependent[fan0.var().index() as usize] || dependent[fan1.var().index() as usize];
    }
    dependent
}

/// Net names reachable from `targets` through netlist gates (transitive
/// structural fanout, targets included): a worklist over a net → reader
/// index visits each gate input once.
fn structurally_tainted<'a>(netlist: &'a Netlist, targets: &'a [String]) -> HashSet<&'a str> {
    // Readers of each net, grouped by net in one flat list (CSR).
    let mut net_id: HashMap<&str, usize> = HashMap::new();
    let mut reads: Vec<(usize, usize)> = Vec::new();
    for (gi, g) in netlist.gates.iter().enumerate() {
        for n in g.inputs.iter().filter_map(NetRef::name) {
            let fresh = net_id.len();
            reads.push((*net_id.entry(n).or_insert(fresh), gi));
        }
    }
    let mut start = vec![0usize; net_id.len() + 1];
    for &(net, _) in &reads {
        start[net + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut fill = start.clone();
    let mut readers = vec![0usize; reads.len()];
    for &(net, gi) in &reads {
        readers[fill[net]] = gi;
        fill[net] += 1;
    }

    let mut tainted: HashSet<&str> = targets.iter().map(String::as_str).collect();
    let mut work: Vec<&str> = tainted.iter().copied().collect();
    while let Some(net) = work.pop() {
        let Some(&id) = net_id.get(net) else {
            continue;
        };
        for &gi in &readers[start[id]..start[id + 1]] {
            let out = netlist.gates[gi].output.as_str();
            if tainted.insert(out) {
                work.push(out);
            }
        }
    }
    tainted
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_aig::SplitMix64;
    use eco_netlist::{elaborate, parse_verilog, Gate, GateKind};

    fn simple_pair() -> (Netlist, Netlist) {
        // Golden: y = (a & b) ^ c. Faulty: the AND was cut out as target t.
        let faulty = parse_verilog(
            "module f (a, b, c, t, y); input a, b, c, t; output y; \
             xor g1 (y, t, c); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y); input a, b, c; output y; \
             wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
        )
        .expect("golden");
        (faulty, golden)
    }

    #[test]
    fn from_netlists_builds_candidates() {
        let (f, g) = simple_pair();
        let mut w = WeightTable::new(1);
        w.set("a", 5);
        let inst = EcoInstance::from_netlists("u", &f, &g, vec!["t".into()], &w).expect("instance");
        assert_eq!(inst.num_targets(), 1);
        assert_eq!(inst.x_names(), vec!["a", "b", "c"]);
        let a = inst.candidates.iter().find(|c| c.name == "a").expect("a");
        assert_eq!(a.weight, 5);
        // Output y depends on target t — must not be a candidate.
        assert!(!inst.candidates.iter().any(|c| c.name == "y"));
        assert!(!inst.candidates.iter().any(|c| c.name == "t"));
    }

    #[test]
    fn unknown_target_rejected() {
        let (f, g) = simple_pair();
        let w = WeightTable::new(1);
        let err = EcoInstance::from_netlists("u", &f, &g, vec!["zz".into()], &w).unwrap_err();
        assert_eq!(err, EcoError::UnknownTarget("zz".into()));
    }

    #[test]
    fn duplicate_target_rejected() {
        let (f, g) = simple_pair();
        let w = WeightTable::new(1);
        let err =
            EcoInstance::from_netlists("u", &f, &g, vec!["t".into(), "t".into()], &w).unwrap_err();
        assert_eq!(err, EcoError::DuplicateTarget("t".into()));
    }

    #[test]
    fn golden_input_must_exist_in_faulty() {
        let f = parse_verilog("module f (t, y); input t; output y; buf g (y, t); endmodule")
            .expect("f");
        let g = parse_verilog("module g (q, y); input q; output y; buf g (y, q); endmodule")
            .expect("g");
        let w = WeightTable::new(1);
        let err = EcoInstance::from_netlists("u", &f, &g, vec!["t".into()], &w).unwrap_err();
        assert_eq!(err, EcoError::MissingInput("q".into()));
    }

    #[test]
    fn output_sets_must_match() {
        let f =
            parse_verilog("module f (a, t, y); input a, t; output y; and g (y, a, t); endmodule")
                .expect("f");
        let g = parse_verilog("module g (a, z); input a; output z; buf g (z, a); endmodule")
            .expect("g");
        let w = WeightTable::new(1);
        let err = EcoInstance::from_netlists("u", &f, &g, vec!["t".into()], &w).unwrap_err();
        assert!(matches!(err, EcoError::OutputMismatch(_)));
    }

    #[test]
    fn candidate_depending_on_target_rejected_in_new() {
        let (f, g) = simple_pair();
        let felab = elaborate(&f).expect("elab");
        let gelab = elaborate(&g).expect("elab");
        let bad = BaseCandidate {
            name: "y".into(),
            lit: felab.net_lits["y"],
            weight: 1,
        };
        let err =
            EcoInstance::new("u", felab.aig, gelab.aig, vec!["t".into()], vec![bad]).unwrap_err();
        assert!(matches!(err, EcoError::UnknownTarget(_)));
    }

    /// The one-pass target dependence gives the verdict of the per-node
    /// rule it replaced — does [`Aig::support`] of the node meet the
    /// targets? — on every node of random AIGs with random target sets.
    #[test]
    fn target_dependence_matches_support_rule() {
        let mut rng = SplitMix64::new(0xdebe_4d5e);
        for case in 0..200 {
            let mut aig = Aig::new();
            let mut lits: Vec<Lit> = (0..1 + rng.index(8))
                .map(|i| aig.add_input(format!("i{i}")))
                .collect();
            lits.push(Lit::FALSE);
            for _ in 0..rng.index(40) {
                let a = lits[rng.index(lits.len())].xor_complement(rng.chance(0.5));
                let b = lits[rng.index(lits.len())].xor_complement(rng.chance(0.5));
                lits.push(aig.and(a, b));
            }
            let targets: Vec<Var> = aig
                .inputs()
                .iter()
                .copied()
                .filter(|_| rng.chance(0.3))
                .collect();
            let dependent = target_dependence(&aig, &targets);
            for (v, _) in aig.iter_nodes() {
                let reference = aig.support(&[v.pos()]).iter().any(|s| targets.contains(s));
                assert_eq!(
                    dependent[v.index() as usize],
                    reference,
                    "case {case}, node {v:?}, targets {targets:?}"
                );
            }
        }
    }

    /// The fixpoint closure `structurally_tainted` computed before the
    /// worklist: re-scan every gate until no new net is tainted.
    fn tainted_by_fixpoint(netlist: &Netlist, targets: &[String]) -> HashSet<String> {
        let mut tainted: HashSet<String> = targets.iter().cloned().collect();
        loop {
            let before = tainted.len();
            for g in &netlist.gates {
                if tainted.contains(&g.output) {
                    continue;
                }
                let reads_tainted = g
                    .inputs
                    .iter()
                    .filter_map(|r| r.name())
                    .any(|n| tainted.contains(n));
                if reads_tainted {
                    tainted.insert(g.output.clone());
                }
            }
            if tainted.len() == before {
                break;
            }
        }
        tainted
    }

    /// The worklist taint equals the fixpoint closure on random netlists,
    /// with gate lists in topological and in reverse topological order
    /// and targets among inputs, wires and unknown names.
    #[test]
    fn worklist_taint_matches_fixpoint_closure() {
        let mut rng = SplitMix64::new(0x7a17_7ed5);
        for case in 0..200 {
            let mut nl = Netlist::new("m");
            nl.inputs = (0..1 + rng.index(6)).map(|i| format!("i{i}")).collect();
            let mut nets = nl.inputs.clone();
            for k in 0..rng.index(30) {
                let inputs = (0..1 + rng.index(3))
                    .map(|_| {
                        if rng.chance(0.1) {
                            NetRef::Const(rng.chance(0.5))
                        } else {
                            NetRef::named(nets[rng.index(nets.len())].clone())
                        }
                    })
                    .collect();
                let output = format!("w{k}");
                nets.push(output.clone());
                nl.gates.push(Gate {
                    kind: GateKind::And,
                    name: None,
                    output,
                    inputs,
                });
            }
            if rng.chance(0.5) {
                nl.gates.reverse();
            }
            nets.push("ghost".into());
            let targets: Vec<String> = nets.into_iter().filter(|_| rng.chance(0.2)).collect();
            let got: HashSet<String> = structurally_tainted(&nl, &targets)
                .into_iter()
                .map(str::to_owned)
                .collect();
            assert_eq!(
                got,
                tainted_by_fixpoint(&nl, &targets),
                "case {case}: {nl:?}"
            );
        }
    }
}
