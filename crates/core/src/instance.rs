//! ECO problem instances.

use std::collections::{HashMap, HashSet};

use eco_aig::{Aig, Lit, Var};
use eco_netlist::{elaborate, ElaborateError, Netlist, WeightTable};

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
        let mut target_set: HashSet<&str> = HashSet::new();
        let mut target_vars: HashSet<Var> = HashSet::new();
        for t in &targets {
            let v = faulty
                .find_input(t)
                .ok_or_else(|| EcoError::UnknownTarget(t.clone()))?;
            if !target_set.insert(t.as_str()) {
                return Err(EcoError::DuplicateTarget(t.clone()));
            }
            target_vars.insert(v);
        }
        // Golden inputs must all exist among the faulty X inputs.
        for pos in 0..golden.num_inputs() {
            let n = golden.input_name(pos);
            if target_set.contains(n) || faulty.find_input(n).is_none() {
                return Err(EcoError::MissingInput(n.to_string()));
            }
        }
        // Output name sets must match.
        for out in faulty.outputs() {
            if golden.find_output(&out.name).is_none() {
                return Err(EcoError::OutputMismatch(out.name.clone()));
            }
        }
        for out in golden.outputs() {
            if faulty.find_output(&out.name).is_none() {
                return Err(EcoError::OutputMismatch(out.name.clone()));
            }
        }
        // Candidates must not depend on targets (patching must stay acyclic).
        for c in &candidates {
            let sup = faulty.support(&[c.lit]);
            if sup.iter().any(|v| target_vars.contains(v)) {
                return Err(EcoError::UnknownTarget(format!(
                    "candidate `{}` depends on a target signal",
                    c.name
                )));
            }
        }
        Ok(EcoInstance {
            name: name.into(),
            faulty,
            golden,
            targets,
            candidates,
        })
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
        let faulty = elaborate(faulty_nl).map_err(conv)?;
        let golden = elaborate(golden_nl).map_err(conv)?;
        // Structural taint: nets in the *netlist-level* transitive fanout
        // of a target must not become candidates even when constant
        // folding removes the dependency from the AIG (e.g. `and(t, 0)`),
        // because tapping such a net would wire a physical combinational
        // cycle once the patch drives the target.
        let tainted = structurally_tainted(faulty_nl, &targets);
        let filtered: HashMap<String, Lit> = faulty
            .net_lits
            .iter()
            .filter(|(n, _)| !tainted.contains(n.as_str()))
            .map(|(n, &l)| (n.clone(), l))
            .collect();
        EcoInstance::from_elaborated(name, faulty.aig, &filtered, golden.aig, targets, weights)
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
        let target_set: HashSet<&str> = targets.iter().map(String::as_str).collect();
        let mut target_vars: HashSet<Var> = HashSet::new();
        for t in &targets {
            if let Some(v) = faulty.find_input(t) {
                target_vars.insert(v);
            }
        }
        let mut candidates: Vec<BaseCandidate> = Vec::new();
        let mut names: Vec<&String> = faulty_nets.keys().collect();
        names.sort();
        for n in names {
            if target_set.contains(n.as_str()) {
                continue;
            }
            let lit = faulty_nets[n];
            let sup = faulty.support(&[lit]);
            if sup.iter().any(|v| target_vars.contains(v)) {
                continue;
            }
            candidates.push(BaseCandidate {
                name: n.clone(),
                lit,
                weight: weights.weight(n),
            });
        }
        EcoInstance::new(name, faulty, golden, targets, candidates)
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

/// Net names reachable from `targets` through netlist gates (transitive
/// structural fanout, targets included).
fn structurally_tainted(netlist: &Netlist, targets: &[String]) -> HashSet<String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::parse_verilog;

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
}
