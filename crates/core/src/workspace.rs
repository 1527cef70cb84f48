//! The combined AIG manager holding both circuits.
//!
//! All patch-generation arithmetic (care/diff sets, substitution of
//! generated patches, localization cuts) happens inside one structurally
//! hashed manager containing the faulty *and* golden cones over shared `X`
//! inputs plus the target pseudo-inputs. Structural hashing alone already
//! merges identical subcircuits across the two designs; FRAIG sweeping
//! (stage 1 of the flow) extends this to semantic equivalence.

use std::collections::{HashMap, HashSet};

use eco_aig::{Aig, Lit, Var};

use crate::EcoInstance;

/// A base candidate lifted into the workspace manager.
#[derive(Clone, Debug)]
pub struct WsCandidate {
    /// Net name in the faulty circuit.
    pub name: String,
    /// Driving literal in the workspace manager.
    pub lit: Lit,
    /// Tap cost.
    pub weight: u64,
}

/// Both circuits elaborated into one manager.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// The shared manager. Outputs are registered as: faulty outputs
    /// (original names), then golden outputs (`__g__<name>`), then base
    /// candidates (`__c__<index>`) — the latter two groups exist so FRAIG
    /// sweeping covers golden logic and tappable nets.
    pub mgr: Aig,
    /// Primary inputs `X`: `(name, manager literal)`.
    pub x: Vec<(String, Lit)>,
    /// Target pseudo-input variables, aligned with `instance.targets`.
    pub target_vars: Vec<Var>,
    /// Primary output names (faulty order).
    pub out_names: Vec<String>,
    /// Faulty output literals `f_j(X, T)`.
    pub f_outs: Vec<Lit>,
    /// Golden output literals `g_j(X)`, aligned with `f_outs`.
    pub g_outs: Vec<Lit>,
    /// Base candidates with manager literals (each independent of `T`).
    pub cands: Vec<WsCandidate>,
    /// Candidate index of each `X` input variable (cheapest same-named
    /// positive-literal candidate), used to weight cut frontiers that
    /// bottom out at primary inputs.
    pub input_cand: HashMap<Var, usize>,
}

/// Both circuits of an instance in one fresh manager, as
/// [`Workspace::new`] builds them before it registers outputs: all a
/// verification miter needs (registering outputs adds no nodes). Names
/// are borrowed from the instance.
pub(crate) struct Merged<'a> {
    /// The shared manager, with no outputs registered.
    pub(crate) mgr: Aig,
    /// Primary inputs `X`: `(name, manager literal)`.
    pub(crate) x: Vec<(&'a str, Lit)>,
    /// Target pseudo-input variables, aligned with `instance.targets`.
    pub(crate) target_vars: Vec<Var>,
    /// Faulty output literals `f_j(X, T)`.
    pub(crate) f_outs: Vec<Lit>,
    /// Golden output literals `g_j(X)`, aligned with `f_outs`.
    pub(crate) g_outs: Vec<Lit>,
    /// Manager literals of `instance.candidates`, in order.
    pub(crate) cand_lits: Vec<Lit>,
}

/// Imports both circuits of `instance` into a fresh manager: `X` inputs
/// in faulty declaration order, then the target pseudo-inputs, then the
/// faulty output and candidate cones, then the golden output cones.
///
/// # Panics
///
/// As [`Workspace::new`].
pub(crate) fn merge(instance: &EcoInstance) -> Merged<'_> {
    let faulty = &instance.faulty;
    let golden = &instance.golden;
    let mut mgr = Aig::new();
    let mut x = Vec::new();
    // Names resolve through maps built once; where a name repeats, the
    // first occurrence wins, as a linear scan would find it.
    let mut x_lits: HashMap<&str, Lit> = HashMap::with_capacity(faulty.num_inputs());

    // X inputs in faulty declaration order.
    let mut faulty_map: HashMap<Var, Lit> = HashMap::new();
    let target_names: HashSet<&str> = instance.targets.iter().map(String::as_str).collect();
    let mut target_inputs: HashMap<&str, Var> = HashMap::with_capacity(target_names.len());
    for pos in 0..faulty.num_inputs() {
        let name = faulty.input_name(pos);
        if target_names.contains(name) {
            target_inputs.entry(name).or_insert(faulty.input_var(pos));
            continue;
        }
        let lit = mgr.add_input(name);
        faulty_map.insert(faulty.input_var(pos), lit);
        x.push((name, lit));
        x_lits.entry(name).or_insert(lit);
    }
    // Target pseudo-inputs.
    let mut target_vars = Vec::new();
    for t in &instance.targets {
        let fv = target_inputs[t.as_str()];
        let lit = mgr.add_input(t.clone());
        faulty_map.insert(fv, lit);
        target_vars.push(lit.var());
    }

    // Import faulty outputs and candidate nets in one pass (shared cache).
    let mut roots: Vec<Lit> = faulty.outputs().iter().map(|o| o.lit).collect();
    let n_outs = roots.len();
    roots.extend(instance.candidates.iter().map(|c| c.lit));
    let mut f_outs = mgr
        .import(faulty, &roots, &faulty_map)
        .expect("validated instance maps every faulty input");
    let cand_lits = f_outs.split_off(n_outs);

    // Import golden outputs (aligned with the faulty output order).
    let golden_map: HashMap<Var, Lit> = (0..golden.num_inputs())
        .map(|pos| (golden.input_var(pos), x_lits[golden.input_name(pos)]))
        .collect();
    let mut golden_outs: HashMap<&str, Lit> = HashMap::with_capacity(golden.num_outputs());
    for o in golden.outputs() {
        golden_outs.entry(&o.name).or_insert(o.lit);
    }
    let g_roots: Vec<Lit> = faulty
        .outputs()
        .iter()
        .map(|o| golden_outs[o.name.as_str()])
        .collect();
    let g_outs = mgr
        .import(golden, &g_roots, &golden_map)
        .expect("validated instance maps every golden input");
    Merged {
        mgr,
        x,
        target_vars,
        f_outs,
        g_outs,
        cand_lits,
    }
}

impl Workspace {
    /// Elaborates `instance` into a fresh combined manager.
    ///
    /// # Panics
    ///
    /// Panics if the instance violates the invariants checked by
    /// [`EcoInstance::new`] (construct instances through that API).
    pub fn new(instance: &EcoInstance) -> Self {
        let m = merge(instance);
        let cands = instance
            .candidates
            .iter()
            .zip(m.cand_lits)
            .map(|(c, lit)| WsCandidate {
                name: c.name.clone(),
                lit,
                weight: c.weight,
            })
            .collect();
        let ws = Workspace {
            mgr: m.mgr,
            x: m.x.into_iter().map(|(n, l)| (n.to_owned(), l)).collect(),
            target_vars: m.target_vars,
            out_names: instance
                .faulty
                .outputs()
                .iter()
                .map(|o| o.name.clone())
                .collect(),
            f_outs: m.f_outs,
            g_outs: m.g_outs,
            cands,
            input_cand: HashMap::new(),
        };
        ws.with_fraig_outputs()
    }

    /// Registers the outputs FRAIG sweeping covers — faulty outputs
    /// (original names), golden outputs (`__g__<name>`), base candidates
    /// (`__c__<name>`) — and indexes [`Workspace::input_cand`].
    fn with_fraig_outputs(mut self) -> Self {
        for (name, &lit) in self.out_names.iter().zip(&self.f_outs) {
            self.mgr.add_output(name.clone(), lit);
        }
        for (name, &lit) in self.out_names.iter().zip(&self.g_outs) {
            self.mgr.add_output(format!("__g__{name}"), lit);
        }
        for c in &self.cands {
            self.mgr.add_output(format!("__c__{}", c.name), c.lit);
        }
        for (idx, c) in self.cands.iter().enumerate() {
            if c.lit.is_complement() || !self.mgr.is_input(c.lit.var()) {
                continue;
            }
            match self.input_cand.get(&c.lit.var()) {
                Some(&old) if self.cands[old].weight <= c.weight => {}
                _ => {
                    self.input_cand.insert(c.lit.var(), idx);
                }
            }
        }
        self
    }

    /// Extracts a self-contained sub-workspace for one target cluster.
    ///
    /// The sub-workspace keeps *all* `X` inputs, target pseudo-inputs, and
    /// base candidates — in the same order, so candidate indices, target
    /// indices, and [`Workspace::input_cand`] keys translate one-to-one —
    /// but imports only the faulty/golden output cones of `cluster` (plus
    /// every candidate cone). Patch generation for the cluster can then
    /// run against the sub-manager without mutating the shared one, which
    /// is what lets clusters rectify on scoped worker threads.
    ///
    /// Returns the sub-workspace and the cluster re-indexed to its output
    /// space (`outputs` become `0..n`; `targets` keep their global
    /// indices, since `target_vars` is carried in full).
    pub fn for_cluster(&self, cluster: &crate::TargetCluster) -> (Workspace, crate::TargetCluster) {
        let mut mgr = Aig::new();
        let mut map: HashMap<Var, Lit> = HashMap::new();
        let mut x = Vec::with_capacity(self.x.len());
        for (name, lit) in &self.x {
            let nl = mgr.add_input(name.clone());
            map.insert(lit.var(), nl);
            x.push((name.clone(), nl));
        }
        let mut target_vars = Vec::with_capacity(self.target_vars.len());
        for &tv in &self.target_vars {
            let pos = self.mgr.input_pos(tv).expect("target is an input");
            let nl = mgr.add_input(self.mgr.input_name(pos).to_owned());
            map.insert(tv, nl);
            target_vars.push(nl.var());
        }

        // One import pass: cluster f cones, cluster g cones, all candidates.
        let n = cluster.outputs.len();
        let mut roots: Vec<Lit> = cluster.outputs.iter().map(|&j| self.f_outs[j]).collect();
        roots.extend(cluster.outputs.iter().map(|&j| self.g_outs[j]));
        roots.extend(self.cands.iter().map(|c| c.lit));
        let imported = mgr
            .import(&self.mgr, &roots, &map)
            .expect("cluster cones reach only X and target inputs");
        let f_outs: Vec<Lit> = imported[..n].to_vec();
        let g_outs: Vec<Lit> = imported[n..2 * n].to_vec();
        let cands: Vec<WsCandidate> = self
            .cands
            .iter()
            .zip(&imported[2 * n..])
            .map(|(c, &lit)| WsCandidate {
                name: c.name.clone(),
                lit,
                weight: c.weight,
            })
            .collect();

        let out_names: Vec<String> = cluster
            .outputs
            .iter()
            .map(|&j| self.out_names[j].clone())
            .collect();
        let local = crate::TargetCluster {
            targets: cluster.targets.clone(),
            outputs: (0..n).collect(),
        };
        let sub = Workspace {
            mgr,
            x,
            target_vars,
            out_names,
            f_outs,
            g_outs,
            cands,
            input_cand: HashMap::new(),
        };
        (sub.with_fraig_outputs(), local)
    }

    /// Number of primary outputs `m`.
    pub fn num_outputs(&self) -> usize {
        self.f_outs.len()
    }

    /// Looks up an `X` input literal by name.
    pub fn x_lit(&self, name: &str) -> Option<Lit> {
        self.x.iter().find(|(n, _)| n == name).map(|(_, l)| *l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaseCandidate;
    use eco_netlist::{parse_verilog, WeightTable};

    fn sample_instance() -> EcoInstance {
        let faulty = parse_verilog(
            "module f (a, b, c, t, y, z); input a, b, c, t; output y, z; \
             wire w; or g0 (w, a, b); xor g1 (y, t, c); and g2 (z, w, c); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y, z); input a, b, c; output y, z; \
             wire w, v; or g0 (w, a, b); and g1 (v, a, b); xor g2 (y, v, c); \
             and g3 (z, w, c); endmodule",
        )
        .expect("golden");
        EcoInstance::from_netlists(
            "ws",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(2),
        )
        .expect("instance")
    }

    #[test]
    fn workspace_shares_structure() {
        let inst = sample_instance();
        let ws = Workspace::new(&inst);
        assert_eq!(ws.x.len(), 3);
        assert_eq!(ws.target_vars.len(), 1);
        assert_eq!(ws.num_outputs(), 2);
        // z is identical in both circuits: structural hashing must merge it.
        assert_eq!(ws.f_outs[1], ws.g_outs[1]);
        // y differs (depends on t in F).
        assert_ne!(ws.f_outs[0], ws.g_outs[0]);
    }

    #[test]
    fn faulty_semantics_preserved() {
        let inst = sample_instance();
        let ws = Workspace::new(&inst);
        // mgr inputs: a, b, c, t. f_y = t ^ c.
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        mgr.add_output("fy", ws.f_outs[0]);
        mgr.add_output("gy", ws.g_outs[0]);
        for bits in 0u32..16 {
            let vals: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let (a, b, c, t) = (vals[0], vals[1], vals[2], vals[3]);
            let _ = b;
            let out = mgr.eval(&vals);
            assert_eq!(out[0], t ^ c, "fy at {vals:?}");
            assert_eq!(out[1], (a && vals[1]) ^ c, "gy at {vals:?}");
        }
    }

    #[test]
    fn candidates_are_lifted() {
        let inst = sample_instance();
        let ws = Workspace::new(&inst);
        let w_cand = ws.cands.iter().find(|c| c.name == "w").expect("w");
        assert_eq!(w_cand.weight, 2);
        // w = a | b in the manager.
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        mgr.add_output("w", w_cand.lit);
        assert_eq!(mgr.eval(&[true, false, false, false]), vec![true]);
        assert_eq!(mgr.eval(&[false, false, true, true]), vec![false]);
    }

    #[test]
    fn workspace_from_direct_instance() {
        // EcoInstance::new path with explicit candidates.
        let faulty =
            parse_verilog("module f (a, t, y); input a, t; output y; and g (y, a, t); endmodule")
                .expect("f");
        let golden = parse_verilog("module g (a, y); input a; output y; buf g (y, a); endmodule")
            .expect("g");
        let fe = eco_netlist::elaborate(&faulty).expect("fe");
        let ge = eco_netlist::elaborate(&golden).expect("ge");
        let cand = BaseCandidate {
            name: "a".into(),
            lit: fe.net_lits["a"],
            weight: 3,
        };
        let inst =
            EcoInstance::new("d", fe.aig, ge.aig, vec!["t".into()], vec![cand]).expect("instance");
        let ws = Workspace::new(&inst);
        assert_eq!(ws.cands.len(), 1);
        assert_eq!(ws.x_lit("a"), Some(ws.x[0].1));
        assert_eq!(ws.x.len(), 1);
    }
}
