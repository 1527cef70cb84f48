//! Localization (Algorithm 2 / Theorem 2 of the paper).
//!
//! FRAIG equivalence classes over the combined manager identify *shared
//! equivalent signals*: manager nodes proven equal (up to complement) to a
//! named, target-independent faulty net. A reverse-topological traversal
//! from the relevant roots then collects the *cut frontier* `C_d` — the
//! first-found signal of type `{X, shared-equivalent, target}` along every
//! path — over which care/diff sets, patches, and interpolants are
//! expressed. This is what lets patches reuse intermediate signals instead
//! of being rebuilt from primary inputs.

use std::collections::{HashMap, HashSet};

use eco_aig::{Lit, Var};
use eco_fraig::EquivClasses;

use crate::Workspace;

/// Maps manager nodes to the cheapest named faulty signal they are proven
/// equivalent to.
#[derive(Clone, Debug, Default)]
pub struct TapMap {
    /// var → (candidate index, phase): the node equals
    /// `cands[idx].lit ^ phase`.
    taps: HashMap<Var, (usize, bool)>,
}

impl TapMap {
    /// Builds the tap map: every candidate's own node is tapped, and FRAIG
    /// classes propagate taps (phase-adjusted) to all equivalent nodes,
    /// preferring the lowest-weight candidate per class.
    pub fn build(ws: &Workspace, classes: &EquivClasses) -> Self {
        let mut taps: HashMap<Var, (usize, bool)> = HashMap::new();
        let better = |cands: &[crate::WsCandidate], a: usize, b: usize| {
            // Prefer lower weight, then stable name order.
            (cands[a].weight, &cands[a].name) < (cands[b].weight, &cands[b].name)
        };
        for (idx, c) in ws.cands.iter().enumerate() {
            let v = c.lit.var();
            let entry = (idx, c.lit.is_complement());
            match taps.get(&v) {
                Some(&(old, _)) if !better(&ws.cands, idx, old) => {}
                _ => {
                    taps.insert(v, entry);
                }
            }
        }
        // Propagate through equivalence classes.
        for class in &classes.classes {
            // Find the cheapest tapped member.
            let mut best: Option<(usize, bool, bool)> = None; // (cand, tap_phase, member_phase)
            for &(v, ph) in &class.members {
                if let Some(&(idx, tp)) = taps.get(&v) {
                    match best {
                        Some((b, _, _)) if !better(&ws.cands, idx, b) => {}
                        _ => best = Some((idx, tp, ph)),
                    }
                }
            }
            let Some((idx, tap_phase, src_phase)) = best else {
                continue;
            };
            for &(w, w_phase) in &class.members {
                // w == src ^ (src_phase ^ w_phase); signal == src ^ tap_phase
                // => w == signal ^ (tap_phase ^ src_phase ^ w_phase).
                let phase = tap_phase ^ src_phase ^ w_phase;
                match taps.get(&w) {
                    Some(&(old, _)) if !better(&ws.cands, idx, old) => {}
                    _ => {
                        taps.insert(w, (idx, phase));
                    }
                }
            }
        }
        TapMap { taps }
    }

    /// An empty tap map (localization disabled: cuts bottom out at `X`).
    pub fn empty() -> Self {
        TapMap::default()
    }

    /// Returns the tap of `v`, if any.
    pub fn tap(&self, v: Var) -> Option<(usize, bool)> {
        self.taps.get(&v).copied()
    }

    /// Number of tapped nodes.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Returns `true` when no node is tapped.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }
}

/// One cut-frontier signal usable as a patch input.
#[derive(Clone, Debug)]
pub struct CutSignal {
    /// Net name in the faulty circuit.
    pub name: String,
    /// Manager literal carrying the signal's value.
    pub lit: Lit,
    /// Tap cost.
    pub weight: u64,
    /// Index into `workspace.cands`, when the signal is a candidate.
    pub cand_idx: Option<usize>,
}

/// A cut frontier `C_d` for a set of roots.
#[derive(Clone, Debug, Default)]
pub struct Cut {
    /// Distinct cut signals.
    pub signals: Vec<CutSignal>,
    /// Frontier node → (signal index, phase): the node equals
    /// `signals[i] ^ phase`.
    pub node_map: HashMap<Var, (usize, bool)>,
    /// Target indices (into `workspace.target_vars`) on the frontier.
    pub targets: Vec<usize>,
}

impl Cut {
    /// Computes the cut frontier of `roots`: a reverse-topological DFS that
    /// stops at the first `X` input, tapped node, or target pseudo-input
    /// along every path (Algorithm 2's `CutFrontier`).
    pub fn frontier(ws: &Workspace, tap: &TapMap, roots: &[Lit]) -> Cut {
        let target_idx: HashMap<Var, usize> = ws
            .target_vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        let mut cut = Cut::default();
        let mut sig_of_cand: HashMap<usize, usize> = HashMap::new();
        let mut sig_of_input: HashMap<Var, usize> = HashMap::new();
        let mut targets_seen: HashSet<usize> = HashSet::new();
        let mut visited: HashSet<Var> = HashSet::new();
        let mut stack: Vec<Var> = roots.iter().map(|l| l.var()).collect();
        while let Some(v) = stack.pop() {
            if !visited.insert(v) {
                continue;
            }
            if let Some(&k) = target_idx.get(&v) {
                if targets_seen.insert(k) {
                    cut.targets.push(k);
                }
                continue;
            }
            if let Some((idx, phase)) = tap.tap(v) {
                let sig = *sig_of_cand.entry(idx).or_insert_with(|| {
                    let c = &ws.cands[idx];
                    cut.signals.push(CutSignal {
                        name: c.name.clone(),
                        lit: c.lit,
                        weight: c.weight,
                        cand_idx: Some(idx),
                    });
                    cut.signals.len() - 1
                });
                cut.node_map.insert(v, (sig, phase));
                continue;
            }
            if let Some((fan0, fan1)) = ws.mgr.and_fanins(v) {
                stack.push(fan0.var());
                stack.push(fan1.var());
            } else if let Some(pos) = ws.mgr.input_pos(v) {
                // An X input: weighted through its candidate when one
                // exists (the tap map may be empty when localization is
                // disabled), else usable as-is with default weight.
                let sig = *sig_of_input.entry(v).or_insert_with(|| {
                    let (weight, cand_idx) = match ws.input_cand.get(&v) {
                        Some(&ci) => (ws.cands[ci].weight, Some(ci)),
                        None => (1, None),
                    };
                    cut.signals.push(CutSignal {
                        name: ws.mgr.input_name(pos).to_owned(),
                        lit: v.pos(),
                        weight,
                        cand_idx,
                    });
                    cut.signals.len() - 1
                });
                cut.node_map.insert(v, (sig, false));
            }
            // Constant: no cut signal needed.
        }
        cut.targets.sort_unstable();
        cut
    }

    /// Builds a cut directly from chosen base candidates: each candidate's
    /// driving node becomes a frontier node for its own signal. Used after
    /// rebasing, where the patch cone bottoms out exactly at the base.
    pub fn from_candidates(ws: &Workspace, cands: &[usize]) -> Cut {
        let mut cut = Cut::default();
        for &idx in cands {
            let c = &ws.cands[idx];
            cut.signals.push(CutSignal {
                name: c.name.clone(),
                lit: c.lit,
                weight: c.weight,
                cand_idx: Some(idx),
            });
            cut.node_map
                .insert(c.lit.var(), (cut.signals.len() - 1, c.lit.is_complement()));
        }
        cut
    }

    /// Merges several cuts: signals dedup by name; on frontier-node
    /// conflicts the earliest mapping wins (the signals are provably equal,
    /// so either is correct).
    ///
    /// Frontier entries are visited in variable order, not hash order, so
    /// the merged signal numbering — and everything downstream of it, like
    /// patch-AIG input order — is deterministic.
    pub fn merge<'a>(cuts: impl IntoIterator<Item = &'a Cut>) -> Cut {
        let mut out = Cut::default();
        let mut sig_by_name: HashMap<String, usize> = HashMap::new();
        let mut targets_seen: HashSet<usize> = HashSet::new();
        for cut in cuts {
            let mut entries: Vec<(Var, (usize, bool))> =
                cut.node_map.iter().map(|(&v, &e)| (v, e)).collect();
            entries.sort_unstable_by_key(|(v, _)| v.index());
            for (v, (sig, phase)) in entries {
                if out.node_map.contains_key(&v) {
                    continue;
                }
                let s = &cut.signals[sig];
                let new_sig = *sig_by_name.entry(s.name.clone()).or_insert_with(|| {
                    out.signals.push(s.clone());
                    out.signals.len() - 1
                });
                out.node_map.insert(v, (new_sig, phase));
            }
            for &t in &cut.targets {
                if targets_seen.insert(t) {
                    out.targets.push(t);
                }
            }
        }
        out.targets.sort_unstable();
        out
    }

    /// The signal indices actually reachable on the frontier of `roots` —
    /// the *used* base. Cost is summed over these, not over all signals.
    pub fn used_signals(&self, mgr: &eco_aig::Aig, roots: &[Lit]) -> Vec<usize> {
        let frontier: HashSet<Var> = self.node_map.keys().copied().collect();
        let mut used: Vec<usize> = mgr
            .cone_vars_to_cut(roots, &frontier)
            .into_iter()
            .filter_map(|v| self.node_map.get(&v).map(|&(s, _)| s))
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Weight of the used base of `roots` under this cut.
    pub fn used_cost(&self, mgr: &eco_aig::Aig, roots: &[Lit]) -> u64 {
        self.used_signals(mgr, roots)
            .iter()
            .map(|&s| self.signals[s].weight)
            .sum()
    }

    /// The frontier variables (cut nodes), excluding targets.
    pub fn frontier_vars(&self) -> HashSet<Var> {
        self.node_map.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster_targets, EcoInstance};
    use eco_fraig::{fraig_classes, FraigOptions};
    use eco_netlist::{parse_verilog, WeightTable};

    /// Golden: y = (a|b) & c. Faulty: the AND is the target; the (a|b)
    /// subcircuit exists in F as net `w` (feeding another output), so
    /// localization should tap `w` instead of rebuilding from a, b.
    fn localized_instance() -> (EcoInstance, Workspace) {
        let faulty = parse_verilog(
            "module f (a, b, c, t, y, z); input a, b, c, t; output y, z; \
             wire w; or g0 (w, a, b); buf g1 (y, t); nand g2 (z, w, a); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y, z); input a, b, c; output y, z; \
             wire v; or g0 (v, a, b); and g1 (y, v, c); nand g2 (z, v, a); endmodule",
        )
        .expect("golden");
        let mut weights = WeightTable::new(10);
        weights.set("w", 2);
        let inst = EcoInstance::from_netlists("loc", &faulty, &golden, vec!["t".into()], &weights)
            .expect("instance");
        let ws = Workspace::new(&inst);
        (inst, ws)
    }

    #[test]
    fn tap_map_covers_candidates_and_equivalences() {
        let (_inst, ws) = localized_instance();
        let classes = fraig_classes(&ws.mgr, &FraigOptions::default());
        let tap = TapMap::build(&ws, &classes);
        // The golden `v` node is structurally hashed with faulty `w`
        // (identical or(a,b)), so the shared node must be tapped.
        let w_cand = ws.cands.iter().position(|c| c.name == "w").expect("w");
        let w_var = ws.cands[w_cand].lit.var();
        let got = tap.tap(w_var).expect("w tapped");
        assert_eq!(got.0, w_cand);
        assert!(!tap.is_empty());
    }

    #[test]
    fn frontier_stops_at_tapped_signal() {
        let (_inst, ws) = localized_instance();
        let classes = fraig_classes(&ws.mgr, &FraigOptions::default());
        let tap = TapMap::build(&ws, &classes);
        // Frontier of the golden y cone (v & c): should stop at w (≡ v)
        // and c, never reaching a or b.
        let cut = Cut::frontier(&ws, &tap, &[ws.g_outs[0]]);
        let names: Vec<&str> = cut.signals.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"w"), "cut {names:?} should contain w");
        assert!(names.contains(&"c"));
        assert!(!names.contains(&"a"));
        assert!(!names.contains(&"b"));
        assert!(cut.targets.is_empty());
    }

    #[test]
    fn frontier_collects_targets() {
        let (_inst, ws) = localized_instance();
        let tap = TapMap::empty();
        let cut = Cut::frontier(&ws, &tap, &[ws.f_outs[0]]);
        // Faulty y = t: frontier is exactly the target.
        assert_eq!(cut.targets, vec![0]);
        assert!(cut.signals.is_empty());
    }

    #[test]
    fn empty_tap_map_bottoms_out_at_inputs() {
        let (_inst, ws) = localized_instance();
        let tap = TapMap::empty();
        let cut = Cut::frontier(&ws, &tap, &[ws.g_outs[0]]);
        let mut names: Vec<&str> = cut.signals.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn cut_weight_prefers_cheap_taps() {
        let (_inst, ws) = localized_instance();
        let classes = fraig_classes(&ws.mgr, &FraigOptions::default());
        let tap = TapMap::build(&ws, &classes);
        let cut = Cut::frontier(&ws, &tap, &[ws.g_outs[0]]);
        // w has weight 2, c has default 10 → total 12 (vs 30 over a,b,c).
        assert_eq!(cut.signals.iter().map(|s| s.weight).sum::<u64>(), 12);
        let _ = cluster_targets(&ws);
    }
}
