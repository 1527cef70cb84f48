//! Don't-care-based patch size reduction (§2.4).
//!
//! The patch specification is an *interval*: any function `h` with
//! `on ⊆ h ⊆ ¬off` rectifies the target, and the gap between the bounds is
//! exactly the observability/satisfiability don't-care set the paper says
//! is "especially important in ECO". This pass exploits it as classic
//! SAT-based redundancy removal: every AND node of a patch cone is
//! tentatively replaced by a constant or one of its fanins, and the
//! replacement is kept when a SAT check proves the mutated patch still
//! lies inside the interval and the cone shrank.
//!
//! All trials of one patch share one incremental solver: the interval's
//! cone is encoded once, each trial adds only its new nodes and asserts
//! its violation under a fresh activation literal, retired afterwards.
//!
//! A patch that reads at most two cut signals is finally rebuilt from its
//! truth table, which needs no SAT check (same function, same signals).

use std::collections::HashMap;

use eco_aig::{Aig, Lit, Var};
use eco_sat::{encode_cone, Lit as SLit, SolveCtl, Solver};

use crate::carediff::on_off_sets;
use crate::govern::Budget;
use crate::localize::Cut;
use crate::patchgen::PatchFn;
use crate::Workspace;

/// Knobs for the size-reduction pass.
#[derive(Clone, Copy, Debug)]
pub struct SizeOptOptions {
    /// Cap on replacement trials per patch.
    pub max_trials: usize,
    /// SAT conflict budget per validity check.
    pub conflict_budget: u64,
    /// Skip patches whose cone exceeds this many AND gates (each accepted
    /// replacement restarts the node scan, so very large cones would make
    /// the pass quadratic).
    pub max_cone: usize,
}

impl Default for SizeOptOptions {
    fn default() -> Self {
        SizeOptOptions {
            max_trials: 128,
            conflict_budget: 50_000,
            max_cone: 400,
        }
    }
}

/// Statistics from one size-reduction run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SizeOptStats {
    /// Replacement candidates tried.
    pub trials: usize,
    /// Replacements accepted.
    pub accepted: usize,
    /// Summed per-patch cone sizes before.
    pub size_before: usize,
    /// Summed per-patch cone sizes after.
    pub size_after: usize,
}

/// One patch's validity checker: an incremental solver over the patch's
/// `[on, ¬off]` interval, with the Tseitin map kept between trials so
/// each check encodes only the nodes it adds.
struct IntervalChecker {
    solver: Solver,
    map: HashMap<Var, SLit>,
}

impl IntervalChecker {
    /// A checker enrolled in the governor's control block. The default
    /// solver config runs no variable elimination, so every encoded node
    /// stays usable by later trials.
    fn new(ctl: &SolveCtl) -> Self {
        let mut solver = Solver::new();
        if !ctl.is_unlimited() {
            solver.set_ctl(ctl);
        }
        IntervalChecker {
            solver,
            map: HashMap::new(),
        }
    }

    /// Is `candidate` inside the `[on, ¬off]` interval? Decides
    /// `(on ∧ ¬candidate) ∨ (off ∧ candidate)` unsat under a fresh
    /// activation literal, which is retired by a unit clause afterwards
    /// so the query's clauses are satisfied for good. `None` when the
    /// per-check conflict budget or the control block stops the search.
    fn is_valid(
        &mut self,
        mgr: &mut Aig,
        on: Lit,
        off: Lit,
        candidate: Lit,
        conflict_budget: u64,
    ) -> Option<bool> {
        let bad_on = mgr.and(on, !candidate);
        let bad_off = mgr.and(off, candidate);
        let viol = mgr.or(bad_on, bad_off);
        if viol == Lit::FALSE {
            return Some(true);
        }
        let root = encode_cone(mgr, &[viol], &mut self.map, &mut self.solver)[0];
        let act = self.solver.new_var().pos();
        self.solver.add_clause(&[!act, root]);
        let solved = self.solver.solve_limited(&[act], conflict_budget);
        self.solver.add_clause(&[!act]);
        solved.map(|sat| !sat)
    }
}

/// Shrinks each patch cone in place using the ECO don't cares.
///
/// Each patch's specification is recomputed with every *other* patch
/// substituted (as in the cost optimizer), so the interval reflects the
/// final context. Cones are measured against each patch's own cut
/// frontier.
///
/// Per-check budgets are capped by the governor's conflict allowance, each
/// patch's validity solver is enrolled in the deadline/cancellation
/// control block, and remaining patches are skipped once the deadline
/// fires. Like cost optimization, stopping early is always sound — the
/// incoming patches stay valid.
pub fn reduce_patch_sizes(
    ws: &mut Workspace,
    patches: &mut [PatchFn],
    opts: &SizeOptOptions,
    budget: &Budget,
    tel: &crate::Telemetry,
) -> SizeOptStats {
    let conflict_budget = budget.cap(opts.conflict_budget);
    let ctl = budget.ctl();
    let mut stats = SizeOptStats::default();
    for p in 0..patches.len() {
        let frontier = patches[p].cut.frontier_vars();
        let cone_size = |ws: &Workspace, lit: Lit| ws.mgr.count_cone_ands_to_cut(&[lit], &frontier);
        let size = cone_size(ws, patches[p].lit);
        stats.size_before += size;
        if budget.expired() || size > opts.max_cone {
            // Untouched cones count on both sides so before/after stay
            // comparable; an oversized cone never gets a specification.
            stats.size_after += size;
            continue;
        }

        // Specification with the other patches fixed.
        let k = patches[p].target;
        let other_map: HashMap<Var, Lit> = patches
            .iter()
            .filter(|q| q.target != k)
            .map(|q| (ws.target_vars[q.target], q.lit))
            .collect();
        let f_outs = ws.f_outs.clone();
        let g_outs = ws.g_outs.clone();
        let f_spec = ws.mgr.substitute(&f_outs, &other_map);
        let t = ws.target_vars[k];
        let onoff = on_off_sets(&mut ws.mgr, &f_spec, &g_outs, t);

        // Built at the first check that needs a solver.
        let mut checker: Option<IntervalChecker> = None;
        let mut trials_left = opts.max_trials;
        let mut improved = true;
        while improved && trials_left > 0 {
            improved = false;
            let cur = patches[p].lit;
            let cur_size = cone_size(ws, cur);
            if cur_size == 0 {
                break;
            }
            // AND nodes strictly above the cut, deepest first (replacing a
            // node near the root removes the most logic).
            let mut nodes: Vec<Var> = ws
                .mgr
                .cone_vars_to_cut(&[cur], &frontier)
                .into_iter()
                .filter(|&v| ws.mgr.is_and(v) && !frontier.contains(&v))
                .collect();
            nodes.reverse();
            'nodes: for v in nodes {
                let Some((fan0, fan1)) = ws.mgr.and_fanins(v) else {
                    continue;
                };
                for replacement in [Lit::FALSE, Lit::TRUE, fan0, fan1] {
                    if trials_left == 0 {
                        break 'nodes;
                    }
                    let mut map = HashMap::new();
                    map.insert(v, replacement);
                    let candidate = ws.mgr.substitute(&[cur], &map)[0];
                    if cone_size(ws, candidate) >= cur_size {
                        continue;
                    }
                    trials_left -= 1;
                    stats.trials += 1;
                    let valid = checker
                        .get_or_insert_with(|| IntervalChecker::new(&ctl))
                        .is_valid(&mut ws.mgr, onoff.on, onoff.off, candidate, conflict_budget);
                    if valid == Some(true) {
                        patches[p].lit = candidate;
                        stats.accepted += 1;
                        improved = true;
                        break 'nodes;
                    }
                }
            }
        }
        if let Some(c) = &checker {
            tel.record_solver(&c.solver.stats());
        }
        if let Some(lit) = rebuild_small_support(&mut ws.mgr, patches[p].lit, &patches[p].cut) {
            patches[p].lit = lit;
        }
        stats.size_after += cone_size(ws, patches[p].lit);
    }
    stats
}

/// Rebuilds a patch that reads at most two signals of `cut` from its
/// truth table, and returns the rebuild when its cone is smaller.
///
/// Each assignment of the used signals (2 or 4), substituted for their
/// frontier variables, must fold the cone to a constant; otherwise the
/// patch is left alone. The function is then rebuilt as nested `mux` over
/// one frontier literal per signal, and structural hashing folds the
/// constants: 0, 1 or 3 AND gates.
fn rebuild_small_support(mgr: &mut Aig, lit: Lit, cut: &Cut) -> Option<Lit> {
    let frontier = cut.frontier_vars();
    let cone = mgr.cone_vars_to_cut(&[lit], &frontier);
    // (signal, frontier variable, phase) of every frontier node reached.
    let mut leaves: Vec<(usize, Var, bool)> = cone
        .iter()
        .filter_map(|v| cut.node_map.get(v).map(|&(s, phase)| (s, *v, phase)))
        .collect();
    leaves.sort_unstable_by_key(|&(s, v, _)| (s, v.index()));
    let mut signals: Vec<usize> = leaves.iter().map(|l| l.0).collect();
    signals.dedup();
    if signals.is_empty() || signals.len() > 2 {
        return None;
    }
    // Truth table: bit `i` of an assignment is the value of `signals[i]`.
    let mut table = Vec::with_capacity(1 << signals.len());
    for a in 0..1usize << signals.len() {
        let map: HashMap<Var, Lit> = leaves
            .iter()
            .map(|&(s, v, phase)| {
                let i = signals.iter().position(|&x| x == s).expect("used signal");
                let value = (a >> i & 1 == 1) ^ phase;
                (v, if value { Lit::TRUE } else { Lit::FALSE })
            })
            .collect();
        let folded = mgr.substitute(&[lit], &map)[0];
        folded.const_value()?;
        table.push(folded);
    }
    // One literal per signal: its lowest frontier variable, in the
    // signal's phase.
    let lits: Vec<Lit> = signals
        .iter()
        .map(|&s| {
            let &(_, v, phase) = leaves.iter().find(|l| l.0 == s).expect("used signal");
            v.lit(phase)
        })
        .collect();
    let rebuilt = build_mux(mgr, &lits, &table);
    let size = |mgr: &Aig, l: Lit| mgr.count_cone_ands_to_cut(&[l], &frontier);
    (size(mgr, rebuilt) < size(mgr, lit)).then_some(rebuilt)
}

/// The function with truth table `table` (entry `a`: bit `i` of `a` is the
/// value of `lits[i]`) as nested `mux` over `lits`, last literal on top.
fn build_mux(mgr: &mut Aig, lits: &[Lit], table: &[Lit]) -> Lit {
    let Some((&top, rest)) = lits.split_last() else {
        return table[0];
    };
    let (lo, hi) = table.split_at(table.len() / 2);
    let hi = build_mux(mgr, rest, hi);
    let lo = build_mux(mgr, rest, lo);
    mgr.mux(top, hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::{Cut, TapMap};
    use crate::{
        cluster_targets, generate_group_patches, ConflictMeter, EcoInstance, PatchGenOptions,
    };
    use eco_netlist::{parse_verilog, WeightTable};

    /// Deliberately bloated spec: the on-set circuit of the initial patch
    /// contains redundant structure that the don't cares allow removing.
    #[test]
    fn redundant_patch_logic_is_removed() {
        // Golden patch function: a & b. The on-set construction builds
        // care∧diff products that are larger than needed.
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
        let inst = EcoInstance::from_netlists(
            "so",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let mut ws = Workspace::new(&inst);
        let clustering = cluster_targets(&ws);
        let tap = TapMap::empty();
        let group = generate_group_patches(
            &mut ws,
            &tap,
            &clustering.clusters[0],
            &PatchGenOptions::default(),
            &Budget::unlimited(),
            &mut ConflictMeter::unlimited(),
            &crate::Telemetry::new(),
        )
        .expect("unlimited budget never degrades");
        let mut patches = group.patches;
        let stats = reduce_patch_sizes(
            &mut ws,
            &mut patches,
            &SizeOptOptions::default(),
            &Budget::unlimited(),
            &crate::Telemetry::new(),
        );
        assert!(stats.size_after <= stats.size_before, "{stats:?}");
        // The patch still equals a & b everywhere.
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        mgr.add_output("p", patches[0].lit);
        for bits in 0u32..16 {
            let vals: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(mgr.eval(&vals)[0], vals[0] && vals[1], "at {vals:?}");
        }
    }

    /// An already-minimal patch is left alone.
    #[test]
    fn minimal_patch_is_stable() {
        let faulty =
            parse_verilog("module f (a, t, y); input a, t; output y; buf g1 (y, t); endmodule")
                .expect("faulty");
        let golden = parse_verilog("module g (a, y); input a; output y; buf g1 (y, a); endmodule")
            .expect("golden");
        let inst = EcoInstance::from_netlists(
            "min",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let mut ws = Workspace::new(&inst);
        let clustering = cluster_targets(&ws);
        let tap = TapMap::empty();
        let group = generate_group_patches(
            &mut ws,
            &tap,
            &clustering.clusters[0],
            &PatchGenOptions::default(),
            &Budget::unlimited(),
            &mut ConflictMeter::unlimited(),
            &crate::Telemetry::new(),
        )
        .expect("unlimited budget never degrades");
        let mut patches = group.patches;
        let before = patches[0].lit;
        let stats = reduce_patch_sizes(
            &mut ws,
            &mut patches,
            &SizeOptOptions::default(),
            &Budget::unlimited(),
            &crate::Telemetry::new(),
        );
        assert_eq!(stats.size_after, stats.size_before);
        // A wire patch has no AND nodes at all; nothing to try.
        let _ = Cut::frontier(&ws, &tap, &[before]);
    }

    /// A cut over inputs `a`, `b`, `c` (signals 0, 1, 2) of a fresh AIG.
    fn abc() -> (Aig, [Lit; 3], Cut) {
        let mut mgr = Aig::new();
        let lits = [mgr.add_input("a"), mgr.add_input("b"), mgr.add_input("c")];
        let mut cut = Cut::default();
        for (i, l) in lits.iter().enumerate() {
            cut.node_map.insert(l.var(), (i, false));
        }
        (mgr, lits, cut)
    }

    fn ands(mgr: &Aig, lit: Lit, cut: &Cut) -> usize {
        mgr.count_cone_ands_to_cut(&[lit], &cut.frontier_vars())
    }

    #[test]
    fn four_and_xor_is_rebuilt_with_three() {
        let (mut mgr, [a, b, _], cut) = abc();
        // XOR as (a & !(a & b)) | (b & !(a & b)): 4 AND gates.
        let ab = mgr.and(a, b);
        let only_a = mgr.and(a, !ab);
        let only_b = mgr.and(b, !ab);
        let xor4 = mgr.or(only_a, only_b);
        assert_eq!(ands(&mgr, xor4, &cut), 4);
        let rebuilt = rebuild_small_support(&mut mgr, xor4, &cut).expect("shrinks");
        assert_eq!(ands(&mgr, rebuilt, &cut), 3);
        for bits in 0..4u32 {
            let vals = [bits & 1 == 1, bits & 2 == 2, false];
            assert_eq!(
                mgr.eval_lit(rebuilt, &vals),
                vals[0] ^ vals[1],
                "at {vals:?}"
            );
        }
    }

    #[test]
    fn three_signal_patch_is_untouched() {
        let (mut mgr, [a, b, c], cut) = abc();
        let ab = mgr.and(a, b);
        let abc = mgr.and(ab, c);
        assert_eq!(rebuild_small_support(&mut mgr, abc, &cut), None);
    }

    #[test]
    fn single_and_patch_stays_one_and() {
        let (mut mgr, [a, b, _], cut) = abc();
        let ab = mgr.and(a, !b);
        assert_eq!(rebuild_small_support(&mut mgr, ab, &cut), None);
        assert_eq!(ands(&mgr, ab, &cut), 1);
    }
}
