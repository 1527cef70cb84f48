//! Counterexample enumeration over Watch variables (§6.2.1, Table 1).
//!
//! With the Hold signals (plus one probe candidate) selected in the Eq.-12
//! formula, every satisfying assignment is a *counterexample*: an on-set
//! point and an off-set point that the selected signals fail to
//! distinguish. Counterexamples are projected onto the Watch signals of
//! the on-copy, and enumeration collects every projection, up to the
//! paper's `2^|Watch|` bound.
//!
//! Most projections need no SAT call. The two copies of the formula share
//! no variables, so the on-set point of one model and the off-set point of
//! another form a counterexample whenever the selected candidates agree
//! on them. Each [`RebaseQuery`] therefore keeps a [`ModelTable`] of the
//! candidate values at both points of every enumeration model it has
//! returned, and a probe first joins its on-rows against its off-rows.
//! The projections found are blocked under one fresh control variable,
//! and SAT supplies the rest: one model per projection the table missed,
//! and one UNSAT answer proving that none is left. The control is not
//! assumed by later enumerations, which deactivates the blocks without
//! solver surgery.

use std::collections::HashMap;

use crate::rebase::RebaseQuery;

/// The counterexample projections seen for one probe: each entry is a
/// bitmask over the Watch list (bit `i` = value of the on-copy literal of
/// `watch[i]`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CexSet {
    /// Distinct projections in discovery order.
    pub masks: Vec<u32>,
}

impl CexSet {
    /// Returns `true` if no counterexample exists (the probed selection is
    /// feasible).
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Number of distinct projections.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Counts projections in `self` that are absent from `other` — the
    /// "newly blocked" quantity in the CPB score (Eq. 13).
    pub fn count_not_in(&self, other: &CexSet) -> usize {
        self.masks
            .iter()
            .filter(|m| !other.masks.contains(m))
            .count()
    }

    /// Set union (used to accumulate the candidate pool's projections).
    pub fn union_with(&mut self, other: &CexSet) {
        for &m in &other.masks {
            if !self.masks.contains(&m) {
                self.masks.push(m);
            }
        }
    }

    /// Set intersection (projections still unblocked).
    pub fn intersect_with(&mut self, other: &CexSet) {
        self.masks.retain(|m| other.masks.contains(m));
    }
}

/// Pool-candidate values at the two points of every enumeration model of
/// one query, as bit rows as wide as the pool: row `i` of `on` holds the
/// on-copy values (`b1`) of model `i`, row `i` of `off` its off-copy
/// values (`b2`).
pub(crate) struct ModelTable {
    words: usize,
    rows: usize,
    on: Vec<u64>,
    off: Vec<u64>,
}

impl ModelTable {
    /// An empty table for a pool of `width` candidates.
    pub(crate) fn new(width: usize) -> Self {
        ModelTable {
            words: width.div_ceil(64),
            rows: 0,
            on: Vec::new(),
            off: Vec::new(),
        }
    }

    /// Appends one model's rows; returns their index.
    pub(crate) fn push(&mut self, on: &[bool], off: &[bool]) -> usize {
        for (rows, bits) in [(&mut self.on, on), (&mut self.off, off)] {
            let base = rows.len();
            rows.resize(base + self.words, 0);
            for (j, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
                rows[base + j / 64] |= 1 << (j % 64);
            }
        }
        self.rows += 1;
        self.rows - 1
    }

    fn on_row(&self, i: usize) -> &[u64] {
        &self.on[i * self.words..(i + 1) * self.words]
    }

    fn off_row(&self, i: usize) -> &[u64] {
        &self.off[i * self.words..(i + 1) * self.words]
    }

    /// The row mask selecting the pool entries `idx`.
    fn mask(&self, idx: &[usize]) -> Vec<u64> {
        let mut mask = vec![0u64; self.words];
        for &i in idx {
            mask[i / 64] |= 1 << (i % 64);
        }
        mask
    }
}

/// Do rows `a` and `b` agree on every candidate in `mask`?
fn agree(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    a.iter()
        .zip(b)
        .zip(mask)
        .all(|((x, y), m)| (x ^ y) & m == 0)
}

/// A hash of `row` restricted to `mask`, exact for pools of at most 64
/// candidates (multiplying by an odd constant and rotating are
/// bijections).
fn key(row: &[u64], mask: &[u64]) -> u64 {
    row.iter().zip(mask).fold(0, |h: u64, (r, m)| {
        (h ^ (r & m))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    })
}

/// The Watch projection of an on-row.
fn project(row: &[u64], watch: &[usize]) -> u32 {
    watch
        .iter()
        .enumerate()
        .filter(|&(_, &w)| row[w / 64] >> (w % 64) & 1 == 1)
        .fold(0, |m, (i, _)| m | 1 << i)
}

/// The blocking clause of projection `mask` under control `c`: with `c`
/// assumed, at least one watch literal must differ next time (Table 1's
/// `c → a ∨ ¬b` pattern).
fn block(c: eco_sat::Lit, mask: u32, watch_b1: &[eco_sat::Lit]) -> Vec<eco_sat::Lit> {
    let mut clause = vec![!c];
    for (i, &wl) in watch_b1.iter().enumerate() {
        clause.push(if mask >> i & 1 == 1 { !wl } else { wl });
    }
    clause
}

/// Enumerates every counterexample projection onto `watch` (pool indices)
/// with `hold ∪ probe` selected (all pool indices): the complete set, at
/// most `2^|watch|` projections, so the result is a property of the
/// instance and not of the solver's state. With an empty `watch` the one
/// possible projection, `0`, stands for "some counterexample exists".
///
/// Projections that the query's table of earlier models already
/// witnesses cost no SAT call; the models of this call join the table.
/// Returns `None` when the conflict budget is exhausted mid-enumeration.
///
/// # Panics
///
/// Panics if `watch.len() > 31`.
pub fn enumerate_cex(
    q: &mut RebaseQuery,
    hold: &[usize],
    probe: Option<usize>,
    watch: &[usize],
    conflict_budget: u64,
) -> Option<CexSet> {
    assert!(watch.len() <= 31, "watch windows beyond 31 are impractical");
    let full = 1usize << watch.len();
    let selected: Vec<usize> = hold.iter().copied().chain(probe).collect();
    let mask = q.table.mask(&selected);
    let mut set = CexSet::default();

    // Every on-row with an off-row that agrees on the selection.
    let table = &q.table;
    let mut off_by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for j in 0..table.rows {
        off_by_key
            .entry(key(table.off_row(j), &mask))
            .or_default()
            .push(j);
    }
    for i in 0..table.rows {
        if set.len() == full {
            break;
        }
        let row = table.on_row(i);
        let m = project(row, watch);
        if set.masks.contains(&m) {
            continue;
        }
        let matched = off_by_key
            .get(&key(row, &mask))
            .is_some_and(|js| js.iter().any(|&j| agree(row, table.off_row(j), &mask)));
        if matched {
            set.masks.push(m);
        }
    }

    let mut models = 0;
    let mut exhausted = false;
    if set.len() < full {
        let watch_b1: Vec<eco_sat::Lit> = watch.iter().map(|&i| q.b1_lits()[i]).collect();
        let mut assumptions: Vec<eco_sat::Lit> =
            selected.iter().map(|&i| q.sel_lits()[i]).collect();
        // The control is assumed by every solve below, so it must never
        // be eliminated by inprocessing.
        let c = q.solver_mut().new_var().pos();
        q.solver_mut().freeze_var(c.var());
        assumptions.push(c);
        for &m in &set.masks {
            q.solver_mut().add_clause(&block(c, m, &watch_b1));
        }
        while set.len() < full {
            match q.solve(&assumptions, conflict_budget) {
                None => {
                    exhausted = true;
                    break;
                }
                Some(false) => {
                    q.counts.unsat_proofs += 1;
                    break;
                }
                Some(true) => {
                    models += 1;
                    let r = q.record_model();
                    let table = &q.table;
                    let found = set.len();
                    let own = project(table.on_row(r), watch);
                    debug_assert!(!set.masks.contains(&own), "projection repeated");
                    set.masks.push(own);
                    // The new off-set point may complete earlier on-rows.
                    for i in 0..r {
                        let row = table.on_row(i);
                        let m = project(row, watch);
                        if !set.masks.contains(&m) && agree(row, table.off_row(r), &mask) {
                            set.masks.push(m);
                        }
                    }
                    for &m in &set.masks[found..] {
                        q.solver_mut().add_clause(&block(c, m, &watch_b1));
                    }
                }
            }
        }
        // The control is never assumed again once this call returns, so
        // retire it for good: the unit clause fixes it false at the top
        // level (the value every later solve would have branched to
        // anyway — it occurs only negatively), which takes the dead
        // blocking clauses out of the search and stops a retired control
        // from costing one decision per future solve on this query.
        q.solver_mut().add_clause(&[!c]);
    }
    // Each model contributes its own projection; the rest came from the
    // table.
    let counts = &mut q.counts;
    counts.probes += 1;
    counts.projections += set.len() as u64;
    counts.sat_models += models;
    counts.table_projections += set.len() as u64 - models;
    if exhausted {
        return None;
    }
    Some(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carediff::on_off_sets;
    use crate::{EcoInstance, RebaseQuery, Workspace};
    use eco_netlist::{parse_verilog, WeightTable};

    /// The paper's Table-1 setting: patch p = a ⊕ b over base {a, b}.
    /// With no base selected, the on-copy projections on (a, b) are
    /// exactly the on-set rows {01, 10}; two blocking clauses end the
    /// enumeration (§6.2.1's worked example).
    fn xor_query() -> (Workspace, RebaseQuery, usize, usize) {
        let faulty = parse_verilog(
            "module f (a, b, t, y); input a, b, t; output y; buf g (y, t); endmodule",
        )
        .expect("faulty");
        let golden =
            parse_verilog("module g (a, b, y); input a, b; output y; xor g (y, a, b); endmodule")
                .expect("golden");
        let inst = EcoInstance::from_netlists(
            "t1",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let mut ws = Workspace::new(&inst);
        let t = ws.target_vars[0];
        let f_outs = ws.f_outs.clone();
        let g_outs = ws.g_outs.clone();
        let onoff = on_off_sets(&mut ws.mgr, &f_outs, &g_outs, t);
        let pool: Vec<usize> = (0..ws.cands.len()).collect();
        let a = pool
            .iter()
            .position(|&i| ws.cands[i].name == "a")
            .expect("a");
        let b = pool
            .iter()
            .position(|&i| ws.cands[i].name == "b")
            .expect("b");
        let q = RebaseQuery::new(&ws, onoff.on, onoff.off, pool);
        (ws, q, a, b)
    }

    #[test]
    fn table1_xor_enumeration() {
        let (_ws, mut q, a, b) = xor_query();
        // Watch (a, b); nothing selected. On-set of a⊕b = {01, 10}.
        let cex = enumerate_cex(&mut q, &[], None, &[a, b], 1 << 20).expect("in budget");
        let mut masks = cex.masks.clone();
        masks.sort_unstable();
        // bit0 = a, bit1 = b: {a=1,b=0} = 0b01, {a=0,b=1} = 0b10.
        assert_eq!(masks, vec![0b01, 0b10]);
    }

    #[test]
    fn selecting_the_base_removes_all_cex() {
        let (_ws, mut q, a, b) = xor_query();
        let cex = enumerate_cex(&mut q, &[a], Some(b), &[a, b], 1 << 20).expect("in budget");
        assert!(cex.is_empty(), "base {{a,b}} distinguishes everything");
        // And the blocked clauses from earlier runs don't leak: a fresh
        // unconstrained enumeration still sees both projections.
        let again = enumerate_cex(&mut q, &[], None, &[a, b], 1 << 20).expect("in budget");
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn partial_base_leaves_cex() {
        let (_ws, mut q, a, b) = xor_query();
        // Selecting only a: on/off points still collide when they agree on
        // a but differ on b.
        let cex = enumerate_cex(&mut q, &[], Some(a), &[a, b], 1 << 20).expect("in budget");
        assert!(!cex.is_empty());
        let _ = b;
    }

    #[test]
    fn cexset_algebra() {
        let s1 = CexSet {
            masks: vec![1, 2, 3],
        };
        let s2 = CexSet { masks: vec![2, 4] };
        assert_eq!(s1.count_not_in(&s2), 2);
        let mut u = s1.clone();
        u.union_with(&s2);
        assert_eq!(u.len(), 4);
        let mut i = s1.clone();
        i.intersect_with(&s2);
        assert_eq!(i.masks, vec![2]);
        assert!(!i.is_empty());
    }

    /// On-set `a ∨ (b ∧ c)`, off-set its complement, candidates `a`, `b`,
    /// `c`. Selecting `{b, c}` and watching `(a, b)` leaves the on-rows
    /// `a=1, b=0` and `a=1, b=1` in the table. Selecting `{a}` then needs
    /// a model, whose off-set point has `a=0`: it must not pair with those
    /// rows, since no off-set point has `a=1`, so `b=0` is no projection.
    #[test]
    fn table_pairs_only_rows_that_agree_on_the_selection() {
        let mut mgr = eco_aig::Aig::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| mgr.add_input(n));
        let bc = mgr.and(b, c);
        let on = mgr.or(a, bc);
        let cands = [("a", a), ("b", b), ("c", c)]
            .map(|(name, lit)| crate::WsCandidate {
                name: name.into(),
                lit,
                weight: 1,
            })
            .to_vec();
        let ws = Workspace {
            mgr,
            x: Vec::new(),
            target_vars: Vec::new(),
            out_names: Vec::new(),
            f_outs: Vec::new(),
            g_outs: Vec::new(),
            cands,
            input_cand: std::collections::HashMap::new(),
        };
        let mut q = RebaseQuery::new(&ws, on, !on, vec![0, 1, 2]);
        let first = enumerate_cex(&mut q, &[1], Some(2), &[0, 1], 1 << 20).expect("in budget");
        let mut masks = first.masks.clone();
        masks.sort_unstable();
        assert_eq!(masks, vec![0b01, 0b11]);
        let second = enumerate_cex(&mut q, &[], Some(0), &[1], 1 << 20).expect("in budget");
        assert_eq!(second.masks, vec![1]);
    }

    /// A random specification over 3 to 6 inputs: an on-set, an off-set
    /// that is its complement minus a sparse don't-care set, and 4 to 7
    /// candidate functions, all drawn from one random AIG over the inputs.
    /// The workspace holds only what a [`RebaseQuery`] reads.
    fn random_spec(seed: u64) -> (Workspace, eco_aig::Lit, eco_aig::Lit) {
        use eco_aig::{Aig, Lit, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let mut mgr = Aig::new();
        let n = rng.range_inclusive(3, 6) as usize;
        let mut nodes: Vec<Lit> = (0..n).map(|i| mgr.add_input(format!("x{i}"))).collect();
        for _ in 0..rng.range_inclusive(6, 16) {
            let a = nodes[rng.index(nodes.len())].xor_complement(rng.chance(0.5));
            let b = nodes[rng.index(nodes.len())].xor_complement(rng.chance(0.5));
            let g = mgr.and(a, b);
            nodes.push(g);
        }
        let pick =
            |rng: &mut SplitMix64| nodes[rng.index(nodes.len())].xor_complement(rng.chance(0.5));
        let on = pick(&mut rng);
        let (d0, d1) = (pick(&mut rng), pick(&mut rng));
        let dc = mgr.and(d0, d1);
        let off = mgr.and(!on, !dc);
        let cands = (0..rng.range_inclusive(4, 7))
            .map(|j| crate::WsCandidate {
                name: format!("c{j}"),
                lit: pick(&mut rng),
                weight: 1,
            })
            .collect();
        let ws = Workspace {
            mgr,
            x: Vec::new(),
            target_vars: Vec::new(),
            out_names: Vec::new(),
            f_outs: Vec::new(),
            g_outs: Vec::new(),
            cands,
            input_cand: std::collections::HashMap::new(),
        };
        (ws, on, off)
    }

    /// The projection set by brute force over every (x, x*) pair: the
    /// Watch values at x of every on-set point x with an off-set point x*
    /// on which the selected candidates take the same values.
    fn brute_force(
        ws: &Workspace,
        on: eco_aig::Lit,
        off: eco_aig::Lit,
        selected: &[usize],
        watch: &[usize],
    ) -> Vec<u32> {
        let n = ws.mgr.num_inputs();
        let points: Vec<(bool, bool, Vec<bool>)> = (0..1u32 << n)
            .map(|x| {
                let vals: Vec<bool> = (0..n).map(|i| x >> i & 1 == 1).collect();
                let cands = ws
                    .cands
                    .iter()
                    .map(|c| ws.mgr.eval_lit(c.lit, &vals))
                    .collect();
                (
                    ws.mgr.eval_lit(on, &vals),
                    ws.mgr.eval_lit(off, &vals),
                    cands,
                )
            })
            .collect();
        let mut masks: Vec<u32> = points
            .iter()
            .filter(|(is_on, _, c)| {
                *is_on
                    && points
                        .iter()
                        .any(|(_, is_off, d)| *is_off && selected.iter().all(|&i| c[i] == d[i]))
            })
            .map(|(_, _, c)| {
                (0..watch.len())
                    .filter(|&i| c[watch[i]])
                    .fold(0, |m, i| m | 1 << i)
            })
            .collect();
        masks.sort_unstable();
        masks.dedup();
        masks
    }

    /// `enumerate_cex` returns exactly the complete projection set, on a
    /// fresh query and on one whose table earlier probes have filled.
    #[test]
    fn enumeration_matches_brute_force() {
        let mut table_hits = 0;
        for seed in 0..60u64 {
            let (ws, on, off) = random_spec(seed);
            let pool: Vec<usize> = (0..ws.cands.len()).collect();
            let mut q = RebaseQuery::new(&ws, on, off, pool.clone());
            let mut rng = eco_aig::SplitMix64::new(seed ^ 0x5eed);
            for probe_no in 0..16 {
                let mut shuffled = pool.clone();
                rng.shuffle(&mut shuffled);
                let hold_len = rng.index(pool.len());
                let hold = &shuffled[..hold_len];
                let probe = (rng.chance(0.8)).then(|| shuffled[hold_len]);
                let watch_len = rng.index(pool.len().min(5) + 1);
                let mut watch = pool.clone();
                rng.shuffle(&mut watch);
                watch.truncate(watch_len);
                let mut selected = hold.to_vec();
                selected.extend(probe);
                let expect = brute_force(&ws, on, off, &selected, &watch);
                let before = q.counts;
                let got = enumerate_cex(&mut q, hold, probe, &watch, 1 << 20).expect("in budget");
                let mut masks = got.masks.clone();
                masks.sort_unstable();
                masks.dedup();
                assert_eq!(masks.len(), got.len(), "seed {seed}: repeated projection");
                assert_eq!(
                    masks, expect,
                    "seed {seed} probe {probe_no}: hold {hold:?} probe {probe:?} watch {watch:?}"
                );
                let after = q.counts;
                table_hits += after.table_projections - before.table_projections;
                assert_eq!(after.probes, before.probes + 1);
                assert_eq!(
                    after.projections - before.projections,
                    got.len() as u64,
                    "seed {seed}"
                );
            }
        }
        assert!(
            table_hits > 0,
            "later probes must read projections off the table"
        );
    }
}
