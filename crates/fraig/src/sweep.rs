//! Simulation-guided SAT sweeping: the FRAIG equivalence-class engine.
//!
//! The hot path is built on the allocation-free simulation engine of
//! `eco-aig`: candidate classes are bucketed by 128-bit canonical-word
//! [fingerprints](SimVectors::fingerprint) (full-word comparison only on
//! fingerprint collision), and counterexamples from failed SAT queries are
//! appended to an [`IncrementalSim`] arena so each refine round
//! re-simulates only the new stimulus columns.

use std::collections::{HashMap, HashSet};

use eco_aig::{Aig, IncrementalSim, Lit as ALit, SimVectors, SplitMix64, Var as AVar};
use eco_sat::{encode_cone, LBool, Lit as SLit, SolveCtl, Solver, SolverStats};

use crate::uf::ParityUnionFind;

/// Knobs for the sweeping loop.
#[derive(Clone, Debug)]
pub struct FraigOptions {
    /// 64-pattern words of random base stimulus.
    pub sim_words: usize,
    /// Seed for the deterministic stimulus generator.
    pub seed: u64,
    /// Maximum refine/verify rounds.
    pub max_rounds: usize,
    /// Conflict budget per equivalence query (timeouts count as
    /// "not proven", which is sound).
    pub conflict_budget: u64,
    /// Total conflict allowance across the whole sweep: the per-query
    /// budget is capped at what remains, and once spent the sweep stops
    /// early (pending candidates stay unproven, which is sound).
    pub max_total_conflicts: u64,
    /// Cooperative cancellation/deadline control for the sweep's solver;
    /// once it fires, remaining queries are abandoned and the sweep
    /// returns the classes proven so far.
    pub ctl: SolveCtl,
}

impl Default for FraigOptions {
    fn default() -> Self {
        FraigOptions {
            sim_words: 8,
            seed: 0x5eed_cafe,
            max_rounds: 16,
            conflict_budget: 10_000,
            max_total_conflicts: u64::MAX,
            ctl: SolveCtl::unlimited(),
        }
    }
}

/// One proven equivalence class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivClass {
    /// Class representative (the lowest, hence topologically earliest, var).
    pub repr: AVar,
    /// All members with their phase relative to `repr`
    /// (`true` = complemented). Includes `repr` itself with phase `false`.
    pub members: Vec<(AVar, bool)>,
}

/// The result of a FRAIG sweep: SAT-proven equivalence classes.
#[derive(Clone, Debug, Default)]
pub struct EquivClasses {
    /// Non-trivial classes (at least two members), ordered by representative.
    pub classes: Vec<EquivClass>,
    repr_of: HashMap<AVar, (AVar, bool)>,
}

impl EquivClasses {
    /// Returns `(repr, phase)` for `v` — `v ≡ repr ^ phase` — if `v`
    /// belongs to a non-trivial class.
    pub fn repr(&self, v: AVar) -> Option<(AVar, bool)> {
        self.repr_of.get(&v).copied()
    }

    /// Returns `Some(phase)` if `a ≡ b ^ phase` is proven.
    pub fn equivalent(&self, a: AVar, b: AVar) -> Option<bool> {
        if a == b {
            return Some(false);
        }
        let (ra, pa) = self.repr_of.get(&a).copied()?;
        let (rb, pb) = self.repr_of.get(&b).copied()?;
        (ra == rb).then_some(pa ^ pb)
    }

    /// Number of non-trivial classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if no non-trivial class was found.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Counters describing one FRAIG sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// The sweep was decided by exhaustive simulation of its small
    /// support: no solver was built, so `sat` stays zero.
    pub exhaustive: bool,
    /// Class merges decided by exhaustive simulation (each one a proof;
    /// `sat_calls` and `proven` count SAT work only).
    pub exhaustive_merges: u64,
    /// Refine/verify rounds executed.
    pub rounds: usize,
    /// SAT equivalence queries issued.
    pub sat_calls: u64,
    /// Queries proven (pair merged into a class).
    pub proven: u64,
    /// Queries disproven by a counterexample.
    pub disproved: u64,
    /// Queries abandoned at the conflict budget (left unproven).
    pub budgeted_out: u64,
    /// Counterexample patterns fed back into simulation.
    pub cex_patterns: u64,
    /// Activation literals retired (level-0 unit added after the query so
    /// `simplify` can drop the query clauses instead of leaking them).
    pub retired_activations: u64,
    /// Word-columns the simulation engine actually computed.
    pub resim_columns: u64,
    /// Word-columns skipped by incremental re-simulation (vs a full
    /// per-round re-simulation of every column).
    pub resim_columns_saved: u64,
    /// Non-trivial classes in the final result.
    pub classes: usize,
    /// Total members across those classes.
    pub class_members: usize,
    /// Aggregated search statistics of the sweep's SAT solver.
    pub sat: SolverStats,
}

/// Runs simulation-guided SAT sweeping over the cones of all outputs of
/// `aig` and returns the proven equivalence classes.
///
/// Only *proven* equivalences are reported — by SAT, or by exhaustive
/// simulation when the cones read few enough inputs — so the result is
/// sound even when the per-query conflict budget truncates verification.
pub fn fraig_classes(aig: &Aig, opts: &FraigOptions) -> EquivClasses {
    fraig_classes_stats(aig, opts).0
}

/// Like [`fraig_classes`], additionally returning [`SweepStats`] counters
/// for telemetry.
///
/// The swept cone's support decides how candidates are proven. When all
/// `2^n` assignments of its `n` support inputs fit in the `64 * sim_words`
/// patterns of the random stimulus, exhaustive simulation decides every
/// class and no solver is built; larger supports run the
/// simulation-guided SAT loop.
pub fn fraig_classes_stats(aig: &Aig, opts: &FraigOptions) -> (EquivClasses, SweepStats) {
    let (roots, nodes) = sweep_nodes(aig);
    let support: Vec<AVar> = nodes.iter().copied().filter(|&v| aig.is_input(v)).collect();
    if enumerable(support.len(), opts.sim_words) {
        exhaustive_sweep(aig, opts, &nodes, &support)
    } else {
        sat_sweep(aig, opts, &roots, &nodes)
    }
}

/// The output roots of `aig` and the nodes a sweep classifies: their cone
/// plus the constant.
fn sweep_nodes(aig: &Aig) -> (Vec<ALit>, Vec<AVar>) {
    let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
    let mut nodes = aig.cone_vars(&roots);
    if !nodes.contains(&AVar::CONST) {
        nodes.insert(0, AVar::CONST);
    }
    (roots, nodes)
}

/// Whether all assignments of `n` support inputs fit in `sim_words`
/// 64-pattern words (at the default 8 words: `n <= 9`).
fn enumerable(n: usize, sim_words: usize) -> bool {
    n < 64 && 1u128 << n <= 64 * sim_words as u128
}

/// Decides a small-support sweep by simulation alone.
///
/// Pattern `p` assigns bit `i` of `p` to `support[i]` and 0 to every
/// input outside the support, which no swept node reads. Every node's
/// words are then its complete truth table, so two nodes with equal
/// canonical words are equivalent up to the phase: the merge is a proof,
/// not a candidate, and no solver is built.
fn exhaustive_sweep(
    aig: &Aig,
    opts: &FraigOptions,
    nodes: &[AVar],
    support: &[AVar],
) -> (EquivClasses, SweepStats) {
    let mut stats = SweepStats {
        exhaustive: true,
        ..Default::default()
    };
    // Governor gate, as in the SAT loop: a sweep entered with a spent
    // allowance or a fired control block reports no classes.
    if opts.ctl.expired() || opts.max_total_conflicts == 0 {
        return (EquivClasses::default(), stats);
    }
    const TABLE: [u64; 6] = [
        0xaaaa_aaaa_aaaa_aaaa,
        0xcccc_cccc_cccc_cccc,
        0xf0f0_f0f0_f0f0_f0f0,
        0xff00_ff00_ff00_ff00,
        0xffff_0000_ffff_0000,
        0xffff_ffff_0000_0000,
    ];
    let words = (1usize << support.len()).div_ceil(64);
    let mut patterns = vec![vec![0u64; words]; aig.num_inputs()];
    for (i, &v) in support.iter().enumerate() {
        let row = &mut patterns[aig.input_pos(v).expect("support vars are inputs")];
        for (w, word) in row.iter_mut().enumerate() {
            *word = if i < 6 {
                TABLE[i]
            } else if w >> (i - 6) & 1 == 1 {
                !0
            } else {
                0
            };
        }
    }
    let sim = aig.simulate(&patterns);
    stats.resim_columns = sim.words() as u64;

    let mut uf = ParityUnionFind::new(aig.len());
    let (mut sig_buf, mut flat, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
    candidate_groups(
        &sim,
        nodes,
        |s, l| s.fingerprint(l).0,
        &mut sig_buf,
        &mut flat,
        &mut ranges,
    );
    for &(start, len) in &ranges {
        let members = &flat[start as usize..(start + len) as usize];
        let repr = members[0];
        for &m in &members[1..] {
            let phase = sim.phase(repr) ^ sim.phase(m);
            uf.union(repr.index() as usize, m.index() as usize, phase);
            stats.exhaustive_merges += 1;
        }
    }
    let classes = materialize(nodes, &mut uf, &mut stats);
    (classes, stats)
}

/// The simulation-guided SAT loop over `nodes`, the cone of `roots`.
///
/// The loop alternates (a) hashing nodes by canonical simulation
/// fingerprint into candidate classes and (b) SAT-verifying candidates
/// against their class representative; counterexamples are appended as new
/// simulation columns, splitting spurious candidates in the next round.
fn sat_sweep(
    aig: &Aig,
    opts: &FraigOptions,
    roots: &[ALit],
    nodes: &[AVar],
) -> (EquivClasses, SweepStats) {
    let mut stats = SweepStats::default();
    // One incremental solver over the whole cone, enrolled in the
    // governor's control block (a no-op when unlimited).
    let mut solver = Solver::new();
    if !opts.ctl.is_unlimited() {
        solver.set_ctl(&opts.ctl);
    }
    let mut map: HashMap<AVar, SLit> = HashMap::new();
    encode_cone(aig, roots, &mut map, &mut solver);
    if !map.contains_key(&AVar::CONST) {
        // Outputs may not mention the constant; force-encode it.
        encode_cone(aig, &[ALit::FALSE], &mut map, &mut solver);
    }

    // Stimulus: a fixed random base; counterexamples and one fresh random
    // diversity column per round are appended incrementally.
    let mut isim = IncrementalSim::with_random_base(aig, opts.sim_words, opts.seed);
    let mut diversity = SplitMix64::new(opts.seed ^ 0x9e37_79b9_7f4a_7c15);

    let mut uf = ParityUnionFind::new(aig.len());
    let mut disproved: HashSet<(AVar, AVar)> = HashSet::new();

    // Reused bucketing scratch: no per-node heap allocation in the loop.
    let mut sig_buf: Vec<(u128, u32)> = Vec::new();
    let mut flat: Vec<AVar> = Vec::new();
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut round_cex: Vec<Vec<bool>> = Vec::new();

    'rounds: for _round in 0..opts.max_rounds {
        stats.rounds += 1;
        isim.resimulate(aig);
        let sim = isim.vectors();

        candidate_groups(
            sim,
            nodes,
            |s, l| s.fingerprint(l).0,
            &mut sig_buf,
            &mut flat,
            &mut ranges,
        );

        let mut new_cex = 0usize;
        for &(start, len) in &ranges {
            let members = &flat[start as usize..(start + len) as usize];
            let repr = members[0];
            let repr_phase = sim.phase(repr);
            for &m in &members[1..] {
                if uf
                    .related(repr.index() as usize, m.index() as usize)
                    .is_some()
                {
                    continue;
                }
                if disproved.contains(&(repr, m)) {
                    continue;
                }
                // Governor gate: abandon the sweep once the control block
                // fires or the total conflict allowance is spent. Only
                // proven classes are reported, so stopping here is sound.
                let spent = solver.stats().conflicts;
                if opts.ctl.expired() || spent >= opts.max_total_conflicts {
                    break 'rounds;
                }
                let query_budget = opts.conflict_budget.min(opts.max_total_conflicts - spent);
                let phase = repr_phase ^ sim.phase(m);
                // Query: repr != (m ^ phase) — i.e. the XOR is satisfiable?
                let lr = map[&repr];
                let lm = if phase { !map[&m] } else { map[&m] };
                let act = solver.new_var().pos();
                solver.add_clause(&[!act, lr, lm]);
                solver.add_clause(&[!act, !lr, !lm]);
                stats.sat_calls += 1;
                match solver.solve_limited(&[act], query_budget) {
                    Some(false) => {
                        stats.proven += 1;
                        uf.union(repr.index() as usize, m.index() as usize, phase);
                    }
                    Some(true) => {
                        let bits: Vec<bool> = aig
                            .inputs()
                            .iter()
                            .map(|iv| {
                                map.get(iv)
                                    .map(|&sl| solver.model_value(sl) == LBool::True)
                                    .unwrap_or(false)
                            })
                            .collect();
                        round_cex.push(bits);
                        disproved.insert((repr, m));
                        stats.disproved += 1;
                        new_cex += 1;
                    }
                    None => {
                        // Budget exhausted: treat as unproven.
                        disproved.insert((repr, m));
                        stats.budgeted_out += 1;
                    }
                }
                // Retire the activation: the query clauses are satisfied by
                // the level-0 unit and get dropped by the round-end
                // simplify instead of accumulating forever.
                solver.add_clause(&[!act]);
                stats.retired_activations += 1;
            }
        }
        stats.cex_patterns += new_cex as u64;
        // Garbage-collect the retired query clauses.
        solver.simplify();
        if new_cex == 0 {
            break;
        }
        for bits in round_cex.drain(..) {
            isim.append_pattern(aig, &bits);
        }
        // Extra random diversity each round.
        isim.append_random_column(aig, &mut diversity);
    }
    stats.resim_columns = isim.resim_columns();
    stats.resim_columns_saved = isim.resim_columns_saved();

    stats.sat = solver.stats();
    let classes = materialize(nodes, &mut uf, &mut stats);
    (classes, stats)
}

/// Materializes the non-trivial classes of `uf` over `nodes`, each
/// represented by its lowest var, and records their counts in `stats`.
fn materialize(nodes: &[AVar], uf: &mut ParityUnionFind, stats: &mut SweepStats) -> EquivClasses {
    let mut groups: HashMap<usize, Vec<(AVar, bool)>> = HashMap::new();
    for &v in nodes {
        let (root, phase) = uf.find(v.index() as usize);
        groups.entry(root).or_default().push((v, phase));
    }
    let mut classes = Vec::new();
    let mut repr_of = HashMap::new();
    for (_, mut members) in groups {
        if members.len() < 2 {
            continue;
        }
        members.sort_by_key(|(v, _)| v.index());
        let (repr, repr_phase) = members[0];
        let members: Vec<(AVar, bool)> = members
            .into_iter()
            .map(|(v, ph)| (v, ph ^ repr_phase))
            .collect();
        for &(v, ph) in &members {
            repr_of.insert(v, (repr, ph));
        }
        classes.push(EquivClass { repr, members });
    }
    classes.sort_by_key(|c| c.repr.index());
    stats.classes = classes.len();
    stats.class_members = classes.iter().map(|c| c.members.len()).sum();
    EquivClasses { classes, repr_of }
}

/// Buckets `nodes` into candidate equivalence groups keyed by `fp`
/// (normally the 128-bit canonical-word fingerprint), confirming every
/// bucket with a full canonical-word comparison so that a colliding — or
/// even deliberately weak — `fp` only costs speed, never soundness.
///
/// Only groups with at least two members are emitted, as disjoint
/// `(start, len)` ranges into `flat`, ordered by their head (lowest,
/// topologically earliest) var; that ordering is what makes the SAT query
/// order — and everything downstream of the counterexample feedback —
/// deterministic. All three buffers are caller-owned scratch reused
/// across rounds, so steady-state bucketing does no per-node allocation.
fn candidate_groups(
    sim: &SimVectors,
    nodes: &[AVar],
    fp: impl Fn(&SimVectors, ALit) -> u128,
    sig_buf: &mut Vec<(u128, u32)>,
    flat: &mut Vec<AVar>,
    ranges: &mut Vec<(u32, u32)>,
) {
    sig_buf.clear();
    flat.clear();
    ranges.clear();
    sig_buf.extend(nodes.iter().map(|&v| (fp(sim, v.pos()), v.index())));
    sig_buf.sort_unstable();
    let mut i = 0;
    while i < sig_buf.len() {
        let mut j = i + 1;
        while j < sig_buf.len() && sig_buf[j].0 == sig_buf[i].0 {
            j += 1;
        }
        if j - i >= 2 {
            split_run(sim, &sig_buf[i..j], flat, ranges);
        }
        i = j;
    }
    ranges.sort_unstable_by_key(|&(start, _)| flat[start as usize].index());
}

/// Emits the true candidate groups of one equal-fingerprint run. The fast
/// path — no collision, every member canon-equal to the head — is
/// allocation-free; a genuine collision partitions the run by full
/// canonical words.
fn split_run(
    sim: &SimVectors,
    run: &[(u128, u32)],
    flat: &mut Vec<AVar>,
    ranges: &mut Vec<(u32, u32)>,
) {
    let head = AVar::new(run[0].1);
    if run[1..]
        .iter()
        .all(|&(_, vi)| sim.canon_eq(head.pos(), AVar::new(vi).pos()))
    {
        let start = flat.len() as u32;
        flat.extend(run.iter().map(|&(_, vi)| AVar::new(vi)));
        ranges.push((start, run.len() as u32));
        return;
    }
    let mut assigned = vec![false; run.len()];
    for k in 0..run.len() {
        if assigned[k] {
            continue;
        }
        let head = AVar::new(run[k].1);
        let start = flat.len() as u32;
        flat.push(head);
        assigned[k] = true;
        for (l, slot) in assigned.iter_mut().enumerate().skip(k + 1) {
            if !*slot {
                let m = AVar::new(run[l].1);
                if sim.canon_eq(head.pos(), m.pos()) {
                    flat.push(m);
                    *slot = true;
                }
            }
        }
        let len = flat.len() as u32 - start;
        if len >= 2 {
            ranges.push((start, len));
        } else {
            // Collision-only singleton: not a candidate.
            flat.truncate(start as usize);
        }
    }
}

/// Rebuilds `aig` with every class member replaced by its representative,
/// returning the functionally reduced AIG (outputs preserved by name).
pub fn fraig_reduce(aig: &Aig, classes: &EquivClasses) -> Aig {
    let mut new = Aig::new();
    let mut cache: HashMap<AVar, ALit> = HashMap::new();
    cache.insert(AVar::CONST, ALit::FALSE);
    for (pos, &v) in aig.inputs().iter().enumerate() {
        let lit = new.add_input(aig.input_name(pos).to_owned());
        cache.insert(v, lit);
    }
    let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
    for v in aig.cone_vars(&roots) {
        if cache.contains_key(&v) {
            continue;
        }
        // If v is equivalent to an earlier representative, reuse its lit.
        let lit = if let Some((r, ph)) = classes.repr(v) {
            if r != v && cache.contains_key(&r) {
                cache[&r].xor_complement(ph)
            } else {
                rebuild(aig, &mut new, &cache, v)
            }
        } else {
            rebuild(aig, &mut new, &cache, v)
        };
        cache.insert(v, lit);
    }
    for out in aig.outputs() {
        let lit = cache[&out.lit.var()].xor_complement(out.lit.is_complement());
        new.add_output(out.name.clone(), lit);
    }
    new
}

fn rebuild(aig: &Aig, new: &mut Aig, cache: &HashMap<AVar, ALit>, v: AVar) -> ALit {
    if let Some((fan0, fan1)) = aig.and_fanins(v) {
        let n0 = cache[&fan0.var()].xor_complement(fan0.is_complement());
        let n1 = cache[&fan1.var()].xor_complement(fan1.is_complement());
        new.and(n0, n1)
    } else if v == AVar::CONST {
        ALit::FALSE
    } else {
        cache[&v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_structurally_distinct_equivalence() {
        // f1 = a & b; f2 = !(!a | !b): strash merges these, so build the
        // second form with extra redundancy: f2 = (a & b) & (a | b).
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b); // == a & b
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(f1.var(), f2.var()), Some(false));
    }

    #[test]
    fn detects_complement_equivalence() {
        // g = a ^ b, h = !(a ^ b) built as xnor via fresh structure.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g = aig.xor(a, b);
        // xnor = (a&b) | (!a&!b): different structure from !xor.
        let t0 = aig.and(a, b);
        let t1 = aig.and(!a, !b);
        let h = aig.or(t0, t1);
        aig.add_output("g", g);
        aig.add_output("h", h);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(g.var(), h.var()), Some(true));
    }

    #[test]
    fn detects_constant_nodes() {
        // z = (a & b) & (a & !b) == 0, structurally hidden.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let t0 = aig.and(a, b);
        let t1 = aig.and(a, !b);
        let z = aig.and(t0, t1);
        aig.add_output("z", z);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(z.var(), AVar::CONST), Some(false));
    }

    #[test]
    fn inequivalent_nodes_stay_separate() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.and(a, b);
        let g = aig.and(a, c);
        aig.add_output("f", f);
        aig.add_output("g", g);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(f.var(), g.var()), None);
    }

    #[test]
    fn reduce_merges_equivalent_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b);
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        let reduced = fraig_reduce(&aig, &classes);
        assert!(reduced.num_ands() < aig.num_ands());
        // Semantics preserved.
        for bits in 0u32..4 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(&vals), reduced.eval(&vals));
        }
    }

    #[test]
    fn cross_circuit_sharing_detected() {
        // Two copies of a 3-input majority over the same inputs, built with
        // different decompositions, inside one manager.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        // maj1 = ab | bc | ca
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let ca = aig.and(c, a);
        let t = aig.or(ab, bc);
        let maj1 = aig.or(t, ca);
        // maj2 = mux(a, b|c, b&c)
        let b_or_c = aig.or(b, c);
        let b_and_c = aig.and(b, c);
        let maj2 = aig.mux(a, b_or_c, b_and_c);
        aig.add_output("maj1", maj1);
        aig.add_output("maj2", maj2);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(maj1.var(), maj2.var()), Some(false));
    }

    /// `f1 = a & b` and its redundant form `f2 = f1 & (a | b)`, plus an
    /// output reading eight more inputs, so the swept support has ten
    /// inputs — one more than exhaustive simulation takes at 8 words.
    fn redundant_and_over_ten_inputs() -> (Aig, ALit, ALit) {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b);
        let rest: Vec<ALit> = (0..8).map(|i| aig.add_input(format!("x{i}"))).collect();
        let wide = aig.and_many(&rest);
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        aig.add_output("wide", wide);
        (aig, f1, f2)
    }

    #[test]
    fn sweep_counts_retired_activations_and_saved_columns() {
        // The ten-input support keeps this sweep on the SAT path, whose
        // counters are checked here.
        let (aig, f1, f2) = redundant_and_over_ten_inputs();
        let (classes, stats) = fraig_classes_stats(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(f1.var(), f2.var()), Some(false));
        assert_eq!(
            stats.retired_activations, stats.sat_calls,
            "every query's activation literal must be retired"
        );
        assert!(stats.resim_columns >= FraigOptions::default().sim_words as u64);
    }

    /// A spent total-conflict allowance (or a fired control block) must
    /// stop the sweep before any query, soundly reporting no classes.
    #[test]
    fn governor_limits_abandon_the_sweep_soundly() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b);
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);

        let capped = FraigOptions {
            max_total_conflicts: 0,
            ..Default::default()
        };
        let (classes, stats) = fraig_classes_stats(&aig, &capped);
        assert!(classes.is_empty(), "no query may run with a spent cap");
        assert_eq!(stats.sat_calls, 0);

        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = FraigOptions {
            ctl: eco_sat::SolveCtl {
                deadline: None,
                cancel: Some(cancel),
            },
            ..Default::default()
        };
        let (classes, stats) = fraig_classes_stats(&aig, &cancelled);
        assert!(classes.is_empty());
        assert_eq!(stats.sat_calls, 0);
    }

    /// A random AIG of AND/OR/XOR/MUX gates over `n` inputs and earlier
    /// gates, whose last three nets are outputs. Over so few inputs,
    /// equivalent and constant nodes are common.
    fn random_aig(rng: &mut SplitMix64, n: usize) -> Aig {
        let mut aig = Aig::new();
        let mut nets: Vec<ALit> = (0..n).map(|i| aig.add_input(format!("x{i}"))).collect();
        for _ in 0..rng.range_inclusive(4, 40) {
            let pick = |rng: &mut SplitMix64| {
                let l = nets[rng.index(nets.len())];
                l.xor_complement(rng.chance(0.5))
            };
            let (a, b, c) = (pick(rng), pick(rng), pick(rng));
            let w = match rng.below(4) {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                2 => aig.xor(a, b),
                _ => aig.mux(a, b, c),
            };
            nets.push(w);
        }
        for (k, &lit) in nets[nets.len().saturating_sub(3)..].iter().enumerate() {
            aig.add_output(format!("o{k}"), lit);
        }
        aig
    }

    /// Exhaustive simulation must return exactly the classes the SAT loop
    /// proves, on seeded random AIGs with supports of one to nine inputs.
    #[test]
    fn exhaustive_classes_match_the_sat_sweep() {
        let opts = FraigOptions::default();
        let mut rng = SplitMix64::new(0xec0_f4a1);
        let mut exhaustive_merges = 0;
        for case in 0..200 {
            let n = 1 + case % 9;
            let aig = random_aig(&mut rng, n);
            let (classes, stats) = fraig_classes_stats(&aig, &opts);
            assert!(
                stats.exhaustive,
                "case {case}: {n} inputs must be enumerated"
            );
            assert_eq!(stats.sat_calls, 0, "case {case}");

            let (roots, nodes) = sweep_nodes(&aig);
            let (reference, sat) = sat_sweep(&aig, &opts, &roots, &nodes);
            assert_eq!(sat.budgeted_out, 0, "case {case}");
            assert_eq!(classes.classes, reference.classes, "case {case}");
            assert_eq!(stats.exhaustive_merges, sat.proven, "case {case}");
            exhaustive_merges += stats.exhaustive_merges;
        }
        assert!(exhaustive_merges > 200, "too few merges to compare");
    }

    /// One input past the enumerable support, the sweep builds its solver
    /// and proves the merge by SAT.
    #[test]
    fn ten_input_support_takes_the_sat_path() {
        let (aig, f1, f2) = redundant_and_over_ten_inputs();
        let (classes, stats) = fraig_classes_stats(&aig, &FraigOptions::default());
        assert!(!stats.exhaustive);
        assert_eq!(stats.exhaustive_merges, 0);
        assert!(stats.sat_calls > 0 && stats.proven > 0, "{stats:?}");
        assert_eq!(classes.equivalent(f1.var(), f2.var()), Some(false));

        // With 16 words of stimulus the same ten inputs are enumerable.
        let wider = FraigOptions {
            sim_words: 16,
            ..Default::default()
        };
        let (exhaustive, stats) = fraig_classes_stats(&aig, &wider);
        assert!(stats.exhaustive && stats.sat_calls == 0, "{stats:?}");
        assert_eq!(exhaustive.classes, classes.classes);
    }

    /// A deliberately colliding fingerprint must not corrupt candidate
    /// grouping: the full-word fallback still separates distinct functions.
    #[test]
    fn fingerprint_collision_falls_back_to_full_words() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b); // == a & b, distinct node
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        aig.add_output("or", a_or_b);

        let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
        let mut nodes = aig.cone_vars(&roots);
        if !nodes.contains(&AVar::CONST) {
            nodes.insert(0, AVar::CONST);
        }
        // Exhaustive 4 patterns: every node's words are its truth table.
        let sim = aig.simulate(&[vec![0b1010], vec![0b1100]]);

        let (mut sig_buf, mut flat, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
        // Constant-zero fingerprint: every node collides into one run.
        candidate_groups(
            &sim,
            &nodes,
            |_, _| 0u128,
            &mut sig_buf,
            &mut flat,
            &mut ranges,
        );
        // Every emitted group is internally canon-equal...
        for &(start, len) in &ranges {
            let members = &flat[start as usize..(start + len) as usize];
            for &m in &members[1..] {
                assert!(
                    sim.canon_eq(members[0].pos(), m.pos()),
                    "group mixes distinct functions"
                );
            }
        }
        // ...f1/f2 still share a group, and no group contains both f1 and
        // the or-node (different truth tables).
        let group_of = |v: AVar| {
            ranges
                .iter()
                .position(|&(s, l)| flat[s as usize..(s + l) as usize].contains(&v))
        };
        assert_eq!(group_of(f1.var()), group_of(f2.var()));
        assert!(group_of(f1.var()).is_some());
        assert_ne!(group_of(f1.var()), group_of(a_or_b.var()));

        // The real fingerprint produces the same candidate grouping.
        let (mut s2, mut f2_, mut r2) = (Vec::new(), Vec::new(), Vec::new());
        candidate_groups(
            &sim,
            &nodes,
            |s, l| s.fingerprint(l).0,
            &mut s2,
            &mut f2_,
            &mut r2,
        );
        let canon = |flat: &[AVar], ranges: &[(u32, u32)]| {
            ranges
                .iter()
                .map(|&(s, l)| flat[s as usize..(s + l) as usize].to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(&flat, &ranges), canon(&f2_, &r2));
    }
}
