//! Differential fuzzing of the whole ECO stack.
//!
//! Each case is a seeded random golden circuit with contest-style faults
//! injected ([`gen_case`]): targets cut to floating pseudo-inputs, the
//! dangling logic optionally scrambled, and weights assigned — biased
//! toward the nasty shapes (constant cones, dead targets, multi-target
//! clusters, degenerate weights). The case is driven through the *full*
//! production pipeline and checked by an **independent oracle**
//! ([`run_case`]): the patched netlist is written to contest-format
//! Verilog, re-parsed, re-elaborated, and proven equivalent to the golden
//! circuit with a fresh SAT miter plus a 64-bit random-simulation
//! cross-check — so writer/parser/assembly bugs are caught, not just
//! patch-logic bugs.
//!
//! Failing cases are reduced by a greedy shrinker ([`shrink_case`]) that
//! drops targets, outputs, gates, and inputs while the failure (same
//! stage) still reproduces, and serialized ([`FuzzCase::to_text`]) into
//! the `tests/corpus/` regression set replayed by `cargo test`.
//!
//! Two campaigns drive these cases through [`crate::campaign`]:
//! [`FuzzCampaign`] (the unbudgeted pipeline) and [`BudgetCampaign`]
//! (the governed pipeline under a seeded starvation budget).

use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use eco_aig::{Aig, Lit, SplitMix64, Var};
use eco_core::{
    check_equivalence, splice_patch, Budget, BudgetOptions, ClusterDiagnosis, EcoEngine, EcoError,
    EcoInstance, EcoOptions, EcoOutcome, PartialResult, VerifyOutcome,
};
use eco_netlist::{
    elaborate, netlist_from_aig, parse_verilog, parse_weights, write_verilog, write_weights, Gate,
    GateKind, NetRef, Netlist, WeightTable,
};
use eco_sat::SolveCtl;

use crate::campaign::{fail, Campaign, Corpus, Failure, Outcome, Shrinker, Stats};
use crate::fault::{assign_weights, cut_targets, scramble_dangling, WeightProfile};

/// Generator knobs. The defaults are the shipped fuzzing config: small
/// circuits (shrunk cases stay readable) with every nasty shape enabled.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Minimum primary inputs of the golden circuit.
    pub min_inputs: usize,
    /// Maximum primary inputs.
    pub max_inputs: usize,
    /// Maximum internal gates (minimum is 1).
    pub max_gates: usize,
    /// Maximum primary outputs (minimum is 1).
    pub max_outputs: usize,
    /// Maximum rectification targets (minimum is 1).
    pub max_targets: usize,
    /// Probability that a gate fanin is a `1'b0`/`1'b1` constant
    /// (constant cones stress folding in every layer).
    pub p_const_fanin: f64,
    /// Probability that a target is allowed to be a *dead* wire (one that
    /// reaches no output) — the engine must patch it with a constant.
    pub p_dead_target: f64,
    /// Probability that dangling logic is scrambled after the cut.
    pub p_scramble: f64,
    /// Probability of a degenerate weight table (zero weights, near-`u64`
    /// huge weights) instead of a sane profile.
    pub p_degenerate_weights: f64,
    /// 64-bit words per input for the random-simulation cross-check.
    pub sim_words: usize,
    /// SAT conflict budget for the independent oracle miter.
    pub oracle_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            min_inputs: 2,
            max_inputs: 8,
            max_gates: 40,
            max_outputs: 4,
            max_targets: 3,
            p_const_fanin: 0.08,
            p_dead_target: 0.15,
            p_scramble: 0.5,
            p_degenerate_weights: 0.2,
            sim_words: 4,
            oracle_budget: 1 << 20,
        }
    }
}

/// One generated (or deserialized) differential test case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Generator seed (0 for hand-written / deserialized cases).
    pub seed: u64,
    /// Golden circuit.
    pub golden: Netlist,
    /// Faulty circuit (targets floating as pseudo-inputs).
    pub faulty: Netlist,
    /// Target net names.
    pub targets: Vec<String>,
    /// Signal weights.
    pub weights: WeightTable,
}

/// Pipeline stage at which a case failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailStage {
    /// `EcoInstance` validation rejected a case that is valid by
    /// construction.
    Instance,
    /// The engine errored (e.g. claimed an unrectifiable instance) or
    /// produced a counterexample on its own verification.
    Engine,
    /// Patch assembly (`splice_patch`) rejected the engine's own patch.
    Assemble,
    /// The emitted Verilog did not re-parse.
    Parse,
    /// The re-parsed netlist did not elaborate.
    Elaborate,
    /// The fresh SAT miter found patched ≠ golden.
    Miter,
    /// The 64-bit random-simulation cross-check disagreed.
    Simulation,
    /// The resource governor misbehaved: a budgeted run panicked, or a
    /// partial result was malformed (missing diagnoses, leaked panic,
    /// inconsistent counters, un-emittable patch netlist).
    Governor,
}

impl fmt::Display for FailStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailStage::Instance => "instance",
            FailStage::Engine => "engine",
            FailStage::Assemble => "assemble",
            FailStage::Parse => "parse",
            FailStage::Elaborate => "elaborate",
            FailStage::Miter => "miter",
            FailStage::Simulation => "simulation",
            FailStage::Governor => "governor",
        };
        f.write_str(s)
    }
}

/// Generates one case. Returns `None` when the seed produces a circuit
/// with no cuttable target (rare; callers just advance the seed).
pub fn gen_case(seed: u64, cfg: &FuzzConfig) -> Option<FuzzCase> {
    let mut rng = SplitMix64::new(seed ^ 0x6c62_7f4b_2b7e_151d);
    let n_inputs = rng.range_inclusive(cfg.min_inputs as u64, cfg.max_inputs as u64) as usize;
    let n_gates = rng.range_inclusive(1, cfg.max_gates as u64) as usize;
    let n_outputs = rng.range_inclusive(1, cfg.max_outputs as u64) as usize;

    let mut golden = Netlist::new(format!("fz{seed:x}"));
    let mut nets: Vec<String> = Vec::new();
    for i in 0..n_inputs {
        let n = format!("i{i}");
        golden.inputs.push(n.clone());
        nets.push(n);
    }
    let kinds = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    for k in 0..n_gates {
        let kind = kinds[rng.index(kinds.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            _ => rng.range_inclusive(2, 3) as usize,
        };
        // Bias fanins toward recent nets for depth; sprinkle constants.
        let mut inputs = Vec::with_capacity(arity);
        for _ in 0..arity {
            if rng.chance(cfg.p_const_fanin) {
                inputs.push(NetRef::Const(rng.chance(0.5)));
            } else {
                let lo = nets.len().saturating_sub(16);
                inputs.push(NetRef::named(nets[lo + rng.index(nets.len() - lo)].clone()));
            }
        }
        let out = format!("w{k}");
        golden.wires.push(out.clone());
        golden.gates.push(Gate {
            kind,
            name: None,
            output: out.clone(),
            inputs,
        });
        nets.push(out);
    }
    // Outputs buffer recent nets (mirroring the builder's convention).
    for k in 0..n_outputs {
        let lo = nets.len().saturating_sub(8);
        let src = nets[lo + rng.index(nets.len() - lo)].clone();
        let name = format!("o{k}");
        golden.outputs.push(name.clone());
        golden.gates.push(Gate {
            kind: GateKind::Buf,
            name: None,
            output: name,
            inputs: vec![NetRef::named(src)],
        });
    }

    // Target pool: driven wires, optionally restricted to live ones.
    let live = live_nets(&golden);
    let allow_dead = rng.chance(cfg.p_dead_target);
    let pool: Vec<&String> = golden
        .wires
        .iter()
        .filter(|w| allow_dead || live.contains(w.as_str()))
        .collect();
    if pool.is_empty() {
        return None;
    }
    let n_targets = (rng.range_inclusive(1, cfg.max_targets as u64) as usize).min(pool.len());
    // Cluster bias: draw from a window so multi-target cases share cones.
    let start = rng.index(pool.len());
    let mut targets: Vec<String> = Vec::new();
    let mut j = start;
    while targets.len() < n_targets {
        let t = pool[j % pool.len()].clone();
        if !targets.contains(&t) {
            targets.push(t);
        }
        j += 1 + rng.index(3);
        if j > start + 4 * pool.len() {
            break;
        }
    }
    targets.sort();

    let mut faulty = cut_targets(&golden, &targets).ok()?;
    if rng.chance(cfg.p_scramble) {
        let _ = scramble_dangling(&mut faulty, rng.next_u64());
    }

    let weights = if rng.chance(cfg.p_degenerate_weights) {
        // Degenerate: zero-cost nets next to astronomically expensive ones.
        let mut t = WeightTable::new(1);
        for net in faulty.declared_nets() {
            let w = match rng.index(3) {
                0 => 0,
                1 => 1 << 40,
                _ => rng.range_inclusive(1, 3),
            };
            t.set(net, w);
        }
        t
    } else {
        let profile = match rng.index(3) {
            0 => WeightProfile::Unit,
            1 => WeightProfile::Uniform { lo: 1, hi: 100 },
            _ => WeightProfile::CheapWires { pi: 50, wire: 2 },
        };
        assign_weights(&faulty, profile, rng.next_u64())
    };

    Some(FuzzCase {
        seed,
        golden,
        faulty,
        targets,
        weights,
    })
}

/// Nets of `netlist` transitively reaching a primary output.
fn live_nets(netlist: &Netlist) -> HashSet<String> {
    let mut live: HashSet<&str> = netlist.outputs.iter().map(String::as_str).collect();
    loop {
        let before = live.len();
        for g in &netlist.gates {
            if live.contains(g.output.as_str()) {
                for i in &g.inputs {
                    if let Some(n) = i.name() {
                        live.insert(n);
                    }
                }
            }
        }
        if live.len() == before {
            break;
        }
    }
    live.into_iter().map(str::to_owned).collect()
}

/// Drives the full pipeline on `case` and checks the result with the
/// independent oracle. See the module docs for the stage list.
pub fn run_case(case: &FuzzCase, cfg: &FuzzConfig) -> Outcome {
    // 1. Validated instance — valid by construction, any rejection is a bug.
    let inst = match EcoInstance::from_netlists(
        format!("fuzz{:x}", case.seed),
        &case.faulty,
        &case.golden,
        case.targets.clone(),
        &case.weights,
    ) {
        Ok(i) => i,
        Err(e) => return fail(FailStage::Instance, e.to_string()),
    };

    // 2. The production engine. Rectifiable by construction, so
    //    `Unrectifiable` is a genuine failure; budget exhaustion is not.
    let result = match EcoEngine::new(inst, EcoOptions::default()).run() {
        Ok(r) => r,
        Err(EcoError::ResourceLimit(what)) => return Outcome::Skip(what),
        Err(e) => return fail(FailStage::Engine, e.to_string()),
    };

    oracle_check(case, &result.patch_aig, cfg)
}

/// The independent oracle (stages 3–8 of [`run_case`]): splices
/// `patch_aig` into the faulty netlist, round-trips it through the
/// Verilog writer and parser, and proves it equivalent to the golden
/// circuit with a fresh SAT miter plus a random-simulation cross-check.
fn oracle_check(case: &FuzzCase, patch_aig: &Aig, cfg: &FuzzConfig) -> Outcome {
    // 3. Assembly: splice the patch into the faulty netlist.
    let patched_nl = match splice_patch(&case.faulty, patch_aig) {
        Ok(n) => n,
        Err(e) => return fail(FailStage::Assemble, e.to_string()),
    };

    // 4–5. Writer → parser round trip of the *patched* netlist.
    let text = write_verilog(&patched_nl);
    let reparsed = match parse_verilog(&text) {
        Ok(n) => n,
        Err(e) => return fail(FailStage::Parse, e.to_string()),
    };

    // 6. Re-elaborate both sides from scratch.
    let patched = match elaborate(&reparsed) {
        Ok(e) => e,
        Err(e) => return fail(FailStage::Elaborate, format!("patched: {e}")),
    };
    let golden = match elaborate(&case.golden) {
        Ok(e) => e,
        Err(e) => return fail(FailStage::Elaborate, format!("golden: {e}")),
    };

    // 7. Fresh miter in a fresh manager, inputs matched by name.
    let mut m = Aig::new();
    let mut by_name: std::collections::HashMap<String, Lit> = Default::default();
    let import_by_name =
        |m: &mut Aig, src: &Aig, by_name: &mut std::collections::HashMap<String, Lit>| {
            let mut map: std::collections::HashMap<Var, Lit> = Default::default();
            for pos in 0..src.num_inputs() {
                let name = src.input_name(pos);
                let lit = *by_name
                    .entry(name.to_owned())
                    .or_insert_with(|| m.add_input(name.to_owned()));
                map.insert(src.input_var(pos), lit);
            }
            let roots: Vec<Lit> = src.outputs().iter().map(|o| o.lit).collect();
            m.import(src, &roots, &map).map(|lits| {
                src.outputs()
                    .iter()
                    .map(|o| o.name.clone())
                    .zip(lits)
                    .collect::<Vec<(String, Lit)>>()
            })
        };
    let p_outs = match import_by_name(&mut m, &patched.aig, &mut by_name) {
        Ok(v) => v,
        Err(e) => return fail(FailStage::Miter, format!("import patched: {e}")),
    };
    let g_outs = match import_by_name(&mut m, &golden.aig, &mut by_name) {
        Ok(v) => v,
        Err(e) => return fail(FailStage::Miter, format!("import golden: {e}")),
    };
    let mut pairs: Vec<(Lit, Lit)> = Vec::new();
    for (name, g) in &g_outs {
        match p_outs.iter().find(|(pn, _)| pn == name) {
            Some((_, p)) => pairs.push((*p, *g)),
            None => return fail(FailStage::Miter, format!("patched lost output `{name}`")),
        }
    }
    match check_equivalence(&mut m, &pairs, cfg.oracle_budget, &SolveCtl::unlimited()).0 {
        VerifyOutcome::Equivalent => {}
        VerifyOutcome::Counterexample(cex) => {
            let s: Vec<String> = cex
                .iter()
                .take(8)
                .map(|(n, v)| format!("{n}={}", u8::from(*v)))
                .collect();
            return fail(FailStage::Miter, format!("cex {}", s.join(" ")));
        }
        VerifyOutcome::Unknown => return Outcome::Skip("oracle miter budget".into()),
    }

    // 8. Independent 64-bit random-simulation cross-check on the same
    //    fresh manager (different decision procedure than the SAT miter).
    let sim = m.simulate_random(cfg.sim_words.max(1), case.seed ^ 0x9e37_79b9_7f4a_7c15);
    for ((name, g), (_, p)) in g_outs.iter().zip(&p_outs) {
        if sim.lit_words(*p) != sim.lit_words(*g) {
            return fail(
                FailStage::Simulation,
                format!("simulation mismatch on `{name}`"),
            );
        }
    }
    Outcome::Pass
}

/// Deterministically derives a deliberately tiny governor budget from a
/// case seed: small per-cluster conflict allowances dominate, with an
/// occasional already-expired deadline, so the degradation paths get
/// hammered rather than merely brushed. Wall-clock timeouts other than
/// zero are never drawn — they would make case classification depend on
/// machine speed.
pub fn budget_for_seed(seed: u64) -> BudgetOptions {
    let mut rng = SplitMix64::new(seed ^ 0x9f4a_7c15_51ed_270b);
    let allowances = [1u64, 2, 8, 64];
    let cluster_conflicts = Some(allowances[rng.index(allowances.len())]);
    let timeout = rng.chance(0.2).then_some(Duration::ZERO);
    BudgetOptions {
        timeout,
        cluster_conflicts,
    }
}

/// Runs one case through the governed pipeline under the starvation
/// budget drawn by [`budget_for_seed`] and classifies the outcome. Under
/// a starvation budget the pipeline may either finish (then the full
/// oracle applies) or degrade (then the partial result must be
/// well-formed) — but it must never panic, hang, or emit a malformed
/// netlist.
pub fn run_budget_case(case: &FuzzCase, cfg: &FuzzConfig) -> Outcome {
    let inst = match EcoInstance::from_netlists(
        format!("bfuzz{:x}", case.seed),
        &case.faulty,
        &case.golden,
        case.targets.clone(),
        &case.weights,
    ) {
        Ok(i) => i,
        Err(e) => return fail(FailStage::Instance, e.to_string()),
    };

    // The governed engine must never panic, no matter how starved. The
    // engine already isolates cluster workers; this outer guard catches
    // escapes from any other stage.
    let budget = budget_for_seed(case.seed);
    let run = catch_unwind(AssertUnwindSafe(|| {
        EcoEngine::new(inst, EcoOptions::default()).run_governed(&Budget::new(&budget))
    }));
    let outcome = match run {
        Ok(o) => o,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            return fail(FailStage::Governor, format!("engine panicked: {msg}"));
        }
    };

    match outcome {
        // A completed governed run claims full verification, so the
        // independent oracle must agree exactly as in the unbudgeted mode.
        Ok(EcoOutcome::Complete(result)) => oracle_check(case, &result.patch_aig, cfg),
        Ok(EcoOutcome::Partial(partial)) => check_partial(case, &partial),
        // Cases are rectifiable by construction and governed runs report
        // budget exhaustion as `Partial`, so any engine error is a bug.
        Err(e) => fail(FailStage::Engine, e.to_string()),
    }
}

/// Well-formedness oracle for a degraded run: the reason and every
/// cluster diagnosis must be present and clean (no leaked panics), the
/// governor counters must account for every cluster, each reported
/// target must be one of the case's targets, and the completed partial
/// patch must still round-trip through the Verilog writer and parser.
fn check_partial(case: &FuzzCase, partial: &PartialResult) -> Outcome {
    let governor = |detail: String| fail(FailStage::Governor, detail);

    if partial.reason.is_empty() {
        return governor("partial result with empty reason".into());
    }
    let mut patched = 0u64;
    for c in &partial.clusters {
        if c.targets.is_empty() {
            return governor("cluster report with no targets".into());
        }
        for t in &c.targets {
            if !case.targets.contains(t) {
                return governor(format!("cluster reports unknown target `{t}`"));
            }
        }
        match &c.diagnosis {
            ClusterDiagnosis::Patched => patched += 1,
            ClusterDiagnosis::BudgetExhausted | ClusterDiagnosis::Deadline => {}
            ClusterDiagnosis::Panicked(msg) => {
                return governor(format!("cluster panicked under budget: {msg}"));
            }
        }
    }
    let gov = &partial.telemetry.governor;
    let diagnosed = gov.clusters_patched
        + gov.clusters_budget_exhausted
        + gov.clusters_deadline
        + gov.clusters_panicked;
    if diagnosed != partial.clusters.len() as u64 || gov.clusters_patched != patched {
        return governor(format!(
            "governor counters disagree with cluster reports: {diagnosed} diagnosed / \
             {} reported, {} vs {patched} patched",
            partial.clusters.len(),
            gov.clusters_patched,
        ));
    }
    for p in &partial.patches {
        if !case.targets.contains(&p.target) {
            return governor(format!("partial patch for unknown target `{}`", p.target));
        }
    }
    // The completed portion must still be emittable: writer → parser →
    // elaboration round trip of the partial patch netlist.
    let text = write_verilog(&netlist_from_aig(&partial.patch_aig, "patch"));
    let reparsed = match parse_verilog(&text) {
        Ok(n) => n,
        Err(e) => return governor(format!("partial patch does not re-parse: {e}")),
    };
    if let Err(e) = elaborate(&reparsed) {
        return governor(format!("partial patch does not elaborate: {e}"));
    }
    Outcome::Degraded
}

/// Greedily shrinks a failing case: tries dropping targets, outputs,
/// gates, and inputs (keeping golden and faulty structurally consistent),
/// accepting each reduction iff the oracle still fails at the *same
/// stage*. Returns the reduced case; `stats` accumulates attempted and
/// accepted steps.
pub fn shrink_case(
    case: &FuzzCase,
    failure: &Failure,
    cfg: &FuzzConfig,
    stats: &mut Stats,
) -> (FuzzCase, Failure) {
    let mut best = case.clone();
    let mut best_fail = failure.clone();
    let still_fails = |c: &FuzzCase, at: &str, stats: &mut Stats| -> Option<Failure> {
        stats.shrink_steps += 1;
        match run_case(c, cfg) {
            Outcome::Fail(f) if f.at == at => Some(f),
            _ => None,
        }
    };

    loop {
        let mut reduced = false;

        // Drop a target: restore its golden driver into the faulty side.
        if best.targets.len() > 1 {
            for ti in 0..best.targets.len() {
                let Some(cand) = drop_target(&best, ti) else {
                    continue;
                };
                if let Some(f) = still_fails(&cand, &best_fail.at, stats) {
                    stats.shrink_accepted += 1;
                    best = cand;
                    best_fail = f;
                    reduced = true;
                    break;
                }
            }
        }

        // Drop an output (from both sides; the driver gate stays).
        if best.golden.outputs.len() > 1 {
            for oi in 0..best.golden.outputs.len() {
                let cand = drop_output(&best, oi);
                if let Some(f) = still_fails(&cand, &best_fail.at, stats) {
                    stats.shrink_accepted += 1;
                    best = cand;
                    best_fail = f;
                    reduced = true;
                    break;
                }
            }
        }

        // Drop a gate: its output net becomes a fresh pseudo-input on
        // both sides (preserves well-formedness and rectifiability).
        for gi in 0..best.golden.gates.len() {
            let Some(cand) = drop_gate(&best, gi) else {
                continue;
            };
            if let Some(f) = still_fails(&cand, &best_fail.at, stats) {
                stats.shrink_accepted += 1;
                best = cand;
                best_fail = f;
                reduced = true;
                break;
            }
        }

        // Drop an unused input from both sides.
        for ii in 0..best.golden.inputs.len() {
            let Some(cand) = drop_input(&best, ii) else {
                continue;
            };
            if let Some(f) = still_fails(&cand, &best_fail.at, stats) {
                stats.shrink_accepted += 1;
                best = cand;
                best_fail = f;
                reduced = true;
                break;
            }
        }

        if !reduced {
            return (best, best_fail);
        }
    }
}

/// Un-cuts target `ti`: its golden driver gate returns to the faulty side
/// and the net stops being a pseudo-input.
fn drop_target(case: &FuzzCase, ti: usize) -> Option<FuzzCase> {
    let t = case.targets.get(ti)?.clone();
    let driver = case.golden.gates.iter().find(|g| g.output == t)?.clone();
    let mut c = case.clone();
    c.targets.remove(ti);
    c.faulty.inputs.retain(|i| *i != t);
    if !c.faulty.wires.contains(&t) && !c.faulty.outputs.contains(&t) {
        c.faulty.wires.push(t.clone());
    }
    c.faulty.gates.push(driver);
    Some(c)
}

/// Removes output `oi` from both sides (net moves to the wire list; its
/// driver stays as dangling logic).
fn drop_output(case: &FuzzCase, oi: usize) -> FuzzCase {
    let name = case.golden.outputs[oi].clone();
    let mut c = case.clone();
    for nl in [&mut c.golden, &mut c.faulty] {
        nl.outputs.retain(|o| *o != name);
        if !nl.wires.contains(&name) {
            nl.wires.push(name.clone());
        }
    }
    c
}

/// Removes the golden gate at `gi` from both sides; its output net turns
/// into a pseudo-input everywhere so all remaining readers stay driven.
/// Targets and primary outputs cannot be dropped this way.
fn drop_gate(case: &FuzzCase, gi: usize) -> Option<FuzzCase> {
    let out = case.golden.gates.get(gi)?.output.clone();
    if case.targets.contains(&out) || case.golden.outputs.contains(&out) {
        return None;
    }
    let mut c = case.clone();
    for nl in [&mut c.golden, &mut c.faulty] {
        nl.gates.retain(|g| g.output != out);
        nl.wires.retain(|w| *w != out);
        if !nl.inputs.contains(&out) {
            nl.inputs.push(out.clone());
        }
    }
    Some(c)
}

/// Removes input `ii` if no gate on either side reads it and it is not an
/// output or target.
fn drop_input(case: &FuzzCase, ii: usize) -> Option<FuzzCase> {
    let name = case.golden.inputs.get(ii)?.clone();
    if case.targets.contains(&name) || case.golden.outputs.contains(&name) {
        return None;
    }
    let used = |nl: &Netlist| {
        nl.gates
            .iter()
            .any(|g| g.inputs.iter().any(|r| r.name() == Some(name.as_str())))
    };
    if used(&case.golden) || used(&case.faulty) {
        return None;
    }
    let mut c = case.clone();
    c.golden.inputs.retain(|i| *i != name);
    c.faulty.inputs.retain(|i| *i != name);
    Some(c)
}

impl FuzzCase {
    /// Serializes the case to the sectioned corpus text format:
    ///
    /// ```text
    /// # eco-fuzz case
    /// seed <hex>
    /// default_weight <n>
    /// [targets]    — one net per line
    /// [weights]    — `<net> <weight>` lines (the contest weight format)
    /// [golden]     — contest-format Verilog
    /// [faulty]     — contest-format Verilog (stored, not re-derived)
    /// ```
    pub fn to_text(&self) -> String {
        format!(
            "# eco-fuzz case\nseed {:x}\ndefault_weight {}\n[targets]\n{}\n[weights]\n{}[golden]\n{}[faulty]\n{}",
            self.seed,
            self.weights.default_weight,
            self.targets.join("\n"),
            write_weights(&self.weights),
            write_verilog(&self.golden),
            write_verilog(&self.faulty),
        )
    }

    /// Parses the [`FuzzCase::to_text`] format.
    pub fn from_text(text: &str) -> Result<FuzzCase, String> {
        let mut seed = 0u64;
        let mut default_weight = 1u64;
        let mut section = String::new();
        let mut bodies: std::collections::HashMap<String, String> = Default::default();
        for line in text.lines() {
            let trimmed = line.trim();
            if section.is_empty() {
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                if let Some(v) = trimmed.strip_prefix("seed ") {
                    seed =
                        u64::from_str_radix(v.trim(), 16).map_err(|e| format!("bad seed: {e}"))?;
                    continue;
                }
                if let Some(v) = trimmed.strip_prefix("default_weight ") {
                    default_weight = v
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad default_weight: {e}"))?;
                    continue;
                }
            }
            if trimmed.starts_with('[') && trimmed.ends_with(']') {
                section = trimmed[1..trimmed.len() - 1].to_owned();
                continue;
            }
            if section.is_empty() {
                return Err(format!("unexpected line before first section: `{trimmed}`"));
            }
            let body = bodies.entry(section.clone()).or_default();
            body.push_str(line);
            body.push('\n');
        }
        let get = |name: &str| -> Result<&String, String> {
            bodies
                .get(name)
                .ok_or_else(|| format!("missing [{name}] section"))
        };
        let targets: Vec<String> = get("targets")?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect();
        let mut weights = parse_weights(get("weights")?).map_err(|e| format!("weights: {e}"))?;
        weights.default_weight = default_weight;
        let golden = parse_verilog(get("golden")?).map_err(|e| format!("golden: {e}"))?;
        let faulty = parse_verilog(get("faulty")?).map_err(|e| format!("faulty: {e}"))?;
        Ok(FuzzCase {
            seed,
            golden,
            faulty,
            targets,
            weights,
        })
    }
}

/// The differential campaign over the unbudgeted pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzCampaign {
    /// Generator and oracle knobs.
    pub cfg: FuzzConfig,
}

impl Campaign for FuzzCampaign {
    type Case = FuzzCase;

    fn case(&mut self, seed: u64) -> Option<FuzzCase> {
        gen_case(seed, &self.cfg)
    }

    fn check(&mut self, case: &FuzzCase) -> Outcome {
        run_case(case, &self.cfg)
    }

    fn shrinker() -> Option<Shrinker<Self>> {
        Some(|c, case, failure, stats| shrink_case(&case, &failure, &c.cfg, stats))
    }

    fn corpus() -> Option<Corpus<FuzzCase>> {
        Some(Corpus {
            ext: "case",
            to_text: FuzzCase::to_text,
            from_text: FuzzCase::from_text,
        })
    }
}

/// The differential campaign over the governed pipeline: every case runs
/// under the starvation budget [`budget_for_seed`] draws from its seed
/// ([`run_budget_case`]). Its failures are not shrunk: the shrinker
/// replays the unbudgeted oracle, whose failure stages do not map onto
/// budget classification.
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetCampaign {
    /// Generator and oracle knobs.
    pub cfg: FuzzConfig,
}

impl Campaign for BudgetCampaign {
    type Case = FuzzCase;

    fn case(&mut self, seed: u64) -> Option<FuzzCase> {
        gen_case(seed, &self.cfg)
    }

    fn check(&mut self, case: &FuzzCase) -> Outcome {
        run_budget_case(case, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_valid() {
        let cfg = FuzzConfig::default();
        let mut produced = 0;
        for seed in 0..40u64 {
            let Some(a) = gen_case(seed, &cfg) else {
                continue;
            };
            let b = gen_case(seed, &cfg).expect("same seed regenerates");
            assert_eq!(a, b);
            produced += 1;
            // Structural invariants: targets float in faulty, golden
            // elaborates, faulty elaborates.
            for t in &a.targets {
                assert!(a.faulty.inputs.contains(t), "seed {seed}: {t} floats");
                assert!(!a.golden.inputs.contains(t), "seed {seed}: {t} driven");
            }
            elaborate(&a.golden).expect("golden elaborates");
            elaborate(&a.faulty).expect("faulty elaborates");
        }
        assert!(produced >= 30, "generator yield too low: {produced}/40");
    }

    #[test]
    fn oracle_passes_a_known_good_case() {
        let cfg = FuzzConfig::default();
        let mut found_pass = false;
        for seed in 0..20u64 {
            let Some(case) = gen_case(seed, &cfg) else {
                continue;
            };
            match run_case(&case, &cfg) {
                Outcome::Pass => {
                    found_pass = true;
                    break;
                }
                Outcome::Degraded | Outcome::Skip(_) => {}
                Outcome::Fail(f) => panic!("seed {seed}: {f}"),
            }
        }
        assert!(found_pass, "no case passed in 20 seeds");
    }

    #[test]
    fn corpus_text_round_trips() {
        let cfg = FuzzConfig::default();
        let case = (0..50u64)
            .find_map(|s| gen_case(s, &cfg))
            .expect("a case generates");
        let text = case.to_text();
        let back = FuzzCase::from_text(&text).expect("round-trips");
        // The writer invents instance names for anonymous gates; those are
        // not semantic, so compare with names stripped.
        let anon = |nl: &Netlist| {
            let mut nl = nl.clone();
            for g in &mut nl.gates {
                g.name = None;
            }
            nl
        };
        assert_eq!(back.seed, case.seed);
        assert_eq!(back.targets, case.targets);
        assert_eq!(anon(&back.golden), anon(&case.golden));
        assert_eq!(anon(&back.faulty), anon(&case.faulty));
        assert_eq!(back.weights, case.weights);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(FuzzCase::from_text("nonsense\n").is_err());
        assert!(FuzzCase::from_text("# c\nseed 1\n[targets]\nt\n").is_err());
    }

    /// A seeded oracle bug (simulated by corrupting the golden circuit so
    /// patched ≠ golden) is caught by the miter and shrinks down.
    #[test]
    fn shrinker_reduces_a_failing_case() {
        let cfg = FuzzConfig::default();
        // Build a case whose faulty circuit was additionally broken in
        // live logic (not dangling): flip a live gate, which the patch
        // cannot repair because the target does not reach it.
        let mut case = None;
        for seed in 0..200u64 {
            let Some(mut c) = gen_case(seed, &cfg) else {
                continue;
            };
            if crate::fault::break_untouched_output(&mut c.faulty, &c.golden, &c.targets, seed)
                .is_some()
            {
                case = Some(c);
                break;
            }
        }
        let case = case.expect("some case can be broken");
        let Outcome::Fail(f) = run_case(&case, &cfg) else {
            panic!("broken case must fail");
        };
        let mut stats = Stats::default();
        let (small, small_f) = shrink_case(&case, &f, &cfg, &mut stats);
        assert_eq!(small_f.at, f.at);
        assert!(small.golden.num_gates() <= case.golden.num_gates());
        assert!(stats.shrink_steps > 0);
        // The shrunk case still fails the oracle the same way.
        let Outcome::Fail(again) = run_case(&small, &cfg) else {
            panic!("shrunk case must still fail");
        };
        assert_eq!(again.at, f.at);
    }

    #[test]
    fn campaign_counts_are_consistent() {
        let report = crate::campaign::run(&mut FuzzCampaign::default(), 7, 15, false);
        let (stats, failures) = (report.stats, report.failures);
        assert_eq!(stats.cases, 15);
        assert_eq!(stats.passes + stats.failures + stats.skips, 15);
        assert_eq!(stats.failures as usize, failures.len());
        assert_eq!(stats.failures, 0, "shipped config must be clean");
    }

    #[test]
    fn budget_for_seed_is_deterministic_and_tiny() {
        let mut saw_timeout = false;
        let mut saw_conflicts_only = false;
        for seed in 0..200u64 {
            let a = budget_for_seed(seed);
            let b = budget_for_seed(seed);
            assert_eq!(a.timeout, b.timeout, "seed {seed}");
            assert_eq!(a.cluster_conflicts, b.cluster_conflicts, "seed {seed}");
            let c = a.cluster_conflicts.expect("always conflict-capped");
            assert!(c <= 64, "seed {seed}: allowance {c} is not tiny");
            match a.timeout {
                Some(t) => {
                    assert_eq!(t, Duration::ZERO, "only already-expired deadlines");
                    saw_timeout = true;
                }
                None => saw_conflicts_only = true,
            }
        }
        assert!(
            saw_timeout && saw_conflicts_only,
            "both budget shapes drawn"
        );
    }

    /// The robustness contract of the governed pipeline: under starvation
    /// budgets every case must classify cleanly — complete-and-proven or
    /// well-formed-partial — with zero panics, hangs, or malformed
    /// netlists. Both budget shapes (conflict-starved and zero-deadline)
    /// must appear, and zero-deadline cases must degrade.
    #[test]
    fn budget_campaign_is_clean() {
        let report = crate::campaign::run(&mut BudgetCampaign::default(), 11, 40, false);
        let (stats, failures) = (report.stats, report.failures);
        for f in &failures {
            eprintln!("budget failure: seed {} {}", f.seed, f.failure);
        }
        assert_eq!(stats.cases, 40);
        assert_eq!(
            stats.passes + stats.degraded + stats.skips + stats.failures,
            40
        );
        assert_eq!(stats.failures, 0, "budgeted pipeline must be clean");
        assert!(
            stats.degraded > 0,
            "starvation budgets must exercise degradation: {stats:?}"
        );
    }
}
