//! The top-level ECO engine: the full Fig.-1 flow as a staged pipeline.
//!
//! `FRAIG → clustering → localization → patch generation → cost
//! optimization → verification`, with a completeness fallback: if a
//! localized run fails final verification, the engine retries without
//! localization (recorded as a telemetry event) before declaring the
//! instance unrectifiable.
//!
//! Clusters rectify independently (Fig. 2), so stages 1+3+4 run *per
//! cluster* against an isolated sub-workspace ([`Workspace::for_cluster`])
//! and — when [`EcoOptions::jobs`] allows — in parallel on scoped worker
//! threads. Results are merged back into the shared manager in cluster
//! order, which keeps the flow deterministic: any `jobs` value produces
//! byte-identical patches.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use eco_aig::{Aig, Lit, Var};
use eco_fraig::{fraig_classes_stats, fraig_reduce, FraigOptions};

use crate::cluster::{cluster_targets, TargetCluster};
use crate::govern::{Budget, ClusterDiagnosis, ClusterReport};
use crate::localize::{Cut, CutSignal, TapMap};
use crate::memo::{patch_memo_key, MemoCache};
use crate::optimize::{optimize_patches, total_cost};
use crate::patchgen::{extract_patch_aig, generate_group_patches, GroupPatches, PatchFn};
use crate::pool::{resolve_workers, run_indexed};
use crate::rectifiable::{check_rectifiable, Rectifiability};
use crate::sizeopt::reduce_patch_sizes;
use crate::synth::InitialPatchKind;
use crate::telemetry::{Stage, Telemetry, TelemetrySnapshot};
use crate::verify::{check_equivalence, VerifyOutcome};
use crate::workspace::{merge, Merged};
use crate::{EcoError, EcoInstance, Workspace};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EcoOptions {
    /// Run localization (Alg. 2); patches may then use intermediate
    /// signals. Off = patches over primary inputs only.
    pub localization: bool,
    /// How initial patches are synthesized (§4.3).
    pub initial_patch: InitialPatchKind,
    /// Run the §6 cost optimizer. The §2.4 don't-care-based size
    /// reduction runs after it either way.
    pub optimize: bool,
    /// Watch-window size β of §6.2 base selection: how many of the
    /// heaviest base signals are tentatively swapped out per round. The
    /// paper finds β = 5 a good quality/runtime trade-off (Ablation B).
    pub watch_size: usize,
    /// Decide Eq. (2) (`∀X ∃T. F = G`) up front via 2QBF CEGAR before any
    /// patch generation. Off by default — final verification already
    /// guarantees soundness — but useful to fail fast on hopeless
    /// instances with a universal counterexample.
    pub precheck_rectifiability: bool,
    /// Worker threads for the per-cluster patch-generation stage:
    /// `0` = use [`std::thread::available_parallelism`], `1` = run
    /// sequentially (same code path, so results are identical for every
    /// value). Never more threads than clusters are spawned.
    pub jobs: usize,
    /// Shared cross-job memo cache ([`MemoCache`]): a complete verified
    /// result is reused across structurally identical instances. Hits
    /// never change results — a cached result is a pure function of its
    /// structural key, and it is re-verified with a fresh SAT miter
    /// before being returned. Only consulted when the budget is unlimited
    /// (a truncated run's result is not a reusable pure function).
    pub memo: Option<Arc<MemoCache>>,
}

impl Default for EcoOptions {
    fn default() -> Self {
        EcoOptions {
            localization: true,
            initial_patch: InitialPatchKind::OnSet,
            optimize: true,
            watch_size: 5,
            precheck_rectifiability: false,
            jobs: 0,
            memo: None,
        }
    }
}

impl EcoOptions {
    /// The configuration used as the contest-winner-style *baseline* in
    /// the paper's Table 2 comparison: primary-input-support patches
    /// (reference \[20\]-style), no localization, no cost optimization.
    pub fn baseline() -> Self {
        EcoOptions {
            localization: false,
            optimize: false,
            ..Default::default()
        }
    }
}

/// One target's patch, reported over the final patch AIG.
#[derive(Clone, Debug)]
pub struct TargetPatch {
    /// Target name.
    pub target: String,
    /// Base signal names this patch's function reads.
    pub base: Vec<String>,
    /// AND-gate count of this patch's cone (shared gates counted once per
    /// patch here; the global `size` dedups across patches).
    pub size: usize,
}

/// The engine's result.
#[derive(Clone, Debug)]
pub struct EcoResult {
    /// Per-target patches.
    pub patches: Vec<TargetPatch>,
    /// The combined patch circuit: inputs = union of base signals (named
    /// as in the faulty netlist), outputs = target names.
    pub patch_aig: Aig,
    /// Total base cost: sum of weights over the union of base signals.
    pub cost: u64,
    /// Total patch size in AND gates (shared logic counted once).
    pub size: usize,
    /// `true` if the localized attempt failed verification and the engine
    /// fell back to an unlocalized run.
    pub localization_fallback: bool,
    /// Interpolation attempts that fell back to the on-set (§4.3).
    pub interpolation_fallbacks: usize,
    /// Cost before/after the optimization stage.
    pub optimize_delta: (u64, u64),
    /// Full run telemetry (both attempts when the fallback fired):
    /// per-stage wall times, aggregated SAT/FRAIG counters, events.
    pub telemetry: TelemetrySnapshot,
}

/// A governed run's outcome: either the full flow finished, or the
/// resource governor degraded it to a partial result.
#[derive(Clone, Debug)]
pub enum EcoOutcome {
    /// Every cluster was patched and the result verified.
    Complete(EcoResult),
    /// The run hit its deadline or conflict budget (or a cluster worker
    /// panicked); whatever completed is reported with per-cluster
    /// diagnoses.
    Partial(PartialResult),
}

/// Graceful-degradation result: the patches that *did* complete plus a
/// per-cluster diagnosis of what happened to the rest.
///
/// The completed patches are individually correct for their own clusters,
/// but the combined result has **not** passed final verification — it is a
/// best-effort artifact for triage, not a drop-in rectification.
#[derive(Clone, Debug)]
pub struct PartialResult {
    /// Why the run degraded (first binding limit).
    pub reason: String,
    /// Patches from clusters that completed before the limit hit.
    pub patches: Vec<TargetPatch>,
    /// Combined patch circuit over the completed clusters (empty when none
    /// completed or partial assembly itself failed).
    pub patch_aig: Aig,
    /// Base cost over the completed patches.
    pub cost: u64,
    /// AND-gate count of the completed patch circuit.
    pub size: usize,
    /// One report per target cluster, in cluster order.
    pub clusters: Vec<ClusterReport>,
    /// Full run telemetry, including the governor counters.
    pub telemetry: TelemetrySnapshot,
}

/// One flow attempt's outcome (internal).
enum AttemptOutcome {
    Done(EcoResult),
    Cex(Vec<(String, bool)>),
    Degraded(PartialResult),
}

/// The cost-aware multi-target ECO patch generator.
///
/// # Examples
///
/// ```
/// use eco_core::{EcoEngine, EcoInstance, EcoOptions};
/// use eco_netlist::{parse_verilog, WeightTable};
///
/// let faulty = parse_verilog(
///     "module f (a, b, c, t, y); input a, b, c, t; output y;
///      xor g1 (y, t, c); endmodule",
/// )?;
/// let golden = parse_verilog(
///     "module g (a, b, c, y); input a, b, c; output y;
///      wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
/// )?;
/// let inst = EcoInstance::from_netlists(
///     "demo", &faulty, &golden, vec!["t".into()], &WeightTable::new(1),
/// )?;
/// let result = EcoEngine::new(inst, EcoOptions::default()).run()?;
/// assert_eq!(result.patches[0].target, "t");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EcoEngine {
    instance: EcoInstance,
    options: EcoOptions,
}

/// Everything one cluster's isolated rectification produced: the
/// sub-workspace (whose manager holds the patch cones) and the generated
/// group.
struct ClusterOutcome {
    sub: Workspace,
    group: GroupPatches,
}

impl EcoEngine {
    /// Creates an engine over a validated instance.
    pub fn new(instance: EcoInstance, options: EcoOptions) -> Self {
        EcoEngine { instance, options }
    }

    /// The instance under rectification.
    pub fn instance(&self) -> &EcoInstance {
        &self.instance
    }

    /// Runs the full flow with no deadline and no conflict allowance;
    /// [`EcoEngine::run_governed`] is the one way to limit a run.
    ///
    /// # Errors
    ///
    /// [`EcoError::Unrectifiable`] when no patch over the given targets can
    /// make the circuits equivalent (witnessed by a failed final
    /// verification of the complete, unlocalized derivation), and
    /// [`EcoError::ResourceLimit`] whenever the run degrades to a partial
    /// result (use [`EcoEngine::run_governed`] to receive it instead).
    pub fn run(&self) -> Result<EcoResult, EcoError> {
        match self.run_governed(&Budget::unlimited())? {
            EcoOutcome::Complete(result) => Ok(result),
            EcoOutcome::Partial(partial) => Err(EcoError::ResourceLimit(format!(
                "run degraded to a partial result: {}",
                partial.reason
            ))),
        }
    }

    /// Runs the full flow under `budget`, returning a graceful
    /// [`EcoOutcome::Partial`] instead of an error when the deadline or
    /// conflict budget cuts the run short. [`EcoEngine::run`] passes
    /// [`Budget::unlimited`]; eco-patch builds its governor from its
    /// `--timeout` and `--conflict-budget` flags, and the batch runner
    /// apportions one run-wide governor across jobs with
    /// [`Budget::child`].
    ///
    /// Limited and unlimited runs take the same path. A SAT query that
    /// answers `Unknown` degrades the run to `Partial`; with an unlimited
    /// budget that happens only through the rectifiability precheck's
    /// iteration cap (off by default) or a panicking cluster worker,
    /// which the engine isolates and reports instead of aborting the
    /// process.
    ///
    /// This is also where the [`EcoOptions::memo`] whole-instance lookup
    /// happens: a cached result is returned only after a fresh SAT miter
    /// re-verifies it against this engine's instance; a refuted entry is
    /// counted as a fallback and the full pipeline runs instead.
    ///
    /// [`run`]: EcoEngine::run
    ///
    /// # Errors
    ///
    /// As [`EcoEngine::run`], except budget-driven degradation is a
    /// successful `Partial` outcome rather than an error.
    pub fn run_governed(&self, budget: &Budget) -> Result<EcoOutcome, EcoError> {
        let tel = Telemetry::new();
        let memo = self
            .options
            .memo
            .as_deref()
            .filter(|_| budget.is_unlimited())
            .map(|m| (m, patch_memo_key(&self.instance, &self.options)));
        if let Some((cache, (key, check))) = memo {
            if let Some(mut cached) = cache.lookup_patch(key, check) {
                tel.update(|t| t.memo.hits += 1);
                if self.reverify_patch(&cached, budget, &tel) {
                    cached.telemetry = tel.snapshot();
                    return Ok(EcoOutcome::Complete(cached));
                }
                cache.record_fallback();
                tel.update(|t| t.memo.fallbacks += 1);
            } else {
                tel.update(|t| t.memo.misses += 1);
            }
        }
        let outcome = self.run_attempts(budget, &tel)?;
        if let (Some((cache, (key, check))), EcoOutcome::Complete(result)) = (memo, &outcome) {
            cache.store_patch(key, check, result);
        }
        Ok(outcome)
    }

    /// The localized attempt plus its completeness fallback (memo-free).
    fn run_attempts(&self, budget: &Budget, tel: &Telemetry) -> Result<EcoOutcome, EcoError> {
        let outcome = match self.attempt(self.options.localization, budget, tel)? {
            AttemptOutcome::Done(result) => EcoOutcome::Complete(result),
            AttemptOutcome::Degraded(partial) => EcoOutcome::Partial(partial),
            AttemptOutcome::Cex(cex) if self.options.localization => {
                // Completeness fallback: retry without localization.
                tel.update(|t| t.localization_fallbacks += 1);
                tel.event(
                    Stage::Verify,
                    "localization_fallback",
                    format!(
                        "localized attempt failed final verification ({}); \
                         retrying without localization",
                        cex_summary(&cex)
                    ),
                );
                match self.attempt(false, budget, tel)? {
                    AttemptOutcome::Done(mut result) => {
                        result.localization_fallback = true;
                        EcoOutcome::Complete(result)
                    }
                    AttemptOutcome::Degraded(partial) => EcoOutcome::Partial(partial),
                    AttemptOutcome::Cex(cex) => {
                        return Err(EcoError::Unrectifiable(format!(
                            "verification counterexample: {}",
                            cex_summary(&cex)
                        )))
                    }
                }
            }
            AttemptOutcome::Cex(cex) => {
                return Err(EcoError::Unrectifiable(format!(
                    "verification counterexample: {}",
                    cex_summary(&cex)
                )))
            }
        };
        Ok(match outcome {
            EcoOutcome::Complete(mut result) => {
                result.telemetry = tel.snapshot();
                EcoOutcome::Complete(result)
            }
            EcoOutcome::Partial(mut partial) => {
                partial.telemetry = tel.snapshot();
                EcoOutcome::Partial(partial)
            }
        })
    }

    /// Freshly SAT-verifies a cached result's patch circuit against this
    /// engine's instance: the patch AIG is imported over a clean workspace
    /// by input name, substituted into the targets, and the full output
    /// miter checked — exactly the stage-6 check, so a memo hit meets the
    /// same bar as a freshly derived patch. Any mapping failure or
    /// non-equivalence returns `false`, so a poisoned or colliding cache
    /// entry can never be returned as a result.
    fn reverify_patch(&self, result: &EcoResult, budget: &Budget, tel: &Telemetry) -> bool {
        let t0 = Instant::now();
        let Merged {
            mut mgr,
            x,
            target_vars,
            f_outs,
            g_outs,
            cand_lits,
        } = merge(&self.instance);
        // A patch input names a base candidate or, failing that, an `X`
        // input; the first of each name counts.
        let cands = self.instance.candidates.iter().map(|c| c.name.as_str());
        let mut taps: HashMap<&str, Lit> = HashMap::with_capacity(cand_lits.len() + x.len());
        for (name, lit) in cands.zip(cand_lits).chain(x) {
            taps.entry(name).or_insert(lit);
        }
        let patch = &result.patch_aig;
        let mut imap: HashMap<Var, Lit> = HashMap::with_capacity(patch.num_inputs());
        for pos in 0..patch.num_inputs() {
            let Some(&lit) = taps.get(patch.input_name(pos)) else {
                return false;
            };
            imap.insert(patch.input_var(pos), lit);
        }
        let proots: Vec<Lit> = patch.outputs().iter().map(|o| o.lit).collect();
        let Ok(plits) = mgr.import(patch, &proots, &imap) else {
            return false;
        };
        let mut tmap: HashMap<Var, Lit> = HashMap::new();
        for (o, &l) in patch.outputs().iter().zip(&plits) {
            let Some(k) = self.instance.targets.iter().position(|t| *t == o.name) else {
                return false;
            };
            tmap.insert(target_vars[k], l);
        }
        if tmap.len() != self.instance.targets.len() {
            return false;
        }
        let patched = mgr.substitute(&f_outs, &tmap);
        let pairs: Vec<(Lit, Lit)> = patched.into_iter().zip(g_outs).collect();
        let (verdict, stats) =
            check_equivalence(&mut mgr, &pairs, budget.cap(u64::MAX), &budget.ctl());
        if let Some(stats) = stats {
            tel.record_solver(&stats);
        }
        tel.add_stage(Stage::Verify, t0.elapsed());
        matches!(verdict, VerifyOutcome::Equivalent)
    }

    /// The cluster flow: FRAIG + tap map (when localizing) and Alg.-1
    /// patch generation against the cluster's own sub-workspace, all
    /// without touching the shared manager. Safe to call from worker
    /// threads; [`run_indexed`] turns a panic into a per-cluster
    /// diagnosis.
    ///
    /// Conflict accounting is strictly worker-local: the cluster draws a
    /// fresh [`ConflictMeter`](crate::ConflictMeter) from the budget and
    /// charges it with deterministic SAT conflict counts, so whether a
    /// cluster degrades never depends on how many workers run beside it.
    fn rectify_cluster(
        &self,
        ws: &Workspace,
        cluster: &TargetCluster,
        localization: bool,
        budget: &Budget,
        tel: &Telemetry,
    ) -> Result<ClusterOutcome, ClusterDiagnosis> {
        if budget.expired() {
            return Err(ClusterDiagnosis::Deadline);
        }
        let mut meter = budget.meter();
        if meter.exhausted() {
            return Err(ClusterDiagnosis::BudgetExhausted);
        }
        let (mut sub, local) = ws.for_cluster(cluster);
        let t0 = Instant::now();
        let tap = if localization {
            let mut fraig_opts = FraigOptions {
                ctl: budget.ctl(),
                ..FraigOptions::default()
            };
            if let Some(remaining) = meter.remaining() {
                // The sweep shares the cluster's allowance: cap its total
                // spend at what remains and keep per-query budgets inside
                // that (at least 1 so the cap stays meaningful).
                fraig_opts.max_total_conflicts = remaining;
                fraig_opts.conflict_budget = fraig_opts.conflict_budget.min(remaining.max(1));
            }
            let (classes, sweep) = fraig_classes_stats(&sub.mgr, &fraig_opts);
            tel.record_sweep(&sweep);
            meter.charge(sweep.sat.conflicts);
            TapMap::build(&sub, &classes)
        } else {
            TapMap::empty()
        };
        tel.add_stage(Stage::Fraig, t0.elapsed());
        if budget.expired() {
            return Err(ClusterDiagnosis::Deadline);
        }
        if meter.exhausted() {
            return Err(ClusterDiagnosis::BudgetExhausted);
        }
        let group = generate_group_patches(
            &mut sub,
            &tap,
            &local,
            self.options.initial_patch,
            budget,
            &mut meter,
            tel,
        )?;
        Ok(ClusterOutcome { sub, group })
    }

    /// One flow attempt.
    fn attempt(
        &self,
        localization: bool,
        budget: &Budget,
        tel: &Telemetry,
    ) -> Result<AttemptOutcome, EcoError> {
        let opts = &self.options;
        let mut ws = Workspace::new(&self.instance);

        // Stage 2: clustering (stage 1, FRAIG, now runs per cluster below).
        let clustering = tel.time(Stage::Clustering, || cluster_targets(&ws));
        let clusters = &clustering.clusters;

        if budget.expired() {
            return Ok(self.degrade_all_clusters(
                &ws,
                clusters,
                ClusterDiagnosis::Deadline,
                Stage::Clustering,
                "deadline expired before patch generation",
                tel,
            ));
        }

        if opts.precheck_rectifiability {
            // The CEGAR check builds scratch nodes, so it runs on a
            // throwaway workspace and the main manager stays untouched.
            let mut scratch = Workspace::new(&self.instance);
            match check_rectifiable(&mut scratch, 256, budget.cap(u64::MAX), &budget.ctl(), tel) {
                Rectifiability::Rectifiable => {}
                Rectifiability::Counterexample(cex) => {
                    return Err(EcoError::Unrectifiable(format!(
                        "Eq. (2) counterexample: no target assignment works at {cex:?}"
                    )))
                }
                Rectifiability::Unknown => {
                    return Ok(self.degrade_all_clusters(
                        &ws,
                        clusters,
                        exhausted(budget),
                        Stage::Verify,
                        "rectifiability precheck budget exhausted",
                        tel,
                    ))
                }
            }
        }

        // Untouched outputs must already match — otherwise no patch can
        // ever rectify them (fast necessary condition for Eq. 2).
        if !clustering.untouched_outputs.is_empty() {
            let pairs: Vec<(Lit, Lit)> = clustering
                .untouched_outputs
                .iter()
                .map(|&j| (ws.f_outs[j], ws.g_outs[j]))
                .collect();
            let t0 = Instant::now();
            let (verdict, stats) =
                check_equivalence(&mut ws.mgr, &pairs, budget.cap(u64::MAX), &budget.ctl());
            if let Some(stats) = stats {
                tel.record_solver(&stats);
            }
            tel.add_stage(Stage::Verify, t0.elapsed());
            match verdict {
                VerifyOutcome::Equivalent => {}
                VerifyOutcome::Counterexample(cex) => {
                    let at = if cex.is_empty() {
                        "for all inputs".to_string()
                    } else {
                        format!("at {cex:?}")
                    };
                    return Err(EcoError::Unrectifiable(format!(
                        "output outside all target fanout cones differs {at}"
                    )));
                }
                VerifyOutcome::Unknown => {
                    return Ok(self.degrade_all_clusters(
                        &ws,
                        clusters,
                        exhausted(budget),
                        Stage::Verify,
                        "verification budget exhausted on untouched outputs",
                        tel,
                    ))
                }
            }
        }

        // Stages 1+3+4: per-cluster FRAIG, localization, and patch
        // generation against isolated sub-workspaces — in parallel when
        // `jobs` allows — then a deterministic merge in cluster order.
        let t0 = Instant::now();
        let jobs = resolve_workers(opts.jobs).min(clusters.len()).max(1);
        tel.update(|t| {
            t.clusters += clusters.len() as u64;
            t.jobs = jobs as u64;
        });
        let outcomes = run_indexed(
            jobs,
            clusters.len(),
            |i| self.rectify_cluster(&ws, &clusters[i], localization, budget, tel),
            |_, payload| Err(ClusterDiagnosis::Panicked(panic_message(payload))),
        );
        let mut patches: Vec<PatchFn> = Vec::new();
        let mut interpolation_fallbacks = 0;
        let mut cluster_reports: Vec<ClusterReport> = Vec::with_capacity(clusters.len());
        let mut failed = 0usize;
        for (cluster, out) in clusters.iter().zip(outcomes) {
            let targets: Vec<String> = cluster
                .targets
                .iter()
                .map(|&k| self.instance.targets[k].clone())
                .collect();
            match out {
                Ok(out) => {
                    interpolation_fallbacks += out.group.fallbacks;
                    patches.extend(adopt_group(&mut ws, &out.sub, &out.group)?);
                    cluster_reports.push(ClusterReport {
                        targets,
                        diagnosis: ClusterDiagnosis::Patched,
                    });
                }
                Err(diagnosis) => {
                    failed += 1;
                    tel.event(
                        Stage::PatchGen,
                        "cluster_degraded",
                        format!("cluster [{}]: {diagnosis}", targets.join(", ")),
                    );
                    cluster_reports.push(ClusterReport { targets, diagnosis });
                }
            }
        }
        for report in &cluster_reports {
            tel.add_cluster_diagnosis(&report.diagnosis);
        }
        for &k in &clustering.dead_targets {
            patches.push(PatchFn {
                target: k,
                lit: Lit::FALSE,
                cut: Cut::default(),
            });
        }
        tel.add_stage(Stage::PatchGen, t0.elapsed());

        if failed > 0 {
            // Graceful degradation: report what completed; skip the
            // optimization and final-verification stages (their results
            // would describe an incomplete patch set anyway).
            let reason = format!("{failed} of {} clusters degraded", clusters.len());
            return Ok(AttemptOutcome::Degraded(self.assemble_partial(
                &ws,
                patches,
                cluster_reports,
                reason,
                tel,
            )));
        }

        // Stage 5: cost optimization, then size reduction.
        let t0 = Instant::now();
        let optimize_delta = if opts.optimize {
            let stats = optimize_patches(&mut ws, &mut patches, opts.watch_size, budget, tel);
            (stats.cost_before, stats.cost_after)
        } else {
            let c = total_cost(&ws, &patches);
            (c, c)
        };
        reduce_patch_sizes(&mut ws, &mut patches, budget, tel);
        tel.add_stage(Stage::Optimize, t0.elapsed());

        // Stage 6: verification.
        let t0 = Instant::now();
        let map: HashMap<Var, Lit> = patches
            .iter()
            .map(|p| (ws.target_vars[p.target], p.lit))
            .collect();
        let f_outs = ws.f_outs.clone();
        let patched = ws.mgr.substitute(&f_outs, &map);
        let pairs: Vec<(Lit, Lit)> = patched.into_iter().zip(ws.g_outs.clone()).collect();
        let (verdict, stats) =
            check_equivalence(&mut ws.mgr, &pairs, budget.cap(u64::MAX), &budget.ctl());
        if let Some(stats) = stats {
            tel.record_solver(&stats);
        }
        tel.add_stage(Stage::Verify, t0.elapsed());
        match verdict {
            VerifyOutcome::Equivalent => {}
            VerifyOutcome::Counterexample(cex) => return Ok(AttemptOutcome::Cex(cex)),
            VerifyOutcome::Unknown => {
                tel.event(
                    Stage::Verify,
                    "run_degraded",
                    "final verification budget exhausted; patches are unverified".to_string(),
                );
                return Ok(AttemptOutcome::Degraded(self.assemble_partial(
                    &ws,
                    patches,
                    cluster_reports,
                    "final verification budget exhausted".to_string(),
                    tel,
                )));
            }
        }

        // Assemble the result: order patches by target index, extract the
        // combined patch AIG over the merged cut, prune unused inputs, and
        // FRAIG-reduce the patch itself.
        let result = tel.time(Stage::Assemble, || -> Result<EcoResult, EcoError> {
            let (target_patches, patch_aig, cost, size) =
                self.assemble_patches(&ws, &mut patches, tel)?;
            Ok(EcoResult {
                patches: target_patches,
                patch_aig,
                cost,
                size,
                localization_fallback: false,
                interpolation_fallbacks,
                optimize_delta,
                telemetry: TelemetrySnapshot::default(),
            })
        })?;
        Ok(AttemptOutcome::Done(result))
    }

    /// Orders the patches by target index, extracts the combined patch AIG
    /// over the merged cut, prunes unused inputs, FRAIG-reduces the patch,
    /// and computes the cost/size summary. Shared by the complete and
    /// partial assembly paths.
    fn assemble_patches(
        &self,
        ws: &Workspace,
        patches: &mut [PatchFn],
        tel: &Telemetry,
    ) -> Result<(Vec<TargetPatch>, Aig, u64, usize), EcoError> {
        patches.sort_by_key(|p| p.target);
        let merged = Cut::merge(patches.iter().map(|p| &p.cut));
        let roots: Vec<Lit> = patches.iter().map(|p| p.lit).collect();
        let (mut patch_aig, outs) = extract_patch_aig(&ws.mgr, &ws.target_vars, &roots, &merged)?;
        for (p, &o) in patches.iter().zip(&outs) {
            patch_aig.add_output(self.instance.targets[p.target].clone(), o);
        }
        let patch_aig = prune_unused_inputs(&patch_aig);
        let patch_aig = {
            let (classes, sweep) = fraig_classes_stats(&patch_aig, &FraigOptions::default());
            tel.record_sweep(&sweep);
            fraig_reduce(&patch_aig, &classes).compact()
        };

        let cost = total_cost(ws, patches);
        let all_roots: Vec<Lit> = patch_aig.outputs().iter().map(|o| o.lit).collect();
        let size = patch_aig.count_cone_ands(&all_roots);
        let target_patches: Vec<TargetPatch> = patch_aig
            .outputs()
            .iter()
            .map(|o| TargetPatch {
                target: o.name.clone(),
                base: patch_aig
                    .support(&[o.lit])
                    .iter()
                    .map(|&v| {
                        patch_aig
                            .input_name(patch_aig.input_pos(v).expect("support is inputs"))
                            .to_owned()
                    })
                    .collect(),
                size: patch_aig.count_cone_ands(&[o.lit]),
            })
            .collect();
        Ok((target_patches, patch_aig, cost, size))
    }

    /// Builds a [`PartialResult`] from whatever patches completed. Assembly
    /// failures degrade further to an empty patch set (recorded as a
    /// telemetry event) — a partial result never turns into a hard error.
    fn assemble_partial(
        &self,
        ws: &Workspace,
        mut patches: Vec<PatchFn>,
        clusters: Vec<ClusterReport>,
        reason: String,
        tel: &Telemetry,
    ) -> PartialResult {
        let assembled = tel.time(Stage::Assemble, || {
            self.assemble_patches(ws, &mut patches, tel)
        });
        let (target_patches, patch_aig, cost, size) = match assembled {
            Ok(parts) => parts,
            Err(e) => {
                tel.event(
                    Stage::Assemble,
                    "partial_assembly_failed",
                    format!("completed patches could not be assembled: {e}"),
                );
                (Vec::new(), Aig::new(), 0, 0)
            }
        };
        PartialResult {
            reason,
            patches: target_patches,
            patch_aig,
            cost,
            size,
            clusters,
            telemetry: TelemetrySnapshot::default(),
        }
    }

    /// Degrades every cluster with the same diagnosis (used when a serial
    /// stage ahead of patch generation hits a limit), recording `reason`
    /// as a `run_degraded` event of `stage`.
    fn degrade_all_clusters(
        &self,
        ws: &Workspace,
        clusters: &[TargetCluster],
        diagnosis: ClusterDiagnosis,
        stage: Stage,
        reason: &str,
        tel: &Telemetry,
    ) -> AttemptOutcome {
        tel.event(stage, "run_degraded", reason.to_string());
        let reports: Vec<ClusterReport> = clusters
            .iter()
            .map(|c| ClusterReport {
                targets: c
                    .targets
                    .iter()
                    .map(|&k| self.instance.targets[k].clone())
                    .collect(),
                diagnosis: diagnosis.clone(),
            })
            .collect();
        for report in &reports {
            tel.add_cluster_diagnosis(&report.diagnosis);
        }
        AttemptOutcome::Degraded(self.assemble_partial(
            ws,
            Vec::new(),
            reports,
            reason.to_string(),
            tel,
        ))
    }
}

/// The diagnosis of a serial stage whose SAT query answered `Unknown`:
/// the deadline when it fired, the conflict allowance otherwise.
fn exhausted(budget: &Budget) -> ClusterDiagnosis {
    if budget.expired() {
        ClusterDiagnosis::Deadline
    } else {
        ClusterDiagnosis::BudgetExhausted
    }
}

/// Best-effort human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Compact, human-readable counterexample summary (first few assignments).
fn cex_summary(cex: &[(String, bool)]) -> String {
    if cex.is_empty() {
        return "counterexample with no free inputs".to_string();
    }
    let shown: Vec<String> = cex
        .iter()
        .take(8)
        .map(|(n, v)| format!("{n}={}", u8::from(*v)))
        .collect();
    let extra = cex.len().saturating_sub(8);
    if extra > 0 {
        format!("cex {} …(+{extra} more)", shown.join(" "))
    } else {
        format!("cex {}", shown.join(" "))
    }
}

/// Imports one cluster's generated patches from its sub-workspace into the
/// shared manager, relocating each patch cut alongside via the import
/// translation cache. Purely structural, so merging in cluster order makes
/// the parallel path byte-identical to the sequential one.
fn adopt_group(
    ws: &mut Workspace,
    sub: &Workspace,
    group: &GroupPatches,
) -> Result<Vec<PatchFn>, EcoError> {
    let mut imap: HashMap<Var, Lit> = HashMap::new();
    for ((_, sl), (_, ml)) in sub.x.iter().zip(&ws.x) {
        imap.insert(sl.var(), *ml);
    }
    for (&sv, &mv) in sub.target_vars.iter().zip(&ws.target_vars) {
        imap.insert(sv, mv.pos());
    }
    let roots: Vec<Lit> = group.patches.iter().map(|p| p.lit).collect();
    let (lits, cache) = ws.mgr.import_map(&sub.mgr, &roots, &imap)?;
    Ok(group
        .patches
        .iter()
        .zip(&lits)
        .map(|(p, &lit)| PatchFn {
            target: p.target,
            lit,
            cut: translate_cut(ws, &p.cut, &cache),
        })
        .collect())
}

/// Re-expresses a sub-workspace cut over the shared manager: signal
/// literals relocate by candidate index (or `X` input name), frontier
/// nodes through the import cache with phase composition. Entries are
/// visited in variable order so collisions resolve deterministically.
fn translate_cut(ws: &Workspace, sub_cut: &Cut, cache: &HashMap<Var, Lit>) -> Cut {
    let mut out = Cut {
        signals: Vec::with_capacity(sub_cut.signals.len()),
        node_map: HashMap::new(),
        targets: sub_cut.targets.clone(),
    };
    for s in &sub_cut.signals {
        let lit = match s.cand_idx {
            Some(i) => ws.cands[i].lit,
            None => ws.x_lit(&s.name).expect("cut signal is an X input"),
        };
        out.signals.push(CutSignal {
            name: s.name.clone(),
            lit,
            weight: s.weight,
            cand_idx: s.cand_idx,
        });
    }
    let mut entries: Vec<(Var, (usize, bool))> =
        sub_cut.node_map.iter().map(|(&v, &e)| (v, e)).collect();
    entries.sort_unstable_by_key(|(v, _)| v.index());
    for (v, (sig, phase)) in entries {
        // Frontier nodes outside the imported patch cones have no cache
        // entry; they cannot be reached from the patch either, so they are
        // safe to drop.
        if let Some(&l) = cache.get(&v) {
            out.node_map
                .entry(l.var())
                .or_insert((sig, phase ^ l.is_complement()));
        }
    }
    out
}

/// Rebuilds `aig` keeping only inputs in the support of its outputs.
fn prune_unused_inputs(aig: &Aig) -> Aig {
    let roots: Vec<Lit> = aig.outputs().iter().map(|o| o.lit).collect();
    let used = aig.support(&roots);
    let mut new = Aig::new();
    let mut map: HashMap<Var, Lit> = HashMap::new();
    for &v in &used {
        let pos = aig.input_pos(v).expect("support is inputs");
        map.insert(v, new.add_input(aig.input_name(pos).to_owned()));
    }
    let outs = new
        .import(aig, &roots, &map)
        .expect("support covers every cone input");
    for (o, &lit) in aig.outputs().iter().zip(&outs) {
        new.add_output(o.name.clone(), lit);
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::BudgetOptions;
    use eco_netlist::{parse_verilog, WeightTable};
    use std::time::Duration;

    fn instance(
        faulty: &str,
        golden: &str,
        targets: &[&str],
        weights: &WeightTable,
    ) -> EcoInstance {
        EcoInstance::from_netlists(
            "engine-test",
            &parse_verilog(faulty).expect("faulty"),
            &parse_verilog(golden).expect("golden"),
            targets.iter().map(|s| s.to_string()).collect(),
            weights,
        )
        .expect("instance")
    }

    /// Exhaustively check that splicing the patch AIG into the faulty
    /// circuit matches the golden circuit.
    fn check_result(inst: &EcoInstance, result: &EcoResult) {
        let x_names = inst.x_names();
        assert!(x_names.len() <= 10, "exhaustive check needs few inputs");
        // Evaluate golden directly; evaluate faulty with targets driven by
        // the patch AIG, whose inputs are faulty nets (which in these tests
        // are all X inputs or computable nets — we re-elaborate via the
        // workspace instead for generality).
        let ws = Workspace::new(inst);
        let mut mgr = ws.mgr.clone();
        // Patch outputs imported over the manager: patch input names are
        // faulty net names = candidate names.
        let mut imap: HashMap<Var, Lit> = HashMap::new();
        for pos in 0..result.patch_aig.num_inputs() {
            let name = result.patch_aig.input_name(pos);
            let lit = ws
                .cands
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.lit)
                .or_else(|| ws.x_lit(name))
                .ok_or_else(|| EcoError::UnknownPatchInput(name.to_owned()))
                .expect("engine emitted a patch over existing nets");
            imap.insert(result.patch_aig.input_var(pos), lit);
        }
        let proots: Vec<Lit> = result.patch_aig.outputs().iter().map(|o| o.lit).collect();
        let plits = mgr
            .import(&result.patch_aig, &proots, &imap)
            .expect("patch inputs are fully mapped");
        let tmap: HashMap<Var, Lit> = result
            .patch_aig
            .outputs()
            .iter()
            .zip(&plits)
            .map(|(o, &l)| {
                let k = inst
                    .targets
                    .iter()
                    .position(|t| *t == o.name)
                    .expect("target");
                (ws.target_vars[k], l)
            })
            .collect();
        let patched = mgr.substitute(&ws.f_outs.clone(), &tmap);
        mgr.clear_outputs();
        for (j, (&p, &g)) in patched.iter().zip(&ws.g_outs).enumerate() {
            let m = mgr.xor(p, g);
            mgr.add_output(format!("m{j}"), m);
        }
        let n = mgr.num_inputs();
        for bits in 0u64..1 << n {
            let vals: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert!(
                mgr.eval(&vals).iter().all(|&b| !b),
                "patched != golden at {vals:?}"
            );
        }
    }

    #[test]
    fn single_target_end_to_end() {
        let inst = instance(
            "module f (a, b, c, t, y); input a, b, c, t; output y; \
             xor g1 (y, t, c); endmodule",
            "module g (a, b, c, y); input a, b, c; output y; \
             wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
            &["t"],
            &WeightTable::new(3),
        );
        let result = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .expect("rectifiable");
        assert_eq!(result.patches.len(), 1);
        assert!(result.cost > 0);
        assert!(result.size >= 1);
        check_result(&inst, &result);
    }

    #[test]
    fn multi_target_end_to_end() {
        let inst = instance(
            "module f (a, b, c, t1, t2, y, z); input a, b, c, t1, t2; output y, z; \
             or g1 (y, t1, t2); and g2 (z, t2, c); endmodule",
            "module g (a, b, c, y, z); input a, b, c; output y, z; \
             wire w1, w2; and g1 (w1, a, b); xor g2 (w2, a, c); \
             or g3 (y, w1, w2); and g4 (z, w2, c); endmodule",
            &["t1", "t2"],
            &WeightTable::new(2),
        );
        let result = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .expect("rectifiable");
        assert_eq!(result.patches.len(), 2);
        check_result(&inst, &result);
    }

    #[test]
    fn localization_reuses_existing_net() {
        // The needed function exists as cheap net `w`; PIs cost 50.
        let mut weights = WeightTable::new(50);
        weights.set("w", 2);
        let inst = instance(
            "module f (a, b, c, t, y, u); input a, b, c, t; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, t, c); buf g2 (u, w); endmodule",
            "module g (a, b, c, y, u); input a, b, c; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, w, c); buf g2 (u, w); endmodule",
            &["t"],
            &weights,
        );
        let result = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .expect("rectifiable");
        check_result(&inst, &result);
        assert_eq!(result.cost, 2, "patch should tap w: {:?}", result.patches);
        assert_eq!(result.patches[0].base, vec!["w"]);
        // Baseline (PI-only) must pay for the inputs instead.
        let baseline = EcoEngine::new(inst.clone(), EcoOptions::baseline())
            .run()
            .expect("rectifiable");
        check_result(&inst, &baseline);
        assert!(baseline.cost > result.cost);
    }

    #[test]
    fn unrectifiable_is_reported() {
        // Output z does not depend on the target and differs from golden.
        let inst = instance(
            "module f (a, t, y, z); input a, t; output y, z; \
             buf g1 (y, t); buf g2 (z, a); endmodule",
            "module g (a, y, z); input a; output y, z; \
             buf g1 (y, a); not g2 (z, a); endmodule",
            &["t"],
            &WeightTable::new(1),
        );
        let err = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, EcoError::Unrectifiable(_)), "{err}");
    }

    #[test]
    fn dead_target_gets_constant_patch() {
        let inst = instance(
            "module f (a, t1, t2, y); input a, t1, t2; output y; \
             buf g1 (y, t1); endmodule",
            "module g (a, y); input a; output y; not g1 (y, a); endmodule",
            &["t1", "t2"],
            &WeightTable::new(1),
        );
        let result = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .expect("rectifiable");
        let t2 = result
            .patches
            .iter()
            .find(|p| p.target == "t2")
            .expect("t2");
        assert!(t2.base.is_empty());
        assert_eq!(t2.size, 0);
        check_result(&inst, &result);
    }

    #[test]
    fn stage_times_are_recorded() {
        let inst = instance(
            "module f (a, t, y); input a, t; output y; and g1 (y, a, t); endmodule",
            "module g (a, y); input a; output y; buf g1 (y, a); endmodule",
            &["t"],
            &WeightTable::new(1),
        );
        let result = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .expect("ok");
        assert!(result.telemetry.stage_nanos(Stage::PatchGen) > 0);
        assert!(result.telemetry.clusters >= 1);
        assert!(result.telemetry.jobs >= 1);
    }

    /// The two-cluster instance used by the governor tests below.
    fn two_cluster_instance() -> EcoInstance {
        instance(
            "module f (a, b, c, d, t1, t2, y, z); input a, b, c, d, t1, t2; output y, z; \
             xor g1 (y, t1, c); or g2 (z, t2, d); endmodule",
            "module g (a, b, c, d, y, z); input a, b, c, d; output y, z; \
             wire w1, w2; and g1 (w1, a, b); xor g2 (y, w1, c); \
             xor g3 (w2, a, d); or g4 (z, w2, d); endmodule",
            &["t1", "t2"],
            &WeightTable::new(2),
        )
    }

    #[test]
    fn zero_conflict_budget_degrades_to_partial() {
        let budget = Budget::new(&BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(0),
        });
        match EcoEngine::new(two_cluster_instance(), EcoOptions::default())
            .run_governed(&budget)
            .expect("degradation is not a hard error")
        {
            EcoOutcome::Partial(p) => {
                assert_eq!(p.clusters.len(), 2, "{p:?}");
                for c in &p.clusters {
                    assert_eq!(c.diagnosis, ClusterDiagnosis::BudgetExhausted, "{c:?}");
                }
                assert_eq!(p.telemetry.governor.clusters_budget_exhausted, 2);
                assert_eq!(p.telemetry.governor.clusters_patched, 0);
                assert!(p.patches.is_empty());
            }
            EcoOutcome::Complete(r) => panic!("expected partial, got {r:?}"),
        }
    }

    #[test]
    fn zero_timeout_reports_deadline_for_every_cluster() {
        let budget = Budget::new(&BudgetOptions {
            timeout: Some(Duration::ZERO),
            cluster_conflicts: None,
        });
        match EcoEngine::new(two_cluster_instance(), EcoOptions::default())
            .run_governed(&budget)
            .expect("degradation is not a hard error")
        {
            EcoOutcome::Partial(p) => {
                assert_eq!(p.clusters.len(), 2);
                for c in &p.clusters {
                    assert_eq!(c.diagnosis, ClusterDiagnosis::Deadline, "{c:?}");
                }
                assert_eq!(p.telemetry.governor.clusters_deadline, 2);
                assert!(p.reason.contains("deadline"), "{}", p.reason);
            }
            EcoOutcome::Complete(r) => panic!("expected partial, got {r:?}"),
        }
    }

    /// A generous conflict allowance completes, and the governed result is
    /// byte-identical to the ungoverned one.
    #[test]
    fn generous_budget_matches_ungoverned_run() {
        let inst = two_cluster_instance();
        let plain = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .expect("rectifiable");
        let budget = Budget::new(&BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(1 << 30),
        });
        match EcoEngine::new(inst, EcoOptions::default())
            .run_governed(&budget)
            .expect("rectifiable")
        {
            EcoOutcome::Complete(governed) => {
                assert_eq!(governed.cost, plain.cost);
                assert_eq!(governed.size, plain.size);
                assert_eq!(
                    format!("{:?}", governed.patch_aig),
                    format!("{:?}", plain.patch_aig)
                );
                assert_eq!(governed.telemetry.governor.clusters_patched, 2);
            }
            EcoOutcome::Partial(p) => panic!("expected complete, got partial: {}", p.reason),
        }
    }

    /// Two independent single-output clusters: any `jobs` value must give
    /// byte-identical patches, costs, and sizes.
    #[test]
    fn parallel_jobs_match_sequential() {
        let inst = instance(
            "module f (a, b, c, d, t1, t2, y, z); input a, b, c, d, t1, t2; output y, z; \
             xor g1 (y, t1, c); or g2 (z, t2, d); endmodule",
            "module g (a, b, c, d, y, z); input a, b, c, d; output y, z; \
             wire w1, w2; and g1 (w1, a, b); xor g2 (y, w1, c); \
             xor g3 (w2, a, d); or g4 (z, w2, d); endmodule",
            &["t1", "t2"],
            &WeightTable::new(2),
        );
        let run = |jobs: usize| {
            EcoEngine::new(
                inst.clone(),
                EcoOptions {
                    jobs,
                    ..Default::default()
                },
            )
            .run()
            .expect("rectifiable")
        };
        let seq = run(1);
        let par = run(4);
        check_result(&inst, &seq);
        assert_eq!(seq.cost, par.cost);
        assert_eq!(seq.size, par.size);
        for (a, b) in seq.patches.iter().zip(&par.patches) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.base, b.base, "base sets differ for {}", a.target);
            assert_eq!(a.size, b.size);
        }
        assert_eq!(
            format!("{:?}", seq.patch_aig),
            format!("{:?}", par.patch_aig),
            "patch AIGs must be byte-identical"
        );
    }
}
