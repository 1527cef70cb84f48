//! Sequential ECO via k-frame unrolling and patch fold-back.
//!
//! [`SeqEcoEngine`] rectifies a latch-bearing faulty design against a
//! latch-bearing golden design by (1) unrolling both over `k` frames,
//! (2) running the combinational cost-aware engine on the unrolled
//! instance — every sequential target `t` becomes `k` per-frame targets
//! `t@0..t@{k-1}`, every named net a per-frame weighted base candidate —
//! and (3) *folding* the per-frame patches back into one time-invariant
//! sequential patch: for each target the engine picks the highest frame
//! whose patch support is frame-pure (all bases read from that same
//! frame), strips the `@frame` suffixes, and splices the folded patch
//! into the sequential design.
//!
//! Folding assumes the chosen frame's patch function is time-invariant,
//! which the engine never trusts: the folded design is re-proved against
//! the golden design on a fresh `k`-frame unrolled miter under the run's
//! governor. A failed proof retries lower frames; only a proved fold is
//! returned, so the result is sound for `k`-step bounded equivalence
//! from the reset states. Targets buried in latch-feeding cones may
//! admit no time-invariant per-frame patch (their steady-state support
//! is target-tainted in the unrolling) — those runs end with a typed
//! fold error rather than an unsound patch.

use std::collections::HashMap;

use eco_aig::{Aig, Lit, Var};
use eco_core::{
    check_equivalence, Budget, EcoEngine, EcoError, EcoInstance, EcoOptions, EcoOutcome, EcoResult,
    VerifyOutcome,
};
use eco_netlist::WeightTable;

use crate::netlist::{SeqError, SeqNetlist};
use crate::unroll::{unroll, unroll_miter};

/// Configuration for a sequential rectification run.
#[derive(Clone, Debug)]
pub struct SeqEcoOptions {
    /// Unroll depth `k` (bounded-equivalence horizon, at least 1).
    pub frames: usize,
    /// Options for the inner combinational engine.
    pub eco: EcoOptions,
}

impl Default for SeqEcoOptions {
    fn default() -> Self {
        SeqEcoOptions {
            frames: 4,
            eco: EcoOptions::default(),
        }
    }
}

/// Error produced by the sequential engine.
#[derive(Debug)]
pub enum SeqEcoError {
    /// A declared target is not a floating input of the faulty design.
    MissingTarget(String),
    /// The inner combinational engine failed.
    Eco(EcoError),
    /// Sequential surgery (unroll / splice) failed.
    Seq(SeqError),
    /// The governed combinational run degraded to a partial result.
    Degraded(String),
    /// No frame of this target's per-frame patches has frame-pure
    /// support, so no time-invariant fold exists at this depth.
    NotFramePure(String),
    /// Every frame-pure fold failed the sequential re-proof.
    FoldFailed {
        /// Fold combinations tried before giving up.
        attempts: usize,
    },
    /// The sequential re-proof exhausted its conflict budget or deadline.
    VerifyUnknown,
}

impl std::fmt::Display for SeqEcoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqEcoError::MissingTarget(t) => {
                write!(
                    f,
                    "target `{t}` is not a floating input of the faulty design"
                )
            }
            SeqEcoError::Eco(e) => write!(f, "{e}"),
            SeqEcoError::Seq(e) => write!(f, "{e}"),
            SeqEcoError::Degraded(r) => write!(f, "governed run degraded: {r}"),
            SeqEcoError::NotFramePure(t) => write!(
                f,
                "target `{t}` has no frame-pure patch at any frame (support spans frames \
                 or reads reset inputs); try a larger unroll depth"
            ),
            SeqEcoError::FoldFailed { attempts } => write!(
                f,
                "no time-invariant fold verified after {attempts} attempt(s); the per-frame \
                 patches are frame-specialized (target likely feeds latch logic)"
            ),
            SeqEcoError::VerifyUnknown => {
                write!(f, "sequential re-proof ran out of budget (result unknown)")
            }
        }
    }
}

impl std::error::Error for SeqEcoError {}

impl From<EcoError> for SeqEcoError {
    fn from(e: EcoError) -> Self {
        SeqEcoError::Eco(e)
    }
}

impl From<SeqError> for SeqEcoError {
    fn from(e: SeqError) -> Self {
        SeqEcoError::Seq(e)
    }
}

/// A proved sequential rectification.
#[derive(Clone, Debug)]
pub struct SeqEcoResult {
    /// The patched sequential design (targets no longer inputs).
    pub patched: SeqNetlist,
    /// The folded sequential patch: inputs name nets of the faulty
    /// design, outputs name targets.
    pub patch_aig: Aig,
    /// Frame each target's patch was folded from.
    pub fold_frames: Vec<(String, usize)>,
    /// Unroll depth the proof covers.
    pub frames: usize,
    /// Total base cost of the folded patch (sum of input-net weights).
    pub cost: u64,
    /// AND-gate count of the folded patch.
    pub size: usize,
    /// The inner combinational result over the unrolled instance.
    pub comb: EcoResult,
}

/// The sequential rectification engine. See the module docs for the
/// unroll → rectify → fold → re-prove pipeline.
pub struct SeqEcoEngine {
    faulty: SeqNetlist,
    golden: SeqNetlist,
    targets: Vec<String>,
    weights: WeightTable,
    options: SeqEcoOptions,
}

impl SeqEcoEngine {
    /// Builds an engine. `faulty` must expose every target as a floating
    /// input (see [`SeqNetlist::cut_nets`]); `golden` is the reference
    /// design with matching primary inputs and output names.
    ///
    /// # Errors
    ///
    /// [`SeqEcoError::MissingTarget`] if a target is not a faulty input;
    /// [`SeqEcoError::Seq`] ([`SeqError::ZeroFrames`]) if `frames == 0`.
    pub fn new(
        faulty: SeqNetlist,
        golden: SeqNetlist,
        targets: Vec<String>,
        weights: WeightTable,
        options: SeqEcoOptions,
    ) -> Result<Self, SeqEcoError> {
        if options.frames == 0 {
            return Err(SeqError::ZeroFrames.into());
        }
        for t in &targets {
            if faulty.aig.find_input(t).is_none() {
                return Err(SeqEcoError::MissingTarget(t.clone()));
            }
        }
        Ok(SeqEcoEngine {
            faulty,
            golden,
            targets,
            weights,
            options,
        })
    }

    /// Runs unroll → combinational rectification → fold-back → sequential
    /// re-proof, with every solver enrolled in one governor built from the
    /// engine's own budget options.
    ///
    /// # Errors
    ///
    /// [`SeqEcoError::Degraded`] when the governor truncated the inner
    /// run; [`SeqEcoError::NotFramePure`] / [`SeqEcoError::FoldFailed`]
    /// when no time-invariant fold exists or verifies;
    /// [`SeqEcoError::VerifyUnknown`] when the re-proof ran out of
    /// budget; [`SeqEcoError::Eco`] / [`SeqEcoError::Seq`] on inner
    /// failures.
    pub fn run(&self) -> Result<SeqEcoResult, SeqEcoError> {
        let budget = &Budget::new(&self.options.eco.budget);
        let k = self.options.frames;
        let uf = unroll(&self.faulty, k)?;
        let ug = unroll(&self.golden, k)?;

        // Flatten per-frame nets into `name@frame` candidates. Constant
        // entries (reset-valued frame-0 latch states) are skipped: a
        // constant base folds to a live net and is never time-invariant,
        // and constant patch functions need no base at all.
        let mut faulty_nets: HashMap<String, Lit> = HashMap::new();
        let mut weights = WeightTable::new(self.weights.default_weight);
        for (f, frame) in uf.nets.iter().enumerate() {
            for (name, &lit) in frame {
                if lit.const_value().is_some() {
                    continue;
                }
                let flat = format!("{name}@{f}");
                // Time-invariance bias: a base from frame `f` costs its
                // real weight scaled by the distance from the last frame,
                // so the optimizer prefers patches whose support sits in
                // one late frame — exactly the patches that fold. The
                // reported cost is recomputed with the real weights.
                let bias = (k - f) as u64;
                weights.set(flat.clone(), self.weights.weight(name).saturating_mul(bias));
                faulty_nets.insert(flat, lit);
            }
        }
        let mut unrolled_targets = Vec::with_capacity(self.targets.len() * k);
        for t in &self.targets {
            for f in 0..k {
                unrolled_targets.push(format!("{t}@{f}"));
            }
        }

        let instance = EcoInstance::from_elaborated(
            format!("{}@x{k}", self.faulty.name),
            uf.aig,
            &faulty_nets,
            ug.aig,
            unrolled_targets,
            &weights,
        )?;
        let engine = EcoEngine::new(instance, self.options.eco.clone());
        let comb = match engine.run_governed(budget)? {
            EcoOutcome::Complete(r) => r,
            EcoOutcome::Partial(p) => return Err(SeqEcoError::Degraded(p.reason)),
        };

        // Per target, the frames whose patch support is frame-pure,
        // highest first. Attempt `a` folds each target from its a-th
        // candidate (clamped), so retries sweep toward frame 0 together.
        let mut candidates: Vec<(String, Vec<usize>)> = Vec::new();
        let mut max_attempts = 0usize;
        for t in &self.targets {
            let mut pure: Vec<usize> = (0..k)
                .rev()
                .filter(|&f| frame_pure_support(&comb.patch_aig, &format!("{t}@{f}"), f).is_some())
                .collect();
            pure.dedup();
            if pure.is_empty() {
                return Err(SeqEcoError::NotFramePure(t.clone()));
            }
            max_attempts = max_attempts.max(pure.len());
            candidates.push((t.clone(), pure));
        }

        let mut attempts = 0usize;
        for a in 0..max_attempts {
            let chosen: Vec<(String, usize)> = candidates
                .iter()
                .map(|(t, pure)| (t.clone(), pure[a.min(pure.len() - 1)]))
                .collect();
            attempts += 1;
            let folded = fold_patch(&comb.patch_aig, &chosen)?;
            let patched = self.faulty.splice(&folded)?;
            let (mut miter, pairs) = unroll_miter(&patched, &self.golden, k)?;
            // No conflict cap: only the governor's deadline stops the
            // re-proof.
            let (outcome, _) = check_equivalence(&mut miter, &pairs, u64::MAX, &budget.ctl());
            match outcome {
                VerifyOutcome::Equivalent => {
                    let cost = (0..folded.num_inputs())
                        .map(|p| self.weights.weight(folded.input_name(p)))
                        .sum();
                    let roots: Vec<Lit> = folded.outputs().iter().map(|o| o.lit).collect();
                    let size = folded.count_cone_ands(&roots);
                    return Ok(SeqEcoResult {
                        patched,
                        patch_aig: folded,
                        fold_frames: chosen,
                        frames: k,
                        cost,
                        size,
                        comb,
                    });
                }
                VerifyOutcome::Counterexample(_) => continue,
                VerifyOutcome::Unknown => return Err(SeqEcoError::VerifyUnknown),
            }
        }
        Err(SeqEcoError::FoldFailed { attempts })
    }
}

/// If every base the patch output `out_name` reads is `base@frame`,
/// returns the support vars; otherwise `None`.
fn frame_pure_support(patch: &Aig, out_name: &str, frame: usize) -> Option<Vec<Var>> {
    let idx = patch.find_output(out_name)?;
    let sup = patch.support(&[patch.output_lit(idx)]);
    let tag = frame.to_string();
    for &v in &sup {
        let name = patch.input_name(patch.input_pos(v)?);
        let (_, f) = name.rsplit_once('@')?;
        if f != tag {
            return None;
        }
    }
    Some(sup)
}

/// Builds the folded sequential patch: each target's chosen per-frame
/// cone is imported with every base input `base@f` renamed to `base`
/// (shared across targets), and outputs renamed `t@f` → `t`.
fn fold_patch(patch: &Aig, chosen: &[(String, usize)]) -> Result<Aig, SeqError> {
    let mut folded = Aig::new();
    let mut in_map: HashMap<Var, Lit> = HashMap::new();
    let mut by_base: HashMap<String, Lit> = HashMap::new();
    let mut roots: Vec<Lit> = Vec::with_capacity(chosen.len());
    for (t, f) in chosen {
        let idx = patch
            .find_output(&format!("{t}@{f}"))
            .ok_or_else(|| SeqError::UnknownNet(format!("{t}@{f}")))?;
        let root = patch.output_lit(idx);
        for v in patch.support(&[root]) {
            let name = patch.input_name(patch.input_pos(v).expect("support var is an input"));
            let base = name.rsplit_once('@').map_or(name, |(b, _)| b).to_owned();
            let lit = *by_base
                .entry(base.clone())
                .or_insert_with(|| folded.add_input(base));
            in_map.insert(v, lit);
        }
        roots.push(root);
    }
    let imported = folded.import(patch, &roots, &in_map)?;
    for ((t, _), &lit) in chosen.iter().zip(&imported) {
        folded.add_output(t.clone(), lit);
    }
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Latch;
    use eco_netlist::LatchInit;

    /// Golden: 2-stage shift register `s0' = d, s1' = s0`, output
    /// `q = s0 & s1` through named net `w`.
    fn golden() -> SeqNetlist {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let s0 = aig.add_input("s0");
        let s1 = aig.add_input("s1");
        let w = aig.and(s0, s1);
        aig.add_output("q", w);
        let net_lits = HashMap::from([
            ("d".to_string(), d),
            ("s0".to_string(), s0),
            ("s1".to_string(), s1),
            ("w".to_string(), w),
        ]);
        SeqNetlist::new(
            "sr2",
            aig,
            vec![
                Latch {
                    state: s0.var(),
                    next: d,
                    init: LatchInit::Zero,
                },
                Latch {
                    state: s1.var(),
                    next: s0,
                    init: LatchInit::Zero,
                },
            ],
            net_lits,
        )
        .expect("valid")
    }

    #[test]
    fn rectifies_output_cone_fault() {
        let g = golden();
        // Fault model: the AND driving q was cut out as target `w`.
        let faulty = g.cut_nets(&["w".to_string()]).expect("cuttable");
        let engine = SeqEcoEngine::new(
            faulty,
            g.clone(),
            vec!["w".to_string()],
            WeightTable::new(1),
            SeqEcoOptions {
                frames: 3,
                eco: EcoOptions::default(),
            },
        )
        .expect("engine");
        let result = engine.run().expect("rectifies");
        assert_eq!(result.frames, 3);
        assert_eq!(result.fold_frames.len(), 1);
        assert_eq!(result.fold_frames[0].0, "w");
        // The patched design matches the golden design cycle-accurately.
        for bits in 0u32..64 {
            let stim: Vec<Vec<bool>> = (0..6).map(|f| vec![bits >> f & 1 == 1]).collect();
            assert_eq!(
                g.simulate(&stim),
                result.patched.simulate(&stim),
                "{bits:#b}"
            );
        }
        // The folded patch reads live nets, not frame copies.
        for p in 0..result.patch_aig.num_inputs() {
            assert!(!result.patch_aig.input_name(p).contains('@'));
        }
    }

    #[test]
    fn rejects_missing_target() {
        let g = golden();
        assert!(matches!(
            SeqEcoEngine::new(
                g.clone(),
                g,
                vec!["ghost".to_string()],
                WeightTable::new(1),
                SeqEcoOptions::default(),
            ),
            Err(SeqEcoError::MissingTarget(_))
        ));
    }

    #[test]
    fn rejects_zero_frames() {
        let g = golden();
        assert!(matches!(
            SeqEcoEngine::new(
                g.clone(),
                g,
                vec![],
                WeightTable::new(1),
                SeqEcoOptions {
                    frames: 0,
                    eco: EcoOptions::default(),
                },
            ),
            Err(SeqEcoError::Seq(SeqError::ZeroFrames))
        ));
    }
}
