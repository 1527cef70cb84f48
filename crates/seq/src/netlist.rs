//! The sequential netlist model.
//!
//! A [`SeqNetlist`] is an [`Aig`] whose latch current states are ordinary
//! inputs, plus [`Latch`] records giving each state's next-state literal
//! and reset value, and a name → literal map for every named net. All
//! sequential structure lives *beside* the AIG, so every combinational
//! algorithm in the workspace (FRAIG, SAT, the ECO engine) applies
//! unchanged to the unrolled form.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use eco_aig::{Aig, Lit, TransformError, Var};
use eco_netlist::LatchInit;

/// A latch: the current state is the input variable `state` of the
/// owning AIG; `next` is the next-state literal in the same AIG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latch {
    /// Current-state variable (an input of the AIG).
    pub state: Var,
    /// Next-state literal.
    pub next: Lit,
    /// Reset value at cycle 0.
    pub init: LatchInit,
}

/// Error produced by sequential-netlist construction and surgery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqError {
    /// A latch's state variable is not an input of the AIG.
    StateNotInput(Var),
    /// Two latches share the same state variable.
    DuplicateState(String),
    /// A named net was requested but does not exist.
    UnknownNet(String),
    /// The net cannot be cut into a rectification target (it is a
    /// primary input, a latch state, or a complemented alias).
    NotCuttable(String),
    /// A patch output does not name a target pseudo-input.
    UnknownTarget(String),
    /// A patch input does not name an existing net.
    UnknownPatchInput(String),
    /// Unrolling requires at least one frame.
    ZeroFrames,
    /// An AIG transform failed (node budget, unmapped cone input).
    Transform(TransformError),
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::StateNotInput(v) => {
                write!(f, "latch state variable {} is not an AIG input", v.index())
            }
            SeqError::DuplicateState(n) => write!(f, "two latches share state `{n}`"),
            SeqError::UnknownNet(n) => write!(f, "no net named `{n}`"),
            SeqError::NotCuttable(n) => write!(
                f,
                "net `{n}` cannot become a target (inputs and latch states have no driver to cut)"
            ),
            SeqError::UnknownTarget(n) => write!(f, "patch output `{n}` is not a target input"),
            SeqError::UnknownPatchInput(n) => write!(f, "patch input `{n}` names no net"),
            SeqError::ZeroFrames => write!(f, "unrolling requires at least 1 frame"),
            SeqError::Transform(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SeqError {}

impl From<TransformError> for SeqError {
    fn from(e: TransformError) -> Self {
        SeqError::Transform(e)
    }
}

/// A latch-bearing design: combinational logic in `aig`, sequential
/// structure in `latches`, and a name for every tappable signal.
#[derive(Clone, Debug)]
pub struct SeqNetlist {
    /// Design name (for reports and emitted models).
    pub name: String,
    /// Combinational logic; latch states are inputs.
    pub aig: Aig,
    /// Latches in declaration order.
    pub latches: Vec<Latch>,
    /// Literal of every named net (inputs, latch states, logic nets).
    pub net_lits: HashMap<String, Lit>,
}

impl SeqNetlist {
    /// Builds and validates a sequential netlist.
    ///
    /// # Errors
    ///
    /// [`SeqError::StateNotInput`] if a latch state is not an AIG input;
    /// [`SeqError::DuplicateState`] if two latches share one.
    pub fn new(
        name: impl Into<String>,
        aig: Aig,
        latches: Vec<Latch>,
        net_lits: HashMap<String, Lit>,
    ) -> Result<Self, SeqError> {
        let mut seen: HashSet<Var> = HashSet::new();
        for l in &latches {
            if !aig.is_input(l.state) {
                return Err(SeqError::StateNotInput(l.state));
            }
            if !seen.insert(l.state) {
                let pos = aig.input_pos(l.state).expect("checked input");
                return Err(SeqError::DuplicateState(aig.input_name(pos).to_owned()));
            }
        }
        Ok(SeqNetlist {
            name: name.into(),
            aig,
            latches,
            net_lits,
        })
    }

    /// Wraps a purely combinational AIG (zero latches).
    pub fn from_comb(name: impl Into<String>, aig: Aig, net_lits: HashMap<String, Lit>) -> Self {
        SeqNetlist {
            name: name.into(),
            aig,
            latches: Vec::new(),
            net_lits,
        }
    }

    /// True when the design has no latches.
    pub fn is_combinational(&self) -> bool {
        self.latches.is_empty()
    }

    /// The latch state variables.
    pub fn state_vars(&self) -> HashSet<Var> {
        self.latches.iter().map(|l| l.state).collect()
    }

    /// Name of latch `k` (the input name of its state variable).
    pub fn latch_name(&self, k: usize) -> &str {
        let pos = self
            .aig
            .input_pos(self.latches[k].state)
            .expect("validated latch state");
        self.aig.input_name(pos)
    }

    /// Primary-input positions: every AIG input position that is not a
    /// latch state, in declaration order.
    pub fn primary_input_positions(&self) -> Vec<usize> {
        let states = self.state_vars();
        (0..self.aig.num_inputs())
            .filter(|&p| !states.contains(&self.aig.input_var(p)))
            .collect()
    }

    /// Cycle-accurate simulation: `stimulus[f]` holds the primary-input
    /// values of frame `f` (in [`Self::primary_input_positions`] order);
    /// returns the output values of every frame. [`LatchInit::DontCare`]
    /// latches start at 0.
    pub fn simulate(&self, stimulus: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let pi_pos = self.primary_input_positions();
        let mut state: Vec<bool> = self
            .latches
            .iter()
            .map(|l| matches!(l.init, LatchInit::One))
            .collect();
        let mut frames = Vec::with_capacity(stimulus.len());
        for frame in stimulus {
            let mut vals = vec![false; self.aig.num_inputs()];
            for (&p, &v) in pi_pos.iter().zip(frame) {
                vals[p] = v;
            }
            for (l, &s) in self.latches.iter().zip(&state) {
                let p = self.aig.input_pos(l.state).expect("validated latch state");
                vals[p] = s;
            }
            frames.push(self.aig.eval(&vals));
            state = self
                .latches
                .iter()
                .map(|l| self.aig.eval_lit(l.next, &vals))
                .collect();
        }
        frames
    }

    /// Root literals that define the design, in a fixed order: outputs,
    /// latch next-states, then named nets sorted by name. Substituting or
    /// importing this list (plus [`Self::rebuild_from_roots`]) preserves
    /// the whole design.
    pub(crate) fn roots(&self) -> (Vec<Lit>, Vec<String>) {
        let mut names: Vec<String> = self.net_lits.keys().cloned().collect();
        names.sort();
        let mut roots: Vec<Lit> = self.aig.outputs().iter().map(|o| o.lit).collect();
        roots.extend(self.latches.iter().map(|l| l.next));
        roots.extend(names.iter().map(|n| self.net_lits[n]));
        (roots, names)
    }

    /// Rebuilds outputs/latches/net_lits from a substituted root list
    /// (same order as [`Self::roots`]) over the mutated manager `aig`.
    fn rebuild_from_roots(&self, mut aig: Aig, new_roots: &[Lit], names: &[String]) -> SeqNetlist {
        let n_out = self.aig.num_outputs();
        let n_latch = self.latches.len();
        let out_meta: Vec<String> = self.aig.outputs().iter().map(|o| o.name.clone()).collect();
        aig.clear_outputs();
        for (name, &lit) in out_meta.iter().zip(&new_roots[..n_out]) {
            aig.add_output(name.clone(), lit);
        }
        let latches: Vec<Latch> = self
            .latches
            .iter()
            .zip(&new_roots[n_out..n_out + n_latch])
            .map(|(l, &next)| Latch {
                state: l.state,
                next,
                init: l.init,
            })
            .collect();
        let net_lits: HashMap<String, Lit> = names
            .iter()
            .cloned()
            .zip(new_roots[n_out + n_latch..].iter().copied())
            .collect();
        SeqNetlist {
            name: self.name.clone(),
            aig,
            latches,
            net_lits,
        }
    }

    /// Cuts the named nets into floating target pseudo-inputs: each
    /// target's driver is disconnected and a fresh input with the
    /// target's name takes its place everywhere (fanout, latch
    /// next-states, outputs). This is the sequential analogue of the
    /// contest fault model.
    ///
    /// # Errors
    ///
    /// [`SeqError::UnknownNet`] if a target names no net;
    /// [`SeqError::NotCuttable`] if it names an input, a latch state, or
    /// a complemented alias of another net.
    pub fn cut_nets(&self, targets: &[String]) -> Result<SeqNetlist, SeqError> {
        let mut work = self.aig.clone();
        let mut map: HashMap<Var, Lit> = HashMap::new();
        for t in targets {
            let &lit = self
                .net_lits
                .get(t.as_str())
                .ok_or_else(|| SeqError::UnknownNet(t.clone()))?;
            if !work.is_and(lit.var()) {
                return Err(SeqError::NotCuttable(t.clone()));
            }
            // A complemented net still cuts cleanly: substituting
            // `var → ¬t` makes the named net itself equal `t`.
            let fresh = work.add_input(t.clone());
            if map
                .insert(lit.var(), fresh.xor_complement(lit.is_complement()))
                .is_some()
            {
                return Err(SeqError::NotCuttable(t.clone()));
            }
        }
        let (roots, names) = self.roots();
        let new_roots = work.substitute(&roots, &map);
        Ok(self.rebuild_from_roots(work, &new_roots, &names))
    }

    /// Splices a patch into the design: every patch output must name a
    /// floating target input, every patch input an existing (non-target)
    /// net. The targets stop being inputs — the rebuilt AIG contains
    /// only the surviving primary inputs and latch states, with target
    /// nets driven by the patch logic.
    ///
    /// # Errors
    ///
    /// [`SeqError::UnknownTarget`] / [`SeqError::UnknownPatchInput`] on
    /// name-resolution failures, [`SeqError::Transform`] if the splice
    /// overflows the node budget.
    pub fn splice(&self, patch: &Aig) -> Result<SeqNetlist, SeqError> {
        let targets: HashSet<&str> = patch.outputs().iter().map(|o| o.name.as_str()).collect();
        let mut work = self.aig.clone();
        // Patch inputs resolve against named nets (targets excluded).
        let mut input_map: HashMap<Var, Lit> = HashMap::new();
        for pos in 0..patch.num_inputs() {
            let n = patch.input_name(pos);
            if targets.contains(n) {
                return Err(SeqError::UnknownPatchInput(n.to_owned()));
            }
            let &lit = self
                .net_lits
                .get(n)
                .ok_or_else(|| SeqError::UnknownPatchInput(n.to_owned()))?;
            input_map.insert(patch.input_var(pos), lit);
        }
        let patch_roots: Vec<Lit> = patch.outputs().iter().map(|o| o.lit).collect();
        let imported = work.import(patch, &patch_roots, &input_map)?;
        // Drive each target with its patch function.
        let mut map: HashMap<Var, Lit> = HashMap::new();
        let mut target_vars: HashSet<Var> = HashSet::new();
        for (out, &lit) in patch.outputs().iter().zip(&imported) {
            let v = self
                .aig
                .find_input(&out.name)
                .ok_or_else(|| SeqError::UnknownTarget(out.name.clone()))?;
            map.insert(v, lit);
            target_vars.insert(v);
        }
        let (roots, names) = self.roots();
        let new_roots = work.substitute(&roots, &map);
        let spliced = self.rebuild_from_roots(work, &new_roots, &names);

        // Re-import into a fresh manager without the target inputs, so
        // the patched design no longer lists them as primary inputs.
        let mut clean = Aig::new();
        let mut fresh_inputs: HashMap<Var, Lit> = HashMap::new();
        for pos in 0..spliced.aig.num_inputs() {
            let v = spliced.aig.input_var(pos);
            if target_vars.contains(&v) {
                continue;
            }
            let lit = clean.add_input(spliced.aig.input_name(pos).to_owned());
            fresh_inputs.insert(v, lit);
        }
        let (roots2, names2) = spliced.roots();
        let moved = clean.import(&spliced.aig, &roots2, &fresh_inputs)?;
        let mut rebuilt = spliced.rebuild_from_roots(clean, &moved, &names2);
        // Latch state vars moved with the import.
        for l in &mut rebuilt.latches {
            l.state = fresh_inputs[&l.state].var();
        }
        rebuilt.name = self.name.clone();
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// d-input shift register with an AND tap: q = s0 & s1, s0' = d^s1,
    /// s1' = s0. Net `w` names the feedback XOR.
    fn sample() -> SeqNetlist {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let s0 = aig.add_input("s0");
        let s1 = aig.add_input("s1");
        let w = aig.xor(d, s1);
        let q = aig.and(s0, s1);
        aig.add_output("q", q);
        let net_lits = HashMap::from([
            ("d".to_string(), d),
            ("s0".to_string(), s0),
            ("s1".to_string(), s1),
            ("w".to_string(), w),
            ("q".to_string(), q),
        ]);
        SeqNetlist::new(
            "sr",
            aig,
            vec![
                Latch {
                    state: s0.var(),
                    next: w,
                    init: LatchInit::Zero,
                },
                Latch {
                    state: s1.var(),
                    next: s0,
                    init: LatchInit::One,
                },
            ],
            net_lits,
        )
        .expect("valid")
    }

    #[test]
    fn validation_rejects_bad_latches() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.and(a, !a);
        let l = Latch {
            state: b.var(),
            next: a,
            init: LatchInit::Zero,
        };
        assert!(matches!(
            SeqNetlist::new("x", aig.clone(), vec![l], HashMap::new()),
            Err(SeqError::StateNotInput(_))
        ));
        let l2 = Latch {
            state: a.var(),
            next: a,
            init: LatchInit::Zero,
        };
        assert!(matches!(
            SeqNetlist::new("x", aig, vec![l2, l2], HashMap::new()),
            Err(SeqError::DuplicateState(_))
        ));
    }

    #[test]
    fn simulation_steps_latches() {
        let sr = sample();
        // init: s0=0, s1=1. Frame 0: q = 0&1 = 0; s0'=d^1, s1'=0.
        // d = 1,0,0: states (0,1) → (0,0) → (1? d=0^0=0 ... )
        let out = sr.simulate(&[vec![true], vec![false], vec![false]]);
        // f0: q = 0&1 = 0; next (1^? d=1, s1=1 → 0, s0=0)
        //   s0' = 1^1 = 0, s1' = 0.
        // f1: s=(0,0) q=0; s0' = 0^0 = 0, s1' = 0.
        // f2: q=0.
        assert_eq!(out, vec![vec![false], vec![false], vec![false]]);
        // With d starting 0 and init (0,1): s0'=0^1=1 → f1 s=(1,0), q=0;
        // f1: s0'=d(1)^0=1, s1'=1 → f2 s=(1,1), q=1.
        let out = sr.simulate(&[vec![false], vec![true], vec![false]]);
        assert_eq!(out[2], vec![true]);
    }

    #[test]
    fn cut_and_splice_are_inverse() {
        let sr = sample();
        let faulty = sr.cut_nets(&["w".to_string()]).expect("cuttable");
        // `w` is now a floating input feeding latch s0.
        assert!(faulty.aig.find_input("w").is_some());
        assert_eq!(faulty.latches.len(), 2);

        // Patch that restores w = d ^ s1.
        let mut patch = Aig::new();
        let d = patch.add_input("d");
        let s1 = patch.add_input("s1");
        let w = patch.xor(d, s1);
        patch.add_output("w", w);
        let healed = faulty.splice(&patch).expect("splices");
        assert!(healed.aig.find_input("w").is_none());
        // Behaviour matches the original on a stimulus sweep.
        for bits in 0u32..32 {
            let stim: Vec<Vec<bool>> = (0..5).map(|f| vec![bits >> f & 1 == 1]).collect();
            assert_eq!(sr.simulate(&stim), healed.simulate(&stim), "{bits:#b}");
        }
    }

    #[test]
    fn cut_rejects_inputs_and_unknown_nets() {
        let sr = sample();
        assert!(matches!(
            sr.cut_nets(&["d".to_string()]),
            Err(SeqError::NotCuttable(_))
        ));
        assert!(matches!(
            sr.cut_nets(&["s0".to_string()]),
            Err(SeqError::NotCuttable(_))
        ));
        assert!(matches!(
            sr.cut_nets(&["ghost".to_string()]),
            Err(SeqError::UnknownNet(_))
        ));
    }

    #[test]
    fn splice_rejects_bad_names() {
        let sr = sample();
        let faulty = sr.cut_nets(&["w".to_string()]).expect("cuttable");
        let mut patch = Aig::new();
        let x = patch.add_input("nope");
        patch.add_output("w", x);
        assert!(matches!(
            faulty.splice(&patch),
            Err(SeqError::UnknownPatchInput(_))
        ));
        let mut patch2 = Aig::new();
        let d = patch2.add_input("d");
        patch2.add_output("ghost", d);
        assert!(matches!(
            faulty.splice(&patch2),
            Err(SeqError::UnknownTarget(_))
        ));
    }
}
