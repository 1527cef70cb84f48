//! Deterministic k-frame unrolling.
//!
//! [`unroll`] expands a latch-bearing [`SeqNetlist`] into a purely
//! combinational [`Aig`] spanning `k` time frames. Frame-`f` copies of a
//! primary input or output `x` are named `x@f`; a latch with a
//! [`LatchInit::DontCare`] reset becomes a free input `state@init` shared
//! by every evaluation, so bounded equivalence over the unrolling
//! quantifies universally over unknown reset states. The per-frame named
//! -net maps are kept so the ECO engine can address any internal net of
//! any frame and later fold a per-frame patch back onto the sequential
//! design.
//!
//! Emission order is fixed — init inputs in latch order, then per frame:
//! primary inputs in declaration order, one [`Aig::import`] of the design
//! cone, outputs in declaration order — so the unrolled AIG is
//! byte-identical across runs and thread counts.

use std::collections::HashMap;

use eco_aig::{Aig, LatchInit, Lit};

use crate::netlist::{SeqError, SeqNetlist};

/// A `k`-frame combinational expansion of a sequential design.
#[derive(Clone, Debug)]
pub struct Unrolled {
    /// The unrolled combinational logic. Inputs are `x@f` per primary
    /// input and `s@init` per don't-care latch; outputs are `o@f`.
    pub aig: Aig,
    /// Number of frames (at least 1).
    pub frames: usize,
    /// `nets[f]` maps every named net of the source design to its
    /// frame-`f` literal in [`Unrolled::aig`] (latch states included).
    pub nets: Vec<HashMap<String, Lit>>,
}

/// Unrolls `design` over `frames` time frames.
///
/// # Errors
///
/// [`SeqError::ZeroFrames`] when `frames == 0`;
/// [`SeqError::Transform`] if the expansion overflows the node budget.
pub fn unroll(design: &SeqNetlist, frames: usize) -> Result<Unrolled, SeqError> {
    if frames == 0 {
        return Err(SeqError::ZeroFrames);
    }
    let mut mgr = Aig::new();
    // Frame-0 state values; don't-care resets become free inputs.
    let mut state: Vec<Lit> = Vec::with_capacity(design.latches.len());
    for (k, l) in design.latches.iter().enumerate() {
        state.push(match l.init {
            LatchInit::Zero => Lit::FALSE,
            LatchInit::One => Lit::TRUE,
            LatchInit::DontCare => mgr.add_input(format!("{}@init", design.latch_name(k))),
        });
    }
    let pi_pos = design.primary_input_positions();
    let (roots, names) = design.roots();
    let n_out = design.aig.num_outputs();
    let n_latch = design.latches.len();
    let mut nets = Vec::with_capacity(frames);
    for f in 0..frames {
        let mut input_map: HashMap<eco_aig::Var, Lit> = HashMap::new();
        for &p in &pi_pos {
            let lit = mgr.add_input(format!("{}@{f}", design.aig.input_name(p)));
            input_map.insert(design.aig.input_var(p), lit);
        }
        for (l, &s) in design.latches.iter().zip(&state) {
            input_map.insert(l.state, s);
        }
        let imported = mgr.import(&design.aig, &roots, &input_map)?;
        for (out, &lit) in design.aig.outputs().iter().zip(&imported[..n_out]) {
            mgr.add_output(format!("{}@{f}", out.name), lit);
        }
        state = imported[n_out..n_out + n_latch].to_vec();
        let frame_nets: HashMap<String, Lit> = names
            .iter()
            .cloned()
            .zip(imported[n_out + n_latch..].iter().copied())
            .collect();
        nets.push(frame_nets);
    }
    Ok(Unrolled {
        aig: mgr,
        frames,
        nets,
    })
}

/// Unrolls two designs over the same `frames` into one manager with
/// shared inputs (matched by name) and returns the output pairs to
/// prove equal, in `(a, b)` declaration order of `a`'s outputs.
///
/// Inputs present in only one design stay free; both designs must expose
/// the same output names.
///
/// # Errors
///
/// [`SeqError::ZeroFrames`] / [`SeqError::Transform`] as for [`unroll`];
/// [`SeqError::UnknownNet`] if an output of `a` has no counterpart in
/// `b`.
pub fn unroll_miter(
    a: &SeqNetlist,
    b: &SeqNetlist,
    frames: usize,
) -> Result<(Aig, Vec<(Lit, Lit)>), SeqError> {
    let ua = unroll(a, frames)?;
    let ub = unroll(b, frames)?;
    let mut mgr = Aig::new();
    let mut by_name: HashMap<String, Lit> = HashMap::new();
    let mut map_a: HashMap<eco_aig::Var, Lit> = HashMap::new();
    let mut map_b: HashMap<eco_aig::Var, Lit> = HashMap::new();
    for (u, map) in [(&ua, &mut map_a), (&ub, &mut map_b)] {
        for pos in 0..u.aig.num_inputs() {
            let name = u.aig.input_name(pos);
            let lit = *by_name
                .entry(name.to_owned())
                .or_insert_with(|| mgr.add_input(name.to_owned()));
            map.insert(u.aig.input_var(pos), lit);
        }
    }
    let roots_a: Vec<Lit> = ua.aig.outputs().iter().map(|o| o.lit).collect();
    let roots_b: Vec<Lit> = ub.aig.outputs().iter().map(|o| o.lit).collect();
    let lits_a = mgr.import(&ua.aig, &roots_a, &map_a)?;
    let lits_b = mgr.import(&ub.aig, &roots_b, &map_b)?;
    let mut pairs = Vec::with_capacity(lits_a.len());
    for (out, &la) in ua.aig.outputs().iter().zip(&lits_a) {
        let idx = ub
            .aig
            .find_output(&out.name)
            .ok_or_else(|| SeqError::UnknownNet(out.name.clone()))?;
        pairs.push((la, lits_b[idx]));
    }
    Ok((mgr, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_aig::{write_aiger_ascii, Latch};

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

    /// Evaluates an unrolled AIG against named frame inputs.
    fn eval_unrolled(u: &Unrolled, stim: &[Vec<(&str, bool)>]) -> Vec<Vec<bool>> {
        let mut vals = vec![false; u.aig.num_inputs()];
        for (f, frame) in stim.iter().enumerate() {
            for (name, v) in frame {
                let var = u
                    .aig
                    .find_input(&format!("{name}@{f}"))
                    .expect("frame input");
                vals[u.aig.input_pos(var).expect("input")] = *v;
            }
        }
        let flat = u.aig.eval(&vals);
        (0..u.frames)
            .map(|f| {
                u.aig
                    .outputs()
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.name.ends_with(&format!("@{f}")))
                    .map(|(i, _)| flat[i])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn unrolled_matches_simulation() {
        let sr = sample();
        let u = unroll(&sr, 5).expect("unrolls");
        assert_eq!(u.frames, 5);
        assert_eq!(u.aig.num_inputs(), 5); // d@0..d@4, no @init inputs
        assert_eq!(u.aig.num_outputs(), 5);
        for bits in 0u32..32 {
            let seq_stim: Vec<Vec<bool>> = (0..5).map(|f| vec![bits >> f & 1 == 1]).collect();
            let unr_stim: Vec<Vec<(&str, bool)>> =
                (0..5).map(|f| vec![("d", bits >> f & 1 == 1)]).collect();
            assert_eq!(
                sr.simulate(&seq_stim),
                eval_unrolled(&u, &unr_stim),
                "{bits:#b}"
            );
        }
    }

    #[test]
    fn frame_nets_track_internal_signals() {
        let sr = sample();
        let u = unroll(&sr, 3).expect("unrolls");
        assert_eq!(u.nets.len(), 3);
        for f in 0..3 {
            for name in ["d", "s0", "s1", "w", "q"] {
                assert!(u.nets[f].contains_key(name), "missing {name}@{f}");
            }
        }
        // Frame-0 latch states are the reset constants.
        assert_eq!(u.nets[0]["s0"], Lit::FALSE);
        assert_eq!(u.nets[0]["s1"], Lit::TRUE);
        // Frame-1 s1 equals frame-0 s0's next, i.e. frame-0 w.
        assert_eq!(u.nets[1]["s0"], u.nets[0]["w"]);
    }

    #[test]
    fn dontcare_init_becomes_free_input() {
        let mut sr = sample();
        sr.latches[1].init = LatchInit::DontCare;
        let u = unroll(&sr, 2).expect("unrolls");
        assert!(u.aig.find_input("s1@init").is_some());
        assert_eq!(u.nets[0]["s1"].var(), u.aig.find_input("s1@init").unwrap());
    }

    #[test]
    fn unrolling_is_deterministic() {
        let sr = sample();
        let a = write_aiger_ascii(&unroll(&sr, 4).expect("unrolls").aig, &[]);
        let b = write_aiger_ascii(&unroll(&sr, 4).expect("unrolls").aig, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_frames_is_rejected() {
        assert!(matches!(unroll(&sample(), 0), Err(SeqError::ZeroFrames)));
    }

    #[test]
    fn miter_of_design_with_itself_pairs_outputs() {
        let sr = sample();
        let (mgr, pairs) = unroll_miter(&sr, &sr, 3).expect("miter");
        assert_eq!(pairs.len(), 3);
        // Structurally hashed: identical designs share every node.
        for (a, b) in pairs {
            assert_eq!(a, b);
        }
        assert_eq!(mgr.num_inputs(), 3);
    }
}
