//! Structural transformations: cofactoring, substitution, cross-AIG import,
//! cone extraction against a cut, and compaction.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{Aig, Lit, Node, Var};

/// Error produced by cone-walking transforms when the provided mapping or
/// cut does not cover every leaf the cone reaches.
///
/// These used to be panics; they are typed so pipelines fed untrusted or
/// generated circuits (the fuzzer, CLI assembly) can surface them as
/// ordinary errors instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// [`Aig::import`]/[`Aig::import_map`] reached a cone input of the
    /// source AIG that has no entry in `input_map`. Carries the input
    /// name (or a `Var` debug rendering for unnamed variables).
    UnmappedInput(String),
    /// [`Aig::extract_cone`] reached a cone leaf (input) that is not
    /// listed in the cut. Carries the input name.
    InputNotInCut(String),
    /// [`Aig::extract_cone`] was called with `cut.len() != cut_names.len()`.
    CutArityMismatch {
        /// Number of cut variables.
        cut: usize,
        /// Number of cut names.
        names: usize,
    },
    /// A node-creating builder ran out of index space: the AIG is capped
    /// at 2^31 - 1 nodes so packed fanin words stay clear of the SoA
    /// sentinel range. Raised by [`Aig::try_and`] and the `Result`-returning
    /// transforms instead of silently wrapping the index.
    TooManyNodes,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::UnmappedInput(n) => {
                write!(f, "import: cone input `{n}` has no mapping")
            }
            TransformError::InputNotInCut(n) => {
                write!(f, "extract_cone: input `{n}` not in cut")
            }
            TransformError::CutArityMismatch { cut, names } => {
                write!(f, "extract_cone: {cut} cut vars but {names} names")
            }
            TransformError::TooManyNodes => {
                write!(f, "AIG node limit exceeded (2^31 - 1 nodes)")
            }
        }
    }
}

impl Error for TransformError {}

/// `lit` through a dense per-node translation.
#[inline]
fn translate_lit(lits: &[Lit], lit: Lit) -> Lit {
    lits[lit.var().index() as usize].xor_complement(lit.is_complement())
}

/// `roots` through a dense per-node translation.
fn translate(lits: &[Lit], roots: &[Lit]) -> Vec<Lit> {
    roots.iter().map(|&r| translate_lit(lits, r)).collect()
}

impl Aig {
    /// Rebuilds the cones of `roots` with each variable in `map` replaced by
    /// the given literal, returning the new root literals.
    ///
    /// The mapped variables may be inputs *or* internal nodes: the cone is
    /// rewritten bottom-up and the replacement literal is used wherever a
    /// mapped variable occurs. New nodes are created in `self` (structural
    /// hashing keeps sharing). Replacement literals must not transitively
    /// depend on the mapped variables themselves (no cyclic substitution).
    pub fn substitute(&mut self, roots: &[Lit], map: &HashMap<Var, Lit>) -> Vec<Lit> {
        let mut cache: HashMap<Var, Lit> = map.clone();
        cache.insert(Var::CONST, Lit::FALSE);
        let cone = self.cone_vars_to_cut(roots, &map.keys().copied().collect());
        for v in cone {
            if cache.contains_key(&v) {
                continue;
            }
            let new_lit = match self.node(v) {
                Node::Constant => Lit::FALSE,
                Node::Input { .. } => v.pos(),
                Node::And { fan0, fan1 } => {
                    let n0 = cache
                        .get(&fan0.var())
                        .map_or(fan0, |l| l.xor_complement(fan0.is_complement()));
                    let n1 = cache
                        .get(&fan1.var())
                        .map_or(fan1, |l| l.xor_complement(fan1.is_complement()));
                    self.and(n0, n1)
                }
            };
            cache.insert(v, new_lit);
        }
        roots
            .iter()
            .map(|&r| {
                cache
                    .get(&r.var())
                    .map_or(r, |l| l.xor_complement(r.is_complement()))
            })
            .collect()
    }

    /// Returns the cofactor of each root with variable `var` fixed to
    /// `value`.
    pub fn cofactor(&mut self, roots: &[Lit], var: Var, value: bool) -> Vec<Lit> {
        let mut map = HashMap::new();
        map.insert(var, if value { Lit::TRUE } else { Lit::FALSE });
        self.substitute(roots, &map)
    }

    /// Copies the cones of `roots` from `other` into `self`.
    ///
    /// `input_map` gives, for every input position of `other` that occurs in
    /// the cones, the literal in `self` it maps to. Returns the imported
    /// root literals, or [`TransformError::UnmappedInput`] if a cone input
    /// of `other` has no entry in `input_map`.
    pub fn import(
        &mut self,
        other: &Aig,
        roots: &[Lit],
        input_map: &HashMap<Var, Lit>,
    ) -> Result<Vec<Lit>, TransformError> {
        let (_, lits) = self.import_cone(other, roots, input_map)?;
        Ok(translate(&lits, roots))
    }

    /// Like [`Aig::import`], but also returns the full translation map
    /// from every cone variable of `other` to its literal in `self`, so
    /// callers can relocate auxiliary per-node data (e.g. cut node maps)
    /// alongside the imported logic.
    ///
    /// Errors with [`TransformError::UnmappedInput`] if a cone input of
    /// `other` has no entry in `input_map`. The destination may already
    /// contain some imported nodes when an error is returned; they are
    /// dangling and harmless (a later [`Aig::compact`] drops them).
    pub fn import_map(
        &mut self,
        other: &Aig,
        roots: &[Lit],
        input_map: &HashMap<Var, Lit>,
    ) -> Result<(Vec<Lit>, HashMap<Var, Lit>), TransformError> {
        let (cone, lits) = self.import_cone(other, roots, input_map)?;
        let mut cache: HashMap<Var, Lit> = HashMap::with_capacity(cone.len() + 1);
        cache.insert(Var::CONST, Lit::FALSE);
        cache.extend(cone.iter().map(|&v| (v, lits[v.index() as usize])));
        Ok((translate(&lits, roots), cache))
    }

    /// Copies the cones of `roots` from `other` in `other`'s index order.
    /// Returns the cone and the translation of its variables, indexed by
    /// `other`'s node index (entries outside the cone are unused).
    fn import_cone(
        &mut self,
        other: &Aig,
        roots: &[Lit],
        input_map: &HashMap<Var, Lit>,
    ) -> Result<(Vec<Var>, Vec<Lit>), TransformError> {
        let cone = other.cone_vars(roots);
        let mut lits = vec![Lit::FALSE; other.len()];
        for &v in &cone {
            lits[v.index() as usize] = match other.node(v) {
                Node::Constant => Lit::FALSE,
                Node::Input { pos } => *input_map.get(&v).ok_or_else(|| {
                    TransformError::UnmappedInput(other.input_name(pos as usize).to_owned())
                })?,
                Node::And { fan0, fan1 } => {
                    let n0 = translate_lit(&lits, fan0);
                    let n1 = translate_lit(&lits, fan1);
                    self.try_and(n0, n1)?
                }
            };
        }
        Ok((cone, lits))
    }

    /// Extracts the cones of `roots` into a fresh AIG whose inputs are the
    /// `cut` variables (in the given order, named by `cut_names`).
    ///
    /// Traversal stops at cut variables; any non-cut input reached must also
    /// be listed in `cut`, otherwise [`TransformError::InputNotInCut`] is
    /// returned ([`TransformError::CutArityMismatch`] if `cut.len() !=
    /// cut_names.len()`). Returns the new AIG and the root literals within
    /// it.
    pub fn extract_cone(
        &self,
        roots: &[Lit],
        cut: &[Var],
        cut_names: &[String],
    ) -> Result<(Aig, Vec<Lit>), TransformError> {
        if cut.len() != cut_names.len() {
            return Err(TransformError::CutArityMismatch {
                cut: cut.len(),
                names: cut_names.len(),
            });
        }
        let mut new = Aig::new();
        let mut cache: HashMap<Var, Lit> = HashMap::new();
        cache.insert(Var::CONST, Lit::FALSE);
        for (v, name) in cut.iter().zip(cut_names) {
            let lit = new.add_input(name.clone());
            cache.insert(*v, lit);
        }
        let cut_set = cut.iter().copied().collect();
        for v in self.cone_vars_to_cut(roots, &cut_set) {
            if cache.contains_key(&v) {
                continue;
            }
            let new_lit = match self.node(v) {
                Node::Constant => Lit::FALSE,
                Node::Input { pos } => {
                    return Err(TransformError::InputNotInCut(
                        self.input_name(pos as usize).to_owned(),
                    ))
                }
                Node::And { fan0, fan1 } => {
                    let n0 = cache[&fan0.var()].xor_complement(fan0.is_complement());
                    let n1 = cache[&fan1.var()].xor_complement(fan1.is_complement());
                    new.try_and(n0, n1)?
                }
            };
            cache.insert(v, new_lit);
        }
        let new_roots = roots
            .iter()
            .map(|&r| cache[&r.var()].xor_complement(r.is_complement()))
            .collect();
        Ok((new, new_roots))
    }

    /// Returns a compacted copy containing only the logic reachable from the
    /// outputs, with all inputs retained (so input positions are stable).
    pub fn compact(&self) -> Aig {
        let mut new = Aig::new();
        let mut cache: HashMap<Var, Lit> = HashMap::new();
        cache.insert(Var::CONST, Lit::FALSE);
        for (pos, &v) in self.inputs().iter().enumerate() {
            let lit = new.add_input(self.input_name(pos).to_owned());
            cache.insert(v, lit);
        }
        let roots: Vec<Lit> = self.outputs().iter().map(|o| o.lit).collect();
        for v in self.cone_vars(&roots) {
            if cache.contains_key(&v) {
                continue;
            }
            if let Node::And { fan0, fan1 } = self.node(v) {
                let n0 = cache[&fan0.var()].xor_complement(fan0.is_complement());
                let n1 = cache[&fan1.var()].xor_complement(fan1.is_complement());
                let lit = new.and(n0, n1);
                cache.insert(v, lit);
            }
        }
        for out in self.outputs() {
            let lit = cache[&out.lit.var()].xor_complement(out.lit.is_complement());
            new.add_output(out.name.clone(), lit);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cofactor_shannon_expansion() {
        // f = a ? b : c; f|a=1 = b, f|a=0 = c.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.mux(a, b, c);
        let f1 = aig.cofactor(&[f], a.var(), true)[0];
        let f0 = aig.cofactor(&[f], a.var(), false)[0];
        assert_eq!(f1, b);
        assert_eq!(f0, c);
    }

    #[test]
    fn substitute_internal_node() {
        // f = (a&b) | c. Replace the internal node (a&b) with input d.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let f = aig.or(ab, c);
        let d = aig.add_input("d");
        let mut map = HashMap::new();
        map.insert(ab.var(), d);
        let f2 = aig.substitute(&[f], &map)[0];
        aig.add_output("f2", f2);
        // f2 = d | c for all assignments.
        for pat in 0u32..16 {
            let bits: Vec<bool> = (0..4).map(|i| pat >> i & 1 == 1).collect();
            let expect = bits[3] || bits[2];
            assert_eq!(aig.eval(&bits)[0], expect);
        }
    }

    #[test]
    fn substitute_complemented_use() {
        // f = !t & a; replace t with (a ^ b): f2 = !(a ^ b) & a = a & b.
        let mut aig = Aig::new();
        let t = aig.add_input("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(!t, a);
        let rep = aig.xor(a, b);
        let mut map = HashMap::new();
        map.insert(t.var(), rep);
        let f2 = aig.substitute(&[f], &map)[0];
        aig.add_output("f2", f2);
        for pat in 0u32..8 {
            let bits: Vec<bool> = (0..3).map(|i| pat >> i & 1 == 1).collect();
            let expect = bits[1] && bits[2];
            assert_eq!(aig.eval(&bits)[0], expect, "pattern {bits:?}");
        }
    }

    #[test]
    fn import_across_aigs() {
        let mut src = Aig::new();
        let x = src.add_input("x");
        let y = src.add_input("y");
        let g = src.xor(x, y);

        let mut dst = Aig::new();
        let p = dst.add_input("p");
        let q = dst.add_input("q");
        let pq = dst.and(p, q);
        let mut map = HashMap::new();
        map.insert(x.var(), pq);
        map.insert(y.var(), !p);
        let g2 = dst.import(&src, &[g], &map).expect("inputs mapped")[0];
        dst.add_output("g2", g2);
        for pat in 0u32..4 {
            let bits: Vec<bool> = (0..2).map(|i| pat >> i & 1 == 1).collect();
            let expect = (bits[0] && bits[1]) ^ !bits[0];
            assert_eq!(dst.eval(&bits)[0], expect);
        }
    }

    #[test]
    fn extract_cone_over_cut() {
        // h = (a&b) ^ c; cut at m = a&b and c.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let m = aig.and(a, b);
        let h = aig.xor(m, c);
        let (sub, roots) = aig
            .extract_cone(&[h], &[m.var(), c.var()], &["m".into(), "c".into()])
            .expect("cut covers cone");
        assert_eq!(sub.num_inputs(), 2);
        let mut sub = sub;
        sub.add_output("h", roots[0]);
        for pat in 0u32..4 {
            let bits: Vec<bool> = (0..2).map(|i| pat >> i & 1 == 1).collect();
            assert_eq!(sub.eval(&bits)[0], bits[0] ^ bits[1]);
        }
    }

    #[test]
    fn extract_cone_missing_cut_is_typed_error() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        let err = aig
            .extract_cone(&[f], &[a.var()], &["a".into()])
            .expect_err("b is outside the cut");
        assert_eq!(err, TransformError::InputNotInCut("b".into()));
        assert!(err.to_string().contains("not in cut"));
    }

    #[test]
    fn extract_cone_arity_mismatch_is_typed_error() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        let err = aig
            .extract_cone(&[f], &[a.var(), b.var()], &["a".into()])
            .expect_err("one name for two cut vars");
        assert_eq!(err, TransformError::CutArityMismatch { cut: 2, names: 1 });
    }

    #[test]
    fn import_unmapped_input_is_typed_error() {
        let mut src = Aig::new();
        let x = src.add_input("x");
        let y = src.add_input("y");
        let g = src.xor(x, y);

        let mut dst = Aig::new();
        let p = dst.add_input("p");
        let mut map = HashMap::new();
        map.insert(x.var(), p);
        let err = dst.import(&src, &[g], &map).expect_err("y is not mapped");
        assert_eq!(err, TransformError::UnmappedInput("y".into()));
        assert!(err.to_string().contains("no mapping"));
    }

    #[test]
    fn compact_drops_dangling_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let keep = aig.and(a, b);
        let _dangling = aig.xor(a, b);
        aig.add_output("keep", keep);
        let compacted = aig.compact();
        assert_eq!(compacted.num_ands(), 1);
        assert_eq!(compacted.num_inputs(), 2);
        assert_eq!(compacted.eval(&[true, true]), vec![true]);
        assert_eq!(compacted.eval(&[true, false]), vec![false]);
    }
}
