//! Cone extraction, support computation, levels, and fanout analysis.

use std::collections::HashSet;

use crate::{Aig, Lit, Var};

/// Depth-first cone walk over the SoA fanin columns.
///
/// Uses a dense `Vec<bool>` marker instead of a `HashSet`: at scale the
/// marker costs one byte per node with no hashing, and the visited list is
/// sorted at the end to recover the same topological (index) order the
/// set-based walk produced. `descend(v)` gates whether the walk continues
/// through `v`'s fanins (cut handling).
fn walk_cone(aig: &Aig, roots: &[Lit], mut descend: impl FnMut(Var) -> bool) -> Vec<Var> {
    let mut seen = vec![false; aig.len()];
    let mut visited: Vec<Var> = Vec::new();
    let mut stack: Vec<Var> = roots.iter().map(|l| l.var()).collect();
    while let Some(v) = stack.pop() {
        let mark = &mut seen[v.index() as usize];
        if *mark {
            continue;
        }
        *mark = true;
        visited.push(v);
        if !descend(v) {
            continue;
        }
        if let Some((fan0, fan1)) = aig.and_fanins(v) {
            stack.push(fan0.var());
            stack.push(fan1.var());
        }
    }
    visited.sort_unstable();
    visited
}

impl Aig {
    /// Returns all variables in the transitive fanin cone of `roots`
    /// (inputs and the constant included), in topological (index) order.
    pub fn cone_vars(&self, roots: &[Lit]) -> Vec<Var> {
        walk_cone(self, roots, |_| true)
    }

    /// Returns the structural support (input variables) of `roots`,
    /// in input-position order.
    pub fn support(&self, roots: &[Lit]) -> Vec<Var> {
        let mut sup: Vec<Var> = self
            .cone_vars(roots)
            .into_iter()
            .filter(|&v| self.is_input(v))
            .collect();
        sup.sort_by_key(|&v| self.input_pos(v));
        sup
    }

    /// Counts the AND nodes in the transitive fanin cone of `roots`.
    ///
    /// This is the patch-size metric used throughout the ECO flow:
    /// shared nodes are counted once.
    pub fn count_cone_ands(&self, roots: &[Lit]) -> usize {
        self.cone_vars(roots)
            .iter()
            .filter(|&&v| self.is_and(v))
            .count()
    }

    /// Like [`cone_vars`](Aig::cone_vars) but stops descending at `cut`
    /// variables: cut members appear in the result, but their fanins do not
    /// (unless reachable around the cut).
    pub fn cone_vars_to_cut(&self, roots: &[Lit], cut: &HashSet<Var>) -> Vec<Var> {
        walk_cone(self, roots, |v| !cut.contains(&v))
    }

    /// Counts AND nodes in the cone of `roots`, treating `cut` variables as
    /// free leaves (their own cones are not counted; a cut AND itself is not
    /// counted either).
    pub fn count_cone_ands_to_cut(&self, roots: &[Lit], cut: &HashSet<Var>) -> usize {
        self.cone_vars_to_cut(roots, cut)
            .iter()
            .filter(|&&v| self.is_and(v) && !cut.contains(&v))
            .count()
    }

    /// Computes the level (depth) of every node: inputs and the constant are
    /// level 0, an AND is `1 + max(level(fanins))`.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.len()];
        for (v, fan0, fan1) in self.iter_ands() {
            let l0 = level[fan0.var().index() as usize];
            let l1 = level[fan1.var().index() as usize];
            level[v.index() as usize] = 1 + l0.max(l1);
        }
        level
    }

    /// Maximum level over all output literals (0 for an output-less AIG).
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs()
            .iter()
            .map(|o| levels[o.lit.var().index() as usize])
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Aig, Lit, Lit, Lit, Lit) {
        // f = (a & b) | c, g = a ^ b
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let f = aig.or(ab, c);
        let g = aig.xor(a, b);
        aig.add_output("f", f);
        aig.add_output("g", g);
        (aig, a, b, c, f)
    }

    #[test]
    fn support_of_outputs() {
        let (aig, a, b, c, f) = sample();
        let sup = aig.support(&[f]);
        assert_eq!(sup, vec![a.var(), b.var(), c.var()]);
        let g = aig.output_lit(1);
        assert_eq!(aig.support(&[g]), vec![a.var(), b.var()]);
    }

    #[test]
    fn cone_count_shares_nodes() {
        let (aig, _, _, _, f) = sample();
        let g = aig.output_lit(1);
        // f cone: and(a,b), or = 2 ANDs. g cone: xor = 3 ANDs, but shares
        // nothing with f's OR; and(a,b) is shared with one xor AND? No:
        // xor builds and(a,!b), and(!a,b), or-of-those. Distinct from and(a,b).
        assert_eq!(aig.count_cone_ands(&[f]), 2);
        assert_eq!(aig.count_cone_ands(&[g]), 3);
        assert_eq!(aig.count_cone_ands(&[f, g]), 5);
    }

    #[test]
    fn levels_and_depth() {
        let (aig, a, _, _, f) = sample();
        let levels = aig.levels();
        assert_eq!(levels[a.var().index() as usize], 0);
        assert_eq!(levels[f.var().index() as usize], 2);
        assert_eq!(aig.depth(), 2);
    }

    #[test]
    fn cone_respects_cut() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let m = aig.and(a, b);
        let n = aig.and(m, a);
        let cut: HashSet<Var> = [m.var()].into_iter().collect();
        let vars = aig.cone_vars_to_cut(&[n], &cut);
        assert!(vars.contains(&m.var()));
        assert!(vars.contains(&n.var()));
        assert!(!vars.contains(&b.var()));
        assert_eq!(aig.count_cone_ands_to_cut(&[n], &cut), 1);
    }
}
