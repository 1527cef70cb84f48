//! The And-Inverter Graph container and its structural-hashing builders.
//!
//! # Memory layout
//!
//! The node store is struct-of-arrays: two parallel `Vec<u32>` hold the
//! packed fanin literals of every node ([`Lit::code`] words), and the node
//! kind is encoded in-band with reserved sentinel values in the `fan0`
//! column (see [`SENTINEL_INPUT`] / [`SENTINEL_CONST`]). Structural hashing
//! uses an open-addressed, power-of-two table of node indices keyed by a
//! cheap mixed hash of the fanin pair, so the whole core costs ~16 bytes
//! per node instead of the ~40+ of a `Vec<enum>` plus a SipHash `HashMap`.
//! [`Node`] remains the public *view* type: [`Aig::node`] decodes a row on
//! demand.

use std::fmt;

use crate::{Lit, Node, TransformError, Var};

/// `fan0` sentinel marking an input row; `fan1` holds the input position.
pub(crate) const SENTINEL_INPUT: u32 = u32::MAX - 1;
/// `fan0` sentinel marking the constant row (index 0); `fan1` is unused.
pub(crate) const SENTINEL_CONST: u32 = u32::MAX;

/// Largest permitted node index. Keeps every packed literal code
/// (`2 * index + 1`) strictly below the smallest sentinel, so fanin words
/// and sentinels can never collide.
pub(crate) const MAX_INDEX: u32 = (u32::MAX - 3) / 2;

/// Converts a node index to a `Var`.
///
/// Node indices are bounded by `MAX_INDEX` (enforced at creation), so the
/// narrowing is lossless.
#[inline]
fn var_at(i: usize) -> Var {
    debug_assert!(i <= MAX_INDEX as usize);
    #[allow(clippy::cast_possible_truncation)]
    Var::new(i as u32)
}

/// A named primary output of an [`Aig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// Output name (unique within the AIG by convention, not enforced).
    pub name: String,
    /// Literal driving the output.
    pub lit: Lit,
}

/// Free slot marker in the strash table (never a valid node index).
const STRASH_EMPTY: u32 = u32::MAX;

/// Mixes a packed fanin pair into a well-dispersed 64-bit hash.
///
/// This is the SplitMix64 finalizer: three shifts and two multiplies,
/// far cheaper than SipHash and good enough that linear probing stays
/// short at the 3/4 load factor the table maintains.
#[inline]
fn strash_hash(f0: u32, f1: u32) -> u64 {
    let mut x = (u64::from(f0) << 32) | u64::from(f1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Open-addressed structural-hashing table.
///
/// Slots store node indices of AND rows; the key of a slot is the fanin
/// pair found in the AIG's fanin columns at that index, so the table
/// itself costs exactly 4 bytes per slot. Capacity is a power of two and
/// grows 2x when load reaches 3/4; entries are never deleted (the AIG is
/// append-only).
// Hashes are masked to the table size on use; truncation is the point.
#[allow(clippy::cast_possible_truncation)]
#[derive(Clone, Debug, Default)]
struct Strash {
    slots: Vec<u32>,
    len: usize,
}

#[allow(clippy::cast_possible_truncation)] // hash -> slot index masking
impl Strash {
    /// Finds the AND node whose canonical fanin pair is `(f0, f1)`.
    fn lookup(&self, fan0s: &[u32], fan1s: &[u32], f0: u32, f1: u32) -> Option<Var> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = strash_hash(f0, f1) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == STRASH_EMPTY {
                return None;
            }
            let v = s as usize;
            if fan0s[v] == f0 && fan1s[v] == f1 {
                return Some(Var::new(s));
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts the AND row at index `var`; the caller guarantees its fanin
    /// pair is not already present.
    fn insert(&mut self, fan0s: &[u32], fan1s: &[u32], var: u32) {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow(fan0s, fan1s);
        }
        let mask = self.slots.len() - 1;
        let v = var as usize;
        let mut i = strash_hash(fan0s[v], fan1s[v]) as usize & mask;
        while self.slots[i] != STRASH_EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = var;
        self.len += 1;
    }

    fn grow(&mut self, fan0s: &[u32], fan1s: &[u32]) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![STRASH_EMPTY; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s == STRASH_EMPTY {
                continue;
            }
            let v = s as usize;
            let mut i = strash_hash(fan0s[v], fan1s[v]) as usize & mask;
            while self.slots[i] != STRASH_EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// A combinational And-Inverter Graph with structural hashing.
///
/// Nodes are append-only, so node indices form a topological order:
/// the fanins of an AND always have smaller indices than the AND itself.
/// All builder methods ([`and`](Aig::and), [`or`](Aig::or),
/// [`xor`](Aig::xor), ...) constant-fold and hash structurally, so
/// syntactically identical subgraphs are shared.
///
/// # Examples
///
/// ```
/// use eco_aig::Aig;
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let f = aig.xor(a, b);
/// aig.add_output("f", f);
/// assert_eq!(aig.num_inputs(), 2);
/// assert_eq!(aig.eval(&[true, false])[0], true);
/// ```
#[derive(Clone, Default)]
pub struct Aig {
    /// Packed first-fanin literal per node, or a sentinel for non-ANDs.
    fan0: Vec<u32>,
    /// Packed second-fanin literal per node; input position for inputs.
    fan1: Vec<u32>,
    /// Running AND-node count (`fan0[i] < SENTINEL_INPUT`).
    ands: usize,
    strash: Strash,
    inputs: Vec<Var>,
    input_names: Vec<String>,
    outputs: Vec<Output>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            fan0: vec![SENTINEL_CONST],
            fan1: vec![0],
            ands: 0,
            strash: Strash::default(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Total number of nodes, including the constant and all inputs.
    #[inline]
    pub fn len(&self) -> usize {
        self.fan0.len()
    }

    /// Returns `true` if the AIG contains only the constant node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fan0.len() == 1
    }

    /// Number of primary (and pseudo-primary) inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of AND nodes currently allocated (including dangling ones).
    #[inline]
    pub fn num_ands(&self) -> usize {
        self.ands
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Returns the node stored at `var`, decoded from its SoA row.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of bounds.
    #[inline]
    pub fn node(&self, var: Var) -> Node {
        let i = var.index() as usize;
        let f0 = self.fan0[i];
        if f0 < SENTINEL_INPUT {
            Node::And {
                fan0: Lit::from_code(f0),
                fan1: Lit::from_code(self.fan1[i]),
            }
        } else if f0 == SENTINEL_INPUT {
            Node::Input { pos: self.fan1[i] }
        } else {
            Node::Constant
        }
    }

    /// Returns `true` if `var` is an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of bounds.
    #[inline]
    pub fn is_and(&self, var: Var) -> bool {
        self.fan0[var.index() as usize] < SENTINEL_INPUT
    }

    /// Returns `true` if `var` is an input node.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of bounds.
    #[inline]
    pub fn is_input(&self, var: Var) -> bool {
        self.fan0[var.index() as usize] == SENTINEL_INPUT
    }

    /// Returns the fanin literals of `var` if it is an AND node.
    ///
    /// This is the cheap accessor for traversal hot loops: it reads the two
    /// SoA columns directly without materializing a [`Node`].
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of bounds.
    #[inline]
    pub fn and_fanins(&self, var: Var) -> Option<(Lit, Lit)> {
        let i = var.index() as usize;
        let f0 = self.fan0[i];
        (f0 < SENTINEL_INPUT).then(|| (Lit::from_code(f0), Lit::from_code(self.fan1[i])))
    }

    /// Raw SoA fanin columns, for same-crate hot loops (simulation).
    ///
    /// Rows with `fan0 >= SENTINEL_INPUT` are not ANDs.
    #[inline]
    pub(crate) fn fanin_raw(&self) -> (&[u32], &[u32]) {
        (&self.fan0, &self.fan1)
    }

    /// Heap bytes held by the node core: both fanin columns plus the
    /// strash table. Excludes input/output names and the input list, which
    /// scale with I/O count rather than gate count.
    pub fn core_memory_bytes(&self) -> usize {
        self.fan0.capacity() * std::mem::size_of::<u32>()
            + self.fan1.capacity() * std::mem::size_of::<u32>()
            + self.strash.heap_bytes()
    }

    /// Returns all input variables in creation order.
    #[inline]
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// Returns the name of the input at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn input_name(&self, pos: usize) -> &str {
        &self.input_names[pos]
    }

    /// Returns the input variable at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn input_var(&self, pos: usize) -> Var {
        self.inputs[pos]
    }

    /// Returns the input position of `var`, or `None` if it is not an input.
    pub fn input_pos(&self, var: Var) -> Option<usize> {
        let i = var.index() as usize;
        (self.fan0[i] == SENTINEL_INPUT).then(|| self.fan1[i] as usize)
    }

    /// Finds an input variable by name.
    pub fn find_input(&self, name: &str) -> Option<Var> {
        self.input_names
            .iter()
            .position(|n| n == name)
            .map(|p| self.inputs[p])
    }

    /// Returns the primary outputs.
    #[inline]
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Returns the literal driving output `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn output_lit(&self, idx: usize) -> Lit {
        self.outputs[idx].lit
    }

    /// Finds an output index by name.
    pub fn find_output(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|o| o.name == name)
    }

    /// Appends a raw SoA row, enforcing the node-count cap that keeps
    /// packed literal codes below the sentinel range.
    fn push_raw(&mut self, f0: u32, f1: u32) -> Result<Var, TransformError> {
        let idx = self.fan0.len();
        if idx > MAX_INDEX as usize {
            return Err(TransformError::TooManyNodes);
        }
        self.fan0.push(f0);
        self.fan1.push(f1);
        Ok(var_at(idx))
    }

    /// Appends a fresh primary input and returns its positive literal.
    ///
    /// # Panics
    ///
    /// Panics if the node limit (2^31 - 1 nodes) is exceeded.
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        let pos = u32::try_from(self.inputs.len()).expect("input count fits in u32");
        let var = self
            .push_raw(SENTINEL_INPUT, pos)
            .expect("AIG node limit exceeded (2^31 - 1 nodes)");
        self.inputs.push(var);
        self.input_names.push(name.into());
        var.pos()
    }

    /// Registers `lit` as a named primary output and returns its index.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) -> usize {
        self.outputs.push(Output {
            name: name.into(),
            lit,
        });
        self.outputs.len() - 1
    }

    /// Removes all outputs (the logic itself is retained).
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// Builds the AND of two literals with constant folding and structural
    /// hashing.
    ///
    /// # Panics
    ///
    /// Panics if the node limit (2^31 - 1 nodes) is exceeded; use
    /// [`Aig::try_and`] to handle that case as a typed error.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.try_and(a, b)
            .expect("AIG node limit exceeded (2^31 - 1 nodes); use try_and")
    }

    /// Fallible form of [`Aig::and`]: returns
    /// [`TransformError::TooManyNodes`] instead of panicking when the node
    /// index space (2^31 - 1 nodes) is exhausted.
    pub fn try_and(&mut self, a: Lit, b: Lit) -> Result<Lit, TransformError> {
        // Constant and trivial folding.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Ok(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Ok(b);
        }
        if b == Lit::TRUE || a == b {
            return Ok(a);
        }
        let (fan0, fan1) = if a <= b { (a, b) } else { (b, a) };
        debug_assert!(
            (fan1.var().index() as usize) < self.fan0.len(),
            "fanin {fan1:?} out of bounds"
        );
        debug_assert!(fan0 <= fan1, "canonical fanin order");
        if let Some(v) = self
            .strash
            .lookup(&self.fan0, &self.fan1, fan0.code(), fan1.code())
        {
            return Ok(v.pos());
        }
        let var = self.push_raw(fan0.code(), fan1.code())?;
        self.ands += 1;
        self.strash.insert(&self.fan0, &self.fan1, var.index());
        Ok(var.pos())
    }

    /// Builds the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Builds the XOR of two literals.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// Builds the XNOR (equivalence) of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Builds the implication `a -> b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// Builds the multiplexer `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let on = self.and(sel, t);
        let off = self.and(!sel, e);
        self.or(on, off)
    }

    /// Builds the AND of an arbitrary number of literals (balanced tree).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// Builds the OR of an arbitrary number of literals (balanced tree).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::or)
    }

    /// Builds the XOR of an arbitrary number of literals (balanced tree).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        unit: Lit,
        op: fn(&mut Self, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => unit,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let l = self.reduce_balanced(&lits[..mid], unit, op);
                let r = self.reduce_balanced(&lits[mid..], unit, op);
                op(self, l, r)
            }
        }
    }

    /// Evaluates all outputs for a single input assignment.
    ///
    /// `inputs[pos]` gives the value of the input at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs(), "input arity mismatch");
        let values = self.eval_all(inputs);
        self.outputs
            .iter()
            .map(|o| values[o.lit.var().index() as usize] ^ o.lit.is_complement())
            .collect()
    }

    /// Evaluates a single literal for a single input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval_lit(&self, lit: Lit, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.num_inputs(), "input arity mismatch");
        let values = self.eval_all(inputs);
        values[lit.var().index() as usize] ^ lit.is_complement()
    }

    fn eval_all(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.len()];
        for i in 0..self.len() {
            let f0 = self.fan0[i];
            values[i] = if f0 < SENTINEL_INPUT {
                let l0 = Lit::from_code(f0);
                let l1 = Lit::from_code(self.fan1[i]);
                (values[l0.var().index() as usize] ^ l0.is_complement())
                    && (values[l1.var().index() as usize] ^ l1.is_complement())
            } else if f0 == SENTINEL_INPUT {
                inputs[self.fan1[i] as usize]
            } else {
                false
            };
        }
        values
    }

    /// Iterates over all `(Var, Node)` pairs in topological (index) order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (Var, Node)> + '_ {
        (0..self.len()).map(|i| {
            let v = var_at(i);
            (v, self.node(v))
        })
    }

    /// Iterates over all AND nodes as `(Var, fan0, fan1)` in topological
    /// order, skipping the constant and input rows.
    pub fn iter_ands(&self) -> impl Iterator<Item = (Var, Lit, Lit)> + '_ {
        self.fan0
            .iter()
            .zip(&self.fan1)
            .enumerate()
            .filter(|&(_, (&f0, _))| f0 < SENTINEL_INPUT)
            .map(|(i, (&f0, &f1))| (var_at(i), Lit::from_code(f0), Lit::from_code(f1)))
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig {{ nodes: {}, inputs: {}, ands: {}, outputs: {} }}",
            self.len(),
            self.num_inputs(),
            self.num_ands(),
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn constant_folding_rules() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        // No AND node was created by any of the above.
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_truth_table() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.xor(a, b);
        g.add_output("f", f);
        assert_eq!(g.eval(&[false, false]), vec![false]);
        assert_eq!(g.eval(&[false, true]), vec![true]);
        assert_eq!(g.eval(&[true, false]), vec![true]);
        assert_eq!(g.eval(&[true, true]), vec![false]);
    }

    #[test]
    fn mux_truth_table() {
        let mut g = Aig::new();
        let s = g.add_input("s");
        let t = g.add_input("t");
        let e = g.add_input("e");
        let f = g.mux(s, t, e);
        g.add_output("f", f);
        for s_v in [false, true] {
            for t_v in [false, true] {
                for e_v in [false, true] {
                    let expect = if s_v { t_v } else { e_v };
                    assert_eq!(g.eval(&[s_v, t_v, e_v]), vec![expect]);
                }
            }
        }
    }

    #[test]
    fn many_input_gates() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..5).map(|i| g.add_input(format!("i{i}"))).collect();
        let and_all = g.and_many(&ins);
        let or_all = g.or_many(&ins);
        let xor_all = g.xor_many(&ins);
        g.add_output("and", and_all);
        g.add_output("or", or_all);
        g.add_output("xor", xor_all);
        for pattern in 0u32..32 {
            let bits: Vec<bool> = (0..5).map(|i| pattern >> i & 1 == 1).collect();
            let ones = bits.iter().filter(|&&b| b).count();
            let out = g.eval(&bits);
            assert_eq!(out[0], ones == 5);
            assert_eq!(out[1], ones > 0);
            assert_eq!(out[2], ones % 2 == 1);
        }
    }

    #[test]
    fn empty_reductions_yield_units() {
        let mut g = Aig::new();
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
        assert_eq!(g.xor_many(&[]), Lit::FALSE);
    }

    #[test]
    fn output_management() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.or(a, b);
        let idx = g.add_output("f", f);
        assert_eq!(g.find_output("f"), Some(idx));
        assert_eq!(g.output_lit(idx), f);
        assert_eq!(g.find_output("nope"), None);
    }

    #[test]
    fn find_input_by_name() {
        let mut g = Aig::new();
        let a = g.add_input("alpha");
        let _ = g.add_input("beta");
        assert_eq!(g.find_input("alpha"), Some(a.var()));
        assert_eq!(g.find_input("gamma"), None);
        assert_eq!(g.input_name(0), "alpha");
        assert_eq!(g.input_pos(a.var()), Some(0));
    }

    #[test]
    fn accessors_agree_with_node_view() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.xor(a, b);
        g.add_output("f", f);
        for (v, n) in g.iter_nodes().collect::<Vec<_>>() {
            assert_eq!(g.is_and(v), n.is_and());
            assert_eq!(g.is_input(v), n.is_input());
            assert_eq!(g.and_fanins(v), n.fanins());
        }
        let from_iter: Vec<_> = g.iter_ands().map(|(v, _, _)| v).collect();
        let from_nodes: Vec<_> = g
            .iter_nodes()
            .filter(|(_, n)| n.is_and())
            .map(|(v, _)| v)
            .collect();
        assert_eq!(from_iter, from_nodes);
    }

    /// Replaying an identical build sequence after the strash has grown
    /// through several capacity doublings must return identical literals
    /// and create no new nodes.
    #[test]
    fn strash_shares_across_growth() {
        let build = |g: &mut Aig, ins: &[Lit]| -> Vec<Lit> {
            let mut rng = SplitMix64::new(0xdead_beef);
            let mut lits = ins.to_vec();
            let mut made = Vec::new();
            for _ in 0..4000 {
                let a = lits[rng.index(lits.len())].xor_complement(rng.chance(0.5));
                let b = lits[rng.index(lits.len())].xor_complement(rng.chance(0.5));
                let f = g.and(a, b);
                lits.push(f);
                made.push(f);
            }
            made
        };
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..12).map(|i| g.add_input(format!("i{i}"))).collect();
        let first = build(&mut g, &ins);
        let ands_after_first = g.num_ands();
        assert!(ands_after_first > 1000, "expected a non-trivial DAG");
        let second = build(&mut g, &ins);
        assert_eq!(first, second, "replay must hit the strash for every gate");
        assert_eq!(g.num_ands(), ands_after_first, "no duplicate nodes");
        // Every AND row is canonical and topologically ordered.
        for (v, f0, f1) in g.iter_ands() {
            assert!(f0 <= f1);
            assert!(f1.var() < v);
        }
    }

    /// The SoA core holds two `u32` columns plus 4-byte strash slots.
    /// This shape has 50,017 nodes (constant, 16 inputs, 50,000 ANDs):
    /// each column sits at 65,536 capacity (2 x 262,144 B) and the strash,
    /// past 3/4 load of 65,536 slots, at 131,072 slots (524,288 B), so the
    /// core is 1,048,576 B = 20.96 B/node. Any shape stays under 28 B/node
    /// (columns at 2x capacity right after a doubling, the strash at 8/3
    /// slots per AND); this one must stay at its 21.
    #[test]
    fn core_memory_stays_lean() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..16).map(|i| g.add_input(format!("i{i}"))).collect();
        let mut rng = SplitMix64::new(7);
        let mut lits = ins;
        while g.num_ands() < 50_000 {
            let a = lits[rng.index(lits.len())].xor_complement(rng.chance(0.5));
            let b = lits[rng.index(lits.len())].xor_complement(rng.chance(0.5));
            lits.push(g.and(a, b));
        }
        let per_node = g.core_memory_bytes() as f64 / g.len() as f64;
        assert!(
            per_node <= 21.0,
            "core layout regressed to {per_node:.2} bytes/node"
        );
    }
}
