//! Property tests for the AIG package. Each property checks `CASES`
//! random recipes drawn from one fixed-seed [`SplitMix64`]; a failing
//! case names its index and its recipe.

use eco_aig::{Aig, IncrementalSim, Lit, SplitMix64};

/// Recipes checked per property.
const CASES: usize = 128;

/// Seed of every property's generator.
const SEED: u64 = 0x5eed_0a16;

/// A recipe: sequence of (op, operand indices, complement flags).
type Recipe = Vec<(u8, usize, usize, bool, bool)>;

/// One step of the incremental-simulation append protocol.
#[derive(Debug)]
enum Append {
    /// A single 1-bit stimulus pattern (one bool per input).
    Pattern(Vec<bool>),
    /// A whole 64-pattern word column (one word per input).
    Column(Vec<u64>),
}

fn build(n_inputs: usize, recipe: &Recipe) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs)
        .map(|i| aig.add_input(format!("x{i}")))
        .collect();
    for &(op, i, j, ci, cj) in recipe {
        let a = nets[i % nets.len()].xor_complement(ci);
        let b = nets[j % nets.len()].xor_complement(cj);
        let w = match op % 4 {
            0 => aig.and(a, b),
            1 => aig.or(a, b),
            2 => aig.xor(a, b),
            _ => aig.mux(a, b, nets[(i + j) % nets.len()]),
        };
        nets.push(w);
    }
    (aig, nets)
}

/// A recipe of 1 to 49 steps with operand picks below 64.
fn draw_recipe(rng: &mut SplitMix64) -> Recipe {
    (0..rng.range_inclusive(1, 49))
        .map(|_| {
            (
                rng.next_u64() as u8,
                rng.index(64),
                rng.index(64),
                rng.chance(0.5),
                rng.chance(0.5),
            )
        })
        .collect()
}

/// The input values of exhaustive pattern `bits` over `n` inputs.
fn pattern(bits: u32, n: usize) -> Vec<bool> {
    (0..n).map(|i| bits >> i & 1 == 1).collect()
}

/// Structural hashing is commutative: and(a, b) == and(b, a).
#[test]
fn and_is_commutative() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let (ci, cj) = (rng.chance(0.5), rng.chance(0.5));
        let (mut aig, nets) = build(4, &recipe);
        let a = nets[nets.len() / 2].xor_complement(ci);
        let b = nets[nets.len() - 1].xor_complement(cj);
        assert_eq!(
            aig.and(a, b),
            aig.and(b, a),
            "case {case}: {recipe:?} {ci} {cj}"
        );
    }
}

/// eval and 64-way simulate agree on every node.
#[test]
fn simulate_agrees_with_eval() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let (mut aig, nets) = build(5, &recipe);
        let root = *nets.last().expect("non-empty");
        aig.add_output("f", root);
        // 32 exhaustive patterns in one word.
        let patterns: Vec<Vec<u64>> = (0..5)
            .map(|i| {
                vec![(0..32u32)
                    .filter(|p| p >> i & 1 == 1)
                    .fold(0, |w, p| w | 1 << p)]
            })
            .collect();
        let sim = aig.simulate(&patterns);
        for p in 0..32u32 {
            assert_eq!(
                sim.lit_bit(root, p as usize),
                aig.eval_lit(root, &pattern(p, 5)),
                "case {case}: {recipe:?} at pattern {p}"
            );
        }
    }
}

/// compact() preserves output functions and never grows the AIG.
#[test]
fn compact_preserves_semantics() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let (mut aig, nets) = build(5, &recipe);
        aig.add_output("f", *nets.last().expect("non-empty"));
        let compacted = aig.compact();
        assert!(
            compacted.num_ands() <= aig.num_ands(),
            "case {case}: {recipe:?}"
        );
        for bits in 0u32..32 {
            let vals = pattern(bits, 5);
            assert_eq!(
                aig.eval(&vals),
                compacted.eval(&vals),
                "case {case}: {recipe:?} at {vals:?}"
            );
        }
    }
}

/// Substituting an input with a constant equals cofactoring, and both
/// equal direct evaluation with that input fixed.
#[test]
fn cofactor_fixes_the_input() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let (pick, value) = (rng.index(5), rng.chance(0.5));
        let ctx = format!("case {case}: {recipe:?} x{pick}={value}");
        let (mut aig, nets) = build(5, &recipe);
        let root = *nets.last().expect("non-empty");
        let x = aig.input_var(pick);
        let cof = aig.cofactor(&[root], x, value)[0];
        // The cofactor no longer depends on x.
        assert!(!aig.support(&[cof]).contains(&x), "{ctx}");
        for bits in 0u32..32 {
            let mut vals = pattern(bits, 5);
            let cof_val = aig.eval_lit(cof, &vals);
            vals[pick] = value;
            assert_eq!(cof_val, aig.eval_lit(root, &vals), "{ctx} at {vals:?}");
        }
    }
}

/// Import into a fresh manager is semantics-preserving.
#[test]
fn import_round_trip() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let (src, nets) = build(4, &recipe);
        let root = *nets.last().expect("non-empty");
        let mut dst = Aig::new();
        let map = src
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, dst.add_input(format!("y{i}"))))
            .collect();
        let imported = dst.import(&src, &[root], &map).expect("all inputs mapped")[0];
        for bits in 0u32..16 {
            let vals = pattern(bits, 4);
            assert_eq!(
                src.eval_lit(root, &vals),
                dst.eval_lit(imported, &vals),
                "case {case}: {recipe:?} at {vals:?}"
            );
        }
    }
}

/// Incremental column-append re-simulation is bit-identical to one
/// full simulate over the concatenated stimulus, for any mix of
/// single-pattern and whole-word-column appends.
#[test]
fn incremental_resimulation_matches_full() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let base: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..3).map(|_| rng.next_u64()).collect())
            .collect();
        let appends: Vec<Append> = (0..rng.index(12))
            .map(|_| {
                if rng.chance(0.5) {
                    Append::Pattern((0..4).map(|_| rng.chance(0.5)).collect())
                } else {
                    Append::Column((0..4).map(|_| rng.next_u64()).collect())
                }
            })
            .collect();
        let ctx = format!("case {case}: {recipe:?} base {base:?} appends {appends:?}");
        let (mut aig, nets) = build(4, &recipe);
        aig.add_output("f", *nets.last().expect("non-empty"));

        let mut isim = IncrementalSim::new(&aig, &base);
        // Reference stimulus: base columns, then replay the append
        // protocol (patterns pack 64-to-a-column; a whole column closes
        // the open pattern column).
        let mut full: Vec<Vec<u64>> = base.clone();
        let mut slots_free = 0usize;
        for ap in &appends {
            match ap {
                Append::Pattern(bits) => {
                    isim.append_pattern(&aig, bits);
                    if slots_free == 0 {
                        for row in &mut full {
                            row.push(0);
                        }
                        slots_free = 64;
                    }
                    let bit = 64 - slots_free;
                    for (pos, row) in full.iter_mut().enumerate() {
                        if bits[pos] {
                            *row.last_mut().expect("open column") |= 1u64 << bit;
                        }
                    }
                    slots_free -= 1;
                }
                Append::Column(words) => {
                    isim.append_word_column(&aig, words);
                    for (pos, row) in full.iter_mut().enumerate() {
                        row.push(words[pos]);
                    }
                    slots_free = 0;
                }
            }
        }
        isim.resimulate(&aig);
        let reference = aig.simulate(&full);
        assert_eq!(isim.words(), reference.words(), "{ctx}");
        for &net in &nets {
            assert_eq!(
                isim.vectors().lit_words(net),
                reference.lit_words(net),
                "{ctx}: node {net:?} diverged"
            );
        }
    }
}

/// Cone counting is consistent: |cone(f ∪ g)| <= |cone f| + |cone g|,
/// and support ⊆ cone.
#[test]
fn cone_arithmetic() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let (aig, nets) = build(4, &recipe);
        let f = nets[nets.len() / 2];
        let g = *nets.last().expect("non-empty");
        let cf = aig.count_cone_ands(&[f]);
        let cg = aig.count_cone_ands(&[g]);
        let cfg = aig.count_cone_ands(&[f, g]);
        assert!(
            cf.max(cg) <= cfg && cfg <= cf + cg,
            "case {case}: {recipe:?}"
        );
        let cone = aig.cone_vars(&[g]);
        for v in aig.support(&[g]) {
            assert!(cone.contains(&v), "case {case}: {recipe:?} support {v:?}");
        }
    }
}

/// An order-of-magnitude-simpler reference AIG builder with the same
/// contract as [`Aig::and`]: constant/trivial folding, canonical
/// `fan0 <= fan1` ordering, and a (hash-map) structural hash. The real
/// core stores all of this in flat SoA columns with an open-addressed
/// table; the reference keeps explicit tuples, so any divergence in the
/// returned literals pins a bug in the compact representation.
mod reference {
    use eco_aig::Lit;
    use std::collections::HashMap;

    pub struct RefAig {
        /// `(fan0, fan1)` per AND var, `None` for inputs; index 0 is the
        /// constant.
        pub nodes: Vec<Option<(Lit, Lit)>>,
        strash: HashMap<(Lit, Lit), u32>,
    }

    impl RefAig {
        pub fn new() -> Self {
            RefAig {
                nodes: vec![None],
                strash: HashMap::new(),
            }
        }

        fn lit(index: u32, complement: bool) -> Lit {
            let mut l = Lit::from_code(index * 2);
            if complement {
                l = !l;
            }
            l
        }

        pub fn add_input(&mut self) -> Lit {
            self.nodes.push(None);
            Self::lit(self.nodes.len() as u32 - 1, false)
        }

        pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
            if a == Lit::FALSE || b == Lit::FALSE || a == !b {
                return Lit::FALSE;
            }
            if a == Lit::TRUE {
                return b;
            }
            if b == Lit::TRUE || a == b {
                return a;
            }
            let (fan0, fan1) = if a <= b { (a, b) } else { (b, a) };
            if let Some(&v) = self.strash.get(&(fan0, fan1)) {
                return Self::lit(v, false);
            }
            self.nodes.push(Some((fan0, fan1)));
            let v = self.nodes.len() as u32 - 1;
            self.strash.insert((fan0, fan1), v);
            Self::lit(v, false)
        }
    }
}

/// The SoA core returns literal-for-literal the same results as the
/// reference builder, and its flat arrays uphold the structural
/// invariants: canonical `fan0 <= fan1`, strictly topological fanins,
/// and a strash with no duplicate fanin pairs.
#[test]
fn soa_core_matches_reference_builder() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let recipe = draw_recipe(&mut rng);
        let ctx = format!("case {case}: {recipe:?}");
        let mut aig = Aig::new();
        let mut reference = reference::RefAig::new();
        let mut nets: Vec<Lit> = Vec::new();
        for i in 0..4 {
            let a = aig.add_input(format!("x{i}"));
            let r = reference.add_input();
            assert_eq!(a, r, "{ctx}: input {i} numbering diverged");
            nets.push(a);
        }
        // Only raw ANDs: or/xor/mux are compositions of and() and would
        // re-test the same code path with extra noise.
        for &(_, i, j, ci, cj) in &recipe {
            let a = nets[i % nets.len()].xor_complement(ci);
            let b = nets[j % nets.len()].xor_complement(cj);
            let got = aig.and(a, b);
            let want = reference.and(a, b);
            assert_eq!(got, want, "{ctx}: and({a:?}, {b:?}) diverged");
            nets.push(got);
        }
        assert_eq!(aig.len(), reference.nodes.len(), "{ctx}");
        assert_eq!(
            aig.num_ands(),
            reference.nodes.iter().filter(|n| n.is_some()).count(),
            "{ctx}"
        );
        let mut seen = std::collections::HashSet::new();
        for (v, fan0, fan1) in aig.iter_ands() {
            assert!(fan0 <= fan1, "{ctx}: canonical order violated at {v:?}");
            assert!(
                fan1.var() < v && fan0.var() < v,
                "{ctx}: fanins of {v:?} not strictly earlier"
            );
            assert!(
                seen.insert((fan0, fan1)),
                "{ctx}: duplicate strash pair at {v:?}"
            );
            assert_eq!(Some((fan0, fan1)), aig.and_fanins(v), "{ctx}");
        }
    }
}
