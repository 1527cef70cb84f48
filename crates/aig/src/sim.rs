//! 64-way parallel bit-vector simulation.
//!
//! Each node is simulated on 64 input patterns at once using one `u64` word
//! per node per word-column. This powers FRAIG signature computation and
//! randomized semantic checks.
//!
//! The engine is arena-backed and allocation-free on its hot paths: all
//! node values live in one flat `Vec<u64>` ([`SimVectors`]) handed out as
//! borrowed slices ([`SimVectors::node_words`]) or iterators
//! ([`SimVectors::lit_words_iter`]), and equivalence-class bucketing uses a
//! 128-bit [`SimVectors::fingerprint`] of the canonical words instead of
//! materializing per-node `Vec<u64>` keys. [`IncrementalSim`] extends the
//! arena with appended counterexample word-columns and re-simulates only
//! the new columns, which is what makes multi-round FRAIG refinement cost
//! O(nodes × new words) instead of O(nodes × all words).

use crate::aig::SENTINEL_INPUT;
use crate::{Aig, Lit, SplitMix64, Var};

/// Result of a parallel simulation: one row of `words` 64-bit words per
/// node, stored in a single flat arena.
///
/// Rows are node-major with a fixed `stride >= words`, so a node's words
/// are one contiguous borrowed slice; the slack between `words` and
/// `stride` is headroom for [`IncrementalSim`] column appends.
#[derive(Clone, Debug)]
pub struct SimVectors {
    words: usize,
    stride: usize,
    values: Vec<u64>,
}

impl SimVectors {
    /// Number of 64-pattern word columns.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Borrowed slice of a node's simulation words (positive polarity).
    #[inline]
    pub fn node_words(&self, var: Var) -> &[u64] {
        let base = var.index() as usize * self.stride;
        &self.values[base..base + self.words]
    }

    /// Iterator over the simulation words of a literal (complement
    /// applied on the fly; no allocation).
    #[inline]
    pub fn lit_words_iter(&self, lit: Lit) -> impl Iterator<Item = u64> + '_ {
        let mask = if lit.is_complement() { !0u64 } else { 0 };
        self.node_words(lit.var()).iter().map(move |&w| w ^ mask)
    }

    /// Returns the simulation words of a literal (complement applied).
    ///
    /// Allocates; prefer [`SimVectors::node_words`] or
    /// [`SimVectors::lit_words_iter`] on hot paths.
    pub fn lit_words(&self, lit: Lit) -> Vec<u64> {
        self.lit_words_iter(lit).collect()
    }

    /// Returns the value of `lit` under pattern `pattern` (a global pattern
    /// index across all word columns).
    pub fn lit_bit(&self, lit: Lit, pattern: usize) -> bool {
        let word = pattern / 64;
        let bit = pattern % 64;
        let v = self.node_words(lit.var())[word] >> bit & 1 == 1;
        v ^ lit.is_complement()
    }

    /// Canonicalization phase of a node: `true` if the canonical words are
    /// the complement of the positive literal's words (first pattern bit
    /// set). Both literals of a node share phase; O(1).
    #[inline]
    pub fn phase(&self, var: Var) -> bool {
        self.node_words(var).first().is_some_and(|w| w & 1 == 1)
    }

    /// Iterator over the *canonical* words of a literal's node (the
    /// positive words, complemented so the first pattern bit is 0).
    #[inline]
    pub fn canon_words_iter(&self, lit: Lit) -> impl Iterator<Item = u64> + '_ {
        let mask = if self.phase(lit.var()) { !0u64 } else { 0 };
        self.node_words(lit.var()).iter().map(move |&w| w ^ mask)
    }

    /// Full-word comparison of two nodes' canonical words (the tie-break
    /// used on [`SimVectors::fingerprint`] collisions). Allocation-free.
    pub fn canon_eq(&self, a: Lit, b: Lit) -> bool {
        self.canon_words_iter(a).eq(self.canon_words_iter(b))
    }

    /// A signature for equivalence-class hashing: the simulation words of
    /// the positive literal, canonicalized so that the first bit is 0
    /// (returns `(canonical_words, phase)` where `phase` is true if the
    /// words were complemented to canonicalize).
    ///
    /// Allocates; the FRAIG hot path uses [`SimVectors::fingerprint`]
    /// with [`SimVectors::canon_eq`] as the collision fallback instead.
    pub fn signature(&self, lit: Lit) -> (Vec<u64>, bool) {
        (self.canon_words_iter(lit).collect(), self.phase(lit.var()))
    }

    /// 128-bit fingerprint of a node's canonical words, plus the
    /// canonicalization phase.
    ///
    /// Two equivalent-or-complementary nodes always agree on the
    /// fingerprint; distinct functions collide only astronomically
    /// rarely, and callers resolve collisions with a full-word
    /// [`SimVectors::canon_eq`] — so the hash only has to be cheap and
    /// well-mixed, never cryptographic. Allocation-free: a SplitMix64
    /// lane plus an FNV-style multiply lane folded over the canonical
    /// words.
    pub fn fingerprint(&self, lit: Lit) -> (u128, bool) {
        let phase = self.phase(lit.var());
        let mask = if phase { !0u64 } else { 0 };
        let mut h0: u64 = 0x243f_6a88_85a3_08d3;
        let mut h1: u64 = 0x1319_8a2e_0370_7344;
        for &raw in self.node_words(lit.var()) {
            let w = raw ^ mask;
            h0 = mix64(h0 ^ w);
            h1 = (h1 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        ((u128::from(h0) << 64) | u128::from(mix64(h1)), phase)
    }
}

/// SplitMix64 finalizer: a fast invertible 64-bit mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Aig {
    /// Simulates the whole AIG on the given input patterns.
    ///
    /// `patterns[pos]` holds `words` words of stimulus for the input at
    /// position `pos` (bit *b* of word *w* is pattern `64*w + b`).
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len() != self.num_inputs()` or rows have uneven
    /// lengths.
    pub fn simulate(&self, patterns: &[Vec<u64>]) -> SimVectors {
        let words = check_patterns(self, patterns);
        let mut sim = SimVectors {
            words,
            stride: words,
            values: vec![0u64; self.len() * words],
        };
        write_inputs(self, &mut sim, patterns);
        resim_ands(self, &mut sim, 0);
        sim
    }

    /// Simulates with `words * 64` uniformly random patterns from `seed`
    /// (SplitMix64; deterministic across runs, and distinct seeds give
    /// distinct streams — unlike the previous xorshift seeding, which
    /// collapsed every even/odd seed pair onto one stream).
    ///
    /// The stimulus is drawn straight into the flat arena (input-major,
    /// i.e. all words of input 0, then input 1, ...), producing bit-for-bit
    /// the stream a materialized `Vec<Vec<u64>>` of per-input rows fed to
    /// [`Aig::simulate`] would.
    pub fn simulate_random(&self, words: usize, seed: u64) -> SimVectors {
        // An input-less AIG has an empty stimulus block, which simulate()
        // has always treated as one word-column; keep that width.
        let words = if self.num_inputs() == 0 { 1 } else { words };
        let mut sim = SimVectors {
            words,
            stride: words,
            values: vec![0u64; self.len() * words],
        };
        fill_random_inputs(self, &mut sim, seed);
        resim_ands(self, &mut sim, 0);
        sim
    }
}

/// Validates a stimulus block and returns its word-column count.
fn check_patterns(aig: &Aig, patterns: &[Vec<u64>]) -> usize {
    assert_eq!(patterns.len(), aig.num_inputs(), "stimulus arity mismatch");
    let words = patterns.first().map_or(1, Vec::len);
    assert!(
        patterns.iter().all(|p| p.len() == words),
        "uneven stimulus rows"
    );
    words
}

/// Copies the stimulus block into the input rows of the arena.
fn write_inputs(aig: &Aig, sim: &mut SimVectors, patterns: &[Vec<u64>]) {
    for (pos, &iv) in aig.inputs().iter().enumerate() {
        let base = iv.index() as usize * sim.stride;
        sim.values[base..base + sim.words].copy_from_slice(&patterns[pos]);
    }
}

/// Draws `sim.words` random words per input straight into the arena rows,
/// input-major (identical stream to materializing per-input pattern rows
/// from the same seed and copying them with [`write_inputs`]).
fn fill_random_inputs(aig: &Aig, sim: &mut SimVectors, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for &iv in aig.inputs() {
        let base = iv.index() as usize * sim.stride;
        for w in &mut sim.values[base..base + sim.words] {
            *w = rng.next_u64();
        }
    }
}

/// Number of 64-pattern words per unrolled strip in [`resim_ands`]:
/// 512 patterns per iteration, a fixed-bound inner loop the
/// autovectorizer turns into wide vector ops.
const STRIP: usize = 8;

/// Recomputes every AND node over columns `from..sim.words`. Input and
/// constant rows must already hold their values for those columns.
///
/// Runs directly over the SoA fanin columns and processes each row in
/// [`STRIP`]-word strips. Because the AIG is topologically ordered, both
/// fanin rows end strictly before the AND's own row in the arena, so
/// `split_at_mut` at the row base yields the destination row plus shared
/// borrows of the fanin rows with no copying.
fn resim_ands(aig: &Aig, sim: &mut SimVectors, from: usize) {
    let (stride, words) = (sim.stride, sim.words);
    if from >= words {
        return;
    }
    let n = words - from;
    let (fan0s, fan1s) = aig.fanin_raw();
    for (v, (&f0, &f1)) in fan0s.iter().zip(fan1s).enumerate() {
        if f0 >= SENTINEL_INPUT {
            continue;
        }
        let m0 = if f0 & 1 == 1 { !0u64 } else { 0 };
        let m1 = if f1 & 1 == 1 { !0u64 } else { 0 };
        let base = v * stride + from;
        let b0 = (f0 >> 1) as usize * stride + from;
        let b1 = (f1 >> 1) as usize * stride + from;
        and_strip(&mut sim.values, base, b0, b1, m0, m1, n);
    }
}

/// Computes `values[base..base+n] = (r0 ^ m0) & (r1 ^ m1)` where `r0`/`r1`
/// are the `n`-word runs at `b0`/`b1`, both strictly below `base`.
#[inline]
fn and_strip(values: &mut [u64], base: usize, b0: usize, b1: usize, m0: u64, m1: u64, n: usize) {
    debug_assert!(b0 + n <= base && b1 + n <= base, "fanin rows precede dst");
    let (lo, hi) = values.split_at_mut(base);
    let dst = &mut hi[..n];
    let r0 = &lo[b0..b0 + n];
    let r1 = &lo[b1..b1 + n];
    let mut d = dst.chunks_exact_mut(STRIP);
    let mut a = r0.chunks_exact(STRIP);
    let mut b = r1.chunks_exact(STRIP);
    for ((d, a), b) in (&mut d).zip(&mut a).zip(&mut b) {
        for k in 0..STRIP {
            d[k] = (a[k] ^ m0) & (b[k] ^ m1);
        }
    }
    for ((d, &a), &b) in d
        .into_remainder()
        .iter_mut()
        .zip(a.remainder())
        .zip(b.remainder())
    {
        *d = (a ^ m0) & (b ^ m1);
    }
}

/// An incrementally extensible simulation: a base stimulus plus appended
/// counterexample patterns and extra word-columns, re-simulating only the
/// columns that changed.
///
/// Protocol: append patterns ([`IncrementalSim::append_pattern`]) and/or
/// whole word-columns ([`IncrementalSim::append_word_column`]), then call
/// [`IncrementalSim::resimulate`] once before reading
/// [`IncrementalSim::vectors`]. Appended single patterns pack 64-to-a-column;
/// a whole-column append closes the currently open pattern column.
#[derive(Clone, Debug)]
pub struct IncrementalSim {
    sim: SimVectors,
    /// First column whose AND rows are stale (== `sim.words` when clean).
    dirty_from: usize,
    /// Free bit slots in the open single-pattern column (0 = none open).
    slots_free: usize,
    resim_columns: u64,
    resim_columns_saved: u64,
}

impl IncrementalSim {
    /// Builds the engine from a base stimulus (fully simulated on return)
    /// with default column headroom.
    pub fn new(aig: &Aig, patterns: &[Vec<u64>]) -> Self {
        Self::with_capacity(aig, patterns, 0)
    }

    /// Like [`IncrementalSim::new`] with at least `capacity_words` columns
    /// reserved, so appends up to that point never re-layout the arena.
    pub fn with_capacity(aig: &Aig, patterns: &[Vec<u64>], capacity_words: usize) -> Self {
        let words = check_patterns(aig, patterns);
        // Headroom for a few refine rounds before the first re-layout.
        let stride = capacity_words.max(words + words / 2 + 4);
        let mut sim = SimVectors {
            words,
            stride,
            values: vec![0u64; aig.len() * stride],
        };
        write_inputs(aig, &mut sim, patterns);
        resim_ands(aig, &mut sim, 0);
        IncrementalSim {
            dirty_from: words,
            slots_free: 0,
            resim_columns: words as u64,
            resim_columns_saved: 0,
            sim,
        }
    }

    /// Builds the engine over `words * 64` uniformly random patterns drawn
    /// straight into the flat arena (no materialized per-input rows).
    ///
    /// Bit-for-bit equivalent to generating input-major pattern rows from
    /// the same SplitMix64 seed and calling [`IncrementalSim::new`], at
    /// zero intermediate allocation. An input-less AIG gets one stimulus
    /// column, matching [`Aig::simulate`] on an empty pattern block.
    pub fn with_random_base(aig: &Aig, words: usize, seed: u64) -> Self {
        let words = if aig.num_inputs() == 0 { 1 } else { words };
        // Headroom for a few refine rounds before the first re-layout.
        let stride = words + words / 2 + 4;
        let mut sim = SimVectors {
            words,
            stride,
            values: vec![0u64; aig.len() * stride],
        };
        fill_random_inputs(aig, &mut sim, seed);
        resim_ands(aig, &mut sim, 0);
        IncrementalSim {
            dirty_from: words,
            slots_free: 0,
            resim_columns: words as u64,
            resim_columns_saved: 0,
            sim,
        }
    }

    /// The simulated values.
    ///
    /// Call [`IncrementalSim::resimulate`] after appends first; debug
    /// builds assert there are no stale columns.
    pub fn vectors(&self) -> &SimVectors {
        debug_assert_eq!(
            self.dirty_from, self.sim.words,
            "resimulate() before reading vectors()"
        );
        &self.sim
    }

    /// Number of 64-pattern word columns currently held.
    pub fn words(&self) -> usize {
        self.sim.words
    }

    /// Word-columns computed so far (initial simulation plus incremental
    /// re-simulation work).
    pub fn resim_columns(&self) -> u64 {
        self.resim_columns
    }

    /// Word-columns a full per-[`IncrementalSim::resimulate`] re-simulation
    /// would have recomputed but the incremental engine skipped.
    pub fn resim_columns_saved(&self) -> u64 {
        self.resim_columns_saved
    }

    /// Appends one stimulus pattern (`bits[pos]` = value of the input at
    /// position `pos`; missing trailing inputs read as 0), packing it into
    /// the open pattern column or a fresh column.
    ///
    /// # Panics
    ///
    /// Panics if `bits` names more inputs than `aig` has.
    pub fn append_pattern(&mut self, aig: &Aig, bits: &[bool]) {
        assert!(bits.len() <= aig.num_inputs(), "stimulus arity mismatch");
        if self.slots_free == 0 {
            self.push_zero_column(aig);
            self.slots_free = 64;
        }
        let col = self.sim.words - 1;
        let bit = 64 - self.slots_free;
        for (pos, &iv) in aig.inputs().iter().enumerate() {
            if bits.get(pos).copied().unwrap_or(false) {
                self.sim.values[iv.index() as usize * self.sim.stride + col] |= 1u64 << bit;
            }
        }
        self.slots_free -= 1;
        self.dirty_from = self.dirty_from.min(col);
    }

    /// Appends one whole 64-pattern word-column (`column[pos]` = stimulus
    /// word of the input at position `pos`), closing any open
    /// single-pattern column.
    ///
    /// # Panics
    ///
    /// Panics if `column.len() != aig.num_inputs()`.
    pub fn append_word_column(&mut self, aig: &Aig, column: &[u64]) {
        assert_eq!(column.len(), aig.num_inputs(), "stimulus arity mismatch");
        self.push_zero_column(aig);
        self.slots_free = 0;
        let col = self.sim.words - 1;
        for (pos, &iv) in aig.inputs().iter().enumerate() {
            self.sim.values[iv.index() as usize * self.sim.stride + col] = column[pos];
        }
        self.dirty_from = self.dirty_from.min(col);
    }

    /// Appends one uniformly random word-column drawn from `rng`
    /// (allocation-free; one word per input in input order).
    pub fn append_random_column(&mut self, aig: &Aig, rng: &mut SplitMix64) {
        self.push_zero_column(aig);
        self.slots_free = 0;
        let col = self.sim.words - 1;
        for &iv in aig.inputs() {
            self.sim.values[iv.index() as usize * self.sim.stride + col] = rng.next_u64();
        }
        self.dirty_from = self.dirty_from.min(col);
    }

    /// Re-simulates only the stale columns; no-op when clean. Returns the
    /// number of columns recomputed.
    pub fn resimulate(&mut self, aig: &Aig) -> usize {
        let fresh = self.sim.words - self.dirty_from;
        if fresh > 0 {
            resim_ands(aig, &mut self.sim, self.dirty_from);
            self.resim_columns += fresh as u64;
            // A non-incremental engine would have recomputed the clean
            // prefix too.
            self.resim_columns_saved += self.dirty_from as u64;
            self.dirty_from = self.sim.words;
        }
        fresh
    }

    /// Opens a fresh all-zero column, growing the arena stride (geometric,
    /// in-place re-layout) when the headroom is exhausted.
    fn push_zero_column(&mut self, aig: &Aig) {
        let sim = &mut self.sim;
        if sim.words == sim.stride {
            let new_stride = (sim.stride * 2).max(4);
            sim.values.resize(aig.len() * new_stride, 0);
            for v in (0..aig.len()).rev() {
                sim.values
                    .copy_within(v * sim.stride..v * sim.stride + sim.words, v * new_stride);
            }
            sim.stride = new_stride;
        }
        let col = sim.words;
        sim.words += 1;
        // Only constant and input rows need defined values; AND rows are
        // overwritten by the next resimulate().
        sim.values[Var::CONST.index() as usize * sim.stride + col] = 0;
        for &iv in aig.inputs() {
            sim.values[iv.index() as usize * sim.stride + col] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_matches_eval() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.mux(a, b, c);
        let g = aig.xor(f, c);
        aig.add_output("f", f);
        aig.add_output("g", g);

        // Exhaustive 8 patterns packed into one word per input.
        let patterns: Vec<Vec<u64>> = (0..3)
            .map(|i| {
                let mut w = 0u64;
                for p in 0..8u32 {
                    if p >> i & 1 == 1 {
                        w |= 1 << p;
                    }
                }
                vec![w]
            })
            .collect();
        let sim = aig.simulate(&patterns);
        for p in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|i| p >> i & 1 == 1).collect();
            let out = aig.eval(&bits);
            assert_eq!(sim.lit_bit(f, p), out[0], "f pattern {p}");
            assert_eq!(sim.lit_bit(g, p), out[1], "g pattern {p}");
        }
    }

    #[test]
    fn complemented_lit_words() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let sim = aig.simulate(&[vec![0b1010]]);
        assert_eq!(sim.lit_words(a)[0], 0b1010);
        assert_eq!(sim.lit_words(!a)[0], !0b1010u64);
        assert_eq!(sim.node_words(a.var()), &[0b1010]);
        assert_eq!(sim.lit_words_iter(!a).collect::<Vec<_>>(), vec![!0b1010u64]);
    }

    #[test]
    fn signature_canonicalization() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let sim = aig.simulate(&[vec![0b1011]]);
        let (sig_pos, ph_pos) = sim.signature(a);
        let (sig_neg, ph_neg) = sim.signature(!a);
        // The signature identifies the *node*, so both literals of the same
        // node share the canonical signature and phase.
        assert_eq!(sig_pos, sig_neg);
        assert_eq!(ph_pos, ph_neg);
        // First pattern bit of `a` is 1, so canonicalization flipped it.
        assert!(ph_pos);
        assert_eq!(sig_pos[0], !0b1011u64);
    }

    #[test]
    fn fingerprint_agrees_with_signature_classes() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        let g = aig.or(a, b); // g = !(!a & !b): complement structure
        let sim = aig.simulate(&[vec![0b1100, 7], vec![0b1010, 42]]);
        // Same node, either polarity: same fingerprint and phase.
        assert_eq!(sim.fingerprint(f), sim.fingerprint(!f));
        // Distinct functions: distinct fingerprints (with these words).
        assert_ne!(sim.fingerprint(f).0, sim.fingerprint(g.var().pos()).0);
        // canon_eq is reflexive and matches signature equality.
        assert!(sim.canon_eq(f, !f));
        assert!(!sim.canon_eq(f, a));
        assert_eq!(
            sim.signature(f).0,
            sim.canon_words_iter(f).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_simulation_is_deterministic() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        let s1 = aig.simulate_random(2, 42);
        let s2 = aig.simulate_random(2, 42);
        assert_eq!(s1.lit_words(f), s2.lit_words(f));
    }

    #[test]
    fn random_simulation_seeds_are_distinct() {
        // Regression: `seed | 1` xorshift seeding collapsed every even/odd
        // seed pair (e.g. 42 and 43) onto the same stimulus stream.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let s_even = aig.simulate_random(2, 42);
        let s_odd = aig.simulate_random(2, 43);
        assert_ne!(s_even.lit_words(a), s_odd.lit_words(a));
    }

    #[test]
    fn constant_simulates_to_zero() {
        let aig = Aig::new();
        let sim = aig.simulate(&[]);
        assert_eq!(sim.lit_words(Lit::FALSE)[0], 0);
        assert_eq!(sim.lit_words(Lit::TRUE)[0], !0u64);
    }

    /// The deleted `fraig::random_patterns` path, reconstructed: per-input
    /// rows materialized input-major from one SplitMix64 stream. Drawing
    /// the same stream straight into the arena must yield bit-identical
    /// values for every node.
    #[test]
    fn random_base_matches_materialized_pattern_rows() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.mux(a, b, c);
        let ac = aig.and(a, c);
        let g = aig.xor(f, ac);
        aig.add_output("g", g);

        let (words, seed) = (8usize, 0x5eed_cafe_u64);
        let mut rng = SplitMix64::new(seed);
        let patterns: Vec<Vec<u64>> = (0..aig.num_inputs())
            .map(|_| (0..words).map(|_| rng.next_u64()).collect())
            .collect();
        let reference = IncrementalSim::new(&aig, &patterns);
        let direct = IncrementalSim::with_random_base(&aig, words, seed);
        assert_eq!(direct.words(), reference.words());
        for (v, _) in aig.iter_nodes() {
            assert_eq!(
                direct.vectors().node_words(v),
                reference.vectors().node_words(v),
                "mismatch on {v:?}"
            );
        }
        let one_shot = aig.simulate_random(words, seed);
        for (v, _) in aig.iter_nodes() {
            assert_eq!(one_shot.node_words(v), reference.vectors().node_words(v));
        }

        // Input-less AIGs keep the historical one-column stimulus width.
        let constant_only = Aig::new();
        let isim = IncrementalSim::with_random_base(&constant_only, 8, 1);
        assert_eq!(isim.words(), 1);
        assert_eq!(constant_only.simulate_random(8, 1).words(), 1);
    }

    #[test]
    fn incremental_append_matches_full_simulation() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.mux(a, b, c);
        let ac = aig.and(a, c);
        let g = aig.xor(f, ac);
        aig.add_output("g", g);

        let base = vec![vec![0x0123], vec![0x4567], vec![0x89ab]];
        let mut isim = IncrementalSim::new(&aig, &base);
        // Two single patterns, one whole column, one more pattern.
        isim.append_pattern(&aig, &[true, false, true]);
        isim.append_pattern(&aig, &[false, true, true]);
        isim.append_word_column(&aig, &[!0, 0x5555, 0xaaaa]);
        isim.append_pattern(&aig, &[true, true, false]);
        isim.resimulate(&aig);

        // Reference: one shot over the concatenated stimulus.
        let full = aig.simulate(&[
            vec![0x0123, 0b01, !0, 0b1],
            vec![0x4567, 0b10, 0x5555, 0b1],
            vec![0x89ab, 0b11, 0xaaaa, 0b0],
        ]);
        assert_eq!(isim.words(), 4);
        for lit in [a, b, c, f, g, !g] {
            assert_eq!(
                isim.vectors().lit_words(lit),
                full.lit_words(lit),
                "mismatch on {lit:?}"
            );
        }
    }

    #[test]
    fn incremental_growth_preserves_existing_columns() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        let mut isim = IncrementalSim::with_capacity(&aig, &[vec![0b1100], vec![0b1010]], 2);
        let mut rng = SplitMix64::new(9);
        // Far past the initial stride: several re-layouts.
        for _ in 0..40 {
            isim.append_random_column(&aig, &mut rng);
        }
        isim.resimulate(&aig);
        assert_eq!(isim.words(), 41);
        assert_eq!(isim.vectors().lit_words(f)[0], 0b1000);
        // Every column still satisfies f = a & b.
        let v = isim.vectors();
        for w in 0..41 {
            assert_eq!(
                v.node_words(f.var())[w],
                v.node_words(a.var())[w] & v.node_words(b.var())[w]
            );
        }
        assert!(isim.resim_columns() >= 41);
        assert_eq!(isim.resim_columns_saved(), 1, "base column skipped once");
    }

    #[test]
    fn resimulate_is_idempotent_and_counts_savings() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        aig.add_output("f", f);
        let mut isim = IncrementalSim::new(&aig, &[vec![1, 2], vec![3, 4]]);
        assert_eq!(isim.resimulate(&aig), 0, "clean engine is a no-op");
        assert_eq!(isim.resim_columns(), 2);
        isim.append_pattern(&aig, &[true, true]);
        assert_eq!(isim.resimulate(&aig), 1);
        assert_eq!(isim.resim_columns(), 3);
        assert_eq!(isim.resim_columns_saved(), 2);
        // Another pattern lands in the same open column: one dirty column.
        isim.append_pattern(&aig, &[true, false]);
        assert_eq!(isim.resimulate(&aig), 1);
        assert_eq!(isim.resim_columns_saved(), 4);
    }
}
