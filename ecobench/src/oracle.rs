//! The output oracle: patched designs are spliced and compared with the
//! golden design on seeded 64-bit random simulation words. It uses no
//! SAT, so it shares no solver code with the engine it checks, and it
//! runs outside every timed region.

use eco_aig::{Aig, SplitMix64};
use eco_core::splice_patch;
use eco_netlist::{elaborate, Netlist};
use eco_seq::{unroll, SeqNetlist};

/// Simulation words per input (64 patterns each).
const WORDS: usize = 16;

/// Random words for the input called `name`: every design sees the same
/// stimulus on a same-named input.
fn stimulus(name: &str, seed: u64) -> Vec<u64> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = SplitMix64::new(h ^ seed);
    (0..WORDS).map(|_| rng.next_u64()).collect()
}

/// Compares every output of `a` with the same-named output of `b`.
pub fn sim_equal(a: &Aig, b: &Aig, seed: u64) -> Result<(), String> {
    let simulate = |aig: &Aig| {
        let patterns: Vec<Vec<u64>> = (0..aig.num_inputs())
            .map(|p| stimulus(aig.input_name(p), seed))
            .collect();
        aig.simulate(&patterns)
    };
    if a.num_outputs() != b.num_outputs() {
        return Err(format!(
            "{} outputs against {}",
            a.num_outputs(),
            b.num_outputs()
        ));
    }
    let (sa, sb) = (simulate(a), simulate(b));
    for out in a.outputs() {
        let idx = b
            .find_output(&out.name)
            .ok_or_else(|| format!("output {} missing", out.name))?;
        if sa.lit_words(out.lit) != sb.lit_words(b.output_lit(idx)) {
            return Err(format!("output {} differs in simulation", out.name));
        }
    }
    Ok(())
}

/// Splices `patch` into `faulty` and compares the result with `golden`.
pub fn check_comb(
    faulty: &Netlist,
    golden: &Netlist,
    patch: &Aig,
    seed: u64,
) -> Result<(), String> {
    let patched = splice_patch(faulty, patch).map_err(|e| format!("splice: {e}"))?;
    let patched = elaborate(&patched).map_err(|e| format!("patched: {e}"))?;
    let golden = elaborate(golden).map_err(|e| format!("golden: {e}"))?;
    sim_equal(&patched.aig, &golden.aig, seed)
}

/// Splices the sequential `patch` into `faulty` and compares `frames`
/// cycles from reset with `golden` (don't-care initial states are free
/// inputs shared by name).
pub fn check_seq(
    faulty: &SeqNetlist,
    golden: &SeqNetlist,
    patch: &Aig,
    frames: usize,
    seed: u64,
) -> Result<(), String> {
    let patched = faulty.splice(patch).map_err(|e| format!("splice: {e}"))?;
    let a = unroll(&patched, frames).map_err(|e| format!("patched: {e}"))?;
    let b = unroll(golden, frames).map_err(|e| format!("golden: {e}"))?;
    sim_equal(&a.aig, &b.aig, seed)
}
