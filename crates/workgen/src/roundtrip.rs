//! Differential fuzzing of the format hub: round-trip campaigns over
//! format pairs with a SAT miter oracle.
//!
//! Each case is a seeded design (combinational DAG, shift-register
//! bank, or random sequential DAG — the [`crate::seqgen`] families).
//! The oracle pushes it through every legal format, checks the
//! write → parse → write byte fixpoint, then through every ordered
//! *pair* of formats, and proves the survivor equivalent to the
//! original with a k-frame unrolled SAT miter ([`eco_seq::unroll_miter`],
//! [`eco_core::check_equivalence`]) — cycle-accurate from reset, with
//! don't-care initial states universally quantified as shared free
//! inputs. Failures are greedily shrunk by shrinking the *generator
//! parameters* (the case is its parameter vector, so the shrunk case
//! replays exactly) and can be serialized as `.rtcase` files for the
//! corpus replay test. [`FormatCampaign`] drives the cases through
//! [`crate::campaign`].

use eco_core::{check_equivalence, VerifyOutcome};
use eco_sat::SolveCtl;
use eco_seq::hub::{read_design, write_design, Format};
use eco_seq::{unroll_miter, SeqNetlist};

use eco_aig::SplitMix64;

use crate::campaign::{fail, Campaign, Corpus, Failure, Outcome, Shrinker, Stats};
use crate::seqgen::{random_seq_dag, shift_register_datapath};

/// Unroll depth of the oracle's equivalence miter.
const FRAMES: usize = 3;

/// Conflict budget per SAT equivalence check.
const CONFLICT_BUDGET: u64 = 100_000;

/// Design family of a round-trip case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtFamily {
    /// Combinational random DAG (no latches; Verilog and CNF join the
    /// format set).
    Comb,
    /// Shift-register bank with a reduction tree.
    ShiftBank,
    /// Random sequential DAG with feedback.
    SeqDag,
}

impl RtFamily {
    fn tag(self) -> &'static str {
        match self {
            RtFamily::Comb => "comb",
            RtFamily::ShiftBank => "shiftbank",
            RtFamily::SeqDag => "seqdag",
        }
    }

    fn from_tag(tag: &str) -> Option<RtFamily> {
        match tag {
            "comb" => Some(RtFamily::Comb),
            "shiftbank" => Some(RtFamily::ShiftBank),
            "seqdag" => Some(RtFamily::SeqDag),
            _ => None,
        }
    }
}

/// A round-trip case **is** its generator parameter vector: rebuilding
/// from the parameters is deterministic, so serializing the numbers
/// reproduces the design bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtCase {
    /// Generator seed.
    pub seed: u64,
    /// Design family.
    pub family: RtFamily,
    /// Primary input count (shift bank: register count).
    pub inputs: usize,
    /// Gate count (shift bank: stage depth).
    pub gates: usize,
    /// Latch count (ignored for `Comb` and `ShiftBank`).
    pub latches: usize,
}

impl RtCase {
    /// Derives a case from a campaign seed.
    pub fn from_seed(seed: u64) -> RtCase {
        let mut rng = SplitMix64::new(seed ^ 0x0f0e_a7b1_5c3d_2e19);
        let family = match rng.below(3) {
            0 => RtFamily::Comb,
            1 => RtFamily::ShiftBank,
            _ => RtFamily::SeqDag,
        };
        RtCase {
            seed,
            family,
            inputs: 2 + rng.index(4),
            gates: 4 + rng.index(14),
            latches: 1 + rng.index(4),
        }
    }

    /// Rebuilds the design from the parameters.
    pub fn build(&self) -> SeqNetlist {
        match self.family {
            RtFamily::Comb => {
                // A sequential DAG with the latch records stripped: the
                // state nets become ordinary primary inputs.
                let d = random_seq_dag(self.inputs, self.gates, 1, self.seed);
                SeqNetlist::new(format!("{}_comb", d.name), d.aig, Vec::new(), d.net_lits)
                    .expect("no latches to validate")
            }
            RtFamily::ShiftBank => {
                shift_register_datapath(self.inputs.max(1), self.gates.clamp(1, 6), self.seed)
            }
            RtFamily::SeqDag => random_seq_dag(self.inputs, self.gates, self.latches, self.seed),
        }
    }

    /// Formats this design can legally round-trip through.
    pub fn formats(&self) -> Vec<Format> {
        let mut fmts = vec![
            Format::Blif,
            Format::AigerAscii,
            Format::AigerBinary,
            Format::Btor2,
        ];
        if self.family == RtFamily::Comb {
            fmts.push(Format::Verilog);
        }
        fmts
    }

    /// Serializes the case as a small `key value` text block.
    pub fn to_text(&self) -> String {
        format!(
            "rtcase v1\nseed {}\nfamily {}\ninputs {}\ngates {}\nlatches {}\n",
            self.seed,
            self.family.tag(),
            self.inputs,
            self.gates,
            self.latches
        )
    }

    /// Parses [`RtCase::to_text`] output.
    pub fn from_text(text: &str) -> Result<RtCase, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("rtcase v1") {
            return Err("missing `rtcase v1` header".into());
        }
        let mut case = RtCase {
            seed: 0,
            family: RtFamily::Comb,
            inputs: 1,
            gates: 1,
            latches: 1,
        };
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed line `{line}`"))?;
            let num = || {
                val.parse::<u64>()
                    .map_err(|_| format!("`{key}` expects a number, got `{val}`"))
            };
            match key {
                "seed" => case.seed = num()?,
                "family" => {
                    case.family =
                        RtFamily::from_tag(val).ok_or_else(|| format!("unknown family `{val}`"))?;
                }
                "inputs" => case.inputs = num()? as usize,
                "gates" => case.gates = num()? as usize,
                "latches" => case.latches = num()? as usize,
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        Ok(case)
    }
}

fn equivalent(original: &SeqNetlist, candidate: &SeqNetlist, hop: &str) -> Result<(), Outcome> {
    if candidate.latches.len() != original.latches.len() {
        return Err(fail(
            hop,
            format!(
                "latch count changed: {} -> {}",
                original.latches.len(),
                candidate.latches.len()
            ),
        ));
    }
    let (mut miter, pairs) = match unroll_miter(original, candidate, FRAMES) {
        Ok(m) => m,
        Err(e) => return Err(fail(hop, format!("miter construction failed: {e}"))),
    };
    match check_equivalence(&mut miter, &pairs, CONFLICT_BUDGET, &SolveCtl::unlimited()).0 {
        VerifyOutcome::Equivalent => Ok(()),
        VerifyOutcome::Unknown => Err(Outcome::Skip(format!("{hop}: miter budget exhausted"))),
        VerifyOutcome::Counterexample(cex) => {
            let mut cex: Vec<String> = cex
                .iter()
                .map(|(n, v)| format!("{n}={}", *v as u8))
                .collect();
            cex.sort();
            Err(fail(
                hop,
                format!("behavior diverged under {}", cex.join(" ")),
            ))
        }
    }
}

/// Runs the full oracle on one case: per-format byte fixpoint, then
/// every ordered format pair, each proved against the original design.
pub fn run_rt_case(case: &RtCase) -> Outcome {
    let original = case.build();
    let fmts = case.formats();
    // Single hops, with byte-fixpoint check, keeping the parsed designs
    // for the pair stage.
    let mut parsed: Vec<SeqNetlist> = Vec::with_capacity(fmts.len());
    for &a in &fmts {
        let hop = a.name().to_string();
        let bytes = match write_design(a, &original) {
            Ok(b) => b,
            Err(e) => return fail(&hop, format!("write failed: {e}")),
        };
        let back = match read_design(a, &bytes) {
            Ok(d) => d,
            Err(e) => return fail(&hop, format!("reparse failed: {e}")),
        };
        // Verilog names nets by AIG numbering, so its writer is only a
        // fixpoint modulo renaming; the canonical writers must be exact.
        if a != Format::Verilog {
            match write_design(a, &back) {
                Ok(again) if again == bytes => {}
                Ok(_) => return fail(&hop, "write→parse→write is not a byte fixpoint".into()),
                Err(e) => return fail(&hop, format!("re-write failed: {e}")),
            }
        }
        if let Err(out) = equivalent(&original, &back, &hop) {
            return out;
        }
        parsed.push(back);
    }
    // Ordered pairs: the A-parsed design through B and back.
    for (i, &a) in fmts.iter().enumerate() {
        for &b in &fmts {
            if a == b {
                continue;
            }
            let hop = format!("{}->{}", a.name(), b.name());
            let bytes = match write_design(b, &parsed[i]) {
                Ok(bts) => bts,
                Err(e) => return fail(&hop, format!("write failed: {e}")),
            };
            let back = match read_design(b, &bytes) {
                Ok(d) => d,
                Err(e) => return fail(&hop, format!("reparse failed: {e}")),
            };
            if let Err(out) = equivalent(&original, &back, &hop) {
                return out;
            }
        }
    }
    // CNF is export-only: check the Tseitin DIMACS is well-formed.
    if case.family == RtFamily::Comb {
        match write_design(Format::Cnf, &original) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                if !text.contains("p cnf ") {
                    return fail("cnf", "missing DIMACS header".into());
                }
            }
            Err(e) => return fail("cnf", format!("export failed: {e}")),
        }
    }
    Outcome::Pass
}

/// Greedily shrinks a failing case by shrinking its generator
/// parameters; a reduction is kept when the smaller case still fails
/// (any hop). Returns the shrunk case and its failure.
pub fn shrink_rt_case(case: RtCase, failure: Failure, stats: &mut Stats) -> (RtCase, Failure) {
    let mut best = case;
    let mut best_fail = failure;
    loop {
        let mut reduced = false;
        let candidates = [
            RtCase {
                gates: best.gates / 2,
                ..best.clone()
            },
            RtCase {
                inputs: best.inputs / 2,
                ..best.clone()
            },
            RtCase {
                latches: best.latches / 2,
                ..best.clone()
            },
            RtCase {
                gates: best.gates.saturating_sub(1),
                ..best.clone()
            },
            RtCase {
                inputs: best.inputs.saturating_sub(1),
                ..best.clone()
            },
            RtCase {
                latches: best.latches.saturating_sub(1),
                ..best.clone()
            },
        ];
        for cand in candidates {
            if cand == best || cand.inputs == 0 || cand.gates == 0 {
                continue;
            }
            if cand.family != RtFamily::Comb && cand.latches == 0 {
                continue;
            }
            stats.shrink_steps += 1;
            if let Outcome::Fail(f) = run_rt_case(&cand) {
                stats.shrink_accepted += 1;
                best = cand;
                best_fail = f;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (best, best_fail);
        }
    }
}

/// The format round-trip campaign.
#[derive(Clone, Copy, Debug)]
pub struct FormatCampaign;

impl Campaign for FormatCampaign {
    type Case = RtCase;

    fn case(&mut self, seed: u64) -> Option<RtCase> {
        Some(RtCase::from_seed(seed))
    }

    fn check(&mut self, case: &RtCase) -> Outcome {
        run_rt_case(case)
    }

    fn shrinker() -> Option<Shrinker<Self>> {
        Some(|_, case, failure, stats| shrink_rt_case(case, failure, stats))
    }

    fn corpus() -> Option<Corpus<RtCase>> {
        Some(Corpus {
            ext: "rtcase",
            to_text: RtCase::to_text,
            from_text: RtCase::from_text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_text_round_trips() {
        let case = RtCase::from_seed(77);
        let back = RtCase::from_text(&case.to_text()).expect("parses");
        assert_eq!(back, case);
        assert!(RtCase::from_text("bogus").is_err());
        assert!(RtCase::from_text("rtcase v1\nfamily martian\n").is_err());
    }

    #[test]
    fn all_families_pass_the_oracle() {
        for (family, latches) in [
            (RtFamily::Comb, 1),
            (RtFamily::ShiftBank, 1),
            (RtFamily::SeqDag, 3),
        ] {
            let case = RtCase {
                seed: 11,
                family,
                inputs: 3,
                gates: 8,
                latches,
            };
            assert_eq!(run_rt_case(&case), Outcome::Pass, "{family:?}");
        }
    }

    #[test]
    fn campaign_smoke_is_clean() {
        let report = crate::campaign::run(&mut FormatCampaign, 0x5eed, 12, true);
        let (stats, failures) = (report.stats, report.failures);
        assert_eq!(stats.cases, 12);
        assert!(
            failures.is_empty(),
            "round-trip campaign failed: seed {} {}",
            failures[0].seed,
            failures[0].failure
        );
    }
}
