//! One seeded driver for every differential campaign.
//!
//! A campaign supplies the case for a seed, the oracle that checks it,
//! and optionally a shrinker and a corpus form ([`Campaign`]). The
//! driver owns everything around them: the seed loop ([`run`]), the
//! single-seed rerun ([`Report::run_case`]), the verdict of one case
//! ([`Outcome`]) and the counters ([`Stats`], rendered with the
//! workspace's one counter renderer, [`eco_core::render_counters`]).
//!
//! Seed rule: cases run at seeds `seed`, `seed + 1`, … until `iters`
//! cases have run; a seed that yields no case is passed over. Every
//! failure carries the seed that generated it, so rerunning that one
//! seed reproduces it.

use std::fmt;

/// Verdict of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The oracle accepted the result.
    Pass,
    /// The run degraded in a typed, well-formed way (a governed partial
    /// result, a contained fault); not a bug.
    Degraded,
    /// A resource budget of the oracle ran out; not a bug.
    Skip(String),
    /// A genuine bug.
    Fail(Failure),
}

/// A reproduced failure: where the case broke and how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The pipeline stage, format hop or leg that broke.
    pub at: String,
    /// Human-readable detail (error display, counterexample, ...).
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {} — {}", self.at, self.detail)
    }
}

/// A failing outcome at `at` (a pipeline stage, format hop or leg).
pub fn fail(at: impl fmt::Display, detail: String) -> Outcome {
    Outcome::Fail(Failure {
        at: at.to_string(),
        detail,
    })
}

eco_core::counters! {
    /// Campaign counters.
    pub struct Stats {
        /// Cases run.
        cases: u64,
        /// Cases the oracle accepted.
        passes: u64,
        /// Cases that degraded cleanly.
        degraded: u64,
        /// Budget-limited oracle checks (not failures).
        skips: u64,
        /// Genuine failures (before shrinking), plus a failed closing check.
        failures: u64,
        /// Shrink reductions attempted.
        shrink_steps: u64,
        /// Shrink reductions that kept the failure alive.
        shrink_accepted: u64,
    }
}

impl Stats {
    /// Counts one case's outcome.
    pub fn record(&mut self, outcome: &Outcome) {
        self.cases += 1;
        match outcome {
            Outcome::Pass => self.passes += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Skip(_) => self.skips += 1,
            Outcome::Fail(_) => self.failures += 1,
        }
    }
}

/// Reduces a failing case while it keeps failing; counts its attempts
/// in `stats`.
pub type Shrinker<C> =
    fn(&mut C, <C as Campaign>::Case, Failure, &mut Stats) -> (<C as Campaign>::Case, Failure);

/// The text form failing cases are saved in and replayed from.
pub struct Corpus<Case> {
    /// File extension, without the dot.
    pub ext: &'static str,
    /// Serializes a case.
    pub to_text: fn(&Case) -> String,
    /// Parses [`Corpus::to_text`] output.
    pub from_text: fn(&str) -> Result<Case, String>,
}

/// What one campaign supplies to the driver.
pub trait Campaign {
    /// One generated case.
    type Case;

    /// The case for `seed`, or `None` when the seed yields none.
    fn case(&mut self, seed: u64) -> Option<Self::Case>;

    /// Runs the oracle on one case.
    fn check(&mut self, case: &Self::Case) -> Outcome;

    /// The shrinker, for campaigns that reduce failures.
    fn shrinker() -> Option<Shrinker<Self>>
    where
        Self: Sized,
    {
        None
    }

    /// The corpus form, for campaigns whose failures can be saved.
    fn corpus() -> Option<Corpus<Self::Case>>
    where
        Self: Sized,
    {
        None
    }

    /// A check that runs once after the seed loop; an error is a
    /// campaign failure.
    fn finish(&mut self) -> Result<(), Failure> {
        Ok(())
    }

    /// The campaign's own counters, appended to the summary.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A failing case, shrunk when asked.
#[derive(Clone, Debug)]
pub struct Found<Case> {
    /// The seed that generated the case.
    pub seed: u64,
    /// The case (reduced when shrinking was asked for).
    pub case: Case,
    /// The failure it reproduces.
    pub failure: Failure,
}

/// What a campaign run found.
#[derive(Clone, Debug)]
pub struct Report<Case> {
    /// The counters.
    pub stats: Stats,
    /// Failing cases, in seed order.
    pub failures: Vec<Found<Case>>,
    /// The failure of the closing check ([`Campaign::finish`]), if any.
    pub closing: Option<Failure>,
}

impl<Case> Default for Report<Case> {
    fn default() -> Self {
        Report {
            stats: Stats::default(),
            failures: Vec::new(),
            closing: None,
        }
    }
}

impl<Case> Report<Case> {
    /// Checks the case generated from `seed`, records its outcome and,
    /// when it fails, keeps it (shrunk if `shrink` is set).
    pub fn run_case<C: Campaign<Case = Case>>(
        &mut self,
        campaign: &mut C,
        seed: u64,
        case: Case,
        shrink: bool,
    ) {
        let outcome = campaign.check(&case);
        self.stats.record(&outcome);
        if let Outcome::Fail(failure) = outcome {
            let (case, failure) = match C::shrinker().filter(|_| shrink) {
                Some(shrinker) => shrinker(campaign, case, failure, &mut self.stats),
                None => (case, failure),
            };
            self.failures.push(Found {
                seed,
                case,
                failure,
            });
        }
    }
}

/// Runs `iters` cases from `seed` on (see the module docs for the seed
/// rule), then the campaign's closing check.
pub fn run<C: Campaign>(campaign: &mut C, seed: u64, iters: u64, shrink: bool) -> Report<C::Case> {
    let mut report = Report::default();
    let mut s = seed;
    while report.stats.cases < iters {
        if let Some(case) = campaign.case(s) {
            report.run_case(campaign, s, case, shrink);
        }
        s = s.wrapping_add(1);
    }
    if let Err(failure) = campaign.finish() {
        report.stats.failures += 1;
        report.closing = Some(failure);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::render_counters;

    /// Odd seeds yield no case; seeds divisible by 3 fail.
    struct Toy;

    impl Campaign for Toy {
        type Case = u64;

        fn case(&mut self, seed: u64) -> Option<u64> {
            seed.is_multiple_of(2).then_some(seed)
        }

        fn check(&mut self, case: &u64) -> Outcome {
            if case.is_multiple_of(3) {
                Outcome::Fail(Failure {
                    at: "toy".into(),
                    detail: format!("{case}"),
                })
            } else {
                Outcome::Pass
            }
        }
    }

    #[test]
    fn loop_starts_at_the_seed_and_passes_over_empty_seeds() {
        let report = run(&mut Toy, 2, 4, false);
        assert_eq!(report.stats.cases, 4);
        assert_eq!(report.stats.passes + report.stats.failures, 4);
        let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
        assert_eq!(seeds, [6]);
        assert!(report.closing.is_none());
    }

    #[test]
    fn summary_renders_the_same_keys_as_text_and_json() {
        let stats = Stats {
            cases: 3,
            passes: 2,
            failures: 1,
            ..Stats::default()
        };
        let fields = [stats.fields(), vec![("injected", 9)]].concat();
        assert_eq!(
            render_counters(&fields, false),
            "cases 3  passes 2  degraded 0  skips 0  failures 1  shrink_steps 0  \
             shrink_accepted 0  injected 9"
        );
        assert_eq!(
            render_counters(&fields, true),
            "{\"cases\": 3, \"passes\": 2, \"degraded\": 0, \"skips\": 0, \"failures\": 1, \
             \"shrink_steps\": 0, \"shrink_accepted\": 0, \"injected\": 9}"
        );
    }
}
