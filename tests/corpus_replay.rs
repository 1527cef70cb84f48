//! Replays the `tests/corpus/` regression set through the differential
//! fuzzing oracle, plus a small fixed-seed fuzz smoke campaign.
//!
//! Corpus cases are shapes that once exposed (or are prone to exposing)
//! pipeline bugs — multi-target clusters, constant cones, degenerate
//! weights, output-polarity traps. Every case must pass the independent
//! oracle: full engine run, patched-netlist Verilog round trip, fresh
//! SAT miter against the golden circuit, and a random-simulation
//! cross-check. New failures found by `eco-fuzz` get shrunk and dropped
//! into `tests/corpus/` as `.case` files; this test picks them up
//! automatically.

use eco::workgen::campaign::{run, Outcome};
use eco::workgen::fuzz::{run_case, FuzzCampaign, FuzzCase};
use eco::workgen::roundtrip::{run_rt_case, FormatCampaign, RtCase};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_cases_all_pass_the_oracle() {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus must not be empty");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("case readable");
        let case = FuzzCase::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match run_case(&case) {
            Outcome::Pass => {}
            Outcome::Skip(why) => {
                panic!(
                    "{}: skipped ({why}) — corpus cases must be cheap",
                    path.display()
                )
            }
            Outcome::Degraded => panic!("{}: degraded without a budget", path.display()),
            Outcome::Fail(f) => panic!("{}: FAIL {f}", path.display()),
        }
    }
}

#[test]
fn rtcase_corpus_round_trips_cleanly() {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtcase"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "rtcase corpus must not be empty");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("rtcase readable");
        let case = RtCase::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match run_rt_case(&case) {
            Outcome::Pass => {}
            Outcome::Skip(why) => {
                panic!(
                    "{}: skipped ({why}) — corpus cases must be cheap",
                    path.display()
                )
            }
            Outcome::Degraded => panic!("{}: degraded without a budget", path.display()),
            Outcome::Fail(f) => panic!("{}: FAIL {f}", path.display()),
        }
    }
}

#[test]
fn fixed_seed_format_roundtrip_smoke_is_clean() {
    let report = run(&mut FormatCampaign, 0xf0a7, 15, true);
    assert_eq!(report.stats.cases, 15);
    assert!(
        report.failures.is_empty(),
        "format round-trip smoke failed: seed {} {}",
        report.failures[0].seed,
        report.failures[0].failure
    );
}

#[test]
fn fixed_seed_fuzz_smoke_is_clean() {
    let report = run(&mut FuzzCampaign, 0xec0f, 25, true);
    assert_eq!(report.stats.cases, 25);
    assert!(
        report.failures.is_empty(),
        "fuzz smoke found {} failure(s); first: seed {} {}",
        report.failures.len(),
        report.failures[0].seed,
        report.failures[0].failure
    );
}
