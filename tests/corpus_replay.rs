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

/// Untrusted Verilog never panics the reader. Hand-picked lexer edge
/// cases (non-ASCII identifiers and comments, CRLF line ends, escaped
/// identifiers at the end of input), every prefix of one suite unit's
/// written faulty netlist, and seeded byte flips of all 20 units' written
/// netlists each read to a netlist or a typed error. One FNV-1a-64 digest
/// over every result, with the elaboration's structural fingerprint or
/// typed error for each netlist, pins the reader's behaviour: error
/// kinds, messages and line numbers included.
#[test]
fn mutated_verilog_reads_to_pinned_results() {
    use eco::aig::SplitMix64;
    use eco::netlist::{elaborate, parse_verilog, write_verilog};
    use eco::workgen::contest_suite;

    let mut texts: Vec<String> = [
        "module m (é, y); input é; output y; buf g (y, é); endmodule",
        "// ünïcode ☃ comment\nmodule m (a, y); /* ☃\n¬ */ input a; output y; not (y, a); endmodule",
        "module m (a, y);\r\ninput a;\r\noutput y;\r\nfoo (y, a);\r\nendmodule\r\n",
        "module m (a, y);\r\ninput a;\r\noutput y;\r\nbuf (y, a);\r\nendmodule\r\n@",
        "module m (\\a[0] , y); input \\a[0] ; output y; buf (y, \\a",
        "module m (y); output y; assign y = \\",
        "\u{a0}module\u{2028}m (y);\u{3000}output y; assign y = 1'b1; endmodule",
        "module m (y); output y; assign y = 1'b1; endmodule /* trailing\n",
        "module m (y); output y; and (y, 1'b٣); endmodule",
        "",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let units = contest_suite();
    let first = write_verilog(&units[0].faulty);
    texts.extend((0..=first.len()).map(|k| first[..k].to_string()));
    let mut rng = SplitMix64::new(0x1e7e_5eed);
    for unit in &units {
        for netlist in [&unit.faulty, &unit.golden] {
            let bytes = write_verilog(netlist).into_bytes();
            for _ in 0..8 {
                let mut flipped = bytes.clone();
                for _ in 0..=rng.below(2) {
                    let at = rng.index(flipped.len());
                    flipped[at] ^= 1 << rng.below(8);
                }
                texts.push(String::from_utf8_lossy(&flipped).into_owned());
            }
        }
    }
    let digest = texts.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, text| {
        let parsed = parse_verilog(text);
        let elaborated = parsed
            .as_ref()
            .ok()
            .map(|n| elaborate(n).map(|e| e.aig.structural_fingerprint()));
        format!("{parsed:?} {elaborated:?}\n")
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    assert_eq!(
        (texts.len(), digest),
        (648, 0xb37c_6407_7ca7_d2be),
        "reader results moved"
    );
}
