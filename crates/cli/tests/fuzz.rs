//! End-to-end tests of the `eco-fuzz` campaign driver.

use std::process::{Command, Output};
use std::time::Duration;

use eco_workgen::fuzz::{budget_for_seed, gen_case, FuzzConfig};

fn fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eco-fuzz"))
        .args(args)
        .output()
        .expect("run eco-fuzz")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn campaigns_print_the_common_summary_keys() {
    for campaign in ["fuzz", "budget", "formats"] {
        let out = fuzz(&[
            "--campaign",
            campaign,
            "--iters",
            "3",
            "--seed",
            "1",
            "--stats=json",
        ]);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{campaign}: {text}");
        for key in [
            "\"cases\": 3",
            "\"passes\": ",
            "\"degraded\": ",
            "\"skips\": ",
            "\"failures\": 0",
            "\"shrink_steps\": ",
            "\"shrink_accepted\": ",
        ] {
            assert!(text.contains(key), "{campaign}: no `{key}` in {text}");
        }
    }
}

/// `--case` reruns its seed under the selected campaign: a seed whose
/// starvation budget is a zero deadline degrades, where the unbudgeted
/// oracle would pass it.
#[test]
fn budget_case_reruns_the_seed_under_its_budget() {
    let cfg = FuzzConfig::default();
    let seed = (0..1000u64)
        .find(|&s| {
            budget_for_seed(s).timeout == Some(Duration::ZERO) && gen_case(s, &cfg).is_some()
        })
        .expect("some seed draws a zero deadline");
    let seed = seed.to_string();
    let out = fuzz(&["--campaign", "budget", "--case", &seed, "--stats=json"]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("\"cases\": 1"), "{text}");
    assert!(text.contains("\"degraded\": 1"), "{text}");
}

/// One sweep iteration and no kill drill (the drill's counters stay 0).
#[test]
fn chaos_case_runs_one_sweep_iteration() {
    let out = fuzz(&["--campaign", "chaos", "--case", "1", "--stats=json"]);
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("\"cases\": 1"), "{text}");
    assert!(text.contains("\"failures\": 0"), "{text}");
    assert!(text.contains("\"warm_served\": 0"), "{text}");
}

#[test]
fn a_run_that_checks_nothing_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("eco-fuzz-test-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let empty = dir.to_str().expect("utf-8 path");
    for args in [
        vec!["--replay", empty],
        vec!["--campaign", "budget", "--shrink"],
        vec!["--campaign", "budget", "--corpus", empty],
        vec!["--campaign", "chaos", "--corpus", empty],
        vec!["--case", "1", "--iters", "3"],
        vec!["--replay", empty, "--iters", "3"],
        vec!["--campaign", "bogus"],
    ] {
        let out = fuzz(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn workgen_no_longer_runs_the_chaos_campaign() {
    let out = Command::new(env!("CARGO_BIN_EXE_eco-workgen"))
        .args(["--chaos-campaign", "--out", "unused"])
        .output()
        .expect("run eco-workgen");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
}
