//! End-to-end tests of the `eco-patch` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eco-patch"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

const FAULTY: &str = "module f (a, b, c, t, y);\n\
                      input a, b, c, t;\noutput y;\nxor g1 (y, t, c);\nendmodule\n";
const GOLDEN: &str = "module g (a, b, c, y);\n\
                      input a, b, c;\noutput y;\nwire w;\nand g1 (w, a, b);\n\
                      xor g2 (y, w, c);\nendmodule\n";

#[test]
fn patches_and_writes_verilog() {
    let dir = tmpdir("ok");
    let f = dir.join("faulty.v");
    let g = dir.join("golden.v");
    let w = dir.join("weights.txt");
    let o = dir.join("patch.v");
    std::fs::write(&f, FAULTY).expect("write");
    std::fs::write(&g, GOLDEN).expect("write");
    std::fs::write(&w, "a 5\nb 5\nc 9\n").expect("write");
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-w", w.to_str().expect("path")])
        .args(["-t", "t"])
        .args(["-o", o.to_str().expect("path")])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let patch = std::fs::read_to_string(&o).expect("patch file");
    assert!(patch.contains("module patch"));
    assert!(patch.contains("output t"));
    // The patch parses and drives the target.
    let nl = eco_netlist::parse_verilog(&patch).expect("patch parses");
    assert_eq!(nl.outputs, vec!["t"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cost 10"), "stderr: {stderr}");
}

#[test]
fn stdout_mode_and_quiet() {
    let dir = tmpdir("stdout");
    let f = dir.join("faulty.v");
    let g = dir.join("golden.v");
    std::fs::write(&f, FAULTY).expect("write");
    std::fs::write(&g, GOLDEN).expect("write");
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "t", "-q"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("module patch"));
    assert!(String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn unrectifiable_exits_2() {
    let dir = tmpdir("unrect");
    let f = dir.join("faulty.v");
    let g = dir.join("golden.v");
    std::fs::write(
        &f,
        "module f (a, t, y, z); input a, t; output y, z;\nbuf g1 (y, t);\nbuf g2 (z, a);\nendmodule\n",
    )
    .expect("write");
    std::fs::write(
        &g,
        "module g (a, y, z); input a; output y, z;\nbuf g1 (y, a);\nnot g2 (z, a);\nendmodule\n",
    )
    .expect("write");
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "t"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrectifiable"));
}

#[test]
fn usage_errors_exit_1() {
    let out = bin().output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = bin().args(["--frobnicate"]).output().expect("run");
    assert_eq!(out.status.code(), Some(1));

    let out = bin()
        .args(["-f", "/nonexistent.v", "-g", "/nonexistent.v", "-t", "t"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));

    assert_usage_error(bin().args(["--timeout", "1e30"]), "--timeout");
}

/// Runs `cmd` and requires exit 1 with `flag` named on stderr, not a
/// panic.
fn assert_usage_error(cmd: &mut Command, flag: &str) {
    let out = cmd.output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{cmd:?}: {stderr}");
    assert!(stderr.contains(flag), "{cmd:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{cmd:?}: {stderr}");
}

/// A target named twice is refused with exit 1 naming it, in the
/// combinational and the `--unroll` flow: patching it would put two
/// drivers on one net.
#[test]
fn duplicate_targets_exit_1() {
    let dir = tmpdir("dup");
    let f = dir.join("faulty.v");
    let g = dir.join("golden.v");
    std::fs::write(&f, FAULTY).expect("write");
    std::fs::write(&g, GOLDEN).expect("write");
    for extra in [&[][..], &["--unroll", "2"]] {
        let mut cmd = bin();
        cmd.args(["-f", f.to_str().expect("path")])
            .args(["-g", g.to_str().expect("path")])
            .args(["-t", "t,t"])
            .args(extra);
        assert_usage_error(&mut cmd, "target `t` is declared more than once");
    }
}

/// Duration flags reject values no `Duration` (or deadline) can hold
/// instead of panicking in the conversion.
#[test]
fn duration_flags_reject_unrepresentable_values() {
    let batch = || Command::new(env!("CARGO_BIN_EXE_eco-batch"));
    let serve = || Command::new(env!("CARGO_BIN_EXE_eco-serve"));
    for value in ["-1", "nan", "1e30"] {
        assert_usage_error(
            batch().args(["run", "/nonexistent/m.toml", "--timeout", value]),
            "--timeout",
        );
        assert_usage_error(serve().args(["--stdio", "--timeout", value]), "--timeout");
    }
    assert_usage_error(
        serve().args([
            "client",
            "--socket",
            "/nonexistent/eco.sock",
            "--rate",
            "1e-20",
        ]),
        "--rate",
    );
}

/// Both crash-safe binaries spell resume one way: `--journal <dir>
/// --resume`. A bare `--resume` names the flag it needs; eco-serve's old
/// `--resume <dir>` form is refused.
#[test]
fn resume_requires_a_journal() {
    let batch = || Command::new(env!("CARGO_BIN_EXE_eco-batch"));
    let serve = || Command::new(env!("CARGO_BIN_EXE_eco-serve"));
    assert_usage_error(
        batch().args(["run", "/nonexistent/m.toml", "--resume"]),
        "--resume requires --journal",
    );
    assert_usage_error(
        serve().args(["--stdio", "--resume"]),
        "--resume requires --journal",
    );
    assert_usage_error(
        serve().args(["--resume", "/nonexistent/state", "--stdio"]),
        "unknown argument `/nonexistent/state`",
    );
}

#[test]
fn flag_variants_accepted() {
    let dir = tmpdir("flags");
    let f = dir.join("faulty.v");
    let g = dir.join("golden.v");
    std::fs::write(&f, FAULTY).expect("write");
    std::fs::write(&g, GOLDEN).expect("write");
    for extra in [
        vec!["--no-localization"],
        vec!["--no-optimize"],
        vec!["--initial", "interpolant"],
        vec!["--initial", "negoff"],
    ] {
        let out = bin()
            .args(["--faulty", f.to_str().expect("path")])
            .args(["--golden", g.to_str().expect("path")])
            .args(["--targets", "t", "-q"])
            .args(&extra)
            .output()
            .expect("run");
        assert!(out.status.success(), "args {extra:?}");
    }
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "t", "--initial", "bogus"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn blif_inputs_are_accepted() {
    let dir = tmpdir("blif");
    let f = dir.join("faulty.blif");
    let g = dir.join("golden.blif");
    std::fs::write(
        &f,
        ".model f\n.inputs a b c t\n.outputs y\n.names t c y\n10 1\n01 1\n.end\n",
    )
    .expect("write");
    std::fs::write(
        &g,
        ".model g\n.inputs a b c\n.outputs y\n.names a b w\n11 1\n\
         .names w c y\n10 1\n01 1\n.end\n",
    )
    .expect("write");
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "t", "-q"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let patch = String::from_utf8_lossy(&out.stdout);
    assert!(patch.contains("module patch"), "{patch}");
}

/// The combinational flow reads `.v` and `.blif` only: an AIGER pair is
/// refused by name with a pointer to eco-convert, while `--unroll` still
/// reads it through the format hub.
#[test]
fn aiger_pair_is_refused_by_the_combinational_flow() {
    let dir = tmpdir("aag");
    let mut aag = Vec::new();
    for (name, text) in [("faulty", FAULTY), ("golden", GOLDEN)] {
        let v = dir.join(format!("{name}.v"));
        let a = dir.join(format!("{name}.aag"));
        std::fs::write(&v, text).expect("write");
        let out = Command::new(env!("CARGO_BIN_EXE_eco-convert"))
            .args(["-i", v.to_str().expect("path")])
            .args(["-o", a.to_str().expect("path")])
            .output()
            .expect("convert");
        assert!(out.status.success(), "{out:?}");
        aag.push(a);
    }
    let run = |extra: &[&str]| {
        bin()
            .args(["-f", aag[0].to_str().expect("path")])
            .args(["-g", aag[1].to_str().expect("path")])
            .args(["-t", "t", "-q"])
            .args(extra)
            .output()
            .expect("run")
    };
    let out = run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let expected = format!(
        "error: {}: unsupported circuit extension `.aag`; expected .v or .blif \
         (convert other formats with eco-convert)",
        aag[0].display()
    );
    assert_eq!(stderr.trim_end(), expected);
    let out = run(&["--unroll", "1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--unroll K` runs the sequential flow on latch-BLIF inputs: the cut
/// output-cone net `w` (the AND of the two shift stages) is re-driven
/// by a time-invariant patch, proven over K frames.
#[test]
fn unroll_mode_patches_a_latch_design() {
    const SEQ_GOLDEN: &str = ".model sr\n.inputs d\n.outputs q\n\
                              .latch d s0 0\n.latch s0 s1 0\n\
                              .names s0 s1 w\n11 1\n.names w q\n1 1\n.end\n";
    const SEQ_FAULTY: &str = ".model sr\n.inputs d w\n.outputs q\n\
                              .latch d s0 0\n.latch s0 s1 0\n\
                              .names w q\n1 1\n.end\n";
    let dir = tmpdir("unroll");
    let f = dir.join("faulty.blif");
    let g = dir.join("golden.blif");
    let o = dir.join("patch.v");
    std::fs::write(&f, SEQ_FAULTY).expect("write");
    std::fs::write(&g, SEQ_GOLDEN).expect("write");
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "w"])
        .args(["--unroll", "3"])
        .args(["-o", o.to_str().expect("path")])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("patched and verified over 3 frames"),
        "stderr: {stderr}"
    );
    let patch = std::fs::read_to_string(&o).expect("patch file");
    let nl = eco_netlist::parse_verilog(&patch).expect("patch parses");
    assert_eq!(nl.outputs, vec!["w"]);
    // No frame-indexed names leak into the folded patch.
    assert!(!patch.contains('@'), "patch: {patch}");

    // A zero frame count is a usage error.
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "w"])
        .args(["--unroll", "0"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));

    // Without `--unroll` the combinational loader refuses the latches,
    // naming the file, its latch count and the flag that takes them.
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "w"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("faulty.blif: ")
            && stderr.contains("this design has 2 ")
            && stderr.contains("--unroll"),
        "stderr: {stderr}"
    );
}

/// Runs eco-patch on the FAULTY/GOLDEN pair with `extra` flags and
/// returns its stderr.
fn stats_stderr(tag: &str, extra: &[&str]) -> String {
    let dir = tmpdir(tag);
    let f = dir.join("faulty.v");
    let g = dir.join("golden.v");
    std::fs::write(&f, FAULTY).expect("write");
    std::fs::write(&g, GOLDEN).expect("write");
    let out = bin()
        .args(["-f", f.to_str().expect("path")])
        .args(["-g", g.to_str().expect("path")])
        .args(["-t", "t"])
        .args(extra)
        .output()
        .expect("run");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "stderr: {stderr}");
    stderr
}

/// `--stats=json` writes exactly one line: the telemetry object, with
/// nothing after it.
#[test]
fn stats_json_is_one_parseable_line() {
    let stderr = stats_stderr("statsjson", &["-q", "--stats=json"]);
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr:?}");
    assert!(stderr.ends_with("}\n"), "stderr: {stderr:?}");
    let eco_batch::json::Value::Obj(fields) =
        eco_batch::json::parse(stderr.trim_end()).expect("stderr parses as JSON")
    else {
        panic!("not an object: {stderr}");
    };
    for key in ["stages", "sat", "fraig", "governor", "memo"] {
        assert!(
            fields
                .iter()
                .any(|(k, v)| k == key && matches!(v, eco_batch::json::Value::Obj(_))),
            "no {key} object in {stderr}"
        );
    }
}

/// `--stats` prints the stage times and flow counters once, after the
/// report, and the stage list includes assembly.
#[test]
fn stats_text_prints_each_group_once() {
    let stderr = stats_stderr("statstext", &["--stats"]);
    assert!(stderr.starts_with("patched 1 target(s): cost"), "{stderr}");
    for label in ["stages:", "flow:", "sat:", "fraig:", "governor:", "memo:"] {
        let n = stderr.lines().filter(|l| l.starts_with(label)).count();
        assert_eq!(n, 1, "{label} printed {n} times: {stderr}");
    }
    assert!(stderr.contains("  assemble_ns "), "{stderr}");
}
