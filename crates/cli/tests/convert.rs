//! End-to-end tests of the `eco-convert` binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eco-convert"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-convert-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

const SRC: &str = "module m (a, b, c, y, z);\ninput a, b, c;\noutput y, z;\n\
                   wire w;\nand g1 (w, a, b);\nxor g2 (y, w, c);\nnor g3 (z, a, c);\nendmodule\n";

/// A 2-stage shift register with an AND tap: latch-bearing BLIF.
const SEQ_SRC: &str = ".model sr\n.inputs d\n.outputs q\n\
                       .latch w s0 0\n.latch s0 s1 0\n\
                       .names s0 s1 q\n11 1\n.names d w\n1 1\n.end\n";

fn eval_file(path: &PathBuf, vals: &[bool]) -> Vec<bool> {
    let name = path.to_str().expect("utf8 path");
    let aig = match path.extension().and_then(|e| e.to_str()) {
        Some("v") => {
            let nl = eco_netlist::parse_verilog(&std::fs::read_to_string(path).expect("read"))
                .expect("verilog parses");
            eco_netlist::elaborate(&nl).expect("elaborates").aig
        }
        Some("blif") => {
            eco_netlist::parse_blif(&std::fs::read_to_string(path).expect("read"))
                .expect("blif parses")
                .aig
        }
        Some("aag") => {
            eco_aig::parse_aiger_ascii(&std::fs::read_to_string(path).expect("read"))
                .expect("aag parses")
                .0
        }
        Some("aig") => {
            eco_aig::parse_aiger_binary(&std::fs::read(path).expect("read"))
                .expect("aig parses")
                .0
        }
        Some("btor2") => {
            eco_seq::parse_btor2(&std::fs::read_to_string(path).expect("read"))
                .expect("btor2 parses")
                .aig
        }
        other => panic!("unexpected extension {other:?} for {name}"),
    };
    aig.eval(vals)
}

#[test]
fn all_format_chains_preserve_semantics() {
    let dir = tmpdir("chain");
    let v0 = dir.join("m.v");
    std::fs::write(&v0, SRC).expect("write");
    // v -> blif -> aag -> aig -> btor2 -> v
    let chain = [
        dir.join("m.blif"),
        dir.join("m.aag"),
        dir.join("m.aig"),
        dir.join("m.btor2"),
        dir.join("m2.v"),
    ];
    let mut prev = v0.clone();
    for next in &chain {
        let out = bin()
            .args(["-i", prev.to_str().expect("path")])
            .args(["-o", next.to_str().expect("path")])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{prev:?} -> {next:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        prev = next.clone();
    }
    for bits in 0u32..8 {
        let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
        let want = eval_file(&v0, &vals);
        for f in &chain {
            assert_eq!(eval_file(f, &vals), want, "{f:?} at {vals:?}");
        }
    }
}

#[test]
fn sequential_designs_convert_between_latch_formats() {
    let dir = tmpdir("seq");
    let b0 = dir.join("sr.blif");
    std::fs::write(&b0, SEQ_SRC).expect("write");
    // blif -> btor2 -> aag -> aig -> blif, latches preserved throughout.
    let chain = [
        dir.join("sr.btor2"),
        dir.join("sr.aag"),
        dir.join("sr.aig"),
        dir.join("sr2.blif"),
    ];
    let mut prev = b0.clone();
    for next in &chain {
        let out = bin()
            .args(["-i", prev.to_str().expect("path")])
            .args(["-o", next.to_str().expect("path")])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{prev:?} -> {next:?}: {stderr}");
        assert!(stderr.contains("2 latches"), "stderr: {stderr}");
        prev = next.clone();
    }
    // Cycle-accurate behavior survives the full chain.
    let d0 = eco_seq::read_design(eco_seq::Format::Blif, &std::fs::read(&b0).expect("read"))
        .expect("parses");
    let d1 = eco_seq::read_design(
        eco_seq::Format::Blif,
        &std::fs::read(&chain[3]).expect("read"),
    )
    .expect("parses");
    for bits in 0u32..64 {
        let stim: Vec<Vec<bool>> = (0..6).map(|f| vec![bits >> f & 1 == 1]).collect();
        assert_eq!(d0.simulate(&stim), d1.simulate(&stim), "{bits:#b}");
    }
}

#[test]
fn sequential_to_verilog_fails_with_typed_error() {
    let dir = tmpdir("seqv");
    let b0 = dir.join("sr.blif");
    std::fs::write(&b0, SEQ_SRC).expect("write");
    let out = bin()
        .args(["-i", b0.to_str().expect("path")])
        .args(["-o", dir.join("sr.v").to_str().expect("path")])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("combinational-only"), "stderr: {stderr}");
    assert!(stderr.contains("latches"), "stderr: {stderr}");
}

#[test]
fn cnf_export_and_no_reimport() {
    let dir = tmpdir("cnf");
    let v0 = dir.join("m.v");
    std::fs::write(&v0, SRC).expect("write");
    let cnf = dir.join("m.cnf");
    let out = bin()
        .args(["-i", v0.to_str().expect("path")])
        .args(["-o", cnf.to_str().expect("path")])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&cnf).expect("read");
    assert!(text.contains("p cnf "), "missing header: {text}");
    assert!(text.contains("c input a "), "missing input map: {text}");
    assert!(text.contains("c output y "), "missing output map: {text}");
    // CNF cannot be read back.
    let out = bin()
        .args(["-i", cnf.to_str().expect("path")])
        .args(["-o", dir.join("m2.v").to_str().expect("path")])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("export-only"));
}

#[test]
fn stdin_stdout_with_format_overrides() {
    use std::io::Write as _;
    let mut child = bin()
        .args(["-i", "-", "--from", "blif", "-o", "-", "--to", "btor2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(SEQ_SRC.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.starts_with("1 sort bitvec 1"), "stdout: {text}");
    assert!(text.contains(" state 1 "), "stdout: {text}");

    // `-` without --from is a typed error.
    let out = bin()
        .args(["-i", "-", "-o", "x.blif"])
        .stdin(Stdio::null())
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--from"));
}

#[test]
fn reports_stats_on_stderr() {
    let dir = tmpdir("stats");
    let v0 = dir.join("m.v");
    std::fs::write(&v0, SRC).expect("write");
    let out = bin()
        .args(["-i", v0.to_str().expect("path")])
        .args(["-o", dir.join("m.blif").to_str().expect("path")])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 inputs, 2 outputs"), "stderr: {stderr}");
    assert!(stderr.contains("0 latches"), "stderr: {stderr}");
}

#[test]
fn bad_usage_and_formats_fail() {
    let out = bin().output().expect("run");
    assert_eq!(out.status.code(), Some(1));

    let dir = tmpdir("bad");
    let v0 = dir.join("m.v");
    std::fs::write(&v0, SRC).expect("write");
    // Unknown extension: the error names the path, the extension, and
    // the supported set.
    let out = bin()
        .args(["-i", v0.to_str().expect("path")])
        .args(["-o", dir.join("m.xyz").to_str().expect("path")])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown extension `.xyz`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains(".btor2"), "stderr: {stderr}");
    assert!(stderr.contains("--from/--to"), "stderr: {stderr}");

    // Unknown --to name lists the supported formats.
    let out = bin()
        .args(["-i", v0.to_str().expect("path")])
        .args(["-o", dir.join("m.out").to_str().expect("path")])
        .args(["--to", "edif"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown format `edif`"), "stderr: {stderr}");

    // --to overrides a wrong extension.
    let out = bin()
        .args(["-i", v0.to_str().expect("path")])
        .args(["-o", dir.join("m.out").to_str().expect("path")])
        .args(["--to", "aag"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(dir.join("m.out"))
        .expect("read")
        .starts_with("aag "));

    let out = bin()
        .args([
            "-i",
            "/nonexistent.v",
            "-o",
            dir.join("x.blif").to_str().expect("path"),
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
}
