//! `seq_unroll`: the sequential flow.
//!
//! Seeded `gen_seq_unit` cases from both families (shift-register banks
//! at even indices, random sequential DAGs at odd ones) are serialized
//! as BTOR2 during set-up. Each timed case parses both designs with
//! `eco_seq::read_design` and runs `SeqEcoEngine` at the fixed depth
//! [`DEPTH`]. Unrolling, folding and the k-frame re-proof run only here.
//! Candidates that admit no time-invariant fold at that depth are left
//! out before timing starts.

use std::hint::black_box;
use std::time::Instant;

use eco_core::{EcoOptions, Stage};
use eco_netlist::WeightTable;
use eco_seq::{read_design, unroll, Format, SeqEcoEngine, SeqEcoOptions, SeqEcoResult, SeqNetlist};
use eco_workgen::gen_seq_unit;

use crate::metrics::Values;
use crate::{add_telemetry, oracle, unit_passes, Outcome, RunConfig, Setup};

/// Unroll depth K.
pub const DEPTH: usize = 8;
/// Cases per pass.
pub const CASES: usize = 16;
/// Generator seed of instance set 0.
const BASE_SEED: u64 = 5;
const SMOKE_CASES: usize = 4;
const SMOKE_DEPTH: usize = 4;

/// One case: its BTOR2 designs and rectification inputs.
struct Case {
    name: String,
    golden: Vec<u8>,
    faulty: Vec<u8>,
    targets: Vec<String>,
    weights: WeightTable,
}

/// Generates `count` cases for instance seed `instances`. A random-DAG
/// case carries two targets, a shift-register case one; an index whose
/// design has too few fault sites is skipped.
fn cases(instances: u64, count: usize) -> Vec<Case> {
    let seed = BASE_SEED.wrapping_add(instances.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut out = Vec::with_capacity(count);
    let mut index = 0u64;
    while out.len() < count {
        if let Some(unit) = gen_seq_unit(index, seed, 1 + (index % 2) as usize) {
            let btor2 =
                |d: &SeqNetlist| eco_seq::write_design(Format::Btor2, d).expect("BTOR2 writes");
            out.push(Case {
                golden: btor2(&unit.golden),
                faulty: btor2(&unit.faulty),
                name: unit.name,
                targets: unit.targets,
                weights: unit.weights,
            });
        }
        index += 1;
    }
    out
}

/// Parses both designs.
fn parse(case: &Case) -> Result<(SeqNetlist, SeqNetlist), String> {
    let read = |b: &[u8]| read_design(Format::Btor2, b).map_err(|e| e.to_string());
    Ok((read(&case.faulty)?, read(&case.golden)?))
}

/// Rectifies parsed designs at depth `k`.
fn rectify(
    case: &Case,
    faulty: SeqNetlist,
    golden: SeqNetlist,
    k: usize,
) -> Result<SeqEcoResult, String> {
    let options = SeqEcoOptions {
        frames: k,
        eco: EcoOptions::default(),
    };
    SeqEcoEngine::new(
        faulty,
        golden,
        case.targets.clone(),
        case.weights.clone(),
        options,
    )
    .and_then(|engine| engine.run())
    .map_err(|e| e.to_string())
}

/// One traced case: parse, a separate unroll of both designs, and the
/// engine run split into its inner combinational stages and the rest
/// (unroll, fold and re-proof).
fn traced_case(case: &Case, k: usize, v: &mut Values) -> Result<SeqEcoResult, String> {
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let (faulty, golden) = parse(case)?;
    v.add("seq.parse_ns", ns(t));
    let t = Instant::now();
    for design in [&faulty, &golden] {
        black_box(unroll(design, k).map_err(|e| e.to_string())?);
    }
    let unroll_ns = ns(t);
    v.add("seq.unroll_ns", unroll_ns);
    let t = Instant::now();
    let r = rectify(case, faulty, golden, k)?;
    let engine_ns = ns(t);
    let tel = &r.comb.telemetry;
    // Fraig runs inside patch generation; count it once.
    let comb_ns: f64 = Stage::ALL
        .iter()
        .filter(|&&s| s != Stage::Fraig)
        .map(|&s| tel.stage_nanos(s) as f64)
        .sum();
    v.add("seq.comb_ns", comb_ns);
    v.add(
        "seq.fold_reprove_ns",
        (engine_ns - comb_ns - unroll_ns).max(0.0),
    );
    v.add("seq.sat_conflicts", tel.sat.conflicts as f64);
    v.add("seq.patch_size", r.size as f64);
    add_telemetry(v, tel);
    Ok(r)
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Outcome {
    let (count, k) = if cfg.smoke {
        (SMOKE_CASES, SMOKE_DEPTH)
    } else {
        (CASES, DEPTH)
    };
    let candidates = cases(cfg.instances, 2 * count);
    let mut setup = Setup::new(|| {
        black_box(cases(cfg.instances, 2 * count));
    });
    setup.sample();
    // Off the clock, keep the first `count` candidates that fold at this
    // depth: a target feeding latch logic has no time-invariant patch,
    // and a timed operation must not fail.
    let cases: Vec<Case> = candidates
        .into_iter()
        .filter(|c| parse(c).and_then(|(f, g)| rectify(c, f, g, k)).is_ok())
        .take(count)
        .collect();
    let names: Vec<String> = cases.iter().map(|c| c.name.clone()).collect();
    let mut out = Outcome::default();
    let passes = unit_passes(
        cfg,
        &names,
        &mut out,
        |i| parse(&cases[i]).and_then(|(f, g)| rectify(&cases[i], f, g, k)),
        |i, v| traced_case(&cases[i], k, v),
        |tracing| {
            if !tracing {
                setup.sample();
            }
        },
        |r| (r.cost, r.size as u64),
    );

    // The oracle, outside every timed region: splice each folded patch
    // into the faulty design and simulate K cycles against the golden.
    let (mut cost_total, mut size_total) = (0u64, 0u64);
    for (case, result) in cases.iter().zip(&passes.first) {
        let Some(r) = result else { continue };
        cost_total += r.cost;
        size_total += r.size as u64;
        out.output
            .push_str(&format!("{} {} {}\n", case.name, r.cost, r.size));
        let checked =
            parse(case).and_then(|(f, g)| oracle::check_seq(&f, &g, &r.patch_aig, k, cfg.seed));
        if let Err(e) = checked {
            out.mismatches.push(format!("{}: {e}", case.name));
        }
    }

    out.metrics = if cfg.trace {
        passes.per_layer(&out)
    } else {
        passes.end_to_end(setup.seconds(), cost_total, size_total)
    };
    out.context = vec![
        ("load", "\"closed loop, one case at a time\"".into()),
        ("connections", "0".into()),
        ("threads", "\"jobs = nproc\"".into()),
        ("depth", k.to_string()),
        ("setup_reps", setup.reps().to_string()),
    ];
    out.context.extend(passes.context());
    out
}
