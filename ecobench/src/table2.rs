//! `table2`: the paper's Table-2 workload.
//!
//! The 20 contest units run cold and closed-loop, one unit at a time,
//! each timed from `EcoInstance::from_netlists` through `EcoEngine::run`
//! with `EcoOptions::default()` (jobs = cores) and no memo. SAT,
//! interpolation, FRAIG and the §6 optimizer do almost all the work;
//! parsing, memo, serve and seq do none.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use eco_aig::SplitMix64;
use eco_core::{EcoEngine, EcoOptions, EcoResult, Workspace};
use eco_netlist::{netlist_from_aig, write_verilog};
use eco_workgen::{build_unit, suite_specs, SuiteUnit, UnitSpec};

use crate::metrics::Values;
use crate::stats::{geomean, min};
use crate::{add_telemetry, oracle, unit_passes, Outcome, RunConfig, Setup, SMOKE_UNITS};

/// Simulation words for `aig.sim_ns`.
const SIM_WORDS: usize = 64;

/// The suite specifications for instance seed `instances`. Seed 0 is
/// `suite_specs()` exactly; any other seed re-draws each spec's
/// target/weight seed and keeps its family, target count, bias and
/// weight profile.
pub fn specs(instances: u64) -> Vec<UnitSpec> {
    let mut specs = suite_specs();
    if instances != 0 {
        for spec in &mut specs {
            let mix = instances.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ spec.seed;
            spec.seed = SplitMix64::new(mix).next_u64();
        }
    }
    specs
}

/// One cold solve of `unit`, from instance construction on.
fn solve(unit: &SuiteUnit, opts: EcoOptions) -> Result<EcoResult, String> {
    unit.instance()
        .and_then(|inst| EcoEngine::new(inst, opts).run())
        .map_err(|e| e.to_string())
}

/// One traced solve: the same solve plus timed calls into the instance,
/// the combined AIG, the simulator and the Verilog writer, and the run's
/// telemetry.
fn traced_solve(unit: &SuiteUnit, seed: u64, v: &mut Values) -> Result<EcoResult, String> {
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let inst = unit.instance();
    v.add("core.instance_ns", ns(t));
    let inst = inst.map_err(|e| e.to_string())?;
    let ws = Workspace::new(&inst);
    v.add("aig.nodes", ws.mgr.len() as f64);
    let t = Instant::now();
    black_box(ws.mgr.simulate_random(SIM_WORDS, seed));
    v.add("aig.sim_ns", ns(t));
    let r = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .map_err(|e| e.to_string())?;
    add_telemetry(v, &r.telemetry);
    let t = Instant::now();
    black_box(write_verilog(&netlist_from_aig(&r.patch_aig, "patch")));
    v.add("netlist.write_ns", ns(t));
    Ok(r)
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Outcome {
    let specs: Vec<UnitSpec> = specs(cfg.instances)
        .into_iter()
        .filter(|s| !cfg.smoke || SMOKE_UNITS.contains(&s.name.as_str()))
        .collect();
    let units: Vec<SuiteUnit> = specs.iter().map(build_unit).collect();
    let mut setup = Setup::new(|| {
        black_box(specs.iter().map(build_unit).collect::<Vec<_>>());
    });
    setup.sample();
    let names: Vec<String> = units.iter().map(|u| u.spec.name.clone()).collect();

    // The PI-only baseline of the paper's Table 2, run off the clock
    // after each traced pass: per unit, its times and (cost, size).
    let baseline = RefCell::new(vec![(Vec::new(), None); units.len()]);
    let mut out = Outcome::default();
    let passes = unit_passes(
        cfg,
        &names,
        &mut out,
        |i| solve(&units[i], EcoOptions::default()),
        |i, v| traced_solve(&units[i], cfg.seed, v),
        |tracing| {
            if !tracing {
                setup.sample();
                return;
            }
            for (unit, (times, result)) in units.iter().zip(baseline.borrow_mut().iter_mut()) {
                let t0 = Instant::now();
                let r = solve(unit, EcoOptions::baseline());
                times.push(t0.elapsed().as_secs_f64() * 1e3);
                *result = r.ok().map(|r| (r.cost, r.size));
            }
        },
        |r| (r.cost, r.size as u64),
    );

    // The oracle, outside every timed region.
    let (mut cost_total, mut size_total) = (0u64, 0u64);
    for (unit, result) in units.iter().zip(&passes.first) {
        let Some(r) = result else { continue };
        cost_total += r.cost;
        size_total += r.size as u64;
        out.output
            .push_str(&format!("{} {} {}\n", unit.spec.name, r.cost, r.size));
        if let Err(e) = oracle::check_comb(&unit.faulty, &unit.golden, &r.patch_aig, cfg.seed) {
            out.mismatches.push(format!("{}: {e}", unit.spec.name));
        }
    }

    out.metrics = if cfg.trace {
        let mut v = passes.per_layer(&out);
        let per_unit = passes.per_unit_ms();
        let (mut rc, mut rs, mut rt) = (Vec::new(), Vec::new(), Vec::new());
        for (i, (times, base)) in baseline.borrow().iter().enumerate() {
            if let (Some(ours), Some((bc, bs))) = (&passes.first[i], *base) {
                rc.push(bc.max(1) as f64 / ours.cost.max(1) as f64);
                rs.push(bs.max(1) as f64 / ours.size.max(1) as f64);
                rt.push(min(times) / per_unit[i]);
            }
        }
        v.set("table2.rcost_geomean", geomean(&rc));
        v.set("table2.rsize_geomean", geomean(&rs));
        v.set("table2.rtime_geomean", geomean(&rt));
        v
    } else {
        passes.end_to_end(setup.seconds(), cost_total, size_total)
    };
    out.context = vec![
        (
            "load",
            "\"closed loop, one unit at a time, cold, no memo\"".into(),
        ),
        ("connections", "0".into()),
        ("threads", "\"jobs = nproc\"".into()),
        ("setup_reps", setup.reps().to_string()),
    ];
    out.context.extend(passes.context());
    out
}
