//! Regenerates Table 2: cost / size / time, baseline vs ours, 20 units.

use std::time::Instant;

use eco_core::{render_counters, EcoEngine, EcoOptions};
use eco_workgen::contest_suite;

struct Row {
    name: String,
    n_targets: usize,
    difficult: bool,
    base_cost: u64,
    base_size: usize,
    base_time: f64,
    our_cost: u64,
    our_size: usize,
    our_time: f64,
}

fn run(unit: &eco_workgen::SuiteUnit, opts: EcoOptions) -> (u64, usize, f64) {
    let inst = unit.instance().expect("valid instance");
    let t0 = Instant::now();
    let result = EcoEngine::new(inst, opts)
        .run()
        .expect("rectifiable by construction");
    eprintln!(
        "    stages: {}",
        render_counters(&result.telemetry.stage_fields(), false)
    );
    (result.cost, result.size, t0.elapsed().as_secs_f64())
}

fn main() {
    let mut only: Vec<String> = std::env::args().skip(1).collect();
    let stress = only.iter().any(|a| a == "--stress");
    only.retain(|a| a != "--stress");
    let units = if stress {
        eco_workgen::stress_suite()
    } else {
        contest_suite()
    };
    let mut rows = Vec::new();
    for unit in units {
        if !only.is_empty() && !only.contains(&unit.spec.name) {
            continue;
        }
        let (bc, bs, bt) = run(&unit, EcoOptions::baseline());
        let (oc, os, ot) = run(&unit, EcoOptions::default());
        let row = Row {
            name: unit.spec.name.clone(),
            n_targets: unit.spec.n_targets,
            difficult: unit.spec.difficult,
            base_cost: bc,
            base_size: bs,
            base_time: bt,
            our_cost: oc,
            our_size: os,
            our_time: ot,
        };
        eprintln!(
            "{}{}: baseline cost {} size {} t {:.2}s | ours cost {} size {} t {:.2}s",
            row.name,
            if row.difficult { "*" } else { "" },
            bc,
            bs,
            bt,
            oc,
            os,
            ot
        );
        rows.push(row);
    }

    println!(
        "\nTable 2 (reproduction): baseline (PI-support, no localization, no cost opt) vs ours"
    );
    println!(
        "{:<8} {:>7} | {:>9} {:>6} {:>8} | {:>9} {:>6} {:>8} | {:>6} {:>6} {:>6}",
        "unit",
        "#target",
        "cost",
        "size",
        "time",
        "cost",
        "size",
        "time",
        "rcost",
        "rsize",
        "rtime"
    );
    let (mut pc, mut ps, mut pt) = (0.0f64, 0.0f64, 0.0f64);
    let mut n = 0;
    for r in &rows {
        let rc = r.base_cost.max(1) as f64 / r.our_cost.max(1) as f64;
        let rs = r.base_size.max(1) as f64 / r.our_size.max(1) as f64;
        let rt = if r.our_time > 0.0 {
            r.base_time / r.our_time
        } else {
            1.0
        };
        pc += rc.ln();
        ps += rs.ln();
        pt += rt.ln();
        n += 1;
        println!(
            "{:<8} {:>7} | {:>9} {:>6} {:>8.2} | {:>9} {:>6} {:>8.2} | {:>6.2} {:>6.2} {:>6.2}",
            format!("{}{}", r.name, if r.difficult { "*" } else { "" }),
            r.n_targets,
            r.base_cost,
            r.base_size,
            r.base_time,
            r.our_cost,
            r.our_size,
            r.our_time,
            rc,
            rs,
            rt
        );
    }
    if n > 0 {
        println!(
            "{:<8} {:>7} | {:>9} {:>6} {:>8} | {:>9} {:>6} {:>8} | {:>6.2} {:>6.2} {:>6.2}",
            "geomean",
            "",
            "",
            "",
            "",
            "",
            "",
            "",
            (pc / n as f64).exp(),
            (ps / n as f64).exp(),
            (pt / n as f64).exp()
        );
        println!("\nratios are baseline/ours (paper reports winner/ours; >1 means ours is better)");
        println!("* = difficult unit (paper's units 6, 10, 11, 19 analogues)");
    }
}
