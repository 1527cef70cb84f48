//! Benches regenerating the Table-2 timing series: full engine runs
//! (ours and baseline) per representative unit, and sequential vs.
//! parallel (`jobs = 4`) cluster scheduling on multi-cluster units.
//!
//! `cargo bench -p eco-bench --bench patch_generation -- --json BENCH_patchgen.json`

use eco_bench::Bench;
use eco_core::{EcoEngine, EcoOptions};
use eco_workgen::contest_suite;

fn main() {
    let mut bench = Bench::from_env();
    for unit in contest_suite() {
        // Representative subset: easy, medium, difficult.
        if !matches!(
            unit.spec.name.as_str(),
            "unit01" | "unit04" | "unit06" | "unit10" | "unit16"
        ) {
            continue;
        }
        let inst = unit.instance().expect("valid");
        bench.run(&format!("table2/ours/{}", unit.spec.name), || {
            EcoEngine::new(inst.clone(), EcoOptions::default())
                .run()
                .expect("rectifiable")
        });
        bench.run(&format!("table2/baseline/{}", unit.spec.name), || {
            EcoEngine::new(inst.clone(), EcoOptions::baseline())
                .run()
                .expect("rectifiable")
        });
    }

    // Cluster-parallel scheduling: the suite units whose clustering yields
    // several independent groups (unit11: 2, unit14: 4, unit20: 4),
    // sequential vs. four workers. On a single-core host the jobs=4
    // variant measures pure scheduling overhead, not speedup.
    for unit in contest_suite() {
        if !matches!(unit.spec.name.as_str(), "unit11" | "unit14" | "unit20") {
            continue;
        }
        let inst = unit.instance().expect("valid");
        for jobs in [1usize, 4] {
            let opts = EcoOptions {
                jobs,
                ..Default::default()
            };
            bench.run(&format!("jobs{}/{}", jobs, unit.spec.name), || {
                EcoEngine::new(inst.clone(), opts.clone())
                    .run()
                    .expect("rectifiable")
            });
        }
    }

    bench.note(
        "unit04/unit16 ours-vs-baseline before this series: 93.2ms vs 21.0ms (4.4x) and \
         57.4ms vs 9.1ms (6.3x); the gap was dominated by redundant decisions on retired \
         enumeration controls in the Eq.-12 query plus unpreprocessed Tseitin copies \
         (fixed by control retirement in cexenum and inprocessing in the SAT core)",
    );
    bench.finish();
}
