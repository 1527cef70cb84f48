//! Developer harness: one cold cost-aware run and one PI-only baseline
//! run per requested suite unit (default: the solver-bound pair
//! unit04/unit16), printing wall time, final cost, and the full
//! telemetry block — per-stage timers, SAT/inprocessing counters — for
//! quick before/after comparisons while tuning.
//!
//! ```text
//! cargo run --release -p eco-bench --bin stage_profile [unit04 unit16 ...]
//! ```

use eco_core::{EcoEngine, EcoOptions};
use eco_workgen::contest_suite;

fn main() {
    let mut units: Vec<String> = std::env::args().skip(1).collect();
    if units.is_empty() {
        units = vec!["unit04".into(), "unit16".into()];
    }
    for unit in contest_suite() {
        if !units.iter().any(|u| u == &unit.spec.name) {
            continue;
        }
        let inst = unit.instance().expect("valid");
        for (tag, opts) in [
            ("ours", EcoOptions::default()),
            ("base", EcoOptions::baseline()),
        ] {
            let t0 = std::time::Instant::now();
            let r = EcoEngine::new(inst.clone(), opts)
                .run()
                .expect("rectifiable");
            let wall = t0.elapsed();
            println!(
                "== {} {} wall={:?} cost={}",
                unit.spec.name, tag, wall, r.cost
            );
            println!("{}", r.telemetry.with_peak_rss());
        }
    }
}
