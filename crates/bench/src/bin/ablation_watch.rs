//! Ablation B (§6.2 trade-off): sensitivity to the Watch-window size β.
//!
//! The paper reports `|Watch| = β = 5` as a good quality/performance
//! trade-off; this sweep reproduces the trade-off curve on units with
//! non-trivial bases.

use std::time::Instant;

use eco_core::{EcoEngine, EcoOptions};
use eco_workgen::contest_suite;

fn main() {
    let betas = [1usize, 3, 5, 8];
    println!("Ablation B: Watch-window size beta sweep");
    print!("{:<8} {:>4} |", "unit", "tgts");
    for b in betas {
        print!(" {:>8} {:>8} |", format!("cost b{b}"), format!("time b{b}"));
    }
    println!();
    for unit in contest_suite() {
        if !matches!(
            unit.spec.name.as_str(),
            "unit03" | "unit05" | "unit09" | "unit10" | "unit16"
        ) {
            continue;
        }
        let inst = unit.instance().expect("valid");
        print!("{:<8} {:>4} |", unit.spec.name, unit.spec.n_targets);
        for beta in betas {
            let opts = EcoOptions {
                watch_size: beta,
                ..Default::default()
            };
            let t0 = Instant::now();
            let r = EcoEngine::new(inst.clone(), opts)
                .run()
                .expect("rectifiable");
            print!(" {:>8} {:>8.2} |", r.cost, t0.elapsed().as_secs_f64());
        }
        println!();
    }
}
