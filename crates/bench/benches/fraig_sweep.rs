//! Bench for the FRAIG stage (step 1 of the Fig.-1 flow).
//!
//! Every unit is a combined faulty+golden workspace like the engine
//! builds. Cutting several targets plants spuriously-equal candidate
//! pairs whose SAT counterexamples drive multiple refine rounds, so these
//! units exercise the incremental-resimulation hot path rather than the
//! single-round happy path.

use eco_bench::Bench;
use eco_core::{EcoInstance, Workspace};
use eco_fraig::{fraig_classes, FraigOptions};
use eco_netlist::Netlist;
use eco_workgen::{assign_weights, circuits, cut_targets, WeightProfile};

/// Builds the engine-style combined workspace with `n_cuts` targets cut
/// out of `golden` (spread across the wire list for varied cone shapes).
fn combined(golden: &Netlist, n_cuts: usize) -> Workspace {
    let targets: Vec<String> = golden
        .wires
        .iter()
        .rev()
        .step_by(3)
        .take(n_cuts)
        .cloned()
        .collect();
    let faulty = cut_targets(golden, &targets).expect("targets are driven");
    let weights = assign_weights(&faulty, WeightProfile::Unit, 1);
    let inst = EcoInstance::from_netlists("bench", &faulty, golden, targets, &weights)
        .expect("valid instance");
    Workspace::new(&inst)
}

fn main() {
    let units: Vec<(&str, Workspace)> = vec![
        ("datapath10x1", combined(&circuits::shared_datapath(10), 1)),
        ("datapath12x3", combined(&circuits::shared_datapath(12), 3)),
        ("datapath16x4", combined(&circuits::shared_datapath(16), 4)),
        ("mult6x3", combined(&circuits::multiplier(6), 3)),
        ("bshift16x2", combined(&circuits::barrel_shifter(16), 2)),
    ];

    let mut bench = Bench::from_env();
    for (name, ws) in &units {
        bench.run(&format!("sweep/{name}"), || {
            fraig_classes(&ws.mgr, &FraigOptions::default())
        });
    }
    bench.finish();
}
