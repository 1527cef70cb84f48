//! A harder workload: rectify two cut nets inside a 4×4 array multiplier
//! and inspect the per-stage timing of the flow (Fig. 1 of the paper).
//!
//! Run with `cargo run --release --example multiplier_eco`.

use std::time::Duration;

use eco::core::{EcoEngine, EcoInstance, EcoOptions, Stage};
use eco::workgen::{assign_weights, build_unit, Family, TargetBias, UnitSpec, WeightProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = UnitSpec {
        name: "mult4_eco".into(),
        family: Family::Multiplier(4),
        n_targets: 2,
        bias: TargetBias::Deep,
        weights: WeightProfile::CheapWires { pi: 40, wire: 2 },
        difficult: true,
        seed: 2026,
    };
    let unit = build_unit(&spec);
    println!(
        "golden: {} gates, faulty floats {:?}",
        unit.golden.num_gates(),
        unit.targets
    );

    let instance: EcoInstance = unit.instance()?;
    let result = EcoEngine::new(instance, EcoOptions::default()).run()?;

    println!("\ncost {}, size {} AND gates", result.cost, result.size);
    for patch in &result.patches {
        println!("  {} <- f({})", patch.target, patch.base.join(", "));
    }
    println!("\nstage times (Fig. 1):");
    for stage in Stage::ALL {
        let t = Duration::from_nanos(result.telemetry.stage_nanos(stage));
        println!("  {:<10} {t:>8.2?}", stage.name());
    }

    // The weights module is also usable standalone:
    let _ = assign_weights(&unit.faulty, WeightProfile::Unit, 0);
    Ok(())
}
