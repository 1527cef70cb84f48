//! Benches for the Eq.-12 rebasing machinery (Fig. 3): query
//! construction, feasibility checks, and full base selection.

use eco_bench::Bench;
use eco_core::{on_off_sets, select_base, EcoInstance, RebaseQuery, Workspace};
use eco_workgen::{assign_weights, cut_targets, WeightProfile};

fn setup() -> (Workspace, eco_aig::Lit, eco_aig::Lit, Vec<usize>) {
    let golden = eco_workgen::circuits::shared_datapath(8);
    let target = golden.wires.last().expect("wires").clone();
    let faulty = cut_targets(&golden, std::slice::from_ref(&target)).expect("target is driven");
    let weights = assign_weights(&faulty, WeightProfile::CheapWires { pi: 50, wire: 2 }, 3);
    let inst = EcoInstance::from_netlists("bench", &faulty, &golden, vec![target], &weights)
        .expect("valid");
    let mut ws = Workspace::new(&inst);
    let t = ws.target_vars[0];
    let (f, g) = (ws.f_outs.clone(), ws.g_outs.clone());
    let onoff = on_off_sets(&mut ws.mgr, &f, &g, t);
    // Pool: the 32 cheapest candidates.
    let mut pool: Vec<usize> = (0..ws.cands.len()).collect();
    pool.sort_by_key(|&i| (ws.cands[i].weight, ws.cands[i].name.clone()));
    pool.truncate(32);
    (ws, onoff.on, onoff.off, pool)
}

fn main() {
    let (ws, on, off, pool) = setup();

    let mut bench = Bench::from_env();
    bench.run("rebase/query_construction", || {
        RebaseQuery::new(&ws, on, off, pool.clone())
    });

    let mut q = RebaseQuery::new(&ws, on, off, pool.clone());
    bench.run("rebase/feasibility_sweep", || {
        for k in 1..pool.len().min(12) {
            let base: Vec<usize> = (0..k).collect();
            std::hint::black_box(q.feasible(&base, 100_000));
        }
    });

    bench.run("rebase/select_base_full", || {
        let mut q = RebaseQuery::new(&ws, on, off, pool.clone());
        let full: Vec<usize> = (0..pool.len()).collect();
        if q.feasible(&full, 100_000) == Some(true) {
            std::hint::black_box(select_base(&ws, &mut q, &full, 5, 50_000));
        }
    });
    bench.finish();
}
