//! Developer harness: stage-by-stage growth profiling of one suite unit.

use eco_core::{cluster_targets, on_off_sets, Workspace};
use eco_workgen::contest_suite;
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "unit17".into());
    let unit = contest_suite()
        .into_iter()
        .find(|u| u.spec.name == name)
        .expect("unit exists");
    let inst = unit.instance().expect("valid");
    let mut ws = Workspace::new(&inst);
    eprintln!("initial manager: {} nodes", ws.mgr.len());
    let clustering = cluster_targets(&ws);
    eprintln!(
        "clusters: {:?}",
        clustering
            .clusters
            .iter()
            .map(|c| (c.targets.len(), c.outputs.len()))
            .collect::<Vec<_>>()
    );
    for cluster in &clustering.clusters {
        // Manual phase-1 walk with growth reporting.
        let mut f_cur: Vec<_> = cluster.outputs.iter().map(|&j| ws.f_outs[j]).collect();
        let g_cur: Vec<_> = cluster.outputs.iter().map(|&j| ws.g_outs[j]).collect();
        for &k in &cluster.targets {
            let t0 = Instant::now();
            let t = ws.target_vars[k];
            let onoff = on_off_sets(&mut ws.mgr, &f_cur, &g_cur, t);
            let mut map = HashMap::new();
            map.insert(t, onoff.on);
            f_cur = ws.mgr.substitute(&f_cur, &map);
            eprintln!(
                "  target {k}: manager {} nodes, on-cone {} ands, {:.2}s",
                ws.mgr.len(),
                ws.mgr.count_cone_ands(&[onoff.on]),
                t0.elapsed().as_secs_f64()
            );
        }
    }
}
