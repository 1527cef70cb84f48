//! Cost-aware base selection (§6.2): the Watch/Hold rotation with
//! cost-per-blocking (CPB) greedy selection.

use crate::cexenum::{enumerate_cex, CexSet};
use crate::rebase::RebaseQuery;
use crate::Workspace;

/// SAT conflict budget of each feasibility and enumeration query, before
/// the governor's cap ([`crate::Budget::cap`]).
pub(crate) const SELECT_CONFLICTS: u64 = 50_000;

/// Hard cap on rotation rounds (the paper rotates `|B|` times).
const MAX_ROUNDS: usize = 6;

/// Cap on candidates probed per round: the cheapest `MAX_PROBES`
/// non-Hold candidates (the paper probes all of `B' \ Hold`; the cap
/// bounds the `2^|Watch| × |B'|` SAT-iteration budget).
const MAX_PROBES: usize = 24;

/// Result of base selection.
#[derive(Clone, Debug)]
pub struct SelectedBase {
    /// Pool indices of the best feasible base found.
    pub base: Vec<usize>,
    /// Its total weight.
    pub cost: u64,
    /// Rounds executed.
    pub rounds: usize,
}

fn cost_of(ws: &Workspace, q: &RebaseQuery, base: &[usize]) -> u64 {
    base.iter().map(|&i| ws.cands[q.pool()[i]].weight).sum()
}

/// Runs the §6.2 procedure: starting from a feasible `initial_base`
/// (pool indices), repeatedly watch the β = `watch_size` heaviest
/// signals, collect
/// counterexample projections per candidate, greedily re-select signals by
/// minimal CPB until feasible, and keep the cheapest feasible base seen.
///
/// Deviation from the paper, documented here because Eq. (13) is
/// ill-defined for the first pick (`cex_0` is empty): we seed the
/// blocking pool with the union of all candidates' projections, so the
/// first CPB denominator is "projections of the pool that the candidate
/// blocks". This preserves the stated intuition (prefer cheap signals that
/// block many counterexamples).
///
/// Every feasibility and enumeration solve runs under
/// `conflict_budget`; a query that exhausts it ends the selection with
/// the cheapest base found so far.
///
/// `initial_base` must be feasible for `q`; the caller has proved it.
/// It is not re-checked here, in any build: a check is one more solve on
/// `q`, and it would make debug builds search differently from release
/// builds.
pub fn select_base(
    ws: &Workspace,
    q: &mut RebaseQuery,
    initial_base: &[usize],
    watch_size: usize,
    conflict_budget: u64,
) -> SelectedBase {
    let pool_weights: Vec<u64> = q.pool().iter().map(|&i| ws.cands[i].weight).collect();
    let weight = move |i: usize| pool_weights[i];

    let mut best = initial_base.to_vec();
    let mut best_cost = cost_of(ws, q, &best);

    // Step 1: sort by weight, non-increasing; split Watch/Hold.
    let mut sorted = initial_base.to_vec();
    sorted.sort_by(|&a, &b| weight(b).cmp(&weight(a)).then(a.cmp(&b)));
    let beta = watch_size.max(1);
    let mut watch: Vec<usize> = sorted.iter().copied().take(beta).collect();
    let mut hold: Vec<usize> = sorted.iter().copied().skip(beta).collect();

    let total_rounds = initial_base.len().clamp(1, MAX_ROUNDS);
    let mut rounds = 0;
    for _round in 0..total_rounds {
        rounds += 1;
        // Step 2: per-candidate counterexample projections — cheapest
        // candidates first, capped.
        let pool_size = q.pool().len();
        let mut cex: Vec<Option<CexSet>> = vec![None; pool_size];
        let mut budget_ok = true;
        let mut probe_order: Vec<usize> = (0..pool_size).filter(|b| !hold.contains(b)).collect();
        probe_order.sort_by_key(|&b| (weight(b), b));
        probe_order.truncate(MAX_PROBES.max(watch.len() + 1));
        // Watched (tentatively removed) signals must stay probe-able, or
        // the greedy loop could not re-add them.
        for &w in &watch {
            if !probe_order.contains(&w) {
                probe_order.push(w);
            }
        }
        for b in probe_order {
            match enumerate_cex(q, &hold, Some(b), &watch, conflict_budget) {
                Some(set) => cex[b] = Some(set),
                None => {
                    budget_ok = false;
                    break;
                }
            }
        }
        if !budget_ok {
            break;
        }

        // Pool of projections any probe left unblocked.
        let mut pool_cex = CexSet::default();
        for set in cex.iter().flatten() {
            pool_cex.union_with(set);
        }

        // Step 3: greedy CPB until Hold ∪ Γ is feasible.
        let mut gamma: Vec<usize> = Vec::new();
        loop {
            let mut selection: Vec<usize> = hold.clone();
            selection.extend(&gamma);
            match q.feasible(&selection, conflict_budget) {
                Some(true) => break,
                None => {
                    budget_ok = false;
                    break;
                }
                Some(false) => {}
            }
            // Pick min CPB = W(b') / |newly blocked|.
            let mut pick: Option<(usize, f64)> = None;
            for (b, probe_cex) in cex.iter().enumerate() {
                if hold.contains(&b) || gamma.contains(&b) {
                    continue;
                }
                let Some(set) = probe_cex else { continue };
                let blocked = pool_cex.count_not_in(set);
                let score = if blocked == 0 {
                    // Blocks nothing we know of: de-prioritize by weight.
                    f64::INFINITY
                } else {
                    weight(b) as f64 / blocked as f64
                };
                match pick {
                    Some((_, s)) if s <= score => {}
                    _ => pick = Some((b, score)),
                }
            }
            let Some((b, score)) = pick else {
                // Pool exhausted — cannot happen if the initial base is
                // feasible, but guard anyway.
                budget_ok = false;
                break;
            };
            if score.is_infinite() {
                // No candidate blocks a known projection; fall back to the
                // cheapest remaining candidate to guarantee progress.
                let mut fallback: Option<usize> = None;
                for (b2, probe_cex) in cex.iter().enumerate() {
                    if hold.contains(&b2) || gamma.contains(&b2) || probe_cex.is_none() {
                        continue;
                    }
                    match fallback {
                        Some(f) if weight(f) <= weight(b2) => {}
                        _ => fallback = Some(b2),
                    }
                }
                gamma.push(fallback.unwrap_or(b));
            } else {
                gamma.push(b);
            }
            if let Some(&last) = gamma.last() {
                if let Some(set) = &cex[last] {
                    pool_cex.intersect_with(set);
                }
            }
        }
        if !budget_ok {
            break;
        }

        // New base = Hold ∪ Γ; keep the cheapest.
        let mut new_base: Vec<usize> = hold.clone();
        new_base.extend(&gamma);
        let c = cost_of(ws, q, &new_base);
        if c < best_cost {
            best_cost = c;
            best = new_base.clone();
        }

        // Step 4: rotate the watch window.
        hold = new_base;
        hold.sort_by(|&a, &b| weight(b).cmp(&weight(a)).then(a.cmp(&b)));
        let take = beta.min(hold.len());
        watch = hold.drain(..take).collect();
        if watch.is_empty() {
            break;
        }
    }

    SelectedBase {
        base: best,
        cost: best_cost,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carediff::on_off_sets;
    use crate::EcoInstance;
    use eco_netlist::{parse_verilog, WeightTable};

    /// Spec on-set = a & b. Candidates: a (w=9), b (w=9), and the existing
    /// net w = a&b (w=3). Starting from base {a, b} (cost 18), selection
    /// must discover the single-signal base {w} (cost 3).
    fn fixture() -> (crate::Workspace, RebaseQuery, Vec<usize>) {
        let faulty = parse_verilog(
            "module f (a, b, c, t, y, u); input a, b, c, t; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, t, c); buf g2 (u, w); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y, u); input a, b, c; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, w, c); buf g2 (u, w); endmodule",
        )
        .expect("golden");
        let mut weights = WeightTable::new(9);
        weights.set("w", 3);
        let inst = EcoInstance::from_netlists("bs", &faulty, &golden, vec!["t".into()], &weights)
            .expect("instance");
        let mut ws = Workspace::new(&inst);
        let t = ws.target_vars[0];
        let f_outs = ws.f_outs.clone();
        let g_outs = ws.g_outs.clone();
        let onoff = on_off_sets(&mut ws.mgr, &f_outs, &g_outs, t);
        let pool: Vec<usize> = (0..ws.cands.len()).collect();
        let q = RebaseQuery::new(&ws, onoff.on, onoff.off, pool.clone());
        (ws, q, pool)
    }

    fn pool_pos(ws: &crate::Workspace, pool: &[usize], name: &str) -> usize {
        pool.iter()
            .position(|&i| ws.cands[i].name == name)
            .unwrap_or_else(|| panic!("{name} in pool"))
    }

    #[test]
    fn discovers_cheaper_single_signal_base() {
        let (ws, mut q, pool) = fixture();
        let a = pool_pos(&ws, &pool, "a");
        let b = pool_pos(&ws, &pool, "b");
        let w = pool_pos(&ws, &pool, "w");
        let got = select_base(&ws, &mut q, &[a, b], 2, SELECT_CONFLICTS);
        assert_eq!(got.cost, 3, "base {:?}", got.base);
        assert_eq!(got.base, vec![w]);
        assert!(got.rounds >= 1);
    }

    #[test]
    fn already_optimal_base_is_kept() {
        let (ws, mut q, pool) = fixture();
        let w = pool_pos(&ws, &pool, "w");
        let got = select_base(&ws, &mut q, &[w], 5, SELECT_CONFLICTS);
        assert_eq!(got.cost, 3);
        assert_eq!(got.base, vec![w]);
    }

    #[test]
    fn watch_window_larger_than_base_is_fine() {
        let (ws, mut q, pool) = fixture();
        let a = pool_pos(&ws, &pool, "a");
        let b = pool_pos(&ws, &pool, "b");
        let got = select_base(&ws, &mut q, &[a, b], 8, SELECT_CONFLICTS);
        assert!(got.cost <= 18);
    }

    /// Selection reads only semantic facts (complete projection sets and
    /// feasibility answers), so the rebase solver's setup cannot move its
    /// answer: the eliminating solver and a plain one (no BVE, later
    /// inprocessing) return the same base from the same start, on every
    /// single-target suite unit.
    #[test]
    fn selection_is_independent_of_the_solver_setup() {
        let mut checked = 0;
        for unit in eco_workgen::contest_suite() {
            if unit.spec.n_targets != 1 {
                continue;
            }
            let inst = EcoInstance::from_netlists(
                unit.spec.name.clone(),
                &unit.faulty,
                &unit.golden,
                unit.targets.clone(),
                &unit.weights,
            )
            .expect("valid instance");
            let mut ws = crate::Workspace::new(&inst);
            let t = ws.target_vars[0];
            let (f, g) = (ws.f_outs.clone(), ws.g_outs.clone());
            let onoff = on_off_sets(&mut ws.mgr, &f, &g, t);
            let mut pool: Vec<usize> = (0..ws.cands.len()).collect();
            pool.sort_by_key(|&i| (ws.cands[i].weight, ws.cands[i].name.clone()));
            pool.truncate(32);
            let start: Vec<usize> = (0..pool.len()).collect();
            if RebaseQuery::new(&ws, onoff.on, onoff.off, pool.clone()).feasible(&start, 1 << 20)
                != Some(true)
            {
                continue;
            }
            let answers: Vec<(Vec<usize>, u64)> =
                [eco_sat::Solver::eliminating, eco_sat::Solver::new]
                    .into_iter()
                    .map(|solver| {
                        let mut q = RebaseQuery::on_solver(
                            solver(),
                            &ws,
                            onoff.on,
                            onoff.off,
                            pool.clone(),
                        );
                        let sel = select_base(&ws, &mut q, &start, 5, SELECT_CONFLICTS);
                        (sel.base, sel.cost)
                    })
                    .collect();
            checked += 1;
            assert!(
                answers.iter().all(|a| *a == answers[0]),
                "{}: {answers:?}",
                unit.spec.name
            );
        }
        assert!(checked >= 3, "only {checked} units checked");
    }
}
