//! Benches for the CDCL core and interpolation engine.

use eco_bench::Bench;
use eco_sat::{ClauseLabel, ItpSolver, Lit, Solver, Var};

fn random_3sat(n: usize, m: usize, seed: u64) -> Vec<Vec<Lit>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..m)
        .map(|_| {
            (0..3)
                .map(|_| Var::new((next() % n as u64) as u32).lit(next() & 1 == 1))
                .collect()
        })
        .collect()
}

fn pigeonhole(n: u32) -> (usize, Vec<Vec<Lit>>) {
    let h = n - 1;
    let p = |i: u32, j: u32| Var::new(i * h + j).pos();
    let mut clauses = Vec::new();
    for i in 0..n {
        clauses.push((0..h).map(|j| p(i, j)).collect());
    }
    for j in 0..h {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                clauses.push(vec![!p(i1, j), !p(i2, j)]);
            }
        }
    }
    ((n * h) as usize, clauses)
}

fn main() {
    let mut bench = Bench::from_env();

    let clauses = random_3sat(100, 420, 0xfeed);
    bench.run("sat/random3sat_100v_420c", || {
        let mut s = Solver::new();
        for _ in 0..100 {
            s.new_var();
        }
        for cl in &clauses {
            s.add_clause(cl);
        }
        s.solve(&[])
    });

    let (nv, clauses) = pigeonhole(8);
    bench.run("sat/pigeonhole_8_into_7", || {
        let mut s = Solver::new();
        for _ in 0..nv {
            s.new_var();
        }
        for cl in &clauses {
            s.add_clause(cl);
        }
        s.solve(&[])
    });

    // One solver, many assumption queries.
    let clauses = random_3sat(80, 280, 0xabcd);
    let mut s = Solver::new();
    for _ in 0..80 {
        s.new_var();
    }
    for cl in &clauses {
        s.add_clause(cl);
    }
    bench.run("sat/incremental_assumptions", || {
        for k in 0..16u32 {
            let a = Var::new(k).lit(k % 2 == 0);
            std::hint::black_box(s.solve(&[a]));
        }
    });

    bench.run("sat/interpolant_implication_chain", || {
        // x0 -> x1 -> ... -> x39, A = first half, B = second + !x39.
        let mut q = ItpSolver::new();
        let vars: Vec<Var> = (0..40).map(|_| q.new_var()).collect();
        q.add_clause(&[vars[0].pos()], ClauseLabel::A);
        for w in vars.windows(2).take(20) {
            q.add_clause(&[w[0].neg(), w[1].pos()], ClauseLabel::A);
        }
        for w in vars.windows(2).skip(20) {
            q.add_clause(&[w[0].neg(), w[1].pos()], ClauseLabel::B);
        }
        q.add_clause(&[vars[39].neg()], ClauseLabel::B);
        q.solve_limited(u64::MAX)
            .expect("unbounded")
            .into_interpolant()
    });
    bench.finish();
}
