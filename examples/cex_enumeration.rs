//! The paper's Table-1 worked example: enumerating counterexamples of the
//! Eq.-12 rebasing formula for the patch p(a, b) = a XOR b.
//!
//! With no base selected, the formula is satisfiable; its counterexamples,
//! projected on the on-copy watch variables (a, b), are exactly the on-set
//! rows {01, 10} of the XOR — discovered with two blocking clauses under
//! one control variable, after which the solver reports UNSAT (§6.2.1).
//!
//! Run with `cargo run --example cex_enumeration`.

use eco::core::{enumerate_cex, on_off_sets, EcoInstance, RebaseQuery, Workspace};
use eco::netlist::{parse_verilog, WeightTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Faulty: output y floats entirely (y = t). Golden: y = a ^ b.
    // The patch specification for t is then exactly p(a, b) = a XOR b.
    let faulty =
        parse_verilog("module f (a, b, t, y); input a, b, t; output y; buf g (y, t); endmodule")?;
    let golden =
        parse_verilog("module g (a, b, y); input a, b; output y; xor g (y, a, b); endmodule")?;
    let instance = EcoInstance::from_netlists(
        "table1",
        &faulty,
        &golden,
        vec!["t".into()],
        &WeightTable::new(1),
    )?;

    let mut ws = Workspace::new(&instance);
    let t = ws.target_vars[0];
    let (f_outs, g_outs) = (ws.f_outs.clone(), ws.g_outs.clone());
    let onoff = on_off_sets(&mut ws.mgr, &f_outs, &g_outs, t);

    let pool: Vec<usize> = (0..ws.cands.len()).collect();
    let a = pool
        .iter()
        .position(|&i| ws.cands[i].name == "a")
        .expect("a");
    let b = pool
        .iter()
        .position(|&i| ws.cands[i].name == "b")
        .expect("b");
    let mut query = RebaseQuery::new(&ws, onoff.on, onoff.off, pool);

    println!("Table 1: p_k(a, b) = a XOR b");
    println!("  on-set rows: (a,b) in {{01, 10}}\n");

    let cex = enumerate_cex(&mut query, &[], None, &[a, b], 1 << 20).expect("within budget");
    println!("counterexample projections with no base selected:");
    for mask in &cex.masks {
        println!("  a={} b={}", mask & 1, mask >> 1 & 1);
    }
    assert_eq!(cex.len(), 2, "exactly the two on-set rows");

    // Selecting both base signals distinguishes every on/off pair.
    let none = enumerate_cex(&mut query, &[a], Some(b), &[a, b], 1 << 20).expect("within budget");
    println!(
        "\nwith base {{a, b}} selected: {} counterexamples (formula UNSAT -> feasible)",
        none.len()
    );
    assert!(none.is_empty());
    Ok(())
}
