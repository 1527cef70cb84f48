//! Sequential benchmark generation: latch-bearing golden designs, fault
//! injection on their combinational cones, and multi-format emission.
//!
//! Two parameterized design families: [`shift_register_datapath`]
//! (banks of shift registers feeding a reduction tree — deep state,
//! shallow logic) and [`random_seq_dag`] (a random AND/XOR DAG over
//! inputs and latch states with random feedback — tangled state and
//! logic). Fault injection ([`inject_seq_faults`]) cuts named nets into
//! floating pseudo-inputs exactly like the combinational contest model,
//! but restricts the sites to *output-cone* nets outside every
//! latch-next cone: those are the faults whose per-frame patches stay
//! time-invariant, so [`eco_seq::SeqEcoEngine`] can fold them back (see
//! the engine docs for why latch-feeding targets frame-specialize).
//!
//! Units emit as latch-BLIF and BTOR2 via the format hub, so the same
//! case exercises both sequential parsers end to end.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use eco_aig::{Aig, Lit, SplitMix64, Var};
use eco_netlist::{write_weights, WeightTable};
use eco_seq::hub::{write_design, Format};
use eco_seq::{Latch, LatchInit, SeqNetlist};

use std::collections::HashMap;

/// A generated sequential rectification case.
#[derive(Clone, Debug)]
pub struct SeqUnit {
    /// Case name (used as file stem).
    pub name: String,
    /// The reference design.
    pub golden: SeqNetlist,
    /// The golden design with target drivers cut into floating inputs.
    pub faulty: SeqNetlist,
    /// The cut nets, in cut order.
    pub targets: Vec<String>,
    /// Per-net weights over the golden/faulty nets.
    pub weights: WeightTable,
    /// Suggested unroll depth (covers the design's state depth).
    pub frames: usize,
}

/// Builds a bank of `width` shift registers, each `depth` stages deep,
/// feeding a named reduction tree (XOR parity and AND chain outputs).
/// Latch inits alternate deterministically from `seed` (including an
/// occasional don't-care).
pub fn shift_register_datapath(width: usize, depth: usize, seed: u64) -> SeqNetlist {
    let width = width.max(1);
    let depth = depth.max(1);
    let mut rng = SplitMix64::new(seed);
    let mut aig = Aig::new();
    let mut net_lits: HashMap<String, Lit> = HashMap::new();
    let mut data = Vec::with_capacity(width);
    for i in 0..width {
        let d = aig.add_input(format!("d{i}"));
        net_lits.insert(format!("d{i}"), d);
        data.push(d);
    }
    let mut latches = Vec::with_capacity(width * depth);
    let mut tails = Vec::with_capacity(width);
    for (i, &d) in data.iter().enumerate() {
        let mut prev = d;
        for j in 0..depth {
            let name = format!("s{i}_{j}");
            let state = aig.add_input(name.clone());
            net_lits.insert(name, state);
            let init = match rng.below(4) {
                0 => LatchInit::One,
                1 => LatchInit::DontCare,
                _ => LatchInit::Zero,
            };
            latches.push(Latch {
                state: state.var(),
                next: prev,
                init,
            });
            prev = state;
        }
        tails.push(prev);
    }
    // Reduction tree over the register tails; every node is named so it
    // can serve as a fault site or patch base.
    let mut k = 0usize;
    let mut name_node = |net_lits: &mut HashMap<String, Lit>, lit: Lit| {
        let name = format!("u{k}");
        k += 1;
        net_lits.insert(name, lit);
        lit
    };
    let mut parity = tails[0];
    let mut chain = tails[0];
    for &t in &tails[1..] {
        let x = aig.xor(parity, t);
        parity = name_node(&mut net_lits, x);
        let a = aig.and(chain, t);
        chain = name_node(&mut net_lits, a);
    }
    let blend = aig.and(parity, !chain);
    let blend = name_node(&mut net_lits, blend);
    aig.add_output("parity", parity);
    aig.add_output("allon", chain);
    aig.add_output("blend", blend);
    net_lits.insert("parity".into(), parity);
    net_lits.insert("allon".into(), chain);
    net_lits.insert("blend".into(), blend);
    SeqNetlist::new(format!("sr_w{width}_d{depth}"), aig, latches, net_lits)
        .expect("states are inputs by construction")
}

/// Builds a random sequential DAG: `gates` random AND/XOR nodes over
/// `inputs` primary inputs and `latches` latch states, random next-state
/// functions and init values, plus a small output-only mixing layer (the
/// guaranteed fold-friendly fault zone).
pub fn random_seq_dag(inputs: usize, gates: usize, latches: usize, seed: u64) -> SeqNetlist {
    let inputs = inputs.max(1);
    let latches = latches.max(1);
    let mut rng = SplitMix64::new(seed);
    let mut aig = Aig::new();
    let mut net_lits: HashMap<String, Lit> = HashMap::new();
    let mut pool: Vec<Lit> = Vec::new();
    for i in 0..inputs {
        let x = aig.add_input(format!("x{i}"));
        net_lits.insert(format!("x{i}"), x);
        pool.push(x);
    }
    let mut states = Vec::with_capacity(latches);
    for i in 0..latches {
        let s = aig.add_input(format!("l{i}"));
        net_lits.insert(format!("l{i}"), s);
        states.push(s);
        pool.push(s);
    }
    let grow = |aig: &mut Aig,
                rng: &mut SplitMix64,
                pool: &mut Vec<Lit>,
                tag: &str,
                n: usize,
                net_lits: &mut HashMap<String, Lit>| {
        for k in 0..n {
            let a = pool[rng.index(pool.len())].xor_complement(rng.chance(0.4));
            let b = pool[rng.index(pool.len())].xor_complement(rng.chance(0.4));
            let lit = if rng.chance(0.3) {
                aig.xor(a, b)
            } else {
                aig.and(a, b)
            };
            net_lits.insert(format!("{tag}{k}"), lit);
            pool.push(lit);
        }
    };
    grow(&mut aig, &mut rng, &mut pool, "n", gates, &mut net_lits);
    // Next-state functions and inits from the main pool.
    let mut latch_defs = Vec::with_capacity(latches);
    for &s in &states {
        let next = pool[rng.index(pool.len())].xor_complement(rng.chance(0.3));
        let init = match rng.below(5) {
            0 => LatchInit::One,
            1 => LatchInit::DontCare,
            _ => LatchInit::Zero,
        };
        latch_defs.push(Latch {
            state: s.var(),
            next,
            init,
        });
    }
    // Output-only mixing layer: these nodes are built after next-state
    // selection, so nothing sequential can reach them.
    let mixers = (gates / 4).max(2);
    let before = pool.len();
    grow(&mut aig, &mut rng, &mut pool, "m", mixers, &mut net_lits);
    let n_out = (mixers / 2).max(1);
    for (k, &lit) in pool[before..].iter().rev().take(n_out).enumerate() {
        aig.add_output(format!("y{k}"), lit);
        net_lits.insert(format!("y{k}"), lit);
    }
    SeqNetlist::new(
        format!("sdag_i{inputs}_g{gates}_l{latches}"),
        aig,
        latch_defs,
        net_lits,
    )
    .expect("states are inputs by construction")
}

/// Cuts `n` fault sites into floating targets, choosing only AND-driven
/// nets that sit in an output cone but in **no** latch-next cone (see
/// the module docs). Returns `None` when the design has fewer than `n`
/// eligible sites.
pub fn inject_seq_faults(
    golden: &SeqNetlist,
    n: usize,
    seed: u64,
) -> Option<(SeqNetlist, Vec<String>)> {
    let mut rng = SplitMix64::new(seed);
    let out_roots: Vec<Lit> = golden.aig.outputs().iter().map(|o| o.lit).collect();
    let next_roots: Vec<Lit> = golden.latches.iter().map(|l| l.next).collect();
    let out_cone: HashSet<Var> = golden.aig.cone_vars(&out_roots).into_iter().collect();
    let next_cone: HashSet<Var> = golden.aig.cone_vars(&next_roots).into_iter().collect();
    let mut names: Vec<&String> = golden.net_lits.keys().collect();
    names.sort();
    let mut sites: Vec<String> = Vec::new();
    let mut seen_vars: HashSet<Var> = HashSet::new();
    for name in names {
        let v = golden.net_lits[name].var();
        if golden.aig.is_and(v)
            && out_cone.contains(&v)
            && !next_cone.contains(&v)
            && seen_vars.insert(v)
        {
            sites.push(name.clone());
        }
    }
    if sites.len() < n {
        return None;
    }
    // Deterministic sample without replacement.
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        targets.push(sites.remove(rng.index(sites.len())));
    }
    let faulty = golden.cut_nets(&targets).ok()?;
    Some((faulty, targets))
}

/// Deterministic per-net weights in `1..=8`.
pub fn seq_weights(design: &SeqNetlist, seed: u64) -> WeightTable {
    let mut rng = SplitMix64::new(seed ^ 0x5e9_17eb);
    let mut names: Vec<&String> = design.net_lits.keys().collect();
    names.sort();
    let mut table = WeightTable::new(1);
    for n in names {
        table.set(n.clone(), rng.range_inclusive(1, 8));
    }
    table
}

/// Builds one sequential case: generate a golden design from the seed
/// (alternating families), inject `targets` faults, assign weights.
/// Returns `None` if the seed yields too few eligible fault sites.
pub fn gen_seq_unit(index: u64, seed: u64, targets: usize) -> Option<SeqUnit> {
    let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index);
    let golden = if index.is_multiple_of(2) {
        let mut rng = SplitMix64::new(mix);
        let width = 2 + rng.index(3);
        let depth = 2 + rng.index(3);
        shift_register_datapath(width, depth, mix)
    } else {
        let mut rng = SplitMix64::new(mix);
        let inputs = 3 + rng.index(3);
        let gates = 8 + rng.index(12);
        let latches = 2 + rng.index(3);
        random_seq_dag(inputs, gates, latches, mix)
    };
    let (faulty, target_names) = inject_seq_faults(&golden, targets, mix ^ 0xfa17)?;
    let weights = seq_weights(&golden, mix);
    let frames = golden.latches.len().clamp(2, 6) + 1;
    Some(SeqUnit {
        name: format!("seq{index:03}"),
        golden,
        faulty,
        targets: target_names,
        weights,
        frames,
    })
}

/// Writes a unit as BTOR2 + latch-BLIF golden/faulty pairs, a weight
/// file, and a targets list; returns the paths written.
pub fn write_seq_unit(dir: &Path, unit: &SeqUnit) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    let hub_err = |e: eco_seq::HubError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    for (stem, design) in [("golden", &unit.golden), ("faulty", &unit.faulty)] {
        for fmt in [Format::Btor2, Format::Blif] {
            let path = dir.join(format!("{}_{stem}.{}", unit.name, fmt.name()));
            std::fs::write(&path, write_design(fmt, design).map_err(hub_err)?)?;
            written.push(path);
        }
    }
    let wpath = dir.join(format!("{}.weights", unit.name));
    std::fs::write(&wpath, write_weights(&unit.weights))?;
    written.push(wpath);
    let tpath = dir.join(format!("{}.targets", unit.name));
    std::fs::write(&tpath, unit.targets.join("\n") + "\n")?;
    written.push(tpath);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::EcoOptions;
    use eco_seq::{SeqEcoEngine, SeqEcoOptions};

    #[test]
    fn generators_are_deterministic() {
        let a = write_design(Format::Btor2, &shift_register_datapath(3, 2, 7)).unwrap();
        let b = write_design(Format::Btor2, &shift_register_datapath(3, 2, 7)).unwrap();
        assert_eq!(a, b);
        let a = write_design(Format::Btor2, &random_seq_dag(4, 10, 3, 11)).unwrap();
        let b = write_design(Format::Btor2, &random_seq_dag(4, 10, 3, 11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn injected_faults_are_floating_inputs() {
        let golden = shift_register_datapath(3, 2, 5);
        let (faulty, targets) = inject_seq_faults(&golden, 2, 9).expect("sites");
        assert_eq!(targets.len(), 2);
        for t in &targets {
            assert!(golden.aig.find_input(t).is_none());
            assert!(faulty.aig.find_input(t).is_some(), "{t} not floating");
        }
        assert_eq!(faulty.latches.len(), golden.latches.len());
    }

    #[test]
    fn generated_unit_is_rectifiable() {
        let unit = gen_seq_unit(0, 42, 1).expect("unit");
        let engine = SeqEcoEngine::new(
            unit.faulty.clone(),
            unit.golden.clone(),
            unit.targets.clone(),
            unit.weights.clone(),
            SeqEcoOptions {
                frames: unit.frames,
                eco: EcoOptions::default(),
            },
        )
        .expect("engine");
        let result = engine.run().expect("rectifies");
        for bits in 0u64..64 {
            let n_pi = unit.golden.primary_input_positions().len();
            let stim: Vec<Vec<bool>> = (0..4)
                .map(|f| (0..n_pi).map(|i| bits >> (f * n_pi + i) & 1 == 1).collect())
                .collect();
            assert_eq!(
                unit.golden.simulate(&stim),
                result.patched.simulate(&stim),
                "{bits:#b}"
            );
        }
    }

    #[test]
    fn unit_files_round_trip_through_hub() {
        // Both families, both sides. The faulty side is the hard one:
        // cut targets become free inputs that keep their original names
        // (`blend`, `n8`, ...), which the BLIF writer's canonical
        // renaming and output covers must not double-drive.
        let mut checked = 0;
        for index in 0..4u64 {
            let mut seed = 5;
            let unit = loop {
                match gen_seq_unit(index, seed, 1 + (index % 2) as usize) {
                    Some(u) => break u,
                    None => seed += 1,
                }
            };
            for design in [&unit.golden, &unit.faulty] {
                for fmt in [Format::Blif, Format::Btor2] {
                    let bytes = write_design(fmt, design).expect("writes");
                    let back = eco_seq::read_design(fmt, &bytes).expect("reads back");
                    assert_eq!(back.latches.len(), design.latches.len());
                }
            }
            // Every cut target must survive the BLIF round trip by name.
            let blif = write_design(Format::Blif, &unit.faulty).expect("writes");
            let back = eco_seq::read_design(Format::Blif, &blif).expect("reads back");
            for t in &unit.targets {
                assert!(back.net_lits.contains_key(t), "target {t} lost in BLIF");
            }
            checked += 1;
        }
        assert_eq!(checked, 4);
    }
}
