//! BTOR2 I/O (bit-level subset).
//!
//! Reads and writes the BTOR2 word-level model-checking format
//! restricted to 1-bit sorts — exactly the fragment a gate-level ECO
//! flow needs. Supported node tags: `sort bitvec 1`, `input`, `state`,
//! `init`, `next`, `output`, constants (`const`/`constd`/`zero`/`one`/
//! `ones`), and the operators `not`, `and`, `or`, `xor`, `xnor`, `nand`,
//! `nor`, `implies`, `iff`, `eq`, `neq`, `ite`. Negative operand ids
//! denote bitwise negation, matching btor2tools.
//!
//! The writer emits a canonical form — sort first, inputs, states,
//! constants, ANDs in topological order, `next`/`init` lines, outputs —
//! plus `; net <name> <id>` footer comments carrying the full named-net
//! map, so write → parse → write is a byte-level fixpoint and ECO base
//! candidates survive a BTOR2 round-trip.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use eco_aig::{Aig, Latch, LatchInit, Lit, Var};

use crate::netlist::SeqNetlist;

/// Error produced when BTOR2 text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBtor2Error {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseBtor2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "btor2 line {}: {}", self.line, self.message)
    }
}

impl Error for ParseBtor2Error {}

/// Parses a 1-bit BTOR2 model.
///
/// Latch states become inputs of the elaborated AIG (named from their
/// symbols, or `s<id>`); `init` values must be constants. `; net <name>
/// <id>` comments — as emitted by [`write_btor2`] — extend the named-net
/// map beyond the input/state/output symbols.
///
/// # Errors
///
/// Returns [`ParseBtor2Error`] on non-1-bit sorts, unsupported tags,
/// undefined or forward operand references, states without `next`, or
/// non-constant `init` values.
pub fn parse_btor2(text: &str) -> Result<SeqNetlist, ParseBtor2Error> {
    let err = |line: usize, m: String| ParseBtor2Error { line, message: m };

    let mut aig = Aig::new();
    let mut sorts: HashMap<i64, ()> = HashMap::new();
    let mut nodes: HashMap<i64, Lit> = HashMap::new();
    // (id, declaration line) per state, in declaration order.
    let mut states: Vec<(i64, usize)> = Vec::new();
    let mut state_next: HashMap<i64, Lit> = HashMap::new();
    let mut state_init: HashMap<i64, LatchInit> = HashMap::new();
    let mut outputs: Vec<(Lit, Option<String>)> = Vec::new();
    let mut net_names: Vec<(String, i64)> = Vec::new();
    let mut net_lits: HashMap<String, Lit> = HashMap::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix(';') {
            // Canonical net-map footer: `; net <name> <signed-id>`.
            let toks: Vec<&str> = comment.split_whitespace().collect();
            if toks.len() == 3 && toks[0] == "net" {
                let id: i64 = toks[2]
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid net id `{}`", toks[2])))?;
                net_names.push((toks[1].to_string(), id));
            }
            continue;
        }
        let mut toks = line.split_whitespace();
        let id: i64 = {
            let t = toks.next().expect("non-empty line");
            t.parse()
                .map_err(|_| err(line_no, format!("invalid node id `{t}`")))?
        };
        if id <= 0 {
            return Err(err(line_no, "node ids must be positive".into()));
        }
        let tag = toks
            .next()
            .ok_or_else(|| err(line_no, "missing node tag".into()))?;
        let args: Vec<&str> = toks.collect();
        let num = |k: usize, what: &str| -> Result<i64, ParseBtor2Error> {
            args.get(k)
                .ok_or_else(|| err(line_no, format!("missing {what}")))?
                .parse()
                .map_err(|_| err(line_no, format!("invalid {what}")))
        };
        let resolve = |nodes: &HashMap<i64, Lit>, sid: i64| -> Result<Lit, ParseBtor2Error> {
            let lit = nodes
                .get(&sid.abs())
                .copied()
                .ok_or_else(|| err(line_no, format!("operand {sid} is not defined yet")))?;
            Ok(lit.xor_complement(sid < 0))
        };
        let check_sort = |sorts: &HashMap<i64, ()>, sid: i64| -> Result<(), ParseBtor2Error> {
            if sorts.contains_key(&sid) {
                Ok(())
            } else {
                Err(err(line_no, format!("sort {sid} is not defined")))
            }
        };
        match tag {
            "sort" => match (args.first().copied(), args.get(1).copied()) {
                (Some("bitvec"), Some("1")) => {
                    sorts.insert(id, ());
                }
                (Some("bitvec"), Some(w)) => {
                    return Err(err(
                        line_no,
                        format!("only bit-width 1 is supported, got bitvec {w}"),
                    ))
                }
                (Some(other), _) => {
                    return Err(err(line_no, format!("unsupported sort `{other}`")))
                }
                (None, _) => return Err(err(line_no, "missing sort kind".into())),
            },
            "input" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let symbol = args.get(1).map(|s| (*s).to_string());
                let name = symbol.unwrap_or_else(|| format!("i{id}"));
                let lit = aig.add_input(name.clone());
                nodes.insert(id, lit);
                net_lits.insert(name, lit);
            }
            "state" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let symbol = args.get(1).map(|s| (*s).to_string());
                let name = symbol.unwrap_or_else(|| format!("s{id}"));
                let lit = aig.add_input(name.clone());
                nodes.insert(id, lit);
                net_lits.insert(name, lit);
                states.push((id, line_no));
            }
            "init" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let state = num(1, "state id")?;
                let value = resolve(&nodes, num(2, "init value id")?)?;
                if !states.iter().any(|&(s, _)| s == state) {
                    return Err(err(line_no, format!("init references non-state {state}")));
                }
                let init = match value {
                    Lit::FALSE => LatchInit::Zero,
                    Lit::TRUE => LatchInit::One,
                    _ => {
                        return Err(err(
                            line_no,
                            "only constant init values are supported".into(),
                        ))
                    }
                };
                state_init.insert(state, init);
            }
            "next" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let state = num(1, "state id")?;
                if !states.iter().any(|&(s, _)| s == state) {
                    return Err(err(line_no, format!("next references non-state {state}")));
                }
                let next = resolve(&nodes, num(2, "next id")?)?;
                if state_next.insert(state, next).is_some() {
                    return Err(err(
                        line_no,
                        format!("state {state} has two next functions"),
                    ));
                }
            }
            "output" => {
                let lit = resolve(&nodes, num(0, "output id")?)?;
                outputs.push((lit, args.get(1).map(|s| (*s).to_string())));
            }
            "const" | "constd" | "consth" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let lit = match args.get(1).copied() {
                    Some("0") => Lit::FALSE,
                    Some("1") => Lit::TRUE,
                    other => {
                        return Err(err(
                            line_no,
                            format!("invalid 1-bit constant `{}`", other.unwrap_or("")),
                        ))
                    }
                };
                nodes.insert(id, lit);
            }
            "zero" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                nodes.insert(id, Lit::FALSE);
            }
            "one" | "ones" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                nodes.insert(id, Lit::TRUE);
            }
            "not" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let a = resolve(&nodes, num(1, "operand")?)?;
                nodes.insert(id, !a);
            }
            "and" | "or" | "xor" | "xnor" | "nand" | "nor" | "implies" | "iff" | "eq" | "neq" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let a = resolve(&nodes, num(1, "first operand")?)?;
                let b = resolve(&nodes, num(2, "second operand")?)?;
                let lit = match tag {
                    "and" => aig.and(a, b),
                    "or" => aig.or(a, b),
                    "xor" | "neq" => aig.xor(a, b),
                    "xnor" | "iff" | "eq" => aig.xnor(a, b),
                    "nand" => !aig.and(a, b),
                    "nor" => !aig.or(a, b),
                    _ => aig.implies(a, b),
                };
                nodes.insert(id, lit);
            }
            "ite" => {
                check_sort(&sorts, num(0, "sort id")?)?;
                let c = resolve(&nodes, num(1, "condition")?)?;
                let t = resolve(&nodes, num(2, "then value")?)?;
                let e = resolve(&nodes, num(3, "else value")?)?;
                nodes.insert(id, aig.mux(c, t, e));
            }
            other => return Err(err(line_no, format!("unsupported tag `{other}`"))),
        }
    }

    let mut latches = Vec::with_capacity(states.len());
    for &(sid, line) in &states {
        let state = nodes[&sid].var();
        let next = state_next
            .remove(&sid)
            .ok_or_else(|| err(line, format!("state {sid} has no next function")))?;
        latches.push(Latch {
            state,
            next,
            init: state_init.get(&sid).copied().unwrap_or(LatchInit::DontCare),
        });
    }
    for (k, (lit, symbol)) in outputs.iter().enumerate() {
        let name = symbol.clone().unwrap_or_else(|| format!("o{k}"));
        aig.add_output(name.clone(), *lit);
        net_lits.entry(name).or_insert(*lit);
    }
    // A `; net` footer is authoritative: it reproduces exactly the named
    // -net map of the design that was written (keeping write → parse →
    // write a fixpoint). The symbol-derived map above is the fallback
    // for files from other producers.
    if !net_names.is_empty() {
        net_lits.clear();
        for (name, sid) in net_names {
            let lit = nodes
                .get(&sid.abs())
                .copied()
                .ok_or_else(|| err(0, format!("net comment references undefined node {sid}")))?;
            net_lits.insert(name, lit.xor_complement(sid < 0));
        }
    }
    SeqNetlist::new("top", aig, latches, net_lits).map_err(|e| err(0, e.to_string()))
}

/// Writes a design as canonical 1-bit BTOR2. See the module docs for the
/// emission order; [`parse_btor2`] reads the result back byte-exactly
/// (write → parse → write is a fixpoint).
pub fn write_btor2(design: &SeqNetlist) -> String {
    use fmt::Write as _;
    let aig = &design.aig;
    let mut s = String::new();
    let _ = writeln!(s, "1 sort bitvec 1");
    let mut next_id: i64 = 2;
    let mut id_of: HashMap<Var, i64> = HashMap::new();

    let states = design.state_vars();
    for pos in 0..aig.num_inputs() {
        let v = aig.input_var(pos);
        if states.contains(&v) {
            continue;
        }
        let _ = writeln!(s, "{next_id} input 1 {}", aig.input_name(pos));
        id_of.insert(v, next_id);
        next_id += 1;
    }
    let mut state_ids = Vec::with_capacity(design.latches.len());
    for (k, l) in design.latches.iter().enumerate() {
        let _ = writeln!(s, "{next_id} state 1 {}", design.latch_name(k));
        id_of.insert(l.state, next_id);
        state_ids.push(next_id);
        next_id += 1;
    }

    // Emission cone: outputs, latch nexts, then every named net (sorted)
    // so dead-but-named logic survives the round-trip.
    let mut net_names: Vec<&String> = design.net_lits.keys().collect();
    net_names.sort();
    let mut roots: Vec<Lit> = aig.outputs().iter().map(|o| o.lit).collect();
    roots.extend(design.latches.iter().map(|l| l.next));
    roots.extend(net_names.iter().map(|n| design.net_lits[*n]));

    let cone = aig.cone_vars(&roots);
    let needs_const = cone.contains(&Var::CONST)
        || roots.iter().any(|r| r.var() == Var::CONST)
        || design
            .latches
            .iter()
            .any(|l| !matches!(l.init, LatchInit::DontCare));
    let needs_one = design
        .latches
        .iter()
        .any(|l| matches!(l.init, LatchInit::One));
    let mut zero_id = 0i64;
    let mut one_id = 0i64;
    if needs_const {
        zero_id = next_id;
        let _ = writeln!(s, "{next_id} zero 1");
        id_of.insert(Var::CONST, next_id);
        next_id += 1;
    }
    if needs_one {
        one_id = next_id;
        let _ = writeln!(s, "{next_id} one 1");
        next_id += 1;
    }
    let lit_ref = |id_of: &HashMap<Var, i64>, lit: Lit| -> i64 {
        let id = id_of[&lit.var()];
        if lit.is_complement() {
            -id
        } else {
            id
        }
    };
    for &v in &cone {
        if let Some((f0, f1)) = aig.and_fanins(v) {
            let a = lit_ref(&id_of, f0);
            let b = lit_ref(&id_of, f1);
            let _ = writeln!(s, "{next_id} and 1 {a} {b}");
            id_of.insert(v, next_id);
            next_id += 1;
        }
    }
    for (k, l) in design.latches.iter().enumerate() {
        let _ = writeln!(
            s,
            "{next_id} next 1 {} {}",
            state_ids[k],
            lit_ref(&id_of, l.next)
        );
        next_id += 1;
        match l.init {
            LatchInit::DontCare => {}
            LatchInit::Zero => {
                let _ = writeln!(s, "{next_id} init 1 {} {zero_id}", state_ids[k]);
                next_id += 1;
            }
            LatchInit::One => {
                let _ = writeln!(s, "{next_id} init 1 {} {one_id}", state_ids[k]);
                next_id += 1;
            }
        }
    }
    for out in aig.outputs() {
        let _ = writeln!(
            s,
            "{next_id} output {} {}",
            lit_ref(&id_of, out.lit),
            out.name
        );
        next_id += 1;
    }
    for n in net_names {
        let _ = writeln!(s, "; net {n} {}", lit_ref(&id_of, design.net_lits[n]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SeqNetlist {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let s0 = aig.add_input("s0");
        let s1 = aig.add_input("s1");
        let w = aig.xor(d, s1);
        let q = aig.and(s0, s1);
        aig.add_output("q", q);
        let net_lits = HashMap::from([
            ("d".to_string(), d),
            ("s0".to_string(), s0),
            ("s1".to_string(), s1),
            ("w".to_string(), w),
            ("q".to_string(), q),
        ]);
        SeqNetlist::new(
            "sr",
            aig,
            vec![
                Latch {
                    state: s0.var(),
                    next: w,
                    init: LatchInit::Zero,
                },
                Latch {
                    state: s1.var(),
                    next: s0,
                    init: LatchInit::One,
                },
            ],
            net_lits,
        )
        .expect("valid")
    }

    #[test]
    fn write_parse_write_is_byte_fixpoint() {
        let d = sample();
        let text = write_btor2(&d);
        let back = parse_btor2(&text).expect("parses");
        assert_eq!(back.latches.len(), 2);
        assert_eq!(back.latches[0].init, LatchInit::Zero);
        assert_eq!(back.latches[1].init, LatchInit::One);
        // Net map survives, including the internal net `w`.
        assert!(back.net_lits.contains_key("w"));
        assert_eq!(write_btor2(&back), text);
        // Behaviour identical over a stimulus sweep.
        for bits in 0u32..32 {
            let stim: Vec<Vec<bool>> = (0..5).map(|f| vec![bits >> f & 1 == 1]).collect();
            assert_eq!(d.simulate(&stim), back.simulate(&stim), "{bits:#b}");
        }
    }

    #[test]
    fn parses_handwritten_model() {
        // Toggle flip-flop with an enable input.
        let text = "1 sort bitvec 1\n2 input 1 en\n3 state 1 t\n\
                    4 xor 1 2 3\n5 next 1 3 4\n6 zero 1\n7 init 1 3 6\n\
                    8 output 3 q\n";
        let d = parse_btor2(text).expect("parses");
        assert_eq!(d.latches.len(), 1);
        assert_eq!(d.latches[0].init, LatchInit::Zero);
        // en=1 for 3 cycles: t = 0,1,0.
        let out = d.simulate(&vec![vec![true]; 3]);
        assert_eq!(out, vec![vec![false], vec![true], vec![false]]);
    }

    #[test]
    fn operators_and_negative_ids() {
        let text = "1 sort bitvec 1\n2 input 1 a\n3 input 1 b\n\
                    4 and 1 -2 3\n5 or 1 2 -3\n6 ite 1 4 5 -2\n\
                    7 output -6 y\n";
        let d = parse_btor2(text).expect("parses");
        assert!(d.is_combinational());
        // y = !(ite(!a&b, a|!b, !a))
        for bits in 0u32..4 {
            let (a, b) = (bits & 1 == 1, bits >> 1 == 1);
            let c = !a && b;
            let want = !(if c { a || !b } else { !a });
            assert_eq!(d.aig.eval(&[a, b]), vec![want], "a={a} b={b}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        // Wide sorts.
        assert!(parse_btor2("1 sort bitvec 32\n").is_err());
        // Array sorts.
        assert!(parse_btor2("1 sort array 2 2\n").is_err());
        // Unsupported tag.
        assert!(parse_btor2("1 sort bitvec 1\n2 add 1 0 0\n").is_err());
        // Forward reference.
        assert!(parse_btor2("1 sort bitvec 1\n2 and 1 3 3\n3 input 1\n").is_err());
        // State without next.
        assert!(parse_btor2("1 sort bitvec 1\n2 state 1 s\n").is_err());
        // Non-constant init.
        assert!(parse_btor2(
            "1 sort bitvec 1\n2 input 1 a\n3 state 1 s\n4 init 1 3 2\n5 next 1 3 2\n"
        )
        .is_err());
        // Undefined sort.
        assert!(parse_btor2("2 input 7\n").is_err());
        // Garbage ids.
        assert!(parse_btor2("x sort bitvec 1\n").is_err());
        assert!(parse_btor2("-1 sort bitvec 1\n").is_err());
        // Truncated lines.
        assert!(parse_btor2("1 sort\n").is_err());
        assert!(parse_btor2("1 sort bitvec 1\n2 and 1 2\n").is_err());
    }

    #[test]
    fn combinational_round_trip() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.xor(a, b);
        aig.add_output("f", f);
        let d = SeqNetlist::from_comb(
            "c",
            aig,
            HashMap::from([("a".to_string(), a), ("b".to_string(), b)]),
        );
        let text = write_btor2(&d);
        let back = parse_btor2(&text).expect("parses");
        assert!(back.is_combinational());
        assert_eq!(write_btor2(&back), text);
        for bits in 0u32..4 {
            let (a, b) = (bits & 1 == 1, bits >> 1 == 1);
            assert_eq!(back.aig.eval(&[a, b]), vec![a ^ b]);
        }
    }
}
