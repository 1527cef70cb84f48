//! BLIF (Berkeley Logic Interchange Format) I/O.
//!
//! Supports flat `.model` blocks with `.inputs`/`.outputs`/`.names`
//! (single-output sum-of-products covers), `.latch`, and `.end`; line
//! continuations (`\`) and `#` comments are handled. Hierarchy
//! (`.subckt`/`.gate`) is rejected.
//!
//! One reader, [`parse_blif`], and one writer, [`write_blif`], carry
//! latches as the [`Latch`] records of `eco-aig`: each latch's current
//! state becomes an ordinary input of the elaborated AIG, with its
//! next-state literal and [`LatchInit`] reset value beside it. A
//! combinational model is one without latches; a caller that cannot
//! take latches checks [`BlifModel::latches`]. The writer emits a
//! canonical form, so write → parse → write is a byte-level fixpoint.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use eco_aig::{Aig, Latch, LatchInit, Lit, Var};

/// Error produced when BLIF text cannot be parsed or elaborated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlifError {
    /// 1-based (logical) line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseBlifError {}

/// A parsed-and-elaborated BLIF model.
#[derive(Clone, Debug)]
pub struct BlifModel {
    /// Model name.
    pub name: String,
    /// The elaborated AIG: inputs and outputs in declaration order, with
    /// latch states as inputs after the declared primary inputs.
    pub aig: Aig,
    /// Literal of every defined net (including latch states).
    pub net_lits: HashMap<String, Lit>,
    /// Latches in `.latch` declaration order; empty for a combinational
    /// model.
    pub latches: Vec<Latch>,
}

#[derive(Debug)]
struct SopDef {
    output: String,
    inputs: Vec<String>,
    /// (input pattern, output value); `None` in a pattern = don't care.
    rows: Vec<(Vec<Option<bool>>, bool)>,
    line: usize,
}

#[derive(Debug)]
struct LatchDef {
    next: String,
    state: String,
    init: LatchInit,
    line: usize,
}

/// Parses a BLIF model, latches included, into an AIG plus latch records.
///
/// `.latch` lines follow the BLIF grammar `input output [type control]
/// [init-val]`; the edge type and control net are accepted and ignored
/// (the model is cycle-accurate, not timing-accurate), and `init-val`
/// maps 0 → [`LatchInit::Zero`], 1 → [`LatchInit::One`], 2/3/absent →
/// [`LatchInit::DontCare`]. Each latch output becomes an input of the
/// elaborated AIG, placed after the declared primary inputs in `.latch`
/// order.
///
/// # Errors
///
/// Returns [`ParseBlifError`] on unsupported constructs, malformed
/// covers or latch lines, undefined nets, combinational cycles, or
/// multiple drivers.
///
/// # Examples
///
/// ```
/// let text = ".model m\n.inputs a b c\n.outputs y\n\
///             .names a b w\n11 1\n.names w c y\n10 1\n01 1\n.end\n";
/// let model = eco_netlist::parse_blif(text)?;
/// assert!(model.latches.is_empty());
/// // y = (a&b) XOR c
/// assert_eq!(model.aig.eval(&[true, true, false]), vec![true]);
/// assert_eq!(model.aig.eval(&[true, true, true]), vec![false]);
/// # Ok::<(), eco_netlist::ParseBlifError>(())
/// ```
pub fn parse_blif(text: &str) -> Result<BlifModel, ParseBlifError> {
    let err = |line: usize, m: &str| ParseBlifError {
        line,
        message: m.to_string(),
    };

    // Logical lines: strip comments, join continuations.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let without_comment = raw.split('#').next().unwrap_or("");
        let (content, continued) = match without_comment.trim_end().strip_suffix('\\') {
            Some(rest) => (rest.to_string(), true),
            None => (without_comment.to_string(), false),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(&content);
                if continued {
                    pending = Some((start, acc));
                } else {
                    logical.push((start, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((line_no, content));
                } else if !content.trim().is_empty() {
                    logical.push((line_no, content));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        logical.push((start, acc));
    }

    let mut name = String::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut defs: Vec<SopDef> = Vec::new();
    let mut latch_defs: Vec<LatchDef> = Vec::new();
    let mut current: Option<SopDef> = None;
    let mut ended = false;

    for (line_no, line) in &logical {
        let line_no = *line_no;
        let mut toks = line.split_whitespace();
        let Some(first) = toks.next() else { continue };
        if ended {
            break;
        }
        match first {
            ".model" => {
                if !name.is_empty() {
                    return Err(err(line_no, "multiple .model blocks are not supported"));
                }
                name = toks.next().unwrap_or("top").to_string();
            }
            ".inputs" => inputs.extend(toks.map(str::to_string)),
            ".outputs" => outputs.extend(toks.map(str::to_string)),
            ".names" => {
                if let Some(def) = current.take() {
                    defs.push(def);
                }
                let mut nets: Vec<String> = toks.map(str::to_string).collect();
                let Some(output) = nets.pop() else {
                    return Err(err(line_no, ".names needs at least an output"));
                };
                current = Some(SopDef {
                    output,
                    inputs: nets,
                    rows: Vec::new(),
                    line: line_no,
                });
            }
            ".latch" => {
                let rest: Vec<&str> = toks.collect();
                // Grammar: input output [type control] [init-val].
                let (next, state, init_tok) = match rest.len() {
                    2 => (rest[0], rest[1], None),
                    3 => (rest[0], rest[1], Some(rest[2])),
                    4 => (rest[0], rest[1], None),
                    5 => (rest[0], rest[1], Some(rest[4])),
                    _ => {
                        return Err(err(
                            line_no,
                            ".latch expects `input output [type control] [init-val]`",
                        ))
                    }
                };
                if rest.len() >= 4 && !matches!(rest[2], "fe" | "re" | "ah" | "al" | "as") {
                    return Err(err(line_no, &format!("invalid latch type `{}`", rest[2])));
                }
                let init = match init_tok {
                    None | Some("2") | Some("3") => LatchInit::DontCare,
                    Some("0") => LatchInit::Zero,
                    Some("1") => LatchInit::One,
                    Some(other) => {
                        return Err(err(line_no, &format!("invalid latch init value `{other}`")))
                    }
                };
                latch_defs.push(LatchDef {
                    next: next.to_string(),
                    state: state.to_string(),
                    init,
                    line: line_no,
                });
            }
            ".subckt" | ".gate" => return Err(err(line_no, "hierarchical BLIF is not supported")),
            ".end" => {
                ended = true;
            }
            tok if tok.starts_with('.') => {
                return Err(err(line_no, &format!("unsupported directive `{tok}`")))
            }
            pattern => {
                let Some(def) = current.as_mut() else {
                    return Err(err(line_no, "cover row outside .names"));
                };
                let (in_pat, out_val) = if def.inputs.is_empty() {
                    ("", pattern)
                } else {
                    let out = toks
                        .next()
                        .ok_or_else(|| err(line_no, "cover row missing output value"))?;
                    if toks.next().is_some() {
                        return Err(err(line_no, "trailing tokens in cover row"));
                    }
                    (pattern, out)
                };
                if in_pat.len() != def.inputs.len() {
                    return Err(err(line_no, "cover row arity mismatch"));
                }
                let bits: Result<Vec<Option<bool>>, ParseBlifError> = in_pat
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(Some(false)),
                        '1' => Ok(Some(true)),
                        '-' => Ok(None),
                        other => Err(err(line_no, &format!("invalid cover bit `{other}`"))),
                    })
                    .collect();
                let out_val = match out_val {
                    "1" => true,
                    "0" => false,
                    other => return Err(err(line_no, &format!("invalid output value `{other}`"))),
                };
                def.rows.push((bits?, out_val));
            }
        }
    }
    if let Some(def) = current.take() {
        defs.push(def);
    }

    // Elaborate: DFS over definitions with cycle detection. Latch states
    // are inputs, so feedback loops through latches are naturally broken.
    let mut aig = Aig::new();
    let mut net_lits: HashMap<String, Lit> = HashMap::new();
    for n in &inputs {
        let lit = aig.add_input(n.clone());
        if net_lits.insert(n.clone(), lit).is_some() {
            return Err(err(0, &format!("net `{n}` declared twice")));
        }
    }
    let mut state_vars = Vec::with_capacity(latch_defs.len());
    for l in &latch_defs {
        let n = &l.state;
        let lit = aig.add_input(n.clone());
        state_vars.push(lit.var());
        if net_lits.insert(n.clone(), lit).is_some() {
            return Err(err(
                l.line,
                &format!("latch output `{n}` has multiple drivers"),
            ));
        }
    }
    let mut driver: HashMap<&str, usize> = HashMap::new();
    for (i, def) in defs.iter().enumerate() {
        let n = def.output.as_str();
        if net_lits.contains_key(n) || driver.insert(n, i).is_some() {
            return Err(err(def.line, &format!("net `{n}` has multiple drivers")));
        }
    }

    #[derive(PartialEq, Clone, Copy)]
    enum Mark {
        Visiting,
        Done,
    }
    let mut marks: HashMap<usize, Mark> = HashMap::new();
    let mut order: Vec<usize> = Vec::new();
    for start in 0..defs.len() {
        let mut stack = vec![start];
        while let Some(&di) = stack.last() {
            match marks.get(&di) {
                Some(Mark::Done) => {
                    stack.pop();
                }
                Some(Mark::Visiting) => {
                    marks.insert(di, Mark::Done);
                    order.push(di);
                    stack.pop();
                }
                None => {
                    marks.insert(di, Mark::Visiting);
                    for n in &defs[di].inputs {
                        if net_lits.contains_key(n.as_str()) {
                            continue;
                        }
                        let &dep = driver.get(n.as_str()).ok_or_else(|| {
                            err(defs[di].line, &format!("net `{n}` is never defined"))
                        })?;
                        match marks.get(&dep) {
                            Some(Mark::Visiting) => {
                                return Err(err(defs[di].line, &format!("cycle through `{n}`")))
                            }
                            Some(Mark::Done) => {}
                            None => stack.push(dep),
                        }
                    }
                }
            }
        }
    }
    // `order` is reverse-dependency order only if we pushed on Done; we
    // did — dependencies complete before dependents.
    for di in order {
        let def = &defs[di];
        let lit = build_sop(&mut aig, def, &net_lits).map_err(|m| err(def.line, &m))?;
        net_lits.insert(def.output.clone(), lit);
    }
    let mut latches = Vec::with_capacity(latch_defs.len());
    for (l, &state) in latch_defs.iter().zip(&state_vars) {
        let &next = net_lits.get(l.next.as_str()).ok_or_else(|| {
            err(
                l.line,
                &format!("latch input `{}` is never defined", l.next),
            )
        })?;
        latches.push(Latch {
            state,
            next,
            init: l.init,
        });
    }
    for n in &outputs {
        let &lit = net_lits
            .get(n.as_str())
            .ok_or_else(|| err(0, &format!("output `{n}` is never defined")))?;
        aig.add_output(n.clone(), lit);
    }
    Ok(BlifModel {
        name: if name.is_empty() { "top".into() } else { name },
        aig,
        net_lits,
        latches,
    })
}

fn build_sop(aig: &mut Aig, def: &SopDef, net_lits: &HashMap<String, Lit>) -> Result<Lit, String> {
    let in_lits: Result<Vec<Lit>, String> = def
        .inputs
        .iter()
        .map(|n| {
            net_lits
                .get(n.as_str())
                .copied()
                .ok_or_else(|| format!("net `{n}` undefined"))
        })
        .collect();
    let in_lits = in_lits?;
    if def.rows.is_empty() {
        // Empty cover: constant 0.
        return Ok(Lit::FALSE);
    }
    let out_val = def.rows[0].1;
    if def.rows.iter().any(|(_, v)| *v != out_val) {
        return Err("mixed on-set and off-set rows in one cover".into());
    }
    let cubes: Vec<Lit> = def
        .rows
        .iter()
        .map(|(pattern, _)| {
            let lits: Vec<Lit> = pattern
                .iter()
                .zip(&in_lits)
                .filter_map(|(bit, &l)| bit.map(|b| l.xor_complement(!b)))
                .collect();
            aig.and_many(&lits)
        })
        .collect();
    let union = aig.or_many(&cubes);
    Ok(union.xor_complement(!out_val))
}

/// Writes the reachable logic of a design as flat BLIF, with a `.latch`
/// line per latch.
///
/// AND nodes become two-input covers with complement handling in the
/// pattern plane; outputs get buffer/inverter covers. Each latch's
/// `state` must be an input variable of `aig` (its name becomes the
/// latch output net) and `next` a literal of `aig`; a combinational
/// design passes `&[]`. The emitted form is canonical — internal nets
/// are named `n<k>` in emission order, latch-next inverters `ln<k>` —
/// so write → [`parse_blif`] → write is a byte-level fixpoint.
pub fn write_blif(aig: &Aig, model_name: &str, latches: &[Latch]) -> String {
    use fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, ".model {model_name}");
    let states: std::collections::HashSet<Var> = latches.iter().map(|l| l.state).collect();
    let input_names: Vec<&str> = aig
        .inputs()
        .iter()
        .enumerate()
        .filter(|(_, v)| !states.contains(v))
        .map(|(p, _)| aig.input_name(p))
        .collect();
    if !input_names.is_empty() {
        let _ = writeln!(s, ".inputs {}", input_names.join(" "));
    }
    let out_names: Vec<String> = aig.outputs().iter().map(|o| o.name.clone()).collect();
    if !out_names.is_empty() {
        let _ = writeln!(s, ".outputs {}", out_names.join(" "));
    }

    let mut roots: Vec<Lit> = aig.outputs().iter().map(|o| o.lit).collect();
    roots.extend(latches.iter().map(|l| l.next));
    let mut name_of: HashMap<Var, String> = HashMap::new();
    name_of.insert(Var::CONST, "__const0".to_string());
    for (p, &v) in aig.inputs().iter().enumerate() {
        name_of.insert(v, aig.input_name(p).to_owned());
    }
    let cone = aig.cone_vars(&roots);
    // Generated names must not collide with nets that already have a
    // driver or declaration — inputs (e.g. a cut ECO target named `n3`),
    // outputs, and latch state nets. The skip is a deterministic function
    // of those names, so a parsed copy still re-emits identical bytes.
    let mut taken: std::collections::HashSet<String> =
        name_of.values().cloned().chain(out_names.clone()).collect();
    // Name internal nets by emission order, not var index: a parsed copy
    // then re-emits identical names even though its numbering differs.
    let mut fresh = 0usize;
    for &v in &cone {
        if aig.is_and(v) {
            let mut name = format!("n{fresh}");
            while taken.contains(&name) {
                fresh += 1;
                name = format!("n{fresh}");
            }
            taken.insert(name.clone());
            name_of.insert(v, name);
            fresh += 1;
        }
    }

    // Latch lines come before the covers; each references its next-state
    // net by name, with `ln<k>` inverter/constant covers emitted below
    // for literals that have no positive-net name.
    let mut aux_covers: Vec<String> = Vec::new();
    for (k, &Latch { state, next, init }) in latches.iter().enumerate() {
        let state_name = name_of[&state].clone();
        let next_name = if next.var() == Var::CONST || next.is_complement() {
            let mut j = k;
            let mut ln = format!("ln{j}");
            while taken.contains(&ln) {
                j += 1;
                ln = format!("ln{j}");
            }
            taken.insert(ln.clone());
            let mut cover = String::new();
            if next.var() == Var::CONST {
                let _ = writeln!(cover, ".names {ln}");
                if next == Lit::TRUE {
                    let _ = writeln!(cover, "1");
                }
            } else {
                let _ = writeln!(cover, ".names {} {ln}\n0 1", name_of[&next.var()]);
            }
            aux_covers.push(cover);
            ln
        } else {
            name_of[&next.var()].clone()
        };
        let init_digit = match init {
            LatchInit::Zero => '0',
            LatchInit::One => '1',
            LatchInit::DontCare => '2',
        };
        let _ = writeln!(s, ".latch {next_name} {state_name} {init_digit}");
    }

    let mut const_used = false;
    for &v in &cone {
        if let Some((fan0, fan1)) = aig.and_fanins(v) {
            let p0 = if fan0.is_complement() { '0' } else { '1' };
            let p1 = if fan1.is_complement() { '0' } else { '1' };
            let _ = writeln!(
                s,
                ".names {} {} {}\n{}{} 1",
                name_of[&fan0.var()],
                name_of[&fan1.var()],
                name_of[&v],
                p0,
                p1
            );
            const_used |= fan0.var() == Var::CONST || fan1.var() == Var::CONST;
        }
    }
    for out in aig.outputs() {
        let v = out.lit.var();
        if v == Var::CONST {
            // Constant output: empty cover = 0, single `1` row = 1.
            let _ = writeln!(s, ".names {}", out.name);
            if out.lit.is_complement() {
                let _ = writeln!(s, "1");
            }
            continue;
        }
        // An output that IS an input net of the same name (e.g. a cut
        // ECO target fed back out) needs no cover — emitting the buffer
        // would drive the declared input a second time.
        if !out.lit.is_complement() && name_of[&v] == out.name {
            continue;
        }
        let row = if out.lit.is_complement() {
            "0 1"
        } else {
            "1 1"
        };
        let _ = writeln!(s, ".names {} {}\n{}", name_of[&v], out.name, row);
    }
    for cover in &aux_covers {
        s.push_str(cover);
    }
    if const_used {
        let _ = writeln!(s, ".names __const0");
    }
    s.push_str(".end\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_model() {
        let text = ".model demo\n.inputs a b c\n.outputs y z\n\
                    .names a b w\n11 1\n\
                    .names w c y\n10 1\n01 1\n\
                    .names c z\n0 1\n.end\n";
        let m = parse_blif(text).expect("parses");
        assert_eq!(m.name, "demo");
        for bits in 0u32..8 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let w = vals[0] && vals[1];
            assert_eq!(m.aig.eval(&vals), vec![w ^ vals[2], !vals[2]], "{vals:?}");
        }
    }

    #[test]
    fn dont_cares_and_offset_rows() {
        // f defined by off-set rows: f = !(a & !b).
        let text = ".model m\n.inputs a b\n.outputs f g\n\
                    .names a b f\n10 0\n\
                    .names a b g\n-1 1\n.end\n";
        let m = parse_blif(text).expect("parses");
        for bits in 0u32..4 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            let out = m.aig.eval(&vals);
            assert_eq!(out[0], !vals[0] || vals[1], "f at {vals:?}");
            assert_eq!(out[1], vals[1], "g at {vals:?}");
        }
    }

    #[test]
    fn constants_and_continuations() {
        let text = ".model m\n.inputs a\n.outputs one zero pass\n\
                    .names one\n1\n.names zero\n\
                    .names a \\\npass\n1 1\n.end\n";
        let m = parse_blif(text).expect("parses");
        assert_eq!(m.aig.eval(&[false]), vec![true, false, false]);
        assert_eq!(m.aig.eval(&[true]), vec![true, false, true]);
    }

    #[test]
    fn out_of_order_definitions() {
        let text = ".model m\n.inputs a b\n.outputs y\n\
                    .names w a y\n11 1\n\
                    .names a b w\n01 1\n10 1\n.end\n";
        let m = parse_blif(text).expect("parses");
        for bits in 0u32..4 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            let w = vals[0] ^ vals[1];
            assert_eq!(m.aig.eval(&vals), vec![w && vals[0]]);
        }
    }

    #[test]
    fn rejects_unsupported_and_malformed() {
        assert!(parse_blif(".model m\n.subckt foo\n.end\n").is_err());
        assert!(parse_blif(".model m\n.inputs a\n.outputs y\n11 1\n.end\n").is_err());
        assert!(parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1\n.end\n").is_err());
        assert!(parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\nx 1\n.end\n").is_err());
        assert!(
            parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n").is_err()
        );
        // Cycle.
        assert!(parse_blif(
            ".model m\n.inputs a\n.outputs y\n.names y a w\n11 1\n.names w a y\n11 1\n.end\n"
        )
        .is_err());
        // Undefined output.
        assert!(parse_blif(".model m\n.inputs a\n.outputs ghost\n.end\n").is_err());
    }

    #[test]
    fn rejects_malformed_latches() {
        // Too few tokens.
        assert!(parse_blif(".model m\n.latch a\n.end\n").is_err());
        // Bad init value.
        assert!(parse_blif(".model m\n.inputs a\n.latch a s 9\n.end\n").is_err());
        // Bad latch type.
        assert!(parse_blif(".model m\n.inputs a c\n.latch a s xx c 0\n.end\n").is_err());
        // Undefined next net.
        assert!(parse_blif(".model m\n.latch ghost s 0\n.end\n").is_err());
        // State double-driven by a cover.
        assert!(parse_blif(".model m\n.inputs a\n.latch a s 0\n.names a s\n1 1\n.end\n").is_err());
        // State declared twice.
        assert!(parse_blif(".model m\n.inputs a\n.latch a s 0\n.latch a s 1\n.end\n").is_err());
    }

    #[test]
    fn parses_latches() {
        // 2-bit shift register: s1' = s0, s0' = d; q = s1.
        let text = ".model sr\n.inputs d\n.outputs q\n\
                    .latch d s0 0\n.latch s0 s1 1\n\
                    .names s1 q\n1 1\n.end\n";
        let m = parse_blif(text).expect("parses");
        assert_eq!(m.latches.len(), 2);
        assert_eq!(m.latches[0].state, m.net_lits["s0"].var());
        assert_eq!(m.latches[0].init, LatchInit::Zero);
        assert_eq!(m.latches[1].init, LatchInit::One);
        // Latch states elaborate as inputs: d, s0, s1.
        assert_eq!(m.aig.num_inputs(), 3);
        assert_eq!(m.latches[1].next, m.net_lits["s0"]);
    }

    #[test]
    fn feedback_through_latch_is_not_a_cycle() {
        // Toggle: t' = !t.
        let text = ".model tog\n.outputs q\n.latch nt t 0\n\
                    .names t nt\n0 1\n.names t q\n1 1\n.end\n";
        let m = parse_blif(text).expect("parses");
        assert_eq!(m.latches.len(), 1);
        assert_eq!(m.latches[0].next, !m.net_lits["t"]);
    }

    #[test]
    fn seq_write_round_trip_is_byte_fixpoint() {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let s0 = aig.add_input("s0");
        let s1 = aig.add_input("s1");
        let fb = aig.xor(d, s1);
        let q = aig.and(s0, s1);
        aig.add_output("q", q);
        let latches = [
            Latch {
                state: s0.var(),
                next: fb,
                init: LatchInit::Zero,
            },
            Latch {
                state: s1.var(),
                next: !s0,
                init: LatchInit::DontCare,
            },
        ];
        let text = write_blif(&aig, "sr", &latches);
        let m = parse_blif(&text).expect("round trip parses");
        assert_eq!(m.latches.len(), 2);
        assert_eq!(write_blif(&m.aig, "sr", &m.latches), text);
    }

    /// Inputs named like generated nets (`n<k>` — e.g. a cut ECO target
    /// that kept its original name — or `ln<k>`) must not collide with
    /// the writer's canonical internal/aux names: the emitted file stays
    /// single-driver, parses back, and remains a byte fixpoint.
    #[test]
    fn generated_names_skip_colliding_inputs() {
        let mut aig = Aig::new();
        let n0 = aig.add_input("n0");
        let ln0 = aig.add_input("ln0");
        let s = aig.add_input("s");
        let g = aig.and(n0, ln0);
        let h = aig.and(g, s);
        aig.add_output("y", h);
        // A cut target fed straight back out: input `n0` is also the
        // output `n0`, which must not get a self-driving buffer cover.
        aig.add_output("n0", n0);
        let latches = [Latch {
            state: s.var(),
            next: !g,
            init: LatchInit::Zero,
        }];
        let text = write_blif(&aig, "clash", &latches);
        let m = parse_blif(&text).expect("no multiple drivers");
        assert_eq!(m.latches.len(), 1);
        assert_eq!(write_blif(&m.aig, "clash", &m.latches), text);
    }

    #[test]
    fn write_round_trip() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, !b);
        let f = aig.xor(ab, c);
        aig.add_output("f", f);
        aig.add_output("nf", !f);
        aig.add_output("k1", Lit::TRUE);
        let text = write_blif(&aig, "rt", &[]);
        let back = parse_blif(&text).expect("round trip parses");
        assert!(back.latches.is_empty());
        for bits in 0u32..8 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(&vals), back.aig.eval(&vals), "{vals:?}");
        }
    }
}
