//! AIGER format I/O.
//!
//! Reads and writes the [AIGER](https://fmv.jku.at/aiger/) interchange
//! format in both its ASCII (`aag`) and binary (`aig`) variants. AIGER's
//! literal encoding (`2·var + complement`, 0 = false) matches [`Lit`]
//! exactly; only the variable numbering differs, since AIGER requires
//! inputs first.
//!
//! Two API levels:
//!
//! * [`parse_aiger_ascii`] / [`write_aiger_ascii`] (and the binary pair)
//!   handle the combinational subset — files with latches are rejected;
//! * [`parse_aiger_ascii_seq`] / [`write_aiger_ascii_seq`] (and the
//!   binary pair) additionally carry latches as [`AigerLatch`] records:
//!   each latch's current state is an ordinary input of the returned
//!   [`Aig`], and its next-state function is a literal of the same AIG.
//!
//! Only the canonical ("reencoded") variable order is accepted: inputs
//! `1..=I`, latch states `I+1..=I+L`, ANDs after. Both writers emit that
//! order, so write → parse → write is a byte-level fixpoint.
//!
//! The parsers size their tables from the header, so the header's counts
//! are checked against the input before anything is allocated:
//!
//! * every line an `aag` header declares (I + L + O + A) must fit the
//!   text after the header, at two bytes a line (the last line may lack
//!   its newline);
//! * every latch line, output line and AND an `aig` header declares
//!   (L + O + A) must fit the remaining bytes, at two bytes each;
//! * binary inputs take no bytes, so an `aig` header may declare at most
//!   [`MAX_BINARY_INPUTS`] = 2^20 primary inputs;
//! * M may not exceed the AIG node limit (2^31 − 2).
//!
//! A header that fails any check is a [`ParseAigerError`].

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::aig::MAX_INDEX;
use crate::{Aig, Lit, Var};

/// Most primary inputs a binary (`aig`) header may declare. Binary AIGER
/// stores no input lines, so the file length cannot bound them.
pub const MAX_BINARY_INPUTS: u32 = 1 << 20;

/// Error produced when AIGER data cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid AIGER: {}", self.message)
    }
}

impl Error for ParseAigerError {}

fn err(message: impl Into<String>) -> ParseAigerError {
    ParseAigerError {
        message: message.into(),
    }
}

/// Initial value of an AIGER latch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AigerInit {
    /// Resets to 0 (the AIGER default).
    Zero,
    /// Resets to 1.
    One,
    /// Uninitialized: the first-cycle value is free (encoded in AIGER as
    /// an init field equal to the latch's own literal).
    DontCare,
}

/// A latch of a sequential AIGER file.
///
/// `state` is an input variable of the accompanying [`Aig`] holding the
/// current-state value; `next` is the next-state literal in the same AIG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AigerLatch {
    /// Current-state variable (an input of the AIG).
    pub state: Var,
    /// Next-state literal.
    pub next: Lit,
    /// Reset value.
    pub init: AigerInit,
}

/// Marker for nodes outside the emitted cone in the renumbering table.
const UNMAPPED: u32 = u32::MAX;

/// Renumbering of an AIG into AIGER order: primary inputs `1..=I`, latch
/// states `I+1..=I+L`, then ANDs in topological order. Returns (dense
/// table old var index → new AIGER var, AND vars in emission order).
/// Nodes outside the reachable cone stay [`UNMAPPED`]; a dense table
/// beats a `HashMap` here because emission touches every mapped node at
/// least twice.
fn renumber(aig: &Aig, pis: &[Var], latches: &[AigerLatch]) -> (Vec<u32>, Vec<Var>) {
    let mut map = vec![UNMAPPED; aig.len()];
    map[Var::CONST.index() as usize] = 0;
    let mut next: u32 = 1;
    for &v in pis {
        map[v.index() as usize] = next;
        next += 1;
    }
    for l in latches {
        map[l.state.index() as usize] = next;
        next += 1;
    }
    let mut roots: Vec<Lit> = aig.outputs().iter().map(|o| o.lit).collect();
    roots.extend(latches.iter().map(|l| l.next));
    let mut ands = Vec::new();
    for v in aig.cone_vars(&roots) {
        if aig.is_and(v) {
            map[v.index() as usize] = next;
            next += 1;
            ands.push(v);
        }
    }
    (map, ands)
}

fn map_lit(map: &[u32], lit: Lit) -> u32 {
    let m = map[lit.var().index() as usize];
    debug_assert_ne!(m, UNMAPPED, "literal outside the emitted cone");
    m * 2 + lit.is_complement() as u32
}

/// Primary-input vars: every AIG input that is not a latch state, in
/// input-position order. Panics if a latch state is not an input — the
/// sequential writers require validated designs.
fn split_inputs(aig: &Aig, latches: &[AigerLatch]) -> Vec<Var> {
    let states: HashSet<Var> = latches.iter().map(|l| l.state).collect();
    for l in latches {
        assert!(
            aig.is_input(l.state),
            "latch state must be an AIG input variable"
        );
    }
    aig.inputs()
        .iter()
        .copied()
        .filter(|v| !states.contains(v))
        .collect()
}

/// Formats one latch definition's `next [init]` tail (shared by both
/// writers): the init field is omitted for the default 0, `1` for
/// init-to-1, and the latch's own literal for uninitialized.
fn latch_tail(map: &[u32], state_lit: u32, l: &AigerLatch) -> String {
    let next = map_lit(map, l.next);
    match l.init {
        AigerInit::Zero => format!("{next}"),
        AigerInit::One => format!("{next} 1"),
        AigerInit::DontCare => format!("{next} {state_lit}"),
    }
}

fn symbol_table(aig: &Aig, pis: &[Var], latches: &[AigerLatch]) -> String {
    use fmt::Write as _;
    let mut s = String::new();
    let name = |v: Var| {
        let pos = aig.input_pos(v).expect("input var");
        aig.input_name(pos)
    };
    for (k, &v) in pis.iter().enumerate() {
        let _ = writeln!(s, "i{k} {}", name(v));
    }
    for (k, l) in latches.iter().enumerate() {
        let _ = writeln!(s, "l{k} {}", name(l.state));
    }
    for (k, out) in aig.outputs().iter().enumerate() {
        let _ = writeln!(s, "o{k} {}", out.name);
    }
    s
}

/// Writes the reachable logic as ASCII AIGER (`aag`), including a symbol
/// table with the input and output names.
pub fn write_aiger_ascii(aig: &Aig) -> String {
    write_aiger_ascii_seq(aig, &[])
}

/// Writes a latch-bearing design as ASCII AIGER (`aag`).
///
/// Latch current states must be input variables of `aig`; they are
/// emitted after the primary inputs, with `l<k>` symbol-table entries
/// carrying their names.
pub fn write_aiger_ascii_seq(aig: &Aig, latches: &[AigerLatch]) -> String {
    use fmt::Write as _;
    let pis = split_inputs(aig, latches);
    let (map, ands) = renumber(aig, &pis, latches);
    let (i, l, a) = (pis.len(), latches.len(), ands.len());
    let m = i + l + a;
    let mut s = String::new();
    let _ = writeln!(s, "aag {m} {i} {l} {} {a}", aig.num_outputs());
    for k in 0..i {
        let _ = writeln!(s, "{}", (k + 1) * 2);
    }
    for (k, lat) in latches.iter().enumerate() {
        let state_lit = u32::try_from((i + k + 1) * 2).expect("literal fits in u32");
        let _ = writeln!(s, "{state_lit} {}", latch_tail(&map, state_lit, lat));
    }
    for out in aig.outputs() {
        let _ = writeln!(s, "{}", map_lit(&map, out.lit));
    }
    for &v in &ands {
        let (f0, f1) = aig.and_fanins(v).expect("AND node");
        let lhs = map[v.index() as usize] * 2;
        let (r0, r1) = (map_lit(&map, f0), map_lit(&map, f1));
        let (r0, r1) = if r0 >= r1 { (r0, r1) } else { (r1, r0) };
        let _ = writeln!(s, "{lhs} {r0} {r1}");
    }
    s.push_str(&symbol_table(aig, &pis, latches));
    s
}

/// Writes the reachable logic as binary AIGER (`aig`), including a symbol
/// table.
pub fn write_aiger_binary(aig: &Aig) -> Vec<u8> {
    write_aiger_binary_seq(aig, &[])
}

/// Writes a latch-bearing design as binary AIGER (`aig`). See
/// [`write_aiger_ascii_seq`] for the latch conventions.
pub fn write_aiger_binary_seq(aig: &Aig, latches: &[AigerLatch]) -> Vec<u8> {
    let pis = split_inputs(aig, latches);
    let (map, ands) = renumber(aig, &pis, latches);
    let (i, l, a) = (pis.len(), latches.len(), ands.len());
    let m = i + l + a;
    let mut out = Vec::new();
    out.extend_from_slice(format!("aig {m} {i} {l} {} {a}\n", aig.num_outputs()).as_bytes());
    for (k, lat) in latches.iter().enumerate() {
        let state_lit = u32::try_from((i + k + 1) * 2).expect("literal fits in u32");
        out.extend_from_slice(format!("{}\n", latch_tail(&map, state_lit, lat)).as_bytes());
    }
    for o in aig.outputs() {
        out.extend_from_slice(format!("{}\n", map_lit(&map, o.lit)).as_bytes());
    }
    for &v in &ands {
        let (f0, f1) = aig.and_fanins(v).expect("AND node");
        let lhs = map[v.index() as usize] * 2;
        let (r0, r1) = (map_lit(&map, f0), map_lit(&map, f1));
        let (r0, r1) = if r0 >= r1 { (r0, r1) } else { (r1, r0) };
        debug_assert!(lhs > r0, "binary AIGER requires lhs > rhs0");
        write_varint(&mut out, lhs - r0);
        write_varint(&mut out, r0 - r1);
    }
    out.extend_from_slice(symbol_table(aig, &pis, latches).as_bytes());
    out
}

// Both narrowings keep only the low 7 bits by construction.
#[allow(clippy::cast_possible_truncation)]
fn write_varint(out: &mut Vec<u8>, mut x: u32) {
    while x >= 0x80 {
        out.push((x & 0x7f) as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u32, ParseAigerError> {
    let mut x: u32 = 0;
    let mut shift = 0;
    loop {
        let &b = data.get(*pos).ok_or_else(|| err("truncated delta"))?;
        *pos += 1;
        x |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift > 28 {
            return Err(err("delta overflow"));
        }
    }
}

struct Header {
    m: u32,
    i: u32,
    l: u32,
    o: u32,
    a: u32,
}

/// Parses the header line of an `aag` or `aig` file (per `magic`), whose
/// content after the header line is `rest` bytes long, and checks its
/// counts against that length (see the module docs).
fn parse_header(line: &str, magic: &str, rest: usize) -> Result<Header, ParseAigerError> {
    let mut it = line.split_whitespace();
    if it.next() != Some(magic) {
        return Err(err(format!("expected `{magic}` header")));
    }
    let mut field = |name: &str| -> Result<u32, ParseAigerError> {
        it.next()
            .ok_or_else(|| err(format!("missing {name}")))?
            .parse()
            .map_err(|_| err(format!("invalid {name}")))
    };
    let m = field("M")?;
    let i = field("I")?;
    let l = field("L")?;
    let o = field("O")?;
    let a = field("A")?;
    if m != i
        .checked_add(l)
        .and_then(|x| x.checked_add(a))
        .ok_or_else(|| err("header counts overflow"))?
    {
        return Err(err("M != I + L + A"));
    }
    if m > MAX_INDEX {
        return Err(err(format!("M = {m} exceeds the AIG node limit")));
    }
    let (lines, room) = if magic == "aig" {
        if i > MAX_BINARY_INPUTS {
            return Err(err(format!(
                "I = {i} exceeds the binary input limit {MAX_BINARY_INPUTS}"
            )));
        }
        (u64::from(l) + u64::from(o) + u64::from(a), rest as u64)
    } else {
        let lines = u64::from(i) + u64::from(l) + u64::from(o) + u64::from(a);
        (lines, rest as u64 + 1)
    };
    if 2 * lines > room {
        return Err(err(format!(
            "header declares {lines} entries but only {rest} bytes follow"
        )));
    }
    Ok(Header { m, i, l, o, a })
}

/// Raw latch definition: next-state literal plus optional init literal.
struct LatchDef {
    next: u32,
    init: Option<u32>,
}

fn parse_latch_init(state_lit: u32, def: &LatchDef) -> Result<AigerInit, ParseAigerError> {
    match def.init {
        None | Some(0) => Ok(AigerInit::Zero),
        Some(1) => Ok(AigerInit::One),
        Some(x) if x == state_lit => Ok(AigerInit::DontCare),
        Some(x) => Err(err(format!("invalid latch init literal {x}"))),
    }
}

/// Builds the AIG given resolved AND definitions, latch definitions, and
/// output literals.
fn build(
    header: &Header,
    latch_defs: &[LatchDef],
    and_defs: &[(u32, u32, u32)],
    out_lits: &[u32],
    symbols: &HashMap<String, String>,
) -> Result<(Aig, Vec<AigerLatch>), ParseAigerError> {
    let mut aig = Aig::new();
    // lits[v] = our literal for AIGER variable v.
    let mut lits: Vec<Option<Lit>> = vec![None; header.m as usize + 1];
    lits[0] = Some(Lit::FALSE);
    for k in 0..header.i {
        let name = symbols
            .get(&format!("i{k}"))
            .cloned()
            .unwrap_or_else(|| format!("i{k}"));
        lits[k as usize + 1] = Some(aig.add_input(name));
    }
    for k in 0..header.l {
        let name = symbols
            .get(&format!("l{k}"))
            .cloned()
            .unwrap_or_else(|| format!("l{k}"));
        lits[(header.i + k) as usize + 1] = Some(aig.add_input(name));
    }
    let resolve = |lits: &[Option<Lit>], l: u32| -> Result<Lit, ParseAigerError> {
        let v = (l / 2) as usize;
        let base = lits
            .get(v)
            .copied()
            .flatten()
            .ok_or_else(|| err(format!("literal {l} references undefined variable")))?;
        Ok(base.xor_complement(l % 2 == 1))
    };
    for &(lhs, r0, r1) in and_defs {
        if lhs % 2 != 0 {
            return Err(err("AND left-hand side must be even"));
        }
        if r0 >= lhs || r1 >= lhs {
            return Err(err("AND right-hand sides must precede the definition"));
        }
        let a = resolve(&lits, r0)?;
        let b = resolve(&lits, r1)?;
        let v = (lhs / 2) as usize;
        if lits[v].is_some() {
            return Err(err(format!("variable {v} defined twice")));
        }
        lits[v] = Some(aig.and(a, b));
    }
    // Latch next-state literals may reference ANDs defined later in the
    // file, so they resolve only after the AND section is built.
    let mut latches = Vec::with_capacity(latch_defs.len());
    for (k, def) in latch_defs.iter().enumerate() {
        let state_lit = (header.i + u32::try_from(k).expect("latch count fits in u32") + 1) * 2;
        let state = resolve(&lits, state_lit)?.var();
        latches.push(AigerLatch {
            state,
            next: resolve(&lits, def.next)?,
            init: parse_latch_init(state_lit, def)?,
        });
    }
    for (k, &l) in out_lits.iter().enumerate() {
        let lit = resolve(&lits, l)?;
        let name = symbols
            .get(&format!("o{k}"))
            .cloned()
            .unwrap_or_else(|| format!("o{k}"));
        aig.add_output(name, lit);
    }
    Ok((aig, latches))
}

fn parse_symbols<'a>(lines: impl Iterator<Item = &'a str>) -> HashMap<String, String> {
    let mut symbols = HashMap::new();
    for line in lines {
        if line.starts_with('c') {
            break;
        }
        if let Some((key, name)) = line.split_once(' ') {
            symbols.insert(key.to_string(), name.to_string());
        }
    }
    symbols
}

fn reject_latches((aig, latches): (Aig, Vec<AigerLatch>)) -> Result<Aig, ParseAigerError> {
    if latches.is_empty() {
        Ok(aig)
    } else {
        Err(err("latches are not supported (combinational only)"))
    }
}

/// Parses ASCII AIGER (`aag`), combinational subset.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, latches, forward
/// references, or redefinitions.
///
/// # Examples
///
/// ```
/// let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 y\n";
/// let aig = eco_aig::parse_aiger_ascii(text)?;
/// assert_eq!(aig.eval(&[true, true]), vec![true]);
/// assert_eq!(aig.eval(&[true, false]), vec![false]);
/// # Ok::<(), eco_aig::ParseAigerError>(())
/// ```
pub fn parse_aiger_ascii(text: &str) -> Result<Aig, ParseAigerError> {
    reject_latches(parse_aiger_ascii_seq(text)?)
}

/// Parses ASCII AIGER (`aag`) including latches.
///
/// Latch current states become input variables of the returned [`Aig`]
/// (after the primary inputs, named from `l<k>` symbol entries when
/// present); their next-state literals and init values are returned as
/// [`AigerLatch`] records in file order.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, non-canonical
/// input/latch numbering, forward AND references, or redefinitions.
pub fn parse_aiger_ascii_seq(text: &str) -> Result<(Aig, Vec<AigerLatch>), ParseAigerError> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or_else(|| err("empty input"))?;
    let rest = text.len().saturating_sub(header_line.len() + 1);
    let header = parse_header(header_line, "aag", rest)?;
    let mut next_line = |what: &str| -> Result<&str, ParseAigerError> {
        lines.next().ok_or_else(|| err(format!("missing {what}")))
    };
    for k in 0..header.i {
        let l: u32 = next_line("input line")?
            .trim()
            .parse()
            .map_err(|_| err("invalid input literal"))?;
        if l != (k + 1) * 2 {
            return Err(err("inputs must be 2, 4, ... in order"));
        }
    }
    let mut latch_defs = Vec::with_capacity(header.l as usize);
    for k in 0..header.l {
        let line = next_line("latch line")?;
        let mut it = line.split_whitespace();
        let mut num = |what: &str| -> Result<Option<u32>, ParseAigerError> {
            it.next()
                .map(|t| t.parse().map_err(|_| err(format!("invalid {what}"))))
                .transpose()
        };
        let state = num("latch state literal")?.ok_or_else(|| err("missing latch state"))?;
        if state != (header.i + k + 1) * 2 {
            return Err(err("latch states must follow the inputs in order"));
        }
        let next = num("latch next literal")?.ok_or_else(|| err("missing latch next"))?;
        let init = num("latch init literal")?;
        if it.next().is_some() {
            return Err(err("trailing tokens on latch line"));
        }
        latch_defs.push(LatchDef { next, init });
    }
    let mut out_lits = Vec::with_capacity(header.o as usize);
    for _ in 0..header.o {
        out_lits.push(
            next_line("output line")?
                .trim()
                .parse()
                .map_err(|_| err("invalid output literal"))?,
        );
    }
    let mut and_defs = Vec::with_capacity(header.a as usize);
    for _ in 0..header.a {
        let line = next_line("AND line")?;
        let mut it = line.split_whitespace();
        let mut num = |what: &str| -> Result<u32, ParseAigerError> {
            it.next()
                .ok_or_else(|| err(format!("missing {what}")))?
                .parse()
                .map_err(|_| err(format!("invalid {what}")))
        };
        and_defs.push((num("lhs")?, num("rhs0")?, num("rhs1")?));
    }
    let symbols = parse_symbols(lines);
    build(&header, &latch_defs, &and_defs, &out_lits, &symbols)
}

/// Parses binary AIGER (`aig`), combinational subset.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, latches, or corrupt
/// delta encodings.
pub fn parse_aiger_binary(data: &[u8]) -> Result<Aig, ParseAigerError> {
    reject_latches(parse_aiger_binary_seq(data)?)
}

/// Parses binary AIGER (`aig`) including latches. See
/// [`parse_aiger_ascii_seq`] for the latch conventions.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers or corrupt delta
/// encodings.
pub fn parse_aiger_binary_seq(data: &[u8]) -> Result<(Aig, Vec<AigerLatch>), ParseAigerError> {
    let header_end = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| err("missing header line"))?;
    let header_line =
        std::str::from_utf8(&data[..header_end]).map_err(|_| err("non-UTF-8 header"))?;
    let header = parse_header(header_line, "aig", data.len() - header_end - 1)?;
    let mut pos = header_end + 1;
    let ascii_line = |pos: &mut usize, what: &str| -> Result<String, ParseAigerError> {
        let end = data[*pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| err(format!("truncated {what} section")))?;
        let line = std::str::from_utf8(&data[*pos..*pos + end])
            .map_err(|_| err(format!("non-UTF-8 {what}")))?;
        *pos += end + 1;
        Ok(line.to_string())
    };
    // Binary AIGER keeps latch states implicit: line k defines the latch
    // with state literal 2·(I+k+1) and holds only `next [init]`.
    let mut latch_defs = Vec::with_capacity(header.l as usize);
    for _ in 0..header.l {
        let line = ascii_line(&mut pos, "latch")?;
        let mut it = line.split_whitespace();
        let next = it
            .next()
            .ok_or_else(|| err("missing latch next"))?
            .parse()
            .map_err(|_| err("invalid latch next literal"))?;
        let init = it
            .next()
            .map(|t| t.parse().map_err(|_| err("invalid latch init literal")))
            .transpose()?;
        if it.next().is_some() {
            return Err(err("trailing tokens on latch line"));
        }
        latch_defs.push(LatchDef { next, init });
    }
    let mut out_lits = Vec::with_capacity(header.o as usize);
    for _ in 0..header.o {
        let line = ascii_line(&mut pos, "output")?;
        out_lits.push(
            line.trim()
                .parse()
                .map_err(|_| err("invalid output literal"))?,
        );
    }
    let mut and_defs = Vec::with_capacity(header.a as usize);
    for k in 0..header.a {
        let lhs = (header.i + header.l + k + 1) * 2;
        let d0 = read_varint(data, &mut pos)?;
        let d1 = read_varint(data, &mut pos)?;
        let r0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| err("delta0 exceeds lhs"))?;
        let r1 = r0
            .checked_sub(d1)
            .ok_or_else(|| err("delta1 exceeds rhs0"))?;
        and_defs.push((lhs, r0, r1));
    }
    let symbols = match std::str::from_utf8(&data[pos..]) {
        Ok(rest) => parse_symbols(rest.lines()),
        Err(_) => HashMap::new(),
    };
    build(&header, &latch_defs, &and_defs, &out_lits, &symbols)
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // small in-range test constants
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let f = aig.xor(ab, !c);
        let g = aig.or(a, c);
        aig.add_output("f", f);
        aig.add_output("g", !g);
        aig
    }

    /// A 2-bit shift register with an XOR feedback tap and one output.
    fn seq_sample() -> (Aig, Vec<AigerLatch>) {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let s0 = aig.add_input("s0");
        let s1 = aig.add_input("s1");
        let fb = aig.xor(d, s1);
        let q = aig.and(s0, s1);
        aig.add_output("q", q);
        let latches = vec![
            AigerLatch {
                state: s0.var(),
                next: fb,
                init: AigerInit::Zero,
            },
            AigerLatch {
                state: s1.var(),
                next: s0,
                init: AigerInit::One,
            },
        ];
        (aig, latches)
    }

    fn check_equal(x: &Aig, y: &Aig) {
        assert_eq!(x.num_inputs(), y.num_inputs());
        assert_eq!(x.num_outputs(), y.num_outputs());
        for bits in 0u32..1 << x.num_inputs() {
            let vals: Vec<bool> = (0..x.num_inputs()).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(x.eval(&vals), y.eval(&vals), "at {vals:?}");
        }
    }

    #[test]
    fn ascii_round_trip() {
        let aig = sample();
        let text = write_aiger_ascii(&aig);
        let back = parse_aiger_ascii(&text).expect("parses");
        check_equal(&aig, &back);
        assert_eq!(back.input_name(0), "a");
        assert_eq!(back.outputs()[1].name, "g");
    }

    #[test]
    fn binary_round_trip() {
        let aig = sample();
        let bytes = write_aiger_binary(&aig);
        let back = parse_aiger_binary(&bytes).expect("parses");
        check_equal(&aig, &back);
        assert_eq!(back.input_name(2), "c");
    }

    #[test]
    fn ascii_and_binary_agree() {
        let aig = sample();
        let from_ascii = parse_aiger_ascii(&write_aiger_ascii(&aig)).expect("ascii");
        let from_bin = parse_aiger_binary(&write_aiger_binary(&aig)).expect("binary");
        check_equal(&from_ascii, &from_bin);
    }

    #[test]
    fn constant_outputs() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        aig.add_output("zero", Lit::FALSE);
        aig.add_output("one", Lit::TRUE);
        aig.add_output("pass", a);
        let text = write_aiger_ascii(&aig);
        let back = parse_aiger_ascii(&text).expect("parses");
        assert_eq!(back.eval(&[false]), vec![false, true, false]);
        assert_eq!(back.eval(&[true]), vec![false, true, true]);
        let back = parse_aiger_binary(&write_aiger_binary(&aig)).expect("parses");
        assert_eq!(back.eval(&[true]), vec![false, true, true]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_aiger_ascii("").is_err());
        assert!(parse_aiger_ascii("nope 1 1 0 0 0\n").is_err());
        // Latches rejected by the combinational entry point.
        assert!(parse_aiger_ascii("aag 1 0 1 0 0\n2 2\n").is_err());
        // M != I + L + A.
        assert!(parse_aiger_ascii("aag 5 2 0 0 1\n2\n4\n6 2 4\n").is_err());
        // Forward reference.
        assert!(parse_aiger_ascii("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n").is_err());
        // Odd lhs.
        assert!(parse_aiger_ascii("aag 2 1 0 0 1\n2\n5 2 2\n").is_err());
        // Truncated binary.
        assert!(parse_aiger_binary(b"aig 2 1 0 0 1\n\x80").is_err());
        assert!(parse_aiger_binary(b"no newline").is_err());
        // Sequential: truncated latch section.
        assert!(parse_aiger_ascii_seq("aag 1 0 1 0 0\n").is_err());
        // Non-canonical latch state literal.
        assert!(parse_aiger_ascii_seq("aag 2 1 1 0 0\n2\n6 2\n").is_err());
        // Bogus init literal.
        assert!(parse_aiger_ascii_seq("aag 1 0 1 0 0\n2 2 7\n").is_err());
        // Next literal out of range.
        assert!(parse_aiger_ascii_seq("aag 1 0 1 0 0\n2 9\n").is_err());
        assert!(parse_aiger_binary_seq(b"aig 1 0 1 0 0\n").is_err());
    }

    /// Header counts the input cannot hold are refused before any table
    /// is sized from them: each of these headers alone would ask for
    /// gigabytes (or exceed the node limit).
    #[test]
    fn oversized_headers_are_refused_before_allocating() {
        let refused = |result: Result<(Aig, Vec<AigerLatch>), ParseAigerError>, what: &str| {
            let e = result.expect_err("oversized header must be refused");
            assert!(e.message.contains(what), "{e}");
        };
        // M beyond the node limit, in a one-line binary file.
        refused(
            parse_aiger_binary_seq(b"aig 4000000000 4000000000 0 0 0\n"),
            "node limit",
        );
        // 3·10^9 latch lines declared by a one-line ASCII file.
        refused(
            parse_aiger_ascii_seq("aag 3000000000 0 3000000000 0 0\n"),
            "node limit",
        );
        // Within the node limit, but more lines than the text holds.
        refused(
            parse_aiger_ascii_seq("aag 1000000 1000000 0 0 0\n2\n4\n"),
            "only 4 bytes follow",
        );
        refused(
            parse_aiger_binary_seq(b"aig 1000 0 1000 0 0\n2\n"),
            "only 2 bytes follow",
        );
        // Binary inputs take no bytes: bounded by the stated limit.
        let over = format!("aig {0} {0} 0 0 0\n", MAX_BINARY_INPUTS + 1);
        refused(
            parse_aiger_binary_seq(over.as_bytes()),
            "binary input limit",
        );
        // The limit itself and minimal files still parse.
        let at = format!("aig {0} {0} 0 1 0\n0\n", MAX_BINARY_INPUTS);
        let aig = parse_aiger_binary(at.as_bytes()).expect("at the input limit");
        assert_eq!(aig.num_inputs(), MAX_BINARY_INPUTS as usize);
        assert!(
            parse_aiger_ascii("aag 1 1 0 1 0\n2\n2").is_ok(),
            "last line unterminated"
        );
        assert!(parse_aiger_binary(b"aig 0 0 0 1 0\n0\n").is_ok());
    }

    #[test]
    fn seq_ascii_round_trip_is_byte_fixpoint() {
        let (aig, latches) = seq_sample();
        let text = write_aiger_ascii_seq(&aig, &latches);
        let (back, back_latches) = parse_aiger_ascii_seq(&text).expect("parses");
        assert_eq!(back_latches.len(), 2);
        assert_eq!(back_latches[0].init, AigerInit::Zero);
        assert_eq!(back_latches[1].init, AigerInit::One);
        // Latch names survive via l<k> symbol entries.
        let pos = back.input_pos(back_latches[0].state).expect("input");
        assert_eq!(back.input_name(pos), "s0");
        assert_eq!(write_aiger_ascii_seq(&back, &back_latches), text);
    }

    #[test]
    fn seq_binary_round_trip_is_byte_fixpoint() {
        let (aig, latches) = seq_sample();
        let bytes = write_aiger_binary_seq(&aig, &latches);
        let (back, back_latches) = parse_aiger_binary_seq(&bytes).expect("parses");
        assert_eq!(back_latches.len(), 2);
        assert_eq!(write_aiger_binary_seq(&back, &back_latches), bytes);
    }

    #[test]
    fn seq_dontcare_init_round_trips() {
        let mut aig = Aig::new();
        let s = aig.add_input("s");
        aig.add_output("q", !s);
        let latches = vec![AigerLatch {
            state: s.var(),
            next: !s,
            init: AigerInit::DontCare,
        }];
        let text = write_aiger_ascii_seq(&aig, &latches);
        let (_, back_latches) = parse_aiger_ascii_seq(&text).expect("parses");
        assert_eq!(back_latches[0].init, AigerInit::DontCare);
    }

    /// Seeded random AIGs round-trip through both formats: write → parse
    /// is a semantic identity, names survive, and write → parse → write
    /// reproduces the exact bytes, which pins down the varint codec and
    /// the renumbering pass.
    #[test]
    fn random_aigs_round_trip_both_formats() {
        for seed in 0..64u64 {
            let mut rng = crate::SplitMix64::new(seed);
            let mut aig = Aig::new();
            let n_inputs = rng.range_inclusive(1, 8) as usize;
            let mut lits: Vec<Lit> = (0..n_inputs)
                .map(|i| aig.add_input(format!("x{i}")))
                .collect();
            lits.push(Lit::FALSE);
            for _ in 0..rng.range_inclusive(1, 60) {
                let mut a = lits[rng.index(lits.len())];
                let mut b = lits[rng.index(lits.len())];
                if rng.chance(0.5) {
                    a = !a;
                }
                if rng.chance(0.5) {
                    b = !b;
                }
                lits.push(aig.and(a, b));
            }
            for k in 0..rng.range_inclusive(1, 4) {
                let mut o = lits[rng.index(lits.len())];
                if rng.chance(0.5) {
                    o = !o;
                }
                aig.add_output(format!("y{k}"), o);
            }
            let text = write_aiger_ascii(&aig);
            let bytes = write_aiger_binary(&aig);
            let from_ascii = parse_aiger_ascii(&text).expect("ascii parses");
            let from_bin = parse_aiger_binary(&bytes).expect("binary parses");
            // Write → parse → write is a fixpoint: the parsed AIG is
            // already in AIGER order, so re-emission is byte-identical.
            assert_eq!(write_aiger_ascii(&from_ascii), text, "seed {seed}");
            assert_eq!(write_aiger_binary(&from_bin), bytes, "seed {seed}");
            for pos in 0..aig.num_inputs() {
                assert_eq!(from_ascii.input_name(pos), aig.input_name(pos));
                assert_eq!(from_bin.input_name(pos), aig.input_name(pos));
            }
            for (j, out) in aig.outputs().iter().enumerate() {
                assert_eq!(from_ascii.outputs()[j].name, out.name);
                assert_eq!(from_bin.outputs()[j].name, out.name);
            }
            check_equal(&aig, &from_ascii);
            check_equal(&aig, &from_bin);
        }
    }

    /// A deep AND chain forces multi-byte varint deltas in the binary
    /// encoding (the final gate's fanin spans the whole chain), and
    /// write → parse → write still reproduces the exact bytes.
    #[test]
    fn binary_round_trip_with_multibyte_varints() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // Each chain node's second fanin reaches all the way back to `a`,
        // so the encoded delta grows to ~40k (three varint bytes). The
        // strash never collapses these: every (prev, a) pair is fresh.
        let mut acc = aig.and(a, b);
        for _ in 0..20_000 {
            acc = aig.and(acc, a);
        }
        let far = aig.and(b, acc);
        aig.add_output("f", far);
        aig.add_output("g", !acc);
        let bytes = write_aiger_binary(&aig);
        let back = parse_aiger_binary(&bytes).expect("parses");
        assert_eq!(write_aiger_binary(&back), bytes);
        assert_eq!(back.num_inputs(), 2);
        for bits in 0u32..4 {
            let vals = vec![bits & 1 == 1, bits >> 1 == 1];
            assert_eq!(back.eval(&vals), aig.eval(&vals), "at {vals:?}");
        }
    }

    #[test]
    fn external_handwritten_file() {
        // A 2-input mux written by hand: y = s ? d1 : d0, as
        // y = ¬(¬(¬s ∧ d0) ∧ ¬(s ∧ d1)).
        let text = "aag 6 3 0 1 3\n2\n4\n6\n13\n8 3 4\n10 2 6\n12 9 11\n\
                    i0 s\ni1 d0\ni2 d1\no0 y\n";
        let aig = parse_aiger_ascii(text).expect("parses");
        for s in [false, true] {
            for d0 in [false, true] {
                for d1 in [false, true] {
                    let expect = if s { d1 } else { d0 };
                    assert_eq!(
                        aig.eval(&[s, d0, d1]),
                        vec![expect],
                        "s={s} d0={d0} d1={d1}"
                    );
                }
            }
        }
    }

    /// A hand-written sequential AIGER file: a toggle flip-flop.
    #[test]
    fn external_handwritten_seq_file() {
        // state' = ¬state, q = state, init 0.
        let text = "aag 1 0 1 1 0\n2 3\n2\nl0 t\no0 q\n";
        let (aig, latches) = parse_aiger_ascii_seq(text).expect("parses");
        assert_eq!(latches.len(), 1);
        assert_eq!(latches[0].init, AigerInit::Zero);
        assert_eq!(latches[0].next, !aig.outputs()[0].lit);
    }
}
