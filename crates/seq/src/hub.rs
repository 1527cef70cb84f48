//! The any-to-any format hub.
//!
//! One [`SeqNetlist`] in the middle, every supported interchange format
//! on the rim: structural Verilog (`.v`), BLIF with latches (`.blif`),
//! ASCII and binary AIGER with latches (`.aag`/`.aig`), bit-level BTOR2
//! (`.btor2`), and Tseitin DIMACS CNF (`.cnf`, export only). Reading any
//! format and writing any other gives `6 × 5` conversion pairs from two
//! functions, [`read_design`] and [`write_design`].
//!
//! Sequential capability differs per format: `.blif`, `.aag`, `.aig`,
//! and `.btor2` carry latches; `.v` and `.cnf` are combinational and
//! produce a typed [`HubError::SequentialUnsupported`] when handed a
//! latch-bearing design (unroll first with `eco-patch --unroll` or
//! [`crate::unroll`]).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use eco_aig::{
    parse_aiger_ascii, parse_aiger_binary, write_aiger_ascii, write_aiger_binary, Aig, Lit,
};
use eco_netlist::{
    elaborate, netlist_from_aig, parse_blif, parse_verilog, write_blif, write_verilog,
};
use eco_sat::{encode_cone, ClauseSink};

use crate::btor2::{parse_btor2, write_btor2};
use crate::netlist::SeqNetlist;

/// A supported interchange format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// Structural Verilog subset (combinational only).
    Verilog,
    /// BLIF with `.latch` support.
    Blif,
    /// ASCII AIGER (`aag`) with latches.
    AigerAscii,
    /// Binary AIGER (`aig`) with latches.
    AigerBinary,
    /// Bit-level BTOR2 with states.
    Btor2,
    /// Tseitin-encoded DIMACS CNF (export only, combinational only).
    Cnf,
}

/// The formats the hub knows, as shown in error messages.
const SUPPORTED_EXTENSIONS: &str = ".v, .blif, .aag, .aig, .btor2, .cnf";

impl Format {
    /// Resolves a format from a file path's extension.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownExtension`] naming the offending path,
    /// extension, and the supported set.
    pub fn from_path(path: &str) -> Result<Format, HubError> {
        let ext = path.rsplit_once('.').map(|(_, e)| e).unwrap_or("");
        Format::from_name(ext).ok_or_else(|| HubError::UnknownExtension {
            path: path.to_owned(),
            ext: ext.to_owned(),
        })
    }

    /// Resolves a format from a name or extension (`v`, `verilog`,
    /// `blif`, `aag`, `aig`, `aiger`, `btor2`, `btor`, `cnf`, `dimacs`).
    pub fn from_name(name: &str) -> Option<Format> {
        match name.to_ascii_lowercase().as_str() {
            "v" | "verilog" => Some(Format::Verilog),
            "blif" => Some(Format::Blif),
            "aag" => Some(Format::AigerAscii),
            "aig" | "aiger" => Some(Format::AigerBinary),
            "btor2" | "btor" => Some(Format::Btor2),
            "cnf" | "dimacs" => Some(Format::Cnf),
            _ => None,
        }
    }

    /// Canonical short name (matches the default file extension).
    pub fn name(self) -> &'static str {
        match self {
            Format::Verilog => "v",
            Format::Blif => "blif",
            Format::AigerAscii => "aag",
            Format::AigerBinary => "aig",
            Format::Btor2 => "btor2",
            Format::Cnf => "cnf",
        }
    }

    /// Whether the format can carry latches.
    pub fn sequential(self) -> bool {
        matches!(
            self,
            Format::Blif | Format::AigerAscii | Format::AigerBinary | Format::Btor2
        )
    }
}

/// Error produced by the format hub.
#[derive(Debug)]
pub enum HubError {
    /// A path's extension maps to no supported format.
    UnknownExtension {
        /// The offending path.
        path: String,
        /// Its extension (possibly empty).
        ext: String,
    },
    /// A `--from`/`--to` format name maps to no supported format.
    UnknownFormat(String),
    /// The chosen output format cannot carry latches.
    SequentialUnsupported(Format),
    /// CNF is export-only; it cannot be read back as a design.
    CnfImport,
    /// The input is not valid text (binary AIGER aside, every format is
    /// UTF-8).
    NotUtf8,
    /// The input failed to parse or elaborate.
    Parse(String),
}

impl fmt::Display for HubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HubError::UnknownExtension { path, ext } => {
                if ext.is_empty() {
                    write!(
                        f,
                        "`{path}` has no recognizable extension; supported: {SUPPORTED_EXTENSIONS} \
                         (or force a format with --from/--to)"
                    )
                } else {
                    write!(
                        f,
                        "`{path}`: unknown extension `.{ext}`; supported: {SUPPORTED_EXTENSIONS} \
                         (or force a format with --from/--to)"
                    )
                }
            }
            HubError::UnknownFormat(n) => write!(
                f,
                "unknown format `{n}`; supported: v, blif, aag, aig, btor2, cnf"
            ),
            HubError::SequentialUnsupported(fmt_) => write!(
                f,
                "format `{}` is combinational-only but the design has latches; \
                 unroll first (eco-patch --unroll) or pick blif/aag/aig/btor2",
                fmt_.name()
            ),
            HubError::CnfImport => write!(f, "cnf is export-only; it cannot be read as a design"),
            HubError::NotUtf8 => write!(f, "input is not valid UTF-8 text"),
            HubError::Parse(m) => write!(f, "{m}"),
        }
    }
}

impl Error for HubError {}

fn text(data: &[u8]) -> Result<&str, HubError> {
    std::str::from_utf8(data).map_err(|_| HubError::NotUtf8)
}

fn parse_err(e: impl fmt::Display) -> HubError {
    HubError::Parse(e.to_string())
}

/// Name map for a bare AIG: inputs and outputs by their AIG names.
fn io_net_lits(aig: &Aig) -> HashMap<String, Lit> {
    let mut nets = HashMap::new();
    for pos in 0..aig.num_inputs() {
        nets.insert(
            aig.input_name(pos).to_owned(),
            aig.input_var(pos).lit(false),
        );
    }
    for out in aig.outputs() {
        nets.entry(out.name.clone()).or_insert(out.lit);
    }
    nets
}

/// Reads a design from raw bytes in the given format.
///
/// # Errors
///
/// [`HubError::CnfImport`] for CNF, [`HubError::NotUtf8`] for non-text
/// input to a text format, [`HubError::Parse`] on syntax or elaboration
/// errors (the underlying typed parser error, stringified).
pub fn read_design(format: Format, data: &[u8]) -> Result<SeqNetlist, HubError> {
    match format {
        Format::Verilog => {
            let nl = parse_verilog(text(data)?).map_err(parse_err)?;
            let name = nl.name.clone();
            let elab = elaborate(&nl).map_err(parse_err)?;
            Ok(SeqNetlist::from_comb(name, elab.aig, elab.net_lits))
        }
        Format::Blif => {
            let model = parse_blif(text(data)?).map_err(parse_err)?;
            SeqNetlist::new(model.name, model.aig, model.latches, model.net_lits).map_err(parse_err)
        }
        Format::AigerAscii | Format::AigerBinary => {
            let (aig, latches) = if format == Format::AigerAscii {
                parse_aiger_ascii(text(data)?).map_err(parse_err)?
            } else {
                parse_aiger_binary(data).map_err(parse_err)?
            };
            let nets = io_net_lits(&aig);
            SeqNetlist::new("top", aig, latches, nets).map_err(parse_err)
        }
        Format::Btor2 => parse_btor2(text(data)?).map_err(parse_err),
        Format::Cnf => Err(HubError::CnfImport),
    }
}

/// Writes a design as raw bytes in the given format.
///
/// # Errors
///
/// [`HubError::SequentialUnsupported`] when a latch-bearing design meets
/// a combinational-only format (`.v`, `.cnf`).
pub fn write_design(format: Format, design: &SeqNetlist) -> Result<Vec<u8>, HubError> {
    if !design.is_combinational() && !format.sequential() {
        return Err(HubError::SequentialUnsupported(format));
    }
    Ok(match format {
        Format::Verilog => write_verilog(&netlist_from_aig(&design.aig, &design.name)).into_bytes(),
        Format::Blif => write_blif(&design.aig, &design.name, &design.latches).into_bytes(),
        Format::AigerAscii => write_aiger_ascii(&design.aig, &design.latches).into_bytes(),
        Format::AigerBinary => write_aiger_binary(&design.aig, &design.latches),
        Format::Btor2 => write_btor2(design).into_bytes(),
        Format::Cnf => write_cnf(&design.aig).into_bytes(),
    })
}

/// Collects Tseitin clauses without a solver.
struct CollectSink {
    next: u32,
    clauses: Vec<Vec<eco_sat::Lit>>,
}

impl ClauseSink for CollectSink {
    fn sink_var(&mut self) -> eco_sat::Var {
        let v = eco_sat::Var::new(self.next);
        self.next += 1;
        v
    }
    fn sink_clause(&mut self, lits: &[eco_sat::Lit]) {
        self.clauses.push(lits.to_vec());
    }
}

/// Tseitin-encodes the output cones into DIMACS CNF. The satisfying
/// assignments project onto the circuit's consistent valuations; `c
/// input` / `c output` comments map names to DIMACS literals.
fn write_cnf(aig: &Aig) -> String {
    use fmt::Write as _;
    let mut sink = CollectSink {
        next: 0,
        clauses: Vec::new(),
    };
    let mut map: HashMap<eco_aig::Var, eco_sat::Lit> = HashMap::new();
    for pos in 0..aig.num_inputs() {
        map.insert(aig.input_var(pos), sink.sink_var().pos());
    }
    let roots: Vec<Lit> = aig.outputs().iter().map(|o| o.lit).collect();
    let root_lits = encode_cone(aig, &roots, &mut map, &mut sink);
    let mut s = String::new();
    for pos in 0..aig.num_inputs() {
        let _ = writeln!(
            s,
            "c input {} {}",
            aig.input_name(pos),
            map[&aig.input_var(pos)].to_dimacs()
        );
    }
    for (out, lit) in aig.outputs().iter().zip(&root_lits) {
        let _ = writeln!(s, "c output {} {}", out.name, lit.to_dimacs());
    }
    s.push_str(&eco_sat::write_dimacs(sink.next as usize, &sink.clauses));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_aig::{Latch, LatchInit};

    /// One latch of each reset value: s0' = d ^ s0 (0), s1' = s0 (1),
    /// s2' = !s1 (don't care), with outputs reading every state.
    fn sample() -> SeqNetlist {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let s0 = aig.add_input("s0");
        let s1 = aig.add_input("s1");
        let s2 = aig.add_input("s2");
        let q = aig.xor(d, s0);
        let r = aig.xor(s1, s2);
        aig.add_output("q", q);
        aig.add_output("r", r);
        let nets = HashMap::from([
            ("d".to_string(), d),
            ("s0".to_string(), s0),
            ("s1".to_string(), s1),
            ("s2".to_string(), s2),
            ("q".to_string(), q),
            ("r".to_string(), r),
        ]);
        let latch = |state: Lit, next, init| Latch {
            state: state.var(),
            next,
            init,
        };
        SeqNetlist::new(
            "t",
            aig,
            vec![
                latch(s0, q, LatchInit::Zero),
                latch(s1, s0, LatchInit::One),
                latch(s2, !s1, LatchInit::DontCare),
            ],
            nets,
        )
        .expect("valid")
    }

    #[test]
    fn sequential_formats_round_trip_behavior() {
        let d = sample();
        for fmt in [
            Format::Blif,
            Format::AigerAscii,
            Format::AigerBinary,
            Format::Btor2,
        ] {
            let bytes = write_design(fmt, &d).expect("writes");
            let back = read_design(fmt, &bytes).expect("reads");
            // The records come back in order, with their inits and names.
            let inits: Vec<LatchInit> = back.latches.iter().map(|l| l.init).collect();
            assert_eq!(
                inits,
                [LatchInit::Zero, LatchInit::One, LatchInit::DontCare],
                "{fmt:?}"
            );
            let names: Vec<&str> = (0..back.latches.len())
                .map(|k| back.latch_name(k))
                .collect();
            assert_eq!(names, ["s0", "s1", "s2"], "{fmt:?}");
            for bits in 0u32..16 {
                let stim: Vec<Vec<bool>> = (0..4).map(|f| vec![bits >> f & 1 == 1]).collect();
                assert_eq!(d.simulate(&stim), back.simulate(&stim), "{fmt:?} {bits:#b}");
            }
            // Write → parse → write is a byte fixpoint.
            assert_eq!(
                write_design(fmt, &back).expect("rewrites"),
                bytes,
                "{fmt:?}"
            );
        }
    }

    #[test]
    fn combinational_formats_reject_latches() {
        let d = sample();
        for fmt in [Format::Verilog, Format::Cnf] {
            assert!(matches!(
                write_design(fmt, &d),
                Err(HubError::SequentialUnsupported(_))
            ));
        }
    }

    #[test]
    fn cnf_export_is_satisfiable_and_projects_outputs() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let y = aig.and(a, b);
        aig.add_output("y", y);
        let d = SeqNetlist::from_comb("c", aig, HashMap::new());
        let bytes = write_design(Format::Cnf, &d).expect("writes");
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.contains("c input a 1"));
        assert!(text.contains("c output y"));
        let problem = eco_sat::parse_dimacs(
            &text
                .lines()
                .filter(|l| !l.starts_with('c'))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .expect("parses");
        // Force y = a & b true: a=1, b=1 must be the only model with y=1.
        let mut solver = eco_sat::Solver::new();
        for _ in 0..problem.num_vars {
            solver.new_var();
        }
        for c in &problem.clauses {
            solver.add_clause(c);
        }
        assert_eq!(solver.solve(&[]), Some(true));
    }

    #[test]
    fn cnf_cannot_be_read() {
        assert!(matches!(
            read_design(Format::Cnf, b"p cnf 0 0\n"),
            Err(HubError::CnfImport)
        ));
    }

    #[test]
    fn extension_resolution_and_errors() {
        assert_eq!(Format::from_path("x/y.aag").unwrap(), Format::AigerAscii);
        assert_eq!(Format::from_path("a.btor2").unwrap(), Format::Btor2);
        let e = Format::from_path("design.xyz").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains(".xyz") && msg.contains(".btor2"), "{msg}");
        assert!(Format::from_path("noext").is_err());
        assert!(Format::from_name("verilog") == Some(Format::Verilog));
        assert!(Format::from_name("nope").is_none());
    }

    #[test]
    fn verilog_round_trip_combinational() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let y = aig.or(a, b);
        aig.add_output("y", y);
        let d = SeqNetlist::from_comb("m", aig, HashMap::new());
        let bytes = write_design(Format::Verilog, &d).expect("writes");
        let back = read_design(Format::Verilog, &bytes).expect("reads");
        for bits in 0u32..4 {
            let (a, b) = (bits & 1 == 1, bits >> 1 == 1);
            assert_eq!(back.aig.eval(&[a, b]), vec![a || b]);
        }
    }
}
