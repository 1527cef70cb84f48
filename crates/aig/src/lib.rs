#![warn(missing_docs)]
// The SoA core packs literals into u32 words; every narrowing cast must be
// either provably lossless (documented `#[allow]` at the site) or routed
// through a checked conversion, so the lint is a hard warning crate-wide.
#![warn(clippy::cast_possible_truncation)]
//! # eco-aig — And-Inverter Graph substrate
//!
//! A compact, structurally hashed [And-Inverter Graph](Aig) (AIG)
//! implementation: the circuit representation underlying the `eco` ECO
//! patch-generation engine (DAC 2018, Zhang & Jiang).
//!
//! Features:
//!
//! * append-only, topologically ordered node store with constant folding
//!   and structural hashing ([`Aig::and`] and friends);
//! * cone/support analysis and gate counting ([`Aig::support`],
//!   [`Aig::count_cone_ands`]);
//! * cofactoring, substitution (at inputs *or* internal nodes),
//!   cross-AIG import, and cut-based cone extraction
//!   ([`Aig::cofactor`], [`Aig::substitute`], [`Aig::import`],
//!   [`Aig::extract_cone`]);
//! * 64-way parallel simulation ([`Aig::simulate`]) for FRAIG signatures,
//!   with an arena-backed incremental engine ([`IncrementalSim`]) that
//!   appends counterexample columns and re-simulates only what changed;
//! * the one latch record of the workspace ([`Latch`], [`LatchInit`]):
//!   a latch's current state is an input of the AIG and its next state a
//!   literal of it, so every latch-carrying format (AIGER here, BLIF in
//!   `eco-netlist`, BTOR2 in `eco-seq`) reads and writes the same record;
//! * Graphviz export ([`Aig::to_dot`]) and AIGER interchange, one reader
//!   and one writer per variant ([`parse_aiger_ascii`] /
//!   [`write_aiger_ascii`], [`parse_aiger_binary`] /
//!   [`write_aiger_binary`]), latches included.
//!
//! # Examples
//!
//! ```
//! use eco_aig::Aig;
//!
//! // Build f = (a & b) ^ c and check a cofactor.
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let c = aig.add_input("c");
//! let ab = aig.and(a, b);
//! let f = aig.xor(ab, c);
//! aig.add_output("f", f);
//!
//! let f_c1 = aig.cofactor(&[f], c.var(), true)[0];
//! // f|c=1 = !(a & b)
//! assert_eq!(f_c1, !ab);
//! ```

mod aig;
mod aiger;
mod cone;
mod dot;
mod fp;
mod lit;
mod node;
mod rng;
mod sim;
mod transform;

pub use crate::aig::{Aig, Output};
pub use crate::aiger::{
    parse_aiger_ascii, parse_aiger_binary, write_aiger_ascii, write_aiger_binary, Latch, LatchInit,
    ParseAigerError, MAX_BINARY_INPUTS,
};
pub use crate::fp::FpHasher;
pub use crate::lit::{Lit, Var};
pub use crate::node::Node;
pub use crate::rng::SplitMix64;
pub use crate::sim::{IncrementalSim, SimVectors};
pub use crate::transform::TransformError;
