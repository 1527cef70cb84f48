#![warn(missing_docs)]
//! # eco-seq — sequential ECO over the combinational engine
//!
//! Everything the ECO flow needs to rectify latch-bearing designs:
//!
//! * [`SeqNetlist`] — a sequential netlist model: an [`eco_aig::Aig`]
//!   whose latch current states are ordinary inputs, plus [`Latch`]
//!   records (next-state literal, [`LatchInit`] reset value; the one
//!   latch record, defined in `eco-aig` and re-exported here) and a
//!   name → literal map for every named net;
//! * a BTOR2 reader and writer ([`parse_btor2`] / [`write_btor2`]) on
//!   the same record, joining the BLIF reader and writer of
//!   `eco-netlist` and the AIGER ones of `eco-aig`: one reader and one
//!   writer per format, each carrying latches;
//! * a deterministic k-frame unroller ([`unroll`]) expanding a design
//!   into the combinational AIG with frame-indexed net names (`n@f`),
//!   kept for fold-back;
//! * [`SeqEcoEngine`] — runs the existing cost-aware combinational flow
//!   on the unrolled miter, folds the chosen frame's patch back into a
//!   single sequential patch, and proves the patched design equivalent
//!   to golden with a fresh k-frame unrolled SAT miter under the
//!   governor;
//! * an any-to-any format [`hub`] (`.v`, `.blif`, `.aag`, `.aig`,
//!   `.btor2`, export-only `.cnf`) behind typed errors, the engine room
//!   of `eco-convert`.

mod btor2;
mod engine;
pub mod hub;
mod netlist;
mod unroll;

pub use crate::btor2::{parse_btor2, write_btor2, ParseBtor2Error};
pub use crate::engine::{SeqEcoEngine, SeqEcoError, SeqEcoOptions, SeqEcoResult};
pub use crate::hub::{read_design, write_design, Format, HubError};
pub use crate::netlist::{SeqError, SeqNetlist};
pub use crate::unroll::{unroll, unroll_miter, Unrolled};
pub use eco_aig::{Latch, LatchInit};
