#![warn(missing_docs)]
//! # eco-netlist — contest-format I/O
//!
//! Parsing, elaboration, and writing of the ICCAD 2017 CAD Contest
//! (Problem A) interchange formats:
//!
//! * a structural Verilog subset (`and/or/nand/nor/not/buf/xor/xnor`,
//!   `assign`, `1'b0`/`1'b1` constants) — [`parse_verilog`] /
//!   [`write_verilog`];
//! * elaboration into an [`eco_aig::Aig`] with cycle/driver checking —
//!   [`elaborate`], or [`elaborate_nets`] with borrowed net names — and
//!   the reverse mapping [`netlist_from_aig`] used to emit patch netlists;
//! * per-signal weight files — [`parse_weights`] / [`write_weights`];
//! * flat BLIF with `.latch` lines, read and written with the latch
//!   record of `eco-aig` ([`eco_aig::Latch`]) — [`parse_blif`] /
//!   [`write_blif`].
//!
//! # Examples
//!
//! ```
//! use eco_netlist::{elaborate, parse_verilog};
//!
//! let src = "module maj (a, b, c, y); input a, b, c; output y;
//!            wire ab, bc, ca, t;
//!            and g1 (ab, a, b); and g2 (bc, b, c); and g3 (ca, c, a);
//!            or  g4 (t, ab, bc); or g5 (y, t, ca);
//!            endmodule";
//! let elab = elaborate(&parse_verilog(src)?)?;
//! assert_eq!(elab.aig.eval(&[true, true, false]), vec![true]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod ast;
mod blif;
mod convert;
mod parse;
mod weights;
mod write;

pub use crate::ast::{Gate, GateKind, NetRef, Netlist};
pub use crate::blif::{parse_blif, write_blif, BlifModel, ParseBlifError};
pub use crate::convert::{
    elaborate, elaborate_nets, netlist_from_aig, BorrowedNets, ElaborateError, Elaboration,
};
pub use crate::parse::{parse_verilog, ParseNetlistError};
pub use crate::weights::{parse_weights, write_weights, ParseWeightsError, WeightTable};
pub use crate::write::write_verilog;
