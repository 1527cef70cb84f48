#![warn(missing_docs)]
//! # eco-workgen — synthetic ECO benchmark generation
//!
//! The ICCAD 2017 CAD Contest benchmarks evaluated in the paper are not
//! publicly redistributable, so this crate generates a matched synthetic
//! suite: parameterized golden circuits ([`circuits`]), contest-style
//! fault injection by *cutting* target nets into floating pseudo-inputs
//! ([`cut_targets`]), dangling-logic scrambling, weight assignment
//! ([`assign_weights`]), and a fixed, deterministic 20-unit suite
//! ([`contest_suite`]) whose target counts and easy/difficult split mirror
//! Table 2 of the paper.
//!
//! Instances are rectifiable **by construction**: the faulty circuit is
//! the golden circuit with target drivers removed, so reconnecting each
//! target to its original function is always a valid (if expensive) patch.
//!
//! # Examples
//!
//! ```
//! use eco_workgen::{build_unit, suite_specs};
//!
//! let unit = build_unit(&suite_specs()[0]);
//! let instance = unit.instance()?;
//! assert_eq!(instance.num_targets(), 1);
//! # Ok::<(), eco_core::EcoError>(())
//! ```

mod builder;
pub mod campaign;
pub mod circuits;
mod emit;
mod fault;
pub mod fuzz;
pub mod roundtrip;
pub mod seqgen;
mod suite;

pub use crate::builder::NetlistBuilder;
pub use crate::emit::{
    manifest_toml, request_stream, write_case, write_fuzz_case, write_unit, ManifestEntry,
};
pub use crate::fault::{
    assign_weights, break_untouched_output, cut_targets, scramble_dangling, FaultError,
    WeightProfile,
};
pub use crate::seqgen::{
    gen_seq_unit, inject_seq_faults, random_seq_dag, seq_weights, shift_register_datapath,
    write_seq_unit, SeqUnit,
};
pub use crate::suite::{
    build_unit, contest_suite, stress_specs, stress_suite, suite_specs, Family, SuiteUnit,
    TargetBias, UnitSpec,
};
