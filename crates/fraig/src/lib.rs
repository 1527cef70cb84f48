#![warn(missing_docs)]
//! # eco-fraig — functional reduction by simulation + SAT sweeping
//!
//! Detects functionally equivalent (or complementary) nodes in an
//! [`eco_aig::Aig`] the FRAIG way [Mishchenko et al., 2005]: random
//! simulation buckets nodes by a 128-bit canonical-word fingerprint (full
//! words compared only on collision), a SAT solver verifies candidate
//! pairs, and counterexamples are appended to an incremental simulation
//! arena ([`eco_aig::IncrementalSim`]) — re-simulating only the new
//! stimulus columns — until a fixpoint.
//!
//! The ECO flow (Fig. 1 of the paper) uses [`fraig_classes`] for two
//! purposes: identifying *shared equivalent signals* between the faulty and
//! golden circuits (placed in one AIG manager) for localization, and
//! reducing patch logic via [`fraig_reduce`].
//!
//! # Examples
//!
//! ```
//! use eco_aig::Aig;
//! use eco_fraig::{fraig_classes, FraigOptions};
//!
//! // Two structurally different forms of a & b.
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f1 = aig.and(a, b);
//! let or = aig.or(a, b);
//! let f2 = aig.and(f1, or); // still a & b
//! aig.add_output("f1", f1);
//! aig.add_output("f2", f2);
//!
//! let classes = fraig_classes(&aig, &FraigOptions::default());
//! assert_eq!(classes.equivalent(f1.var(), f2.var()), Some(false));
//! ```

mod sweep;
mod uf;

pub use crate::sweep::{
    fraig_classes, fraig_classes_stats, fraig_reduce, EquivClass, EquivClasses, FraigOptions,
    SweepStats,
};
pub use crate::uf::ParityUnionFind;
