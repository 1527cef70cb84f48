#![warn(missing_docs)]
//! # eco-sat — CDCL SAT solving with Craig interpolation
//!
//! A from-scratch MiniSat-style CDCL [`Solver`] plus the two capabilities
//! the ECO flow needs and generic SAT crates rarely expose:
//!
//! * **Craig interpolation** ([`ItpSolver`]): clauses are partitioned into
//!   `(A, B)`; an UNSAT answer yields an [`Interpolant`] in McMillan's
//!   labeling system, built during conflict analysis and emitted directly
//!   as an [`eco_aig::Aig`] over the shared variables.
//! * **Incremental assumptions with final-conflict cores**
//!   ([`Solver::solve`], [`Solver::unsat_core`]): the mechanism behind the
//!   paper's Eq. (12) base-feasibility queries.
//!
//! [`encode_cone`] provides Tseitin encoding of AIG cones into either kind
//! of solver, and [`parse_dimacs`]/[`write_dimacs`] handle CNF interop.
//!
//! # Examples
//!
//! ```
//! use eco_sat::{ClauseLabel, ItpSolver};
//!
//! // A forces y through x; B forbids y through z: the interpolant is y.
//! let mut q = ItpSolver::new();
//! let (x, y, z) = (q.new_var(), q.new_var(), q.new_var());
//! q.add_clause(&[x.pos()], ClauseLabel::A);
//! q.add_clause(&[x.neg(), y.pos()], ClauseLabel::A);
//! q.add_clause(&[y.neg(), z.pos()], ClauseLabel::B);
//! q.add_clause(&[z.neg()], ClauseLabel::B);
//! let outcome = q.solve_limited(u64::MAX).expect("no budget, no controls");
//! let itp = outcome.into_interpolant().expect("unsat");
//! assert_eq!(itp.inputs, vec![y]);
//! ```

mod dimacs;
mod heap;
mod interpolate;
mod lit;
mod solver;
mod tseitin;

pub use crate::dimacs::{parse_dimacs, write_dimacs, DimacsProblem, ParseDimacsError};
pub use crate::interpolate::{Interpolant, ItpOutcome, ItpSolver};
pub use crate::lit::{LBool, Lit, Var};
pub use crate::solver::{ClauseLabel, SolveCtl, Solver, SolverStats};
pub use crate::tseitin::{assert_lit, encode_cone, ClauseSink, LabeledSink};
