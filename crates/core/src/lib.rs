#![warn(missing_docs)]
//! # eco-core — cost-aware multi-target ECO patch generation
//!
//! A complete implementation of *"Cost-Aware Patch Generation for
//! Multi-Target Function Rectification of Engineering Change Orders"*
//! (Zhang & Jiang, DAC 2018): given a faulty circuit `F(X, T)` whose
//! pre-specified target signals `T` float as pseudo-inputs, a golden
//! circuit `G(X)`, and per-signal weights, the [`EcoEngine`] synthesizes
//! patch functions over existing (weighted) signals of `F` that make the
//! patched circuit equivalent to `G`, minimizing base cost and patch size.
//!
//! The flow (Fig. 1 of the paper):
//!
//! 1. **FRAIG** ([`eco_fraig`]) detects shared equivalent signals between
//!    `F` and `G` in one combined [`Workspace`] manager.
//! 2. **Clustering** ([`cluster_targets`]) groups targets sharing output
//!    cones (Fig. 2) so groups rectify independently.
//! 3. **Localization** ([`TapMap`], [`Cut`]; Alg. 2 / Thm. 2) cuts all
//!    reasoning at the first tapped signal along every path.
//! 4. **Patch generation** ([`generate_group_patches`]; Alg. 1) derives
//!    target-dependent patches from the care/diff on/off sets
//!    (Eqs. 5–8) and back-substitutes to eliminate target variables;
//!    [`synthesize_patch`] realizes each function by interpolation or the
//!    on-set (§4.3).
//! 5. **Cost optimization** ([`optimize_patches`]; §6) rebases patches
//!    with the Eq.-12 functional-dependency formula ([`RebaseQuery`]),
//!    Watch/Hold/CPB base selection ([`select_base`]), and
//!    counterexample enumeration ([`enumerate_cex`], Table 1).
//! 6. **Verification** ([`check_equivalence`]) proves the patched circuit
//!    equivalent to the golden one; localized runs that fail fall back to
//!    an unlocalized derivation for completeness.
//!
//! # Examples
//!
//! ```
//! use eco_core::{EcoEngine, EcoInstance, EcoOptions};
//! use eco_netlist::{parse_verilog, WeightTable};
//!
//! // Faulty: the AND driving the XOR was cut out as target `t`.
//! let faulty = parse_verilog(
//!     "module f (a, b, c, t, y); input a, b, c, t; output y;
//!      xor g1 (y, t, c); endmodule",
//! )?;
//! let golden = parse_verilog(
//!     "module g (a, b, c, y); input a, b, c; output y;
//!      wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
//! )?;
//! let inst = EcoInstance::from_netlists(
//!     "demo", &faulty, &golden, vec!["t".into()], &WeightTable::new(1),
//! )?;
//! let result = EcoEngine::new(inst, EcoOptions::default()).run()?;
//! assert_eq!(result.patches[0].target, "t");
//! assert!(result.size >= 1); // the patch rebuilds a & b
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod assemble;
mod baseselect;
mod carediff;
mod cexenum;
mod cluster;
mod engine;
mod error;
/// Deterministic fault-injection registry (public module: consult sites
/// live across the workspace).
pub mod faultpoint;
mod govern;
mod instance;
mod localize;
mod memo;
mod memo_store;
mod optimize;
mod patchgen;
mod rebase;
mod rectifiable;
mod report;
mod sizeopt;
mod synth;
mod telemetry;
mod verify;
mod workspace;

pub use crate::assemble::splice_patch;
pub use crate::baseselect::{select_base, BaseSelectOptions, SelectedBase};
pub use crate::carediff::{diff_set, exact_on_off_sets, on_off_sets, OnOff};
pub use crate::cexenum::{enumerate_cex, CexSet};
pub use crate::cluster::{cluster_targets, Clustering, TargetCluster};
pub use crate::engine::{EcoEngine, EcoOptions, EcoOutcome, EcoResult, PartialResult, TargetPatch};
pub use crate::error::EcoError;
pub use crate::faultpoint::{parse_chaos_spec, ChaosSpec, FaultStats};
pub use crate::govern::{Budget, BudgetOptions, ClusterDiagnosis, ClusterReport, ConflictMeter};
pub use crate::instance::{BaseCandidate, EcoInstance};
pub use crate::localize::{Cut, CutSignal, TapMap};
pub use crate::memo::{patch_memo_key, MemoCache, MemoStats};
pub use crate::memo_store::{
    crc32, read_log, LogStats, LogWriter, MemoLoadStats, MemoStore, MEMO_MAGIC,
};
pub use crate::optimize::{optimize_patches, total_cost, OptimizeOptions, OptimizeStats};
pub use crate::patchgen::{
    extract_patch_aig, generate_group_patches, GroupPatches, PatchFn, PatchGenOptions,
};
pub use crate::rebase::{resynthesize, RebaseQuery};
pub use crate::rectifiable::{check_rect_cex, check_rectifiable, Rectifiability};
pub use crate::report::{PartialReport, Report};
pub use crate::sizeopt::{reduce_patch_sizes, SizeOptOptions, SizeOptStats};
pub use crate::synth::{synthesize_patch, InitialPatchKind, SynthOutcome};
pub use crate::telemetry::{
    json_escape, peak_rss_bytes, render_counters, GovernorTotals, JsonObj, MemoTotals, SatTotals,
    SelectTotals, Stage, SweepTotals, Telemetry, TelemetryEvent, TelemetrySnapshot,
};
pub use crate::verify::{check_equivalence, VerifyOutcome};
pub use crate::workspace::{Workspace, WsCandidate};
