//! Error type for the ECO engine.

use std::error::Error;
use std::fmt;

use eco_aig::TransformError;

/// Errors reported by instance construction and patch generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoError {
    /// A golden-circuit input has no same-named faulty-circuit input.
    MissingInput(String),
    /// A declared target is not a (pseudo-)input of the faulty circuit.
    UnknownTarget(String),
    /// A target is declared more than once (each target takes one
    /// patch driver).
    DuplicateTarget(String),
    /// The circuits' primary output name sets differ.
    OutputMismatch(String),
    /// No patch over the given targets can rectify the faulty circuit.
    Unrectifiable(String),
    /// A configured resource budget was exhausted.
    ResourceLimit(String),
    /// A patch names an input net that does not exist in the circuit it is
    /// being spliced into (or that is itself a rectification target).
    UnknownPatchInput(String),
    /// An AIG transform (import / cone extraction) failed while assembling
    /// or extracting a patch — the base set did not cover the patch cone.
    Transform(TransformError),
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::MissingInput(n) => {
                write!(f, "golden input `{n}` has no matching faulty input")
            }
            EcoError::UnknownTarget(n) => {
                write!(f, "target `{n}` is not an input of the faulty circuit")
            }
            EcoError::DuplicateTarget(n) => write!(f, "target `{n}` is declared more than once"),
            EcoError::OutputMismatch(n) => {
                write!(f, "output `{n}` is not present in both circuits")
            }
            EcoError::Unrectifiable(why) => write!(f, "instance is not rectifiable: {why}"),
            EcoError::ResourceLimit(what) => write!(f, "resource limit exhausted: {what}"),
            EcoError::UnknownPatchInput(n) => {
                write!(f, "patch input `{n}` is not a net of the patched circuit")
            }
            EcoError::Transform(e) => write!(f, "patch transform failed: {e}"),
        }
    }
}

impl From<TransformError> for EcoError {
    fn from(e: TransformError) -> Self {
        EcoError::Transform(e)
    }
}

impl Error for EcoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EcoError::MissingInput("a".into())
            .to_string()
            .contains("`a`"));
        assert!(EcoError::UnknownTarget("t".into())
            .to_string()
            .contains("`t`"));
        assert!(EcoError::DuplicateTarget("t1".into())
            .to_string()
            .contains("`t1`"));
        assert!(EcoError::OutputMismatch("y".into())
            .to_string()
            .contains("`y`"));
        assert!(EcoError::Unrectifiable("x".into())
            .to_string()
            .contains("x"));
        assert!(EcoError::ResourceLimit("sat".into())
            .to_string()
            .contains("sat"));
        assert!(EcoError::UnknownPatchInput("w3".into())
            .to_string()
            .contains("`w3`"));
        let e: EcoError = TransformError::UnmappedInput("x".into()).into();
        assert!(e.to_string().contains("`x`"));
    }
}
