//! Error types for the fallible fitting API.
//!
//! [`UoiFitter::fit`](crate::fitter::UoiFitter::fit) and
//! [`UoiVarFitter::fit`](crate::fitter::UoiVarFitter::fit) report every
//! invalid-input condition through [`UoiError`] instead of panicking.

use std::fmt;

/// Everything that can go wrong before a UoI fit starts: structural
/// problems with the data or an invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UoiError {
    /// The design matrix has zero rows or zero columns.
    EmptyDesign,
    /// Fewer samples than the algorithm can resample (`n < min`).
    TooFewSamples { n: usize, min: usize },
    /// `x` and `y` disagree on the number of samples.
    DimensionMismatch { expected: usize, got: usize },
    /// A NaN or infinity in the named input.
    NonFiniteInput(&'static str),
    /// The time series is too short for the requested VAR order.
    SeriesTooShort { n: usize, min: usize },
    /// A configuration field failed validation.
    InvalidConfig(String),
    /// Too few bootstraps survived fault injection for the named stage to
    /// proceed under the configured quorum rule.
    QuorumLost {
        stage: &'static str,
        surviving: usize,
        required: usize,
    },
    /// The run was preempted after `completed` newly computed bootstrap
    /// tasks (checkpoint `abort_after` hook); completed work is on disk
    /// and a rerun resumes from it.
    Interrupted { completed: usize },
    /// A checkpoint file could not be written.
    Checkpoint(String),
    /// A recovering fit hit an unrecoverable failure: the fault could
    /// not be attributed to a specific rank, or a runtime invariant
    /// broke mid-recovery. Re-executing cannot help.
    Unrecoverable(String),
    /// A speculative replica's result differed bitwise from its owner's.
    /// Tasks are pure functions of `(data, config, task index)`, so this
    /// is never a scheduling artifact — it is silent corruption, and the
    /// fit refuses to pick a winner.
    SpeculationDivergence { stage: String, task: usize },
    /// A numerical breakdown the resilience ladder could not absorb, or
    /// an input the validation pass rejected under
    /// [`ValidationPolicy::Reject`](uoi_data::ValidationPolicy). `detail`
    /// names the first offending coordinate or the exhausted fallback
    /// rung.
    Numerical { stage: &'static str, detail: String },
}

impl fmt::Display for UoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UoiError::EmptyDesign => write!(f, "design matrix is empty"),
            UoiError::TooFewSamples { n, min } => {
                write!(f, "need at least {min} samples, got {n}")
            }
            UoiError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "response length {got} does not match {expected} design rows"
                )
            }
            UoiError::NonFiniteInput(what) => {
                write!(f, "non-finite value (NaN or infinity) in {what}")
            }
            UoiError::SeriesTooShort { n, min } => {
                write!(
                    f,
                    "series of {n} observations is too short; need more than {min}"
                )
            }
            UoiError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            UoiError::QuorumLost {
                stage,
                surviving,
                required,
            } => write!(
                f,
                "quorum lost in {stage}: only {surviving} bootstraps survived, need {required}"
            ),
            UoiError::Interrupted { completed } => {
                write!(
                    f,
                    "run interrupted after {completed} bootstrap tasks (resumable)"
                )
            }
            UoiError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            UoiError::Unrecoverable(msg) => write!(f, "unrecoverable failure: {msg}"),
            UoiError::SpeculationDivergence { stage, task } => write!(
                f,
                "speculative replica diverged from owner result for task {task} in {stage} \
                 (silent corruption tripwire)"
            ),
            UoiError::Numerical { stage, detail } => {
                write!(f, "numerical failure in {stage}: {detail}")
            }
        }
    }
}

impl std::error::Error for UoiError {}

impl From<uoi_solvers::InvalidConfig> for UoiError {
    fn from(e: uoi_solvers::InvalidConfig) -> Self {
        UoiError::InvalidConfig(e.0)
    }
}

impl From<uoi_data::DataError> for UoiError {
    fn from(e: uoi_data::DataError) -> Self {
        UoiError::Numerical {
            stage: "validation",
            detail: e.to_string(),
        }
    }
}

/// `true` iff every element of `v` is finite.
pub(crate) fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        assert!(UoiError::EmptyDesign.to_string().contains("empty"));
        assert!(UoiError::TooFewSamples { n: 2, min: 4 }
            .to_string()
            .contains("at least 4"));
        assert!(UoiError::DimensionMismatch {
            expected: 10,
            got: 7
        }
        .to_string()
        .contains("7"));
        assert!(UoiError::NonFiniteInput("y").to_string().contains("y"));
        assert!(UoiError::SeriesTooShort { n: 3, min: 5 }
            .to_string()
            .contains("short"));
        let div = UoiError::SpeculationDivergence {
            stage: "lasso.sel".into(),
            task: 4,
        }
        .to_string();
        assert!(div.contains("task 4") && div.contains("lasso.sel"), "{div}");
    }

    #[test]
    fn solver_config_error_converts() {
        let e: UoiError = uoi_solvers::InvalidConfig("rho must be positive".into()).into();
        assert_eq!(e, UoiError::InvalidConfig("rho must be positive".into()));
    }
}
