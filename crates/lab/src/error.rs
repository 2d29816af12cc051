//! Experiment-harness errors.

use std::error::Error;
use std::fmt;

use ovlsim_apps::AppConfigError;
use ovlsim_core::CoreError;
use ovlsim_dimemas::SimError;
use ovlsim_tracer::TraceError;

/// Errors produced by the experiment harness.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LabError {
    /// Tracing an application failed.
    Trace(TraceError),
    /// Replaying a trace failed.
    Sim(SimError),
    /// A platform/bandwidth value was invalid.
    Core(CoreError),
    /// A search failed to bracket its target.
    SearchFailed {
        /// What was being searched for.
        what: String,
    },
    /// Building an application model from a campaign spec failed (bad
    /// rank count for the topology, zero iterations, …).
    App(AppConfigError),
    /// `OVLSIM_THREADS` was set to something other than a positive
    /// integer. The run fails loudly instead of silently substituting a
    /// different worker count (which would invalidate any scaling
    /// measurement the setting was meant to pin).
    InvalidThreadConfig {
        /// The offending environment value.
        value: String,
    },
    /// A tune run was given more candidate evaluations than it accepts.
    BudgetTooLarge {
        /// The budget asked for.
        budget: usize,
        /// The largest budget accepted.
        max: usize,
    },
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Trace(e) => write!(f, "tracing failed: {e}"),
            LabError::Sim(e) => write!(f, "replay failed: {e}"),
            LabError::Core(e) => write!(f, "invalid configuration: {e}"),
            LabError::SearchFailed { what } => write!(f, "search failed: {what}"),
            LabError::App(e) => write!(f, "building application failed: {e}"),
            LabError::InvalidThreadConfig { value } => write!(
                f,
                "invalid OVLSIM_THREADS value {value:?}: want a positive integer \
                 (unset the variable to use the machine's available parallelism)"
            ),
            LabError::BudgetTooLarge { budget, max } => write!(
                f,
                "tune budget {budget} is above the limit of {max} evaluations"
            ),
        }
    }
}

impl Error for LabError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LabError::Trace(e) => Some(e),
            LabError::Sim(e) => Some(e),
            LabError::Core(e) => Some(e),
            LabError::SearchFailed { .. } => None,
            LabError::App(e) => Some(e),
            LabError::InvalidThreadConfig { .. } | LabError::BudgetTooLarge { .. } => None,
        }
    }
}

impl From<AppConfigError> for LabError {
    fn from(e: AppConfigError) -> Self {
        LabError::App(e)
    }
}

impl From<TraceError> for LabError {
    fn from(e: TraceError) -> Self {
        LabError::Trace(e)
    }
}

impl From<SimError> for LabError {
    fn from(e: SimError) -> Self {
        LabError::Sim(e)
    }
}

impl From<CoreError> for LabError {
    fn from(e: CoreError) -> Self {
        LabError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: LabError = CoreError::InvalidMips(0).into();
        assert!(format!("{e}").contains("invalid configuration"));
        let e = LabError::SearchFailed {
            what: "iso bandwidth".into(),
        };
        assert!(format!("{e}").contains("iso bandwidth"));
        assert!(e.source().is_none());
    }
}
