//! Replay errors.

use std::error::Error;
use std::fmt;

use ovlsim_core::{Rank, Time, TraceIssue};

/// Errors produced by the replay simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The input trace set failed structural validation.
    InvalidTrace {
        /// The issues found (truncated for display).
        issues: Vec<TraceIssue>,
    },
    /// Replay stalled: no events remain but some ranks are still blocked.
    Deadlock {
        /// Simulated time at which progress stopped.
        at: Time,
        /// For each blocked rank: a description of what it waits on.
        blocked: Vec<(Rank, String)>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTrace { issues } => {
                write!(f, "trace failed validation with {} issues", issues.len())?;
                for issue in issues.iter().take(3) {
                    write!(f, "; {issue}")?;
                }
                Ok(())
            }
            SimError::Deadlock { at, blocked } => {
                write!(f, "deadlock at {at}: ")?;
                for (i, (rank, why)) in blocked.iter().take(4).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{rank} {why}")?;
                }
                if blocked.len() > 4 {
                    write!(f, ", … {} more", blocked.len() - 4)?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_lists_ranks() {
        let e = SimError::Deadlock {
            at: Time::from_us(3),
            blocked: vec![(Rank::new(0), "waiting recv from r1".into())],
        };
        let s = format!("{e}");
        assert!(s.contains("deadlock") && s.contains("r0"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: Error + Send + Sync>() {}
        check::<SimError>();
    }
}
