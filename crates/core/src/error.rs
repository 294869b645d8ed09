//! The workspace error type, [`Error`] (aliased as [`NegAssocError`]),
//! covering I/O, configuration, numeric, invariant, audit, and
//! cancellation failures.

use crate::ctrl::{CancelReason, Completeness};
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors from the negative-association miner.
///
/// Re-exported as [`crate::NegAssocError`]; library code routes every
/// fallible path through this type instead of panicking (enforced by the
/// workspace analyzer's L001/L003 lints, see `cargo run -p xtask -- analyze`).
#[derive(Debug)]
pub enum Error {
    /// A database pass failed.
    Io(io::Error),
    /// Invalid configuration (message explains which knob).
    Config(String),
    /// Arithmetic that would poison downstream pruning (zero divisor,
    /// non-finite expected support).
    Numeric(String),
    /// An internal invariant did not hold; mining results cannot be
    /// trusted. Carries the broken invariant's description.
    Invariant(String),
    /// The configured memory budget cannot accommodate the run and no
    /// degraded path (chunked counting, partitioned mining) applies. The
    /// message says which structure overflowed and how to proceed.
    Budget(String),
    /// A runtime audit (`negassoc::audit`) refused to certify mining
    /// output; the message pins the first discrepancy found.
    Audit(String),
    /// The run was cancelled cooperatively (see [`crate::ctrl`]): user
    /// interrupt, deadline, or stall. No partial counts escape — the
    /// fields say why it stopped and how much durable, resumable state a
    /// checkpointed run left behind.
    Cancelled {
        /// Why the run's [`crate::ctrl::CancelToken`] was tripped.
        reason: CancelReason,
        /// Directory holding the resumable checkpoint, when one exists
        /// (pass it back to [`crate::NegativeMiner::mine_with_controls`]).
        checkpoint: Option<PathBuf>,
        /// How far the run's durable state reaches.
        completeness: Completeness,
    },
}

/// The canonical name for [`Error`] across the workspace.
pub type NegAssocError = Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error during mining: {e}"),
            Error::Config(msg) => write!(f, "invalid miner configuration: {msg}"),
            Error::Numeric(msg) => write!(f, "numeric error during mining: {msg}"),
            Error::Invariant(msg) => write!(f, "broken mining invariant: {msg}"),
            Error::Budget(msg) => write!(f, "memory budget exceeded: {msg}"),
            Error::Audit(msg) => write!(f, "audit failed: {msg}"),
            Error::Cancelled {
                reason,
                checkpoint,
                completeness,
            } => {
                write!(f, "run cancelled ({reason}); {completeness}")?;
                match checkpoint {
                    Some(dir) => write!(f, "; resumable checkpoint at {}", dir.display()),
                    None => Ok(()),
                }
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Config(_)
            | Error::Numeric(_)
            | Error::Invariant(_)
            | Error::Budget(_)
            | Error::Audit(_)
            | Error::Cancelled { .. } => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::from(io::Error::new(io::ErrorKind::Other, "boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        let c = Error::Config("min_ri out of range".into());
        assert!(c.to_string().contains("min_ri"));
        assert!(std::error::Error::source(&c).is_none());
    }

    #[test]
    fn new_variants_render_their_context() {
        let n = Error::Numeric("zero base support".into());
        assert!(n.to_string().contains("zero base support"));
        let i = Error::Invariant("itemset out of order".into());
        assert!(i.to_string().contains("itemset out of order"));
        let a = Error::Audit("support mismatch for {1,2}".into());
        assert!(a.to_string().contains("support mismatch"));
        let b = Error::Budget("5000000 candidates need ~800 MB".into());
        assert!(b.to_string().contains("memory budget exceeded"));
        for e in [n, i, a, b] {
            assert!(std::error::Error::source(&e).is_none());
        }
    }

    #[test]
    fn cancelled_renders_reason_checkpoint_and_completeness() {
        let with_ckpt = Error::Cancelled {
            reason: CancelReason::DeadlineExceeded,
            checkpoint: Some(PathBuf::from("/tmp/ckpt")),
            completeness: Completeness::PositivePartial {
                next_level: 3,
                passes: 2,
            },
        };
        let shown = with_ckpt.to_string();
        assert!(shown.contains("deadline exceeded"), "{shown}");
        assert!(shown.contains("level 3"), "{shown}");
        assert!(shown.contains("/tmp/ckpt"), "{shown}");
        assert!(std::error::Error::source(&with_ckpt).is_none());

        let bare = Error::Cancelled {
            reason: CancelReason::UserInterrupt,
            checkpoint: None,
            completeness: Completeness::NoCheckpoint,
        };
        let shown = bare.to_string();
        assert!(shown.contains("user interrupt"), "{shown}");
        assert!(!shown.contains("resumable checkpoint at"), "{shown}");
    }

    #[test]
    fn alias_is_the_same_type() {
        fn takes_alias(_: &NegAssocError) {}
        takes_alias(&Error::Config("x".into()));
    }
}
