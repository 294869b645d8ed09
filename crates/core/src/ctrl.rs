//! The run control plane: cancellation, deadlines, stall detection.
//!
//! The primitives — [`CancelToken`], [`CancelReason`], [`Deadline`],
//! [`Watchdog`] — live in [`negassoc_txdb::ctrl`] (the worker pool at the
//! bottom of the stack needs them) and are re-exported here; this module
//! adds the driver-level glue:
//!
//! * [`RunControl`] — one bundle of token + deadline + stall window +
//!   interrupt flag, with [`RunControl::arm`] spawning the watchdog,
//! * [`Completeness`] — how much durable state a cancelled run left
//!   behind, carried by [`crate::Error::Cancelled`],
//! * [`cancellation_reason`] — recognize a cancellation at any error
//!   layer.
//!
//! The contract: a cancelled run returns `Error::Cancelled { reason,
//! checkpoint, completeness }` and never partial counts. Every completed
//! pass was already checkpointed durably (the PR 2 NACK envelope), so
//! interrupt-to-checkpoint costs nothing extra at cancellation time, and a
//! subsequent [`crate::NegativeMiner::mine_with_controls`] with the same
//! checkpoint directory resumes to byte-identical output.

pub use negassoc_txdb::ctrl::{
    cancellation_of, CancelReason, CancelToken, Cancellation, Deadline, Watchdog,
};

use crate::error::Error;
use negassoc_txdb::obs::Obs;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// How much durable progress a cancelled run left behind — the
/// "explicit completeness status" attached to [`Error::Cancelled`] — or,
/// for [`Completeness::Degraded`], how much of the *database* a finished
/// run actually covered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Completeness {
    /// Nothing durable: no pass completed under a checkpoint manager (or
    /// none was configured). Resuming restarts from scratch — still to
    /// the identical answer.
    NoCheckpoint,
    /// Positive mining was interrupted; levels below `next_level` are
    /// durable.
    PositivePartial {
        /// The level a resumed run will mine next.
        next_level: usize,
        /// Database passes completed and persisted.
        passes: u64,
    },
    /// Positive mining and negative candidate generation are durable;
    /// only negative confirmation counting remains.
    NegativePending {
        /// Negative candidates awaiting their counting pass.
        candidates: usize,
    },
    /// The run *finished*, but over a sharded source that had to
    /// quarantine unreadable shards: the answer is exact over every
    /// delivered transaction and silent about the quarantined ones.
    Degraded {
        /// Display paths of the shards that were quarantined.
        quarantined_shards: Vec<String>,
    },
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completeness::NoCheckpoint => f.write_str("no durable progress"),
            Completeness::PositivePartial { next_level, passes } => write!(
                f,
                "{passes} passes durable, positive mining resumes at level {next_level}"
            ),
            Completeness::NegativePending { candidates } => write!(
                f,
                "positive phase durable, {candidates} negative candidates await counting"
            ),
            Completeness::Degraded { quarantined_shards } => write!(
                f,
                "complete except {} quarantined shard(s): {}",
                quarantined_shards.len(),
                quarantined_shards.join(", ")
            ),
        }
    }
}

/// Everything a controlled run needs, bundled: the shared token plus the
/// monitor inputs [`RunControl::arm`] hands to the [`Watchdog`].
///
/// [`MinerConfig`](crate::config::MinerConfig) is `Copy` and
/// checkpoint-fingerprinted, so run control deliberately lives *outside*
/// the configuration: two runs that differ only in deadline or interrupt
/// wiring share checkpoints and produce identical output.
///
/// A [`RunControl`] also carries the run's observer ([`Obs`]): trace sinks
/// and metrics attached with [`RunControl::with_observer`] receive every
/// structured event the run emits. The default observer is disabled and
/// costs nothing.
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    token: CancelToken,
    deadline: Option<Deadline>,
    stall_window: Option<Duration>,
    interrupt: Option<Arc<AtomicBool>>,
    obs: Obs,
}

impl RunControl {
    /// A fresh control bundle with a live token and no triggers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The run's cancel token (clone it to share).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Bound the run by wall clock.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cancel the run when no counting progress lands for `window`.
    pub fn with_stall_window(mut self, window: Duration) -> Self {
        self.stall_window = Some(window);
        self
    }

    /// Cancel the run when `flag` becomes true (the SIGINT bridge).
    pub fn with_interrupt_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Attach an observer: its sinks and metrics receive every structured
    /// event the controlled run emits.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The run's observer (disabled unless [`Self::with_observer`] set one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Spawn the watchdog for the configured triggers. Returns `None`
    /// when there is nothing to monitor (no deadline, stall window or
    /// interrupt flag) — the token can still be cancelled directly. Keep
    /// the returned guard alive for the duration of the run; dropping it
    /// stops the monitor.
    pub fn arm(&self) -> Option<Watchdog> {
        if self.deadline.is_none() && self.stall_window.is_none() && self.interrupt.is_none() {
            return None;
        }
        Some(Watchdog::spawn(
            self.token.clone(),
            self.deadline,
            self.stall_window,
            self.interrupt.clone(),
        ))
    }
}

/// The [`CancelReason`] inside `err`, whether it already surfaced as
/// [`Error::Cancelled`] or still rides the pass boundary as an
/// `Io(Interrupted)` carrying a [`Cancellation`] payload.
pub fn cancellation_reason(err: &Error) -> Option<CancelReason> {
    match err {
        Error::Cancelled { reason, .. } => Some(*reason),
        Error::Io(e) => cancellation_of(e),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_control_defaults_to_unmonitored() {
        let rc = RunControl::new();
        assert!(rc.arm().is_none());
        assert!(!rc.token().is_cancelled());
    }

    #[test]
    fn armed_deadline_zero_cancels_immediately() {
        let rc = RunControl::new().with_deadline(Deadline::after(Duration::ZERO));
        let _w = rc.arm().expect("a deadline needs a watchdog");
        assert_eq!(rc.token().reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn cancellation_reason_sees_both_layers() {
        let token = CancelToken::new();
        token.cancel(CancelReason::Stalled);
        let io_layer = Error::Io(token.check().unwrap_err());
        assert_eq!(cancellation_reason(&io_layer), Some(CancelReason::Stalled));
        let typed = Error::Cancelled {
            reason: CancelReason::UserInterrupt,
            checkpoint: None,
            completeness: Completeness::NoCheckpoint,
        };
        assert_eq!(
            cancellation_reason(&typed),
            Some(CancelReason::UserInterrupt)
        );
        assert_eq!(cancellation_reason(&Error::Config("x".into())), None);
    }

    #[test]
    fn completeness_renders_each_stage() {
        assert!(Completeness::NoCheckpoint
            .to_string()
            .contains("no durable"));
        let p = Completeness::PositivePartial {
            next_level: 3,
            passes: 2,
        };
        assert!(p.to_string().contains("level 3"));
        let n = Completeness::NegativePending { candidates: 17 };
        assert!(n.to_string().contains("17 negative candidates"));
        let d = Completeness::Degraded {
            quarantined_shards: vec!["a-shard-001.nadb".into(), "a-shard-003.nadb".into()],
        };
        let s = d.to_string();
        assert!(s.contains("2 quarantined shard(s)"), "got: {s}");
        assert!(s.contains("a-shard-003.nadb"), "got: {s}");
    }
}
