//! Cooperative run control: cancellation tokens, deadlines and a stall
//! watchdog.
//!
//! The paper's pipeline is `n + 1` full database passes, so a mining run
//! is long-lived by construction. This module supplies the primitives a
//! service needs to bound and interrupt one:
//!
//! * [`CancelToken`] — a lock-free, cloneable flag with a first-write-wins
//!   [`CancelReason`]. Long loops call [`CancelToken::check`] at block and
//!   pass boundaries; counting code reports liveness through
//!   [`CancelToken::record_progress`].
//! * [`Deadline`] — a wall-clock budget for the whole run.
//! * [`Watchdog`] — a background monitor that trips the token when the
//!   deadline expires, an interrupt flag is raised (e.g. SIGINT), or the
//!   progress counter stalls for longer than a configured window.
//!
//! Cancellation travels as an [`io::Error`] of kind
//! [`io::ErrorKind::Interrupted`] carrying a downcastable [`Cancellation`]
//! payload, mirroring how the candidate-budget overflow rides through the
//! pass boundary; [`cancellation_of`] recovers the reason at any layer.
//! The txdb crate sits at the bottom of the workspace, so these types live
//! here (the worker pool in [`crate::block`] needs them) and the core
//! crate re-exports them as `core::ctrl`.

use std::error::Error as StdError;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run was cancelled. First write wins: once a token carries a
/// reason, later `cancel` calls are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The operator asked for the run to stop (SIGINT / explicit cancel).
    UserInterrupt,
    /// The run's wall-clock [`Deadline`] expired.
    DeadlineExceeded,
    /// The [`Watchdog`] saw no counting progress for a full stall window.
    Stalled,
}

impl CancelReason {
    /// Stable lowercase name, used in diagnostics and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::UserInterrupt => "user interrupt",
            CancelReason::DeadlineExceeded => "deadline exceeded",
            CancelReason::Stalled => "stalled",
        }
    }

    fn from_state(state: u8) -> Option<Self> {
        match state {
            STATE_USER => Some(CancelReason::UserInterrupt),
            STATE_DEADLINE => Some(CancelReason::DeadlineExceeded),
            STATE_STALLED => Some(CancelReason::Stalled),
            _ => None,
        }
    }

    fn as_state(self) -> u8 {
        match self {
            CancelReason::UserInterrupt => STATE_USER,
            CancelReason::DeadlineExceeded => STATE_DEADLINE,
            CancelReason::Stalled => STATE_STALLED,
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The typed payload a cancelled pass carries through the `io::Error`
/// boundary. Recover it with [`cancellation_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancellation {
    /// Why the token was tripped.
    pub reason: CancelReason,
}

impl fmt::Display for Cancellation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run cancelled: {}", self.reason)
    }
}

impl StdError for Cancellation {}

impl From<Cancellation> for io::Error {
    fn from(c: Cancellation) -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, c)
    }
}

/// The [`CancelReason`] inside `e`, if `e` is a cancellation produced by
/// [`CancelToken::check`] (directly or wrapped by a retry layer's chain).
pub fn cancellation_of(e: &io::Error) -> Option<CancelReason> {
    if e.kind() != io::ErrorKind::Interrupted {
        return None;
    }
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<Cancellation>())
        .map(|c| c.reason)
}

const STATE_LIVE: u8 = 0;
const STATE_USER: u8 = 1;
const STATE_DEADLINE: u8 = 2;
const STATE_STALLED: u8 = 3;

#[derive(Debug, Default)]
struct TokenInner {
    /// `STATE_LIVE` or a `STATE_*` reason code; written exactly once.
    state: AtomicU8,
    /// Monotonic heartbeat: transactions (or comparable work units)
    /// processed since the token was created. Only ever compared for
    /// change, never for magnitude.
    progress: AtomicU64,
}

/// A lock-free cancellation flag shared by everyone involved in one run.
///
/// Clones share state. Checking is two relaxed atomic loads, cheap enough
/// for once-per-block use on the counting hot path; cancelling is a single
/// compare-exchange, safe from any thread including a watchdog.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A live (not cancelled) token with a zeroed progress counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token. Returns `true` if this call won the race and its
    /// `reason` sticks; `false` if the token was already cancelled.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        self.inner
            .state
            .compare_exchange(
                STATE_LIVE,
                reason.as_state(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// `true` once any party has cancelled the run.
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != STATE_LIVE
    }

    /// The winning reason, once cancelled.
    pub fn reason(&self) -> Option<CancelReason> {
        CancelReason::from_state(self.inner.state.load(Ordering::Acquire))
    }

    /// `Ok(())` while live; once cancelled, an [`io::ErrorKind::Interrupted`]
    /// error carrying the [`Cancellation`] payload. Call at block and pass
    /// boundaries.
    pub fn check(&self) -> io::Result<()> {
        match self.reason() {
            None => Ok(()),
            Some(reason) => Err(Cancellation { reason }.into()),
        }
    }

    /// Record `units` of completed counting work (the watchdog's
    /// heartbeat). Relaxed: only change matters, not ordering.
    pub fn record_progress(&self, units: u64) {
        self.inner.progress.fetch_add(units, Ordering::Relaxed);
    }

    /// Total work units recorded so far.
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }
}

/// A wall-clock budget for a run, measured from creation.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now. A zero budget is already expired.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    /// `true` once the budget is spent.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// A background monitor that trips a [`CancelToken`] on deadline expiry,
/// a raised interrupt flag, or stalled progress.
///
/// The monitor polls a few dozen times per second (scaled down from the
/// stall window), so cancellation latency is bounded by the poll interval
/// plus one block of counting work. Dropping the watchdog stops and joins
/// the monitor thread; the token survives and keeps its verdict. The
/// monitor parks rather than sleeps between polls, so the drop-side join
/// returns as soon as it unparks the thread — a completed run never waits
/// out a poll interval (that latency would otherwise tax *every*
/// controlled run, see `BENCH_ctrl.json`).
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start monitoring `token`. Any subset of the three triggers may be
    /// configured; with none, the watchdog is a no-op (but still cheap).
    ///
    /// An already-expired `deadline` cancels the token synchronously,
    /// before any thread is spawned, so `--deadline 0` is deterministic.
    pub fn spawn(
        token: CancelToken,
        deadline: Option<Deadline>,
        stall_window: Option<Duration>,
        interrupt: Option<Arc<AtomicBool>>,
    ) -> Self {
        if let Some(d) = deadline {
            if d.expired() {
                token.cancel(CancelReason::DeadlineExceeded);
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        if token.is_cancelled() {
            return Self { stop, handle: None };
        }
        let poll = match stall_window {
            Some(w) => (w / 4).clamp(Duration::from_millis(2), Duration::from_millis(50)),
            None => Duration::from_millis(25),
        };
        let stop_flag = Arc::clone(&stop);
        // The monitor must outlive any single pass and owns no borrows, so
        // the scoped pool in `block` cannot host it. It is joined on drop.
        // negassoc-lint: allow(L007) — the watchdog monitor is the one free thread besides the counting pool; Watchdog::drop joins it deterministically.
        let handle = std::thread::spawn(move || {
            let mut last_progress = token.progress();
            let mut last_change = Instant::now();
            while !stop_flag.load(Ordering::Acquire) && !token.is_cancelled() {
                if interrupt
                    .as_deref()
                    .is_some_and(|f| f.load(Ordering::Acquire))
                {
                    token.cancel(CancelReason::UserInterrupt);
                    break;
                }
                if deadline.is_some_and(|d| d.expired()) {
                    token.cancel(CancelReason::DeadlineExceeded);
                    break;
                }
                if let Some(window) = stall_window {
                    let p = token.progress();
                    if p != last_progress {
                        last_progress = p;
                        last_change = Instant::now();
                    } else if last_change.elapsed() >= window {
                        token.cancel(CancelReason::Stalled);
                        break;
                    }
                }
                // Parked, not asleep: Drop unparks for a prompt join.
                // Spurious wakeups just re-run the trigger checks.
                std::thread::park_timeout(poll);
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            // Wake the monitor out of its poll wait so the join is
            // immediate instead of up to one poll interval late.
            handle.thread().unpark();
            // A monitor panic would already have tripped nothing; ignore.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_live_and_checks_ok() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.check().unwrap();
        assert_eq!(t.progress(), 0);
    }

    #[test]
    fn first_cancel_wins_and_sticks() {
        let t = CancelToken::new();
        assert!(t.cancel(CancelReason::DeadlineExceeded));
        assert!(!t.cancel(CancelReason::UserInterrupt));
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // Clones share the verdict.
        let c = t.clone();
        assert!(c.is_cancelled());
    }

    #[test]
    fn check_carries_a_downcastable_reason() {
        let t = CancelToken::new();
        t.cancel(CancelReason::UserInterrupt);
        let err = t.check().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(cancellation_of(&err), Some(CancelReason::UserInterrupt));
        assert!(err.to_string().contains("user interrupt"));
        // Foreign Interrupted errors are not cancellations.
        let foreign = io::Error::new(io::ErrorKind::Interrupted, "EINTR");
        assert_eq!(cancellation_of(&foreign), None);
        let other = io::Error::other("boom");
        assert_eq!(cancellation_of(&other), None);
    }

    #[test]
    fn progress_accumulates_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.record_progress(10);
        c.record_progress(5);
        assert_eq!(t.progress(), 15);
    }

    #[test]
    fn deadline_expiry() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(3500));
    }

    #[test]
    fn expired_deadline_cancels_synchronously() {
        let t = CancelToken::new();
        let _w = Watchdog::spawn(t.clone(), Some(Deadline::after(Duration::ZERO)), None, None);
        // No sleep: the guarantee is synchronous, not eventual.
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn watchdog_trips_on_future_deadline() {
        let t = CancelToken::new();
        let _w = Watchdog::spawn(
            t.clone(),
            Some(Deadline::after(Duration::from_millis(10))),
            None,
            None,
        );
        let start = Instant::now();
        while !t.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn watchdog_trips_on_interrupt_flag() {
        let t = CancelToken::new();
        let flag = Arc::new(AtomicBool::new(false));
        let _w = Watchdog::spawn(t.clone(), None, None, Some(Arc::clone(&flag)));
        flag.store(true, Ordering::Release);
        let start = Instant::now();
        while !t.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(t.reason(), Some(CancelReason::UserInterrupt));
    }

    #[test]
    fn watchdog_trips_on_stall_but_not_under_progress() {
        // Stalled token: no progress for a full window.
        let t = CancelToken::new();
        let _w = Watchdog::spawn(t.clone(), None, Some(Duration::from_millis(40)), None);
        let start = Instant::now();
        while !t.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(t.reason(), Some(CancelReason::Stalled));

        // Heartbeating token: progress every few ms keeps it alive well
        // past the window.
        let live = CancelToken::new();
        let w = Watchdog::spawn(live.clone(), None, Some(Duration::from_millis(150)), None);
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(450) {
            live.record_progress(1);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!live.is_cancelled(), "progress must hold the watchdog off");
        drop(w);
        assert!(
            !live.is_cancelled(),
            "dropping the watchdog cancels nothing"
        );
    }

    #[test]
    fn dropping_the_watchdog_joins_promptly() {
        let t = CancelToken::new();
        let w = Watchdog::spawn(t, None, Some(Duration::from_secs(3600)), None);
        let start = Instant::now();
        drop(w);
        assert!(start.elapsed() < Duration::from_secs(2));
    }
}
