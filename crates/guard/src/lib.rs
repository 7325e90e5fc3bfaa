//! Resource governance for the mjoin workspace: typed errors, budgets,
//! cancellation and deterministic fault injection.
//!
//! Exhaustive/DP search over Tay's strategy spaces is exponential, and the
//! exact oracle materializes intermediate joins whose sizes the optimizer
//! is precisely trying to avoid — so every entry point that may run long
//! accepts a [`Guard`]. A guard carries a [`Budget`] (wall-clock deadline,
//! memo-entry cap, intermediate-tuple cap) and an optional [`CancelToken`];
//! hot loops call [`Guard::checkpoint`] and allocation sites call
//! [`Guard::charge_memo`]/[`Guard::charge_tuples`]. When a limit trips, the
//! work unwinds with a typed [`MjoinError`] instead of hanging or aborting,
//! and the caller (the degradation ladder in `mjoin-core`) falls back to a
//! cheaper planner.
//!
//! The [`failpoints`] module provides a failpoint-style registry for
//! deterministic fault injection: sites are compiled in everywhere but cost
//! a single atomic load until armed via the API or the
//! `MJOIN_FAIL_INJECT` environment variable. [`Scope`] is what a thread
//! hands the workers it spawns, so that they count into its telemetry sink
//! and see the failpoints it armed.
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled** — [`Guard::unlimited`] reduces every check
//!   to one branch on a plain `bool`; no atomics, no clock reads.
//! * **Cheap to share** — `Guard` is a `Arc` handle; clones hand the same
//!   counters to helpers and worker structures.
//! * **Amortized clock reads** — deadlines are polled every
//!   [`CHECK_STRIDE`] checkpoints, so `Instant::now` stays off the inner
//!   loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod failpoints;

pub use failpoints::Scope;

/// Which budgeted resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    WallClock,
    /// The optimizer memo grew past its cap.
    MemoEntries,
    /// Intermediate-join materialization emitted too many tuples.
    Tuples,
    /// The system refused to grow a buffer. There is no configured cap:
    /// `limit` is the size in bytes the buffer had reached.
    Memory,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::WallClock => write!(f, "wall-clock deadline"),
            Resource::MemoEntries => write!(f, "memo entries"),
            Resource::Tuples => write!(f, "intermediate tuples"),
            Resource::Memory => write!(f, "memory"),
        }
    }
}

/// The workspace's error taxonomy. Every fallible guarded operation
/// reports one of these; none of them should ever surface as a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MjoinError {
    /// A [`Budget`] limit tripped, or the system refused memory. `limit`
    /// is the configured cap in the resource's own unit (milliseconds,
    /// entries, tuples; bytes reached for [`Resource::Memory`]).
    BudgetExceeded {
        /// The resource that ran out.
        resource: Resource,
        /// The configured cap.
        limit: u64,
    },
    /// The [`CancelToken`] observed by this guard was cancelled.
    Cancelled,
    /// The input database scheme cannot be processed as requested (empty
    /// subset, empty search space, malformed scheme).
    InvalidScheme(String),
    /// An internal invariant failed — the typed replacement for
    /// `unwrap()`/`expect()` on paths that should be unreachable. Also
    /// carries injected faults from [`failpoints`].
    Internal(String),
    /// A persistent optimizer store failed structural validation (bad
    /// magic, version, endianness, section bounds, or checksum) or could
    /// not be read/written. Truncated and corrupted files must surface
    /// here, never as UB or a panic.
    CorruptStore(String),
    /// A query-DSL text failed to parse, or a well-formed query could not
    /// be lowered onto the database it was issued against (unknown table,
    /// unknown column, unsupported predicate shape). Malformed query input
    /// must surface here — never as a panic and never as `Internal`.
    InvalidQuery(String),
}

impl std::fmt::Display for MjoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MjoinError::BudgetExceeded { resource, limit } => {
                write!(f, "budget exceeded: {resource} (limit {limit})")
            }
            MjoinError::Cancelled => write!(f, "operation cancelled"),
            MjoinError::InvalidScheme(msg) => write!(f, "invalid scheme: {msg}"),
            MjoinError::Internal(msg) => write!(f, "internal error: {msg}"),
            MjoinError::CorruptStore(msg) => write!(f, "corrupt store: {msg}"),
            MjoinError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for MjoinError {}

/// A shareable cancellation flag. Cloning is cheap; any clone can cancel,
/// and every [`Guard`] observing the token reports [`MjoinError::Cancelled`]
/// at its next checkpoint.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flips the token; observers fail their next checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called (by any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource limits for one optimization/evaluation run. All limits are
/// optional; [`Budget::unlimited`] is the identity element.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock allowance, measured from [`Guard::new`].
    pub deadline: Option<Duration>,
    /// Cap on memo entries across the run's DP tables and oracle memo.
    pub max_memo_entries: Option<u64>,
    /// Cap on intermediate tuples materialized across the run.
    pub max_tuples: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock allowance.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the memo-entry cap.
    pub fn with_max_memo_entries(mut self, n: u64) -> Self {
        self.max_memo_entries = Some(n);
        self
    }

    /// Sets the intermediate-tuple cap.
    pub fn with_max_tuples(mut self, n: u64) -> Self {
        self.max_tuples = Some(n);
        self
    }

    /// Does this budget constrain anything?
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_memo_entries.is_none() && self.max_tuples.is_none()
    }
}

/// Deadline polls happen once per this many [`Guard::checkpoint`] calls,
/// keeping `Instant::now` off the hot loops.
pub const CHECK_STRIDE: u64 = 64;

#[derive(Debug)]
struct GuardInner {
    started: Instant,
    deadline: Option<Duration>,
    max_memo: Option<u64>,
    max_tuples: Option<u64>,
    cancel: Option<CancelToken>,
    ticks: AtomicU64,
    memo_used: AtomicU64,
    tuples_used: AtomicU64,
    tripped: AtomicBool,
}

/// A cheap handle threading one [`Budget`] (and optionally a
/// [`CancelToken`]) through a whole optimization run. Clone freely — all
/// clones share the same counters.
///
/// A guard *trips once*: after the first limit violation every subsequent
/// check fails fast with the same class of error, so deep call stacks
/// unwind promptly.
#[derive(Clone, Debug)]
pub struct Guard {
    /// `false` iff the guard can never trip (no limits, no token): every
    /// check is then a single predictable branch.
    limited: bool,
    inner: Arc<GuardInner>,
}

impl Default for Guard {
    fn default() -> Self {
        Guard::unlimited()
    }
}

impl Guard {
    /// A guard enforcing `budget`, with the clock starting now.
    pub fn new(budget: Budget) -> Self {
        Guard::with_cancel_opt(budget, None)
    }

    /// A guard enforcing `budget` and observing `cancel`.
    pub fn with_cancel(budget: Budget, cancel: CancelToken) -> Self {
        Guard::with_cancel_opt(budget, Some(cancel))
    }

    fn with_cancel_opt(budget: Budget, cancel: Option<CancelToken>) -> Self {
        let limited = !budget.is_unlimited() || cancel.is_some();
        Guard {
            limited,
            inner: Arc::new(GuardInner {
                started: Instant::now(),
                deadline: budget.deadline,
                max_memo: budget.max_memo_entries,
                max_tuples: budget.max_tuples,
                cancel,
                ticks: AtomicU64::new(0),
                memo_used: AtomicU64::new(0),
                tuples_used: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            }),
        }
    }

    /// A guard that never trips. All checks reduce to one branch.
    pub fn unlimited() -> Self {
        Guard::new(Budget::unlimited())
    }

    /// Does this guard enforce any limit or token?
    pub fn is_limited(&self) -> bool {
        self.limited
    }

    /// Has any limit already tripped?
    pub fn is_tripped(&self) -> bool {
        self.limited && self.inner.tripped.load(Ordering::Relaxed)
    }

    /// Memo entries charged so far.
    pub fn memo_used(&self) -> u64 {
        self.inner.memo_used.load(Ordering::Relaxed)
    }

    /// Intermediate tuples charged so far.
    pub fn tuples_used(&self) -> u64 {
        self.inner.tuples_used.load(Ordering::Relaxed)
    }

    /// Time elapsed since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    #[cold]
    fn trip(&self, e: MjoinError) -> MjoinError {
        self.inner.tripped.store(true, Ordering::Relaxed);
        e
    }

    fn deadline_error(&self) -> MjoinError {
        MjoinError::BudgetExceeded {
            resource: Resource::WallClock,
            limit: self
                .inner
                .deadline
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
        }
    }

    /// Checks cancellation and (every [`CHECK_STRIDE`] calls) the
    /// deadline. Call from loop bodies; the amortized cost is one atomic
    /// increment.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), MjoinError> {
        if !self.limited {
            return Ok(());
        }
        self.checkpoint_slow()
    }

    fn checkpoint_slow(&self) -> Result<(), MjoinError> {
        if self.inner.tripped.load(Ordering::Relaxed) {
            return Err(self.tripped_error());
        }
        if let Some(tok) = &self.inner.cancel {
            if tok.is_cancelled() {
                return Err(self.trip(MjoinError::Cancelled));
            }
        }
        if self.inner.deadline.is_some() {
            let t = self.inner.ticks.fetch_add(1, Ordering::Relaxed);
            if t.is_multiple_of(CHECK_STRIDE) {
                return self.check_deadline_now();
            }
        }
        Ok(())
    }

    /// Polls the deadline immediately, bypassing the stride. Use at phase
    /// boundaries (per-rung, per-relation) where a prompt answer matters
    /// more than amortization.
    pub fn check_deadline_now(&self) -> Result<(), MjoinError> {
        if !self.limited {
            return Ok(());
        }
        if self.inner.tripped.load(Ordering::Relaxed) {
            return Err(self.tripped_error());
        }
        if let Some(tok) = &self.inner.cancel {
            if tok.is_cancelled() {
                return Err(self.trip(MjoinError::Cancelled));
            }
        }
        if let Some(d) = self.inner.deadline {
            if self.inner.started.elapsed() >= d {
                return Err(self.trip(self.deadline_error()));
            }
        }
        Ok(())
    }

    /// Time left before the deadline; `None` when there is no deadline.
    pub fn remaining(&self) -> Option<Duration> {
        let d = self.inner.deadline?;
        Some(d.saturating_sub(self.inner.started.elapsed()))
    }

    /// Trips the deadline now if `more` time would overrun it: for a search
    /// that can project its own remaining work, so it stops before spending
    /// the budget (and the memory that work builds) rather than after. A
    /// no-op without a deadline.
    pub fn check_deadline_after(&self, more: Duration) -> Result<(), MjoinError> {
        match self.remaining() {
            Some(left) if more > left => Err(self.trip(self.deadline_error())),
            _ => self.check_deadline_now(),
        }
    }

    /// The error a previously tripped guard keeps reporting: whichever
    /// limit is (still) violated, preferring cancellation, then deadline,
    /// then counters.
    fn tripped_error(&self) -> MjoinError {
        if let Some(tok) = &self.inner.cancel {
            if tok.is_cancelled() {
                return MjoinError::Cancelled;
            }
        }
        if let Some(d) = self.inner.deadline {
            if self.inner.started.elapsed() >= d {
                return self.deadline_error();
            }
        }
        if let Some(m) = self.inner.max_memo {
            if self.inner.memo_used.load(Ordering::Relaxed) > m {
                return MjoinError::BudgetExceeded {
                    resource: Resource::MemoEntries,
                    limit: m,
                };
            }
        }
        if let Some(m) = self.inner.max_tuples {
            if self.inner.tuples_used.load(Ordering::Relaxed) > m {
                return MjoinError::BudgetExceeded {
                    resource: Resource::Tuples,
                    limit: m,
                };
            }
        }
        // Deadline guards can "un-trip" only by clock skew; report the
        // deadline anyway rather than invent a new state.
        self.deadline_error()
    }

    /// Charges `n` memo entries against the cap (and polls the deadline:
    /// memo growth is a natural progress marker). The memo count doubles
    /// as the deadline stride — one atomic add covers both, keeping this
    /// call a single RMW on DP hot paths.
    pub fn charge_memo(&self, n: u64) -> Result<(), MjoinError> {
        if !self.limited {
            return Ok(());
        }
        let used = self.inner.memo_used.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(m) = self.inner.max_memo {
            if used > m {
                return Err(self.trip(MjoinError::BudgetExceeded {
                    resource: Resource::MemoEntries,
                    limit: m,
                }));
            }
        }
        if self.inner.tripped.load(Ordering::Relaxed) {
            return Err(self.tripped_error());
        }
        if let Some(tok) = &self.inner.cancel {
            if tok.is_cancelled() {
                return Err(self.trip(MjoinError::Cancelled));
            }
        }
        if self.inner.deadline.is_some() && used.is_multiple_of(CHECK_STRIDE) {
            return self.check_deadline_now();
        }
        Ok(())
    }

    /// Charges `n` materialized intermediate tuples against the cap (and
    /// polls the deadline).
    pub fn charge_tuples(&self, n: u64) -> Result<(), MjoinError> {
        if !self.limited {
            return Ok(());
        }
        let used = self.inner.tuples_used.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(m) = self.inner.max_tuples {
            if used > m {
                return Err(self.trip(MjoinError::BudgetExceeded {
                    resource: Resource::Tuples,
                    limit: m,
                }));
            }
        }
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        assert!(!g.is_limited());
        for _ in 0..10_000 {
            g.checkpoint().unwrap();
        }
        g.charge_memo(u64::MAX / 2).unwrap();
        g.charge_tuples(u64::MAX / 2).unwrap();
        assert!(!g.is_tripped());
    }

    #[test]
    fn memo_cap_trips_and_stays_tripped() {
        let g = Guard::new(Budget::unlimited().with_max_memo_entries(10));
        g.charge_memo(10).unwrap();
        let e = g.charge_memo(1).unwrap_err();
        assert_eq!(
            e,
            MjoinError::BudgetExceeded {
                resource: Resource::MemoEntries,
                limit: 10
            }
        );
        assert!(g.is_tripped());
        assert!(g.checkpoint().is_err());
        // Clones share the trip.
        assert!(g.clone().charge_tuples(1).is_err());
    }

    #[test]
    fn tuple_cap_trips() {
        let g = Guard::new(Budget::unlimited().with_max_tuples(100));
        g.charge_tuples(60).unwrap();
        assert!(g.charge_tuples(60).is_err());
    }

    #[test]
    fn a_projected_overrun_trips_before_the_deadline() {
        let unlimited = Guard::unlimited();
        assert_eq!(unlimited.remaining(), None);
        unlimited.check_deadline_after(Duration::MAX).unwrap();

        let g = Guard::new(Budget::unlimited().with_deadline(Duration::from_secs(60)));
        assert!(g
            .remaining()
            .is_some_and(|left| left <= Duration::from_secs(60)));
        g.check_deadline_after(Duration::from_millis(1)).unwrap();
        let err = g
            .check_deadline_after(Duration::from_secs(3600))
            .unwrap_err();
        assert!(matches!(
            err,
            MjoinError::BudgetExceeded {
                resource: Resource::WallClock,
                limit: 60_000
            }
        ));
        assert!(g.is_tripped());
        assert!(
            g.checkpoint().is_err(),
            "a projected trip sticks like any other"
        );
    }

    #[test]
    fn deadline_trips() {
        let g = Guard::new(Budget::unlimited().with_deadline(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = false;
        for _ in 0..(CHECK_STRIDE * 2) {
            if g.checkpoint().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "stride-polled deadline must trip");
        assert!(matches!(
            g.check_deadline_now().unwrap_err(),
            MjoinError::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            }
        ));
    }

    #[test]
    fn cancellation_observed_by_clones() {
        let tok = CancelToken::new();
        let g = Guard::with_cancel(Budget::unlimited(), tok.clone());
        g.checkpoint().unwrap();
        tok.cancel();
        assert_eq!(g.checkpoint().unwrap_err(), MjoinError::Cancelled);
        assert_eq!(g.clone().checkpoint().unwrap_err(), MjoinError::Cancelled);
    }

    #[test]
    fn error_display_is_informative() {
        let e = MjoinError::BudgetExceeded {
            resource: Resource::Tuples,
            limit: 5,
        };
        assert!(e.to_string().contains("intermediate tuples"));
        assert!(MjoinError::Cancelled.to_string().contains("cancelled"));
        assert!(MjoinError::InvalidScheme("x".into())
            .to_string()
            .contains("invalid scheme"));
        assert!(MjoinError::Internal("y".into())
            .to_string()
            .contains("internal"));
    }
}
