//! Degrade-instead-of-shed overload control.
//!
//! When the admission queue backs up, hard shedding trades availability
//! for nothing: the client gets an `overloaded` error and retries. The
//! brownout controller instead trades *plan quality* for throughput — the
//! paper's own observation that near-optimal strategies (greedy,
//! left-deep) cost orders of magnitude less to find than the optimum.
//! Under load it pins the degradation ladder's entry rung so requests are
//! cheap by construction:
//!
//! * **normal** — full ladder, caller's own budget;
//! * **reduced-dp** — skip exhaustive enumeration, halve the deadline,
//!   cap the memo (queue ≥ the enter-DP threshold);
//! * **greedy-only** — skip the DPs entirely (queue ≥ the enter-greedy
//!   threshold, or the server actually shed — the strongest signal).
//!
//! Transitions are hysteretic: escalation is immediate, de-escalation
//! needs [`BrownoutConfig::exit_streak`] consecutive observations at or
//! below the exit threshold with no fresh sheds, stepping down one level
//! at a time. Observations are counts, not clock reads, so controller
//! behavior is deterministic for a fixed observation sequence.
//!
//! Hard shed remains the last rung: brownout lowers the chance the queue
//! fills, it never refuses work itself.

use std::sync::Mutex;

/// How far the server has browned out. Ordered: higher = more degraded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// Full ladder, untouched budget.
    #[default]
    Normal,
    /// Ladder enters at the DP rung with a tightened budget.
    ReducedDp,
    /// Ladder enters at the greedy rung with a hard-tightened budget.
    GreedyOnly,
}

impl BrownoutLevel {
    /// The wire name carried to the engine in `EngineRequest::brownout`;
    /// `None` at `Normal` (requests stay byte-identical to a daemon
    /// without brownout).
    pub fn wire_name(self) -> Option<&'static str> {
        match self {
            BrownoutLevel::Normal => None,
            BrownoutLevel::ReducedDp => Some("reduced-dp"),
            BrownoutLevel::GreedyOnly => Some("greedy-only"),
        }
    }

    /// The name shown in `stats` (`normal` included).
    pub fn stats_name(self) -> &'static str {
        self.wire_name().unwrap_or("normal")
    }

    fn step_down(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::GreedyOnly => BrownoutLevel::ReducedDp,
            _ => BrownoutLevel::Normal,
        }
    }
}

/// Controller thresholds. Depth thresholds are percent of the queue cap.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// Master switch; disabled means [`BrownoutController::observe`]
    /// always answers `Normal` and touches no state.
    pub enabled: bool,
    /// Queue-depth percent at which `ReducedDp` engages.
    pub enter_dp_pct: usize,
    /// Queue-depth percent at which `GreedyOnly` engages.
    pub enter_greedy_pct: usize,
    /// Queue-depth percent at or below which an observation counts toward
    /// de-escalation.
    pub exit_pct: usize,
    /// Consecutive calm observations required to step down one level.
    pub exit_streak: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enabled: false,
            enter_dp_pct: 50,
            enter_greedy_pct: 75,
            exit_pct: 25,
            exit_streak: 16,
        }
    }
}

#[derive(Default)]
struct Inner {
    level: BrownoutLevel,
    below_streak: u32,
    last_shed_total: u64,
    entered: u64,
}

/// The load-tracking state machine. One per server; workers call
/// [`BrownoutController::observe`] once per job they pick up.
pub struct BrownoutController {
    config: BrownoutConfig,
    inner: Mutex<Inner>,
}

impl BrownoutController {
    /// A controller with the given thresholds.
    pub fn new(config: BrownoutConfig) -> BrownoutController {
        BrownoutController {
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Feeds one load observation (current queue depth, queue cap, and
    /// the monotone total of global sheds so far) and returns the level
    /// to serve the next job at.
    pub fn observe(&self, depth: usize, cap: usize, shed_total: u64) -> BrownoutLevel {
        if !self.config.enabled {
            return BrownoutLevel::Normal;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let pct = depth * 100 / cap.max(1);
        let fresh_shed = shed_total > inner.last_shed_total;
        inner.last_shed_total = shed_total;
        let target = if pct >= self.config.enter_greedy_pct || fresh_shed {
            BrownoutLevel::GreedyOnly
        } else if pct >= self.config.enter_dp_pct {
            BrownoutLevel::ReducedDp
        } else {
            BrownoutLevel::Normal
        };
        if target > inner.level {
            inner.level = target;
            inner.below_streak = 0;
            inner.entered += 1;
        } else if inner.level > BrownoutLevel::Normal && pct <= self.config.exit_pct && !fresh_shed
        {
            inner.below_streak += 1;
            if inner.below_streak >= self.config.exit_streak {
                inner.level = inner.level.step_down();
                inner.below_streak = 0;
            }
        } else {
            inner.below_streak = 0;
        }
        inner.level
    }

    /// The current level, without feeding an observation.
    pub fn level(&self) -> BrownoutLevel {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).level
    }

    /// Upward transitions so far.
    pub fn entered(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).entered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> BrownoutController {
        BrownoutController::new(BrownoutConfig {
            enabled: true,
            exit_streak: 3,
            ..BrownoutConfig::default()
        })
    }

    #[test]
    fn disabled_controller_is_inert() {
        let c = BrownoutController::new(BrownoutConfig::default());
        assert_eq!(c.observe(100, 100, 50), BrownoutLevel::Normal);
        assert_eq!(c.entered(), 0);
    }

    #[test]
    fn escalates_immediately_on_depth() {
        let c = controller();
        assert_eq!(c.observe(10, 100, 0), BrownoutLevel::Normal);
        assert_eq!(c.observe(50, 100, 0), BrownoutLevel::ReducedDp);
        assert_eq!(c.observe(80, 100, 0), BrownoutLevel::GreedyOnly);
        assert_eq!(c.entered(), 2);
    }

    #[test]
    fn a_fresh_shed_forces_greedy_only() {
        let c = controller();
        assert_eq!(c.observe(5, 100, 1), BrownoutLevel::GreedyOnly);
    }

    #[test]
    fn exit_needs_a_calm_streak_and_steps_down_one_level() {
        let c = controller();
        assert_eq!(c.observe(90, 100, 0), BrownoutLevel::GreedyOnly);
        // Mid-range depth neither escalates nor counts as calm.
        assert_eq!(c.observe(40, 100, 0), BrownoutLevel::GreedyOnly);
        // Two calm ticks are not enough (streak = 3)…
        assert_eq!(c.observe(10, 100, 0), BrownoutLevel::GreedyOnly);
        assert_eq!(c.observe(10, 100, 0), BrownoutLevel::GreedyOnly);
        // …and a shed resets the streak.
        assert_eq!(c.observe(10, 100, 1), BrownoutLevel::GreedyOnly);
        for _ in 0..2 {
            assert_eq!(c.observe(10, 100, 1), BrownoutLevel::GreedyOnly);
        }
        assert_eq!(c.observe(10, 100, 1), BrownoutLevel::ReducedDp);
        // Another full streak reaches Normal.
        for _ in 0..2 {
            assert_eq!(c.observe(0, 100, 1), BrownoutLevel::ReducedDp);
        }
        assert_eq!(c.observe(0, 100, 1), BrownoutLevel::Normal);
    }
}
