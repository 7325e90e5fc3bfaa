//! Budgeted optimization with graceful degradation.
//!
//! The exact optimizers are exponential: `O(3ⁿ)` for the bushy DP,
//! `(2n−3)!!` for exhaustive enumeration. Under a wall-clock deadline or a
//! memory cap they cannot always finish — but an optimizer that answers
//! "budget exceeded" with *nothing* is useless to a caller who still has a
//! query to run. This module provides the degradation ladder — Tay's
//! trade between the size of the search space and the quality of the
//! answer, made executable — as **one loop over one table of rungs**:
//!
//! | rung              | slice | exact | what runs                                          |
//! |-------------------|-------|-------|----------------------------------------------------|
//! | **Exhaustive**    | 1/4   | yes   | every strategy in the space (≤ 7 relations only)   |
//! | **Dp**            | 1/2   | yes   | the space's dynamic program                        |
//! | **LinDp**         | 1/2   | no    | IKKBZ-linearized interval DP                       |
//! | **PartitionedDp** | 1/2   | no    | exact DPccp in blocks, greedy across the cuts      |
//! | **Greedy**        | 1/1   | no    | the polynomial heuristic matching the space's shape |
//! | **Fallback**      | 1/1   | no    | index-order left-deep, built without the data      |
//!
//! *slice* is the share of the deadline **still remaining when the rung
//! starts** that it may spend (memo and tuple caps apply to each rung
//! whole). When a rung trips its slice, the loop records why and climbs
//! down. An *exact* rung's answer is τ-optimal in the requested space; the
//! others' may leave a restricted space — degradation relaxes optimality
//! first, space membership second. The result is always some valid
//! strategy covering every relation, plus a [`DegradationReport`] saying
//! which rung answered and what happened to the rungs above it. A
//! serve-mode brownout ([`BrownoutLevel`]) pins the *entry rung*: a start
//! index into the table.
//!
//! All rungs of one descent share one [`ExactOracle`] — one memo,
//! re-armed with each rung's slice, so intermediates survive degradation.
//! Every rung searches on the calling thread. `threads` is the number of
//! workers the oracle's partitioned hash join may use to materialize a
//! subset; the join's result, and so every τ and plan, is the same at
//! every thread count.
//!
//! Only **budget** trips degrade. Cancellation ([`MjoinError::Cancelled`])
//! and internal faults ([`MjoinError::Internal`], which includes injected
//! faults) propagate immediately — degradation is for resource exhaustion,
//! not for masking bugs or overriding the user.

use std::fmt;
use std::time::{Duration, Instant};

use mjoin_cost::{Database, ExactOracle};
use mjoin_guard::{failpoints, Budget, CancelToken, Guard, MjoinError};
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_obs::{incr, span, Counter, Span};
use mjoin_optimizer::{try_optimize, Plan, SearchSpace};
use mjoin_strategy::{try_best_strategy, Strategy};

/// Largest subset the exhaustive rung will attempt: `(2·7 − 3)!! = 10 395`
/// strategies is instant, one more relation is 13× that.
pub const EXHAUSTIVE_MAX_RELS: usize = 7;

/// One level of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Exhaustive enumeration of the search space.
    Exhaustive,
    /// The space's dynamic program.
    Dp,
    /// IKKBZ-linearized interval DP: polynomial in `n`, bushy within a
    /// precedence order, never worse than greedy-linear.
    LinDp,
    /// Partitioned DPccp: exact within ≤ k-relation blocks, greedy
    /// recombination across the cuts.
    PartitionedDp,
    /// The greedy heuristic.
    Greedy,
    /// Index-order left-deep strategy, built without touching the data.
    Fallback,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::Exhaustive => "exhaustive",
            Rung::Dp => "dp",
            Rung::LinDp => "lindp",
            Rung::PartitionedDp => "partdp",
            Rung::Greedy => "greedy",
            Rung::Fallback => "fallback",
        })
    }
}

/// Resources one rung consumed before answering, failing, or being
/// skipped: wall-clock elapsed plus the budget drawn from its guard.
/// All zero for rungs skipped without running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RungStats {
    /// Wall time the rung ran for (a timing — not deterministic).
    pub elapsed: Duration,
    /// Memo entries charged to the rung's budget slice.
    pub memo_used: u64,
    /// Intermediate tuples charged to the rung's budget slice.
    pub tuples_used: u64,
}

/// What happened to one rung that did *not* answer.
#[derive(Clone, Debug)]
pub struct RungAttempt {
    /// The rung that was tried (or skipped).
    pub rung: Rung,
    /// Why it didn't answer — a budget error, an empty search space, or a
    /// skip note.
    pub outcome: String,
    /// What the attempt cost before it gave up (zero when skipped).
    pub stats: RungStats,
}

/// Which rung answered, and why the ones above it didn't.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// The rung that produced the returned plan.
    pub answered_by: Rung,
    /// The rungs that failed or were skipped, in descending order.
    pub attempts: Vec<RungAttempt>,
    /// True when the plan is guaranteed τ-optimal within the requested
    /// space (the exhaustive or DP rung answered).
    pub optimal: bool,
    /// True when the plan is only guaranteed *valid* (covers every
    /// relation) but may leave the requested search space — the fallback
    /// rung ignores space restrictions, which can be unsatisfiable
    /// (product-free spaces over unconnected schemes).
    pub space_relaxed: bool,
    /// Resources the *answering* rung consumed.
    pub answered_stats: RungStats,
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "answered by {} rung", self.answered_by)?;
        if self.optimal {
            write!(f, " (optimal in space)")?;
        } else if self.space_relaxed {
            write!(f, " (valid, space restriction relaxed)")?;
        } else {
            write!(f, " (heuristic)")?;
        }
        for a in &self.attempts {
            write!(f, "; {} rung: {}", a.rung, a.outcome)?;
        }
        Ok(())
    }
}

/// A plan that survived the ladder, with the story of how it was obtained.
#[derive(Clone, Debug)]
pub struct RobustPlan {
    /// The chosen strategy and its cost. The cost is `u64::MAX` when even
    /// *costing* the fallback strategy exceeded the remaining budget — the
    /// strategy itself is still valid.
    pub plan: Plan,
    /// Which rung answered and why the ones above it didn't.
    pub report: DegradationReport,
}

/// A serve-mode brownout level: how aggressively an overloaded daemon
/// trades plan quality for optimization effort — Tay's central trade-off,
/// applied as admission policy. Each level maps to a ladder *entry rung*
/// (rungs above it are recorded as skipped, never attempted) plus a budget
/// transform that tightens the deadline and memo cap, so a browned-out
/// request is cheap by construction rather than by racing a timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// No brownout: the full ladder with the caller's own budget.
    #[default]
    Normal,
    /// Skip exhaustive enumeration; enter at the DP rung with the deadline
    /// halved and the memo capped at 4096 entries.
    ReducedDp,
    /// Skip exhaustive and every DP rung (full, linearized, partitioned);
    /// enter at the greedy rung with the deadline quartered and the memo
    /// capped at 1024 entries.
    GreedyOnly,
}

impl BrownoutLevel {
    /// Stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::ReducedDp => "reduced-dp",
            BrownoutLevel::GreedyOnly => "greedy-only",
        }
    }

    /// Parses a wire/CLI name back into a level.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "normal" => Some(BrownoutLevel::Normal),
            "reduced-dp" => Some(BrownoutLevel::ReducedDp),
            "greedy-only" => Some(BrownoutLevel::GreedyOnly),
            _ => None,
        }
    }

    /// The highest ladder rung this level permits.
    pub fn entry_rung(self) -> Rung {
        match self {
            BrownoutLevel::Normal => Rung::Exhaustive,
            BrownoutLevel::ReducedDp => Rung::Dp,
            BrownoutLevel::GreedyOnly => Rung::Greedy,
        }
    }

    /// Tightens `budget` for this level. Caps only ever shrink: an
    /// existing deadline or memo cap below the level's own stays in force.
    pub fn apply(self, budget: Budget) -> Budget {
        let (denom, memo_cap) = match self {
            BrownoutLevel::Normal => return budget,
            BrownoutLevel::ReducedDp => (2, 4096u64),
            BrownoutLevel::GreedyOnly => (4, 1024u64),
        };
        let mut b = budget;
        if let Some(d) = b.deadline {
            b = b.with_deadline(d / denom);
        }
        let cap = b.max_memo_entries.map_or(memo_cap, |m| m.min(memo_cap));
        b.with_max_memo_entries(cap)
    }
}

impl fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the rung table: *when* a rung may run and what its answer
/// is worth. *How* it runs is [`run`]'s business.
struct RungSpec {
    rung: Rung,
    /// `(numer, denom)`: the share of the deadline still remaining when
    /// the rung starts that it may spend. Caps (memo entries, tuples)
    /// apply to each rung whole.
    slice: (u32, u32),
    /// Largest subset the rung attempts.
    max_rels: usize,
    /// The rung searches the requested space exactly: its answer is
    /// τ-optimal in it, and no answer means the space is empty. The rungs
    /// that are not exact offer no plan only when the join graph of the
    /// subset is unconnected.
    exact: bool,
}

/// The degradation ladder, top to bottom.
#[rustfmt::skip]
const LADDER: [RungSpec; 6] = [
    RungSpec { rung: Rung::Exhaustive,    slice: (1, 4), max_rels: EXHAUSTIVE_MAX_RELS, exact: true },
    RungSpec { rung: Rung::Dp,            slice: (1, 2), max_rels: usize::MAX,          exact: true },
    RungSpec { rung: Rung::LinDp,         slice: (1, 2), max_rels: usize::MAX,          exact: false },
    RungSpec { rung: Rung::PartitionedDp, slice: (1, 2), max_rels: usize::MAX,          exact: false },
    RungSpec { rung: Rung::Greedy,        slice: (1, 1), max_rels: usize::MAX,          exact: false },
    RungSpec { rung: Rung::Fallback,      slice: (1, 1), max_rels: usize::MAX,          exact: false },
];

/// What one descent of the ladder is asked; fixed across its rungs.
struct Request<'a> {
    scheme: &'a DbScheme,
    subset: RelSet,
    space: SearchSpace,
}

/// The budget a rung starting now may spend: `slice` of the deadline still
/// remaining, `None` once nothing remains.
fn rung_budget(total: &Budget, started: Instant, slice: (u32, u32)) -> Option<Budget> {
    match total.deadline {
        None => Some(*total),
        Some(d) => {
            let rem = d.checked_sub(started.elapsed())?;
            if rem.is_zero() {
                return None;
            }
            Some(total.with_deadline(rem * slice.0 / slice.1))
        }
    }
}

fn rung_guard(budget: Budget, cancel: Option<&CancelToken>) -> Guard {
    match cancel {
        Some(c) => Guard::with_cancel(budget, c.clone()),
        None => Guard::new(budget),
    }
}

/// Does `strategy` belong to `space`?
fn in_space(s: &Strategy, space: SearchSpace, scheme: &DbScheme) -> bool {
    match space {
        SearchSpace::All => true,
        SearchSpace::Linear => s.is_linear(),
        SearchSpace::NoCartesian => !s.uses_cartesian(scheme),
        SearchSpace::LinearNoCartesian => s.is_linear() && !s.uses_cartesian(scheme),
        SearchSpace::AvoidCartesian => s.avoids_cartesian(scheme),
    }
}

/// The fallback rung's strategy: index-order left-deep — valid by
/// construction, no data access.
fn index_order(subset: RelSet) -> Strategy {
    let order: Vec<usize> = subset.iter().collect();
    Strategy::left_deep(&order)
}

/// What running a rung yields; `Ok(None)` when it has no plan to offer.
type RungResult = Result<Option<Plan>, MjoinError>;

/// Runs one rung over the descent's oracle.
fn run(rung: Rung, oracle: &ExactOracle<'_>, req: &Request<'_>, guard: &Guard) -> RungResult {
    let linear_space = matches!(
        req.space,
        SearchSpace::Linear | SearchSpace::LinearNoCartesian
    );
    match (rung, req.space) {
        (Rung::Exhaustive, _) => {
            failpoints::hit("optimizer::exhaustive")?;
            let best = try_best_strategy(oracle, req.subset, guard, &|s| {
                in_space(s, req.space, req.scheme)
            })?;
            Ok(best.map(|(strategy, cost)| Plan { strategy, cost }))
        }
        (Rung::Dp, _) => try_optimize(oracle, req.subset, req.space, guard),
        (Rung::LinDp, _) => mjoin_optimizer::try_lindp(oracle, req.subset, guard),
        (Rung::PartitionedDp, _) => mjoin_optimizer::try_partitioned_dp(oracle, req.subset, guard),
        // Shaped to the space: linear spaces get the linear heuristic.
        (Rung::Greedy, _) if linear_space => {
            mjoin_optimizer::try_greedy_linear(oracle, req.subset, guard).map(Some)
        }
        (Rung::Greedy, _) => mjoin_optimizer::try_greedy_bushy(oracle, req.subset, guard).map(Some),
        // Costing is best-effort under whatever budget remains; the
        // strategy stands either way.
        (Rung::Fallback, _) => {
            let strategy = index_order(req.subset);
            let cost = strategy.try_cost(oracle).unwrap_or(u64::MAX);
            Ok(Some(Plan { strategy, cost }))
        }
    }
}

/// The ladder: one pass down [`LADDER`] from `entry`, every rung under its
/// own guard over the one memo in `oracle`.
fn descend(
    oracle: &mut ExactOracle<'_>,
    req: &Request<'_>,
    budget: Budget,
    cancel: Option<&CancelToken>,
    entry: Rung,
) -> Result<RobustPlan, MjoinError> {
    let started = Instant::now();
    let mut attempts: Vec<RungAttempt> = Vec::new();
    for spec in &LADDER {
        let rung = spec.rung;
        let slice = rung_budget(&budget, started, spec.slice);
        let skip = if rung < entry {
            Some(format!(
                "skipped: brownout pinned the ladder entry at the {entry} rung"
            ))
        } else if req.subset.len() > spec.max_rels {
            Some(format!(
                "skipped: {} relations exceed the {}-relation enumeration cutoff",
                req.subset.len(),
                spec.max_rels
            ))
        } else if slice.is_none() && rung != Rung::Fallback {
            // The fallback rung is never skipped: out of time, it answers
            // uncosted.
            Some("skipped: deadline already exhausted".into())
        } else {
            None
        };
        if let Some(outcome) = skip {
            attempts.push(RungAttempt {
                rung,
                outcome,
                stats: RungStats::default(),
            });
            continue;
        }
        incr(Counter::LadderRungsAttempted, 1);
        let _rung_span = span(Span::LadderRung);
        let rung_started = Instant::now();
        let (result, stats) = match slice {
            None => {
                let plan = Plan {
                    strategy: index_order(req.subset),
                    cost: u64::MAX,
                };
                (Ok(Some(plan)), RungStats::default())
            }
            Some(b) => {
                let guard = rung_guard(b, cancel);
                oracle.rearm(guard.clone());
                let result = run(rung, oracle, req, &guard);
                let stats = RungStats {
                    elapsed: rung_started.elapsed(),
                    memo_used: guard.memo_used(),
                    tuples_used: guard.tuples_used(),
                };
                (result, stats)
            }
        };
        let outcome = match result {
            Ok(Some(plan)) => {
                let report = DegradationReport {
                    answered_by: rung,
                    attempts,
                    optimal: spec.exact,
                    // The fallback ignores space restrictions, which can
                    // be unsatisfiable (product-free spaces over
                    // unconnected schemes).
                    space_relaxed: !spec.exact
                        && (rung == Rung::Fallback
                            || !in_space(&plan.strategy, req.space, req.scheme)),
                    answered_stats: stats,
                };
                return Ok(RobustPlan { plan, report });
            }
            Ok(None) if spec.exact => {
                format!("search space {:?} is empty for this scheme", req.space)
            }
            Ok(None) => "not applicable: the join graph of the subset is unconnected".into(),
            // Budget trips degrade; everything else propagates.
            Err(e @ MjoinError::BudgetExceeded { .. }) => e.to_string(),
            Err(e) => return Err(e),
        };
        attempts.push(RungAttempt {
            rung,
            outcome,
            stats,
        });
    }
    Err(MjoinError::Internal(
        "the ladder ended without its fallback rung answering".into(),
    ))
}

/// The degradation ladder.
///
/// Always returns a valid strategy covering `subset` (wrapped in a
/// [`RobustPlan`] naming the rung that produced it) unless the input
/// itself is invalid, the caller cancelled, or a fault was injected.
///
/// `threads` is the number of hash-join workers the shared
/// [`ExactOracle`] may use; every rung searches on the calling thread (see
/// the module docs). Each rung is deterministic: it returns bit-identical
/// plans and costs at every thread count.
///
/// `entry` pins the entry rung: every rung above it is recorded as skipped
/// (with a brownout note) and never attempted. [`Rung::Exhaustive`] is the
/// full ladder; the serve-mode brownout hook passes
/// [`BrownoutLevel::entry_rung`].
pub fn optimize_robust(
    db: &Database,
    subset: RelSet,
    space: SearchSpace,
    budget: Budget,
    cancel: Option<&CancelToken>,
    threads: usize,
    entry: Rung,
) -> Result<RobustPlan, MjoinError> {
    failpoints::hit("core::ladder")?;
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot optimize the empty database".into(),
        ));
    }
    let _opt_span = span(Span::Optimize);
    let req = Request {
        scheme: db.scheme(),
        subset,
        space,
    };
    let mut oracle = ExactOracle::new(db).with_join_threads(threads);
    descend(&mut oracle, &req, budget, cancel, entry)
}

/// The full ladder ([`optimize_robust`] entered at the top) over a whole
/// database.
pub fn optimize_database_robust_threaded(
    db: &Database,
    space: SearchSpace,
    budget: Budget,
    cancel: Option<&CancelToken>,
    threads: usize,
) -> Result<RobustPlan, MjoinError> {
    let full = db.scheme().full_set();
    optimize_robust(db, full, space, budget, cancel, threads, Rung::Exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_gen::data;

    fn ladder(
        db: &Database,
        space: SearchSpace,
        budget: Budget,
        cancel: Option<&CancelToken>,
        threads: usize,
        entry: Rung,
    ) -> Result<RobustPlan, MjoinError> {
        optimize_robust(
            db,
            db.scheme().full_set(),
            space,
            budget,
            cancel,
            threads,
            entry,
        )
    }

    #[test]
    fn unlimited_ladder_answers_at_the_top() {
        let db = data::paper_example4();
        let r =
            optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
                .unwrap();
        assert_eq!(r.report.answered_by, Rung::Exhaustive);
        assert!(r.report.optimal);
        assert_eq!(r.plan.cost, 11);
    }

    #[test]
    fn ladder_matches_plain_dp() {
        let db = data::paper_example5();
        let robust = optimize_database_robust_threaded(
            &db,
            SearchSpace::NoCartesian,
            Budget::unlimited(),
            None,
            1,
        )
        .unwrap();
        let plain = crate::optimize_database(&db, SearchSpace::NoCartesian).unwrap();
        assert_eq!(robust.plan.cost, plain.cost);
    }

    /// The one ladder, as a table: at every thread count and from every
    /// entry rung, the attempt list is the rung table above the answering
    /// rung, in order, each entry carrying the exact note of why it did not
    /// answer.
    #[test]
    fn every_entry_and_thread_count_walks_the_rung_table_in_order() {
        let db = data::paper_example5();
        let full = db.scheme().full_set();
        let brownout =
            |entry: Rung| format!("skipped: brownout pinned the ladder entry at the {entry} rung");
        let memo_trip = "budget exceeded: memo entries (limit 1)";
        // The table's prefix above the answering rung.
        let above = |answered: Rung| {
            LADDER
                .iter()
                .map(|s| s.rung)
                .take_while(move |r| *r < answered)
        };
        for entry in LADDER.iter().map(|s| s.rung) {
            // What the descents from this entry reported at one thread.
            let mut sequential: Vec<String> = Vec::new();
            for threads in [1, 2, 4] {
                let case = format!("{threads} threads, entry {entry}");
                let mut reported: Vec<String> = Vec::new();
                let mut record = |r: &RobustPlan| {
                    reported.push(format!(
                        "{} / {:?} / {}",
                        r.report, r.plan.strategy, r.plan.cost
                    ))
                };

                // Unlimited: the entry rung answers; everything above it is
                // a brownout skip, never attempted.
                let r = ladder(
                    &db,
                    SearchSpace::All,
                    Budget::unlimited(),
                    None,
                    threads,
                    entry,
                )
                .unwrap();
                record(&r);
                assert_eq!(r.report.answered_by, entry, "{case}: {}", r.report);
                assert_eq!(r.plan.strategy.set(), full, "{case}");
                assert!(r.plan.strategy.validate(db.scheme()), "{case}");
                assert!(
                    r.report.attempts.iter().map(|a| a.rung).eq(above(entry)),
                    "{case}"
                );
                for a in &r.report.attempts {
                    assert_eq!(a.outcome, brownout(entry), "{case}");
                    assert_eq!(a.stats, RungStats::default(), "{case}");
                }

                // One memo entry: the exponential rungs cannot run on it;
                // the ladder degrades — it does not fail — and some lower
                // rung still answers with a valid covering strategy.
                let one = Budget::unlimited().with_max_memo_entries(1);
                let r = ladder(&db, SearchSpace::All, one, None, threads, entry).unwrap();
                record(&r);
                assert!(r.report.answered_by > Rung::Dp, "{case}: {}", r.report);
                assert!(r.report.answered_by >= entry, "{case}: {}", r.report);
                assert_eq!(r.plan.strategy.set(), full, "{case}");
                assert!(r.plan.strategy.validate(db.scheme()), "{case}");
                assert!(
                    r.report
                        .attempts
                        .iter()
                        .map(|a| a.rung)
                        .eq(above(r.report.answered_by)),
                    "{case}: {}",
                    r.report
                );
                for a in &r.report.attempts {
                    let expected = if a.rung < entry {
                        brownout(entry)
                    } else {
                        memo_trip.to_string()
                    };
                    assert_eq!(a.outcome, expected, "{case}");
                }

                // No time at all: every rung at or below the entry is
                // skipped unattempted and the fallback answers uncosted.
                let none = Budget::unlimited().with_deadline(Duration::ZERO);
                let r = ladder(&db, SearchSpace::All, none, None, threads, entry).unwrap();
                record(&r);
                assert_eq!(r.report.answered_by, Rung::Fallback, "{case}");
                assert_eq!(r.plan.cost, u64::MAX, "{case}");
                assert!(r.report.space_relaxed && !r.report.optimal, "{case}");
                assert!(
                    r.report
                        .attempts
                        .iter()
                        .map(|a| a.rung)
                        .eq(above(Rung::Fallback)),
                    "{case}"
                );
                for a in &r.report.attempts {
                    let expected = if a.rung < entry {
                        brownout(entry)
                    } else {
                        "skipped: deadline already exhausted".to_string()
                    };
                    assert_eq!(a.outcome, expected, "{case}");
                }

                // Cancellation is not a budget trip: it propagates from the
                // first rung that runs. (Only the fallback, whose costing is
                // best-effort, answers regardless.)
                let token = CancelToken::new();
                token.cancel();
                let r = ladder(
                    &db,
                    SearchSpace::All,
                    Budget::unlimited(),
                    Some(&token),
                    threads,
                    entry,
                );
                if entry == Rung::Fallback {
                    assert_eq!(r.unwrap().plan.cost, u64::MAX, "{case}");
                } else {
                    assert_eq!(r.unwrap_err(), MjoinError::Cancelled, "{case}");
                }

                // Every rung searches on one thread over the same oracle,
                // so the whole report — text, plan, cost — is the
                // one-thread report.
                if threads == 1 {
                    sequential = reported;
                } else {
                    assert_eq!(reported, sequential, "{case}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_cutoff_is_on_record() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (catalog, scheme) = mjoin_gen::schemes::chain(EXHAUSTIVE_MAX_RELS + 1);
        let db = data::uniform(catalog, scheme, &data::DataConfig::default(), &mut rng);
        for threads in [1, 2] {
            let r = optimize_database_robust_threaded(
                &db,
                SearchSpace::All,
                Budget::unlimited(),
                None,
                threads,
            )
            .unwrap();
            assert_eq!(r.report.answered_by, Rung::Dp);
            assert_eq!(r.report.attempts.len(), 1);
            assert_eq!(
                r.report.attempts[0].outcome,
                "skipped: 8 relations exceed the 7-relation enumeration cutoff"
            );
        }
    }

    #[test]
    fn ladder_failpoint_propagates() {
        let db = data::paper_example4();
        let _fp = failpoints::ScopedFailpoint::arm("core::ladder");
        let err =
            optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
                .unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
    }

    #[test]
    fn threaded_ladder_matches_sequential_cost() {
        let db = data::paper_example4();
        let seq =
            optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
                .unwrap();
        for threads in [2, 4] {
            let par = optimize_database_robust_threaded(
                &db,
                SearchSpace::All,
                Budget::unlimited(),
                None,
                threads,
            )
            .unwrap();
            assert_eq!(
                par.report.answered_by,
                Rung::Exhaustive,
                "{threads} threads"
            );
            assert_eq!(par.plan.cost, seq.plan.cost, "{threads} threads");
            assert_eq!(
                par.plan.strategy.canonical(),
                seq.plan.strategy.canonical(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn threaded_ladder_is_thread_count_invariant_per_rung() {
        // The product-free space over example 5, answered by the DP rung,
        // agrees with itself at every hash-join thread count.
        let db = data::paper_example5();
        let run = |threads| {
            optimize_database_robust_threaded(
                &db,
                SearchSpace::NoCartesian,
                Budget::unlimited(),
                None,
                threads,
            )
            .unwrap()
        };
        let one = run(1);
        for threads in [2, 4] {
            let r = run(threads);
            assert_eq!(r.plan.cost, one.plan.cost, "{threads} threads");
            assert_eq!(r.plan.strategy, one.plan.strategy, "{threads} threads");
            assert_eq!(r.report.answered_by, one.report.answered_by);
        }
    }

    #[test]
    fn brownout_budget_caps_only_shrink() {
        let tight = Budget::unlimited()
            .with_deadline(Duration::from_millis(100))
            .with_max_memo_entries(16);
        let b = BrownoutLevel::ReducedDp.apply(tight);
        assert_eq!(b.deadline, Some(Duration::from_millis(50)));
        assert_eq!(b.max_memo_entries, Some(16)); // tighter caller cap wins
        let loose = BrownoutLevel::GreedyOnly.apply(Budget::unlimited());
        assert_eq!(loose.deadline, None);
        assert_eq!(loose.max_memo_entries, Some(1024));
    }

    #[test]
    fn brownout_names_round_trip() {
        for level in [
            BrownoutLevel::Normal,
            BrownoutLevel::ReducedDp,
            BrownoutLevel::GreedyOnly,
        ] {
            assert_eq!(BrownoutLevel::parse(level.name()), Some(level));
        }
        assert_eq!(BrownoutLevel::parse("bogus"), None);
    }

    #[test]
    fn report_display_names_the_rung() {
        let db = data::paper_example4();
        let r =
            optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
                .unwrap();
        assert!(r.report.to_string().contains("exhaustive"));
    }
}
