//! The adaptive executor: run a strategy stage by stage, watch estimates
//! against reality, and re-optimize the rest of the query when they drift.
//!
//! # Execution model
//!
//! A [`Strategy`] is compiled to its post-order stage list (children before
//! parents, the same order [`Strategy::execute`] materializes in). Each
//! stage joins two operands — base relations or earlier stage results —
//! under the run's [`Guard`], so deadlines, tuple caps and cancellation
//! apply to execution exactly as they do to planning. After every stage the
//! executor compares the estimator's prediction with the materialized
//! cardinality; when the q-error exceeds the configured threshold and
//! stages remain, it:
//!
//! 1. gathers the **live nodes** — unconsumed intermediates plus untouched
//!    base relations — into a derived database
//!    ([`mjoin::derive_database`]);
//! 2. re-enters the PR-1 degradation ladder
//!    ([`mjoin::optimize_database_robust_threaded`]) over that derived query under
//!    the **remaining** budget, so re-planning is itself deadline-safe,
//!    cancellable, and degrades gracefully;
//! 3. rebuilds the estimator over the derived database (same estimation
//!    mode, same noise seed) and continues with the new plan.
//!
//! A stage result is freed as soon as the stage that reads it has run, so
//! only unconsumed intermediates are held. Already-paid work is never
//! forgotten: freed and discarded intermediates stay in the
//! [`ExecutionTrace`] and count toward `executed_tau` — τ measures tuples
//! *generated*, not tuples kept.
//!
//! # Determinism
//!
//! A join's output is the same set at any thread count, and its tuple
//! order is a pure function of its inputs and the thread count; the noise
//! factor is a pure function of `(seed, subset)`, and the derived-leaf
//! order is canonical,
//! so the whole pipeline is deterministic in `(strategy, estimation,
//! budget, thread count)`. Thread count does not change a re-plan either:
//! the ladder searches on one thread, and its joins build the same τ at
//! every thread count.

use std::collections::HashMap;
use std::time::Instant;

use mjoin::{derive_database, optimize_database_robust_threaded, try_optimize, ExactOracle};
use mjoin_cost::{CardinalityOracle, Database, NoisyOracle, SyntheticOracle};
use mjoin_guard::{failpoints, Budget, CancelToken, Guard, MjoinError};
use mjoin_hypergraph::RelSet;
use mjoin_obs::{incr, span, Counter, Span};
use mjoin_optimizer::{Plan, SearchSpace};
use mjoin_relation::Relation;
use mjoin_strategy::Strategy;

use crate::trace::{q_error, ExecutionTrace, ReplanEvent, StageRecord};

/// How the executor (and the planner in [`plan_and_execute`]) estimates
/// intermediate cardinalities.
#[derive(Clone, Debug, PartialEq)]
pub enum Estimation {
    /// Estimates equal actuals: q-error is identically 1 and the drift
    /// detector never fires. The parity baseline.
    Perfect,
    /// The System-R style closed-form model built from catalog statistics
    /// ([`SyntheticOracle::from_database`]). Drift here is genuine model
    /// error.
    Synthetic,
    /// The synthetic model wrapped in seeded multiplicative noise within a
    /// q-error envelope ([`NoisyOracle`]) — injectable estimation error.
    Noisy {
        /// The q-error envelope (≥ 1; 1 disables the noise).
        q: f64,
        /// The noise seed.
        seed: u64,
    },
}

/// Knobs for one adaptive execution. `Default` is the *static* executor:
/// unlimited budget, one thread, and an unreachable re-plan threshold.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Search space for re-planning (and for [`plan_and_execute`]'s
    /// initial plan).
    pub space: SearchSpace,
    /// Budget covering execution and every re-plan; re-plans run under
    /// whatever deadline/tuple allowance is left when they fire.
    pub budget: Budget,
    /// Worker threads for join kernels and the re-plan ladder.
    pub threads: usize,
    /// Cooperative cancellation for the whole run.
    pub cancel: Option<CancelToken>,
    /// Re-plan when a stage's q-error strictly exceeds this. `INFINITY`
    /// never re-plans; must be ≥ 1 (a q-error is never below 1).
    pub replan_threshold: f64,
    /// Hard cap on re-plans, bounding worst-case planning work.
    pub max_replans: usize,
}

/// The default re-plan threshold the CLI's `--adaptive` flag uses.
pub const DEFAULT_REPLAN_THRESHOLD: f64 = 2.0;

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            space: SearchSpace::All,
            budget: Budget::unlimited(),
            threads: 1,
            cancel: None,
            replan_threshold: f64::INFINITY,
            max_replans: 8,
        }
    }
}

/// A finished execution: the query result plus the full trace.
#[derive(Clone, Debug)]
pub struct ExecutionOutcome {
    /// The final joined relation.
    pub result: Relation,
    /// Per-stage records, re-plans, and the executed τ.
    pub trace: ExecutionTrace,
}

/// The estimator instance backing one plan's drift detection. Rebuilt from
/// the derived database after every re-plan so estimates (and their noise)
/// track the current leaf set.
enum Estimator {
    Perfect,
    Model(SyntheticOracle),
    Noisy(NoisyOracle<SyntheticOracle>),
}

impl Estimator {
    fn build(estimation: &Estimation, db: &Database) -> Result<Estimator, MjoinError> {
        Ok(match estimation {
            Estimation::Perfect => Estimator::Perfect,
            Estimation::Synthetic => Estimator::Model(SyntheticOracle::from_database(db)),
            Estimation::Noisy { q, seed } => Estimator::Noisy(NoisyOracle::try_new(
                SyntheticOracle::from_database(db),
                *q,
                *seed,
            )?),
        })
    }

    fn estimate(&self, subset: RelSet, actual: u64) -> u64 {
        match self {
            Estimator::Perfect => actual,
            Estimator::Model(m) => m.tau(subset),
            Estimator::Noisy(n) => n.tau(subset),
        }
    }
}

/// An operand of a stage: a leaf of the current plan or an earlier stage's
/// result.
#[derive(Clone, Copy, Debug)]
enum OpRef {
    Leaf(usize),
    Stage(usize),
}

/// One join of the compiled plan, in post-order.
struct StagePlan {
    /// The stage's subset in the *current* (possibly derived) leaf space.
    set: RelSet,
    left: OpRef,
    right: OpRef,
}

/// Compiles a strategy into its post-order stage list. Works through the
/// public `steps()` surface: node sets within a valid strategy are unique
/// (any two nodes are nested or disjoint), so the pre-order steps can be
/// re-linked by set.
fn compile(strategy: &Strategy) -> Result<Vec<StagePlan>, MjoinError> {
    let steps = strategy.steps();
    let by_set: HashMap<RelSet, (RelSet, RelSet)> =
        steps.iter().map(|s| (s.set, (s.left, s.right))).collect();
    let mut stages = Vec::with_capacity(steps.len());
    fn go(
        set: RelSet,
        by_set: &HashMap<RelSet, (RelSet, RelSet)>,
        stages: &mut Vec<StagePlan>,
    ) -> Result<OpRef, MjoinError> {
        if set.is_singleton() {
            return Ok(OpRef::Leaf(set.first().expect("singleton")));
        }
        let &(left, right) = by_set
            .get(&set)
            .ok_or_else(|| MjoinError::Internal(format!("strategy has no node for {set:?}")))?;
        let l = go(left, by_set, stages)?;
        let r = go(right, by_set, stages)?;
        stages.push(StagePlan {
            set,
            left: l,
            right: r,
        });
        Ok(OpRef::Stage(stages.len() - 1))
    }
    go(strategy.set(), &by_set, &mut stages)?;
    Ok(stages)
}

/// The executor's view of the current leaf space: the original database
/// before any re-plan, a derived one after.
enum View<'a> {
    Original(&'a Database),
    Derived(mjoin::DerivedDatabase),
}

impl View<'_> {
    fn db(&self) -> &Database {
        match self {
            View::Original(db) => db,
            View::Derived(d) => &d.db,
        }
    }

    fn leaf(&self, i: usize) -> &Relation {
        self.db().state(i)
    }

    fn leaf_original_set(&self, i: usize) -> RelSet {
        match self {
            View::Original(_) => RelSet::singleton(i),
            View::Derived(d) => d.leaf_set(i),
        }
    }

    fn original_set(&self, derived: RelSet) -> RelSet {
        match self {
            View::Original(_) => derived,
            View::Derived(d) => d.original_set(derived),
        }
    }

    fn leaf_is_materialized(&self, i: usize) -> bool {
        match self {
            View::Original(_) => false,
            View::Derived(d) => matches!(d.leaves()[i], mjoin::DerivedLeaf::Materialized(_)),
        }
    }
}

fn operand_rel<'x>(view: &'x View<'_>, results: &'x [Option<Relation>], op: OpRef) -> &'x Relation {
    match op {
        OpRef::Leaf(i) => view.leaf(i),
        OpRef::Stage(j) => results[j].as_ref().expect("post-order: operand before use"),
    }
}

/// The budget left for a re-plan: the original deadline less elapsed time,
/// the original tuple cap less tuples already materialized. (The memo cap
/// is per-planning-attempt — execution holds no memo.)
fn remaining_budget(total: &Budget, started: Instant, guard: &Guard) -> Budget {
    let mut b = *total;
    if let Some(d) = total.deadline {
        b.deadline = Some(d.saturating_sub(started.elapsed()));
    }
    if let Some(t) = total.max_tuples {
        b.max_tuples = Some(t.saturating_sub(guard.tuples_used()));
    }
    b
}

/// Executes `strategy` against `db` stage by stage, re-optimizing the
/// remaining joins whenever estimated-vs-actual drift crosses the
/// configured threshold. See the module docs for the full model.
///
/// With `replan_threshold == INFINITY` (the default) this *is* the static
/// executor: the final relation is exactly `strategy.execute(db)`, with
/// the trace recorded alongside.
pub fn execute_adaptive(
    db: &Database,
    strategy: &Strategy,
    estimation: &Estimation,
    config: &AdaptiveConfig,
) -> Result<ExecutionOutcome, MjoinError> {
    if strategy.set() != db.scheme().full_set() {
        return Err(MjoinError::InvalidScheme(
            "the strategy must mention every relation exactly once".into(),
        ));
    }
    if config.replan_threshold.is_nan() || config.replan_threshold < 1.0 {
        return Err(MjoinError::InvalidScheme(format!(
            "re-plan threshold must be ≥ 1 (q-errors are), got {}",
            config.replan_threshold
        )));
    }
    let started = Instant::now();
    let _exec_span = span(Span::Execute);
    let guard = match &config.cancel {
        Some(c) => Guard::with_cancel(config.budget, c.clone()),
        None => Guard::new(config.budget),
    };
    let threads = config.threads.max(1);

    let mut view = View::Original(db);
    let mut estimator = Estimator::build(estimation, db)?;
    let mut stages = compile(strategy)?;
    let mut trace = ExecutionTrace::default();

    'plans: loop {
        let nleaves = view.db().len();
        if stages.is_empty() {
            // Single-relation query: nothing to join.
            let result = view.leaf(0).clone();
            return Ok(ExecutionOutcome { result, trace });
        }
        let mut results: Vec<Option<Relation>> = (0..stages.len()).map(|_| None).collect();
        let mut leaf_used = vec![false; nleaves];
        for si in 0..stages.len() {
            guard.check_deadline_now()?;
            failpoints::hit("adaptive::materialize")?;
            let joined = {
                let _stage_span = span(Span::AdaptiveStage);
                let left = operand_rel(&view, &results, stages[si].left);
                let right = operand_rel(&view, &results, stages[si].right);
                left.natural_join_partitioned(right, threads, &guard)?
            };
            // A consumed stage result is dropped now, not when the query
            // ends: each is read exactly once, and a re-plan gathers only
            // the unconsumed ones.
            for op in [stages[si].left, stages[si].right] {
                match op {
                    OpRef::Leaf(i) => leaf_used[i] = true,
                    OpRef::Stage(j) => results[j] = None,
                }
            }
            let actual = joined.tau();
            let derived_set = stages[si].set;
            let orig_set = view.original_set(derived_set);
            let estimated = estimator.estimate(derived_set, actual);
            let q = q_error(estimated, actual);
            trace.executed_tau = trace.executed_tau.saturating_add(actual);
            incr(Counter::AdaptiveStagesExecuted, 1);
            trace.stages.push(StageRecord {
                set: orig_set,
                estimated,
                actual,
                q_error: q,
            });
            results[si] = Some(joined);
            failpoints::hit("adaptive::stage")?;

            let last = si + 1 == stages.len();
            if !last && q > config.replan_threshold && trace.replans.len() < config.max_replans {
                failpoints::hit("adaptive::replan")?;
                let _replan_span = span(Span::AdaptiveReplan);
                incr(Counter::AdaptiveReplans, 1);
                // Live nodes: unconsumed stage results (incl. the one just
                // produced; consumed ones were dropped) and unconsumed
                // materialized leaves. Untouched base relations come from
                // the original database.
                let mut mats: Vec<(RelSet, Relation)> = Vec::new();
                for sj in 0..=si {
                    if let Some(r) = results[sj].take() {
                        mats.push((view.original_set(stages[sj].set), r));
                    }
                }
                for (li, used) in leaf_used.iter().enumerate() {
                    if !used && view.leaf_is_materialized(li) {
                        mats.push((view.leaf_original_set(li), view.leaf(li).clone()));
                    }
                }
                let derived = derive_database(db, mats)?;
                let rem = remaining_budget(&config.budget, started, &guard);
                let robust = optimize_database_robust_threaded(
                    &derived.db,
                    config.space,
                    rem,
                    config.cancel.as_ref(),
                    threads,
                )?;
                trace.replans.push(ReplanEvent {
                    after_stage: trace.stages.len(),
                    trigger: orig_set,
                    estimated,
                    actual,
                    q_error: q,
                    threshold: config.replan_threshold,
                    live: derived.leaves().iter().map(|l| l.original_set()).collect(),
                    rung: robust.report.answered_by,
                    report: robust.report.to_string(),
                    new_plan: robust
                        .plan
                        .strategy
                        .render(derived.db.catalog(), derived.db.scheme()),
                    planned_cost: robust.plan.cost,
                });
                estimator = Estimator::build(estimation, &derived.db)?;
                stages = compile(&robust.plan.strategy)?;
                view = View::Derived(derived);
                continue 'plans;
            }
        }
        let result = results
            .pop()
            .flatten()
            .ok_or_else(|| MjoinError::Internal("final stage produced no result".into()))?;
        return Ok(ExecutionOutcome { result, trace });
    }
}

/// Plans against the configured estimator, then executes adaptively: the
/// one-call facade behind the CLI's `execute` command.
///
/// The returned [`Plan`]'s cost is the *estimator's belief* about the
/// initial strategy — compare it with the trace's `executed_tau` to see
/// what the estimation error cost. Under [`Estimation::Perfect`] the plan
/// comes from the exact oracle.
pub fn plan_and_execute(
    db: &Database,
    estimation: &Estimation,
    config: &AdaptiveConfig,
) -> Result<(Plan, ExecutionOutcome), MjoinError> {
    let started = Instant::now();
    let guard = match &config.cancel {
        Some(c) => Guard::with_cancel(config.budget, c.clone()),
        None => Guard::new(config.budget),
    };
    let full = db.scheme().full_set();
    let plan = match estimation {
        Estimation::Perfect => {
            let oracle = ExactOracle::with_guard(db, guard.clone());
            try_optimize(&oracle, full, config.space, &guard)?
        }
        Estimation::Synthetic => {
            let oracle = SyntheticOracle::from_database(db);
            try_optimize(&oracle, full, config.space, &guard)?
        }
        Estimation::Noisy { q, seed } => {
            let oracle = NoisyOracle::try_new(SyntheticOracle::from_database(db), *q, *seed)?;
            try_optimize(&oracle, full, config.space, &guard)?
        }
    }
    .ok_or_else(|| {
        MjoinError::InvalidScheme(format!(
            "search space {:?} is empty for this (unconnected) scheme",
            config.space
        ))
    })?;
    // Execution continues under whatever deadline planning left.
    let mut exec_config = config.clone();
    exec_config.budget = remaining_budget(&config.budget, started, &guard);
    let outcome = execute_adaptive(db, &plan.strategy, estimation, &exec_config)?;
    Ok((plan, outcome))
}
