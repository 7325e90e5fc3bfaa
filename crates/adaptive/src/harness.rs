//! Noise-sweep robustness harness: executed-τ regret of static vs
//! adaptive execution under injected estimation error.
//!
//! For each q-error envelope the harness plans **once** under the noisy
//! estimator (the plan a real optimizer would pick from wrong statistics),
//! then executes that same plan twice against the real database — once
//! statically, once adaptively — and reports both executed τ values. The
//! regret `static_tau - adaptive_tau` is what mid-query re-optimization
//! bought back.

use mjoin::try_optimize;
use mjoin_cost::{Database, NoisyOracle, SyntheticOracle};
use mjoin_guard::{Guard, MjoinError};
use mjoin_optimizer::SearchSpace;

use crate::executor::{execute_adaptive, AdaptiveConfig, Estimation};

/// One (scheme, envelope) cell of the sweep.
#[derive(Clone, Debug)]
pub struct RegretRow {
    /// The scheme being swept (e.g. `chain-12`).
    pub label: String,
    /// The q-error envelope the estimator was noised with.
    pub q: f64,
    /// What the noisy estimator believed the plan would cost.
    pub believed_cost: u64,
    /// Executed τ of the plan run to completion as planned.
    pub static_tau: u64,
    /// Executed τ with drift-triggered re-planning.
    pub adaptive_tau: u64,
    /// Re-plans the adaptive run performed.
    pub replans: usize,
}

/// Sweeps `envelopes` over one database. `threshold` is the adaptive
/// executor's re-plan trigger; planning and re-planning use `space`.
///
/// Within each row the adaptive executed τ can never exceed the static one
/// when re-plans answer at an optimal rung (exhaustive/DP): the static
/// plan's own continuation is always a candidate in the derived search
/// space, so the re-planner returns it or something cheaper. The
/// `adaptive_regret` bench asserts exactly that on the smoke corpus.
pub fn regret_sweep(
    label: &str,
    db: &Database,
    space: SearchSpace,
    envelopes: &[f64],
    seed: u64,
    threshold: f64,
    threads: usize,
) -> Result<Vec<RegretRow>, MjoinError> {
    let mut rows = Vec::with_capacity(envelopes.len());
    for &q in envelopes {
        let estimation = Estimation::Noisy { q, seed };
        let planner = NoisyOracle::try_new(SyntheticOracle::from_database(db), q, seed)?;
        let guard = Guard::unlimited();
        let plan =
            try_optimize(&planner, db.scheme().full_set(), space, &guard)?.ok_or_else(|| {
                MjoinError::InvalidScheme(format!("search space {space:?} is empty for {label}"))
            })?;
        let static_config = AdaptiveConfig {
            space,
            threads,
            replan_threshold: f64::INFINITY,
            ..AdaptiveConfig::default()
        };
        let adaptive_config = AdaptiveConfig {
            space,
            threads,
            replan_threshold: threshold,
            ..AdaptiveConfig::default()
        };
        let stat = execute_adaptive(db, &plan.strategy, &estimation, &static_config)?;
        let adap = execute_adaptive(db, &plan.strategy, &estimation, &adaptive_config)?;
        rows.push(RegretRow {
            label: label.to_string(),
            q,
            believed_cost: plan.cost,
            static_tau: stat.trace.executed_tau,
            adaptive_tau: adap.trace.executed_tau,
            replans: adap.trace.replans.len(),
        });
    }
    Ok(rows)
}
