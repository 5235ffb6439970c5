//! # fmperf-core
//!
//! The performability engines of the DSN 2002 reproduction: everything
//! that combines the application model (`fmperf-ftlqn`), the management
//! architecture (`fmperf-mama`) and the LQN solver (`fmperf-lqn`) into
//! the paper's §5 algorithm — and its extensions.
//!
//! * [`Analysis`] — one configured study: fault graph + component space +
//!   knowledge source + know policy.
//! * [`enumerate`](Analysis::enumerate) — the paper's exact `2^N`
//!   state-space scan (also a multi-threaded variant).
//! * [`compiled`] — the compiled bitmask evaluation kernel behind the
//!   exact engines: packed `u64` state words, Gray-code enumeration and
//!   memoised service decisions (bit-identical to the naive reference
//!   scan, an order of magnitude faster).
//! * [`compile_mtbdd`](Analysis::compile_mtbdd) — the
//!   "non-state-space-based" engine the paper's conclusion calls for:
//!   coverage conditions are compiled over the management components, so
//!   the build costs `2^(application components)` × small diagram work
//!   instead of `2^(all components)`.  The complete state→configuration
//!   map becomes one multi-terminal BDD per common-cause context, after
//!   which *any* availability vector costs a single pass linear in the
//!   diagram ([`sweep`](fn@sweep) drives paper-style availability
//!   curves over it, and [`sensitivity_mtbdd`] reads exact derivatives
//!   off the co-factors).
//! * [`analyze_guarded`](Analysis::analyze_guarded) — the one
//!   budget-guarded ladder ([`budget`]): the MTBDD compile, then the
//!   exact scan, then importance sampling or Monte Carlo, always
//!   returning a result.
//! * [`monte_carlo`](Analysis::monte_carlo) — sampling estimator for
//!   models beyond exact reach.
//! * [`solve_configurations`] / [`expected_reward`] — step 5/6: solve an
//!   LQN per distinct configuration and fold with the probabilities.
//! * [`sensitivity()`](sensitivity::sensitivity) — Birnbaum-style importance of every component for
//!   the expected reward.
//! * [`ccf`] — common-cause failure groups (failure-dependency extension
//!   of the paper's reference \[10\]).
//! * [`delay`] — first-order detection/reconfiguration delay penalty
//!   (extension sketched in the paper's conclusion, reference \[29\]).
//!
//! ```no_run
//! use fmperf_core::{Analysis, RewardSpec};
//! use fmperf_ftlqn::{examples::das_woodside_system, KnowPolicy};
//! use fmperf_mama::{arch, ComponentSpace, KnowTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = das_woodside_system();
//! let graph = sys.fault_graph()?;
//! let mama = arch::centralized(&sys, 0.1);
//! let space = ComponentSpace::build(&sys.model, &mama);
//! let table = KnowTable::build(&graph, &mama, &space);
//!
//! let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
//! let dist = analysis.enumerate();
//! let perf = fmperf_core::solve_configurations(&sys.model, &dist.configurations())?;
//! let reward = RewardSpec::new().weight(sys.user_a, 1.0).weight(sys.user_b, 1.0);
//! println!("R = {}", fmperf_core::expected_reward(&dist, &perf, &reward));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod audit;
pub mod availability;
pub mod budget;
pub mod campaign;
pub mod ccf;
pub mod compiled;
pub mod ctmc;
pub mod delay;
pub mod distribution;
pub mod importance;
pub(crate) mod know_guards;
pub mod montecarlo;
pub mod mtbdd_engine;
pub mod report;
pub mod reward;
pub mod sensitivity;
pub mod sweep;

pub use analysis::{Analysis, Knowledge};
pub use audit::{
    audit, replay_app_cut, replay_mgmt_cut, AuditError, AuditOptions, AuditReport, CutConfirmation,
    MgmtAudit, UncoveredComponent,
};
pub use availability::{RepairModel, RepairModelError};
pub use budget::{
    AnalysisBudget, AnalysisError, AnalysisReport, BudgetGuard, Descent, EngineKind, EstimateInfo,
    GuardedOptions, IsInfo, RARE_EVENT_FAIL_PROB,
};
pub use campaign::{
    run_campaign, run_campaign_observed, CampaignOptions, CampaignReport, ScenarioAnalysis,
    ScenarioOutcome, ScenarioProgress,
};
pub use ccf::FailureDependencies;
pub use compiled::{CompiledKernel, LANE_WIDTH};
pub use ctmc::{Ctmc, CtmcError};
pub use delay::{ComponentDelayCycle, ComponentDelayReport, DelayModel};
pub use distribution::ConfigDistribution;
pub use importance::{ImportanceEstimate, ImportanceOptions};
pub use montecarlo::{MonteCarloEstimate, MonteCarloOptions};
pub use mtbdd_engine::CompiledMtbdd;
pub use report::{ReportRow, StudyReport};
pub use reward::{expected_reward, solve_configurations, ConfigPerformance, RewardSpec};
pub use sensitivity::{sensitivity, sensitivity_mtbdd};
pub use sweep::{
    availability_points, sweep, sweep_guarded, sweep_guarded_observed, SweepError, SweepPoint,
    SweepSpec,
};
