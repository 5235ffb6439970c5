//! Budget-guarded analysis with a graceful engine-degradation ladder.
//!
//! The exact engines scale exponentially; a model with 40 fallible
//! components would happily wedge the process for days.  This module
//! makes every engine *interruptible* and composes them into one ladder
//! that always returns a result:
//!
//! ```text
//! MTBDD ──────────▶ exact scan ──────────▶ importance sampling
//!  (2^A·2^S build,    (2^N scan,             or Monte Carlo
//!   mgmt is           bit-identical to       (batch-means
//!   symbolic)         `enumerate`)           95% CI — never fails)
//! ```
//!
//! An [`AnalysisBudget`] bounds wall-clock time, enumerated states, MTBDD
//! nodes and memo entries, and one [`BudgetGuard`] enforces it over the
//! whole run.  Each rung checks its caps cooperatively (the MTBDD build
//! per application-state cube via the manager's node limit, the Gray-code
//! scan every [`CHECK_INTERVAL`] states); when a rung's budget is
//! exhausted the ladder *descends* instead of erroring, and the returned
//! [`AnalysisReport`] records which engine produced the number, every
//! descent with its typed reason, and the confidence interval when the
//! result is a sampled estimate.
//!
//! Rung semantics:
//!
//! * **MTBDD** — the management plane is symbolic, so the build cost is
//!   `2^A·2^S` (application components × services) rather than `2^N`.
//!   Node allocation is capped, the build loop is deadline-checked, and
//!   the region count must fit `max_states`.  The compiled diagram comes
//!   back in the report, so a caller can cache it and answer later
//!   availability vectors with one linear pass each.
//! * **Exact scan** — the same dispatch as [`Analysis::enumerate`] /
//!   [`Analysis::enumerate_parallel`], so a within-budget run is
//!   bit-identical to the unguarded engine.  It answers when the diagram
//!   did not fit the budget (the node cap, or more regions than
//!   `max_states`) but the `2^N` scan does.
//! * **Sampling** — the bottom rung never fails: at least two sample
//!   batches always run (even with an already-expired deadline), and the
//!   batch means give a Student-t 95% confidence interval on the failure
//!   probability.  Models with a rare-event component get importance
//!   sampling, every other model plain Monte Carlo.

use crate::analysis::{check_enumerable, Analysis};
use crate::distribution::ConfigDistribution;
use crate::montecarlo::MonteCarloOptions;
use crate::mtbdd_engine::CompiledMtbdd;
use crate::sweep::SweepError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// States scanned between two cooperative budget checks in the hot
/// enumeration loops.  Large enough that the check is invisible next to
/// the per-state work, small enough that a deadline overshoot stays in
/// the microsecond range.
pub const CHECK_INTERVAL: u64 = 4096;

/// Sample batches the Monte Carlo rung aims for (the batch means feed
/// the confidence interval; at least two always run).
const MC_BATCHES: u64 = 20;

/// The sampling rung switches from plain Monte Carlo to importance
/// sampling when the model's smallest non-zero component failure
/// probability is below this: below `1e-3`, a naive sampler visits the
/// states where that component is down so rarely that its estimate is
/// effectively unconditioned on them (the FM205 lint flags the same
/// regime).
pub const RARE_EVENT_FAIL_PROB: f64 = 1e-3;

/// Resource bounds for one guarded analysis.
///
/// `Default` is deliberately generous — all five paper models pass the
/// first rung untouched — while still refusing the pathological inputs
/// the ladder exists for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisBudget {
    /// Wall-clock deadline for the exact rungs (`None` = unbounded).
    /// The sampling rung stops *extending* past the deadline but always
    /// completes its minimum two batches.
    pub deadline: Option<Duration>,
    /// Cap on exhaustively enumerated states: the `2^A·2^S` region count
    /// for the MTBDD build, `2^N` for the exact scan.
    pub max_states: u64,
    /// Cap on allocated MTBDD decision nodes during the compile.
    pub max_mtbdd_nodes: usize,
    /// Cap on decision-memo entries in the exact scan's compiled kernel
    /// (checked at [`CHECK_INTERVAL`] granularity).
    pub max_memo_entries: usize,
}

impl AnalysisBudget {
    /// Default state cap (`2^22`): also the threshold the `FM203` lint
    /// warns at, so keep the two in sync by construction.
    pub const DEFAULT_MAX_STATES: u64 = 1 << 22;
    /// Default MTBDD node cap.
    pub const DEFAULT_MAX_MTBDD_NODES: usize = 1 << 20;
    /// Default memo-entry cap.
    pub const DEFAULT_MAX_MEMO_ENTRIES: usize = 1 << 20;
    /// Default wall-clock deadline.
    pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

    /// A budget with every cap lifted (the guarded engines then behave
    /// exactly like their unguarded twins, minus a few branch checks).
    pub fn unlimited() -> AnalysisBudget {
        AnalysisBudget {
            deadline: None,
            max_states: u64::MAX,
            max_mtbdd_nodes: usize::MAX,
            max_memo_entries: usize::MAX,
        }
    }
}

impl Default for AnalysisBudget {
    fn default() -> AnalysisBudget {
        AnalysisBudget {
            deadline: Some(Self::DEFAULT_DEADLINE),
            max_states: Self::DEFAULT_MAX_STATES,
            max_mtbdd_nodes: Self::DEFAULT_MAX_MTBDD_NODES,
            max_memo_entries: Self::DEFAULT_MAX_MEMO_ENTRIES,
        }
    }
}

/// Why an analysis step was refused or abandoned.
///
/// Returned by every `try_*` engine entry point; the guarded ladder
/// records these as [`Descent`] reasons instead of propagating them.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The exact scan is structurally infeasible (the state word and the
    /// memo machinery are built for at most 30 joint bits).
    TooManyComponents {
        /// Fallible component count.
        fallible: usize,
        /// Common-cause group count (0 without dependencies).
        groups: usize,
    },
    /// The enumeration (or MTBDD region) count exceeds the budget.
    StateCapExceeded {
        /// States the engine would have to visit.
        states: u64,
        /// The budget's cap.
        max_states: u64,
    },
    /// The wall-clock deadline expired (or a sibling worker tripped a
    /// budget and cancelled this one).
    DeadlineExpired {
        /// Time elapsed since the guard was created.
        elapsed: Duration,
    },
    /// The MTBDD build hit the decision-node cap.
    NodeCapExceeded {
        /// The budget's cap.
        max_nodes: usize,
    },
    /// The exact scan's decision memo hit its entry cap.
    MemoCapExceeded {
        /// Entries at the time of the check.
        entries: usize,
        /// The budget's cap.
        max_entries: usize,
    },
    /// A sampling estimator was asked for zero samples.
    NoSamples,
    /// An evaluation input's length does not match the compiled
    /// component count.
    DimensionMismatch {
        /// Expected length (the component count).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A sweep specification was rejected.
    Sweep(SweepError),
}

impl From<SweepError> for AnalysisError {
    fn from(e: SweepError) -> AnalysisError {
        AnalysisError::Sweep(e)
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::TooManyComponents { fallible, groups } => {
                if *groups > 0 {
                    write!(
                        f,
                        "{fallible} fallible components + {groups} dependency groups exceed \
                         the 30-bit exact-enumeration limit"
                    )
                } else {
                    write!(
                        f,
                        "{fallible} fallible components exceed the 30-bit exact-enumeration limit"
                    )
                }
            }
            AnalysisError::StateCapExceeded { states, max_states } => {
                write!(f, "{states} states exceed the budget of {max_states}")
            }
            AnalysisError::DeadlineExpired { elapsed } => {
                write!(f, "deadline expired after {:.3}s", elapsed.as_secs_f64())
            }
            AnalysisError::NodeCapExceeded { max_nodes } => {
                write!(f, "MTBDD build exceeded the node budget of {max_nodes}")
            }
            AnalysisError::MemoCapExceeded {
                entries,
                max_entries,
            } => {
                write!(
                    f,
                    "decision memo reached {entries} entries, exceeding the budget of {max_entries}"
                )
            }
            AnalysisError::NoSamples => write!(f, "a sampling estimator needs at least 1 sample"),
            AnalysisError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "availability vector has length {got}, expected the component count {expected}"
                )
            }
            AnalysisError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Live cancellation state of one guarded run, shared across worker
/// threads.  Cheap to poll: a deadline comparison plus one relaxed
/// atomic load.
#[derive(Debug)]
pub struct BudgetGuard {
    budget: AnalysisBudget,
    start: Instant,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    /// The error that caused cancellation (set by the tripping worker so
    /// siblings report the true reason, not a generic cancellation).
    cause: OnceLock<AnalysisError>,
}

impl BudgetGuard {
    /// Starts the clock on a budget.
    pub fn new(budget: &AnalysisBudget) -> BudgetGuard {
        let start = Instant::now();
        BudgetGuard {
            budget: *budget,
            start,
            deadline: budget
                .deadline
                .map(|d| start.checked_add(d).unwrap_or(start)),
            cancelled: AtomicBool::new(false),
            cause: OnceLock::new(),
        }
    }

    /// The budget this guard enforces.
    pub fn budget(&self) -> &AnalysisBudget {
        &self.budget
    }

    /// Time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Cooperative checkpoint: errors when the deadline has passed or a
    /// sibling worker tripped a budget.
    pub fn check(&self) -> Result<(), AnalysisError> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.cause.get().cloned().unwrap_or_else(|| {
                AnalysisError::DeadlineExpired {
                    elapsed: self.elapsed(),
                }
            }));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(AnalysisError::DeadlineExpired {
                    elapsed: self.elapsed(),
                });
            }
        }
        Ok(())
    }

    /// Records `cause` and cancels every worker polling this guard.
    pub fn trip(&self, cause: AnalysisError) {
        let _ = self.cause.set(cause);
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

/// Which engine produced a guarded result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Exact state enumeration (naive or kernel dispatch, bit-identical
    /// to [`Analysis::enumerate`]).
    Exact,
    /// The compile-once multi-terminal BDD engine.
    Mtbdd,
    /// Monte Carlo sampling with batch-means confidence intervals.
    MonteCarlo,
    /// Rare-event importance sampling (failure-biased proposal with
    /// likelihood-ratio reweighting; see [`crate::importance`]).
    Importance,
}

impl EngineKind {
    /// Stable name used in reports and `--json` output.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Exact => "exact-enumeration",
            EngineKind::Mtbdd => "mtbdd",
            EngineKind::MonteCarlo => "monte-carlo",
            EngineKind::Importance => "importance-sampling",
        }
    }

    /// Is the produced distribution exact (as opposed to estimated)?
    pub fn is_exact(self) -> bool {
        !matches!(self, EngineKind::MonteCarlo | EngineKind::Importance)
    }
}

/// One step down the degradation ladder: the engine that was tried and
/// the typed reason it was refused or abandoned.
#[derive(Debug, Clone, PartialEq)]
pub struct Descent {
    /// The rung that failed.
    pub engine: EngineKind,
    /// Why it failed.
    pub reason: AnalysisError,
}

/// Importance-sampling diagnostics attached to an [`EstimateInfo`] when
/// the estimate came from the rare-event engine (see
/// [`crate::importance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsInfo {
    /// Effective sample size `(Σw)² / Σw²`: how many *unweighted*
    /// samples the weighted estimate is worth.  Equals the sample count
    /// when every weight is 1 (plain Monte Carlo) and collapses toward 1
    /// when a few huge weights dominate.
    pub ess: f64,
    /// Coefficient of variation of the likelihood-ratio weights —
    /// `0` for plain Monte Carlo, bounded because the defensive mixture
    /// bounds every weight.
    pub weight_cv: f64,
    /// Mean likelihood-ratio weight.  Its expectation is exactly 1, so a
    /// value far from 1 is a self-consistency red flag (the proposal
    /// missed important mass or the weights are wrong).
    pub mean_weight: f64,
    /// The failure-biasing strength the proposal was built with.
    pub bias: f64,
    /// The defensive-mixture weight of the nominal measure.
    pub mixture: f64,
}

/// Estimator provenance when the ladder bottomed out in a sampling rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateInfo {
    /// Total samples drawn.
    pub samples: u64,
    /// RNG seed (re-running with the same seed reproduces the estimate).
    pub seed: u64,
    /// Sample batches completed (the CI's degrees of freedom + 1).
    pub batches: u64,
    /// Batch-means point estimate of the failure probability.
    pub failed_mean: f64,
    /// Student-t 95% half-width on `failed_mean`.
    pub failed_half_width: f64,
    /// Importance-sampling diagnostics; `None` for plain Monte Carlo.
    pub is: Option<IsInfo>,
}

/// The outcome of a guarded analysis: the distribution, which engine
/// actually produced it, every ladder descent, estimator provenance when
/// the result is sampled rather than exact, and what the MTBDD rung
/// built and spent.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The configuration distribution (exact or estimated per
    /// [`engine`](AnalysisReport::engine)).
    pub distribution: ConfigDistribution,
    /// The rung that produced [`distribution`](AnalysisReport::distribution).
    pub engine: EngineKind,
    /// Rungs that were tried and abandoned, in ladder order.
    pub descents: Vec<Descent>,
    /// Present iff the result is sampled rather than exact
    /// (`engine` is [`EngineKind::MonteCarlo`] or
    /// [`EngineKind::Importance`]).
    pub estimate: Option<EstimateInfo>,
    /// The diagram the MTBDD rung compiled, present iff that rung
    /// answered (`engine` is [`EngineKind::Mtbdd`]); later availability
    /// vectors of the same analysis cost one linear pass over it.
    pub compiled: Option<Arc<CompiledMtbdd>>,
    /// Wall time the MTBDD rung spent compiling, whether the compile
    /// fit the budget or was refused.
    pub compile_time: Duration,
}

/// Options for [`Analysis::analyze_guarded`].
#[derive(Debug, Clone, Copy)]
pub struct GuardedOptions {
    /// Resource bounds.
    pub budget: AnalysisBudget,
    /// Samples for the sampling rung.
    pub samples: u64,
    /// RNG seed for the sampling rung.
    pub seed: u64,
    /// Worker threads for the exact rungs (1 = sequential, matching
    /// [`Analysis::enumerate`] bit for bit).
    pub threads: usize,
    /// Failure-biasing strength if the sampling rung selects importance
    /// sampling (see [`crate::importance::DEFAULT_BIAS`]).
    pub is_bias: f64,
    /// Defensive-mixture weight if the sampling rung selects importance
    /// sampling (see [`crate::importance::DEFAULT_MIXTURE`]).
    pub is_mixture: f64,
}

impl Default for GuardedOptions {
    fn default() -> GuardedOptions {
        GuardedOptions {
            budget: AnalysisBudget::default(),
            samples: 100_000,
            seed: 0xC0FFEE,
            threads: 1,
            is_bias: crate::importance::DEFAULT_BIAS,
            is_mixture: crate::importance::DEFAULT_MIXTURE,
        }
    }
}

impl Analysis<'_> {
    /// Runs the degradation ladder (see the [module docs](crate::budget))
    /// under one [`BudgetGuard`] and always returns a result: the MTBDD
    /// compile, then the exact scan, then importance sampling or Monte
    /// Carlo with batch-means confidence intervals.
    pub fn analyze_guarded(&self, opts: &GuardedOptions) -> AnalysisReport {
        let guard = BudgetGuard::new(&opts.budget);
        let mut descents = Vec::new();

        let compile_start = Instant::now();
        let compiled = self.try_compile_mtbdd_guarded(&guard);
        let compile_time = compile_start.elapsed();
        match compiled {
            Ok(compiled) => {
                return AnalysisReport {
                    distribution: compiled.distribution(),
                    engine: EngineKind::Mtbdd,
                    descents,
                    estimate: None,
                    compiled: Some(Arc::new(compiled)),
                    compile_time,
                }
            }
            Err(reason) => descents.push(Descent {
                engine: EngineKind::Mtbdd,
                reason,
            }),
        }

        match self.try_enumerate_guarded(opts.threads, &guard) {
            Ok(distribution) => {
                return AnalysisReport {
                    distribution,
                    engine: EngineKind::Exact,
                    descents,
                    estimate: None,
                    compiled: None,
                    compile_time,
                }
            }
            Err(reason) => descents.push(Descent {
                engine: EngineKind::Exact,
                reason,
            }),
        }

        // Bottom rung: never fails.  At least two batches run even with
        // an expired deadline so a distribution and a finite-df CI always
        // come back.  The rung itself picks its sampler: a model with a
        // rare-event component (smallest non-zero failure probability
        // below [`RARE_EVENT_FAIL_PROB`]) gets the importance-sampled
        // estimator, everything else plain Monte Carlo — and the choice
        // is engine provenance in the report.
        let samples = opts.samples.max(MC_BATCHES);
        let (estimate, distribution, engine) = if self.has_rare_event_components() {
            let is = self.importance_batched(
                crate::importance::ImportanceOptions {
                    samples,
                    seed: opts.seed,
                    bias: opts.is_bias,
                    mixture: opts.is_mixture,
                },
                MC_BATCHES,
                Some(&guard),
            );
            (is.info, is.distribution, EngineKind::Importance)
        } else {
            let mc = self.monte_carlo_batched(
                MonteCarloOptions {
                    samples,
                    seed: opts.seed,
                },
                MC_BATCHES,
                Some(&guard),
            );
            (mc.info, mc.distribution, EngineKind::MonteCarlo)
        };
        AnalysisReport {
            distribution,
            engine,
            descents,
            estimate: Some(estimate),
            compiled: None,
            compile_time,
        }
    }

    /// Does the model contain a component whose non-zero failure
    /// probability is below [`RARE_EVENT_FAIL_PROB`] — i.e. would naive
    /// Monte Carlo be sample-starved on the states that matter?
    pub fn has_rare_event_components(&self) -> bool {
        self.space.fallible_indices().iter().any(|&ix| {
            let fail = 1.0 - self.space.up_prob(ix);
            fail > 0.0 && fail < RARE_EVENT_FAIL_PROB
        })
    }

    /// The ladder's exact-scan rung: the [`Analysis::enumerate`] /
    /// [`Analysis::enumerate_parallel`] dispatch (`threads > 1` for the
    /// latter) under `guard`'s state cap, deadline and memo cap.  A
    /// success is bit-identical to the unguarded engine.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TooManyComponents`],
    /// [`AnalysisError::StateCapExceeded`],
    /// [`AnalysisError::DeadlineExpired`] or
    /// [`AnalysisError::MemoCapExceeded`].
    pub fn try_enumerate_guarded(
        &self,
        threads: usize,
        guard: &BudgetGuard,
    ) -> Result<ConfigDistribution, AnalysisError> {
        let fallible = self.space.fallible_indices().len();
        check_enumerable(fallible, None)?;
        let states = 1u64 << fallible;
        if states > guard.budget().max_states {
            return Err(AnalysisError::StateCapExceeded {
                states,
                max_states: guard.budget().max_states,
            });
        }
        guard.check()?;
        if threads > 1 {
            // Mirrors `enumerate_parallel`: the kernel whenever it
            // compiles, sequential naive otherwise.
            return match self.compile() {
                Some(kernel) => kernel.try_enumerate_parallel_guarded(threads, guard),
                None => self.try_enumerate_naive_guarded(guard),
            };
        }
        match self.compile() {
            Some(kernel) if self.prefers_compiled() => kernel.try_enumerate_guarded(guard),
            _ => self.try_enumerate_naive_guarded(guard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_mama::{arch, ComponentSpace, KnowTable};

    fn centralized_parts() -> (
        fmperf_ftlqn::examples::DasWoodsideSystem,
        fmperf_mama::MamaModel,
    ) {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        (sys, mama)
    }

    #[test]
    fn paper_models_answer_from_the_mtbdd_or_the_bit_identical_scan() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        // The five shipped paper models; the as-published distributed one
        // is analysed with unmonitored components known, as in the paper.
        let models = [
            ("centralized", arch::centralized(&sys, 0.1), false),
            ("distributed", arch::distributed(&sys, 0.1), false),
            (
                "distributed-as-published",
                arch::distributed_as_published(&sys, 0.1),
                true,
            ),
            ("hierarchical", arch::hierarchical(&sys, 0.1), false),
            ("network", arch::network(&sys, 0.1), false),
        ];
        for (name, mama, unmonitored_known) in &models {
            let space = ComponentSpace::build(&sys.model, mama);
            let table = KnowTable::build(&graph, mama, &space);
            let analysis = Analysis::new(&graph, &space)
                .with_knowledge(&table)
                .with_unmonitored_known(*unmonitored_known);
            let reference = analysis.enumerate();

            // The default budget: the first rung answers and hands back
            // the diagram it compiled.
            let report = analysis.analyze_guarded(&GuardedOptions::default());
            assert_eq!(report.engine, EngineKind::Mtbdd, "{name}");
            assert!(report.descents.is_empty(), "{name}");
            assert!(report.estimate.is_none(), "{name}");
            assert!(
                reference.max_abs_diff(&report.distribution) < 1e-12,
                "{name}"
            );
            let compiled = report.compiled.expect("the answering MTBDD rung");
            assert_eq!(compiled.distribution(), report.distribution, "{name}");
            assert!(report.compile_time > Duration::ZERO, "{name}");

            // A refused compile: the scan answers, bit-identical to the
            // unguarded engine.
            let report = analysis.analyze_guarded(&GuardedOptions {
                budget: AnalysisBudget {
                    max_mtbdd_nodes: 1,
                    ..AnalysisBudget::default()
                },
                ..GuardedOptions::default()
            });
            assert_eq!(report.engine, EngineKind::Exact, "{name}");
            let engines: Vec<EngineKind> = report.descents.iter().map(|d| d.engine).collect();
            assert_eq!(engines, [EngineKind::Mtbdd], "{name}");
            assert!(
                matches!(
                    report.descents[0].reason,
                    AnalysisError::NodeCapExceeded { max_nodes: 1 }
                ),
                "{name}: {:?}",
                report.descents
            );
            assert!(report.compiled.is_none(), "{name}");
            assert!(report.compile_time > Duration::ZERO, "{name}");
            assert_eq!(report.distribution, reference, "{name}");
        }
    }

    #[test]
    fn state_cap_descends_through_mtbdd_to_monte_carlo() {
        let (sys, mama) = centralized_parts();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let opts = GuardedOptions {
            budget: AnalysisBudget {
                max_states: 16,
                ..AnalysisBudget::default()
            },
            samples: 20_000,
            ..GuardedOptions::default()
        };
        let report = analysis.analyze_guarded(&opts);
        assert_eq!(report.engine, EngineKind::MonteCarlo);
        assert_eq!(report.descents.len(), 2);
        for d in &report.descents {
            assert!(
                matches!(d.reason, AnalysisError::StateCapExceeded { .. }),
                "unexpected descent reason {:?}",
                d.reason
            );
        }
        let est = report.estimate.expect("Monte Carlo rung reports a CI");
        assert!(est.batches >= 2);
        assert!(est.failed_half_width.is_finite());
        // The estimate brackets the exact failure probability.
        let exact = analysis.enumerate().failed_probability();
        assert!(
            (est.failed_mean - exact).abs() < 4.0 * est.failed_half_width.max(1e-3),
            "estimate {} vs exact {exact} (hw {})",
            est.failed_mean,
            est.failed_half_width
        );
    }

    #[test]
    fn intermediate_cap_lands_on_mtbdd_exactly() {
        // Cap below 2^14 but above the MTBDD's 2^8·2^2 region count: the
        // (exact) MTBDD rung answers although the scan would not fit.
        let (sys, mama) = centralized_parts();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let opts = GuardedOptions {
            budget: AnalysisBudget {
                max_states: 1 << 12,
                ..AnalysisBudget::default()
            },
            ..GuardedOptions::default()
        };
        let report = analysis.analyze_guarded(&opts);
        assert_eq!(report.engine, EngineKind::Mtbdd);
        assert!(report.descents.is_empty());
        assert!(report.engine.is_exact());
        let exact = analysis.enumerate();
        assert!(exact.max_abs_diff(&report.distribution) < 1e-12);
    }

    #[test]
    fn zero_deadline_still_returns_an_estimate() {
        let (sys, mama) = centralized_parts();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let opts = GuardedOptions {
            budget: AnalysisBudget {
                deadline: Some(Duration::ZERO),
                ..AnalysisBudget::default()
            },
            samples: 5_000,
            ..GuardedOptions::default()
        };
        let report = analysis.analyze_guarded(&opts);
        assert_eq!(report.engine, EngineKind::MonteCarlo);
        assert!(!report.distribution.is_empty());
        let est = report.estimate.unwrap();
        assert!(est.batches >= 2);
        for d in &report.descents {
            assert!(matches!(d.reason, AnalysisError::DeadlineExpired { .. }));
        }
    }

    #[test]
    fn tiny_node_cap_skips_the_mtbdd_rung() {
        let (sys, mama) = centralized_parts();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        // Node cap 1 kills the MTBDD; with an adequate state cap the
        // exact scan catches it, and with a state cap below 2^14 Monte
        // Carlo does.
        let opts = GuardedOptions {
            budget: AnalysisBudget {
                max_mtbdd_nodes: 1,
                ..AnalysisBudget::default()
            },
            ..GuardedOptions::default()
        };
        let report = analysis.analyze_guarded(&opts);
        assert_eq!(report.engine, EngineKind::Exact);

        let opts = GuardedOptions {
            budget: AnalysisBudget {
                max_states: 1 << 12,
                max_mtbdd_nodes: 1,
                ..AnalysisBudget::default()
            },
            samples: 10_000,
            ..GuardedOptions::default()
        };
        let report = analysis.analyze_guarded(&opts);
        assert_eq!(report.engine, EngineKind::MonteCarlo);
        assert!(report
            .descents
            .iter()
            .any(|d| matches!(d.reason, AnalysisError::NodeCapExceeded { .. })));
    }

    #[test]
    fn guard_reports_sibling_cause() {
        let guard = BudgetGuard::new(&AnalysisBudget::unlimited());
        assert!(guard.check().is_ok());
        guard.trip(AnalysisError::MemoCapExceeded {
            entries: 10,
            max_entries: 5,
        });
        assert_eq!(
            guard.check(),
            Err(AnalysisError::MemoCapExceeded {
                entries: 10,
                max_entries: 5,
            })
        );
    }

    #[test]
    fn errors_display_their_budgets() {
        let e = AnalysisError::StateCapExceeded {
            states: 1 << 20,
            max_states: 16,
        };
        assert!(e.to_string().contains("16"));
        assert!(AnalysisError::NodeCapExceeded { max_nodes: 64 }
            .to_string()
            .contains("node budget of 64"));
        assert!(AnalysisError::Sweep(SweepError::BoundOutOfRange)
            .to_string()
            .contains("[0, 1]"));
    }
}
