//! Availability sweeps over the compiled MTBDD.
//!
//! The paper's effectiveness study (§6, Figure 11) varies management
//! availability and re-derives the configuration probabilities at every
//! point.  With [`Analysis::compile_mtbdd`](crate::Analysis::compile_mtbdd) that workload becomes
//! `compile + points × linear-pass` instead of `points × enumerate`: the
//! state→configuration map is compiled once and each sweep point is one
//! pass over the frozen diagram.

use crate::budget::{AnalysisError, BudgetGuard};
use crate::mtbdd_engine::CompiledMtbdd;
use fmperf_obs::{Counter, Phase, Recorder, Span};

/// One availability sweep: vary `component`'s availability from `from`
/// to `to` over `steps` evenly spaced points.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec {
    /// Global component index (into the analysis' component space).
    pub component: usize,
    /// First availability value (inclusive).
    pub from: f64,
    /// Last availability value (inclusive).
    pub to: f64,
    /// Number of sweep points (1 evaluates only `from`).
    pub steps: usize,
    /// Worker threads for the batched evaluation.
    pub threads: usize,
}

/// The distribution at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept component's availability at this point.
    pub availability: f64,
    /// Per-configuration probabilities, aligned with
    /// [`CompiledMtbdd::configurations`].
    pub probabilities: Vec<f64>,
}

/// A sweep rejected before evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The component index is outside the component space.
    ComponentOutOfRange(usize),
    /// An availability bound lies outside `[0, 1]`.
    BoundOutOfRange,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::ComponentOutOfRange(ix) => {
                write!(f, "component index {ix} is outside the component space")
            }
            SweepError::BoundOutOfRange => {
                write!(f, "sweep bounds must lie in [0, 1]")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// The `steps` evenly spaced availability values from `from` to `to`
/// (both inclusive; a single step yields just `from`).
pub fn availability_points(from: f64, to: f64, steps: usize) -> Vec<f64> {
    match steps {
        0 => Vec::new(),
        1 => vec![from],
        _ => (0..steps)
            .map(|i| from + (to - from) * i as f64 / (steps - 1) as f64)
            .collect(),
    }
}

/// Runs the sweep: one batched linear-pass evaluation per point, all
/// other availabilities held at the compiled baseline.
///
/// # Errors
///
/// Rejects out-of-range component indices and bounds outside `[0, 1]`.
pub fn sweep(compiled: &CompiledMtbdd, spec: &SweepSpec) -> Result<Vec<SweepPoint>, SweepError> {
    if spec.component >= compiled.baseline_up().len() {
        return Err(SweepError::ComponentOutOfRange(spec.component));
    }
    if !(0.0..=1.0).contains(&spec.from) || !(0.0..=1.0).contains(&spec.to) {
        return Err(SweepError::BoundOutOfRange);
    }
    let points = availability_points(spec.from, spec.to, spec.steps);
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|&a| {
            let mut up = compiled.baseline_up().to_vec();
            up[spec.component] = a;
            up
        })
        .collect();
    let probabilities = compiled.batch_probabilities(&rows, spec.threads.max(1));
    Ok(points
        .into_iter()
        .zip(probabilities)
        .map(|(availability, probabilities)| SweepPoint {
            availability,
            probabilities,
        })
        .collect())
}

/// Sweep points evaluated per deadline check — small enough that an
/// expired deadline is noticed within a few linear passes.
const SWEEP_CHUNK: usize = 16;

/// Budget-guarded [`sweep`]: evaluates the points in chunks of
/// [`SWEEP_CHUNK`], polling the guard's deadline between chunks.  A
/// within-budget run returns exactly what [`sweep`] returns.
///
/// # Errors
///
/// [`AnalysisError::Sweep`] for a rejected spec,
/// [`AnalysisError::DeadlineExpired`] when the guard trips mid-sweep.
pub fn sweep_guarded(
    compiled: &CompiledMtbdd,
    spec: &SweepSpec,
    guard: &BudgetGuard,
) -> Result<Vec<SweepPoint>, AnalysisError> {
    sweep_guarded_observed(compiled, spec, guard, None)
}

/// [`sweep_guarded`] with an optional [`Recorder`]: the evaluation is
/// wrapped in an [`mtbdd-eval`](Phase::MtbddEval) span and each
/// between-chunk deadline poll is counted.
///
/// # Errors
///
/// Exactly those of [`sweep_guarded`].
pub fn sweep_guarded_observed(
    compiled: &CompiledMtbdd,
    spec: &SweepSpec,
    guard: &BudgetGuard,
    recorder: Option<&dyn Recorder>,
) -> Result<Vec<SweepPoint>, AnalysisError> {
    let _span = Span::enter(recorder, Phase::MtbddEval);
    if spec.component >= compiled.baseline_up().len() {
        return Err(SweepError::ComponentOutOfRange(spec.component).into());
    }
    if !(0.0..=1.0).contains(&spec.from) || !(0.0..=1.0).contains(&spec.to) {
        return Err(SweepError::BoundOutOfRange.into());
    }
    let points = availability_points(spec.from, spec.to, spec.steps);
    let mut out = Vec::with_capacity(points.len());
    for chunk in points.chunks(SWEEP_CHUNK) {
        fmperf_obs::add(recorder, Counter::BudgetPolls, 1);
        guard.check()?;
        let rows: Vec<Vec<f64>> = chunk
            .iter()
            .map(|&a| {
                let mut up = compiled.baseline_up().to_vec();
                up[spec.component] = a;
                up
            })
            .collect();
        let probabilities = compiled.try_batch_probabilities(&rows, spec.threads.max(1))?;
        out.extend(
            chunk
                .iter()
                .zip(probabilities)
                .map(|(&availability, probabilities)| SweepPoint {
                    availability,
                    probabilities,
                }),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_mama::{arch, ComponentSpace, KnowTable};

    #[test]
    fn availability_points_are_inclusive_and_even() {
        assert!(availability_points(0.2, 0.8, 0).is_empty());
        assert_eq!(availability_points(0.2, 0.8, 1), vec![0.2]);
        let pts = availability_points(0.0, 1.0, 5);
        assert_eq!(pts, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn sweep_endpoint_matches_direct_evaluation() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let compiled = analysis.compile_mtbdd();
        let target = compiled.fallible_indices()[0];
        let spec = SweepSpec {
            component: target,
            from: 0.5,
            to: 1.0,
            steps: 3,
            threads: 2,
        };
        let pts = sweep(&compiled, &spec).unwrap();
        assert_eq!(pts.len(), 3);
        for pt in &pts {
            let mut up = compiled.baseline_up().to_vec();
            up[target] = pt.availability;
            let direct = compiled.probabilities_for(&up);
            for (a, b) in pt.probabilities.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-15);
            }
            let total: f64 = pt.probabilities.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_rejects_bad_specs() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        let compiled = analysis.compile_mtbdd();
        let bad_ix = SweepSpec {
            component: 10_000,
            from: 0.0,
            to: 1.0,
            steps: 2,
            threads: 1,
        };
        assert_eq!(
            sweep(&compiled, &bad_ix),
            Err(SweepError::ComponentOutOfRange(10_000))
        );
        let bad_bound = SweepSpec {
            component: 0,
            from: -0.5,
            to: 1.0,
            steps: 2,
            threads: 1,
        };
        assert_eq!(
            sweep(&compiled, &bad_bound),
            Err(SweepError::BoundOutOfRange)
        );
    }
}
