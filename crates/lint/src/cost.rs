//! Cost, reward and feasibility lint passes: FM201–FM212.

use crate::{Diagnostic, LintCode, LintConfig, Severity};
use fmperf_ftlqn::FaultGraph;
use fmperf_mama::{ComponentSpace, KnowTable};
use fmperf_text::ParsedModel;

/// Fallible-component count from which the compile-once MTBDD engine is
/// suggested for repeated (sweep / what-if / sensitivity) evaluation.
const MTBDD_SUGGEST_BITS: usize = 12;

pub(crate) fn run(m: &ParsedModel, valid: bool, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    if valid {
        state_space(m, config, out);
        engine_suggestion(m, out);
        budget_degradation(m, config, out);
        guard_compilation_cost(m, config, out);
        sample_starvation(m, config, out);
    }
    reward_weights(m, out);
    saturated_users(m, out);
    no_rewards(m, out);
}

/// FM201: exact state-space size estimate.
///
/// Warns from [`LintConfig::blowup_states`] global states on (default
/// `2^20`); below that the estimate is a note.
fn state_space(m: &ParsedModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let space = ComponentSpace::build(&m.app, &m.mama);
    let n = space.fallible_indices().len();
    let states = if n < usize::BITS as usize {
        format!("{}", 1usize << n)
    } else {
        format!("2^{n}")
    };
    let blown = n >= u64::BITS as usize || (1u64 << n) >= config.blowup_states;
    let (severity, help) = if blown {
        (
            Severity::Warning,
            "exhaustive enumeration over this many states is infeasible; \
             use the BDD engine or Monte Carlo sampling",
        )
    } else {
        (
            Severity::Note,
            "exhaustive enumeration over all global states is feasible",
        )
    };
    out.push(
        Diagnostic::new(
            LintCode::StateSpace,
            severity,
            None,
            format!("model has {n} fallible components: {states} global states"),
        )
        .with_help(help),
    );
}

/// FM202: MTBDD-engine suitability estimate.
///
/// Every exact enumeration pays its `2^N` scan again for each
/// availability vector; from [`MTBDD_SUGGEST_BITS`] fallible components
/// on, re-solving (sweeps, sensitivity studies, what-if analyses) is
/// better served by compiling the state→configuration map once.  The
/// note also reports the service-guard width — how many `(component,
/// deciding task)` know pairs the guards span — as a rough proxy for
/// diagram size.
fn engine_suggestion(m: &ParsedModel, out: &mut Vec<Diagnostic>) {
    let space = ComponentSpace::build(&m.app, &m.mama);
    let n = space.fallible_indices().len();
    if n < MTBDD_SUGGEST_BITS {
        return;
    }
    let Ok(graph) = FaultGraph::build(&m.app) else {
        return;
    };
    let pairs = KnowTable::build(&graph, &m.mama, &space).len();
    out.push(
        Diagnostic::new(
            LintCode::EngineSuggestion,
            Severity::Note,
            None,
            format!(
                "model has {n} fallible components: every exact enumeration \
                 re-visits 2^{n} states per availability vector (know guards \
                 span {pairs} (component, task) pairs)"
            ),
        )
        .with_help(
            "for sweeps and repeated what-if evaluation, compile once with the \
             MTBDD engine (`fmperf sweep`, `Analysis::compile_mtbdd`): each \
             further availability vector then costs one pass linear in the \
             diagram",
        ),
    );
}

/// FM203: the exact state space exceeds the analysis budget.
///
/// The default threshold is
/// [`fmperf_core::AnalysisBudget::DEFAULT_MAX_STATES`] itself, so the
/// lint and the guarded engine can never disagree about when
/// degradation kicks in.
fn budget_degradation(m: &ParsedModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let space = ComponentSpace::build(&m.app, &m.mama);
    let n = space.fallible_indices().len();
    if n < u64::BITS as usize && (1u64 << n) <= config.budget_states {
        return;
    }
    let states = if n < u64::BITS as usize {
        format!("{}", 1u64 << n)
    } else {
        format!("2^{n}")
    };
    out.push(
        Diagnostic::new(
            LintCode::BudgetDegradation,
            Severity::Warning,
            None,
            format!(
                "estimated {states} global states exceed the analysis budget \
                 of {} states",
                config.budget_states
            ),
        )
        .with_help(
            "a budget-guarded run (`fmperf analyze --engine guarded`, `fmperf campaign`) \
             has no exact scan to fall back on: it stays exact only while the MTBDD \
             compile fits the budget, and otherwise degrades to sampling with a \
             batch-means 95% confidence interval; raise --budget-states to let the scan \
             answer, or use `--engine importance` directly when component failures are \
             rare (see FM205)",
        ),
    );
}

/// FM204: the know table spans enough augmented minpaths that guard
/// compilation is likely to dominate the run.
///
/// The MTBDD engine and the structural audit build each
/// `know(component, task)` guard as the OR over that pair's augmented
/// minpaths of the AND of the path's component variables, so total
/// guard-build work scales with the sum of minpath counts across the
/// know table — independently of the state-space size the other FM20x
/// passes speak about.
fn guard_compilation_cost(m: &ParsedModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let Ok(graph) = FaultGraph::build(&m.app) else {
        return;
    };
    let space = ComponentSpace::build(&m.app, &m.mama);
    let table = KnowTable::build(&graph, &m.mama, &space);
    let minpaths: usize = table.iter().map(|(_, f)| f.paths.len()).sum();
    if minpaths <= config.guard_minpaths {
        return;
    }
    let pairs = table.len();
    out.push(
        Diagnostic::new(
            LintCode::GuardCompilationCost,
            Severity::Warning,
            None,
            format!(
                "know guards span {minpaths} augmented minpaths across {pairs} \
                 (component, task) pairs — guard compilation is likely the \
                 dominant phase of every analysis run"
            ),
        )
        .with_help(
            "run `fmperf profile <model.fmp>` to measure the know-compile and \
             guard-build share per engine; if it dominates, simplify the \
             management architecture (fewer redundant watch/notify routes per \
             component) or prefer the compile-once MTBDD engine so the cost is \
             paid a single time",
        ),
    );
}

/// FM205: sample-starved model — the rarest fallible component fails so
/// seldom that plain Monte Carlo almost never visits the failure states
/// that determine coverage.
///
/// The metric is the expected number of times the *rarest* component is
/// observed down per million samples; below
/// [`LintConfig::starved_events`] (default 100, i.e. failure probability
/// under `1e-4`) the estimator's output is dominated by zero-event noise
/// and the importance-sampling engine is the right tool.
fn sample_starvation(m: &ParsedModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let space = ComponentSpace::build(&m.app, &m.mama);
    let p_min = space
        .fallible_indices()
        .iter()
        .map(|&ix| 1.0 - space.up_prob(ix))
        .filter(|&p| p > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !p_min.is_finite() {
        return; // nothing fallible at all
    }
    let expected = 1e6 * p_min;
    if expected >= config.starved_events as f64 {
        return;
    }
    out.push(
        Diagnostic::new(
            LintCode::SampleStarved,
            Severity::Warning,
            None,
            format!(
                "rarest component fails with probability {p_min:.2e}: plain Monte Carlo \
                 would observe it down about {expected:.1} times per million samples"
            ),
        )
        .with_help(
            "use `fmperf analyze --engine importance` (failure-biased sampling with \
             exact likelihood-ratio weights) — the guarded ladder's sampling rung \
             auto-selects it for rare-event models; check the reported ESS and \
             mean weight before trusting the estimate",
        ),
    );
}

/// FM210: reward weights that cannot contribute.
fn reward_weights(m: &ParsedModel, out: &mut Vec<Diagnostic>) {
    for (ix, &(task, weight)) in m.rewards.iter().enumerate() {
        if weight <= 0.0 {
            out.push(
                Diagnostic::new(
                    LintCode::BadRewardWeight,
                    Severity::Warning,
                    m.spans.reward_line(ix),
                    format!(
                        "reward for user group `{}` has non-positive weight {weight}",
                        m.app.task_name(task)
                    ),
                )
                .with_help("the group contributes nothing to the reward rate"),
            );
        }
    }
}

/// FM211: rewards naming saturated (zero-think) user groups.
fn saturated_users(m: &ParsedModel, out: &mut Vec<Diagnostic>) {
    for (ix, &(task, _)) in m.rewards.iter().enumerate() {
        let Some((_, think)) = m.app.reference_params(task) else {
            continue;
        };
        if think == 0.0 {
            out.push(
                Diagnostic::new(
                    LintCode::SaturatedUsers,
                    Severity::Warning,
                    m.spans.reward_line(ix),
                    format!(
                        "reward names user group `{}` with zero think time",
                        m.app.task_name(task)
                    ),
                )
                .with_help(
                    "zero-think users are saturated: their throughput is bounded by \
                     server capacity alone, which the paper's examples use deliberately \
                     — check it is intended here",
                ),
            );
        }
    }
}

/// FM212: no reward statements at all.
fn no_rewards(m: &ParsedModel, out: &mut Vec<Diagnostic>) {
    if m.rewards.is_empty() {
        out.push(
            Diagnostic::new(
                LintCode::NoReward,
                Severity::Note,
                None,
                "model declares no reward weights",
            )
            .with_help(
                "effectiveness analyses need `reward <users> <weight>` statements to \
                 weight user-group throughputs",
            ),
        );
    }
}
