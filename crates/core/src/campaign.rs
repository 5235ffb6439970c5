//! Management-plane fault-injection campaigns.
//!
//! A campaign asks the coverage question operationally: for every
//! single (and optionally pairwise) management-plane fault — kill a
//! manager, kill an agent, sever a connector, fail a management
//! processor — what happens to the architecture's coverage and to the
//! expected reward?
//!
//! An injection pins one element's failure probability to 1 (see
//! [`fmperf_mama::inject`]).  That changes the availability vector, not
//! the state→configuration map, so a campaign compiles **one** MTBDD
//! ([`crate::mtbdd_engine`]) in which every injection point stays a
//! variable, and answers the baseline and every scenario as one
//! availability row of it: the baseline's up-probabilities with the
//! injected elements' set to 0.  The rows go through batched linear
//! passes a chunk at a time, and each row's post-processing
//! (distribution, coverage probe, reward) runs under
//! [`std::panic::catch_unwind`]: one pathological row reports its panic
//! message instead of killing the whole campaign.  Nothing is rebuilt or
//! rescanned per scenario.
//!
//! Only when that one compile refuses the budget (or panics) does the
//! campaign fall back to the per-scenario path: each scenario clones the
//! MAMA model with the injected elements pinned down, rebuilds the
//! component space and know table, and runs the budget-guarded
//! degradation ladder ([`Analysis::analyze_guarded`]) under
//! `catch_unwind`, so a campaign over a large model degrades per
//! scenario instead of wedging.
//!
//! **Coverage** here is the static question: with the injected
//! elements down and everything else up, how many application
//! components can still be *known* by some deciding task?  The know
//! table is structural (minpaths, no probabilities), so the baseline's
//! table answers every scenario's probe.  The difference against the
//! baseline is each scenario's coverage loss, and the components that
//! slipped out are reported by name.

use crate::analysis::Analysis;
use crate::budget::{
    AnalysisReport, BudgetGuard, Descent, EngineKind, EstimateInfo, GuardedOptions,
};
use crate::mtbdd_engine::CompiledMtbdd;
use crate::reward::RewardSpec;
use fmperf_ftlqn::{Configuration, FaultGraph, KnowPolicy};
use fmperf_mama::inject::{injection_points, pairwise_scenarios, single_scenarios, Scenario};
use fmperf_mama::{ComponentSpace, KnowTable, MamaModel};
use fmperf_obs::{Phase, Recorder, Span};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Scenario rows evaluated per batched pass: a large pairwise campaign
/// never holds every row at once, and each pass still fills the
/// evaluator's lanes many times over.
const ROW_CHUNK: usize = 64;

/// Options for [`run_campaign`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Budget for the campaign's one MTBDD compile, and budget, sampling
    /// and threading for each scenario's guarded analysis should that
    /// compile be refused.  The threads also split the batched row
    /// passes.
    pub guarded: GuardedOptions,
    /// Also run every unordered pair of injections.
    pub pairwise: bool,
    /// Skipped-alternative knowledge policy (see
    /// [`Analysis::with_policy`]).
    pub policy: KnowPolicy,
    /// Treat unmonitored components as vacuously known (see
    /// [`Analysis::with_unmonitored_known`]); must match how the
    /// baseline model is normally analysed for deltas to be meaningful.
    pub unmonitored_known: bool,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            guarded: GuardedOptions::default(),
            pairwise: false,
            policy: KnowPolicy::AnyFailedComponent,
            unmonitored_known: false,
        }
    }
}

/// The analysed outcome of one scenario (or of the baseline).
#[derive(Debug, Clone)]
pub struct ScenarioAnalysis {
    /// Human-readable injection label (`baseline` for the baseline).
    pub label: String,
    /// The engine that produced the distribution: [`EngineKind::Mtbdd`]
    /// for a row of the campaign's one diagram, otherwise the fallback
    /// ladder's rung.
    pub engine: EngineKind,
    /// Ladder descents, in order, with their typed reasons (empty for a
    /// row of the campaign's diagram).
    pub descents: Vec<Descent>,
    /// Monte Carlo provenance iff `engine` is the sampling rung.
    pub estimate: Option<EstimateInfo>,
    /// Probability that the system is failed under this scenario.
    pub failed_probability: f64,
    /// Application components still coverable with the injected
    /// elements down.
    pub covered: BTreeSet<String>,
    /// Baseline-covered components this scenario can no longer cover.
    pub newly_uncovered: Vec<String>,
    /// Expected reward rate, when a [`RewardSpec`] was supplied and
    /// every configuration's LQN solved.
    pub reward: Option<f64>,
    /// `reward - baseline reward`, under the same condition.
    pub reward_delta: Option<f64>,
}

impl ScenarioAnalysis {
    /// Number of baseline-covered components lost in this scenario.
    pub fn coverage_loss(&self) -> usize {
        self.newly_uncovered.len()
    }
}

/// One campaign scenario: its label and either its analysis or the
/// panic message of an analysis that blew up (isolation via
/// [`catch_unwind`]).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Human-readable injection label.
    pub label: String,
    /// The analysis, or the panic/solver failure that prevented it.
    pub result: Result<ScenarioAnalysis, String>,
}

/// A complete campaign: the baseline plus every scenario outcome, in
/// the deterministic order of
/// [`fmperf_mama::inject::injection_points`].
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The uninjected model's analysis (reference point for deltas).
    pub baseline: ScenarioAnalysis,
    /// Every injection scenario, singles first, then pairs.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Wall-clock time of the campaign's one MTBDD compile, successful
    /// or refused.  Everything else the campaign spent (the row passes,
    /// or the fallback's per-scenario analyses) is evaluation.
    pub compile_time: Duration,
}

impl CampaignReport {
    /// Scenarios whose analysis completed, with the failures filtered
    /// out.
    pub fn analysed(&self) -> impl Iterator<Item = &ScenarioAnalysis> + '_ {
        self.scenarios.iter().filter_map(|s| s.result.as_ref().ok())
    }

    /// Scenario labels whose analysis panicked or failed, with the
    /// message.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.scenarios.iter().filter_map(|s| match &s.result {
            Err(e) => Some((s.label.as_str(), e.as_str())),
            Ok(_) => None,
        })
    }
}

/// Runs a fault-injection campaign over `mama`: the baseline, every
/// single-injection scenario, and (with
/// [`pairwise`](CampaignOptions::pairwise)) every unordered pair.
///
/// Never fails as a whole: each row's post-processing (and, on the
/// fallback path, each scenario's guarded ladder) runs under
/// [`catch_unwind`], so the worst a scenario can do is report an error
/// string.  Reward deltas are computed when `reward` is given, against
/// an LQN-solution cache shared across scenarios (distinct
/// configurations recur heavily between scenarios).
pub fn run_campaign(
    graph: &FaultGraph<'_>,
    mama: &MamaModel,
    reward: Option<&RewardSpec>,
    opts: &CampaignOptions,
) -> CampaignReport {
    run_campaign_observed(graph, mama, reward, opts, None, None)
}

/// Progress report handed to [`run_campaign_observed`]'s callback after
/// each scenario (and the baseline) finishes.
#[derive(Debug)]
pub struct ScenarioProgress<'a> {
    /// Position in the campaign: `0` for the baseline, then `1..=total`.
    pub index: usize,
    /// Number of injection scenarios (the baseline is not counted).
    pub total: usize,
    /// The scenario's injection label (`baseline` for the baseline).
    pub label: &'a str,
    /// The engine that produced the result, or `None` when the
    /// scenario's analysis panicked or failed.
    pub engine: Option<EngineKind>,
    /// Wall-clock time the scenario took.  For a row of the campaign's
    /// diagram that is its share of the batched pass plus its own
    /// post-processing; the baseline's includes the compile.
    pub elapsed: Duration,
}

/// [`run_campaign`] with observability hooks: an optional [`Recorder`]
/// threaded into the compile, the row passes and every fallback
/// analysis, and an optional progress callback invoked after each
/// scenario completes (the baseline first, with index 0).
pub fn run_campaign_observed(
    graph: &FaultGraph<'_>,
    mama: &MamaModel,
    reward: Option<&RewardSpec>,
    opts: &CampaignOptions,
    recorder: Option<&dyn Recorder>,
    progress: Option<&dyn Fn(&ScenarioProgress<'_>)>,
) -> CampaignReport {
    let mut scenarios = single_scenarios(mama);
    if opts.pairwise {
        scenarios.extend(pairwise_scenarios(mama));
    }
    let mut campaign = Campaign {
        graph,
        mama,
        reward,
        opts,
        recorder,
        progress,
        total: scenarios.len(),
        reward_cache: BTreeMap::new(),
    };
    let space = ComponentSpace::build(graph.model(), mama);
    let table = KnowTable::build(graph, mama, &space);

    let start = Instant::now();
    let compiled = campaign.compile(&table);
    let compile_time = start.elapsed();
    let batched = compiled.and_then(|c| campaign.rows(&c, &space, &table, &scenarios, start));
    let (baseline, scenarios) = match batched {
        Some(done) => done,
        None => campaign.ladder(&scenarios),
    };
    CampaignReport {
        baseline,
        scenarios,
        compile_time,
    }
}

/// What every scenario of one campaign shares: the inputs, the progress
/// hook and the campaign-wide LQN reward cache.
struct Campaign<'c, 'g> {
    graph: &'c FaultGraph<'g>,
    mama: &'c MamaModel,
    reward: Option<&'c RewardSpec>,
    opts: &'c CampaignOptions,
    recorder: Option<&'c dyn Recorder>,
    progress: Option<&'c dyn Fn(&ScenarioProgress<'_>)>,
    total: usize,
    reward_cache: BTreeMap<Configuration, f64>,
}

impl Campaign<'_, '_> {
    /// The configured study over one space (the baseline's, an injected
    /// model's, or the every-point-down compile space).
    fn analysis<'s>(&'s self, space: &'s ComponentSpace, table: &'s KnowTable) -> Analysis<'s> {
        let analysis = Analysis::new(self.graph, space)
            .with_knowledge(table)
            .with_policy(self.opts.policy)
            .with_unmonitored_known(self.opts.unmonitored_known);
        match self.recorder {
            Some(r) => analysis.with_recorder(r),
            None => analysis,
        }
    }

    /// The campaign's one diagram, compiled against the model with every
    /// injection applied.  There every injection point has up-probability
    /// 0, so the compile, which elides only up-probability-1 elements,
    /// keeps each one as a variable, perfect connectors included.  That
    /// model's own availability vector (every point down) never leaves
    /// this module: every row supplies its own.  `None` when the compile
    /// refuses the budget or panics.
    fn compile(&self, table: &KnowTable) -> Option<CompiledMtbdd> {
        let every_point = Scenario {
            injections: injection_points(self.mama),
        };
        let space = ComponentSpace::build(self.graph.model(), &every_point.apply(self.mama));
        let guard = BudgetGuard::new(&self.opts.guarded.budget);
        catch_unwind(AssertUnwindSafe(|| {
            self.analysis(&space, table)
                .try_compile_mtbdd_guarded(&guard)
                .ok()
        }))
        .ok()
        .flatten()
    }

    /// Answers the baseline and every scenario as rows of `compiled`.
    /// `None` when the baseline row itself fails; the campaign then
    /// falls back to the ladder.
    fn rows(
        &mut self,
        compiled: &CompiledMtbdd,
        space: &ComponentSpace,
        table: &KnowTable,
        scenarios: &[Scenario],
        start: Instant,
    ) -> Option<(ScenarioAnalysis, Vec<ScenarioOutcome>)> {
        let base_up: Vec<f64> = (0..space.len()).map(|ix| space.up_prob(ix)).collect();
        let base_probe = down_probe(space);
        let base_probs = self
            .eval_rows(compiled, std::slice::from_ref(&base_up))
            .ok()?
            .pop()?;
        let baseline = catch_unwind(AssertUnwindSafe(|| {
            self.row("baseline", compiled, &base_probs, &base_probe, table, None)
        }))
        .ok()?
        .ok()?;
        self.report(0, "baseline", Some(baseline.engine), start.elapsed());

        let mut outcomes = Vec::with_capacity(scenarios.len());
        for chunk in scenarios.chunks(ROW_CHUNK) {
            let pass_start = Instant::now();
            let downs: Vec<Vec<usize>> = chunk
                .iter()
                .map(|s| s.injections.iter().map(|i| i.target_index(space)).collect())
                .collect();
            let rows: Vec<Vec<f64>> = downs
                .iter()
                .map(|down| {
                    let mut up = base_up.clone();
                    for &ix in down {
                        up[ix] = 0.0;
                    }
                    up
                })
                .collect();
            let probs = self.eval_rows(compiled, &rows);
            let pass_share = pass_start.elapsed() / chunk.len() as u32;
            for (i, (scenario, down)) in chunk.iter().zip(&downs).enumerate() {
                let label = scenario.label(self.mama);
                let row_start = Instant::now();
                let result = match &probs {
                    Ok(probs) => {
                        let mut probe = base_probe.clone();
                        for &ix in down {
                            probe[ix] = false;
                        }
                        catch_unwind(AssertUnwindSafe(|| {
                            self.row(&label, compiled, &probs[i], &probe, table, Some(&baseline))
                        }))
                        .unwrap_or_else(|panic| Err(panic_message(panic)))
                    }
                    Err(e) => Err(e.clone()),
                };
                let elapsed = pass_share + row_start.elapsed();
                self.report(outcomes.len() + 1, &label, engine_of(&result), elapsed);
                outcomes.push(ScenarioOutcome { label, result });
            }
        }
        Some((baseline, outcomes))
    }

    /// One batched pass over `rows`; a failure (or panic) becomes the
    /// error every row of the pass reports.
    fn eval_rows(
        &self,
        compiled: &CompiledMtbdd,
        rows: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, String> {
        let _span = Span::enter(self.recorder, Phase::MtbddEval);
        let threads = self.opts.guarded.threads.max(1);
        match catch_unwind(AssertUnwindSafe(|| {
            compiled.try_batch_probabilities(rows, threads)
        })) {
            Ok(Ok(probs)) => Ok(probs),
            Ok(Err(e)) => Err(format!("batched evaluation failed: {e}")),
            Err(panic) => Err(panic_message(panic)),
        }
    }

    /// One row's analysis: the row's probabilities clamped into a
    /// distribution, then the coverage probe and the reward fold.
    fn row(
        &mut self,
        label: &str,
        compiled: &CompiledMtbdd,
        probs: &[f64],
        probe: &[bool],
        table: &KnowTable,
        baseline: Option<&ScenarioAnalysis>,
    ) -> Result<ScenarioAnalysis, String> {
        let clamped: Vec<f64> = probs.iter().map(|&p| unit_clamp(p)).collect();
        let report = AnalysisReport {
            distribution: compiled.to_distribution(&clamped),
            engine: EngineKind::Mtbdd,
            descents: Vec::new(),
            estimate: None,
            compiled: None,
            compile_time: Duration::ZERO,
        };
        let covered = covered_in(self.graph, table, probe);
        self.finish(label, report, covered, baseline)
    }

    /// The fallback when the one compile is refused: the baseline and
    /// then each scenario, hand-mutated and run through the guarded
    /// ladder.
    fn ladder(&mut self, scenarios: &[Scenario]) -> (ScenarioAnalysis, Vec<ScenarioOutcome>) {
        let start = Instant::now();
        let baseline = self
            .analyze_model(self.mama, "baseline", None)
            .unwrap_or_else(|e| {
                panic!("invariant: the uninjected baseline model analyses cleanly — {e}")
            });
        self.report(0, "baseline", Some(baseline.engine), start.elapsed());

        let mut outcomes = Vec::with_capacity(scenarios.len());
        for (i, scenario) in scenarios.iter().enumerate() {
            let label = scenario.label(self.mama);
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let injected = scenario.apply(self.mama);
                self.analyze_model(&injected, &label, Some(&baseline))
            }))
            .unwrap_or_else(|panic| Err(panic_message(panic)));
            self.report(i + 1, &label, engine_of(&result), start.elapsed());
            outcomes.push(ScenarioOutcome { label, result });
        }
        (baseline, outcomes)
    }

    /// Analyses one (possibly injected) model on the fallback path:
    /// guarded ladder, static coverage probe, optional reward fold.
    fn analyze_model(
        &mut self,
        mama: &MamaModel,
        label: &str,
        baseline: Option<&ScenarioAnalysis>,
    ) -> Result<ScenarioAnalysis, String> {
        let space = ComponentSpace::build(self.graph.model(), mama);
        let table = KnowTable::build(self.graph, mama, &space);
        let report = self
            .analysis(&space, &table)
            .analyze_guarded(&self.opts.guarded);
        let covered = covered_components(self.graph, &space, &table);
        self.finish(label, report, covered, baseline)
    }

    /// Folds one analysed distribution into a [`ScenarioAnalysis`]:
    /// coverage loss against the baseline and the optional reward.
    fn finish(
        &mut self,
        label: &str,
        report: AnalysisReport,
        covered: BTreeSet<String>,
        baseline: Option<&ScenarioAnalysis>,
    ) -> Result<ScenarioAnalysis, String> {
        let newly_uncovered: Vec<String> = match baseline {
            Some(base) => base.covered.difference(&covered).cloned().collect(),
            None => Vec::new(),
        };
        let reward_value = match self.reward {
            Some(spec) => Some(expected_reward_cached(
                self.graph,
                &report.distribution,
                spec,
                &mut self.reward_cache,
            )?),
            None => None,
        };
        let reward_delta = match (reward_value, baseline.and_then(|b| b.reward)) {
            (Some(r), Some(b)) => Some(r - b),
            _ => None,
        };
        Ok(ScenarioAnalysis {
            label: label.to_string(),
            engine: report.engine,
            descents: report.descents,
            estimate: report.estimate,
            failed_probability: report.distribution.failed_probability(),
            covered,
            newly_uncovered,
            reward: reward_value,
            reward_delta,
        })
    }

    /// Hands one finished scenario to the progress callback, if any.
    fn report(&self, index: usize, label: &str, engine: Option<EngineKind>, elapsed: Duration) {
        if let Some(progress) = self.progress {
            progress(&ScenarioProgress {
                index,
                total: self.total,
                label,
                engine,
                elapsed,
            });
        }
    }
}

/// The engine of a finished scenario, `None` for a failed one.
fn engine_of(result: &Result<ScenarioAnalysis, String>) -> Option<EngineKind> {
    result.as_ref().ok().map(|s| s.engine)
}

/// Clamps one row probability into `[0, 1]`.  A row on which the system
/// always fails can land a few ulps above 1 (6.7e-16 has been seen), as
/// the pass sums its reach masses; anything beyond rounding would be a
/// defect in the diagram.
fn unit_clamp(p: f64) -> f64 {
    debug_assert!(
        (-1e-12..=1.0 + 1e-12).contains(&p),
        "row probability {p} strays from [0, 1] by more than rounding"
    );
    p.clamp(0.0, 1.0)
}

/// The static coverage probe: with every deterministically-down
/// element (up-probability 0 — exactly the injected ones) down and
/// everything else up, which application components can some deciding
/// task still learn about?
///
/// Shared by the campaign's fallback path and by the structural audit's
/// differential replay (see [`crate::audit`](mod@crate::audit)).
pub fn covered_components(
    graph: &FaultGraph<'_>,
    space: &ComponentSpace,
    table: &KnowTable,
) -> BTreeSet<String> {
    covered_in(graph, table, &down_probe(space))
}

/// The all-up state with every up-probability-0 element down.
fn down_probe(space: &ComponentSpace) -> Vec<bool> {
    (0..space.len())
        .map(|ix| space.up_prob(ix) != 0.0)
        .collect()
}

/// The application components some deciding task knows about in the
/// state `probe`.
fn covered_in(graph: &FaultGraph<'_>, table: &KnowTable, probe: &[bool]) -> BTreeSet<String> {
    let mut covered = BTreeSet::new();
    for (&(component, _decider), know) in table.iter() {
        if know.holds(probe) {
            covered.insert(graph.model().component_name(component).to_string());
        }
    }
    covered
}

/// `Σ p(C) · R(C)` over the distribution, solving each distinct
/// configuration's LQN at most once across the whole campaign.
fn expected_reward_cached(
    graph: &FaultGraph<'_>,
    dist: &crate::distribution::ConfigDistribution,
    spec: &RewardSpec,
    cache: &mut BTreeMap<Configuration, f64>,
) -> Result<f64, String> {
    let missing: Vec<Configuration> = dist
        .configurations()
        .into_iter()
        .filter(|c| !cache.contains_key(c))
        .collect();
    if !missing.is_empty() {
        let perfs = crate::reward::solve_configurations(graph.model(), &missing)
            .map_err(|e| format!("LQN solve failed: {e}"))?;
        for (config, perf) in missing.into_iter().zip(perfs) {
            cache.insert(config, spec.reward(&perf));
        }
    }
    Ok(dist
        .iter()
        .map(|(c, p)| {
            p * cache
                .get(c)
                .copied()
                .expect("invariant: every configuration was just solved into the cache")
        })
        .sum())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("analysis panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("analysis panicked: {s}")
    } else {
        "analysis panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_mama::arch;

    #[test]
    fn centralized_campaign_covers_all_scenarios_exactly() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let report = run_campaign(&graph, &mama, None, &CampaignOptions::default());
        // 6 component injections + every connector.
        let expected = 6 + mama.connector_count();
        assert_eq!(report.scenarios.len(), expected);
        assert_eq!(report.failures().count(), 0);
        // The one compile fits the default budget: the baseline and
        // every scenario are rows of its diagram, exact and undegraded.
        assert_eq!(report.baseline.engine, EngineKind::Mtbdd);
        for s in report.analysed() {
            assert!(s.engine.is_exact(), "{} degraded unexpectedly", s.label);
            assert!(s.failed_probability >= report.baseline.failed_probability - 1e-12);
        }
    }

    #[test]
    fn killing_the_central_manager_uncovers_everything() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let report = run_campaign(&graph, &mama, None, &CampaignOptions::default());
        let kill_m1 = report
            .analysed()
            .find(|s| s.label == "kill-manager(m1)")
            .expect("the campaign includes the manager kill");
        // The centralized architecture funnels all knowledge through
        // m1: with it down, nothing is covered any more.
        assert_eq!(kill_m1.covered.len(), 0);
        assert_eq!(kill_m1.coverage_loss(), report.baseline.covered.len());
        assert!(kill_m1.failed_probability > report.baseline.failed_probability);
    }

    #[test]
    fn pairwise_adds_all_unordered_pairs() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let opts = CampaignOptions {
            pairwise: true,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&graph, &mama, None, &opts);
        let n = 6 + mama.connector_count();
        assert_eq!(report.scenarios.len(), n + n * (n - 1) / 2);
        assert_eq!(report.failures().count(), 0);
    }

    #[test]
    fn reward_deltas_are_nonpositive_for_exact_scenarios() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let spec = RewardSpec::new()
            .weight(sys.user_a, 1.0)
            .weight(sys.user_b, 1.0);
        let report = run_campaign(&graph, &mama, Some(&spec), &CampaignOptions::default());
        let base = report.baseline.reward.expect("baseline reward solves");
        assert!(base > 0.0);
        for s in report.analysed() {
            let delta = s.reward_delta.expect("exact scenario reward solves");
            // Injections only remove knowledge: reward cannot improve.
            assert!(delta <= 1e-9, "{} improved the reward by {delta}", s.label);
        }
    }
}
