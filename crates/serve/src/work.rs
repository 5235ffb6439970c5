//! The request-level analysis drivers: budgeted analyze / sweep /
//! campaign over a [`ModelSession`](crate::session::ModelSession)'s
//! parsed model, reading and filling the [`ArtifactCache`].
//!
//! The daemon's cold path is one run of the guarded ladder
//! ([`Analysis::analyze_guarded`]) under the request's budget, the same
//! ladder the CLI runs.  Its first rung compiles the MTBDD, and a
//! diagram that fits the budget comes back with the answer: it is the
//! one artifact worth caching, since every later analyze/sweep/what-if
//! on the same model becomes a single linear evaluation pass.  A refused
//! compile is the response's first descent; the ladder then tries the
//! exact scan and ends in a sampling rung that never fails and always
//! carries a batch-means confidence interval.
//!
//! A node-cap refusal is cached too, so a later request on the key with
//! the same or a tighter cap lists the refusal without building the
//! diagram again; a roomier cap retries.  Other
//! refusals (the deadline, the state cap, the component limits) depend
//! on the request or are checked before the build, and are not kept.
//!
//! Campaigns compile a diagram of their own, with every injection point
//! kept as a variable (see [`fmperf_core::campaign`]), so they neither
//! read nor fill the cache.

use crate::cache::{ArtifactCache, CacheKey, Cached};
use fmperf_core::{
    run_campaign_observed, solve_configurations, sweep, Analysis, AnalysisBudget, AnalysisError,
    AnalysisReport, BudgetGuard, CampaignOptions, CompiledMtbdd, EngineKind, EstimateInfo,
    GuardedOptions, RewardSpec, SweepSpec,
};
use fmperf_ftlqn::{FaultGraph, KnowPolicy};
use fmperf_mama::{ComponentSpace, KnowTable};
use fmperf_obs::Recorder;
use fmperf_text::ParsedModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request analysis knobs (deadline, sampling, knowledge policy).
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeParams {
    /// Resource budget; the deadline is the request's end-to-end
    /// analysis deadline.
    pub budget: AnalysisBudget,
    /// Samples for the sampling rung.
    pub samples: u64,
    /// RNG seed for the sampling rung.
    pub seed: u64,
    /// Worker threads for the exact rungs.
    pub threads: usize,
    /// Skipped-alternative knowledge policy.
    pub policy: KnowPolicy,
    /// Treat unmonitored components as vacuously known.
    pub unmonitored_known: bool,
}

impl Default for AnalyzeParams {
    fn default() -> AnalyzeParams {
        AnalyzeParams {
            budget: AnalysisBudget::default(),
            samples: 100_000,
            seed: 0xF00D,
            threads: 1,
            policy: KnowPolicy::AnyFailedComponent,
            unmonitored_known: false,
        }
    }
}

/// Whether a request was answered from the compiled-artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Answered by evaluating a cached compiled diagram.
    Hit,
    /// Compiled (or degraded) fresh this request.
    Miss,
    /// The endpoint does not use the cache (campaigns, whose diagram
    /// keeps every injection point as a variable and so answers no
    /// analyze or sweep request).
    Bypass,
}

impl CacheStatus {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// The outcome of one analyze request.
#[derive(Debug, Clone)]
pub struct AnalyzeOutcome {
    /// The engine that produced the distribution (stable
    /// [`EngineKind::name`](fmperf_core::EngineKind::name) string).
    pub engine: String,
    /// Ladder descents (engine name, refusal reason), in order.
    pub descents: Vec<(String, String)>,
    /// Sampling provenance iff the result is estimated.
    pub estimate: Option<EstimateInfo>,
    /// Probability that the system is failed.
    pub failed: f64,
    /// States explored (or sampled).
    pub states: u64,
    /// Total components in the state space.
    pub components: usize,
    /// Fallible components.
    pub fallible: usize,
    /// `(label, probability)` per configuration, ranked.
    pub configurations: Vec<(String, f64)>,
    /// Expected reward, when the model declares rewards and every
    /// configuration's LQN solved.
    pub reward: Option<f64>,
    /// Why the reward is missing despite declared rewards.
    pub reward_error: Option<String>,
    /// Cache disposition of this request.
    pub cache: CacheStatus,
    /// Wall-clock nanoseconds spent compiling (successful *or* refused
    /// — a refused compile still charged the request deadline); zero on
    /// a cache hit and on a refusal the cache remembered.
    pub compile_ns: u64,
    /// Wall-clock nanoseconds spent evaluating: diagram pass or ladder
    /// descent, configuration ranking and the reward solve.
    pub eval_ns: u64,
}

/// Builds the per-request analysis stack (graph, space, knowledge) —
/// cheap and linear in the model, unlike the compile it guards.
fn with_stack<T>(
    m: &ParsedModel,
    params: &AnalyzeParams,
    recorder: Option<&dyn Recorder>,
    f: impl FnOnce(&Analysis<'_>, &ComponentSpace) -> T,
) -> Result<T, String> {
    let graph = FaultGraph::build(&m.app).map_err(|e| e.to_string())?;
    let has_mama = m.mama.component_count() > 0;
    let space = if has_mama {
        ComponentSpace::build(&m.app, &m.mama)
    } else {
        ComponentSpace::app_only(&m.app)
    };
    let table;
    let mut analysis = Analysis::new(&graph, &space)
        .with_policy(params.policy)
        .with_unmonitored_known(params.unmonitored_known)
        .with_threads(params.threads);
    if has_mama {
        table = KnowTable::build(&graph, &m.mama, &space);
        analysis = analysis.with_knowledge(&table);
    }
    if let Some(r) = recorder {
        analysis = analysis.with_recorder(r);
    }
    Ok(f(&analysis, &space))
}

/// The model's reward spec, if any rewards are declared.
fn reward_spec(m: &ParsedModel) -> Option<RewardSpec> {
    if m.rewards.is_empty() {
        return None;
    }
    let mut spec = RewardSpec::new();
    for &(t, w) in &m.rewards {
        spec = spec.weight(t, w);
    }
    Some(spec)
}

/// Files what a fresh MTBDD build learned under `key`: the diagram it
/// compiled, or the node cap it was refused under.
fn remember(
    cache: &ArtifactCache,
    key: &CacheKey,
    build: Result<&Arc<CompiledMtbdd>, &AnalysisError>,
) {
    match build {
        Ok(compiled) => cache.insert(key.clone(), Arc::clone(compiled)),
        Err(AnalysisError::NodeCapExceeded { max_nodes }) => {
            cache.insert_refusal(key.clone(), *max_nodes);
        }
        Err(_) => {}
    }
}

/// The node cap a cache lookup remembered a refusal under.
fn refused_node_cap(cached: &Option<Cached>) -> Option<usize> {
    match cached {
        Some(Cached::Refused { max_nodes }) => Some(*max_nodes),
        _ => None,
    }
}

/// Runs one analyze request: evaluate the diagram `cache` holds for
/// `key`, otherwise run the guarded ladder under the request budget and
/// file its MTBDD rung's outcome under `key`.
///
/// # Errors
///
/// Only structural failures (an unbuildable fault graph) error; budget
/// exhaustion degrades instead.
pub fn analyze_model(
    m: &ParsedModel,
    params: &AnalyzeParams,
    cache: &ArtifactCache,
    key: &CacheKey,
    recorder: Option<&dyn Recorder>,
) -> Result<AnalyzeOutcome, String> {
    with_stack(m, params, recorder, |analysis, space| {
        let start = Instant::now();
        let cached = cache.lookup(key);
        let (report, cache_status) = match cached {
            // A hit evaluates the cached diagram: nothing is compiled,
            // and nothing new goes back to the cache.
            Some(Cached::Diagram(compiled)) => (
                AnalysisReport {
                    distribution: compiled.distribution(),
                    engine: EngineKind::Mtbdd,
                    descents: Vec::new(),
                    estimate: None,
                    compiled: None,
                    compile_time: Duration::ZERO,
                },
                CacheStatus::Hit,
            ),
            known => {
                let report = analysis.analyze_guarded(&GuardedOptions {
                    budget: params.budget,
                    samples: params.samples,
                    seed: params.seed,
                    threads: params.threads,
                    refused_node_cap: refused_node_cap(&known),
                    ..GuardedOptions::default()
                });
                // The MTBDD rung runs first: it either compiled or is
                // the first descent.
                match (&report.compiled, report.descents.first()) {
                    (Some(compiled), _) => remember(cache, key, Ok(compiled)),
                    (None, Some(d)) => remember(cache, key, Err(&d.reason)),
                    (None, None) => {}
                }
                (report, CacheStatus::Miss)
            }
        };
        let dist = &report.distribution;
        let compile_ns = report.compile_time.as_nanos() as u64;

        let configurations: Vec<(String, f64)> = dist
            .ranked()
            .iter()
            .map(|(c, p)| (c.label(&m.app), *p))
            .collect();
        let (mut reward, mut reward_error) = (None, None);
        if let Some(spec) = reward_spec(m) {
            let configs = dist.configurations();
            match solve_configurations(&m.app, &configs) {
                Ok(perfs) => {
                    reward = Some(
                        configs
                            .iter()
                            .zip(&perfs)
                            .map(|(c, p)| dist.probability(c) * spec.reward(p))
                            .sum(),
                    );
                }
                // A robustness boundary, not an error path: the
                // distribution is still the answer.
                Err(e) => reward_error = Some(e.to_string()),
            }
        }
        AnalyzeOutcome {
            engine: report.engine.name().to_string(),
            descents: report
                .descents
                .iter()
                .map(|d| (d.engine.name().to_string(), d.reason.to_string()))
                .collect(),
            estimate: report.estimate,
            failed: dist.failed_probability(),
            states: dist.states_explored(),
            components: space.len(),
            fallible: space.fallible_indices().len(),
            configurations,
            reward,
            reward_error,
            cache: cache_status,
            compile_ns,
            eval_ns: (start.elapsed().as_nanos() as u64).saturating_sub(compile_ns),
        }
    })
}

/// Per-request sweep knobs.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// The swept component's name.
    pub component: String,
    /// First availability value.
    pub from: f64,
    /// Last availability value.
    pub to: f64,
    /// Number of sweep points.
    pub steps: usize,
    /// Everything shared with analyze (budget, policy, threads).
    pub analyze: AnalyzeParams,
}

/// The outcome of one sweep request.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Compiled-diagram size backing the sweep.
    pub nodes: usize,
    /// `(availability, failed probability)` per point.
    pub points: Vec<(f64, f64)>,
    /// Cache disposition of this request.
    pub cache: CacheStatus,
    /// Wall-clock nanoseconds spent compiling; zero on a cache hit.
    pub compile_ns: u64,
    /// Wall-clock nanoseconds spent evaluating the sweep points.
    pub eval_ns: u64,
}

/// Runs one sweep request over the diagram `cache` holds for `key`, or
/// over one compiled (and filed under `key`) for this request.
///
/// # Errors
///
/// Unknown component names, bad bounds and budget-refused compiles
/// (remembered ones included) are all request errors — a sweep has no
/// sampling rung to degrade to.
pub fn sweep_model(
    m: &ParsedModel,
    params: &SweepParams,
    cache: &ArtifactCache,
    key: &CacheKey,
    recorder: Option<&dyn Recorder>,
) -> Result<SweepOutcome, String> {
    with_stack(m, &params.analyze, recorder, |analysis, space| {
        let component = (0..space.len())
            .find(|&ix| space.name(ix) == params.component)
            .ok_or_else(|| format!("unknown component `{}`", params.component))?;
        let compile_start = Instant::now();
        let (compiled, cache_status) = match cache.lookup(key) {
            Some(Cached::Diagram(c)) => (c, CacheStatus::Hit),
            known => {
                let guard = BudgetGuard::new(&params.analyze.budget)
                    .with_refused_node_cap(refused_node_cap(&known));
                let build = analysis.try_compile_mtbdd_guarded(&guard).map(Arc::new);
                remember(cache, key, build.as_ref());
                let compiled = build.map_err(|e| format!("compile refused the budget: {e}"))?;
                (compiled, CacheStatus::Miss)
            }
        };
        let compile_ns = match cache_status {
            CacheStatus::Hit => 0,
            _ => compile_start.elapsed().as_nanos() as u64,
        };
        let eval_start = Instant::now();
        let spec = SweepSpec {
            component,
            from: params.from,
            to: params.to,
            steps: params.steps,
            threads: params.analyze.threads,
        };
        let points = sweep(&compiled, &spec).map_err(|e| e.to_string())?;
        let failed_of = |probs: &[f64]| -> f64 {
            compiled
                .configurations()
                .iter()
                .zip(probs)
                .filter(|(c, _)| c.is_failed())
                .map(|(_, &p)| p)
                .sum()
        };
        Ok(SweepOutcome {
            nodes: compiled.node_count(),
            points: points
                .iter()
                .map(|pt| (pt.availability, failed_of(&pt.probabilities)))
                .collect(),
            cache: cache_status,
            compile_ns,
            eval_ns: eval_start.elapsed().as_nanos() as u64,
        })
    })?
}

/// Per-request campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignParams {
    /// Also run every unordered pair of injections.
    pub pairwise: bool,
    /// Everything shared with analyze (budget, policy, threads).
    pub analyze: AnalyzeParams,
}

/// One scenario row of a campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignScenario {
    /// Injection label.
    pub label: String,
    /// Engine, failed probability and coverage loss — or the isolation
    /// boundary's error string for a scenario whose analysis blew up.
    pub result: Result<(String, f64, usize), String>,
}

/// The outcome of one campaign request.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Baseline engine name.
    pub baseline_engine: String,
    /// Baseline failed probability.
    pub baseline_failed: f64,
    /// Every injection scenario.
    pub scenarios: Vec<CampaignScenario>,
    /// Wall-clock nanoseconds of the campaign's one MTBDD compile
    /// (successful or refused).
    pub compile_ns: u64,
    /// Wall-clock nanoseconds of the rest of the campaign: the baseline
    /// and scenario rows, or the per-scenario fallback analyses.
    pub eval_ns: u64,
}

/// Runs one campaign request (cache bypassed: the campaign compiles its
/// own diagram, see [`CacheStatus::Bypass`]).
///
/// No rewards are solved: the outcome carries only each scenario's
/// engine, failure probability and coverage loss.
///
/// # Errors
///
/// Models without a management architecture, or with an unbuildable
/// fault graph, are request errors.
pub fn campaign_model(
    m: &ParsedModel,
    params: &CampaignParams,
    recorder: Option<&dyn Recorder>,
) -> Result<CampaignOutcome, String> {
    if m.mama.component_count() == 0 {
        return Err("campaign needs a model with a management architecture".into());
    }
    let graph = FaultGraph::build(&m.app).map_err(|e| e.to_string())?;
    let opts = CampaignOptions {
        guarded: GuardedOptions {
            budget: params.analyze.budget,
            samples: params.analyze.samples,
            seed: params.analyze.seed,
            threads: params.analyze.threads,
            ..GuardedOptions::default()
        },
        pairwise: params.pairwise,
        policy: params.analyze.policy,
        unmonitored_known: params.analyze.unmonitored_known,
    };
    let start = Instant::now();
    let report = run_campaign_observed(&graph, &m.mama, None, &opts, recorder, None);
    let total_ns = start.elapsed().as_nanos() as u64;
    let compile_ns = report.compile_time.as_nanos() as u64;
    Ok(CampaignOutcome {
        compile_ns,
        eval_ns: total_ns.saturating_sub(compile_ns),
        baseline_engine: report.baseline.engine.name().to_string(),
        baseline_failed: report.baseline.failed_probability,
        scenarios: report
            .scenarios
            .iter()
            .map(|s| CampaignScenario {
                label: s.label.clone(),
                result: match &s.result {
                    Ok(a) => Ok((
                        a.engine.name().to_string(),
                        a.failed_probability,
                        a.coverage_loss(),
                    )),
                    Err(e) => Err(e.clone()),
                },
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_obs::{Counter, MetricsRecorder};
    use fmperf_text::parse;

    const MODEL: &str = "processor pc cores inf\nprocessor p1 fail 0.1\n\
        users u on pc population 5 think 1.0\ntask s on p1 fail 0.1\n\
        entry eu of u\nentry es of s demand 0.2\ncall eu -> es\nreward u 1.0\n";

    const MANAGED: &str = "processor pc cores inf\nprocessor p1 fail 0.1\n\
        users u on pc population 5 think 1.0\ntask s on p1 fail 0.1\n\
        entry eu of u\nentry es of s demand 0.2\ncall eu -> es\n\
        mgmtproc pm fail 0.05\nmanager mgr on pm fail 0.05\n\
        watch alive s -> mgr\nwatch alive p1 -> mgr\nreward u 1.0\n";

    fn key() -> CacheKey {
        CacheKey::new("sha256:test", KnowPolicy::AnyFailedComponent, false)
    }

    /// An analyze that sees no cache and fills none.
    fn cold(m: &ParsedModel, params: &AnalyzeParams) -> AnalyzeOutcome {
        analyze_model(m, params, &ArtifactCache::new(0), &key(), None).unwrap()
    }

    #[test]
    fn cold_analyze_compiles_and_caches_the_artifact() {
        let m = parse(MODEL).unwrap();
        let cache = ArtifactCache::new(1 << 20);
        let out = analyze_model(&m, &AnalyzeParams::default(), &cache, &key(), None).unwrap();
        assert_eq!(out.engine, "mtbdd");
        assert_eq!(out.cache, CacheStatus::Miss);
        assert!(cache.get(&key()).is_some());
        assert!(out.reward.is_some());
        assert!((0.0..=1.0).contains(&out.failed));
        assert!(out.compile_ns > 0, "cold request attributes compile time");
        assert!(out.eval_ns > 0, "evaluation time is attributed");
    }

    #[test]
    fn cache_hit_matches_cold_result() {
        let m = parse(MANAGED).unwrap();
        let cache = ArtifactCache::new(1 << 20);
        let params = AnalyzeParams::default();
        let cold = analyze_model(&m, &params, &cache, &key(), None).unwrap();
        let hit = analyze_model(&m, &params, &cache, &key(), None).unwrap();
        assert_eq!(cold.cache, CacheStatus::Miss);
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert!((hit.failed - cold.failed).abs() < 1e-12);
        assert_eq!(hit.configurations.len(), cold.configurations.len());
        assert_eq!(hit.compile_ns, 0, "a cache hit spends nothing compiling");
        assert!(hit.eval_ns > 0);
    }

    #[test]
    fn starved_budget_degrades_with_ci() {
        let m = parse(MANAGED).unwrap();
        let mut params = AnalyzeParams {
            samples: 2_000,
            ..AnalyzeParams::default()
        };
        params.budget.max_states = 1;
        params.budget.max_mtbdd_nodes = 1;
        params.budget.max_memo_entries = 1;
        params.budget.deadline = Some(Duration::from_millis(50));
        let cache = ArtifactCache::new(1 << 20);
        let out = analyze_model(&m, &params, &cache, &key(), None).unwrap();
        assert!(
            out.engine == "monte-carlo" || out.engine == "importance-sampling",
            "engine {}",
            out.engine
        );
        let est = out.estimate.expect("degraded result carries a CI");
        assert!(est.failed_half_width.is_finite());
        assert!(!out.descents.is_empty());
        assert!(cache.is_empty(), "state-cap refusals are not remembered");
        assert!(
            out.compile_ns > 0,
            "a refused compile still charged the deadline and is attributed"
        );
        assert_eq!(out.descents[0].0, "mtbdd", "the compile was tried first");
        let mtbdd = out.descents.iter().filter(|(e, _)| e == "mtbdd").count();
        assert_eq!(mtbdd, 1, "the refused compile is not attempted twice");
        assert!(out.eval_ns > 0, "the ladder descent counts as evaluation");
    }

    #[test]
    fn refused_compile_is_listed_when_exact_answers() {
        let m = parse(MANAGED).unwrap();
        let mut params = AnalyzeParams::default();
        params.budget.max_mtbdd_nodes = 1;
        let out = cold(&m, &params);
        assert_eq!(out.engine, "exact-enumeration");
        assert!(out.estimate.is_none());
        let engines: Vec<&str> = out.descents.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(engines, ["mtbdd"], "the refused compile is the one descent");
        assert!(out.compile_ns > 0, "the refused compile is attributed");
    }

    #[test]
    fn cold_analyze_is_one_guarded_ladder_whose_diagram_answers_hits() {
        let m = parse(MANAGED).unwrap();
        let roomy = AnalyzeParams::default();
        let mut refused = AnalyzeParams::default();
        refused.budget.max_mtbdd_nodes = 1;
        let mut starved = AnalyzeParams {
            samples: 2_000,
            ..AnalyzeParams::default()
        };
        starved.budget.max_states = 1;
        let mut engines = Vec::new();
        for mut params in [roomy, refused, starved] {
            // No deadline trips: every descent reason and the sampled
            // estimate are then fixed by the budget, seed and samples.
            params.budget.deadline = None;
            let cache = ArtifactCache::new(1 << 20);
            let cold = analyze_model(&m, &params, &cache, &key(), None).unwrap();
            let direct = with_stack(&m, &params, None, |analysis, _| {
                analysis.analyze_guarded(&GuardedOptions {
                    budget: params.budget,
                    samples: params.samples,
                    seed: params.seed,
                    threads: params.threads,
                    ..GuardedOptions::default()
                })
            })
            .unwrap();
            assert_eq!(cold.cache, CacheStatus::Miss);
            assert_eq!(cold.engine, direct.engine.name());
            let descents: Vec<(String, String)> = direct
                .descents
                .iter()
                .map(|d| (d.engine.name().to_string(), d.reason.to_string()))
                .collect();
            assert_eq!(cold.descents, descents, "{}", cold.engine);
            assert_eq!(cold.estimate, direct.estimate, "{}", cold.engine);
            let ranked: Vec<(String, f64)> = direct
                .distribution
                .ranked()
                .iter()
                .map(|(c, p)| (c.label(&m.app), *p))
                .collect();
            assert_eq!(cold.configurations, ranked, "{}", cold.engine);
            assert_eq!(cold.failed, direct.distribution.failed_probability());
            assert_eq!(cold.states, direct.distribution.states_explored());
            assert_eq!(cache.get(&key()).is_some(), direct.compiled.is_some());
            if direct.compiled.is_some() {
                let hit = analyze_model(&m, &params, &cache, &key(), None).unwrap();
                assert_eq!(hit.cache, CacheStatus::Hit);
                assert_eq!(hit.engine, cold.engine);
                assert!(hit.descents.is_empty() && hit.estimate.is_none());
                assert_eq!(hit.configurations, cold.configurations);
                assert_eq!(hit.failed, cold.failed);
                assert_eq!(hit.states, cold.states);
                assert_eq!(hit.reward, cold.reward);
            }
            engines.push(cold.engine);
        }
        assert_eq!(engines, ["mtbdd", "exact-enumeration", "monte-carlo"]);
    }

    #[test]
    fn sweep_hits_cache() {
        let m = parse(MANAGED).unwrap();
        let cache = ArtifactCache::new(1 << 20);
        analyze_model(&m, &AnalyzeParams::default(), &cache, &key(), None).unwrap();
        let params = SweepParams {
            component: "p1".into(),
            from: 0.5,
            to: 1.0,
            steps: 5,
            analyze: AnalyzeParams::default(),
        };
        let out = sweep_model(&m, &params, &cache, &key(), None).unwrap();
        assert_eq!(out.cache, CacheStatus::Hit);
        assert_eq!(out.points.len(), 5);
        // Failure probability decreases as availability rises.
        assert!(out.points.first().unwrap().1 >= out.points.last().unwrap().1);
    }

    #[test]
    fn sweep_unknown_component_is_a_request_error() {
        let m = parse(MANAGED).unwrap();
        let params = SweepParams {
            component: "nope".into(),
            from: 0.5,
            to: 1.0,
            steps: 3,
            analyze: AnalyzeParams::default(),
        };
        let err = sweep_model(&m, &params, &ArtifactCache::new(0), &key(), None).unwrap_err();
        assert!(err.contains("unknown component"), "{err}");
    }

    /// The ladder on `MANAGED` with the deadline lifted, so each refusal
    /// reason is fixed by the budget alone.
    fn undated(max_mtbdd_nodes: usize) -> AnalyzeParams {
        let mut params = AnalyzeParams::default();
        params.budget.deadline = None;
        params.budget.max_mtbdd_nodes = max_mtbdd_nodes;
        params
    }

    #[test]
    fn a_node_cap_refusal_is_built_once_and_then_remembered() {
        let m = parse(MANAGED).unwrap();
        let cache = ArtifactCache::new(1 << 20);
        let tight = undated(1);
        let first = analyze_model(&m, &tight, &cache, &key(), None).unwrap();
        assert_eq!(first.engine, "exact-enumeration");
        assert!(first.compile_ns > 0, "the first refusal is built");
        assert_eq!(cache.entries()[0].refused_node_cap, Some(1));

        // Same cap: the same descents and answer, nothing compiled, and
        // the response still reads as a miss.
        let again = analyze_model(&m, &tight, &cache, &key(), None).unwrap();
        assert_eq!(again.compile_ns, 0, "a remembered refusal builds nothing");
        assert_eq!(again.cache, CacheStatus::Miss);
        assert_eq!(again.descents, first.descents);
        assert_eq!(
            (again.engine.as_str(), again.failed, again.states),
            (first.engine.as_str(), first.failed, first.states)
        );
        assert_eq!(again.configurations, first.configurations);
        assert_eq!(again.reward, first.reward);

        // A tighter cap fits under the remembered one and renders its
        // own cap; a state cap is still checked first and reported.
        let zero = analyze_model(&m, &undated(0), &cache, &key(), None).unwrap();
        assert_eq!(zero.compile_ns, 0);
        assert_eq!(
            zero.descents[0].1,
            AnalysisError::NodeCapExceeded { max_nodes: 0 }.to_string()
        );
        let mut starved = undated(1);
        starved.budget.max_states = 1;
        starved.samples = 2_000;
        let starved = analyze_model(&m, &starved, &cache, &key(), None).unwrap();
        assert!(
            starved.descents[0].1.contains("exceed the budget of 1"),
            "{:?}",
            starved.descents
        );

        // A roomier cap retries, compiles and replaces the refusal; the
        // next request hits.
        let roomy = analyze_model(&m, &undated(1 << 20), &cache, &key(), None).unwrap();
        assert_eq!(roomy.engine, "mtbdd");
        assert!(roomy.compile_ns > 0);
        assert_eq!(cache.entries()[0].refused_node_cap, None);
        let hit = analyze_model(&m, &tight, &cache, &key(), None).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_deadline_refusal_is_not_remembered() {
        let m = parse(MANAGED).unwrap();
        let cache = ArtifactCache::new(1 << 20);
        let mut params = AnalyzeParams {
            samples: 2_000,
            ..AnalyzeParams::default()
        };
        params.budget.deadline = Some(Duration::ZERO);
        let out = analyze_model(&m, &params, &cache, &key(), None).unwrap();
        assert!(
            out.descents[0].1.starts_with("deadline expired"),
            "{:?}",
            out.descents
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn a_sweep_on_a_remembered_refusal_answers_without_building() {
        let m = parse(MANAGED).unwrap();
        let cache = ArtifactCache::new(1 << 20);
        let params = SweepParams {
            component: "p1".into(),
            from: 0.5,
            to: 1.0,
            steps: 3,
            analyze: undated(1),
        };
        // Each build cube polls the budget; a skipped build polls none.
        let sweep = || {
            let rec = MetricsRecorder::new();
            let err = sweep_model(&m, &params, &cache, &key(), Some(&rec)).unwrap_err();
            (err, rec.counter(Counter::BudgetPolls))
        };
        let (first, built) = sweep();
        assert!(built > 0);
        assert_eq!(
            cache.entries()[0].refused_node_cap,
            Some(1),
            "sweeps file refusals too"
        );
        let (again, polls) = sweep();
        assert_eq!(again, first);
        assert!(again.contains("node budget of 1"), "{again}");
        assert_eq!(polls, 0, "nothing was built");
    }

    #[test]
    fn campaign_reports_scenarios() {
        let m = parse(MANAGED).unwrap();
        let out = campaign_model(
            &m,
            &CampaignParams {
                pairwise: false,
                analyze: AnalyzeParams::default(),
            },
            None,
        )
        .unwrap();
        assert!(!out.scenarios.is_empty());
        assert!(out.scenarios.iter().all(|s| s.result.is_ok()));
        assert_eq!(out.baseline_engine, "mtbdd");
        assert!(out
            .scenarios
            .iter()
            .all(|s| matches!(&s.result, Ok((engine, _, _)) if engine == "mtbdd")));
        assert!(
            out.compile_ns > 0,
            "the campaign's one compile is attributed"
        );
        assert!(out.eval_ns > 0, "the row passes count as evaluation");
    }

    #[test]
    fn campaign_needs_management() {
        let m = parse(MODEL).unwrap();
        let err = campaign_model(
            &m,
            &CampaignParams {
                pairwise: false,
                analyze: AnalyzeParams::default(),
            },
            None,
        )
        .unwrap_err();
        assert!(err.contains("management"), "{err}");
    }
}
