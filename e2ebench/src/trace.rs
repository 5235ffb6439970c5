//! The traced run's per-layer metrics.
//!
//! Part 1 is the daemon-driven run itself: each response's `timings`,
//! the client's round trips, and the daemon's cache counters.  Part 2
//! replays the run's requests in this process through the public
//! functions the daemon calls, one span per call, recorded by the
//! benchmark (not by the program).  Spans are kept in memory and written
//! as JSON lines when the run ends.  Every replayed answer is compared
//! with the daemon's answer to the same request.
//!
//! Two figures come from inside a single public call and are read off
//! the program's own metrics recorder instead of a span: the sampling
//! time within the guarded ladder (`Phase::Sampling`, the span
//! `importance_batched` opens) and the exact scan's time and states
//! within a campaign (`Phase::StateScan`, `Counter::StatesVisited`).

use crate::gen::{Kind, Request, SWEEP_FROM, SWEEP_STEPS, SWEEP_TO};
use crate::json::{quote, Json};
use crate::{stats, Answer, Args, Metric};
use fmperf::core::{
    run_campaign_observed, solve_configurations, sweep, Analysis, AnalysisBudget, BudgetGuard,
    CampaignOptions, CompiledMtbdd, ConfigDistribution, GuardedOptions, RewardSpec, SweepSpec,
};
use fmperf::ftlqn::{FaultGraph, KnowPolicy};
use fmperf::mama::{single_scenarios, ComponentSpace, KnowTable};
use fmperf::obs::{Counter, MetricsRecorder, Phase};
use fmperf::serve::http::{read_request, HttpLimits, Response};
use fmperf::serve::{model_content_hash, AnalyzeParams, ArtifactCache, CacheKey};
use fmperf::text::{parse_bounded, ParseLimits, ParsedModel};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay stops taking new requests after this long (the warm-up and at
/// least one timed request always replay).
const REPLAY_BUDGET: Duration = Duration::from_secs(8);

/// One recorded span.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
}

/// In-memory span recorder for the single-threaded replay.
struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` for request `request`.
    fn span<T>(&self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        self.span_as(request, f, |_| name)
    }

    /// [`span`](Tracer::span), named after the fact from `f`'s result.
    fn span_as<T>(
        &self,
        request: usize,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let ix = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(SpanRec {
                name: "",
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(ix);
        let out = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[ix].end_ns = self.t0.elapsed().as_nanos() as u64;
        spans[ix].name = name(&out);
        out
    }

    /// Durations in ms of every span named `name`.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// Per-request figures the replay collects besides its spans.
#[derive(Default)]
struct Figures {
    nodes: Vec<f64>,
    configs_solved: Vec<f64>,
    refused_ms: Vec<f64>,
    is_samples_per_s: Vec<f64>,
    scenario_ms: Vec<f64>,
    scan_ns: u64,
    scan_states: u64,
    mismatches: Vec<String>,
}

/// What the daemon computed, or the replay recomputed, for one request.
#[derive(Debug, PartialEq)]
enum Computed {
    Analyze {
        failed: f64,
        configurations: Vec<(String, f64)>,
        reward: Option<f64>,
        estimate: Option<(f64, f64)>,
    },
    Sweep(Vec<(f64, f64)>),
    Campaign {
        baseline: f64,
        scenarios: Vec<(String, Option<f64>)>,
    },
}

/// The daemon's answer in the replay's terms.
fn from_daemon(kind: Kind, j: &Json) -> Option<Computed> {
    Some(match kind {
        Kind::Analyze => Computed::Analyze {
            failed: j.f("failed")?,
            configurations: j
                .get("configurations")?
                .arr()
                .iter()
                .filter_map(|c| Some((c.get("label")?.str()?.to_string(), c.f("probability")?)))
                .collect(),
            reward: j.f("reward"),
            estimate: j
                .get("estimate")
                .and_then(|e| Some((e.f("failed_mean")?, e.f("failed_half_width")?))),
        },
        Kind::Sweep => Computed::Sweep(
            j.get("points")?
                .arr()
                .iter()
                .filter_map(|p| Some((p.f("availability")?, p.f("failed")?)))
                .collect(),
        ),
        Kind::Campaign { .. } => Computed::Campaign {
            baseline: j.get("baseline")?.f("failed")?,
            scenarios: j
                .get("scenarios")?
                .arr()
                .iter()
                .filter_map(|s| Some((s.get("label")?.str()?.to_string(), s.f("failed"))))
                .collect(),
        },
    })
}

/// Replays one request through the layers, returning what it computed.
fn replay(
    t: &Tracer,
    id: usize,
    req: &Request,
    daemon_body: &str,
    cache: &ArtifactCache,
    fig: &mut Figures,
) -> Result<Computed, String> {
    t.span("request", id, || {
        let bytes = req.bytes();
        let parsed_req = t.span("serve.http", id, || {
            read_request(&mut bytes.as_slice(), &HttpLimits::default())
        });
        parsed_req.map_err(|e| e.to_string())?;
        let limits = ParseLimits {
            max_bytes: 1 << 20,
            ..ParseLimits::default()
        };
        let lenient = t
            .span("text.parse", id, || parse_bounded(&req.body, &limits))
            .map_err(|e| format!("{e:?}"))?;
        let diags = t.span("lint.preflight", id, || fmperf::lint::lint(&lenient));
        if fmperf::lint::count(&diags, fmperf::lint::Severity::Error) > 0 {
            return Err("lint preflight refused the model".into());
        }
        let m = lenient.model;
        let hash = t.span("serve.hash", id, || {
            model_content_hash(&m.app, &m.mama, &m.rewards)
        });
        let policy = if req.policy_all {
            KnowPolicy::AllFailedComponents
        } else {
            KnowPolicy::AnyFailedComponent
        };
        let computed = match req.kind {
            Kind::Campaign { pairwise } => campaign(t, id, &m, req, policy, pairwise, fig)?,
            _ => {
                let key = CacheKey::new(&hash, policy, req.unmonitored_known);
                let cached = t.span("cache.lookup", id, || cache.get(&key));
                analyze_or_sweep(t, id, &m, req, policy, cached, &key, cache, fig)?
            }
        };
        // The daemon renders its reply and writes it out.
        t.span("serve.http", id, || {
            let mut out = Vec::with_capacity(daemon_body.len() + 256);
            Response::json(200, "OK", daemon_body.to_string())
                .with_header("x-fmperf-request-id", id.to_string())
                .write_to(&mut out);
            out
        });
        Ok(computed)
    })
}

/// The request's sampling knobs, or the daemon's defaults for them.
fn sampling(req: &Request) -> (u64, u64) {
    let defaults = AnalyzeParams::default();
    req.sampling.unwrap_or((defaults.samples, defaults.seed))
}

fn budget() -> AnalysisBudget {
    AnalysisBudget {
        deadline: Some(Duration::from_millis(crate::gen::BUDGET_MS)),
        ..AnalysisBudget::default()
    }
}

fn reward_spec(m: &ParsedModel) -> Option<RewardSpec> {
    (!m.rewards.is_empty()).then(|| {
        m.rewards
            .iter()
            .fold(RewardSpec::new(), |spec, &(t, w)| spec.weight(t, w))
    })
}

#[allow(clippy::too_many_arguments)]
fn analyze_or_sweep(
    t: &Tracer,
    id: usize,
    m: &ParsedModel,
    req: &Request,
    policy: KnowPolicy,
    cached: Option<Arc<CompiledMtbdd>>,
    key: &CacheKey,
    cache: &ArtifactCache,
    fig: &mut Figures,
) -> Result<Computed, String> {
    let (graph, space, table) = t.span("mama.stack", id, || {
        let graph = FaultGraph::build(&m.app).map_err(|e| e.to_string())?;
        let has_mama = m.mama.component_count() > 0;
        let space = if has_mama {
            ComponentSpace::build(&m.app, &m.mama)
        } else {
            ComponentSpace::app_only(&m.app)
        };
        let table = has_mama.then(|| KnowTable::build(&graph, &m.mama, &space));
        Ok::<_, String>((graph, space, table))
    })?;
    let mut analysis = Analysis::new(&graph, &space)
        .with_policy(policy)
        .with_unmonitored_known(req.unmonitored_known)
        .with_threads(1);
    if let Some(table) = &table {
        analysis = analysis.with_knowledge(table);
    }
    let (samples, seed) = sampling(req);

    // Compile (cold) or reuse the cached diagram, as the daemon does.
    let mut refused_ms = 0.0;
    let compiled = match cached {
        Some(c) => Some(c),
        None => {
            let t0 = Instant::now();
            let guard = BudgetGuard::new(&budget());
            let compiled = t.span_as(
                id,
                || analysis.try_compile_mtbdd_guarded(&guard),
                |r| match r {
                    Ok(_) => "core.mtbdd_compile",
                    Err(_) => "core.mtbdd_refused",
                },
            );
            match compiled {
                Ok(c) => {
                    let c = Arc::new(c);
                    fig.nodes.push(c.node_count() as f64);
                    cache.insert(key.clone(), Arc::clone(&c));
                    Some(c)
                }
                Err(_) => {
                    refused_ms += t0.elapsed().as_secs_f64() * 1e3;
                    None
                }
            }
        }
    };

    if req.kind == Kind::Sweep {
        let compiled = compiled.ok_or("sweep compile refused")?;
        let component = (0..space.len())
            .find(|&ix| space.name(ix) == "proc3")
            .ok_or("no proc3")?;
        let spec = SweepSpec {
            component,
            from: SWEEP_FROM,
            to: SWEEP_TO,
            steps: SWEEP_STEPS,
            threads: 1,
        };
        let points = t
            .span("core.sweep", id, || sweep(&compiled, &spec))
            .map_err(|e| e.to_string())?;
        return Ok(Computed::Sweep(
            points
                .iter()
                .map(|pt| {
                    let failed = compiled
                        .configurations()
                        .iter()
                        .zip(&pt.probabilities)
                        .filter(|(c, _)| c.is_failed())
                        .map(|(_, &p)| p)
                        .sum();
                    (pt.availability, failed)
                })
                .collect(),
        ));
    }

    let (dist, estimate): (ConfigDistribution, Option<(f64, f64)>) = match &compiled {
        Some(c) => (t.span("core.mtbdd_eval", id, || c.distribution()), None),
        None => {
            let recorder = MetricsRecorder::new();
            let observed = analysis.with_recorder(&recorder);
            let t0 = Instant::now();
            let report = t.span("core.ladder", id, || {
                observed.analyze_guarded(&GuardedOptions {
                    budget: budget(),
                    samples,
                    seed,
                    threads: 1,
                    ..GuardedOptions::default()
                })
            });
            let sampling = recorder.phase_nanos(Phase::Sampling) as f64 / 1e9;
            refused_ms += t0.elapsed().as_secs_f64() * 1e3 - sampling * 1e3;
            fig.refused_ms.push(refused_ms);
            if let Some(est) = &report.estimate {
                if sampling > 0.0 {
                    fig.is_samples_per_s.push(est.samples as f64 / sampling);
                }
            }
            (
                report.distribution,
                report
                    .estimate
                    .map(|e| (e.failed_mean, e.failed_half_width)),
            )
        }
    };
    let configurations: Vec<(String, f64)> = dist
        .ranked()
        .iter()
        .map(|(c, p)| (c.label(&m.app), *p))
        .collect();
    let mut reward = None;
    if let Some(spec) = reward_spec(m) {
        let configs = dist.configurations();
        fig.configs_solved.push(configs.len() as f64);
        if let Ok(perfs) = t.span("lqn.solve", id, || solve_configurations(&m.app, &configs)) {
            reward = Some(
                configs
                    .iter()
                    .zip(&perfs)
                    .map(|(c, p)| dist.probability(c) * spec.reward(p))
                    .sum(),
            );
        }
    }
    Ok(Computed::Analyze {
        failed: dist.failed_probability(),
        configurations,
        reward,
        estimate,
    })
}

fn campaign(
    t: &Tracer,
    id: usize,
    m: &ParsedModel,
    req: &Request,
    policy: KnowPolicy,
    pairwise: bool,
    fig: &mut Figures,
) -> Result<Computed, String> {
    let graph = FaultGraph::build(&m.app).map_err(|e| e.to_string())?;
    let (samples, seed) = sampling(req);
    let opts = CampaignOptions {
        guarded: GuardedOptions {
            budget: budget(),
            samples,
            seed,
            threads: 1,
            ..GuardedOptions::default()
        },
        pairwise,
        policy,
        unmonitored_known: req.unmonitored_known,
    };
    let recorder = MetricsRecorder::new();
    let elapsed: RefCell<Vec<f64>> = RefCell::new(Vec::new());
    let progress = |p: &fmperf::core::ScenarioProgress<'_>| {
        if p.index > 0 {
            elapsed.borrow_mut().push(p.elapsed.as_secs_f64() * 1e3);
        }
    };
    let report = t.span("core.campaign", id, || {
        run_campaign_observed(
            &graph,
            &m.mama,
            reward_spec(m).as_ref(),
            &opts,
            Some(&recorder),
            Some(&progress),
        )
    });
    fig.scenario_ms.extend(elapsed.into_inner());
    fig.scan_ns += recorder.phase_nanos(Phase::StateScan);
    fig.scan_states += recorder.counter(Counter::StatesVisited);

    // The campaign rebuilds the component space and knowledge table for
    // every injected model, and solves the LQN of each configuration it
    // has not seen.  Both happen inside the one call above, so they are
    // timed here on the same inputs: each single injection's stack, and
    // the solve of the baseline's configurations.
    for scenario in single_scenarios(&m.mama) {
        let injected = scenario.apply(&m.mama);
        t.span("mama.stack", id, || {
            let space = ComponentSpace::build(&m.app, &injected);
            KnowTable::build(&graph, &injected, &space)
        });
    }
    if !m.rewards.is_empty() {
        let space = ComponentSpace::build(&m.app, &m.mama);
        let table = KnowTable::build(&graph, &m.mama, &space);
        let configs = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_policy(policy)
            .with_unmonitored_known(req.unmonitored_known)
            .enumerate()
            .configurations();
        fig.configs_solved.push(configs.len() as f64);
        let _ = t.span("lqn.solve", id, || solve_configurations(&m.app, &configs));
    }
    Ok(Computed::Campaign {
        baseline: report.baseline.failed_probability,
        scenarios: report
            .scenarios
            .iter()
            .map(|s| {
                (
                    s.label.clone(),
                    s.result.as_ref().ok().map(|a| a.failed_probability),
                )
            })
            .collect(),
    })
}

/// Compares a replayed answer with the daemon's (rewards to 1e-12
/// relative; everything else exactly).
fn same(a: &Computed, b: &Computed) -> bool {
    match (a, b) {
        (
            Computed::Analyze {
                failed: f1,
                configurations: c1,
                reward: r1,
                estimate: e1,
            },
            Computed::Analyze {
                failed: f2,
                configurations: c2,
                reward: r2,
                estimate: e2,
            },
        ) => {
            let rewards = match (r1, r2) {
                (Some(x), Some(y)) => (x - y).abs() <= 1e-12 * y.abs().max(1.0),
                (None, None) => true,
                _ => false,
            };
            f1 == f2 && c1 == c2 && e1 == e2 && rewards
        }
        _ => a == b,
    }
}

/// Runs part 2 and assembles every per-layer metric.  Returns the
/// metrics and one line per replayed answer that differs from the
/// daemon's.
pub fn run(
    args: &Args,
    warm: &[Answer<'_>],
    timed: &[Answer<'_>],
    cache_before: Option<&str>,
    cache_after: Option<&str>,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let tracer = Tracer::new();
    let cache = ArtifactCache::new(256 << 20);
    let mut fig = Figures::default();
    let started = Instant::now();
    let mut replayed: Vec<usize> = Vec::new();
    for (id, a) in warm.iter().chain(timed).enumerate() {
        let is_timed = id >= warm.len();
        if is_timed && id > warm.len() && started.elapsed() > REPLAY_BUDGET {
            break;
        }
        let Some(daemon) = a.json.as_ref().and_then(|j| from_daemon(a.req.kind, j)) else {
            continue;
        };
        match replay(&tracer, id, a.req, &a.sample.body, &cache, &mut fig) {
            Ok(mine) if same(&mine, &daemon) => {}
            Ok(_) => fig.mismatches.push(format!(
                "replayed answer differs from the daemon's: {} {}",
                a.req.target(),
                a.req.model.name()
            )),
            Err(e) => fig.mismatches.push(format!(
                "replay failed: {} {}: {e}",
                a.req.target(),
                a.req.model.name()
            )),
        }
        if is_timed {
            replayed.push(id - warm.len());
        }
    }

    // Part 1: the daemon's own view of the same run.
    let daemon_ms = |a: &Answer<'_>, field: &str| {
        a.json
            .as_ref()
            .and_then(|j| j.get("timings"))
            .and_then(|t| t.f(field))
            .map(|ns| ns / 1e6)
    };
    let mut accept_wait = Vec::new();
    let mut queue_wait = Vec::new();
    let mut descents = Vec::new();
    let mut ess_ratio = Vec::new();
    let mut rel_hw = Vec::new();
    for a in timed {
        let Some(j) = &a.json else { continue };
        if let (Some(total), Some(q)) = (daemon_ms(a, "total_ns"), daemon_ms(a, "queue_wait_ns")) {
            let round_trip = a.sample.done.duration_since(a.sample.sent).as_secs_f64() * 1e3;
            accept_wait.push(round_trip - total);
            queue_wait.push(q);
        }
        if let Some(d) = j.get("descents") {
            if j.get("estimate").is_some() {
                descents.push(d.arr().len() as f64);
            }
        }
        if let Some(e) = j.get("estimate") {
            if let (Some(ess), Some(n)) = (e.f("ess"), e.f("samples")) {
                ess_ratio.push(ess / n);
            }
            if let (Some(hw), Some(mean)) = (e.f("failed_half_width"), e.f("failed_mean")) {
                if mean > 0.0 {
                    rel_hw.push(hw / mean);
                }
            }
        }
    }
    let cache_counts = |body: Option<&str>| -> (f64, f64, f64) {
        let j = body.and_then(|b| Json::parse(b).ok());
        let f = |k: &str| j.as_ref().and_then(|j| j.f(k)).unwrap_or(0.0);
        (f("hits"), f("misses"), f("resident_bytes"))
    };
    let (h0, m0, _) = cache_counts(cache_before);
    let (h1, m1, resident) = cache_counts(cache_after);
    let lookups = (h1 - h0) + (m1 - m0);
    let hit_ratio = if lookups > 0.0 {
        (h1 - h0) / lookups
    } else {
        0.0
    };

    let med = |name: &str| stats::median(&tracer.durations_ms(name));
    let http_us: Vec<f64> = {
        // Read plus write per request.
        let mut per: BTreeMap<usize, f64> = BTreeMap::new();
        for s in tracer
            .spans
            .borrow()
            .iter()
            .filter(|s| s.name == "serve.http")
        {
            *per.entry(s.request).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        per.into_values().collect()
    };
    let metrics: Vec<Metric> = vec![
        ("serve.accept_wait_ms", stats::median(&accept_wait), "ms"),
        (
            "serve.queue_wait_ms",
            stats::percentile(&queue_wait, 0.99),
            "ms",
        ),
        ("serve.http_us", stats::median(&http_us), "us"),
        ("text.parse_ms", med("text.parse"), "ms"),
        ("lint.preflight_ms", med("lint.preflight"), "ms"),
        ("serve.hash_ms", med("serve.hash"), "ms"),
        ("cache.hit_ratio", hit_ratio, "hits/lookups"),
        ("cache.resident_mb", resident / (1u64 << 20) as f64, "MiB"),
        ("mama.stack_ms", med("mama.stack"), "ms"),
        ("core.mtbdd_compile_ms", med("core.mtbdd_compile"), "ms"),
        ("core.mtbdd_nodes", stats::median(&fig.nodes), "count"),
        ("core.mtbdd_eval_us", med("core.mtbdd_eval") * 1e3, "us"),
        ("core.sweep_us", med("core.sweep") * 1e3, "us"),
        (
            "core.scan_ns_per_state",
            if fig.scan_states > 0 {
                fig.scan_ns as f64 / fig.scan_states as f64
            } else {
                0.0
            },
            "ns",
        ),
        ("core.scenario_ms", stats::median(&fig.scenario_ms), "ms"),
        ("core.refused_ms", stats::mean(&fig.refused_ms), "ms"),
        ("core.ladder_descents", stats::median(&descents), "count"),
        (
            "core.is_samples_per_s",
            stats::median(&fig.is_samples_per_s),
            "samples/s",
        ),
        (
            "core.is_ess_ratio",
            stats::median(&ess_ratio),
            "ESS/samples",
        ),
        (
            "core.is_rel_half_width",
            stats::median(&rel_hw),
            "hw/estimate",
        ),
        ("lqn.solve_ms", med("lqn.solve"), "ms"),
        (
            "lqn.configs_solved",
            stats::median(&fig.configs_solved),
            "count",
        ),
    ];

    // How much of the daemon's handling time the replayed layers cover.
    let mut daemon_handling = Vec::new();
    let mut replay_total = Vec::new();
    let requests: BTreeMap<usize, f64> = tracer
        .spans
        .borrow()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.request, (s.end_ns - s.start_ns) as f64 / 1e6))
        .collect();
    for &i in &replayed {
        let a = &timed[i];
        if let (Some(total), Some(q), Some(r)) = (
            daemon_ms(a, "total_ns"),
            daemon_ms(a, "queue_wait_ns"),
            requests.get(&(warm.len() + i)),
        ) {
            daemon_handling.push(total - q);
            replay_total.push(*r);
        }
    }
    eprintln!(
        "e2ebench: replayed {} of {} timed requests in {:.1} s; median per request: \
         replay {:.3} ms, daemon handling (total - queue wait) {:.3} ms, \
         replayed layers cover {:.0}% of it",
        replayed.len(),
        timed.len(),
        started.elapsed().as_secs_f64(),
        stats::median(&replay_total),
        stats::median(&daemon_handling),
        100.0 * replay_total.iter().sum::<f64>() / daemon_handling.iter().sum::<f64>().max(1e-9)
    );
    eprintln!("e2ebench: per-layer ({}):", args.workload);
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    write_spans(args, &tracer)?;
    Ok((metrics, fig.mismatches))
}

/// Writes the spans as JSON lines: `<out>/spans-<workload>-<seed>.jsonl`.
fn write_spans(args: &Args, t: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let mut text = String::new();
    for (i, s) in t.spans.borrow().iter().enumerate() {
        text.push_str(&format!(
            "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"request\": {}}}\n",
            quote(s.name),
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.request
        ));
    }
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
