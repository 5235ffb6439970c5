//! The `fmperf` command-line tool: analyse textual models, lint them,
//! render DOT diagrams, and canonicalise model files.
//!
//! ```text
//! fmperf analyze <model.fmp> [--engine enumerate|parallel|mtbdd|montecarlo|importance|guarded]
//!                            [--samples N] [--policy any|all]
//!                            [--unmonitored-known] [--threads N]
//! fmperf sweep   <model.fmp> --component <name> [--from A] [--to B] [--steps N]
//!                            [--json] [--policy any|all] [--unmonitored-known]
//!                            [--threads N]
//! fmperf audit   <model.fmp> [--json] [--max-order N] [--verify]
//!                            [--policy any|all] [--unmonitored-known]
//! fmperf lint    <model.fmp> [--format text|json] [--json] [--deny warnings]
//!                            [--lint-threshold RULE=N]
//! fmperf check   <model.fmp> [--deny warnings] [--lint-threshold RULE=N]
//! fmperf dot     <model.fmp> fault|mama|knowledge
//! fmperf fmt     <model.fmp>
//! ```
//!
//! `sweep` compiles the model's state→configuration map into a
//! multi-terminal BDD once, then evaluates the configuration
//! distribution (and expected reward, when the model declares rewards)
//! at every availability point with one linear pass each.
//!
//! `audit` runs the symbolic structural analysis: minimal cut sets of
//! the application and management planes up to `--max-order`, proved
//! SPOFs, provably-uncovered components, dead management edges and
//! Birnbaum criticality — all from the compiled Boolean structure,
//! without enumerating fault patterns.  `--verify` replays every
//! reported cut as a dynamic injection/evaluation and fails if any
//! static claim is unconfirmed.
//!
//! `lint` and `check` exit non-zero when any error-level diagnostic is
//! present (or any warning under `--deny warnings`); `analyze` refuses
//! to run on a model with lint errors.  Failing text reports go to
//! stderr, passing ones to stdout; a JSON lint report always goes to
//! stdout (machine consumers parse it there), with only the exit code
//! signalling failure.

use fmperf::core::{
    run_campaign_observed, solve_configurations, Analysis, AnalysisBudget, CampaignOptions,
    ConfigDistribution, EstimateInfo, GuardedOptions, ImportanceOptions, MonteCarloOptions,
    RewardSpec, ScenarioAnalysis, ScenarioProgress, StudyReport, SweepSpec,
};
use fmperf::ftlqn::{FaultGraph, KnowPolicy};
use fmperf::lint::Severity;
use fmperf::mama::{ComponentSpace, KnowTable, KnowledgeGraph};
use fmperf::obs::{MetricsRecorder, Phase, Recorder, Span, TeeRecorder, TraceRecorder};
use fmperf::serve::{ModelSession, ServeConfig, Server, SessionError};
use fmperf::text::{parse, parse_lenient, write_model, LenientParse, ParsedModel};
use std::io::IsTerminal;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  fmperf analyze  <model.fmp> [--engine enumerate|parallel|mtbdd|montecarlo|importance|guarded]
                              [--samples N] [--seed N] [--json] [--policy any|all]
                              [--is-bias X] [--is-mixture X]
                              [--unmonitored-known] [--threads N]
                              [--budget-states N] [--budget-deadline-ms N]
                              [--budget-nodes N] [--budget-memo N]
                              [--metrics] [--metrics-json PATH] [--trace-out PATH]
  fmperf campaign <model.fmp> [--pairwise] [--json] [--samples N] [--seed N]
                              [--policy any|all] [--unmonitored-known] [--threads N]
                              [--budget-states N] [--budget-deadline-ms N]
                              [--budget-nodes N] [--budget-memo N]
                              [--metrics] [--metrics-json PATH] [--trace-out PATH]
  fmperf sweep    <model.fmp> --component <name> [--from A] [--to B] [--steps N]
                              [--json] [--policy any|all] [--unmonitored-known]
                              [--threads N]
                              [--metrics] [--metrics-json PATH] [--trace-out PATH]
  fmperf profile  <model.fmp> [--samples N] [--seed N] [--threads N] [--json]
                              [--policy any|all] [--unmonitored-known]
                              [--trace-out PATH]
  fmperf serve    [--addr HOST:PORT] [--threads N] [--cache-mb N]
                              [--default-budget-ms N] [--queue-depth N]
                              [--max-body-bytes N] [--access-log PATH|-]
                              [--slow-keep N]
  fmperf audit    <model.fmp> [--json] [--max-order N] [--verify]
                              [--policy any|all] [--unmonitored-known]
  fmperf lint     <model.fmp> [--format text|json] [--json] [--deny warnings]
                              [--lint-threshold RULE=N]
  fmperf check    <model.fmp> [--deny warnings] [--lint-threshold RULE=N]
  fmperf dot      <model.fmp> fault|mama|knowledge
  fmperf fmt      <model.fmp>

`analyze --engine guarded` (implied by any --budget-* flag) runs the
degradation ladder that `serve` runs too: the MTBDD compile, then the
exact state scan, then sampling with a batch-means 95% CI — whichever
first fits the budget.  The sampling rung picks importance sampling
automatically when the model's smallest failure probability is below
1e-3.  `--engine importance` forces rare-event importance sampling
directly (failure-biased proposal, likelihood-ratio reweighting):
`--is-bias` sets the expected biased failures per draw (default 1.0)
and `--is-mixture` the defensive nominal-measure weight (default 0.2).
`campaign` analyses the model under every single (and with
--pairwise, every pairwise) management-plane fault injection and
reports coverage loss and reward deltas per scenario.  It compiles one
MTBDD with every injection point kept as a variable and answers each
scenario as one availability row of it; only if that compile refuses
the budget does each scenario run its own guarded ladder.

`audit` proves minimal cut sets, SPOFs, uncovered components and dead
management edges from the compiled Boolean structure (up to
--max-order, default 3); `--verify` replays every reported cut
dynamically and fails on any unconfirmed claim.  `--lint-threshold`
overrides a configurable rule threshold (FM201, FM203, FM204, FM205, FM304),
e.g. `--lint-threshold FM201=1048576`.

`serve` runs the analysis pipelines as a crash-tolerant HTTP daemon:
POST a model body to /v1/analyze, /v1/sweep?component=NAME or
/v1/campaign (budget/sampling knobs as query parameters), scrape
/metrics, probe /healthz and /readyz, and POST /quitquitquit to drain.
Saturation answers 503 with Retry-After; per-request deadlines degrade
through the guarded ladder instead of hanging.

`--metrics` prints per-phase timings and engine counters after the run
(to stderr under --json); `--metrics-json` writes the same data as
machine-readable JSON; `--trace-out` writes a Chrome trace-event file
loadable in chrome://tracing.  `profile` runs every applicable engine
on the model and prints a comparative phase/counter breakdown.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            if failing_report_belongs_on_stdout(&args, &msg) {
                // A failing machine-readable lint report still goes to
                // stdout — consumers parse it there and read the exit
                // code for pass/fail, exactly like the passing case.
                print!("{msg}");
            } else if msg.contains('\n') {
                // Multi-line failures (lint reports) are already
                // formatted; single-line ones get the program-name
                // prefix.
                eprint!("{msg}");
                if !msg.ends_with('\n') {
                    eprintln!();
                }
            } else {
                eprintln!("fmperf: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Whether a failing `run` result is a JSON lint report that must keep
/// going to stdout (the historical behaviour routed it to stderr, which
/// made `lint --json --deny warnings` emit its JSON on the wrong
/// stream).  Plain errors — unreadable files, bad flags — stay on
/// stderr even under `--json`.
fn failing_report_belongs_on_stdout(args: &[String], msg: &str) -> bool {
    let json_lint = args.first().is_some_and(|c| c == "lint")
        && args.iter().enumerate().any(|(i, a)| {
            a == "--json" || (a == "--format" && args.get(i + 1).is_some_and(|v| v == "json"))
        });
    json_lint && msg.trim_start().starts_with('{')
}

/// Options of the `analyze` subcommand.
struct AnalyzeOptions {
    engine: String,
    samples: u64,
    seed: u64,
    json: bool,
    policy: KnowPolicy,
    unmonitored_known: bool,
    threads: usize,
    is_bias: f64,
    is_mixture: f64,
    budget: BudgetFlags,
    obs: ObsFlags,
}

/// Explicitly supplied `--budget-*` values (defaults fill the gaps).
#[derive(Default)]
struct BudgetFlags {
    states: Option<u64>,
    deadline_ms: Option<u64>,
    nodes: Option<usize>,
    memo: Option<usize>,
}

impl BudgetFlags {
    /// Did any `--budget-*` flag appear?  (It then implies the guarded
    /// engine.)
    fn any_set(&self) -> bool {
        self.states.is_some()
            || self.deadline_ms.is_some()
            || self.nodes.is_some()
            || self.memo.is_some()
    }

    /// The defaults with the explicit flags layered on top.
    fn to_budget(&self) -> AnalysisBudget {
        let mut b = AnalysisBudget::default();
        if let Some(s) = self.states {
            b.max_states = s;
        }
        if let Some(ms) = self.deadline_ms {
            b.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(n) = self.nodes {
            b.max_mtbdd_nodes = n;
        }
        if let Some(m) = self.memo {
            b.max_memo_entries = m;
        }
        b
    }

    /// Consumes one `--budget-*` flag if `flag` is one; `Ok(false)`
    /// means the flag is not budget-related.
    fn parse_flag<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, String> {
        let mut grab = |what: &str| -> Result<&'a str, String> {
            it.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag {
            "--budget-states" => {
                self.states = Some(
                    grab("--budget-states")?
                        .parse()
                        .map_err(|_| "bad --budget-states value")?,
                );
            }
            "--budget-deadline-ms" => {
                self.deadline_ms = Some(
                    grab("--budget-deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --budget-deadline-ms value")?,
                );
            }
            "--budget-nodes" => {
                self.nodes = Some(
                    grab("--budget-nodes")?
                        .parse()
                        .map_err(|_| "bad --budget-nodes value")?,
                );
            }
            "--budget-memo" => {
                self.memo = Some(
                    grab("--budget-memo")?
                        .parse()
                        .map_err(|_| "bad --budget-memo value")?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Observability flags shared by `analyze`, `campaign` and `sweep`.
#[derive(Default)]
struct ObsFlags {
    metrics: bool,
    metrics_json: Option<String>,
    trace_out: Option<String>,
}

impl ObsFlags {
    /// Is any instrumentation requested?  (Otherwise engines run with
    /// no recorder at all.)
    fn enabled(&self) -> bool {
        self.metrics || self.metrics_json.is_some() || self.trace_out.is_some()
    }

    /// Consumes one observability flag if `flag` is one; `Ok(false)`
    /// means the flag is not observability-related.
    fn parse_flag<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, String> {
        match flag {
            "--metrics" => self.metrics = true,
            "--metrics-json" => {
                self.metrics_json = Some(it.next().ok_or("--metrics-json needs a path")?.into());
            }
            "--trace-out" => {
                self.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.into());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Engine provenance carried into the metrics report: which engine
/// produced the result and, for the guarded ladder, which rungs refused
/// and why.
#[derive(Default)]
struct Provenance {
    engine: String,
    requested: Option<String>,
    descents: Vec<(String, String)>,
}

/// `12.34ms`-style rendering of a nanosecond count.
fn human_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The human-readable phase/counter table of one recorder (non-zero
/// counters only).
fn metrics_table(metrics: &MetricsRecorder) -> String {
    let mut out = String::new();
    let phases = metrics.phases();
    if !phases.is_empty() {
        out.push_str(&format!(
            "  {:<20} {:>10} {:>7}\n",
            "phase", "time", "spans"
        ));
        for (phase, nanos, count) in &phases {
            out.push_str(&format!(
                "  {:<20} {:>10} {:>7}\n",
                phase.name(),
                human_nanos(*nanos),
                count
            ));
        }
    }
    let nonzero: Vec<_> = metrics
        .counters()
        .into_iter()
        .filter(|&(_, value)| value != 0)
        .collect();
    if !nonzero.is_empty() {
        out.push_str(&format!("  {:<20} {:>18}\n", "counter", "value"));
        for (counter, value) in nonzero {
            out.push_str(&format!("  {:<20} {:>18}\n", counter.name(), value));
        }
    }
    out
}

/// Inline JSON object with every counter (zero or not — the schema is
/// stable across runs).
fn counters_json(metrics: &MetricsRecorder) -> String {
    let items: Vec<String> = metrics
        .counters()
        .iter()
        .map(|(c, v)| format!("\"{}\": {v}", c.name()))
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Inline JSON array of the non-zero phase timings.
fn phases_json(metrics: &MetricsRecorder) -> String {
    let items: Vec<String> = metrics
        .phases()
        .iter()
        .map(|(p, nanos, spans)| {
            format!(
                "{{\"phase\": \"{}\", \"nanos\": {nanos}, \"spans\": {spans}}}",
                p.name()
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// The `fmperf-metrics-v1` machine-readable report.
fn metrics_json_string(
    command: &str,
    model: &str,
    prov: &Provenance,
    metrics: &MetricsRecorder,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"fmperf-metrics-v1\",\n");
    out.push_str(&format!("  \"command\": \"{}\",\n", json_escape(command)));
    out.push_str(&format!("  \"model\": \"{}\",\n", json_escape(model)));
    out.push_str(&format!(
        "  \"engine\": \"{}\",\n",
        json_escape(&prov.engine)
    ));
    if let Some(req) = &prov.requested {
        out.push_str(&format!("  \"requested\": \"{}\",\n", json_escape(req)));
    }
    let descents: Vec<String> = prov
        .descents
        .iter()
        .map(|(e, r)| {
            format!(
                "{{\"engine\": \"{}\", \"reason\": \"{}\"}}",
                json_escape(e),
                json_escape(r)
            )
        })
        .collect();
    out.push_str(&format!("  \"descents\": [{}],\n", descents.join(", ")));
    out.push_str(&format!("  \"counters\": {},\n", counters_json(metrics)));
    out.push_str(&format!("  \"phases\": {}\n}}\n", phases_json(metrics)));
    out
}

fn write_text_file(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes the requested observability outputs after a command ran and
/// returns the text to append to stdout (the human table, unless the
/// main output is JSON — then the table goes to stderr).
fn emit_obs(
    flags: &ObsFlags,
    command: &str,
    model: &str,
    prov: &Provenance,
    metrics: &MetricsRecorder,
    trace: &TraceRecorder,
    json_mode: bool,
) -> Result<String, String> {
    if let Some(path) = &flags.metrics_json {
        write_text_file(path, &metrics_json_string(command, model, prov, metrics))?;
    }
    if let Some(path) = &flags.trace_out {
        write_text_file(path, &trace.chrome_trace_json())?;
    }
    if flags.metrics {
        let table = format!(
            "\nmetrics (engine {}):\n{}",
            prov.engine,
            metrics_table(metrics)
        );
        if json_mode {
            eprint!("{table}");
        } else {
            return Ok(table);
        }
    }
    Ok(String::new())
}

/// Minimal JSON string escaping (the labels we emit contain no control
/// characters).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The importance-sampling fields of an estimate object (leading comma
/// included), or the empty string for a plain Monte Carlo estimate.
fn is_json_fields(est: &EstimateInfo) -> String {
    est.is.map_or(String::new(), |is| {
        format!(
            ", \"ess\": {}, \"weight_cv\": {}, \"mean_weight\": {}, \"bias\": {}, \"mixture\": {}",
            is.ess, is.weight_cv, is.mean_weight, is.bias, is.mixture
        )
    })
}

fn load(path: &str) -> Result<ParsedModel, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn load_lenient(path: &str) -> Result<LenientParse, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_lenient(&src).map_err(|e| format!("{path}: {e}"))
}

/// Opens the shared CLI/daemon model session for `path`: read, parse
/// and lint-preflight in one step (the same pipeline `fmperf serve`
/// runs per request), yielding the parsed model, its preflight
/// diagnostics and its stable content hash.
fn open_session(path: &str, recorder: Option<&dyn Recorder>) -> Result<ModelSession, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ModelSession::open_observed(&src, recorder).map_err(|e| match e {
        SessionError::Syntax(errs) => errs
            .iter()
            .map(|pe| format!("{path}: {pe}"))
            .collect::<Vec<_>>()
            .join("\n"),
        SessionError::Lint(diags) => fmperf::lint::render_text(path, &diags),
    })
}

/// Accepts `--deny warnings`; anything else is an error.
fn parse_deny(value: Option<&str>) -> Result<(), String> {
    match value {
        Some("warnings") => Ok(()),
        Some(other) => Err(format!(
            "unknown --deny value `{other}` (expected `warnings`)"
        )),
        None => Err("--deny needs a value".into()),
    }
}

/// Dispatches a full command line; returns the text to print.
fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("analyze") => {
            let path = it.next().ok_or(USAGE)?;
            let mut opts = AnalyzeOptions {
                engine: "enumerate".into(),
                samples: 100_000,
                seed: 0xF00D,
                json: false,
                policy: KnowPolicy::AnyFailedComponent,
                unmonitored_known: false,
                threads: 4,
                is_bias: fmperf::core::importance::DEFAULT_BIAS,
                is_mixture: fmperf::core::importance::DEFAULT_MIXTURE,
                budget: BudgetFlags::default(),
                obs: ObsFlags::default(),
            };
            let mut engine_explicit = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--engine" => {
                        opts.engine = it.next().ok_or("--engine needs a value")?.into();
                        engine_explicit = true;
                    }
                    "--samples" => {
                        opts.samples = it
                            .next()
                            .ok_or("--samples needs a value")?
                            .parse()
                            .map_err(|_| "bad --samples value")?;
                    }
                    "--seed" => {
                        opts.seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|_| "bad --seed value")?;
                    }
                    "--json" => opts.json = true,
                    "--policy" => {
                        opts.policy = match it.next().ok_or("--policy needs a value")? {
                            "any" => KnowPolicy::AnyFailedComponent,
                            "all" => KnowPolicy::AllFailedComponents,
                            other => return Err(format!("unknown policy `{other}`")),
                        };
                    }
                    "--unmonitored-known" => opts.unmonitored_known = true,
                    "--threads" => {
                        opts.threads = it
                            .next()
                            .ok_or("--threads needs a value")?
                            .parse()
                            .map_err(|_| "bad --threads value")?;
                    }
                    "--is-bias" => {
                        opts.is_bias = it
                            .next()
                            .ok_or("--is-bias needs a value")?
                            .parse()
                            .map_err(|_| "bad --is-bias value")?;
                    }
                    "--is-mixture" => {
                        opts.is_mixture = it
                            .next()
                            .ok_or("--is-mixture needs a value")?
                            .parse()
                            .map_err(|_| "bad --is-mixture value")?;
                    }
                    other if opts.budget.parse_flag(other, &mut it)? => {}
                    other if opts.obs.parse_flag(other, &mut it)? => {}
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            // A budget implies the guarded ladder; an explicit
            // conflicting engine choice is an error, not a silent
            // override.
            if opts.budget.any_set() {
                if engine_explicit && opts.engine != "guarded" {
                    return Err(format!(
                        "--budget-* flags require the guarded engine, not `{}`",
                        opts.engine
                    ));
                }
                opts.engine = "guarded".into();
            }
            let metrics = MetricsRecorder::new();
            let trace = TraceRecorder::new();
            let tee = TeeRecorder::new(&metrics, &trace);
            let recorder: Option<&dyn Recorder> =
                if opts.obs.enabled() { Some(&tee) } else { None };
            // Pre-flight: refuse models with lint errors, mention
            // warnings without blocking on them.
            let session = open_session(path, recorder)?;
            let warns = session.warnings();
            // The warning banner would corrupt machine-readable output.
            let header = if warns > 0 && !opts.json {
                format!("lint: {warns} warning(s); run `fmperf lint {path}` for details\n\n")
            } else {
                String::new()
            };
            let mut prov = Provenance::default();
            let body = analyze(session.model(), session.hash(), &opts, recorder, &mut prov)?;
            let extra = emit_obs(
                &opts.obs, "analyze", path, &prov, &metrics, &trace, opts.json,
            )?;
            Ok(header + &body + &extra)
        }
        Some("campaign") => {
            let path = it.next().ok_or(USAGE)?;
            let mut opts = CampaignCliOptions {
                pairwise: false,
                json: false,
                samples: 100_000,
                seed: 0xF00D,
                policy: KnowPolicy::AnyFailedComponent,
                unmonitored_known: false,
                threads: 4,
                budget: BudgetFlags::default(),
                obs: ObsFlags::default(),
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--pairwise" => opts.pairwise = true,
                    "--json" => opts.json = true,
                    "--samples" => {
                        opts.samples = it
                            .next()
                            .ok_or("--samples needs a value")?
                            .parse()
                            .map_err(|_| "bad --samples value")?;
                    }
                    "--seed" => {
                        opts.seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|_| "bad --seed value")?;
                    }
                    "--policy" => {
                        opts.policy = match it.next().ok_or("--policy needs a value")? {
                            "any" => KnowPolicy::AnyFailedComponent,
                            "all" => KnowPolicy::AllFailedComponents,
                            other => return Err(format!("unknown policy `{other}`")),
                        };
                    }
                    "--unmonitored-known" => opts.unmonitored_known = true,
                    "--threads" => {
                        opts.threads = it
                            .next()
                            .ok_or("--threads needs a value")?
                            .parse()
                            .map_err(|_| "bad --threads value")?;
                    }
                    other if opts.budget.parse_flag(other, &mut it)? => {}
                    other if opts.obs.parse_flag(other, &mut it)? => {}
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            let metrics = MetricsRecorder::new();
            let trace = TraceRecorder::new();
            let tee = TeeRecorder::new(&metrics, &trace);
            let recorder: Option<&dyn Recorder> =
                if opts.obs.enabled() { Some(&tee) } else { None };
            let session = open_session(path, recorder)?;
            let mut prov = Provenance::default();
            let body = campaign_cmd(session.model(), &opts, recorder, &mut prov)?;
            let extra = emit_obs(
                &opts.obs, "campaign", path, &prov, &metrics, &trace, opts.json,
            )?;
            Ok(body + &extra)
        }
        Some("sweep") => {
            let path = it.next().ok_or(USAGE)?;
            let mut opts = SweepOptions {
                component: None,
                from: 0.5,
                to: 1.0,
                steps: 11,
                threads: 4,
                json: false,
                policy: KnowPolicy::AnyFailedComponent,
                unmonitored_known: false,
                obs: ObsFlags::default(),
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--component" => {
                        opts.component =
                            Some(it.next().ok_or("--component needs a value")?.to_string());
                    }
                    "--from" => {
                        opts.from = it
                            .next()
                            .ok_or("--from needs a value")?
                            .parse()
                            .map_err(|_| "bad --from value")?;
                    }
                    "--to" => {
                        opts.to = it
                            .next()
                            .ok_or("--to needs a value")?
                            .parse()
                            .map_err(|_| "bad --to value")?;
                    }
                    "--steps" => {
                        opts.steps = it
                            .next()
                            .ok_or("--steps needs a value")?
                            .parse()
                            .map_err(|_| "bad --steps value")?;
                    }
                    "--threads" => {
                        opts.threads = it
                            .next()
                            .ok_or("--threads needs a value")?
                            .parse()
                            .map_err(|_| "bad --threads value")?;
                    }
                    "--json" => opts.json = true,
                    "--policy" => {
                        opts.policy = match it.next().ok_or("--policy needs a value")? {
                            "any" => KnowPolicy::AnyFailedComponent,
                            "all" => KnowPolicy::AllFailedComponents,
                            other => return Err(format!("unknown policy `{other}`")),
                        };
                    }
                    "--unmonitored-known" => opts.unmonitored_known = true,
                    other if opts.obs.parse_flag(other, &mut it)? => {}
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            let metrics = MetricsRecorder::new();
            let trace = TraceRecorder::new();
            let tee = TeeRecorder::new(&metrics, &trace);
            let recorder: Option<&dyn Recorder> =
                if opts.obs.enabled() { Some(&tee) } else { None };
            let session = open_session(path, recorder)?;
            let mut prov = Provenance::default();
            let body = sweep_cmd(session.model(), &opts, recorder, &mut prov)?;
            let extra = emit_obs(&opts.obs, "sweep", path, &prov, &metrics, &trace, opts.json)?;
            Ok(body + &extra)
        }
        Some("profile") => {
            let path = it.next().ok_or(USAGE)?;
            let mut opts = ProfileOptions {
                samples: 100_000,
                seed: 0xF00D,
                threads: 4,
                json: false,
                policy: KnowPolicy::AnyFailedComponent,
                unmonitored_known: false,
                trace_out: None,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--samples" => {
                        opts.samples = it
                            .next()
                            .ok_or("--samples needs a value")?
                            .parse()
                            .map_err(|_| "bad --samples value")?;
                    }
                    "--seed" => {
                        opts.seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|_| "bad --seed value")?;
                    }
                    "--threads" => {
                        opts.threads = it
                            .next()
                            .ok_or("--threads needs a value")?
                            .parse()
                            .map_err(|_| "bad --threads value")?;
                    }
                    "--json" => opts.json = true,
                    "--policy" => {
                        opts.policy = match it.next().ok_or("--policy needs a value")? {
                            "any" => KnowPolicy::AnyFailedComponent,
                            "all" => KnowPolicy::AllFailedComponents,
                            other => return Err(format!("unknown policy `{other}`")),
                        };
                    }
                    "--unmonitored-known" => opts.unmonitored_known = true,
                    "--trace-out" => {
                        opts.trace_out =
                            Some(it.next().ok_or("--trace-out needs a path")?.to_string());
                    }
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            let trace = TraceRecorder::new();
            let setup = MetricsRecorder::new();
            let setup_tee = TeeRecorder::new(&setup, &trace);
            let setup_rec: Option<&dyn Recorder> = Some(&setup_tee);
            let session = open_session(path, setup_rec)?;
            profile_cmd(session.model(), path, &opts, setup_rec, &setup, &trace)
        }
        Some("serve") => {
            let mut config = ServeConfig::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => {
                        config.addr = it.next().ok_or("--addr needs a value")?.into();
                    }
                    "--threads" => {
                        config.threads = it
                            .next()
                            .ok_or("--threads needs a value")?
                            .parse()
                            .map_err(|_| "bad --threads value")?;
                    }
                    "--cache-mb" => {
                        config.cache_mb = it
                            .next()
                            .ok_or("--cache-mb needs a value")?
                            .parse()
                            .map_err(|_| "bad --cache-mb value")?;
                    }
                    "--default-budget-ms" => {
                        config.default_budget_ms = it
                            .next()
                            .ok_or("--default-budget-ms needs a value")?
                            .parse()
                            .map_err(|_| "bad --default-budget-ms value")?;
                    }
                    "--queue-depth" => {
                        config.queue_depth = it
                            .next()
                            .ok_or("--queue-depth needs a value")?
                            .parse()
                            .map_err(|_| "bad --queue-depth value")?;
                    }
                    "--max-body-bytes" => {
                        config.max_body_bytes = it
                            .next()
                            .ok_or("--max-body-bytes needs a value")?
                            .parse()
                            .map_err(|_| "bad --max-body-bytes value")?;
                    }
                    "--access-log" => {
                        config.access_log =
                            Some(it.next().ok_or("--access-log needs a value")?.into());
                    }
                    "--slow-keep" => {
                        config.slow_keep = it
                            .next()
                            .ok_or("--slow-keep needs a value")?
                            .parse()
                            .map_err(|_| "bad --slow-keep value")?;
                    }
                    "--test-routes" => config.test_routes = true,
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            let (threads, cache_mb) = (config.threads, config.cache_mb);
            let handle = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
            eprintln!(
                "fmperf serve: listening on {} ({threads} worker(s), {cache_mb} MiB cache); \
                 POST /quitquitquit to drain",
                handle.local_addr()
            );
            let report = handle.wait();
            Ok(format!(
                "drained: {} request(s) served, {} shed, {} panic(s) caught\n",
                report.served, report.shed, report.panics_caught
            ))
        }
        Some("audit") => {
            let path = it.next().ok_or(USAGE)?;
            let mut json = false;
            let mut verify = false;
            let mut opts = fmperf::core::AuditOptions::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--json" => json = true,
                    "--verify" => verify = true,
                    "--max-order" => {
                        opts.max_order = it
                            .next()
                            .ok_or("--max-order needs a value")?
                            .parse()
                            .map_err(|_| "bad --max-order value")?;
                    }
                    "--policy" => {
                        opts.policy = match it.next().ok_or("--policy needs a value")? {
                            "any" => KnowPolicy::AnyFailedComponent,
                            "all" => KnowPolicy::AllFailedComponents,
                            other => return Err(format!("unknown policy `{other}`")),
                        };
                    }
                    "--unmonitored-known" => opts.unmonitored_known = true,
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            audit_cmd(path, json, verify, &opts)
        }
        Some("lint") => {
            let path = it.next().ok_or(USAGE)?;
            let mut json = false;
            let mut deny_warnings = false;
            let mut config = fmperf::lint::LintConfig::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--format" => {
                        json = match it.next().ok_or("--format needs a value")? {
                            "text" => false,
                            "json" => true,
                            other => return Err(format!("unknown format `{other}`")),
                        };
                    }
                    "--json" => json = true,
                    "--deny" => {
                        parse_deny(it.next())?;
                        deny_warnings = true;
                    }
                    "--lint-threshold" => {
                        config.apply(it.next().ok_or("--lint-threshold needs RULE=N")?)?;
                    }
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            let parsed = load_lenient(path)?;
            let diags = fmperf::lint::lint_with(&parsed, &config);
            let report = if json {
                fmperf::lint::render_json(path, &diags)
            } else {
                fmperf::lint::render_text(path, &diags)
            };
            let failed = fmperf::lint::count(&diags, Severity::Error) > 0
                || (deny_warnings && fmperf::lint::count(&diags, Severity::Warning) > 0);
            if failed {
                Err(report)
            } else {
                Ok(report)
            }
        }
        Some("check") => {
            let path = it.next().ok_or(USAGE)?;
            let mut deny_warnings = false;
            let mut config = fmperf::lint::LintConfig::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--deny" => {
                        parse_deny(it.next())?;
                        deny_warnings = true;
                    }
                    "--lint-threshold" => {
                        config.apply(it.next().ok_or("--lint-threshold needs RULE=N")?)?;
                    }
                    other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            let parsed = load_lenient(path)?;
            let diags = fmperf::lint::lint_with(&parsed, &config);
            let errors = fmperf::lint::count(&diags, Severity::Error);
            let warns = fmperf::lint::count(&diags, Severity::Warning);
            if errors > 0 || (deny_warnings && warns > 0) {
                return Err(fmperf::lint::render_text(path, &diags));
            }
            let m = &parsed.model;
            let mut out = format!(
                "{path}: ok ({} tasks, {} entries, {} services, {} mgmt components, \
                 {} connectors); lint: {warns} warning(s), {} note(s)\n",
                m.app.task_count(),
                m.app.entry_count(),
                m.app.service_count(),
                m.mama.component_count(),
                m.mama.connector_count(),
                fmperf::lint::count(&diags, Severity::Note),
            );
            // Surface the engine-suitability note (FM202) directly: on
            // large models, `check` is the natural place to learn that
            // sweeps should go through the compiled MTBDD engine.
            for d in diags
                .iter()
                .filter(|d| d.code == fmperf::lint::LintCode::EngineSuggestion)
            {
                out.push_str(&format!("{d}\n"));
            }
            Ok(out)
        }
        Some("dot") => {
            let path = it.next().ok_or(USAGE)?;
            let what = it.next().ok_or(USAGE)?;
            let m = load(path)?;
            match what {
                "fault" => {
                    let graph = FaultGraph::build(&m.app).map_err(|e| e.to_string())?;
                    Ok(fmperf::ftlqn::dot::fault_graph_dot(&graph))
                }
                "mama" => Ok(fmperf::mama::dot::mama_dot(&m.mama)),
                "knowledge" => {
                    let kg = KnowledgeGraph::build(&m.mama);
                    Ok(fmperf::mama::dot::knowledge_graph_dot(&m.mama, &kg))
                }
                other => Err(format!("unknown dot target `{other}`\n{USAGE}")),
            }
        }
        Some("fmt") => {
            let path = it.next().ok_or(USAGE)?;
            let m = load(path)?;
            Ok(write_model(&m.app, &m.mama, &m.rewards))
        }
        _ => Err(USAGE.to_string()),
    }
}

/// The `audit` subcommand: run the symbolic structural audit, render it
/// as text or JSON (`schemas/fmperf-audit-v1.schema.json`), and — with
/// `--verify` — replay every reported cut dynamically, failing when any
/// static claim is unconfirmed.
fn audit_cmd(
    path: &str,
    json: bool,
    verify: bool,
    opts: &fmperf::core::AuditOptions,
) -> Result<String, String> {
    use fmperf::core::CutConfirmation;
    let m = load(path)?;
    let graph = FaultGraph::build(&m.app).map_err(|e| e.to_string())?;
    let mama = (m.mama.component_count() > 0).then_some(&m.mama);
    let report = fmperf::core::audit(&graph, mama, opts).map_err(|e| e.to_string())?;

    let mut confirmations: Vec<(&'static str, CutConfirmation)> = Vec::new();
    if verify {
        if let (Some(mm), Some(mgmt)) = (mama, &report.mgmt) {
            for cut in &mgmt.cuts {
                confirmations.push(("mgmt", fmperf::core::replay_mgmt_cut(&graph, mm, cut)?));
            }
        }
        for cut in &report.app_cuts {
            confirmations.push((
                "app",
                fmperf::core::replay_app_cut(&graph, mama, cut, opts)?,
            ));
        }
    }
    let unconfirmed = confirmations.iter().filter(|(_, c)| !c.confirmed).count();

    let out = if json {
        render_audit_json(path, &report, verify.then_some(&confirmations))
    } else {
        render_audit_text(path, &report, verify.then_some(&confirmations))
    };
    if unconfirmed > 0 {
        return Err(format!(
            "{out}audit: {unconfirmed} static finding(s) unconfirmed by dynamic replay\n"
        ));
    }
    Ok(out)
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn json_cut_array(cuts: &[Vec<String>]) -> String {
    let sets: Vec<String> = cuts.iter().map(|c| json_str_array(c)).collect();
    format!("[{}]", sets.join(", "))
}

fn render_audit_json(
    path: &str,
    report: &fmperf::core::AuditReport,
    confirmations: Option<&Vec<(&'static str, fmperf::core::CutConfirmation)>>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"fmperf-audit-v1\",\n");
    out.push_str(&format!("  \"model\": \"{}\",\n", json_escape(path)));
    out.push_str(&format!(
        "  \"max_order\": {}, \"components\": {}, \"fallible\": {},\n",
        report.max_order, report.components, report.fallible
    ));
    out.push_str(&format!(
        "  \"baseline_failed\": {},\n",
        report.baseline_failed
    ));
    let app_spofs: Vec<String> = report.app_spofs().iter().map(|s| s.to_string()).collect();
    out.push_str(&format!(
        "  \"app\": {{ \"spofs\": {}, \"cuts\": {} }},\n",
        json_str_array(&app_spofs),
        json_cut_array(&report.app_cuts)
    ));
    match &report.mgmt {
        None => out.push_str("  \"mgmt\": null,\n"),
        Some(mgmt) => {
            let spofs: Vec<String> = mgmt.spofs().iter().map(|s| s.to_string()).collect();
            let uncovered: Vec<String> = mgmt
                .uncovered
                .iter()
                .map(|u| {
                    format!(
                        "{{ \"name\": \"{}\", \"has_paths\": {} }}",
                        json_escape(&u.name),
                        u.has_paths
                    )
                })
                .collect();
            out.push_str(&format!(
                "  \"mgmt\": {{\n    \"spofs\": {},\n    \"cuts\": {},\n    \
                 \"baseline_covered\": {},\n    \"uncovered\": [{}],\n    \
                 \"dead_edges\": {}\n  }},\n",
                json_str_array(&spofs),
                json_cut_array(&mgmt.cuts),
                json_str_array(&mgmt.baseline_covered),
                uncovered.join(", "),
                json_str_array(&mgmt.dead_edges)
            ));
        }
    }
    let crit: Vec<String> = report
        .criticality
        .iter()
        .map(|(name, b)| {
            format!(
                "{{ \"component\": \"{}\", \"birnbaum\": {:.6} }}",
                json_escape(name),
                b
            )
        })
        .collect();
    out.push_str(&format!("  \"criticality\": [{}]", crit.join(", ")));
    if let Some(confs) = confirmations {
        let rows: Vec<String> = confs
            .iter()
            .map(|(plane, c)| {
                let loss = match c.coverage_loss {
                    Some(n) => n.to_string(),
                    None => "null".into(),
                };
                format!(
                    "{{ \"plane\": \"{plane}\", \"elements\": {}, \"label\": \"{}\", \
                     \"confirmed\": {}, \"coverage_loss\": {loss} }}",
                    json_str_array(&c.elements),
                    json_escape(&c.label),
                    c.confirmed
                )
            })
            .collect();
        out.push_str(&format!(",\n  \"verification\": [{}]", rows.join(", ")));
    }
    out.push_str("\n}\n");
    out
}

fn render_audit_text(
    path: &str,
    report: &fmperf::core::AuditReport,
    confirmations: Option<&Vec<(&'static str, fmperf::core::CutConfirmation)>>,
) -> String {
    let mut out = format!(
        "{path}: structural audit (max order {})\n  components: {} ({} fallible); baseline {}\n",
        report.max_order,
        report.components,
        report.fallible,
        if report.baseline_failed {
            "FAILED — the system is down with every component up"
        } else {
            "operational"
        }
    );
    let render_cuts = |out: &mut String, cuts: &[Vec<String>]| {
        if cuts.is_empty() {
            out.push_str("  no cut sets up to the searched order\n");
        } else {
            out.push_str(&format!("  {} minimal cut set(s):\n", cuts.len()));
            for cut in cuts {
                out.push_str(&format!("    order {}: {}\n", cut.len(), cut.join(" + ")));
            }
        }
    };
    out.push_str("\napplication plane:\n");
    for spof in report.app_spofs() {
        out.push_str(&format!(
            "  SPOF: {spof} — its failure alone brings the system down\n"
        ));
    }
    render_cuts(&mut out, &report.app_cuts);
    match &report.mgmt {
        None => out.push_str("\nmanagement plane: none (no management section)\n"),
        Some(mgmt) => {
            out.push_str(&format!(
                "\nmanagement plane:\n  baseline coverage: {} component(s)\n",
                mgmt.baseline_covered.len()
            ));
            for spof in mgmt.spofs() {
                out.push_str(&format!(
                    "  SPOF: {spof} — its failure alone destroys all coverage\n"
                ));
            }
            render_cuts(&mut out, &mgmt.cuts);
            if mgmt.uncovered.is_empty() {
                out.push_str("  provably uncovered: none\n");
            } else {
                for u in &mgmt.uncovered {
                    out.push_str(&format!(
                        "  provably uncovered: {} ({})\n",
                        u.name,
                        if u.has_paths {
                            "paths exist but can never hold"
                        } else {
                            "no knowledge path"
                        }
                    ));
                }
            }
            if mgmt.dead_edges.is_empty() {
                out.push_str("  dead edges: none\n");
            } else {
                out.push_str(&format!("  dead edges: {}\n", mgmt.dead_edges.join(", ")));
            }
        }
    }
    out.push_str("\ncriticality (Birnbaum importance):\n");
    for (name, b) in &report.criticality {
        out.push_str(&format!("  {b:>9.6}  {name}\n"));
    }
    if let Some(confs) = confirmations {
        let ok = confs.iter().filter(|(_, c)| c.confirmed).count();
        out.push_str(&format!(
            "\nverification: {ok}/{} finding(s) confirmed by dynamic replay\n",
            confs.len()
        ));
        for (plane, c) in confs.iter().filter(|(_, c)| !c.confirmed) {
            out.push_str(&format!("  UNCONFIRMED [{plane}] {}\n", c.label));
        }
    }
    out
}

fn analyze(
    m: &ParsedModel,
    model_hash: &str,
    opts: &AnalyzeOptions,
    recorder: Option<&dyn Recorder>,
    prov: &mut Provenance,
) -> Result<String, String> {
    let graph = {
        let _s = Span::enter(recorder, Phase::FaultGraphBuild);
        FaultGraph::build(&m.app).map_err(|e| e.to_string())?
    };
    let has_mama = m.mama.component_count() > 0;
    let space = if has_mama {
        ComponentSpace::build(&m.app, &m.mama)
    } else {
        ComponentSpace::app_only(&m.app)
    };
    let table;
    let mut analysis = Analysis::new(&graph, &space)
        .with_policy(opts.policy)
        .with_unmonitored_known(opts.unmonitored_known)
        .with_threads(opts.threads);
    if has_mama {
        let _s = Span::enter(recorder, Phase::KnowCompile);
        table = KnowTable::build(&graph, &m.mama, &space);
        analysis = analysis.with_knowledge(&table);
    }
    if let Some(r) = recorder {
        analysis = analysis.with_recorder(r);
    }

    // Guarded provenance, filled in by the guarded engine only.
    let mut produced: Option<&'static str> = None;
    let mut descents: Vec<(String, String)> = Vec::new();
    let mut estimate: Option<EstimateInfo> = None;
    let dist = match opts.engine.as_str() {
        "enumerate" => analysis.enumerate(),
        "parallel" => analysis.enumerate_parallel(opts.threads),
        "mtbdd" => {
            let compiled = analysis.compile_mtbdd();
            let _s = Span::enter(recorder, Phase::MtbddEval);
            compiled.distribution()
        }
        "montecarlo" => analysis.monte_carlo(MonteCarloOptions {
            samples: opts.samples,
            seed: opts.seed,
        }),
        "importance" => {
            let est = analysis
                .try_importance(ImportanceOptions {
                    samples: opts.samples,
                    seed: opts.seed,
                    bias: opts.is_bias,
                    mixture: opts.is_mixture,
                })
                .map_err(|e| e.to_string())?;
            estimate = Some(est.info);
            est.distribution
        }
        "guarded" => {
            let report = analysis.analyze_guarded(&GuardedOptions {
                budget: opts.budget.to_budget(),
                samples: opts.samples,
                seed: opts.seed,
                threads: opts.threads,
                is_bias: opts.is_bias,
                is_mixture: opts.is_mixture,
                ..GuardedOptions::default()
            });
            produced = Some(report.engine.name());
            descents = report
                .descents
                .iter()
                .map(|d| (d.engine.name().to_string(), d.reason.to_string()))
                .collect();
            estimate = report.estimate;
            report.distribution
        }
        other => return Err(format!("unknown engine `{other}`")),
    };
    let sampled = opts.engine == "montecarlo" || opts.engine == "importance" || estimate.is_some();
    prov.engine = produced.unwrap_or(opts.engine.as_str()).to_string();
    prov.requested = produced.map(|_| "guarded".to_string());
    prov.descents = descents.clone();

    let reward_spec = if m.rewards.is_empty() {
        None
    } else {
        let mut spec = RewardSpec::new();
        for &(t, w) in &m.rewards {
            spec = spec.weight(t, w);
        }
        Some(spec)
    };

    if opts.json {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"fmperf-analysis-v1\",\n");
        out.push_str(&format!("  \"model_hash\": \"{model_hash}\",\n"));
        out.push_str(&format!(
            "  \"engine\": \"{}\",\n",
            produced.unwrap_or(opts.engine.as_str())
        ));
        if produced.is_some() {
            out.push_str("  \"requested\": \"guarded\",\n");
        }
        out.push_str(&format!(
            "  \"components\": {}, \"fallible\": {}, \"states\": {},\n",
            space.len(),
            space.fallible_indices().len(),
            dist.states_explored()
        ));
        if sampled {
            out.push_str(&format!("  \"seed\": {},\n", opts.seed));
        }
        if let Some(est) = &estimate {
            out.push_str(&format!(
                "  \"estimate\": {{\"failed_mean\": {}, \"failed_half_width\": {}, \
                 \"batches\": {}, \"samples\": {}{}}},\n",
                est.failed_mean,
                est.failed_half_width,
                est.batches,
                est.samples,
                is_json_fields(est)
            ));
        }
        if !descents.is_empty() {
            out.push_str("  \"descents\": [\n");
            for (i, (engine, reason)) in descents.iter().enumerate() {
                let comma = if i + 1 < descents.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"engine\": \"{engine}\", \"reason\": \"{}\"}}{comma}\n",
                    json_escape(reason)
                ));
            }
            out.push_str("  ],\n");
        }
        out.push_str(&format!("  \"failed\": {},\n", dist.failed_probability()));
        if let Some(spec) = &reward_spec {
            let _s = Span::enter(recorder, Phase::RewardAggregation);
            let configs = dist.configurations();
            let perfs = solve_configurations(&m.app, &configs).map_err(|e| e.to_string())?;
            let reward: f64 = configs
                .iter()
                .zip(&perfs)
                .map(|(c, p)| dist.probability(c) * spec.reward(p))
                .sum();
            out.push_str(&format!("  \"reward\": {reward},\n"));
        }
        out.push_str("  \"configurations\": [\n");
        let ranked = dist.ranked();
        for (i, (c, p)) in ranked.iter().enumerate() {
            let comma = if i + 1 < ranked.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"probability\": {p}}}{comma}\n",
                json_escape(&c.label(&m.app))
            ));
        }
        out.push_str("  ]\n}\n");
        return Ok(out);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "components: {} total, {} fallible; engine: {}, states: {}\n",
        space.len(),
        space.fallible_indices().len(),
        match produced {
            Some(p) => format!("guarded -> {p}"),
            None => opts.engine.clone(),
        },
        dist.states_explored(),
    ));
    for (engine, reason) in &descents {
        out.push_str(&format!("descended past {engine}: {reason}\n"));
    }
    if let Some(est) = &estimate {
        out.push_str(&format!(
            "estimate: P[failed] = {:.6} ± {:.6} (95% CI, {} batches, {} samples, seed {})\n",
            est.failed_mean, est.failed_half_width, est.batches, est.samples, est.seed
        ));
        if let Some(is) = &est.is {
            out.push_str(&format!(
                "importance sampling: ess {:.1}, weight cv {:.4}, mean weight {:.4}, bias {}, mixture {}\n",
                is.ess, is.weight_cv, is.mean_weight, is.bias, is.mixture
            ));
        }
    }
    out.push('\n');
    out.push_str("configurations:\n");
    out.push_str(&dist.table(&m.app));

    if let Some(spec) = &reward_spec {
        let _s = Span::enter(recorder, Phase::RewardAggregation);
        let configs = dist.configurations();
        let perfs = solve_configurations(&m.app, &configs).map_err(|e| e.to_string())?;
        let report = StudyReport::new(&m.app, &dist, &perfs, spec);
        out.push_str("\nreward report:\n");
        out.push_str(&format!("{report}"));
    }
    Ok(out)
}

/// Options of the `campaign` subcommand.
struct CampaignCliOptions {
    pairwise: bool,
    json: bool,
    samples: u64,
    seed: u64,
    policy: KnowPolicy,
    unmonitored_known: bool,
    threads: usize,
    budget: BudgetFlags,
    obs: ObsFlags,
}

/// One scenario's JSON object (shared by the baseline and the scenario
/// list).
fn scenario_json(s: &ScenarioAnalysis, baseline_failed: f64, indent: &str) -> String {
    let mut out = String::from("{\n");
    let mut field = |line: String| {
        out.push_str(indent);
        out.push_str("  ");
        out.push_str(&line);
        out.push('\n');
    };
    field(format!("\"label\": \"{}\",", json_escape(&s.label)));
    field("\"ok\": true,".into());
    field(format!("\"engine\": \"{}\",", s.engine.name()));
    if !s.descents.is_empty() {
        let items: Vec<String> = s
            .descents
            .iter()
            .map(|d| {
                format!(
                    "{{\"engine\": \"{}\", \"reason\": \"{}\"}}",
                    d.engine.name(),
                    json_escape(&d.reason.to_string())
                )
            })
            .collect();
        field(format!("\"descents\": [{}],", items.join(", ")));
    }
    if let Some(est) = &s.estimate {
        field(format!(
            "\"estimate\": {{\"failed_mean\": {}, \"failed_half_width\": {}, \
             \"batches\": {}, \"samples\": {}, \"seed\": {}{}}},",
            est.failed_mean,
            est.failed_half_width,
            est.batches,
            est.samples,
            est.seed,
            is_json_fields(est)
        ));
    }
    field(format!("\"failed\": {},", s.failed_probability));
    field(format!(
        "\"delta_failed\": {},",
        s.failed_probability - baseline_failed
    ));
    field(format!("\"coverage\": {},", s.covered.len()));
    field(format!("\"coverage_loss\": {},", s.coverage_loss()));
    let uncovered: Vec<String> = s
        .newly_uncovered
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    if let Some(r) = s.reward {
        field(format!("\"reward\": {r},"));
    }
    if let Some(d) = s.reward_delta {
        field(format!("\"reward_delta\": {d},"));
    }
    field(format!("\"newly_uncovered\": [{}]", uncovered.join(", ")));
    out.push_str(indent);
    out.push('}');
    out
}

fn campaign_cmd(
    m: &ParsedModel,
    opts: &CampaignCliOptions,
    recorder: Option<&dyn Recorder>,
    prov: &mut Provenance,
) -> Result<String, String> {
    if m.mama.component_count() == 0 {
        return Err("campaign needs a model with a management architecture".into());
    }
    let graph = {
        let _s = Span::enter(recorder, Phase::FaultGraphBuild);
        FaultGraph::build(&m.app).map_err(|e| e.to_string())?
    };
    let reward_spec = if m.rewards.is_empty() {
        None
    } else {
        let mut spec = RewardSpec::new();
        for &(t, w) in &m.rewards {
            spec = spec.weight(t, w);
        }
        Some(spec)
    };
    let copts = CampaignOptions {
        guarded: GuardedOptions {
            budget: opts.budget.to_budget(),
            samples: opts.samples,
            seed: opts.seed,
            threads: opts.threads,
            ..GuardedOptions::default()
        },
        pairwise: opts.pairwise,
        policy: opts.policy,
        unmonitored_known: opts.unmonitored_known,
    };
    // Per-scenario progress lines go to stderr only when someone is
    // watching (stderr is a terminal) and the main output is not being
    // piped as JSON.
    let show_progress = std::io::stderr().is_terminal() && !opts.json;
    let progress_fn = |p: &ScenarioProgress<'_>| {
        eprintln!(
            "campaign [{}/{}] {}: {} in {}",
            p.index,
            p.total,
            p.label,
            p.engine.map_or("failed", |e| e.name()),
            human_nanos(p.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64),
        );
    };
    let progress: Option<&dyn Fn(&ScenarioProgress<'_>)> = if show_progress {
        Some(&progress_fn)
    } else {
        None
    };
    let report = run_campaign_observed(
        &graph,
        &m.mama,
        reward_spec.as_ref(),
        &copts,
        recorder,
        progress,
    );
    let base = &report.baseline;
    prov.engine = base.engine.name().to_string();
    prov.descents = base
        .descents
        .iter()
        .map(|d| (d.engine.name().to_string(), d.reason.to_string()))
        .collect();

    if opts.json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"pairwise\": {}, \"seed\": {}, \"scenarios_run\": {},\n",
            opts.pairwise,
            opts.seed,
            report.scenarios.len()
        ));
        out.push_str(&format!(
            "  \"baseline\": {},\n",
            scenario_json(base, base.failed_probability, "  ")
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in report.scenarios.iter().enumerate() {
            let comma = if i + 1 < report.scenarios.len() {
                ","
            } else {
                ""
            };
            match &s.result {
                Ok(a) => out.push_str(&format!(
                    "    {}{comma}\n",
                    scenario_json(a, base.failed_probability, "    ")
                )),
                Err(e) => out.push_str(&format!(
                    "    {{\"label\": \"{}\", \"ok\": false, \"error\": \"{}\"}}{comma}\n",
                    json_escape(&s.label),
                    json_escape(e)
                )),
            }
        }
        out.push_str("  ]\n}\n");
        return Ok(out);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "campaign: {} scenario(s) ({})\n",
        report.scenarios.len(),
        if opts.pairwise {
            "single + pairwise injections"
        } else {
            "single injections"
        }
    ));
    out.push_str(&format!(
        "baseline: engine {}, P[failed] {:.6}, coverage {} component(s){}\n\n",
        base.engine.name(),
        base.failed_probability,
        base.covered.len(),
        match base.reward {
            Some(r) => format!(", reward {r:.6}"),
            None => String::new(),
        }
    ));
    let has_reward = base.reward.is_some();
    out.push_str(&format!(
        "{:<44} {:<18} {:>10} {:>10} {:>9}{}  newly uncovered\n",
        "scenario",
        "engine",
        "P[failed]",
        "dP",
        "cov-loss",
        if has_reward { "    dreward" } else { "" }
    ));
    for s in &report.scenarios {
        match &s.result {
            Ok(a) => {
                let uncovered = if a.newly_uncovered.is_empty() {
                    "-".to_string()
                } else {
                    a.newly_uncovered.join(", ")
                };
                out.push_str(&format!(
                    "{:<44} {:<18} {:>10.6} {:>+10.6} {:>9}{}  {}\n",
                    a.label,
                    a.engine.name(),
                    a.failed_probability,
                    a.failed_probability - base.failed_probability,
                    a.coverage_loss(),
                    match a.reward_delta {
                        Some(d) => format!(" {d:>+10.6}"),
                        None if has_reward => format!(" {:>10}", "-"),
                        None => String::new(),
                    },
                    uncovered
                ));
            }
            Err(e) => {
                out.push_str(&format!("{:<44} FAILED: {e}\n", s.label));
            }
        }
    }
    let failures = report.failures().count();
    if failures > 0 {
        out.push_str(&format!("\n{failures} scenario(s) failed to analyse\n"));
    }
    Ok(out)
}

/// Options of the `sweep` subcommand.
struct SweepOptions {
    component: Option<String>,
    from: f64,
    to: f64,
    steps: usize,
    threads: usize,
    json: bool,
    policy: KnowPolicy,
    unmonitored_known: bool,
    obs: ObsFlags,
}

fn sweep_cmd(
    m: &ParsedModel,
    opts: &SweepOptions,
    recorder: Option<&dyn Recorder>,
    prov: &mut Provenance,
) -> Result<String, String> {
    let name = opts
        .component
        .as_deref()
        .ok_or("sweep needs --component <name>")?;
    let graph = {
        let _s = Span::enter(recorder, Phase::FaultGraphBuild);
        FaultGraph::build(&m.app).map_err(|e| e.to_string())?
    };
    let has_mama = m.mama.component_count() > 0;
    let space = if has_mama {
        ComponentSpace::build(&m.app, &m.mama)
    } else {
        ComponentSpace::app_only(&m.app)
    };
    let table;
    let mut analysis = Analysis::new(&graph, &space)
        .with_policy(opts.policy)
        .with_unmonitored_known(opts.unmonitored_known)
        .with_threads(opts.threads);
    if has_mama {
        let _s = Span::enter(recorder, Phase::KnowCompile);
        table = KnowTable::build(&graph, &m.mama, &space);
        analysis = analysis.with_knowledge(&table);
    }
    if let Some(r) = recorder {
        analysis = analysis.with_recorder(r);
    }
    prov.engine = "mtbdd".into();
    let component = (0..space.len())
        .find(|&ix| space.name(ix) == name)
        .ok_or_else(|| format!("unknown component `{name}`"))?;

    let compiled = analysis.compile_mtbdd();
    let spec = SweepSpec {
        component,
        from: opts.from,
        to: opts.to,
        steps: opts.steps,
        threads: opts.threads,
    };
    let points = {
        let _s = Span::enter(recorder, Phase::MtbddEval);
        fmperf::core::sweep(&compiled, &spec).map_err(|e| e.to_string())?
    };

    // Configurations never change across the sweep, so the per-config
    // LQN solves happen exactly once.
    let rewards: Option<Vec<f64>> = if m.rewards.is_empty() {
        None
    } else {
        let _s = Span::enter(recorder, Phase::RewardAggregation);
        let perfs =
            solve_configurations(&m.app, compiled.configurations()).map_err(|e| e.to_string())?;
        let mut spec = RewardSpec::new();
        for &(t, w) in &m.rewards {
            spec = spec.weight(t, w);
        }
        Some(perfs.iter().map(|p| spec.reward(p)).collect())
    };
    let failed_of = |probs: &[f64]| -> f64 {
        compiled
            .configurations()
            .iter()
            .zip(probs)
            .filter(|(c, _)| c.is_failed())
            .map(|(_, &p)| p)
            .sum()
    };
    let reward_of = |probs: &[f64]| -> Option<f64> {
        rewards
            .as_ref()
            .map(|r| probs.iter().zip(r).map(|(p, w)| p * w).sum())
    };

    let mut out = String::new();
    if opts.json {
        out.push_str("{\n");
        out.push_str(&format!("  \"component\": \"{name}\",\n"));
        out.push_str(&format!(
            "  \"from\": {}, \"to\": {}, \"steps\": {},\n",
            opts.from, opts.to, opts.steps
        ));
        out.push_str(&format!(
            "  \"nodes\": {}, \"configurations\": {},\n",
            compiled.node_count(),
            compiled.configurations().len()
        ));
        out.push_str("  \"points\": [\n");
        for (i, pt) in points.iter().enumerate() {
            let comma = if i + 1 < points.len() { "," } else { "" };
            match reward_of(&pt.probabilities) {
                Some(r) => out.push_str(&format!(
                    "    {{\"availability\": {}, \"failed\": {}, \"reward\": {}}}{comma}\n",
                    pt.availability,
                    failed_of(&pt.probabilities),
                    r
                )),
                None => out.push_str(&format!(
                    "    {{\"availability\": {}, \"failed\": {}}}{comma}\n",
                    pt.availability,
                    failed_of(&pt.probabilities)
                )),
            }
        }
        out.push_str("  ]\n}\n");
    } else {
        out.push_str(&format!(
            "sweep `{name}` availability {} → {} in {} steps \
             (compiled MTBDD: {} nodes, {} configurations)\n\n",
            opts.from,
            opts.to,
            opts.steps,
            compiled.node_count(),
            compiled.configurations().len()
        ));
        match rewards {
            Some(_) => out.push_str("availability    P[failed]       reward\n"),
            None => out.push_str("availability    P[failed]\n"),
        }
        for pt in &points {
            match reward_of(&pt.probabilities) {
                Some(r) => out.push_str(&format!(
                    "{:>12.6} {:>12.6} {:>12.6}\n",
                    pt.availability,
                    failed_of(&pt.probabilities),
                    r
                )),
                None => out.push_str(&format!(
                    "{:>12.6} {:>12.6}\n",
                    pt.availability,
                    failed_of(&pt.probabilities)
                )),
            }
        }
    }
    Ok(out)
}

/// Options of the `profile` subcommand.
struct ProfileOptions {
    samples: u64,
    seed: u64,
    threads: usize,
    json: bool,
    policy: KnowPolicy,
    unmonitored_known: bool,
    trace_out: Option<String>,
}

/// The engines `profile` attempts: the two exact ones, then the two
/// samplers.  Each gets a fresh metrics recorder; the trace recorder is
/// shared so `--trace-out` shows the runs back to back.
const PROFILE_ENGINES: [&str; 4] = ["exact", "mtbdd", "montecarlo", "importance"];

/// Runs every applicable engine on the model and renders a comparative
/// phase/counter breakdown.  Inapplicable engines are reported with
/// their refusal reason instead of being silently dropped.
fn profile_cmd(
    m: &ParsedModel,
    path: &str,
    opts: &ProfileOptions,
    setup_rec: Option<&dyn Recorder>,
    setup: &MetricsRecorder,
    trace: &TraceRecorder,
) -> Result<String, String> {
    let graph = {
        let _s = Span::enter(setup_rec, Phase::FaultGraphBuild);
        FaultGraph::build(&m.app).map_err(|e| e.to_string())?
    };
    let has_mama = m.mama.component_count() > 0;
    let space = if has_mama {
        ComponentSpace::build(&m.app, &m.mama)
    } else {
        ComponentSpace::app_only(&m.app)
    };
    let table;
    let mut analysis = Analysis::new(&graph, &space)
        .with_policy(opts.policy)
        .with_unmonitored_known(opts.unmonitored_known)
        .with_threads(opts.threads);
    if has_mama {
        let _s = Span::enter(setup_rec, Phase::KnowCompile);
        table = KnowTable::build(&graph, &m.mama, &space);
        analysis = analysis.with_knowledge(&table);
    }

    let metrics: Vec<MetricsRecorder> = PROFILE_ENGINES
        .iter()
        .map(|_| MetricsRecorder::new())
        .collect();
    let tees: Vec<TeeRecorder<'_>> = metrics
        .iter()
        .map(|rec| TeeRecorder::new(rec, trace))
        .collect();
    // (failed probability, states explored) per engine, or the reason
    // the engine is inapplicable to this model — plus the effective
    // thread and lane widths that run used.
    type EngineRun = (Result<(f64, u64), String>, Duration, usize, usize);
    let mut runs: Vec<EngineRun> = Vec::new();
    for (i, &name) in PROFILE_ENGINES.iter().enumerate() {
        let observed = analysis.with_recorder(&tees[i]);
        // Every profiled engine is a single-threaded run today (so the
        // per-engine breakdown stays comparable); the lane width is the
        // data-parallel factor inside that one thread.
        let (threads, lanes) = match name {
            "exact" => (
                1,
                if observed.prefers_compiled() && observed.compile().is_some() {
                    fmperf::core::LANE_WIDTH
                } else {
                    1
                },
            ),
            "mtbdd" => (1, fmperf::bdd::BATCH_LANES),
            "montecarlo" | "importance" => (1, 1),
            _ => unreachable!("PROFILE_ENGINES is exhaustive"),
        };
        let start = Instant::now();
        let result: Result<ConfigDistribution, String> = match name {
            "exact" => observed.try_enumerate().map_err(|e| e.to_string()),
            "mtbdd" => observed
                .try_compile_mtbdd()
                .map(|compiled| {
                    let _s = Span::enter(Some(&tees[i] as &dyn Recorder), Phase::MtbddEval);
                    compiled.distribution()
                })
                .map_err(|e| e.to_string()),
            "montecarlo" => observed
                .try_monte_carlo(MonteCarloOptions {
                    samples: opts.samples,
                    seed: opts.seed,
                })
                .map_err(|e| e.to_string()),
            "importance" => observed
                .try_importance(ImportanceOptions {
                    samples: opts.samples,
                    seed: opts.seed,
                    ..ImportanceOptions::default()
                })
                .map(|est| est.distribution)
                .map_err(|e| e.to_string()),
            _ => unreachable!("PROFILE_ENGINES is exhaustive"),
        };
        let elapsed = start.elapsed();
        runs.push((
            result.map(|d| (d.failed_probability(), d.states_explored())),
            elapsed,
            threads,
            lanes,
        ));
    }
    if let Some(out_path) = &opts.trace_out {
        write_text_file(out_path, &trace.chrome_trace_json())?;
    }

    if opts.json {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"fmperf-profile-v1\",\n");
        out.push_str(&format!("  \"model\": \"{}\",\n", json_escape(path)));
        out.push_str(&format!(
            "  \"components\": {}, \"fallible\": {},\n",
            space.len(),
            space.fallible_indices().len()
        ));
        out.push_str(&format!(
            "  \"setup\": {{\"phases\": {}}},\n",
            phases_json(setup)
        ));
        out.push_str("  \"engines\": [\n");
        for (i, &name) in PROFILE_ENGINES.iter().enumerate() {
            let (result, elapsed, threads, lanes) = &runs[i];
            let comma = if i + 1 < PROFILE_ENGINES.len() {
                ","
            } else {
                ""
            };
            match result {
                Ok((failed, states)) => out.push_str(&format!(
                    "    {{\"engine\": \"{name}\", \"ok\": true, \"elapsed_ns\": {}, \
                     \"ns_per_state\": {}, \"threads\": {threads}, \"lanes\": {lanes}, \
                     \"failed\": {failed}, \"states\": {states}, \"phases\": {}, \
                     \"counters\": {}}}{comma}\n",
                    elapsed.as_nanos(),
                    elapsed.as_nanos() as f64 / (*states).max(1) as f64,
                    phases_json(&metrics[i]),
                    counters_json(&metrics[i]),
                )),
                Err(reason) => out.push_str(&format!(
                    "    {{\"engine\": \"{name}\", \"ok\": false, \"error\": \"{}\"}}{comma}\n",
                    json_escape(reason)
                )),
            }
        }
        out.push_str("  ]\n}\n");
        return Ok(out);
    }

    let mut out = format!(
        "profile: {path} — {} components, {} fallible\nsetup:\n{}",
        space.len(),
        space.fallible_indices().len(),
        metrics_table(setup)
    );
    for (i, &name) in PROFILE_ENGINES.iter().enumerate() {
        let (result, elapsed, threads, lanes) = &runs[i];
        match result {
            Ok((failed, states)) => {
                out.push_str(&format!(
                    "\nengine {name}: ok in {} — P[failed] {failed:.6}, states {states} \
                     ({:.1} ns/state, {threads} thread{}, {lanes} lane{})\n{}",
                    human_nanos(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64),
                    elapsed.as_nanos() as f64 / (*states).max(1) as f64,
                    if *threads == 1 { "" } else { "s" },
                    if *lanes == 1 { "" } else { "s" },
                    metrics_table(&metrics[i])
                ));
            }
            Err(reason) => {
                out.push_str(&format!("\nengine {name}: skipped — {reason}\n"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = "processor pc cores inf\nprocessor p1 fail 0.1\n\
        users u on pc population 5 think 1.0\ntask s on p1 fail 0.1\n\
        entry eu of u\nentry es of s demand 0.2\ncall eu -> es\nreward u 1.0\n";

    /// A fresh directory for one test's files.  Tests run in parallel
    /// threads of one process, so the pid alone would hand every test
    /// the same directory (and one test's cleanup would delete another's
    /// fixtures); the counter keys each call apart.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fmperf-cli-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn with_model<T>(f: impl FnOnce(&str) -> T) -> T {
        with_src("test", MODEL, f)
    }

    #[test]
    fn check_reports_counts() {
        let out = with_model(|p| run(&["check".into(), p.into()])).unwrap();
        assert!(out.contains("ok (2 tasks, 2 entries"));
    }

    #[test]
    fn analyze_produces_reward() {
        let out = with_model(|p| run(&["analyze".into(), p.into()])).unwrap();
        assert!(out.contains("expected steady-state reward rate"));
        assert!(out.contains("configurations:"));
    }

    #[test]
    fn analyze_json_reports_model_hash() {
        let out = with_model(|p| run(&["analyze".into(), p.into(), "--json".into()])).unwrap();
        assert!(out.contains("\"model_hash\": \"sha256:"), "{out}");
        // The hash matches what the serve cache would key on.
        let expected = fmperf::serve::ModelSession::open(MODEL).unwrap();
        assert!(out.contains(expected.hash()), "{out}");
    }

    #[test]
    fn degraded_guarded_json_reports_samples_and_ci() {
        // Caps small enough that every exact rung refuses: the MC rung
        // must report the samples it drew as the states explored, plus
        // its batch-means CI.
        let out = with_model(|p| {
            run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "guarded".into(),
                "--budget-states".into(),
                "1".into(),
                "--budget-nodes".into(),
                "1".into(),
                "--budget-memo".into(),
                "1".into(),
                "--samples".into(),
                "20000".into(),
                "--seed".into(),
                "3".into(),
                "--json".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("\"engine\": \"monte-carlo\""), "{out}");
        assert!(out.contains("\"requested\": \"guarded\""), "{out}");
        assert!(out.contains("\"states\": 20000"), "{out}");
        assert!(out.contains("\"failed_half_width\""), "{out}");
        assert!(out.contains("\"batches\""), "{out}");
        assert!(out.contains("\"samples\": 20000"), "{out}");
    }

    #[test]
    fn importance_engine_json_reports_is_diagnostics() {
        let out = with_model(|p| {
            run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "importance".into(),
                "--samples".into(),
                "20000".into(),
                "--seed".into(),
                "7".into(),
                "--json".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("\"schema\": \"fmperf-analysis-v1\""), "{out}");
        assert!(out.contains("\"engine\": \"importance\""), "{out}");
        assert!(out.contains("\"seed\": 7"), "{out}");
        assert!(out.contains("\"samples\": 20000"), "{out}");
        for field in ["ess", "weight_cv", "mean_weight", "bias", "mixture"] {
            assert!(
                out.contains(&format!("\"{field}\": ")),
                "missing {field}: {out}"
            );
        }
    }

    #[test]
    fn importance_engine_text_reports_is_line() {
        let out = with_model(|p| {
            run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "importance".into(),
                "--samples".into(),
                "20000".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("engine: importance"), "{out}");
        assert!(out.contains("estimate: P[failed]"), "{out}");
        assert!(out.contains("importance sampling: ess "), "{out}");
        assert!(out.contains("mean weight"), "{out}");
        assert!(out.contains("configurations:"), "{out}");
    }

    /// Same shape as MODEL but with rare component failures: the guarded
    /// ladder's sampling rung must auto-select importance sampling.
    const RARE: &str = "processor pc cores inf\nprocessor p1 fail 0.00001\n\
        users u on pc population 5 think 1.0\ntask s on p1 fail 0.00001\n\
        entry eu of u\nentry es of s demand 0.2\ncall eu -> es\nreward u 1.0\n";

    #[test]
    fn degraded_guarded_auto_selects_importance_on_rare_models() {
        let out = with_src("rare1", RARE, |p| {
            run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "guarded".into(),
                "--budget-states".into(),
                "1".into(),
                "--budget-nodes".into(),
                "1".into(),
                "--budget-memo".into(),
                "1".into(),
                "--samples".into(),
                "20000".into(),
                "--seed".into(),
                "3".into(),
                "--json".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("\"engine\": \"importance-sampling\""), "{out}");
        assert!(out.contains("\"requested\": \"guarded\""), "{out}");
        assert!(out.contains("\"ess\": "), "{out}");
        assert!(out.contains("\"mean_weight\": "), "{out}");
    }

    #[test]
    fn engines_selectable_and_agree() {
        let (a, b) = with_model(|p| {
            let a = run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "mtbdd".into(),
            ])
            .unwrap();
            let b = run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "parallel".into(),
            ])
            .unwrap();
            (a, b)
        });
        // Same configuration table (states line differs).
        let tail = |s: &str| s.split("configurations:").nth(1).unwrap().to_string();
        assert_eq!(tail(&a), tail(&b));
    }

    #[test]
    fn mtbdd_engine_matches_enumerate() {
        let (a, b) = with_model(|p| {
            let a = run(&[
                "analyze".into(),
                p.into(),
                "--engine".into(),
                "mtbdd".into(),
            ])
            .unwrap();
            let b = run(&["analyze".into(), p.into()]).unwrap();
            (a, b)
        });
        let tail = |s: &str| s.split("configurations:").nth(1).unwrap().to_string();
        assert_eq!(tail(&a), tail(&b));
    }

    #[test]
    fn sweep_text_output() {
        let out = with_model(|p| {
            run(&[
                "sweep".into(),
                p.into(),
                "--component".into(),
                "s".into(),
                "--from".into(),
                "0.5".into(),
                "--to".into(),
                "1".into(),
                "--steps".into(),
                "3".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("compiled MTBDD"), "{out}");
        assert!(out.contains("reward"), "{out}");
        // Three data rows after the header.
        assert_eq!(out.lines().filter(|l| l.starts_with("    ")).count(), 3);
    }

    #[test]
    fn sweep_json_output() {
        let out = with_model(|p| {
            run(&[
                "sweep".into(),
                p.into(),
                "--component".into(),
                "p1".into(),
                "--steps".into(),
                "2".into(),
                "--json".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("\"component\": \"p1\""), "{out}");
        assert!(out.contains("\"points\": ["), "{out}");
        assert!(out.contains("\"reward\""), "{out}");
    }

    #[test]
    fn sweep_rejects_unknown_component() {
        let err = with_model(|p| {
            run(&[
                "sweep".into(),
                p.into(),
                "--component".into(),
                "nope".into(),
            ])
        })
        .unwrap_err();
        assert!(err.contains("unknown component"), "{err}");
    }

    #[test]
    fn dot_targets_render() {
        let out = with_model(|p| run(&["dot".into(), p.into(), "fault".into()])).unwrap();
        assert!(out.starts_with("digraph fault_propagation"));
        let out = with_model(|p| run(&["dot".into(), p.into(), "mama".into()])).unwrap();
        assert!(out.starts_with("digraph mama"));
    }

    #[test]
    fn fmt_is_idempotent() {
        let once = with_model(|p| run(&["fmt".into(), p.into()])).unwrap();
        let dir = scratch_dir("fmt");
        let path = dir.join("m.fmp");
        std::fs::write(&path, &once).unwrap();
        let twice = run(&["fmt".into(), path.to_str().unwrap().into()]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(once, twice);
    }

    /// Saturated users (think 0): parses fine, lints with a warning.
    const WARNY: &str = "processor pc cores inf\nprocessor p1 fail 0.1\n\
        users u on pc population 5 think 0\ntask s on p1 fail 0.1\n\
        entry eu of u\nentry es of s demand 0.2\ncall eu -> es\nreward u 1.0\n";

    /// Reference task with two entries: a lint *error*.
    const BROKEN: &str = "processor pc cores inf\nusers u on pc\n\
        entry a of u\nentry b of u\n";

    fn with_src<T>(tag: &str, src: &str, f: impl FnOnce(&str) -> T) -> T {
        let dir = scratch_dir(tag);
        let path = dir.join("m.fmp");
        std::fs::write(&path, src).unwrap();
        let r = f(path.to_str().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    const CENTRALIZED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/models/paper-centralized.fmp");

    #[test]
    fn audit_text_reports_the_centralized_spofs() {
        let out = run(&["audit".into(), CENTRALIZED.into()]).unwrap();
        assert!(out.contains("structural audit (max order 3)"), "{out}");
        assert!(
            out.contains("SPOF: m1 — its failure alone destroys all coverage"),
            "{out}"
        );
        assert!(out.contains("SPOF: proc5"), "{out}");
        assert!(out.contains("order 2: AppA + AppB"), "{out}");
        assert!(out.contains("criticality (Birnbaum importance)"), "{out}");
    }

    #[test]
    fn audit_json_reports_schema_and_spofs() {
        let out = run(&["audit".into(), CENTRALIZED.into(), "--json".into()]).unwrap();
        assert!(out.contains("\"schema\": \"fmperf-audit-v1\""), "{out}");
        assert!(out.contains("\"spofs\": [\"m1\", \"proc5\"]"), "{out}");
        assert!(out.contains("\"dead_edges\""), "{out}");
        assert!(out.contains("\"birnbaum\""), "{out}");
    }

    #[test]
    fn audit_verify_confirms_every_finding() {
        let out = run(&["audit".into(), CENTRALIZED.into(), "--verify".into()]).unwrap();
        assert!(
            out.contains("verification: 19/19 finding(s) confirmed by dynamic replay"),
            "{out}"
        );
    }

    #[test]
    fn audit_max_order_limits_the_search() {
        let out = run(&[
            "audit".into(),
            CENTRALIZED.into(),
            "--max-order".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(out.contains("max order 1"), "{out}");
        assert!(out.contains("SPOF: m1"), "{out}");
        assert!(!out.contains("order 2:"), "{out}");
    }

    #[test]
    fn audit_rejects_bad_flags() {
        let err = run(&["audit".into(), CENTRALIZED.into(), "--bogus".into()]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = run(&[
            "audit".into(),
            CENTRALIZED.into(),
            "--policy".into(),
            "sometimes".into(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown policy `sometimes`"), "{err}");
    }

    #[test]
    fn failing_lint_json_report_belongs_on_stdout() {
        let lint_json: Vec<String> = vec!["lint".into(), "m.fmp".into(), "--json".into()];
        let lint_fmt: Vec<String> = vec![
            "lint".into(),
            "m.fmp".into(),
            "--format".into(),
            "json".into(),
        ];
        let lint_text: Vec<String> = vec!["lint".into(), "m.fmp".into()];
        let audit_json: Vec<String> = vec!["audit".into(), "m.fmp".into(), "--json".into()];
        assert!(failing_report_belongs_on_stdout(&lint_json, "{\n}"));
        assert!(failing_report_belongs_on_stdout(&lint_fmt, "  {\n}"));
        // Text reports and non-JSON error strings stay on stderr…
        assert!(!failing_report_belongs_on_stdout(&lint_text, "{\n}"));
        assert!(!failing_report_belongs_on_stdout(
            &lint_json,
            "m.fmp: no such file"
        ));
        // …and so do other subcommands' failures.
        assert!(!failing_report_belongs_on_stdout(&audit_json, "{\n}"));
    }

    #[test]
    fn lint_json_flag_is_an_alias_for_format_json() {
        // One fixture for both runs: the report names the file.
        let (a, b) = with_model(|p| {
            (
                run(&["lint".into(), p.into(), "--json".into()]),
                run(&["lint".into(), p.into(), "--format".into(), "json".into()]),
            )
        });
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a, b);
        assert!(a.contains("\"code\": \"FM201\""), "{a}");
    }

    #[test]
    fn lint_threshold_reconfigures_a_rule() {
        // MODEL has 2 fallible components = 4 states: the default FM201
        // note escalates to a blow-up warning once the threshold drops
        // to 4 states.
        let out = with_model(|p| run(&["lint".into(), p.into()])).unwrap();
        assert!(out.contains("note[FM201]"), "{out}");
        let out = with_model(|p| {
            run(&[
                "lint".into(),
                p.into(),
                "--lint-threshold".into(),
                "FM201=4".into(),
            ])
        })
        .unwrap();
        assert!(out.contains("warning[FM201]"), "{out}");
    }

    #[test]
    fn lint_threshold_rejects_bad_specs() {
        let err = with_model(|p| {
            run(&[
                "lint".into(),
                p.into(),
                "--lint-threshold".into(),
                "FM999=1".into(),
            ])
        })
        .unwrap_err();
        assert!(err.contains("FM999"), "{err}");
        let err = with_model(|p| {
            run(&[
                "lint".into(),
                p.into(),
                "--lint-threshold".into(),
                "FM201".into(),
            ])
        })
        .unwrap_err();
        assert!(err.contains("<RULE>=<N>"), "{err}");
    }

    #[test]
    fn lint_passes_clean_model_with_report() {
        let out = with_model(|p| run(&["lint".into(), p.into()])).unwrap();
        assert!(out.contains("note[FM201]"), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_json_format() {
        let out = with_model(|p| run(&["lint".into(), p.into(), "--format".into(), "json".into()]))
            .unwrap();
        assert!(out.contains("\"code\": \"FM201\""), "{out}");
        assert!(out.contains("\"errors\": 0"), "{out}");
    }

    #[test]
    fn lint_fails_on_errors() {
        let err = with_src("broken", BROKEN, |p| run(&["lint".into(), p.into()])).unwrap_err();
        assert!(err.contains("error[FM001]"), "{err}");
    }

    #[test]
    fn lint_deny_warnings_fails_on_warnings() {
        let ok = with_src("warny1", WARNY, |p| run(&["lint".into(), p.into()]));
        assert!(ok.is_ok());
        let err = with_src("warny2", WARNY, |p| {
            run(&["lint".into(), p.into(), "--deny".into(), "warnings".into()])
        })
        .unwrap_err();
        assert!(err.contains("warning[FM211]"), "{err}");
    }

    #[test]
    fn check_fails_on_lint_errors() {
        let err = with_src("broken2", BROKEN, |p| run(&["check".into(), p.into()])).unwrap_err();
        assert!(err.contains("error[FM001]"), "{err}");
    }

    #[test]
    fn check_deny_warnings() {
        let out = with_src("warny3", WARNY, |p| run(&["check".into(), p.into()])).unwrap();
        assert!(out.contains("ok ("), "{out}");
        let err = with_src("warny4", WARNY, |p| {
            run(&["check".into(), p.into(), "--deny".into(), "warnings".into()])
        })
        .unwrap_err();
        assert!(err.contains("warning[FM211]"), "{err}");
    }

    #[test]
    fn analyze_refuses_lint_errors_and_flags_warnings() {
        let err = with_src("broken3", BROKEN, |p| run(&["analyze".into(), p.into()])).unwrap_err();
        assert!(err.contains("error[FM001]"), "{err}");
        let out = with_src("warny5", WARNY, |p| run(&["analyze".into(), p.into()])).unwrap();
        assert!(out.starts_with("lint: 1 warning(s)"), "{out}");
        assert!(out.contains("configurations:"), "{out}");
    }

    #[test]
    fn profile_runs_every_engine() {
        let out = with_model(|p| run(&["profile".into(), p.into()])).unwrap();
        assert!(out.contains("engine exact: ok"), "{out}");
        assert!(out.contains("engine mtbdd: ok"), "{out}");
        assert!(out.contains("engine montecarlo: ok"), "{out}");
        assert!(out.contains("engine importance: ok"), "{out}");
        assert!(out.contains("state-scan"), "{out}");
        assert!(out.contains("mtbdd-compile"), "{out}");
        assert!(out.contains("states-visited"), "{out}");
    }

    #[test]
    fn profile_json_has_schema_and_engines() {
        let out = with_model(|p| run(&["profile".into(), p.into(), "--json".into()])).unwrap();
        assert!(out.contains("\"schema\": \"fmperf-profile-v1\""), "{out}");
        assert!(out.contains("\"engine\": \"exact\""), "{out}");
        assert!(out.contains("\"counters\""), "{out}");
        assert!(out.contains("\"phases\""), "{out}");
    }

    #[test]
    fn metrics_flag_appends_table_and_preserves_result() {
        let (plain, with_metrics) = with_model(|p| {
            let plain = run(&["analyze".into(), p.into()]).unwrap();
            let with_metrics = run(&["analyze".into(), p.into(), "--metrics".into()]).unwrap();
            (plain, with_metrics)
        });
        // Instrumentation must not change the analysis output itself.
        assert!(
            with_metrics.starts_with(&plain),
            "metrics table must append"
        );
        assert!(with_metrics.contains("\nmetrics (engine enumerate):\n"));
        assert!(with_metrics.contains("states-visited"));
    }

    #[test]
    fn metrics_json_and_trace_files_are_written() {
        let dir = scratch_dir("obs");
        let mpath = dir.join("metrics.json");
        let tpath = dir.join("trace.json");
        with_model(|p| {
            run(&[
                "analyze".into(),
                p.into(),
                "--metrics-json".into(),
                mpath.to_str().unwrap().into(),
                "--trace-out".into(),
                tpath.to_str().unwrap().into(),
            ])
            .unwrap();
        });
        let metrics = std::fs::read_to_string(&mpath).unwrap();
        assert!(
            metrics.contains("\"schema\": \"fmperf-metrics-v1\""),
            "{metrics}"
        );
        assert!(metrics.contains("\"states-visited\""), "{metrics}");
        assert!(metrics.contains("\"descents\""), "{metrics}");
        let trace = std::fs::read_to_string(&tpath).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("\"ph\": \"X\""), "{trace}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_flag_is_rejected() {
        let err = with_model(|p| run(&["analyze".into(), p.into(), "--bogus".into()])).unwrap_err();
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&["check".into(), "/nonexistent/x.fmp".into()]).unwrap_err();
        assert!(err.contains("cannot read"));
    }
}
