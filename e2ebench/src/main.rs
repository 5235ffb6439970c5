//! `e2ebench`: the end-to-end benchmark of the fmperf daemon.
//!
//! One run starts `fmperf serve` (one worker thread) in a process of
//! its own, answers the workload's warm-up requests, drives the timed
//! phase over loopback from this process (at most two connections),
//! stops the daemon, checks every answer against a computation made
//! apart from the engine that produced it, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 1` a
//! second part replays the run's requests in-process through the
//! layers' public functions and reports per-layer metrics instead.
//!
//! Usage (see README.md; `run.py` builds the daemon and this binary):
//!
//! ```text
//! e2ebench --fmperf PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod check;
mod client;
mod daemon;
mod gen;
mod json;
mod stats;
mod trace;

use client::Sample;
use daemon::Daemon;
use gen::{Kind, Plan, Request, Timed};
use json::{quote, Json};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Client connections (and threads) on the open-loop workloads: the
/// host's two cores.
const CONNS: usize = 2;

/// Parsed command line.
struct Args {
    fmperf: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fmperf: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        out: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--fmperf" => args.fmperf = value()?.into(),
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = value()?.into(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.fmperf.as_os_str().is_empty() || args.out.as_os_str().is_empty() || args.seconds == 0 {
        return Err("usage: e2ebench --fmperf PATH --workload NAME --seed N \
                    --seconds S --trace 0|1 --out DIR"
            .into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One answered request: what was sent, how it went, and the parsed
/// body of a `200` reply.
pub struct Answer<'a> {
    /// The request.
    pub req: &'a Request,
    /// Its timing and raw reply.
    pub sample: Sample,
    /// The parsed body, when the status was `200` and it parsed.
    pub json: Option<Json>,
}

impl Answer<'_> {
    fn new(req: &Request, sample: Sample) -> Answer<'_> {
        let json = (sample.status == 200)
            .then(|| Json::parse(&sample.body).ok())
            .flatten();
        Answer { req, sample, json }
    }

    /// The request's class: endpoint and model shape.
    fn class(&self) -> String {
        let kind = match self.req.kind {
            Kind::Analyze => "analyze",
            Kind::Sweep => "sweep",
            Kind::Campaign { pairwise: false } => "campaign",
            Kind::Campaign { pairwise: true } => "campaign-pairwise",
        };
        format!("{kind} {}", self.req.model.name())
    }

    /// Scenarios this answer analysed: a campaign's injection
    /// scenarios, one per sweep point, one for an analyze.
    fn scenarios(&self) -> usize {
        let Some(j) = &self.json else { return 0 };
        match self.req.kind {
            Kind::Analyze => 1,
            Kind::Sweep => j.get("points").map_or(0, |p| p.arr().len()),
            Kind::Campaign { .. } => j.get("scenarios").map_or(0, |s| s.arr().len()),
        }
    }
}

/// One metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Starts the daemon and answers the warm-up requests; returns the
/// daemon, the set-up time and the warm-up answers.
fn set_up<'a>(args: &Args, plan: &'a Plan) -> Result<(Daemon, f64, Vec<Answer<'a>>), String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(&args.fmperf)?;
    let mut warm = Vec::with_capacity(plan.warmup.len());
    for req in &plan.warmup {
        let a = Answer::new(req, client::send(daemon.addr, req, Instant::now()));
        if a.json.is_none() {
            return Err(format!(
                "warm-up request {} on {} failed: {} {}",
                req.target(),
                req.model.name(),
                a.sample.status,
                a.sample.body
            ));
        }
        warm.push(a);
    }
    Ok((daemon, t0.elapsed().as_secs_f64(), warm))
}

fn run(args: &Args) -> Result<String, String> {
    let plan = gen::plan(&args.workload, args.seed, args.seconds).ok_or(format!(
        "unknown workload `{}` (one of {})",
        args.workload,
        gen::WORKLOADS.join(", ")
    ))?;

    // Set up several times; the last daemon stays up for the timed
    // phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let (daemon, secs, warm) = set_up(args, &plan)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            daemon.stop()?;
        } else {
            kept = Some((daemon, warm));
        }
    }
    let (daemon, warm) = kept.expect("at least one set-up");
    let cache_before = args.trace.then(|| daemon.get("/debug/cache")).transpose()?;

    // Timed phase.
    let cpu0 = daemon.cpu_time();
    let start = Instant::now() + Duration::from_millis(20);
    let answers: Vec<Answer<'_>> = match &plan.timed {
        Timed::Open { requests, due } => {
            client::open_loop(daemon.addr, requests, due, CONNS, start)
                .into_iter()
                .zip(requests)
                .map(|(s, r)| Answer::new(r, s))
                .collect()
        }
        Timed::Closed { passes } => {
            let now = Instant::now();
            if start > now {
                std::thread::sleep(start - now);
            }
            client::closed_loop(daemon.addr, passes, args.seconds, start)
                .into_iter()
                .map(|(r, s)| Answer::new(r, s))
                .collect()
        }
    };
    let end = answers.iter().map(|a| a.sample.done).max().unwrap_or(start);
    let cpu = daemon.cpu_time().saturating_sub(cpu0);
    let peak_rss_mb = daemon.peak_rss_mb();
    let cache_after = args.trace.then(|| daemon.get("/debug/cache")).transpose()?;
    daemon.stop()?;

    // Checks run after the daemon is gone, so they never compete with
    // it for the cores.
    let verdict = check::check(&args.workload, &warm, &answers);
    for msg in verdict.messages.iter().take(20) {
        eprintln!("e2ebench: check failed: {msg}");
    }
    let attempted = answers.len();
    let failed = answers
        .iter()
        .enumerate()
        .filter(|(i, a)| a.json.is_none() || verdict.bad.contains(i))
        .count();

    let wall = end.saturating_duration_since(start).as_secs_f64().max(1e-9);
    let ok: Vec<&Answer<'_>> = answers.iter().filter(|a| a.json.is_some()).collect();
    let lat_ms: Vec<f64> = ok
        .iter()
        .map(|a| a.sample.latency().as_secs_f64() * 1e3)
        .collect();
    let late_ms: Vec<f64> = answers
        .iter()
        .map(|a| a.sample.late().as_secs_f64() * 1e3)
        .collect();
    // Time to a ±10% 95% interval per request; an exact answer counts
    // its own wall time.
    let to_10pct: Vec<f64> = ok
        .iter()
        .map(|a| {
            let secs = a.sample.latency().as_secs_f64();
            let est = a.json.as_ref().and_then(|j| j.get("estimate"));
            match est.and_then(|e| Some((e.f("failed_half_width")?, e.f("failed_mean")?))) {
                Some((hw, mean)) if mean > 0.0 => secs * (hw / mean / 0.10).powi(2),
                _ => secs,
            }
        })
        .collect();
    let scenarios: usize = ok.iter().map(|a| a.scenarios()).sum();
    let end_to_end: Vec<Metric> = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("latency_p50_ms", stats::median(&lat_ms), "ms"),
        (
            "cpu_ms_per_op",
            cpu.as_secs_f64() * 1e3 / ok.len().max(1) as f64,
            "ms",
        ),
        ("scenarios_per_s", scenarios as f64 / wall, "scenarios/s"),
        ("throughput_ops_s", ok.len() as f64 / wall, "ops/s"),
        ("time_to_10pct_s", stats::mean(&to_10pct), "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    summarize(&args.workload, &answers);
    let (metrics, replay_mismatches) = if args.trace {
        let (layer, mismatches) = trace::run(
            args,
            &warm,
            &answers,
            cache_before.as_deref(),
            cache_after.as_deref(),
        )?;
        for msg in mismatches.iter().take(20) {
            eprintln!("e2ebench: {msg}");
        }
        beside_untraced(args, &end_to_end);
        (layer, mismatches)
    } else {
        (end_to_end, Vec::new())
    };

    let correct = verdict.messages.is_empty() && replay_mismatches.is_empty();
    let figures = [
        ("setup_s", stats::median(&setups)),
        ("latency_p90_ms", stats::percentile(&lat_ms, 0.90)),
        ("late_p50_ms", stats::median(&late_ms)),
        ("late_p99_ms", stats::percentile(&late_ms, 0.99)),
        ("late_max_ms", late_ms.iter().copied().fold(0.0, f64::max)),
    ];
    report(args, &metrics, &figures, attempted, failed, correct)?;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(&metrics)
    ))
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A finite JSON number.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Per-model latency medians on stderr, so a run shows where its time
/// went without the traced replay.
fn summarize(workload: &str, answers: &[Answer<'_>]) {
    let mut by: std::collections::BTreeMap<String, Vec<[f64; 4]>> = Default::default();
    for a in answers {
        by.entry(a.class()).or_default().push([
            a.sample.latency().as_secs_f64() * 1e3,
            timing(a, "parse_ns"),
            timing(a, "compile_ns"),
            timing(a, "eval_ns"),
        ]);
    }
    eprintln!(
        "e2ebench: {workload}: {} timed requests; medians in ms (daemon parse, compile, eval)",
        answers.len()
    );
    for (k, v) in by {
        let col = |i: usize| stats::median(&v.iter().map(|r| r[i]).collect::<Vec<_>>());
        eprintln!(
            "  {k:<36} n={:<5} latency={:>9.3} parse={:>8.3} compile={:>9.3} eval={:>9.3}",
            v.len(),
            col(0),
            col(1),
            col(2),
            col(3)
        );
    }
}

/// Prints this traced run's end-to-end figures beside the medians of
/// the untraced runs of the same workload already in `runs.jsonl`.
fn beside_untraced(args: &Args, traced: &[Metric]) {
    let log = std::fs::read_to_string(args.out.join("runs.jsonl")).unwrap_or_default();
    let runs: Vec<Json> = log
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|r| {
            r.get("workload").and_then(Json::str) == Some(args.workload.as_str())
                && r.get("trace") == Some(&Json::Bool(false))
        })
        .collect();
    eprintln!(
        "e2ebench: end-to-end, this traced run vs the median of {} untraced runs:",
        runs.len()
    );
    for (name, value, unit) in traced {
        let untraced: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.f("value"))
            .collect();
        eprintln!(
            "  {name:<18} {value:>12.4} {:>12.4} {unit}",
            stats::median(&untraced)
        );
    }
}

/// A daemon-reported `timings` field of an answer, in milliseconds.
fn timing(a: &Answer<'_>, field: &str) -> f64 {
    a.json
        .as_ref()
        .and_then(|j| j.get("timings"))
        .and_then(|t| t.f(field))
        .map_or(0.0, |ns| ns / 1e6)
}

/// Appends the run's report line to `<out>/runs.jsonl`: the run's
/// identity, its outcome, unbounded `figures` (set-up time, the latency
/// tail, generator lateness) and every metric.
fn report(
    args: &Args,
    metrics: &[Metric],
    figures: &[(&str, f64)],
    attempted: usize,
    failed: usize,
    correct: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(parallelism);
    let commit = std::env::var("E2EBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let figures: String = figures
        .iter()
        .map(|(name, value)| format!("{}: {}, ", quote(name), num(*value)))
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \
         \"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"correct\": {correct}, \
         {figures}\"metrics\": {}}}\n",
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        quote(&commit),
        metrics_json(metrics)
    );
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("runs.jsonl"))
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append run report: {e}"))
}
