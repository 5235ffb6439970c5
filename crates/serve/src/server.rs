//! The daemon: acceptor, bounded admission queue, worker pool, routes.
//!
//! The crash-tolerance contract, in one place:
//!
//! * **Admission control** — the acceptor never queues unboundedly.
//!   When the bounded queue is full the connection is answered `503`
//!   with `Retry-After` right on the acceptor thread and dropped.
//! * **Per-request deadlines** — every analysis request carries an
//!   [`AnalysisBudget`](fmperf_core::AnalysisBudget); overload degrades through the guarded ladder
//!   to a sampled answer with a confidence interval instead of hanging.
//! * **Panic isolation** — each request runs under `catch_unwind`; a
//!   panicking handler answers `500` and the worker loops on.  Both the
//!   artifact cache and the queue recover poisoned locks, so one bad
//!   request can never wedge the pool.
//! * **Drain** — `POST /quitquitquit` (the std-only stand-in for
//!   SIGTERM, which cannot be caught without unsafe code) stops
//!   admission; already-admitted requests complete before workers exit.
//!
//! And the observability contract (see [`crate::obs`]): every request —
//! served, shed, drained or panicked — gets a monotonic id echoed in
//! the `x-fmperf-request-id` header and in JSON bodies, one structured
//! access-log line, and a slot in the per-endpoint latency / queue-wait
//! / body-size histograms scraped from `/metrics`.  `GET /debug/slow`
//! dumps the N slowest requests with their full span trees;
//! `GET /debug/cache` dumps the artifact cache entry by entry.

use crate::cache::{ArtifactCache, CacheKey};
use crate::http::{json_escape, read_request, HttpLimits, Request, Response};
use crate::obs::{Endpoint, RequestObs, RequestRecord};
use crate::queue::BoundedQueue;
use crate::session::{ModelSession, SessionError};
use crate::work::{
    analyze_model, campaign_model, sweep_model, AnalyzeParams, CacheStatus, CampaignParams,
    SweepParams,
};
use fmperf_core::EstimateInfo;
use fmperf_ftlqn::KnowPolicy;
use fmperf_obs::{
    escape_prometheus_label, render_prometheus_histogram, MetricsRecorder, Recorder, TeeRecorder,
    TraceEvent, TraceRecorder,
};
use fmperf_text::ParseLimits;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The response schema identifier, first field of every JSON body.
pub const SCHEMA: &str = "fmperf-serve-v1";

/// The schema identifier of the `/debug/*` JSON bodies.
pub const DEBUG_SCHEMA: &str = "fmperf-debug-v1";

/// Daemon configuration (the `fmperf serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8787` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads handling requests.
    pub threads: usize,
    /// Compiled-artifact cache capacity in MiB (0 disables).
    pub cache_mb: usize,
    /// Default per-request analysis deadline in milliseconds, used when
    /// a request carries no `budget_ms`.
    pub default_budget_ms: u64,
    /// Bounded admission queue depth; connections beyond it are shed
    /// with `503`.
    pub queue_depth: usize,
    /// Request body cap in bytes (larger bodies answer `413`).
    pub max_body_bytes: usize,
    /// JSON-lines access log destination: `None` disables, `"-"` is
    /// stdout, anything else is a file path opened for append.
    pub access_log: Option<String>,
    /// How many slowest requests (with span trees) to retain for
    /// `GET /debug/slow`.
    pub slow_keep: usize,
    /// Enable the `/v1/test/*` fault-injection routes (tests only).
    pub test_routes: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8787".into(),
            threads: 4,
            cache_mb: 64,
            default_budget_ms: 2_000,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            access_log: None,
            slow_keep: 8,
            test_routes: false,
        }
    }
}

/// Monotonic request counters, exposed on `/metrics` and summarized in
/// the [`DrainReport`].
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    degraded: AtomicU64,
}

/// State shared by the acceptor and every worker.
struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<(TcpStream, Instant)>,
    cache: ArtifactCache,
    metrics: MetricsRecorder,
    obs: RequestObs,
    stats: Stats,
    shutdown: AtomicBool,
}

/// What the daemon did over its lifetime, returned by
/// [`ServerHandle::shutdown`] / [`ServerHandle::wait`].
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Requests fully handled (any status).
    pub served: u64,
    /// Connections shed with `503` by admission control.
    pub shed: u64,
    /// Request handlers that panicked (each answered `500`).
    pub panics_caught: u64,
    /// Access-log lines written (served + shed when logging is on).
    pub access_lines: u64,
    /// Worker threads that died *outside* the per-request isolation
    /// boundary — always zero unless the isolation itself is broken.
    pub worker_panics: usize,
}

/// A running daemon; dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) or [`wait`](ServerHandle::wait)
/// detaches the threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind / configuration I/O errors (including a
    /// non-openable `access_log` path); everything after a successful
    /// bind is handled internally.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        let queue_depth = config.queue_depth.max(1);
        let obs = RequestObs::new(config.access_log.as_deref(), config.slow_keep)?;
        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(config.cache_mb.saturating_mul(1 << 20)),
            queue: BoundedQueue::new(queue_depth),
            metrics: MetricsRecorder::new(),
            obs,
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fmperf-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fmperf-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Shared metrics recorder (scraped by `/metrics`).
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.shared.metrics
    }

    /// Initiates drain (as `/quitquitquit` would) and waits for every
    /// in-flight request to finish.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.join()
    }

    /// Waits for the daemon to drain on its own (after a
    /// `/quitquitquit` from a client).
    pub fn wait(mut self) -> DrainReport {
        self.join()
    }

    fn join(&mut self) -> DrainReport {
        let mut worker_panics = 0;
        if let Some(acceptor) = self.acceptor.take() {
            if acceptor.join().is_err() {
                worker_panics += 1;
            }
        }
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                worker_panics += 1;
            }
        }
        let stats = &self.shared.stats;
        DrainReport {
            served: stats.requests.load(Ordering::Relaxed),
            shed: stats.shed.load(Ordering::Relaxed),
            panics_caught: stats.panics.load(Ordering::Relaxed),
            access_lines: self.shared.obs.lines_logged(),
            worker_panics,
        }
    }
}

/// Polls the nonblocking listener, admitting connections into the
/// bounded queue and shedding with `503` when it is full.  Admission
/// timestamps the connection so the worker can attribute queue wait.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                // Slowloris guard: a peer that stalls mid-request gets
                // a read error, not a parked worker.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                if let Err((stream, _)) = shared.queue.try_push((stream, Instant::now())) {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    let id = shared.obs.next_id();
                    shed_connection(stream, id);
                    let mut record = RequestRecord::new(id, 0);
                    record.status = 503;
                    record.disposition = "shed";
                    shared.obs.observe(&record, Vec::new());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Stop admission; workers drain what was already accepted.
    shared.queue.close();
}

/// Answers a shed connection `503 + Retry-After` on the acceptor
/// thread.  The pending request bytes are drained (briefly, best
/// effort) first: closing a socket with unread input makes the kernel
/// RST the connection, which would destroy the very response that tells
/// the client to back off.
fn shed_connection(mut stream: TcpStream, id: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 8 * 1024];
    let _ = io::Read::read(&mut stream, &mut scratch);
    Response::json(
        503,
        "Service Unavailable",
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"request_id\": {id}, \
             \"error\": \"saturated: admission queue is full\"}}"
        ),
    )
    .with_header("retry-after", "1")
    .with_header("x-fmperf-request-id", id.to_string())
    .write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// One worker: pop, handle under `catch_unwind`, answer, observe,
/// repeat until the queue closes and drains.  Observation happens here
/// — outside the isolation boundary — so even a panicking handler gets
/// its access-log line and histogram slot.
fn worker_loop(shared: &Shared) {
    while let Some((mut stream, enqueued)) = shared.queue.pop() {
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
        let id = shared.obs.next_id();
        let start = Instant::now();
        let mut record = RequestRecord::new(id, queue_wait_ns);
        let mut spans: Vec<TraceEvent> = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(&mut stream, shared, &mut record, &mut spans)
        }));
        if outcome.is_err() {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            shared.stats.server_errors.fetch_add(1, Ordering::Relaxed);
            record.status = 500;
            record.disposition = "panic";
            Response::json(
                500,
                "Internal Server Error",
                format!(
                    "{{\"schema\": \"{SCHEMA}\", \"request_id\": {id}, \
                     \"error\": \"request handler panicked; \
                     the worker pool is unaffected\"}}"
                ),
            )
            .with_header("x-fmperf-request-id", id.to_string())
            .write_to(&mut stream);
        }
        if record.disposition == "ok" && shared.shutdown.load(Ordering::SeqCst) {
            record.disposition = "drain";
        }
        record.timings.total_ns = queue_wait_ns + start.elapsed().as_nanos() as u64;
        shared.obs.observe(&record, std::mem::take(&mut spans));
    }
}

/// Reads one request and routes it; every path writes exactly one
/// response carrying the `x-fmperf-request-id` header.  Fills `record`
/// as it learns about the request and leaves the handler's span tree in
/// `spans`.
fn handle_connection(
    stream: &mut TcpStream,
    shared: &Shared,
    record: &mut RequestRecord,
    spans: &mut Vec<TraceEvent>,
) {
    let limits = HttpLimits {
        max_body_bytes: shared.config.max_body_bytes,
    };
    let request = match read_request(stream, &limits) {
        Ok(r) => r,
        Err(e) => {
            if let Some((status, reason)) = e.status() {
                shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                record.status = status;
                error_response(status, reason, "http", &e.to_string(), &[], record.id)
                    .with_header("x-fmperf-request-id", record.id.to_string())
                    .write_to(stream);
            }
            return;
        }
    };
    record.method = request.method.clone();
    record.path = request.path.clone();
    record.endpoint = Endpoint::classify(&request.path);
    record.body_bytes = request.body.len() as u64;
    // Per-request trace teed into the shared metrics: the engine spans
    // land in both the global phase totals and this request's tree.
    let trace = TraceRecorder::new();
    let tee = TeeRecorder::new(&shared.metrics, &trace);
    let response = route(&request, shared, record, &tee);
    record.status = response.status;
    if response.status >= 500 {
        shared.stats.server_errors.fetch_add(1, Ordering::Relaxed);
    } else if response.status >= 400 {
        shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
    }
    response
        .with_header("x-fmperf-request-id", record.id.to_string())
        .write_to(stream);
    *spans = trace.events();
}

/// An error body: `{schema, request_id, endpoint, error, diagnostics}`.
fn error_response(
    status: u16,
    reason: &'static str,
    endpoint: &str,
    error: &str,
    diagnostics: &[(usize, String)],
    id: u64,
) -> Response {
    let diags: Vec<String> = diagnostics
        .iter()
        .map(|(line, msg)| {
            format!(
                "{{\"line\": {line}, \"message\": \"{}\"}}",
                json_escape(msg)
            )
        })
        .collect();
    Response::json(
        status,
        reason,
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"request_id\": {id}, \"endpoint\": \"{}\", \
             \"error\": \"{}\", \"diagnostics\": [{}]}}",
            json_escape(endpoint),
            json_escape(error),
            diags.join(", ")
        ),
    )
}

/// Dispatches one parsed request to its endpoint.
fn route(
    request: &Request,
    shared: &Shared,
    rec: &mut RequestRecord,
    recorder: &dyn Recorder,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "OK", "ok\n"),
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/metrics") => Response::text(200, "OK", render_metrics(shared)),
        ("GET", "/debug/slow") => debug_slow(shared, rec.id),
        ("GET", "/debug/cache") => debug_cache(shared, rec.id),
        ("POST" | "GET", "/quitquitquit") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.close();
            Response::text(200, "OK", "draining\n")
        }
        ("POST", "/v1/analyze") => analyze_endpoint(request, shared, rec, recorder),
        ("POST", "/v1/sweep") => sweep_endpoint(request, shared, rec, recorder),
        ("POST", "/v1/campaign") => campaign_endpoint(request, shared, rec, recorder),
        ("POST" | "GET", "/v1/test/panic") if shared.config.test_routes => {
            panic!("fault injection: /v1/test/panic")
        }
        ("POST" | "GET", "/v1/test/sleep") if shared.config.test_routes => {
            let ms: u64 = request
                .query
                .get("ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(100);
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
            Response::text(200, "OK", "slept\n")
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/debug/slow" | "/debug/cache")
        | ("GET", "/v1/analyze" | "/v1/sweep" | "/v1/campaign") => error_response(
            405,
            "Method Not Allowed",
            "http",
            "method not allowed",
            &[],
            rec.id,
        ),
        _ => error_response(404, "Not Found", "http", "no such endpoint", &[], rec.id),
    }
}

/// `/readyz`: `503` while draining or when the admission queue is
/// nearly full (load shedding signal for balancers).
fn readyz(shared: &Shared) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::text(503, "Service Unavailable", "draining\n")
            .with_header("retry-after", "1");
    }
    let depth = shared.config.queue_depth.max(1);
    if shared.queue.len() * 4 >= depth * 3 {
        return Response::text(503, "Service Unavailable", "saturated\n")
            .with_header("retry-after", "1");
    }
    Response::text(200, "OK", "ready\n")
}

/// Appends one family's `# HELP` / `# TYPE` preamble.
fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Appends a whole single-sample family: preamble plus the one line.
fn push_scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    push_family(out, name, kind, help);
    out.push_str(&format!("{name} {value}\n"));
}

/// Renders `/metrics` in Prometheus text exposition format: server
/// counters, cache state (including per-entry gauges), the engine
/// recorder's counters/phases, and the request histograms.  Every
/// label *value* passes through [`escape_prometheus_label`]; families
/// carry `# HELP`/`# TYPE` preambles and stay contiguous as the format
/// requires.
fn render_metrics(shared: &Shared) -> String {
    let stats = &shared.stats;
    let mut out = String::new();
    push_family(
        &mut out,
        "fmperf_build_info",
        "gauge",
        "Daemon build information (always 1; the version rides the label).",
    );
    out.push_str(&format!(
        "fmperf_build_info{{version=\"{}\"}} 1\n",
        escape_prometheus_label(env!("CARGO_PKG_VERSION"))
    ));
    push_scalar(
        &mut out,
        "fmperf_requests_total",
        "counter",
        "Requests admitted to the worker pool.",
        stats.requests.load(Ordering::Relaxed),
    );
    push_scalar(
        &mut out,
        "fmperf_shed_total",
        "counter",
        "Connections shed with 503 by admission control.",
        stats.shed.load(Ordering::Relaxed),
    );
    push_scalar(
        &mut out,
        "fmperf_panics_caught_total",
        "counter",
        "Request handlers that panicked (each answered 500).",
        stats.panics.load(Ordering::Relaxed),
    );
    push_scalar(
        &mut out,
        "fmperf_client_errors_total",
        "counter",
        "Responses with a 4xx status.",
        stats.client_errors.load(Ordering::Relaxed),
    );
    push_scalar(
        &mut out,
        "fmperf_server_errors_total",
        "counter",
        "Responses with a 5xx status.",
        stats.server_errors.load(Ordering::Relaxed),
    );
    push_scalar(
        &mut out,
        "fmperf_degraded_total",
        "counter",
        "Requests answered by a degraded (sampled) engine.",
        stats.degraded.load(Ordering::Relaxed),
    );
    push_scalar(
        &mut out,
        "fmperf_queue_depth",
        "gauge",
        "Connections waiting in the admission queue.",
        shared.queue.len() as u64,
    );
    push_scalar(
        &mut out,
        "fmperf_access_log_lines_total",
        "counter",
        "Access-log lines written (zero when logging is disabled).",
        shared.obs.lines_logged(),
    );
    push_scalar(
        &mut out,
        "fmperf_cache_hits_total",
        "counter",
        "Artifact cache lookups answered from the cache.",
        shared.cache.hits(),
    );
    push_scalar(
        &mut out,
        "fmperf_cache_misses_total",
        "counter",
        "Artifact cache lookups that missed.",
        shared.cache.misses(),
    );
    push_scalar(
        &mut out,
        "fmperf_cache_evictions_total",
        "counter",
        "Artifact cache entries evicted under capacity pressure.",
        shared.cache.evictions(),
    );
    push_scalar(
        &mut out,
        "fmperf_cache_entries",
        "gauge",
        "Artifacts resident in the cache.",
        shared.cache.len() as u64,
    );
    push_scalar(
        &mut out,
        "fmperf_cache_bytes",
        "gauge",
        "Approximate resident bytes of cached artifacts.",
        shared.cache.bytes() as u64,
    );
    push_scalar(
        &mut out,
        "fmperf_cache_capacity_bytes",
        "gauge",
        "Configured artifact cache capacity in bytes.",
        shared.cache.capacity_bytes() as u64,
    );
    let entries = shared.cache.entries();
    let entry_labels = |e: &crate::cache::CacheEntryInfo| {
        format!(
            "hash=\"{}\",policy=\"{}\",unmonitored_known=\"{}\"",
            escape_prometheus_label(&e.key.hash),
            if e.key.policy_any { "any" } else { "all" },
            e.key.unmonitored_known
        )
    };
    push_family(
        &mut out,
        "fmperf_cache_entry_age_seconds",
        "gauge",
        "Seconds since each cached artifact was (re)inserted.",
    );
    for e in &entries {
        out.push_str(&format!(
            "fmperf_cache_entry_age_seconds{{{}}} {}\n",
            entry_labels(e),
            e.age_seconds
        ));
    }
    push_family(
        &mut out,
        "fmperf_cache_entry_bytes",
        "gauge",
        "Approximate resident bytes of each cached artifact.",
    );
    for e in &entries {
        out.push_str(&format!(
            "fmperf_cache_entry_bytes{{{}}} {}\n",
            entry_labels(e),
            e.bytes
        ));
    }
    push_family(
        &mut out,
        "fmperf_engine_counter",
        "counter",
        "Engine work counters (states, nodes, samples, ...).",
    );
    for (counter, value) in shared.metrics.counters() {
        out.push_str(&format!(
            "fmperf_engine_counter{{name=\"{}\"}} {value}\n",
            escape_prometheus_label(counter.name())
        ));
    }
    let phases = shared.metrics.phases();
    push_family(
        &mut out,
        "fmperf_phase_nanos",
        "counter",
        "Cumulative nanoseconds spent in each engine phase.",
    );
    for (phase, nanos, _) in &phases {
        out.push_str(&format!(
            "fmperf_phase_nanos{{phase=\"{}\"}} {nanos}\n",
            escape_prometheus_label(phase.name())
        ));
    }
    push_family(
        &mut out,
        "fmperf_phase_spans",
        "counter",
        "Spans recorded for each engine phase.",
    );
    for (phase, _, span_count) in &phases {
        out.push_str(&format!(
            "fmperf_phase_spans{{phase=\"{}\"}} {span_count}\n",
            escape_prometheus_label(phase.name())
        ));
    }
    let snaps = shared.obs.endpoint_snapshots();
    push_family(
        &mut out,
        "fmperf_request_duration_ns",
        "histogram",
        "End-to-end request latency including queue wait, by endpoint, nanoseconds.",
    );
    for (endpoint, latency, _, _) in &snaps {
        render_prometheus_histogram(
            &mut out,
            "fmperf_request_duration_ns",
            &format!("endpoint=\"{}\"", endpoint.name()),
            latency,
        );
    }
    push_family(
        &mut out,
        "fmperf_request_queue_wait_ns",
        "histogram",
        "Admission-queue wait before a worker picked the request up, by endpoint, nanoseconds.",
    );
    for (endpoint, _, queue_wait, _) in &snaps {
        render_prometheus_histogram(
            &mut out,
            "fmperf_request_queue_wait_ns",
            &format!("endpoint=\"{}\"", endpoint.name()),
            queue_wait,
        );
    }
    push_family(
        &mut out,
        "fmperf_request_body_bytes",
        "histogram",
        "Request body sizes by endpoint, bytes.",
    );
    for (endpoint, _, _, body) in &snaps {
        render_prometheus_histogram(
            &mut out,
            "fmperf_request_body_bytes",
            &format!("endpoint=\"{}\"", endpoint.name()),
            body,
        );
    }
    push_family(
        &mut out,
        "fmperf_compile_ns",
        "histogram",
        "MTBDD compile time on cold requests and campaigns (successful or refused), nanoseconds.",
    );
    render_prometheus_histogram(
        &mut out,
        "fmperf_compile_ns",
        "",
        &shared.obs.compile_snapshot(),
    );
    push_family(
        &mut out,
        "fmperf_eval_ns",
        "histogram",
        "Evaluation time split by artifact-cache disposition, nanoseconds.",
    );
    render_prometheus_histogram(
        &mut out,
        "fmperf_eval_ns",
        "cache=\"hit\"",
        &shared.obs.eval_snapshot(true),
    );
    render_prometheus_histogram(
        &mut out,
        "fmperf_eval_ns",
        "cache=\"miss\"",
        &shared.obs.eval_snapshot(false),
    );
    out
}

/// `GET /debug/slow`: the N slowest requests, each with its span tree.
fn debug_slow(shared: &Shared, id: u64) -> Response {
    let rows: Vec<String> = shared
        .obs
        .slowest()
        .iter()
        .map(|entry| {
            let rec = &entry.record;
            let spans: Vec<String> = entry
                .spans
                .iter()
                .map(|s| {
                    format!(
                        "{{\"phase\": \"{}\", \"start_us\": {}, \"dur_us\": {}, \
                         \"tid\": {}, \"depth\": {}}}",
                        s.phase.name(),
                        s.start_us,
                        s.dur_us,
                        s.tid,
                        s.depth
                    )
                })
                .collect();
            let engine = rec
                .engine
                .as_deref()
                .map_or("null".to_string(), |e| format!("\"{}\"", json_escape(e)));
            let cache = rec.cache.map_or("null".to_string(), |c| format!("\"{c}\""));
            format!(
                "{{\"id\": {}, \"method\": \"{}\", \"path\": \"{}\", \"endpoint\": \"{}\", \
                 \"status\": {}, \"disposition\": \"{}\", \"engine\": {engine}, \
                 \"cache\": {cache}, \"timings\": {}, \"spans\": [{}]}}",
                rec.id,
                json_escape(&rec.method),
                json_escape(&rec.path),
                rec.endpoint.name(),
                rec.status,
                rec.disposition,
                rec.timings.json(),
                spans.join(", ")
            )
        })
        .collect();
    Response::json(
        200,
        "OK",
        format!(
            "{{\"schema\": \"{DEBUG_SCHEMA}\", \"endpoint\": \"debug-slow\", \
             \"request_id\": {id}, \"keep\": {}, \"slowest\": [{}]}}",
            shared.config.slow_keep,
            rows.join(", ")
        ),
    )
}

/// `GET /debug/cache`: the artifact cache, entry by entry.
fn debug_cache(shared: &Shared, id: u64) -> Response {
    let rows: Vec<String> = shared
        .cache
        .entries()
        .iter()
        .map(|e| {
            format!(
                "{{\"hash\": \"{}\", \"policy\": \"{}\", \"unmonitored_known\": {}, \
                 \"bytes\": {}, \"age_seconds\": {}, \"last_used\": {}}}",
                json_escape(&e.key.hash),
                if e.key.policy_any { "any" } else { "all" },
                e.key.unmonitored_known,
                e.bytes,
                e.age_seconds,
                e.last_used
            )
        })
        .collect();
    Response::json(
        200,
        "OK",
        format!(
            "{{\"schema\": \"{DEBUG_SCHEMA}\", \"endpoint\": \"debug-cache\", \
             \"request_id\": {id}, \"capacity_bytes\": {}, \"resident_bytes\": {}, \
             \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": [{}]}}",
            shared.cache.capacity_bytes(),
            shared.cache.bytes(),
            shared.cache.hits(),
            shared.cache.misses(),
            shared.cache.evictions(),
            rows.join(", ")
        ),
    )
}

/// Opens the request body as a model session (bounded parse + lint
/// preflight), mapping failures to a `400`.
fn open_session(
    request: &Request,
    endpoint: &str,
    shared: &Shared,
    recorder: &dyn Recorder,
    id: u64,
) -> Result<ModelSession, Response> {
    let src = std::str::from_utf8(&request.body).map_err(|_| {
        error_response(
            400,
            "Bad Request",
            endpoint,
            "body is not valid UTF-8",
            &[],
            id,
        )
    })?;
    let limits = ParseLimits {
        max_bytes: shared.config.max_body_bytes,
        ..ParseLimits::default()
    };
    ModelSession::open_untrusted(src, &limits, Some(recorder)).map_err(|e| {
        let what = match &e {
            SessionError::Syntax(_) => "model failed to parse",
            SessionError::Lint(_) => "model failed lint preflight",
        };
        error_response(400, "Bad Request", endpoint, what, &e.diagnostics(), id)
    })
}

/// Parses the shared analysis knobs from the query string.
fn analyze_params(
    request: &Request,
    endpoint: &str,
    shared: &Shared,
    id: u64,
) -> Result<AnalyzeParams, Response> {
    let mut params = AnalyzeParams::default();
    let bad = |name: &str, value: &str| {
        error_response(
            400,
            "Bad Request",
            endpoint,
            &format!("bad query parameter {name}={value}"),
            &[],
            id,
        )
    };
    params.budget.deadline = Some(Duration::from_millis(shared.config.default_budget_ms));
    for (key, value) in &request.query {
        match key.as_str() {
            "budget_ms" => {
                let ms: u64 = value.parse().map_err(|_| bad(key, value))?;
                params.budget.deadline = Some(Duration::from_millis(ms));
            }
            "budget_states" => {
                params.budget.max_states = value.parse().map_err(|_| bad(key, value))?;
            }
            "budget_nodes" => {
                params.budget.max_mtbdd_nodes = value.parse().map_err(|_| bad(key, value))?;
            }
            "budget_memo" => {
                params.budget.max_memo_entries = value.parse().map_err(|_| bad(key, value))?;
            }
            "samples" => params.samples = value.parse().map_err(|_| bad(key, value))?,
            "seed" => params.seed = value.parse().map_err(|_| bad(key, value))?,
            "threads" => {
                let t: usize = value.parse().map_err(|_| bad(key, value))?;
                params.threads = t.clamp(1, 16);
            }
            "policy" => {
                params.policy = match value.as_str() {
                    "any" => KnowPolicy::AnyFailedComponent,
                    "all" => KnowPolicy::AllFailedComponents,
                    _ => return Err(bad(key, value)),
                };
            }
            "unmonitored_known" => {
                params.unmonitored_known = match value.as_str() {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    _ => return Err(bad(key, value)),
                };
            }
            // Endpoint-specific keys are parsed by their endpoint.
            _ => {}
        }
    }
    Ok(params)
}

/// The `estimate` JSON object for a sampled result.
fn estimate_json(est: &EstimateInfo) -> String {
    let is = est.is.map_or(String::new(), |is| {
        format!(
            ", \"ess\": {}, \"weight_cv\": {}, \"mean_weight\": {}, \"bias\": {}, \"mixture\": {}",
            is.ess, is.weight_cv, is.mean_weight, is.bias, is.mixture
        )
    });
    format!(
        "{{\"failed_mean\": {}, \"failed_half_width\": {}, \"batches\": {}, \
         \"samples\": {}, \"seed\": {}{is}}}",
        est.failed_mean, est.failed_half_width, est.batches, est.samples, est.seed
    )
}

/// The `descents` JSON array shared by analyze responses.
fn descents_json(descents: &[(String, String)]) -> String {
    let rows: Vec<String> = descents
        .iter()
        .map(|(engine, reason)| {
            format!(
                "{{\"engine\": \"{}\", \"reason\": \"{}\"}}",
                json_escape(engine),
                json_escape(reason)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// `POST /v1/analyze`.
fn analyze_endpoint(
    request: &Request,
    shared: &Shared,
    rec: &mut RequestRecord,
    recorder: &dyn Recorder,
) -> Response {
    let start = Instant::now();
    let session = match open_session(request, "analyze", shared, recorder, rec.id) {
        Ok(s) => s,
        Err(r) => return r,
    };
    rec.timings.parse_ns = start.elapsed().as_nanos() as u64;
    rec.model_hash = Some(session.hash().to_string());
    let params = match analyze_params(request, "analyze", shared, rec.id) {
        Ok(p) => p,
        Err(r) => return r,
    };
    let key = CacheKey::new(session.hash(), params.policy, params.unmonitored_known);
    let cached = shared.cache.get(&key);
    let outcome = match analyze_model(session.model(), &params, cached, Some(recorder)) {
        Ok(o) => o,
        Err(e) => return error_response(422, "Unprocessable Entity", "analyze", &e, &[], rec.id),
    };
    if let Some(compiled) = &outcome.compiled {
        shared.cache.insert(key, Arc::clone(compiled));
    }
    if outcome.estimate.is_some() {
        shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
    }
    rec.engine = Some(outcome.engine.clone());
    rec.cache = Some(outcome.cache.name());
    rec.descents = outcome.descents.len() as u64;
    rec.timings.compile_ns = outcome.compile_ns;
    rec.timings.eval_ns = outcome.eval_ns;
    rec.timings.total_ns = rec.timings.queue_wait_ns + start.elapsed().as_nanos() as u64;
    let configurations: Vec<String> = outcome
        .configurations
        .iter()
        .map(|(label, p)| {
            format!(
                "{{\"label\": \"{}\", \"probability\": {p}}}",
                json_escape(label)
            )
        })
        .collect();
    let mut body = format!(
        "{{\"schema\": \"{SCHEMA}\", \"endpoint\": \"analyze\", \"request_id\": {}, \
         \"model_hash\": \"{}\", \"cache\": \"{}\", \"engine\": \"{}\", \"descents\": {}, \
         \"failed\": {}, \"states\": {}, \"components\": {}, \"fallible\": {}, \"warnings\": {}",
        rec.id,
        session.hash(),
        outcome.cache.name(),
        json_escape(&outcome.engine),
        descents_json(&outcome.descents),
        outcome.failed,
        outcome.states,
        outcome.components,
        outcome.fallible,
        session.warnings(),
    );
    if let Some(est) = &outcome.estimate {
        body.push_str(&format!(", \"estimate\": {}", estimate_json(est)));
    }
    if let Some(reward) = outcome.reward {
        body.push_str(&format!(", \"reward\": {reward}"));
    }
    if let Some(err) = &outcome.reward_error {
        body.push_str(&format!(", \"reward_error\": \"{}\"", json_escape(err)));
    }
    body.push_str(&format!(
        ", \"configurations\": [{}], \"timings\": {}, \"elapsed_ms\": {}}}",
        configurations.join(", "),
        rec.timings.json(),
        start.elapsed().as_millis()
    ));
    Response::json(200, "OK", body)
}

/// `POST /v1/sweep`.
fn sweep_endpoint(
    request: &Request,
    shared: &Shared,
    rec: &mut RequestRecord,
    recorder: &dyn Recorder,
) -> Response {
    let start = Instant::now();
    let session = match open_session(request, "sweep", shared, recorder, rec.id) {
        Ok(s) => s,
        Err(r) => return r,
    };
    rec.timings.parse_ns = start.elapsed().as_nanos() as u64;
    rec.model_hash = Some(session.hash().to_string());
    let analyze = match analyze_params(request, "sweep", shared, rec.id) {
        Ok(p) => p,
        Err(r) => return r,
    };
    let Some(component) = request.query.get("component").cloned() else {
        return error_response(
            400,
            "Bad Request",
            "sweep",
            "missing required query parameter `component`",
            &[],
            rec.id,
        );
    };
    let get_f64 = |name: &str, default: f64| -> Result<f64, Response> {
        match request.query.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                error_response(
                    400,
                    "Bad Request",
                    "sweep",
                    &format!("bad query parameter {name}={v}"),
                    &[],
                    rec.id,
                )
            }),
        }
    };
    let from = match get_f64("from", 0.5) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let to = match get_f64("to", 1.0) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let steps: usize = match request.query.get("steps") {
        None => 11,
        Some(v) => match v.parse::<usize>() {
            Ok(s) => s.clamp(2, 10_000),
            Err(_) => {
                return error_response(
                    400,
                    "Bad Request",
                    "sweep",
                    &format!("bad query parameter steps={v}"),
                    &[],
                    rec.id,
                )
            }
        },
    };
    let params = SweepParams {
        component,
        from,
        to,
        steps,
        analyze,
    };
    let key = CacheKey::new(session.hash(), analyze.policy, analyze.unmonitored_known);
    let cached = shared.cache.get(&key);
    let outcome = match sweep_model(session.model(), &params, cached, Some(recorder)) {
        Ok(o) => o,
        Err(e) => return error_response(422, "Unprocessable Entity", "sweep", &e, &[], rec.id),
    };
    if let Some(compiled) = &outcome.compiled {
        shared.cache.insert(key, Arc::clone(compiled));
    }
    rec.engine = Some("mtbdd".into());
    rec.cache = Some(outcome.cache.name());
    rec.timings.compile_ns = outcome.compile_ns;
    rec.timings.eval_ns = outcome.eval_ns;
    rec.timings.total_ns = rec.timings.queue_wait_ns + start.elapsed().as_nanos() as u64;
    let points: Vec<String> = outcome
        .points
        .iter()
        .map(|(a, f)| format!("{{\"availability\": {a}, \"failed\": {f}}}"))
        .collect();
    Response::json(
        200,
        "OK",
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"endpoint\": \"sweep\", \"request_id\": {}, \
             \"model_hash\": \"{}\", \"cache\": \"{}\", \"component\": \"{}\", \"nodes\": {}, \
             \"points\": [{}], \"timings\": {}, \"elapsed_ms\": {}}}",
            rec.id,
            session.hash(),
            outcome.cache.name(),
            json_escape(&params.component),
            outcome.nodes,
            points.join(", "),
            rec.timings.json(),
            start.elapsed().as_millis()
        ),
    )
}

/// `POST /v1/campaign`.
fn campaign_endpoint(
    request: &Request,
    shared: &Shared,
    rec: &mut RequestRecord,
    recorder: &dyn Recorder,
) -> Response {
    let start = Instant::now();
    let session = match open_session(request, "campaign", shared, recorder, rec.id) {
        Ok(s) => s,
        Err(r) => return r,
    };
    rec.timings.parse_ns = start.elapsed().as_nanos() as u64;
    rec.model_hash = Some(session.hash().to_string());
    let analyze = match analyze_params(request, "campaign", shared, rec.id) {
        Ok(p) => p,
        Err(r) => return r,
    };
    let pairwise = matches!(
        request.query.get("pairwise").map(String::as_str),
        Some("true" | "1")
    );
    let params = CampaignParams { pairwise, analyze };
    let outcome = match campaign_model(session.model(), &params, Some(recorder)) {
        Ok(o) => o,
        Err(e) => return error_response(422, "Unprocessable Entity", "campaign", &e, &[], rec.id),
    };
    rec.engine = Some(outcome.baseline_engine.clone());
    rec.cache = Some(CacheStatus::Bypass.name());
    rec.timings.compile_ns = outcome.compile_ns;
    rec.timings.eval_ns = outcome.eval_ns;
    rec.timings.total_ns = rec.timings.queue_wait_ns + start.elapsed().as_nanos() as u64;
    let scenarios: Vec<String> = outcome
        .scenarios
        .iter()
        .map(|s| match &s.result {
            Ok((engine, failed, coverage_loss)) => format!(
                "{{\"label\": \"{}\", \"ok\": true, \"engine\": \"{}\", \"failed\": {failed}, \
                 \"coverage_loss\": {coverage_loss}}}",
                json_escape(&s.label),
                json_escape(engine)
            ),
            Err(e) => format!(
                "{{\"label\": \"{}\", \"ok\": false, \"error\": \"{}\"}}",
                json_escape(&s.label),
                json_escape(e)
            ),
        })
        .collect();
    Response::json(
        200,
        "OK",
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"endpoint\": \"campaign\", \"request_id\": {}, \
             \"model_hash\": \"{}\", \"cache\": \"{}\", \"baseline\": {{\"engine\": \"{}\", \
             \"failed\": {}}}, \"scenarios\": [{}], \"timings\": {}, \"elapsed_ms\": {}}}",
            rec.id,
            session.hash(),
            CacheStatus::Bypass.name(),
            json_escape(&outcome.baseline_engine),
            outcome.baseline_failed,
            scenarios.join(", "),
            rec.timings.json(),
            start.elapsed().as_millis()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    const MODEL: &str = "processor pc cores inf\nprocessor p1 fail 0.1\n\
        users u on pc population 5 think 1.0\ntask s on p1 fail 0.1\n\
        entry eu of u\nentry es of s demand 0.2\ncall eu -> es\nreward u 1.0\n";

    fn start_test_server(threads: usize, queue_depth: usize) -> ServerHandle {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            queue_depth,
            test_routes: true,
            ..ServeConfig::default()
        })
        .expect("bind")
    }

    fn send(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    fn post(addr: std::net::SocketAddr, target: &str, body: &str) -> String {
        send(
            addr,
            &format!(
                "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// The `x-fmperf-request-id` header value of a raw response.
    fn header_id(response: &str) -> Option<u64> {
        response
            .lines()
            .find_map(|l| l.strip_prefix("x-fmperf-request-id: "))
            .and_then(|v| v.trim().parse().ok())
    }

    #[test]
    fn healthz_and_analyze_roundtrip() {
        let server = start_test_server(2, 8);
        let addr = server.local_addr();
        let health = send(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        let reply = post(addr, "/v1/analyze", MODEL);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"model_hash\": \"sha256:"), "{reply}");
        assert!(reply.contains("\"cache\": \"miss\""), "{reply}");
        // Second request with the same model is a cache hit.
        let again = post(addr, "/v1/analyze", MODEL);
        assert!(again.contains("\"cache\": \"hit\""), "{again}");
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 0);
        assert!(report.served >= 3);
    }

    #[test]
    fn responses_carry_request_id_and_timings() {
        let server = start_test_server(1, 8);
        let addr = server.local_addr();
        let reply = post(addr, "/v1/analyze", MODEL);
        let id = header_id(&reply).expect("request id header");
        assert!(
            reply.contains(&format!("\"request_id\": {id}")),
            "header id {id} must match the body: {reply}"
        );
        assert!(
            reply.contains("\"timings\": {\"queue_wait_ns\": "),
            "{reply}"
        );
        assert!(reply.contains("\"parse_ns\": "), "{reply}");
        assert!(reply.contains("\"compile_ns\": "), "{reply}");
        assert!(reply.contains("\"eval_ns\": "), "{reply}");
        assert!(reply.contains("\"total_ns\": "), "{reply}");
        // Errors carry ids too, and ids are monotonic.
        let err = post(addr, "/v1/analyze", "bogus\n");
        let err_id = header_id(&err).expect("error id header");
        assert!(err_id > id, "monotonic: {err_id} > {id}");
        assert!(err.contains(&format!("\"request_id\": {err_id}")), "{err}");
        server.shutdown();
    }

    #[test]
    fn bad_model_is_400_with_diagnostics() {
        let server = start_test_server(1, 8);
        let reply = post(server.local_addr(), "/v1/analyze", "bogus line\nanother\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("\"diagnostics\""), "{reply}");
        server.shutdown();
    }

    #[test]
    fn panic_route_answers_500_and_pool_survives() {
        let server = start_test_server(1, 8);
        let addr = server.local_addr();
        let reply = send(addr, "GET /v1/test/panic HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        assert!(
            header_id(&reply).is_some(),
            "panic answers carry ids: {reply}"
        );
        // The single worker survived and still answers.
        let health = send(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        let report = server.shutdown();
        assert_eq!(report.panics_caught, 1);
        assert_eq!(report.worker_panics, 0);
    }

    #[test]
    fn metrics_exposes_counters() {
        let server = start_test_server(1, 8);
        let addr = server.local_addr();
        post(addr, "/v1/analyze", MODEL);
        let metrics = send(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(metrics.contains("fmperf_requests_total"), "{metrics}");
        assert!(metrics.contains("fmperf_cache_misses_total"), "{metrics}");
        assert!(
            metrics.contains("fmperf_phase_nanos{phase=\"parse\"}"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_exposes_histograms_help_type_and_build_info() {
        let server = start_test_server(1, 8);
        let addr = server.local_addr();
        post(addr, "/v1/analyze", MODEL);
        let metrics = send(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(
            metrics.contains(&format!(
                "fmperf_build_info{{version=\"{}\"}} 1",
                env!("CARGO_PKG_VERSION")
            )),
            "{metrics}"
        );
        assert!(
            metrics.contains("# HELP fmperf_requests_total "),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE fmperf_request_duration_ns histogram"),
            "{metrics}"
        );
        assert!(
            metrics
                .contains("fmperf_request_duration_ns_bucket{endpoint=\"analyze\",le=\"+Inf\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("fmperf_request_duration_ns_count{endpoint=\"analyze\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("fmperf_eval_ns_bucket{cache=\"miss\""),
            "{metrics}"
        );
        assert!(
            metrics.contains("fmperf_cache_entry_age_seconds{hash=\"sha256:"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn hostile_cache_label_values_are_escaped() {
        // A hostile hash with quote, backslash and newline must not be
        // able to break out of its label value in the exposition text.
        let shared = Shared {
            cache: ArtifactCache::new(1 << 20),
            queue: BoundedQueue::new(1),
            metrics: MetricsRecorder::new(),
            obs: RequestObs::new(None, 4).expect("obs"),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            config: ServeConfig::default(),
        };
        let m = fmperf_text::parse(
            "processor pc cores inf\nprocessor p1 fail 0.1\nusers u on pc\n\
             task s on p1 fail 0.1\nentry eu of u\nentry es of s demand 0.2\ncall eu -> es\n",
        )
        .unwrap();
        let graph = fmperf_ftlqn::FaultGraph::build(&m.app).unwrap();
        let space = fmperf_mama::ComponentSpace::app_only(&m.app);
        let compiled = fmperf_core::Analysis::new(&graph, &space).compile_mtbdd();
        shared.cache.insert(
            CacheKey::new(
                "evil\"hash\\with\nnewline",
                KnowPolicy::AnyFailedComponent,
                false,
            ),
            Arc::new(compiled),
        );
        let metrics = render_metrics(&shared);
        assert!(
            metrics.contains("hash=\"evil\\\"hash\\\\with\\nnewline\""),
            "{metrics}"
        );
        assert!(
            !metrics.contains("evil\"hash"),
            "raw quote must not appear: {metrics}"
        );
    }

    #[test]
    fn debug_slow_returns_span_trees() {
        let server = start_test_server(1, 8);
        let addr = server.local_addr();
        post(addr, "/v1/analyze", MODEL);
        let reply = send(addr, "GET /debug/slow HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"schema\": \"fmperf-debug-v1\""), "{reply}");
        assert!(reply.contains("\"endpoint\": \"debug-slow\""), "{reply}");
        assert!(reply.contains("\"path\": \"/v1/analyze\""), "{reply}");
        assert!(reply.contains("\"phase\": \"parse\""), "{reply}");
        assert!(
            reply.contains("\"timings\": {\"queue_wait_ns\": "),
            "{reply}"
        );
        server.shutdown();
    }

    #[test]
    fn debug_cache_reports_entries() {
        let server = start_test_server(1, 8);
        let addr = server.local_addr();
        post(addr, "/v1/analyze", MODEL);
        let reply = send(addr, "GET /debug/cache HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"endpoint\": \"debug-cache\""), "{reply}");
        assert!(reply.contains("\"hash\": \"sha256:"), "{reply}");
        assert!(reply.contains("\"capacity_bytes\": "), "{reply}");
        assert!(reply.contains("\"evictions\": 0"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn quitquitquit_drains() {
        let server = start_test_server(2, 8);
        let addr = server.local_addr();
        let reply = send(addr, "POST /quitquitquit HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        let report = server.wait();
        assert_eq!(report.worker_panics, 0);
    }

    #[test]
    fn unknown_endpoint_is_404() {
        let server = start_test_server(1, 4);
        let reply = send(server.local_addr(), "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        server.shutdown();
    }
}
