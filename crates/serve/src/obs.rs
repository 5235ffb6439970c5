//! Request-level observability for the daemon: latency histograms,
//! structured JSON-lines access logging, and per-request budget
//! attribution.
//!
//! PR 9 made the daemon crash-tolerant; this layer makes it
//! *operable*.  Three pieces, all lock-light on the request path:
//!
//! * **Histograms** — per-endpoint request latency, queue wait and
//!   body size, plus the compile-vs-eval split keyed by cache
//!   disposition, all on the sharded log2 [`Histogram`] from
//!   `fmperf-obs`.  Scraped from `/metrics` in Prometheus histogram
//!   exposition format.
//! * **Access log** — one JSON line per request (id, method, path,
//!   status, model hash, engine, degradation rung, cache and
//!   shed/drain disposition, and the full nanosecond timing
//!   breakdown), written to a file or stdout and flushed per line so a
//!   crash loses nothing.  The monotonic request id in each line is
//!   echoed in the `x-fmperf-request-id` response header and in every
//!   JSON body, so one grep joins a client-observed response to its
//!   server-side record.
//! * **Slow-request ring** — the N slowest requests the daemon has
//!   seen, each with its full span tree (captured by a per-request
//!   `TraceRecorder` teed into the shared metrics recorder), dumped on
//!   demand at `GET /debug/slow` without restarting the daemon.

use fmperf_obs::{Histogram, TraceEvent};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::http::json_escape;

/// The endpoint classes tracked with separate histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/analyze`.
    Analyze,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/campaign`.
    Campaign,
    /// Operational endpoints: health, readiness, metrics, debug,
    /// drain, test routes.
    Ops,
    /// Unknown paths and transport-level (`http`) rejections.
    Other,
}

impl Endpoint {
    /// Number of endpoint classes.
    pub const COUNT: usize = 5;

    /// Every endpoint class, in declaration order.
    pub const ALL: [Endpoint; Endpoint::COUNT] = [
        Endpoint::Analyze,
        Endpoint::Sweep,
        Endpoint::Campaign,
        Endpoint::Ops,
        Endpoint::Other,
    ];

    /// Stable label used in metric series and access-log lines.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Analyze => "analyze",
            Endpoint::Sweep => "sweep",
            Endpoint::Campaign => "campaign",
            Endpoint::Ops => "ops",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request path.
    pub fn classify(path: &str) -> Endpoint {
        match path {
            "/v1/analyze" => Endpoint::Analyze,
            "/v1/sweep" => Endpoint::Sweep,
            "/v1/campaign" => Endpoint::Campaign,
            "/healthz" | "/readyz" | "/metrics" | "/quitquitquit" | "/debug/slow"
            | "/debug/cache" => Endpoint::Ops,
            p if p.starts_with("/v1/test/") => Endpoint::Ops,
            _ => Endpoint::Other,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The per-request attribution breakdown, in wall-clock nanoseconds.
/// Every field the daemon reports in the response `timings` object and
/// in the access log comes from here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Time spent waiting in the admission queue before a worker
    /// picked the connection up.
    pub queue_wait_ns: u64,
    /// Parse + lint-preflight time for the posted model.
    pub parse_ns: u64,
    /// MTBDD compile time (successful or refused; zero on a cache
    /// hit; a campaign's one compile).
    pub compile_ns: u64,
    /// Evaluation time: diagram pass, ladder descent or a campaign's
    /// scenario rows, plus configuration ranking and the reward solve.
    pub eval_ns: u64,
    /// End-to-end request time including the queue wait.
    pub total_ns: u64,
}

impl Timings {
    /// The `timings` JSON object embedded in responses and log lines.
    pub fn json(&self) -> String {
        format!(
            "{{\"queue_wait_ns\": {}, \"parse_ns\": {}, \"compile_ns\": {}, \
             \"eval_ns\": {}, \"total_ns\": {}}}",
            self.queue_wait_ns, self.parse_ns, self.compile_ns, self.eval_ns, self.total_ns
        )
    }
}

/// What one handled request looked like, accumulated while routing and
/// consumed by [`RequestObs::observe`].
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Monotonic request id (also the `x-fmperf-request-id` header).
    pub id: u64,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Endpoint class.
    pub endpoint: Endpoint,
    /// Response status.
    pub status: u16,
    /// Request body size in bytes.
    pub body_bytes: u64,
    /// Content hash of the posted model, once parsed.
    pub model_hash: Option<String>,
    /// The engine that answered — the request's final degradation
    /// rung.
    pub engine: Option<String>,
    /// Cache disposition (`hit`/`miss`/`bypass`), when the endpoint
    /// uses the artifact cache.
    pub cache: Option<&'static str>,
    /// Ladder descents taken (0 = the first rung answered).
    pub descents: u64,
    /// How the request left the daemon: `ok`, `drain` (completed while
    /// draining), `shed` (admission control) or `panic` (isolation
    /// boundary).
    pub disposition: &'static str,
    /// The attribution breakdown.
    pub timings: Timings,
}

impl RequestRecord {
    /// A fresh record for an admitted request.
    pub fn new(id: u64, queue_wait_ns: u64) -> RequestRecord {
        RequestRecord {
            id,
            method: String::new(),
            path: String::new(),
            endpoint: Endpoint::Other,
            status: 0,
            body_bytes: 0,
            model_hash: None,
            engine: None,
            cache: None,
            descents: 0,
            disposition: "ok",
            timings: Timings {
                queue_wait_ns,
                ..Timings::default()
            },
        }
    }

    /// The access-log line (no trailing newline): one flat JSON object
    /// per request.
    pub fn access_line(&self) -> String {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = format!(
            "{{\"ts_ms\": {ts_ms}, \"id\": {}, \"method\": \"{}\", \"path\": \"{}\", \
             \"endpoint\": \"{}\", \"status\": {}, \"disposition\": \"{}\", \
             \"body_bytes\": {}",
            self.id,
            json_escape(&self.method),
            json_escape(&self.path),
            self.endpoint.name(),
            self.status,
            self.disposition,
            self.body_bytes,
        );
        if let Some(hash) = &self.model_hash {
            line.push_str(&format!(", \"model_hash\": \"{}\"", json_escape(hash)));
        }
        if let Some(engine) = &self.engine {
            line.push_str(&format!(", \"engine\": \"{}\"", json_escape(engine)));
            line.push_str(&format!(", \"descents\": {}", self.descents));
        }
        if let Some(cache) = self.cache {
            line.push_str(&format!(", \"cache\": \"{cache}\""));
        }
        line.push_str(&format!(
            ", \"queue_wait_ns\": {}, \"parse_ns\": {}, \"compile_ns\": {}, \
             \"eval_ns\": {}, \"total_ns\": {}}}",
            self.timings.queue_wait_ns,
            self.timings.parse_ns,
            self.timings.compile_ns,
            self.timings.eval_ns,
            self.timings.total_ns,
        ));
        line
    }
}

/// Where access-log lines go.
enum AccessSink {
    Stdout,
    File(Mutex<std::fs::File>),
}

/// One entry of the slow-request ring: the request record plus its
/// span tree.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's access record.
    pub record: RequestRecord,
    /// The request's span tree, as captured by its per-request trace
    /// recorder.
    pub spans: Vec<TraceEvent>,
}

/// The request-observability state shared by the acceptor and every
/// worker; see the module docs.
pub struct RequestObs {
    next_id: AtomicU64,
    latency: Vec<Histogram>,
    queue_wait: Vec<Histogram>,
    body_bytes: Vec<Histogram>,
    compile_ns: Histogram,
    eval_hit_ns: Histogram,
    eval_miss_ns: Histogram,
    access: Option<AccessSink>,
    lines_logged: AtomicU64,
    slow: Mutex<Vec<SlowEntry>>,
    slow_keep: usize,
}

impl RequestObs {
    /// Builds the observability state.  `access_log` is `None` (no
    /// log), `Some("-")` (stdout) or a file path opened for append;
    /// `slow_keep` bounds the slow-request ring.
    ///
    /// # Errors
    ///
    /// Propagates the access-log file open failure (the daemon should
    /// refuse to start over a misconfigured log path, not silently
    /// drop its audit trail).
    pub fn new(access_log: Option<&str>, slow_keep: usize) -> std::io::Result<RequestObs> {
        let access = match access_log {
            None => None,
            Some("-") => Some(AccessSink::Stdout),
            Some(path) => Some(AccessSink::File(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ))),
        };
        Ok(RequestObs {
            next_id: AtomicU64::new(1),
            latency: (0..Endpoint::COUNT).map(|_| Histogram::new()).collect(),
            queue_wait: (0..Endpoint::COUNT).map(|_| Histogram::new()).collect(),
            body_bytes: (0..Endpoint::COUNT).map(|_| Histogram::new()).collect(),
            compile_ns: Histogram::new(),
            eval_hit_ns: Histogram::new(),
            eval_miss_ns: Histogram::new(),
            access,
            lines_logged: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            slow_keep,
        })
    }

    /// Allocates the next monotonic request id (the first id is 1).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Access-log lines written so far.
    pub fn lines_logged(&self) -> u64 {
        self.lines_logged.load(Ordering::Relaxed)
    }

    /// Records a completed (or shed / panicked) request: histograms,
    /// the access-log line, and slow-ring admission.
    pub fn observe(&self, record: &RequestRecord, spans: Vec<TraceEvent>) {
        if record.disposition != "shed" {
            let ix = record.endpoint.index();
            self.latency[ix].record(record.timings.total_ns);
            self.queue_wait[ix].record(record.timings.queue_wait_ns);
            self.body_bytes[ix].record(record.body_bytes);
            if record.timings.compile_ns > 0 {
                self.compile_ns.record(record.timings.compile_ns);
            }
            match record.cache {
                Some("hit") => self.eval_hit_ns.record(record.timings.eval_ns),
                Some("miss") | Some("bypass") => self.eval_miss_ns.record(record.timings.eval_ns),
                _ => {}
            }
            self.admit_slow(record, spans);
        }
        self.log_line(&record.access_line());
    }

    fn log_line(&self, line: &str) {
        let Some(sink) = &self.access else {
            return;
        };
        // Count before writing: "logged" means "the daemon accounted
        // for it", and a torn write at crash still shows intent.
        self.lines_logged.fetch_add(1, Ordering::Relaxed);
        match sink {
            AccessSink::Stdout => {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                let _ = writeln!(lock, "{line}");
                let _ = lock.flush();
            }
            AccessSink::File(file) => {
                let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
            }
        }
    }

    /// Keeps the `slow_keep` slowest requests by total time.
    fn admit_slow(&self, record: &RequestRecord, spans: Vec<TraceEvent>) {
        if self.slow_keep == 0 {
            return;
        }
        let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        if slow.len() < self.slow_keep {
            slow.push(SlowEntry {
                record: record.clone(),
                spans,
            });
        } else if let Some((ix, fastest)) = slow
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.record.timings.total_ns)
        {
            if record.timings.total_ns > fastest.record.timings.total_ns {
                slow[ix] = SlowEntry {
                    record: record.clone(),
                    spans,
                };
            }
        }
    }

    /// The slow ring, slowest first.
    pub fn slowest(&self) -> Vec<SlowEntry> {
        let mut out = self.slow.lock().unwrap_or_else(|e| e.into_inner()).clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.record.timings.total_ns));
        out
    }

    /// Every endpoint's `(latency, queue-wait, body-size)` snapshots,
    /// for rendering; in [`Endpoint::ALL`] order.
    pub fn endpoint_snapshots(
        &self,
    ) -> Vec<(
        Endpoint,
        fmperf_obs::HistogramSnapshot,
        fmperf_obs::HistogramSnapshot,
        fmperf_obs::HistogramSnapshot,
    )> {
        Endpoint::ALL
            .iter()
            .map(|&e| {
                let ix = e.index();
                (
                    e,
                    self.latency[ix].snapshot(),
                    self.queue_wait[ix].snapshot(),
                    self.body_bytes[ix].snapshot(),
                )
            })
            .collect()
    }

    /// The compile-time histogram snapshot (cold requests only).
    pub fn compile_snapshot(&self) -> fmperf_obs::HistogramSnapshot {
        self.compile_ns.snapshot()
    }

    /// The eval-time histogram snapshot for one cache disposition
    /// (`hit`, or everything else pooled as `miss`).
    pub fn eval_snapshot(&self, hit: bool) -> fmperf_obs::HistogramSnapshot {
        if hit {
            self.eval_hit_ns.snapshot()
        } else {
            self.eval_miss_ns.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification() {
        assert_eq!(Endpoint::classify("/v1/analyze"), Endpoint::Analyze);
        assert_eq!(Endpoint::classify("/v1/sweep"), Endpoint::Sweep);
        assert_eq!(Endpoint::classify("/v1/campaign"), Endpoint::Campaign);
        assert_eq!(Endpoint::classify("/metrics"), Endpoint::Ops);
        assert_eq!(Endpoint::classify("/debug/slow"), Endpoint::Ops);
        assert_eq!(Endpoint::classify("/v1/test/panic"), Endpoint::Ops);
        assert_eq!(Endpoint::classify("/nope"), Endpoint::Other);
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn ids_are_monotonic_from_one() {
        let obs = RequestObs::new(None, 4).unwrap();
        assert_eq!(obs.next_id(), 1);
        assert_eq!(obs.next_id(), 2);
        assert_eq!(obs.next_id(), 3);
    }

    #[test]
    fn access_line_is_flat_json_with_attribution() {
        let mut r = RequestRecord::new(7, 1_000);
        r.method = "POST".into();
        r.path = "/v1/analyze".into();
        r.endpoint = Endpoint::Analyze;
        r.status = 200;
        r.body_bytes = 321;
        r.model_hash = Some("sha256:ab".into());
        r.engine = Some("mtbdd".into());
        r.cache = Some("hit");
        r.timings.parse_ns = 10;
        r.timings.eval_ns = 20;
        r.timings.total_ns = 1_030;
        let line = r.access_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for needle in [
            "\"id\": 7",
            "\"method\": \"POST\"",
            "\"path\": \"/v1/analyze\"",
            "\"endpoint\": \"analyze\"",
            "\"status\": 200",
            "\"disposition\": \"ok\"",
            "\"model_hash\": \"sha256:ab\"",
            "\"engine\": \"mtbdd\"",
            "\"cache\": \"hit\"",
            "\"queue_wait_ns\": 1000",
            "\"parse_ns\": 10",
            "\"compile_ns\": 0",
            "\"eval_ns\": 20",
            "\"total_ns\": 1030",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn slow_ring_keeps_the_n_slowest() {
        let obs = RequestObs::new(None, 2).unwrap();
        for (id, total) in [(1u64, 50u64), (2, 500), (3, 10), (4, 300)] {
            let mut r = RequestRecord::new(id, 0);
            r.endpoint = Endpoint::Analyze;
            r.timings.total_ns = total;
            obs.observe(&r, Vec::new());
        }
        let slow = obs.slowest();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].record.id, 2);
        assert_eq!(slow[1].record.id, 4);
    }

    #[test]
    fn shed_requests_log_but_do_not_pollute_histograms() {
        let dir = std::env::temp_dir().join(format!("fmperf-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let obs = RequestObs::new(Some(dir.to_str().unwrap()), 4).unwrap();
        let mut shed = RequestRecord::new(1, 0);
        shed.disposition = "shed";
        shed.status = 503;
        obs.observe(&shed, Vec::new());
        let mut ok = RequestRecord::new(2, 5);
        ok.endpoint = Endpoint::Analyze;
        ok.status = 200;
        ok.timings.total_ns = 100;
        obs.observe(&ok, Vec::new());
        assert_eq!(obs.lines_logged(), 2);
        let snaps = obs.endpoint_snapshots();
        let analyze = &snaps[0];
        assert_eq!(analyze.1.count(), 1, "only the served request counted");
        let logged = std::fs::read_to_string(&dir).unwrap();
        assert_eq!(logged.lines().count(), 2);
        assert!(logged.contains("\"disposition\": \"shed\""), "{logged}");
        assert!(logged.contains("\"disposition\": \"ok\""), "{logged}");
        let _ = std::fs::remove_file(&dir);
    }
}
