//! The load generator: open-loop arrivals over at most two connections,
//! or one caller waiting for each reply.  Responses are kept raw and
//! parsed after the timed phase, so the client spends as little CPU as
//! possible while the daemon is being timed.

use crate::daemon::exchange;
use crate::gen::Request;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the request was due (closed loop: when it was sent).
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When the last response byte arrived.
    pub done: Instant,
    /// HTTP status (0 when the exchange itself failed).
    pub status: u16,
    /// Response body, or the transport error.
    pub body: String,
}

impl Sample {
    /// Latency as a caller sees it: from the due time to the reply.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Sends one request and times it.
pub fn send(addr: SocketAddr, req: &Request, due: Instant) -> Sample {
    let bytes = req.bytes();
    let sent = Instant::now();
    let (status, body) = match exchange(addr, &bytes) {
        Ok(raw) => split_response(&raw),
        Err(e) => (0, format!("transport error: {e}")),
    };
    Sample {
        due,
        sent,
        done: Instant::now(),
        status,
        body,
    }
}

/// Status code and body of a raw HTTP/1.1 response.
fn split_response(raw: &str) -> (u16, String) {
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body.to_string())
}

/// Open loop: request `i` is due at `start + due[i]`.  `conns` threads
/// each take the next request in due order, wait for its due time if it
/// is still ahead, send it and wait for the reply, so a request that
/// comes due while every connection is busy goes out when one frees
/// and is still timed from its due time.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    due: &[Duration],
    conns: usize,
    start: Instant,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; requests.len()]);
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests.len() {
                    break;
                }
                let due_at = start + due[i];
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let sample = send(addr, &requests[i], due_at);
                out.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(sample);
            });
        }
    });
    out.into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|s| s.expect("every request is sent"))
        .collect()
}

/// Closed loop: one caller sends pass after pass, each request after
/// the previous reply, and stops at the first pass boundary after
/// `seconds`.  Returns the samples with the requests they answer.
pub fn closed_loop(
    addr: SocketAddr,
    passes: &[Vec<Request>],
    seconds: u64,
    start: Instant,
) -> Vec<(&Request, Sample)> {
    let mut out = Vec::new();
    for pass in passes {
        for req in pass {
            out.push((req, send(addr, req, Instant::now())));
        }
        if start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    out
}
