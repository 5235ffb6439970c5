//! The daemon under test: `fmperf serve` in a process of its own, with
//! one worker thread, read from the outside through `/proc`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `fmperf serve`.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its stderr after the listening line, drained by a thread so the
    /// pipe never fills.
    drain: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    /// Starts `fmperf serve` on an ephemeral loopback port with one
    /// worker and waits until it listens.
    pub fn start(fmperf: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(fmperf)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--cache-mb",
                "256",
                "--queue-depth",
                "64",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fmperf.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
            }
        };
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = lines.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time of every daemon thread so far.
    pub fn cpu_time(&self) -> Duration {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let f: Vec<u64> = after
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
        Duration::from_secs_f64(ticks as f64 / clock_ticks() as f64)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// `GET path` as a raw response body.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let raw = exchange(
            self.addr,
            format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        Ok(raw
            .split_once("\r\n\r\n")
            .map_or(raw.clone(), |(_, b)| b.to_string()))
    }

    /// Drains the daemon (`POST /quitquitquit`) and waits for it to
    /// exit, killing it if it has not within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = exchange(
            self.addr,
            b"POST /quitquitquit HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n",
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log = self.drain.take().map(|d| d.join().unwrap_or_default());
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!(
                            "daemon exited with {status}: {}",
                            log.unwrap_or_default()
                        ))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain within 10 s; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached without `stop` on an error path: never leave a
        // daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Sends raw request bytes on a fresh connection and reads the whole
/// response (the daemon closes every connection after one response).
pub fn exchange(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(bytes)?;
    let mut out = Vec::with_capacity(4096);
    stream.read_to_end(&mut out)?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

/// `sysconf(_SC_CLK_TCK)`: the unit of `/proc/<pid>/stat` CPU times.
fn clock_ticks() -> u64 {
    use std::sync::OnceLock;
    static TICKS: OnceLock<u64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .filter(|&t| t > 0)
            .unwrap_or(100)
    })
}
