// utk-lint: class=bench
//! The served side: launching `utk serve`, timing its set-up, driving
//! the closed-loop client connection, and scraping its `metrics` op.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use utk_server::client::Connection;
use utk_server::json;
use utk_server::proto::{MetricsFormat, Request as Proto, Response};
use utk_server::server::Bind;

use crate::workload::{dataset_name, Request, Stream, Workload, CACHE_MIB};

/// A running `utk serve` child process. Dropping it kills and reaps
/// the process, so no error path leaves a server behind.
pub struct Server {
    child: Option<Child>,
    bind: Bind,
}

/// Where one run keeps its files, all inside the checkout.
pub struct RunDir {
    /// The run's root.
    pub root: PathBuf,
}

impl RunDir {
    /// The served datasets directory.
    pub fn data(&self) -> PathBuf {
        self.root.join("data")
    }
    /// The server's write-ahead-log directory.
    pub fn wal(&self) -> PathBuf {
        self.root.join("wal")
    }
    /// The server's Unix socket.
    pub fn socket(&self) -> PathBuf {
        self.root.join("s.sock")
    }
}

const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// Requests slower than this are logged to stderr.
const SLOW_NS: u64 = 1_000_000_000;

impl Server {
    /// Launches `utk serve` on `run`'s socket, with a fresh WAL
    /// directory when `wal` is set.
    pub fn launch(utk: &Path, run: &RunDir, wal: bool) -> io::Result<Server> {
        let mut cmd = Command::new(utk);
        cmd.arg("serve")
            .arg("--datasets")
            .arg(run.data())
            .arg("--socket")
            .arg(run.socket())
            .arg("--cache-budget")
            .arg(CACHE_MIB.to_string());
        if wal {
            let dir = run.wal();
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            std::fs::create_dir_all(&dir)?;
            cmd.arg("--wal-dir").arg(dir);
        }
        let log = std::fs::File::create(run.root.join("server.log"))?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        Ok(Server {
            child: Some(child),
            bind: Bind::Unix(run.socket()),
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Connects, retrying until the server listens.
    pub fn connect(&mut self) -> io::Result<Connection> {
        let start = Instant::now();
        loop {
            match Connection::connect(&self.bind) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if let Some(child) = &mut self.child {
                        if let Some(status) = child.try_wait()? {
                            return Err(io::Error::other(format!(
                                "utk serve exited during start-up ({status})"
                            )));
                        }
                    }
                    if start.elapsed() > CONNECT_TIMEOUT {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        let reply = conn.round_trip(&Proto::Shutdown.to_json())?;
        drop(conn);
        let mut child = self.child.take().expect("a live server has a child");
        let start = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("utk serve exited with {status}")))
                };
            }
            if start.elapsed() > EXIT_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "utk serve did not exit after shutdown (reply {reply})"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Launches a server and loads every dataset of `workload`, returning
/// it with the set-up time in seconds: from launch until the last
/// dataset answered `load` (CSV parse and R-tree pack included).
pub fn set_up(utk: &Path, run: &RunDir, workload: Workload) -> io::Result<(Server, f64)> {
    let start = Instant::now();
    let mut server = Server::launch(utk, run, workload.wal())?;
    let mut conn = server.connect()?;
    for i in 0..workload.datasets() {
        let dataset = dataset_name(i);
        let reply = conn.request(&Proto::Load {
            dataset: dataset.clone(),
        })?;
        if !matches!(reply, Response::Load { .. }) {
            return Err(io::Error::other(format!(
                "load {dataset}: {}",
                reply.to_json()
            )));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Ok((server, secs))
}

/// One request as sent and answered.
pub struct Entry {
    /// The request.
    pub req: Request,
    /// The response line.
    pub reply: String,
    /// Sent at, in nanoseconds since the phase started.
    pub start_ns: u64,
    /// Client-observed latency: first byte written to last byte read.
    pub latency_ns: u64,
}

impl Entry {
    /// Whether the server failed or refused the request (a typed
    /// `busy` refusal is an error line too).
    pub fn failed(&self) -> bool {
        self.reply.starts_with("{\"error\"")
    }
}

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// This many requests per connection.
    Count(usize),
    /// Until this much time has passed (no request starts later).
    Elapsed(Duration),
}

/// A phase's requests and its start.
pub struct Phase {
    /// When it started.
    pub started: Instant,
    /// In send order.
    pub entries: Vec<Entry>,
}

/// Requests sent so far in this process.
pub static SENT: AtomicU64 = AtomicU64::new(0);
/// The request still awaiting its answer: what a run that passes its
/// deadline reports as failed.
static UNANSWERED: Mutex<Option<String>> = Mutex::new(None);

/// Kills process `pid` outright and waits (up to 5 s) until it has
/// ended: gone, or a zombie that the exiting parent leaves to `init`.
pub fn kill(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    let stat = format!("/proc/{pid}/stat");
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(5) {
        match std::fs::read_to_string(&stat) {
            Ok(s) if !s.rsplit_once(") ").is_some_and(|(_, r)| r.starts_with('Z')) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => return,
        }
    }
}

/// Drives the client's connection as a closed loop — the next request
/// goes out only once the previous answer is in and the stream's think
/// time has passed — until `until`.
pub fn drive(conn: &mut Connection, stream: &mut Stream, until: Until) -> io::Result<Phase> {
    let start = Instant::now();
    let mut entries = Vec::new();
    loop {
        let done = match until {
            Until::Count(n) => entries.len() >= n,
            Until::Elapsed(d) => start.elapsed() >= d,
        };
        if done {
            break;
        }
        let req = stream.next_request();
        let line = req.to_json();
        SENT.fetch_add(1, Ordering::SeqCst);
        *unanswered() = Some(line.clone());
        let sent = Instant::now();
        let start_ns = sent.duration_since(start).as_nanos() as u64;
        let reply = conn.round_trip(&line)?;
        let latency_ns = sent.elapsed().as_nanos() as u64;
        *unanswered() = None;
        if latency_ns > SLOW_NS {
            eprintln!(
                "perfbench: slow request ({:.3} s): {line}",
                latency_ns as f64 / 1e9
            );
        }
        stream.observe(&reply);
        std::thread::sleep(stream.think());
        entries.push(Entry {
            req,
            reply,
            start_ns,
            latency_ns,
        });
    }
    Ok(Phase {
        started: start,
        entries,
    })
}

/// The request awaiting its answer, if any, even if the client panicked
/// while holding the lock.
pub fn unanswered() -> std::sync::MutexGuard<'static, Option<String>> {
    UNANSWERED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Round-trip times of `count` `stats` requests, in milliseconds: the
/// transport's floor, with no engine work.
pub fn ping(conn: &mut Connection, count: usize) -> io::Result<Vec<f64>> {
    let line = Proto::Stats.to_json();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let sent = Instant::now();
        conn.round_trip(&line)?;
        out.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// The counters and histogram totals of one `metrics` scrape, keyed
/// by `(family, labels)`.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    /// Counter values.
    pub counters: BTreeMap<(String, String), u64>,
    /// Histogram `(count, sum)`.
    pub histograms: BTreeMap<(String, String), (u64, u64)>,
}

impl Scrape {
    /// Scrapes the server's metrics registry.
    pub fn take(conn: &mut Connection) -> io::Result<Scrape> {
        let body = conn.metrics(MetricsFormat::Json)?;
        let doc = json::parse(&body).map_err(|e| io::Error::other(format!("metrics: {e}")))?;
        let key = |v: &json::Value| {
            (
                v.get("name")
                    .and_then(|s| s.as_str())
                    .unwrap_or("")
                    .to_string(),
                v.get("labels")
                    .and_then(|s| s.as_str())
                    .unwrap_or("")
                    .to_string(),
            )
        };
        let mut out = Scrape::default();
        for c in doc
            .get("counters")
            .and_then(|a| a.as_array())
            .unwrap_or(&[])
        {
            let value = c.get("value").and_then(|v| v.as_u64()).unwrap_or(0);
            out.counters.insert(key(c), value);
        }
        for h in doc
            .get("histograms")
            .and_then(|a| a.as_array())
            .unwrap_or(&[])
        {
            let count = h.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
            let sum = h.get("sum").and_then(|v| v.as_u64()).unwrap_or(0);
            out.histograms.insert(key(h), (count, sum));
        }
        Ok(out)
    }

    /// Counter growth from `before` to `self`.
    pub fn counter_delta(&self, before: &Scrape, family: &str, labels: &str) -> u64 {
        let k = (family.to_string(), labels.to_string());
        let now = self.counters.get(&k).copied().unwrap_or(0);
        now.saturating_sub(before.counters.get(&k).copied().unwrap_or(0))
    }

    /// Histogram `(count, sum)` growth from `before` to `self`.
    pub fn histogram_delta(&self, before: &Scrape, family: &str, labels: &str) -> (u64, u64) {
        let k = (family.to_string(), labels.to_string());
        let (c1, s1) = self.histograms.get(&k).copied().unwrap_or((0, 0));
        let (c0, s0) = before.histograms.get(&k).copied().unwrap_or((0, 0));
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}
