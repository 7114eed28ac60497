//! Driving `p4testgen serve`: spawn the daemon, wait for `/readyz`, run
//! closed-loop client connections over its newline-delimited JSON
//! protocol, and scrape `/metrics`.

use crate::pipeline::Request;
use serde::value::{Number, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads and client connections: two of each, so requests
/// overlap without queueing behind one another.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;

pub struct Daemon {
    child: Child,
    pub addr: String,
    status_addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start the daemon on ephemeral ports with default cache sizes and
    /// wait until `/readyz` answers 200.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--status-addr",
            "127.0.0.1:0",
        ])
        .args(["--workers", &WORKERS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        // Request configs default from these; the benchmark pins them.
        for (k, _) in std::env::vars() {
            if k.starts_with("P4TESTGEN_") {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut status_addr = None;
        let mut line = String::new();
        while addr.is_none() || status_addr.is_none() {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before announcing its addresses".to_string());
            }
            let l = line.trim();
            if let Some(rest) = l.strip_prefix("p4testgen: status endpoint listening on http://") {
                status_addr = Some(rest.split(' ').next().unwrap_or(rest).to_string());
            }
            if let Some(rest) = l.strip_prefix("p4testgen: serve listening on ") {
                addr = Some(rest.split(' ').next().unwrap_or(rest).to_string());
            }
        }
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        let d = Daemon {
            child,
            addr: addr.expect("loop ends with an address"),
            status_addr: status_addr.expect("loop ends with a status address"),
            stderr: Some(stderr),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = d.http_get("/readyz") {
                return Ok(d);
            }
            if Instant::now() > deadline {
                return Err("daemon never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Minimal HTTP/1.0 GET against the status endpoint.
    pub fn http_get(&self, path: &str) -> Result<(u32, String), String> {
        let mut s = TcpStream::connect(&self.status_addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        write!(s, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").map_err(|e| e.to_string())?;
        let mut resp = String::new();
        s.read_to_string(&mut resp).map_err(|e| e.to_string())?;
        let code = resp
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed HTTP response to {path}"))?;
        let body = resp
            .split_once("\r\n\r\n")
            .map_or("", |(_, b)| b)
            .to_string();
        Ok((code, body))
    }

    /// Stop the daemon and wait for it and its stderr reader.
    pub fn stop(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// The response fields the benchmark reads.
pub struct Reply {
    pub index: usize,
    pub ok: bool,
    pub status: String,
    pub suite: String,
    pub queue_ms: f64,
    pub run_ms: f64,
    pub ir_hit: bool,
    pub instance_hit: bool,
    pub coverage_pct: f64,
    pub sent: Instant,
    pub received: Instant,
    /// The daemon's CPU seconds just after this reply arrived (timed
    /// windows only).
    pub daemon_cpu: f64,
}

impl Reply {
    pub fn latency(&self) -> Duration {
        self.received - self.sent
    }
}

fn request_line(id: usize, r: &Request) -> String {
    let s = |v: &str| Value::String(v.to_string());
    let u = |v: u64| Value::Number(Number::U(v));
    let config = Value::Object(vec![
        ("seed".to_string(), u(r.seed)),
        ("jobs".to_string(), u(1)),
        ("max_tests".to_string(), u(0)),
    ]);
    let v = Value::Object(vec![
        ("id".to_string(), u(id as u64)),
        ("tenant".to_string(), s("perfbench")),
        ("name".to_string(), s(&r.name)),
        ("target".to_string(), s(r.target.name())),
        ("backend".to_string(), s("stf")),
        ("source".to_string(), s(&r.source)),
        ("config".to_string(), config),
    ]);
    let mut line = serde_json::to_string(&v).expect("a Value always serializes");
    line.push('\n');
    line
}

fn parse_reply(index: usize, line: &str, sent: Instant, received: Instant) -> Reply {
    let v: Value = serde_json::from_str(line.trim()).unwrap_or(Value::Null);
    let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let cache = |k: &str| {
        v.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Value::as_str)
            == Some("hit")
    };
    let status = v
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or("malformed")
        .to_string();
    Reply {
        index,
        ok: status == "ok",
        status,
        suite: v
            .get("suite")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        queue_ms: f("queue_ms"),
        run_ms: f("run_ms"),
        ir_hit: cache("ir"),
        instance_hit: cache("instance"),
        coverage_pct: v
            .get("summary")
            .and_then(|s| s.get("coverage_percent"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        sent,
        received,
        daemon_cpu: 0.0,
    }
}

/// A timed window: clients stop taking new requests once `until` has
/// passed and the requests sent make whole blocks of `block` (at least
/// one). After each reply the client reads the daemon's CPU seconds, so
/// slices of replies can be charged the CPU time the daemon spent on them.
/// With `between`, the clients also stop at each block boundary inside the
/// window until every earlier reply has arrived, and `between` runs once
/// there, with no request in flight.
pub struct Window<'a> {
    pub until: Instant,
    pub block: usize,
    pub pid: &'a str,
    pub between: Option<&'a (dyn Fn() + Sync)>,
}

/// Where the clients stand at block boundaries: replies received, the last
/// boundary whose `between` has run, and whether a client gave up.
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, usize, bool)>,
    moved: Condvar,
}

impl Gate {
    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, usize, bool)> {
        self.state
            .lock()
            .expect("no client panics holding the lock")
    }

    fn wait<'g>(
        &self,
        g: std::sync::MutexGuard<'g, (usize, usize, bool)>,
    ) -> std::sync::MutexGuard<'g, (usize, usize, bool)> {
        self.moved
            .wait(g)
            .expect("no client panics holding the lock")
    }

    /// Hold request `i` until its block's boundary is passed. The client
    /// that takes the boundary's own request waits for every earlier reply
    /// and runs `between`; the other waits for that to finish.
    fn pass(&self, i: usize, block: usize, between: &(dyn Fn() + Sync)) -> Result<(), String> {
        let boundary = i / block * block;
        let mut g = self.lock();
        if i == boundary {
            while g.0 < i && !g.2 {
                g = self.wait(g);
            }
            if !g.2 {
                drop(g);
                between();
                g = self.lock();
                g.1 = boundary;
                self.moved.notify_all();
            }
        } else {
            while g.1 < boundary && !g.2 {
                g = self.wait(g);
            }
        }
        if g.2 {
            return Err("the other client stopped".to_string());
        }
        Ok(())
    }

    fn update(&self, f: impl FnOnce(&mut (usize, usize, bool))) {
        f(&mut self.lock());
        self.moved.notify_all();
    }
}

/// Closed loop: `CLIENTS` connections each send the next request of
/// `requests` only after the previous reply arrived, each request at most
/// once. Without a window every request is sent.
pub fn closed_loop(
    addr: &str,
    requests: &[&Request],
    window: Option<&Window<'_>>,
) -> Result<Vec<Reply>, String> {
    let next = AtomicUsize::new(0);
    let stop = AtomicUsize::new(usize::MAX);
    let replies = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let gate = Gate::default();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let result = client(addr, requests, window, (&next, &stop), &gate, &replies);
                if let Err(e) = result {
                    gate.update(|g| g.2 = true);
                    errors
                        .lock()
                        .expect("no client panics holding the lock")
                        .push(e);
                }
            });
        }
    });
    let errors = errors.into_inner().expect("client threads joined");
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let mut replies = replies.into_inner().expect("client threads joined");
    replies.sort_by_key(|r| r.index);
    Ok(replies)
}

fn client(
    addr: &str,
    requests: &[&Request],
    window: Option<&Window<'_>>,
    (next, stop): (&AtomicUsize, &AtomicUsize),
    gate: &Gate,
    replies: &Mutex<Vec<Reply>>,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut line = String::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        // The first client to take a request after the window closes sets
        // the end to the next block boundary; requests before it still go.
        if let Some(w) = window {
            if i >= w.block && Instant::now() >= w.until {
                stop.fetch_min(i.next_multiple_of(w.block), Ordering::Relaxed);
            }
        }
        // The stream is never reused: a repeated fresh program would be a
        // cache hit.
        if i >= requests.len() || i >= stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        if let Some((w, between)) = window.and_then(|w| Some((w, w.between?))) {
            if i >= w.block {
                gate.pass(i, w.block, between)?;
            }
        }
        let out = request_line(i, requests[i]);
        let sent = Instant::now();
        stream
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?
            == 0
        {
            return Err("daemon closed the connection".to_string());
        }
        let mut reply = parse_reply(i, &line, sent, Instant::now());
        if let Some(w) = window {
            reply.daemon_cpu = crate::sys::cpu_seconds(w.pid)?;
        }
        replies
            .lock()
            .expect("no client panics holding the lock")
            .push(reply);
        gate.update(|g| g.0 += 1);
    }
}

/// Sum of a Prometheus sample over every label set matching `labels`.
pub fn prom_value(text: &str, name: &str, labels: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(key, _)| {
            key.strip_prefix(name).is_some_and(|rest| {
                rest.is_empty() || (rest.starts_with('{') && rest.contains(labels))
            })
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}
