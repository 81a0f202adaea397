//! The daemon under test: the `dispersal serve` binary built from this
//! checkout, started as its own process with its default configuration.

use crate::net::{reply_head, Conn};
use crate::watchdog::{beat, register, unregister};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// The `dispersal` binary, built next to this one by `run.sh`.
pub fn binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let bin = exe.with_file_name("dispersal");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("daemon binary {} not found; build it with run.sh", bin.display()))
    }
}

/// A running daemon process. Dropping it kills the process and waits.
pub struct Daemon {
    child: Child,
    /// Held open until the process exits: the daemon prints a summary
    /// on shutdown (a few hundred bytes, well under the pipe buffer), and
    /// a closed pipe would make that print fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Time from spawn to the first successful reply.
    pub setup: Duration,
}

/// The request whose first successful reply ends set-up.
const FIRST_REQUEST: &str =
    r#"{"id":1,"cmd":"response","policy":"sharing","k":64,"resolution":256}"#;

impl Daemon {
    /// Spawn `dispersal serve` on an ephemeral port and wait for its first
    /// successful reply.
    pub fn start() -> Result<Daemon, String> {
        let bin = binary()?;
        let started = Instant::now();
        let mut child = Command::new(&bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        register(&child);
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        if !matches!(stdout.read_line(&mut banner), Ok(n) if n > 0) {
            let _ = child.kill();
            let _ = child.wait();
            unregister(&child);
            return Err("daemon exited before listening".into());
        }
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: banner.trim_start_matches("listening on ").trim().to_string(),
            setup: Duration::ZERO,
        };
        let mut conn = daemon.connect()?;
        let reply = conn.call(FIRST_REQUEST).map_err(|e| format!("first request failed: {e}"))?;
        if reply_head(&reply) != Some((1, true)) {
            return Err(format!("first request rejected: {reply}"));
        }
        daemon.setup = started.elapsed();
        beat();
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// Ask the daemon to stop and wait for it to exit (killing it if it
    /// has not within a few seconds).
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.call(r#"{"id":0,"cmd":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) => thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        Err("daemon did not stop within 5 s of shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        unregister(&self.child);
    }
}

/// Start `count` daemons one after another, stopping all but the last;
/// returns the last and every set-up time in seconds.
pub fn start_repeatedly(count: usize) -> Result<(Daemon, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(count);
    let mut daemon = Daemon::start()?;
    setups.push(daemon.setup.as_secs_f64());
    for _ in 1..count {
        daemon.stop()?;
        daemon = Daemon::start()?;
        setups.push(daemon.setup.as_secs_f64());
    }
    Ok((daemon, setups))
}

/// The daemon's `stats` counters that the traced run reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub requests: u64,
    pub errors: u64,
    pub admissions: u64,
    pub response_requests: u64,
    pub response_groups: u64,
    pub grid_hits: u64,
    pub grid_misses: u64,
    pub grid_evictions: u64,
    pub catalog_hits: u64,
    pub catalog_misses: u64,
}

fn get<'v>(value: &'v Value, path: &[&str]) -> Option<&'v Value> {
    let mut at = value;
    for key in path {
        at = at.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)?;
    }
    Some(at)
}

fn count(value: &Value, path: &[&str]) -> Result<u64, String> {
    match get(value, path) {
        Some(Value::UInt(u)) => Ok(*u),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("stats reply lacks {}", path.join("."))),
    }
}

/// Read the daemon's counters over `conn` (which must be idle).
pub fn stats(conn: &mut Conn) -> Result<Stats, String> {
    let line = conn.call(r#"{"id":0,"cmd":"stats"}"#).map_err(|e| format!("stats: {e}"))?;
    let value: Value = serde_json::from_str(&line).map_err(|e| format!("stats reply: {e}"))?;
    let r = get(&value, &["result"]).ok_or_else(|| format!("stats failed: {line}"))?;
    Ok(Stats {
        requests: count(r, &["requests"])?,
        errors: count(r, &["errors"])?,
        admissions: count(r, &["admissions"])?,
        response_requests: count(r, &["response_requests"])?,
        response_groups: count(r, &["response_groups"])?,
        grid_hits: count(r, &["caches", "grid", "hits"])?,
        grid_misses: count(r, &["caches", "grid", "misses"])?,
        grid_evictions: count(r, &["caches", "grid", "evictions"])?,
        catalog_hits: count(r, &["caches", "catalog", "hits"])?,
        catalog_misses: count(r, &["caches", "catalog", "misses"])?,
    })
}

impl Stats {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Stats) -> Stats {
        Stats {
            requests: self.requests - before.requests,
            errors: self.errors - before.errors,
            admissions: self.admissions - before.admissions,
            response_requests: self.response_requests - before.response_requests,
            response_groups: self.response_groups - before.response_groups,
            grid_hits: self.grid_hits - before.grid_hits,
            grid_misses: self.grid_misses - before.grid_misses,
            grid_evictions: self.grid_evictions - before.grid_evictions,
            catalog_hits: self.catalog_hits - before.catalog_hits,
            catalog_misses: self.catalog_misses - before.catalog_misses,
        }
    }
}
