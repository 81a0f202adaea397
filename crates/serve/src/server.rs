//! The long-lived evaluation daemon: socket front end, admission queue,
//! batched dispatch, and demultiplexed replies.
//!
//! ## Lifecycle
//!
//! [`Server::bind`] opens the listener (TCP, or a Unix socket for
//! `unix:<path>` addresses), then spawns two service threads:
//!
//! * the **acceptor** hands each connection a reader thread that parses
//!   request lines and pushes them onto the shared admission queue;
//! * the **dispatcher** wakes on the first arrival and drains the queue
//!   into an admission batch: a lone request after a quiet spell goes at
//!   once, while a burst is held only as long as it keeps growing
//!   ([`ServerConfig::batch_window`] caps the hold). Response requests
//!   are grouped by `(k, resolution, tol)` ([`crate::batch::plan_groups`])
//!   and each group runs as **one** policy-major `GBatch` tile;
//!   everything else (equilibrium solves, ESS probes, catalog scans) runs
//!   as singleton work items. The whole batch fans out on the persistent
//!   work-stealing pool (`dispersal_sim::engine::par_map`), and replies
//!   are demultiplexed to each requester's connection by `id`.
//!
//! All evaluation flows through the daemon-lifetime shared caches
//! ([`ServeCaches`]): warm interpolation grids and catalog tiles are
//! shared across requests, connections, and worker threads. On
//! `shutdown` the dispatcher prints a summary — request/batch counters
//! plus one [`CacheStats`] line per cache.

use crate::batch::{self, ResponseJob};
use crate::protocol::{self, Request};
use dispersal_core::kernel::cache::CacheStats;
use dispersal_core::kernel::unit_grid;
use dispersal_core::prelude::*;
use dispersal_mech::catalog::{parse_policy, parse_profile, standard_catalog};
use dispersal_mech::evaluator::{catalog_response_matrix, ResponseCache};
use dispersal_sim::engine;
use dispersal_sim::replicator::ReplicatorConfig;
use dispersal_sim::scenario::{run_scenario_replicator, Scenario};
use dispersal_sim::sweep::SharedGridCache;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address: a TCP `host:port` (use port `0` for an ephemeral
    /// port), or `unix:<path>` for a Unix-domain socket.
    pub addr: String,
    /// Longest the dispatcher holds the admission queue open, measured
    /// from its wake; a twentieth of it is the window's quiet gap (100 µs
    /// at the default 2 ms). A lone request that arrives a quiet gap or
    /// more after the previous batch is drained at once. Otherwise the
    /// dispatcher keeps the queue open while requests keep arriving and
    /// closes it after a quiet gap with no arrival, after `batch_window`,
    /// or at `max_batch` requests. Zero never holds the queue, yet still
    /// drains together everything that arrived while the previous batch
    /// ran.
    pub batch_window: Duration,
    /// Maximum requests drained into one admission batch; a full batch
    /// also closes the admission window.
    pub max_batch: usize,
    /// Longest request line accepted, in bytes. Longer lines are consumed
    /// and discarded without buffering (bounded memory) and answered with
    /// a protocol-level error; the connection stays open and the stream
    /// stays line-synchronized.
    pub max_line_bytes: usize,
    /// Idle read timeout: a connection that sends no bytes for this long
    /// is closed, releasing its reader thread. `None` (or a zero
    /// duration) disables the timeout.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_window: Duration::from_millis(2),
            max_batch: 256,
            max_line_bytes: 1 << 20,
            read_timeout: Some(Duration::from_secs(120)),
        }
    }
}

/// The daemon-lifetime shared caches every request is served through.
#[derive(Debug, Default)]
pub struct ServeCaches {
    /// Interpolation grids for `tol`-mode response requests.
    pub grids: SharedGridCache,
    /// Policy-major catalog tiles for `catalog` requests.
    pub catalog: ResponseCache,
}

/// Monotone service counters (snapshot of the daemon's atomics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// Reply lines written.
    pub replies: u64,
    /// Error replies among them.
    pub errors: u64,
    /// Admission batches dispatched.
    pub admissions: u64,
    /// Response requests that went through group batching.
    pub response_requests: u64,
    /// Distinct `(k, resolution, tol)` groups those formed.
    pub response_groups: u64,
}

impl Metrics {
    /// Average response-batch occupancy: requests per kernel tile. `1.0`
    /// means no cross-request coalescing happened; the serve-smoke CI
    /// gate asserts `≥ 16` for the load generator's 64-request bursts
    /// (at most four tiles per burst).
    pub fn avg_occupancy(&self) -> f64 {
        if self.response_groups == 0 {
            0.0
        } else {
            self.response_requests as f64 / self.response_groups as f64
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    replies: AtomicU64,
    errors: AtomicU64,
    admissions: AtomicU64,
    response_requests: AtomicU64,
    response_groups: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> Metrics {
        Metrics {
            requests: self.requests.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            response_requests: self.response_requests.load(Ordering::Relaxed),
            response_groups: self.response_groups.load(Ordering::Relaxed),
        }
    }
}

/// A connection's reply sink, shared between its reader thread (parse
/// errors) and the dispatcher (results).
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// One admitted request waiting in the queue.
struct Pending {
    id: u64,
    request: Request,
    writer: SharedWriter,
}

struct Inner {
    caches: ServeCaches,
    counters: Counters,
    config: ServerConfig,
    stop: AtomicBool,
    queue: Mutex<VecDeque<Pending>>,
    arrivals: Condvar,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A running daemon. Dropping the handle (or calling
/// [`Server::shutdown`]) stops the service threads; [`Server::join`]
/// blocks until a client's `shutdown` request stops them.
pub struct Server {
    inner: Arc<Inner>,
    addr: String,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind the listener and start the acceptor + dispatcher threads.
    pub fn bind(config: ServerConfig) -> Result<Server> {
        let listener = if let Some(path) = config.addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let listener = UnixListener::bind(path).map_err(Error::from)?;
                listener.set_nonblocking(true).map_err(Error::from)?;
                Listener::Unix(listener)
            }
            #[cfg(not(unix))]
            {
                return Err(Error::InvalidArgument(format!(
                    "unix sockets unsupported on this platform: {path}"
                )));
            }
        } else {
            let listener = TcpListener::bind(config.addr.as_str()).map_err(Error::from)?;
            listener.set_nonblocking(true).map_err(Error::from)?;
            Listener::Tcp(listener)
        };
        let addr = match &listener {
            Listener::Tcp(l) => l.local_addr().map_err(Error::from)?.to_string(),
            #[cfg(unix)]
            Listener::Unix(_) => config.addr.clone(),
        };
        let inner = Arc::new(Inner {
            caches: ServeCaches::default(),
            counters: Counters::default(),
            config,
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            arrivals: Condvar::new(),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || accept_loop(&inner, listener))
        };
        let dispatcher = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || dispatch_loop(&inner))
        };
        Ok(Server { inner, addr, threads: vec![acceptor, dispatcher] })
    }

    /// The bound address clients should connect to — the resolved
    /// `host:port` for TCP (ephemeral port filled in), the configured
    /// `unix:<path>` for Unix sockets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Snapshot of the service counters.
    pub fn metrics(&self) -> Metrics {
        self.inner.counters.snapshot()
    }

    /// Request a stop (idempotent); service threads exit promptly but
    /// asynchronously — follow with [`Server::join`] to wait for them.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.arrivals.notify_all();
    }

    /// Block until the daemon stops (a client `shutdown` request or a
    /// prior [`Server::shutdown`] call), then join the service threads.
    pub fn join(mut self) -> Metrics {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.inner.counters.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: Listener) {
    while !inner.stop.load(Ordering::SeqCst) {
        let accepted: std::io::Result<()> = match &listener {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| spawn_tcp_reader(inner, stream)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(stream, _)| spawn_unix_reader(inner, stream)),
        };
        match accepted {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

fn spawn_tcp_reader(inner: &Arc<Inner>, stream: TcpStream) {
    // Replies are small one-line writes; without TCP_NODELAY, Nagle's
    // algorithm holds them hostage to the peer's delayed ACKs (tens of
    // milliseconds per round trip on a persistent connection).
    let _ = stream.set_nodelay(true);
    if let Some(timeout) = inner.config.read_timeout.filter(|t| !t.is_zero()) {
        let _ = stream.set_read_timeout(Some(timeout));
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
    let inner = Arc::clone(inner);
    thread::spawn(move || read_requests(&inner, BufReader::new(stream), writer));
}

#[cfg(unix)]
fn spawn_unix_reader(inner: &Arc<Inner>, stream: UnixStream) {
    if let Some(timeout) = inner.config.read_timeout.filter(|t| !t.is_zero()) {
        let _ = stream.set_read_timeout(Some(timeout));
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
    let inner = Arc::clone(inner);
    thread::spawn(move || read_requests(&inner, BufReader::new(stream), writer));
}

fn write_line(writer: &SharedWriter, line: &str) {
    if let Ok(mut sink) = writer.lock() {
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
        let _ = sink.flush();
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (newline and any trailing `\r` stripped).
    Line(String),
    /// The line exceeded the cap; `discarded` bytes beyond it were
    /// consumed and thrown away to keep the stream line-synchronized.
    TooLong { discarded: usize },
    /// End of stream (or an unrecoverable read error).
    Eof,
    /// The socket's read timeout elapsed (idle connection).
    TimedOut,
}

/// Read one `\n`-terminated line while retaining at most `max` bytes:
/// an attacker streaming an unterminated line costs `max` bytes of
/// buffer, not unbounded memory as with `BufRead::lines`/`read_line`.
/// A terminal unterminated fragment still counts as a line (parity with
/// `BufRead::lines`).
fn read_bounded_line<R: Read>(reader: &mut BufReader<R>, max: usize) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    let mut discarded = 0usize;
    loop {
        let (consumed, terminated) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineRead::TimedOut;
                }
                Err(_) => return LineRead::Eof,
            };
            if buf.is_empty() {
                return if discarded > 0 {
                    LineRead::TooLong { discarded }
                } else if line.is_empty() {
                    LineRead::Eof
                } else {
                    finish_line(line)
                };
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            let content = newline.unwrap_or(buf.len());
            let keep = content.min(max.saturating_sub(line.len()));
            if keep > 0 {
                line.extend_from_slice(&buf[..keep]);
            }
            discarded += content - keep;
            (newline.map_or(buf.len(), |i| i + 1), newline.is_some())
        };
        reader.consume(consumed);
        if terminated {
            return if discarded > 0 { LineRead::TooLong { discarded } } else { finish_line(line) };
        }
    }
}

fn finish_line(mut line: Vec<u8>) -> LineRead {
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(text) => LineRead::Line(text),
        // Invalid UTF-8 closed the connection under `lines()` too.
        Err(_) => LineRead::Eof,
    }
}

fn read_requests<R: Read>(inner: &Arc<Inner>, mut reader: BufReader<R>, writer: SharedWriter) {
    let max_line = inner.config.max_line_bytes.max(1);
    loop {
        match read_bounded_line(&mut reader, max_line) {
            LineRead::Eof | LineRead::TimedOut => break,
            LineRead::TooLong { discarded } => {
                // Protocol-level error: the peer learns its request was
                // dropped and the connection stays usable.
                inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                inner.counters.replies.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "request line exceeds the {max_line}-byte limit \
                     ({discarded} excess bytes discarded)"
                );
                write_line(&writer, &protocol::err_reply(0, &message));
            }
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                let (id, parsed) = protocol::parse_line(&line);
                match parsed {
                    Err(message) => {
                        // Malformed requests are answered straight from the
                        // reader thread — they carry no work to batch.
                        inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                        inner.counters.replies.fetch_add(1, Ordering::Relaxed);
                        write_line(&writer, &protocol::err_reply(id, &message));
                    }
                    Ok(request) => {
                        let pending = Pending { id, request, writer: Arc::clone(&writer) };
                        if let Ok(mut queue) = inner.queue.lock() {
                            queue.push_back(pending);
                        }
                        inner.arrivals.notify_all();
                    }
                }
            }
        }
    }
}

/// The admission window's quiet gap is `batch_window / QUIET_GAP_DIVISOR`
/// (100 µs at the default 2 ms window). A held window closes once a quiet
/// gap passes with no new arrival. The requests of a concurrent burst
/// arrive close together, so a short gap still gathers them while
/// costing a finished burst little, and a daemon given a longer window
/// (a loaded host) waits proportionally longer for stragglers.
const QUIET_GAP_DIVISOR: u32 = 20;

fn dispatch_loop(inner: &Arc<Inner>) {
    let max_batch = inner.config.max_batch.max(1);
    let quiet_gap = inner.config.batch_window / QUIET_GAP_DIVISOR;
    // When the previous batch's replies went out.
    let mut answered: Option<Instant> = None;
    loop {
        let batch: Vec<Pending> = {
            let Ok(mut queue) = inner.queue.lock() else { break };
            // Sleep until the first arrival (or stop).
            while queue.is_empty() && !inner.stop.load(Ordering::SeqCst) {
                match inner.arrivals.wait_timeout(queue, Duration::from_millis(50)) {
                    Ok((guard, _)) => queue = guard,
                    Err(_) => return,
                }
            }
            if queue.is_empty() {
                break; // stop requested with nothing left to serve
            }
            // Adaptive admission window. A lone request that lands a quiet
            // gap or more after the previous batch has nothing to
            // coalesce with and dispatches at once. Anything else (a
            // burst, or traffic still arriving) stays open while the
            // queue keeps growing, up to `batch_window` from the wake or
            // `max_batch` requests.
            let wake = Instant::now();
            let arriving = answered.is_some_and(|t| wake.duration_since(t) < quiet_gap);
            while (queue.len() > 1 || arriving) && queue.len() < max_batch {
                let Some(left) = inner.config.batch_window.checked_sub(wake.elapsed()) else {
                    break;
                };
                let before = queue.len();
                let gap = quiet_gap.min(left);
                let Ok((guard, quiet)) =
                    inner.arrivals.wait_timeout_while(queue, gap, |q| q.len() == before)
                else {
                    return;
                };
                queue = guard;
                if quiet.timed_out() {
                    break;
                }
            }
            let take = queue.len().min(max_batch);
            queue.drain(..take).collect()
        };
        inner.counters.admissions.fetch_add(1, Ordering::Relaxed);
        let stopping = process_batch(inner, &batch);
        answered = Some(Instant::now());
        if stopping {
            inner.stop.store(true, Ordering::SeqCst);
            print_summary(inner);
            break;
        }
    }
}

/// One unit of pool work: a coalesced response group, or a singleton.
enum WorkItem {
    Group(batch::Group),
    Single(usize),
}

/// Evaluate and answer one admission batch. Returns whether a
/// `shutdown` request was part of it.
fn process_batch(inner: &Arc<Inner>, admitted: &[Pending]) -> bool {
    // Split response requests (batchable) from singleton work.
    let mut jobs: Vec<ResponseJob> = Vec::new();
    let mut job_owner: Vec<usize> = Vec::new(); // job index -> admitted index
    let mut items: Vec<WorkItem> = Vec::new();
    for (index, pending) in admitted.iter().enumerate() {
        match &pending.request {
            Request::Response { k, resolution, tol, .. } => {
                jobs.push(ResponseJob { k: *k, resolution: *resolution, tol: *tol });
                job_owner.push(index);
            }
            _ => items.push(WorkItem::Single(index)),
        }
    }
    let groups = batch::plan_groups(&jobs);
    inner.counters.response_groups.fetch_add(groups.len() as u64, Ordering::Relaxed);
    inner.counters.response_requests.fetch_add(jobs.len() as u64, Ordering::Relaxed);
    items.extend(groups.into_iter().map(WorkItem::Group));

    // Fan the whole batch out on the persistent pool. Each item returns
    // its own (admitted index, per-request outcome) pairs; a failed
    // request never fails the batch.
    let evaluated: Vec<Vec<(usize, std::result::Result<Value, String>)>> =
        match engine::par_map(items, |item| {
            Ok(match item {
                WorkItem::Single(index) => {
                    vec![(index, eval_single(inner, &admitted[index].request))]
                }
                WorkItem::Group(group) => eval_group(inner, &group, &job_owner, admitted),
            })
        }) {
            Ok(results) => results,
            Err(e) => {
                // The pool itself failed (never expected): answer every
                // request with the error so no client hangs.
                let message = format!("dispatch failed: {e}");
                (0..admitted.len()).map(|i| vec![(i, Err(message.clone()))]).collect()
            }
        };

    for (index, outcome) in evaluated.into_iter().flatten() {
        let pending = &admitted[index];
        let line = match outcome {
            Ok(result) => protocol::ok_reply(pending.id, result),
            Err(message) => {
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                protocol::err_reply(pending.id, &message)
            }
        };
        inner.counters.replies.fetch_add(1, Ordering::Relaxed);
        write_line(&pending.writer, &line);
    }
    admitted.iter().any(|p| p.request == Request::Shutdown)
}

/// Evaluate one coalesced response group as a single kernel tile.
fn eval_group(
    inner: &Arc<Inner>,
    group: &batch::Group,
    job_owner: &[usize],
    admitted: &[Pending],
) -> Vec<(usize, std::result::Result<Value, String>)> {
    // Parse each member's policy spec; spec errors stay per-member.
    let mut owners: Vec<usize> = Vec::with_capacity(group.members.len());
    let mut policies: Vec<Box<dyn Congestion>> = Vec::with_capacity(group.members.len());
    let mut out: Vec<(usize, std::result::Result<Value, String>)> = Vec::new();
    for &job_index in &group.members {
        let owner = job_owner[job_index];
        let Request::Response { policy, .. } = &admitted[owner].request else {
            continue; // unreachable: groups are planned from Response jobs
        };
        match parse_policy(policy) {
            Ok(parsed) => {
                owners.push(owner);
                policies.push(parsed);
            }
            Err(e) => out.push((owner, Err(e.to_string()))),
        }
    }
    if policies.is_empty() {
        return out;
    }
    let refs: Vec<&dyn Congestion> = policies.iter().map(|p| p.as_ref()).collect();
    let tile = unit_grid(group.resolution).and_then(|qs| {
        let curves = match group.tol_bits {
            None => batch::eval_exact_tile(&refs, group.k, group.resolution),
            Some(bits) => batch::eval_interp_tile(
                &refs,
                group.k,
                group.resolution,
                f64::from_bits(bits),
                &inner.caches.grids,
            ),
        }?;
        Ok((qs, curves))
    });
    match tile {
        Ok((qs, curves)) => {
            for ((owner, policy), g) in owners.iter().zip(refs.iter()).zip(curves) {
                out.push((
                    *owner,
                    Ok(protocol::object(vec![
                        ("policy", Value::Str(policy.name())),
                        ("k", Value::UInt(group.k as u64)),
                        ("qs", protocol::float_array(&qs)),
                        ("g", protocol::float_array(&g)),
                    ])),
                ));
            }
        }
        Err(e) => {
            // A tile-level failure (bad k, bad tolerance) addresses every
            // member — their requests share the failing shape.
            let message = e.to_string();
            out.extend(owners.iter().map(|&owner| (owner, Err(message.clone()))));
        }
    }
    out
}

/// Evaluate one non-response request.
fn eval_single(inner: &Arc<Inner>, request: &Request) -> std::result::Result<Value, String> {
    match request {
        Request::Response { .. } => Err("response requests are batched".into()), // unreachable
        Request::Equilibrium { policy, profile, k } => {
            let policy = parse_policy(policy).map_err(|e| e.to_string())?;
            let f = parse_profile(profile).map_err(|e| e.to_string())?;
            let ifd =
                solve_ifd_allow_degenerate(policy.as_ref(), &f, *k).map_err(|e| e.to_string())?;
            let cover = coverage(&f, &ifd.strategy, *k).map_err(|e| e.to_string())?;
            let ctx = PayoffContext::new(policy.as_ref(), *k).map_err(|e| e.to_string())?;
            let payoff = ctx.symmetric_payoff(&f, &ifd.strategy).map_err(|e| e.to_string())?;
            Ok(protocol::object(vec![
                ("policy", Value::Str(policy.name())),
                ("k", Value::UInt(*k as u64)),
                ("coverage", Value::Float(cover)),
                ("payoff", Value::Float(payoff)),
                ("support", Value::UInt(ifd.support as u64)),
                ("residual", Value::Float(ifd.residual)),
                ("probs", protocol::float_array(ifd.strategy.probs())),
            ]))
        }
        Request::Ess { profile, k, mutants, seed } => {
            let f = parse_profile(profile).map_err(|e| e.to_string())?;
            // The probe's cost is known once the profile's size is: refuse
            // it before any work, as the parser refuses oversized fields.
            let work = protocol::ess_work(f.len(), *k, *mutants);
            if work > protocol::MAX_ESS_WORK {
                return Err(format!(
                    "ess work (6M + 6 + mutants)·M·k² = {work} exceeds the limit {}",
                    protocol::MAX_ESS_WORK
                ));
            }
            let star = sigma_star(&f, *k).map_err(|e| e.to_string())?;
            let mut rng = ChaCha8Rng::seed_from_u64(*seed);
            let report = probe_ess_k(&Exclusive, &f, &star.strategy, *mutants, &mut rng, *k)
                .map_err(|e| e.to_string())?;
            Ok(protocol::object(vec![
                ("passed", Value::Bool(report.passed())),
                ("mutants", Value::UInt(report.mutants_tested as u64)),
                ("repelled", Value::UInt(report.repelled as u64)),
                ("worst_margin", Value::Float(report.worst_margin)),
            ]))
        }
        Request::Catalog { k, resolution } => {
            let catalog = standard_catalog();
            let response =
                catalog_response_matrix(&catalog, *k, *resolution, &inner.caches.catalog)
                    .map_err(|e| e.to_string())?;
            Ok(protocol::object(vec![
                (
                    "names",
                    Value::Array(response.names.iter().map(|n| Value::Str(n.clone())).collect()),
                ),
                ("k", Value::UInt(*k as u64)),
                ("tolerance", protocol::float_array(&response.tolerance_score)),
            ]))
        }
        Request::Stats => Ok(metrics_value(inner)),
        Request::Shutdown => Ok(protocol::object(vec![("stopping", Value::Bool(true))])),
        Request::Scenario { policy, profile, k, epochs, events, explore } => {
            let policy = parse_policy(policy).map_err(|e| e.to_string())?;
            let f = parse_profile(profile).map_err(|e| e.to_string())?;
            let scenario = Scenario::new(f, *epochs, events.clone()).map_err(|e| e.to_string())?;
            let start = Strategy::uniform(scenario.sites()).map_err(|e| e.to_string())?;
            let run = run_scenario_replicator(
                policy.as_ref(),
                &scenario,
                &start,
                *k,
                *explore,
                ReplicatorConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            let distances: Vec<f64> = run.records.iter().map(|r| r.ifd_distance).collect();
            Ok(protocol::object(vec![
                ("policy", Value::Str(policy.name())),
                ("k", Value::UInt(*k as u64)),
                ("epochs", Value::UInt(*epochs)),
                ("ifd_distance", protocol::float_array(&distances)),
                (
                    "steps",
                    Value::Array(run.records.iter().map(|r| Value::UInt(r.steps as u64)).collect()),
                ),
                ("converged", Value::Bool(run.records.iter().all(|r| r.converged))),
                ("worst_distance", Value::Float(run.worst_distance())),
                ("final_state", protocol::float_array(run.final_state.probs())),
            ]))
        }
    }
}

fn cache_stats_value(stats: CacheStats) -> Value {
    protocol::object(vec![
        ("hits", Value::UInt(stats.hits)),
        ("misses", Value::UInt(stats.misses)),
        ("evictions", Value::UInt(stats.evictions)),
        ("entries", Value::UInt(stats.entries as u64)),
        ("capacity", Value::UInt(stats.capacity as u64)),
    ])
}

fn metrics_value(inner: &Arc<Inner>) -> Value {
    let metrics = inner.counters.snapshot();
    protocol::object(vec![
        ("requests", Value::UInt(metrics.requests)),
        ("replies", Value::UInt(metrics.replies)),
        ("errors", Value::UInt(metrics.errors)),
        ("admissions", Value::UInt(metrics.admissions)),
        ("response_requests", Value::UInt(metrics.response_requests)),
        ("response_groups", Value::UInt(metrics.response_groups)),
        ("avg_occupancy", Value::Float(metrics.avg_occupancy())),
        (
            "caches",
            protocol::object(vec![
                ("grid", cache_stats_value(inner.caches.grids.stats())),
                ("catalog", cache_stats_value(inner.caches.catalog.stats())),
            ]),
        ),
    ])
}

fn print_summary(inner: &Arc<Inner>) {
    let metrics = inner.counters.snapshot();
    println!(
        "serve: {} requests ({} errors) in {} admission batches; \
         {} response requests over {} kernel tiles (avg occupancy {:.2})",
        metrics.requests,
        metrics.errors,
        metrics.admissions,
        metrics.response_requests,
        metrics.response_groups,
        metrics.avg_occupancy()
    );
    println!("serve: grid cache    {}", inner.caches.grids.stats());
    println!("serve: catalog cache {}", inner.caches.catalog.stats());
}
