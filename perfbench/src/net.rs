//! Client side of the load generator: line connections, the open-loop
//! driver (sends on a fixed schedule, one thread receiving for every
//! connection) and the closed-loop driver (a fixed number of requests in
//! flight per connection). Both use at most two threads, the host's core
//! count, whatever the number of connections (besides the run's idle
//! watchdog, see `watchdog.rs`).

use crate::gen::{Request, Scheduled};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::thread;
use std::time::{Duration, Instant};

/// The reading half of a connection: a byte buffer split into lines.
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    /// Read whatever is available (blocking until at least one byte).
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Pop one complete line from the buffer, if there is one.
    fn pop_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let rest = self.buf.split_off(end + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop();
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Block for the next line.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.pop_line() {
                return Ok(line);
            }
            self.fill()?;
        }
    }
}

/// One connection to the daemon.
pub struct Conn {
    writer: TcpStream,
    pub reader: LineReader,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = LineReader { stream: writer.try_clone()?, buf: Vec::new() };
        Ok(Conn { writer, reader })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.reader.recv()
    }
}

/// `id` and `ok` of a reply line, read from its fixed prefix
/// `{"id":N,"ok":true|false` without parsing the body.
pub fn reply_head(line: &str) -> Option<(u64, bool)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id = rest[..digits].parse().ok()?;
    let rest = rest[digits..].strip_prefix(",\"ok\":")?;
    if rest.starts_with("true") {
        Some((id, true))
    } else if rest.starts_with("false") {
        Some((id, false))
    } else {
        None
    }
}

/// One received reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub id: u64,
    pub at: Instant,
    pub ok: bool,
    /// The full line, kept only for the ids the caller asked to check.
    pub line: Option<String>,
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

const POLLIN: std::os::raw::c_short = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: std::os::raw::c_int) -> i32;
}

/// Which of `fds` are readable (or closed) within `timeout_ms`.
fn readable(fds: &[RawFd], timeout_ms: i32) -> io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `struct pollfd`-layout entries for the duration of the call, and
    // poll(2) writes only their `revents` fields.
    let n = unsafe { poll(set.as_mut_ptr(), set.len() as std::os::raw::c_ulong, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(set.iter().map(|p| p.revents != 0).collect())
}

/// What an open-loop phase observed.
pub struct OpenLoop {
    /// Phase origin: schedule offsets are relative to it.
    pub t0: Instant,
    /// Actual send time of each scheduled line (schedule order).
    pub sent: Vec<Instant>,
    pub replies: Vec<Reply>,
}

impl OpenLoop {
    /// How late each send went out relative to its schedule, in ms.
    pub fn lateness_ms(&self, schedule: &[Scheduled]) -> Vec<f64> {
        schedule
            .iter()
            .zip(&self.sent)
            .map(|(s, &at)| at.saturating_duration_since(self.t0 + s.at).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Drive `schedule` open-loop over `conns`: this thread sends every line
/// at its due time whatever the replies do, and one receiver thread
/// collects replies from all connections. Replies still missing
/// `grace` after the last send are left out (the caller counts them as
/// failed).
pub fn open_loop(
    conns: &mut [Conn],
    schedule: &[Scheduled],
    keep: &HashSet<u64>,
    grace: Duration,
) -> io::Result<OpenLoop> {
    let last = schedule.last().map_or(Duration::ZERO, |s| s.at);
    // A short lead lets the receiver start before the first send.
    let t0 = Instant::now() + Duration::from_millis(5);
    let give_up = t0 + last + grace;
    let expected = schedule.len();
    let (writers, readers): (Vec<&mut TcpStream>, Vec<&mut LineReader>) =
        conns.iter_mut().map(|c| (&mut c.writer, &mut c.reader)).unzip();
    thread::scope(|scope| {
        let receiver = scope.spawn(move || -> io::Result<Vec<Reply>> {
            let fds: Vec<RawFd> = readers.iter().map(|r| r.stream.as_raw_fd()).collect();
            let mut readers = readers;
            let mut replies = Vec::with_capacity(expected);
            while replies.len() < expected && Instant::now() < give_up {
                let ready = readable(&fds, 20)?;
                for (reader, ready) in readers.iter_mut().zip(ready) {
                    if !ready {
                        continue;
                    }
                    reader.fill()?;
                    let at = Instant::now();
                    crate::watchdog::beat();
                    while let Some(line) = reader.pop_line() {
                        let (id, ok) = reply_head(&line).unwrap_or((0, false));
                        let line = keep.contains(&id).then_some(line);
                        replies.push(Reply { id, at, ok, line });
                    }
                }
            }
            Ok(replies)
        });
        let mut writers = writers;
        let mut sent = Vec::with_capacity(expected);
        let mut bytes = Vec::new();
        for s in schedule {
            let due = t0 + s.at;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            bytes.clear();
            bytes.extend_from_slice(s.request.line.as_bytes());
            bytes.push(b'\n');
            sent.push(Instant::now());
            writers[s.conn].write_all(&bytes)?;
            crate::watchdog::beat();
        }
        let replies =
            receiver.join().map_err(|_| io::Error::other("receiver thread panicked"))??;
        Ok(OpenLoop { t0, sent, replies })
    })
}

/// What a closed-loop phase observed on one connection.
#[derive(Debug, Default, Clone)]
pub struct ClosedLoop {
    /// Arrival times of the replies inside the measured window.
    pub completed: Vec<Instant>,
    /// Requests sent (all of them are answered before returning).
    pub attempted: u64,
    /// Error replies.
    pub failed: u64,
}

/// Keep `depth` requests in flight on `conn` until `until`, drawing
/// lines from `next`, then drain the outstanding ones.
pub fn closed_loop(
    conn: &mut Conn,
    depth: usize,
    until: Instant,
    mut next: impl FnMut() -> Request,
) -> io::Result<ClosedLoop> {
    let mut stats = ClosedLoop::default();
    let mut outstanding = 0usize;
    for _ in 0..depth {
        conn.send(&next().line)?;
        outstanding += 1;
        stats.attempted += 1;
    }
    while outstanding > 0 {
        let line = conn.reader.recv()?;
        outstanding -= 1;
        let now = Instant::now();
        crate::watchdog::beat();
        if !matches!(reply_head(&line), Some((_, true))) {
            stats.failed += 1;
        }
        if now <= until {
            stats.completed.push(now);
            conn.send(&next().line)?;
            outstanding += 1;
            stats.attempted += 1;
        }
    }
    Ok(stats)
}

/// Replies per second over `[start, until)`: the median over `windows`
/// equal windows, so a transient stall moves one window, not the figure.
pub fn windowed_rate(times: &[Instant], start: Instant, until: Instant, windows: u32) -> f64 {
    let width = (until - start) / windows;
    let mut counts = vec![0u32; windows as usize];
    for t in times {
        let w = (t.saturating_duration_since(start).as_secs_f64() / width.as_secs_f64()) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| f64::from(c) / width.as_secs_f64()).collect();
    crate::stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        let start = Instant::now();
        let until = start + Duration::from_secs(4);
        // 100/s steadily, except nothing during the second second.
        let times: Vec<Instant> = (0..400)
            .map(|i| start + Duration::from_millis(i * 10 + 5))
            .filter(|t| {
                !(start + Duration::from_secs(1)..start + Duration::from_secs(2)).contains(t)
            })
            .collect();
        assert_eq!(windowed_rate(&times, start, until, 4), 100.0);
    }

    #[test]
    fn reply_heads_parse_without_the_body() {
        assert_eq!(reply_head(r#"{"id":42,"ok":true,"result":{}}"#), Some((42, true)));
        assert_eq!(reply_head(r#"{"id":7,"ok":false,"error":"x"}"#), Some((7, false)));
        assert_eq!(reply_head(r#"{"ok":true}"#), None);
        assert_eq!(reply_head("garbage"), None);
    }
}
