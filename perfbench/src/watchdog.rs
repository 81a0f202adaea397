//! Stopping a stuck run.
//!
//! The vendored pool can deadlock at the end of a job: a worker whose own
//! deque is empty keeps that deque's lock while it locks the other
//! worker's deque to steal, so two workers stealing at once wait on each
//! other forever. A deadlocked library call cannot be cancelled, so the
//! run watches its own progress: every timed call, send or reply calls
//! [`beat`], and a run with no beat for [`STALL`] kills its children and
//! exits with [`STALLED`]; `run.sh` then runs it again (up to three
//! times), telling the new process how many stalled calls to count as
//! failed. A run that outlives
//! its time limit is stopped the same way.

use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Exit status of a stalled run.
pub const STALLED: u8 = 4;
/// Exit status of a run stopped at its time limit.
pub const TIMED_OUT: u8 = 3;
/// A healthy run beats at least every few hundred ms; its longest quiet
/// spells (a 1-thread reference search, a search-layer probe pass) take
/// 1-3 s on a contended host.
pub const STALL: Duration = Duration::from_secs(6);

/// Process ids of started, not yet reaped children.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());
/// Milliseconds from [`origin`] to the last beat.
static LAST_BEAT_MS: AtomicU64 = AtomicU64::new(0);

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Record progress.
pub fn beat() {
    // A statistic for the watchdog only; it publishes no other data.
    LAST_BEAT_MS.store(origin().elapsed().as_millis() as u64, Ordering::Relaxed);
}

/// Record a started child.
pub fn register(child: &Child) {
    CHILDREN.lock().expect("child registry poisoned").push(child.id());
}

/// Forget a reaped child.
pub fn unregister(child: &Child) {
    CHILDREN.lock().expect("child registry poisoned").retain(|&pid| pid != child.id());
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn stop(code: u8, why: &str) -> ! {
    eprintln!("perfbench: {why}; stopping the run");
    // Recover the list even if a panicking thread poisoned the lock.
    let pids = CHILDREN.lock().unwrap_or_else(|p| p.into_inner()).clone();
    for pid in pids {
        if let Ok(pid) = i32::try_from(pid) {
            // SAFETY: kill(2) takes plain integers and touches no memory
            // of this process.
            unsafe { kill(pid, 9) };
        }
    }
    std::process::exit(i32::from(code));
}

/// Watch the run from a detached thread; a finished run exits past it.
pub fn start(limit: Duration) {
    beat();
    thread::spawn(move || loop {
        thread::sleep(Duration::from_millis(250));
        let now = origin().elapsed();
        if now >= limit {
            stop(TIMED_OUT, &format!("no result within {} s", limit.as_secs()));
        }
        let quiet = now.saturating_sub(Duration::from_millis(LAST_BEAT_MS.load(Ordering::Relaxed)));
        if quiet >= STALL {
            stop(
                STALLED,
                &format!("no progress for {} s (a library call stalled)", STALL.as_secs()),
            );
        }
    });
}
