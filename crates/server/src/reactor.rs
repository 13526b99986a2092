//! The readiness-driven event loop behind [`Server::run`].
//!
//! One reactor thread owns the non-blocking listener and every
//! [`Conn`] state machine, sweeping the ready set each tick: drain
//! executor completions, accept new connections (shedding over-cap
//! ones with a typed `busy` line), then [`Conn::step`] each
//! connection. The workspace forbids `unsafe`, so there is no
//! `poll(2)` FFI — readiness is discovered by `WouldBlock`-aware
//! scans, and a sweep that finds nothing parks on a condvar. The park
//! is cut short the instant a completion lands (the executor notifies
//! the condvar), so a request/response round trip never waits out a
//! full tick on the compute side. On the request side the tick follows
//! recent activity ([`park_tick`]): for a short hot window after a
//! sweep that made progress, while some connection waits for its
//! peer's next request, the park is a fine [`HOT_TICK`], because a
//! request/response client sends its next line right after reading an
//! answer. Once the window passes, or when every connection is
//! executing, the park falls back to [`tick_for`] the connection
//! count, bounding idle wakeups.
//!
//! Compute never runs on the reactor thread beyond parsing: work ops
//! (`load`/`query`/`batch`/`update`) have their admission slot
//! claimed **on the reactor** — overload is shed immediately, never
//! queued — and then run on a lazily grown, bounded [`Executor`]
//! pool, which in turn drives the engines' work-stealing pools. The
//! executor hands the fully rendered response bytes back to the
//! reactor, which drains them to the socket as it becomes writable.
//! Control ops (`stats`/`metrics`/`evict`/`shutdown`) are answered
//! inline, slot-free.
//!
//! Shutdown drains: accepting stops, executing requests finish, every
//! write buffer empties, then the loop exits and the executor joins.
//!
//! [`Server::run`]: crate::server::Server::run

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::conn::{Conn, Step, READ_CHUNK};
use crate::proto::{code, ProtoError, Request};
use crate::server::{respond_admitted, AdmitSlot, Listener, Shared, Stream};

/// Write timeout for the one best-effort `busy` line sent to an
/// over-cap connection before it is dropped — short, so a refusal
/// never stalls the reactor.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(25);

/// An admitted work op in flight from reactor to executor. The
/// [`AdmitSlot`] travels with it, so the inflight gauge covers the
/// queue wait as well as execution, and is released on the worker.
pub(crate) struct Job {
    /// Which connection gets the response.
    pub(crate) token: u64,
    pub(crate) request: Request,
    pub(crate) slot: AdmitSlot,
    /// Clock reading when the request line was parsed (latency
    /// histograms measure from here, queue wait included).
    pub(crate) started_at: u64,
}

/// A finished job: the rendered response bytes for one connection.
pub(crate) struct Completion {
    token: u64,
    bytes: Vec<u8>,
}

struct JobQueue {
    queue: VecDeque<Job>,
    /// Workers currently parked in `jobs_cv.wait` — used to decide
    /// whether a submit needs to grow the pool.
    idle: usize,
    stop: bool,
}

struct ExecInner {
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    done: Mutex<Vec<Completion>>,
    done_cv: Condvar,
}

/// The bounded, lazily grown worker pool that executes admitted work
/// ops off the reactor thread. At most `min(max_inflight, 256)`
/// threads ever exist; since every queued job already holds an
/// [`AdmitSlot`], the queue depth is bounded by `max_inflight` too —
/// admission shed everything beyond it before dispatch.
pub(crate) struct Executor {
    shared: Arc<Shared>,
    inner: Arc<ExecInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    max_workers: usize,
}

impl Executor {
    pub(crate) fn new(shared: &Arc<Shared>, max_inflight: usize) -> Executor {
        Executor {
            shared: Arc::clone(shared),
            inner: Arc::new(ExecInner {
                jobs: Mutex::new(JobQueue {
                    queue: VecDeque::new(),
                    idle: 0,
                    stop: false,
                }),
                jobs_cv: Condvar::new(),
                done: Mutex::new(Vec::new()),
                done_cv: Condvar::new(),
            }),
            workers: Vec::new(),
            max_workers: max_inflight.clamp(1, 256),
        }
    }

    /// Queues an admitted job, growing the pool by one worker if none
    /// is idle (up to the bound). Called from the reactor thread
    /// only.
    pub(crate) fn submit(&mut self, job: Job) {
        let needs_worker = {
            let Ok(mut q) = self.inner.jobs.lock() else {
                return;
            };
            q.queue.push_back(job);
            q.idle == 0 && self.workers.len() < self.max_workers
        };
        self.inner.jobs_cv.notify_one();
        if needs_worker {
            let shared = Arc::clone(&self.shared);
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name("utk-exec".into())
                .spawn(move || worker(shared, inner));
            if let Ok(handle) = spawned {
                self.workers.push(handle);
            }
        }
    }

    /// Takes every completion the workers have produced so far.
    fn drain_completions(&self) -> Vec<Completion> {
        match self.inner.done.lock() {
            Ok(mut done) => std::mem::take(&mut *done),
            Err(_) => Vec::new(),
        }
    }

    /// Parks the reactor until a completion lands or the tick
    /// elapses, whichever is first.
    fn park(&self, tick: Duration) {
        let Ok(done) = self.inner.done.lock() else {
            return;
        };
        if done.is_empty() {
            let _ = self.inner.done_cv.wait_timeout(done, tick);
        }
    }

    /// Stops and joins every worker (the job queue is empty by the
    /// time the reactor calls this — shutdown drained all work).
    pub(crate) fn stop(self) {
        {
            if let Ok(mut q) = self.inner.jobs.lock() {
                q.stop = true;
            }
        }
        self.inner.jobs_cv.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// One executor worker: pop a job, render its response into a
/// buffer ([`respond_admitted`], the same path the reactor runs
/// inline for control ops), hand the bytes back, wake the reactor.
fn worker(shared: Arc<Shared>, inner: Arc<ExecInner>) {
    loop {
        let job = {
            let Ok(mut q) = inner.jobs.lock() else {
                return;
            };
            loop {
                if let Some(job) = q.queue.pop_front() {
                    break job;
                }
                if q.stop {
                    return;
                }
                q.idle += 1;
                q = match inner.jobs_cv.wait(q) {
                    Ok(guard) => guard,
                    Err(_) => return,
                };
                q.idle = q.idle.saturating_sub(1);
            }
        };
        let Job {
            token,
            request,
            slot,
            started_at,
        } = job;
        let mut bytes: Vec<u8> = Vec::new();
        respond_admitted(&request, Ok(Some(slot)), &shared, &mut bytes, started_at);
        {
            if let Ok(mut done) = inner.done.lock() {
                done.push(Completion { token, bytes });
            }
        }
        // The reactor's `park` is the only waiter on `done_cv`.
        inner.done_cv.notify_one();
    }
}

/// How long after a sweep that made progress the reactor keeps
/// parking for [`HOT_TICK`] while a connection waits for a request:
/// long enough for a request/response client to read an answer, think
/// briefly and send its next line.
const HOT_WINDOW: Duration = Duration::from_millis(3);

/// The park inside the hot window: a request that arrives there is
/// noticed within about this long instead of a full [`tick_for`].
const HOT_TICK: Duration = Duration::from_micros(50);

/// The largest connection count [`tick_for`]'s finest tier covers,
/// and the only one where [`park_tick`] may park hot.
const FINE_TIER: usize = 128;

/// The cold park interval by connection count: 1 ms up to
/// [`FINE_TIER`] connections, 5 ms up to 1024, 10 ms above, so idle
/// rescans of thousands of sockets stay bounded. Above the first tier
/// the reactor always parks this long; within it, [`park_tick`] uses
/// it once the hot window has passed.
fn tick_for(connections: usize) -> Duration {
    if connections <= FINE_TIER {
        Duration::from_millis(1)
    } else if connections <= 1024 {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(10)
    }
}

/// The park after a sweep that found nothing to do. `awaiting` is how
/// many of the `connections` wait for their peer's next request (the
/// sweep counts them as it steps each one), and `nanos_since_active`
/// is the injected clock's time since the last sweep that made
/// progress. Within [`HOT_WINDOW`] of activity, up to [`FINE_TIER`]
/// connections, a waiting connection makes the park a fine
/// [`HOT_TICK`]; otherwise it is [`tick_for`]. With no connection
/// waiting, every one is executing or draining, and a completion wakes
/// the park early anyway.
fn park_tick(connections: usize, awaiting: usize, nanos_since_active: u64) -> Duration {
    let hot = awaiting > 0
        && connections <= FINE_TIER
        && u128::from(nanos_since_active) < HOT_WINDOW.as_nanos();
    if hot {
        HOT_TICK
    } else {
        tick_for(connections)
    }
}

/// Sheds an over-cap connection with a best-effort typed `busy` line
/// (counted in `busy_rejections`) and drops it.
fn refuse(mut stream: Stream, max_connections: usize, shared: &Arc<Shared>) {
    let refusal = ProtoError {
        code: code::BUSY,
        message: format!("server is at {max_connections} connections"),
    };
    let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
    let _ = stream.write_all(format!("{}\n", refusal.to_json()).as_bytes());
    shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
}

/// Runs the event loop until a `shutdown` request has been answered
/// and every connection has drained.
pub(crate) fn run(
    listener: &Listener,
    shared: &Arc<Shared>,
    max_connections: usize,
    write_timeout: Duration,
) -> std::io::Result<()> {
    let mut executor = Executor::new(shared, shared.max_inflight());
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_token: u64 = 0;
    let mut closed: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut last_active = shared.clock.now_nanos();
    loop {
        let mut progress = false;

        // 1. Hand finished responses to their connections. A missing
        // token means the connection died mid-execution; the bytes
        // are dropped (the slot was already released on the worker).
        for completion in executor.drain_completions() {
            progress = true;
            if let Some(conn) = conns.get_mut(&completion.token) {
                conn.complete(completion.bytes);
            }
        }

        // 2. Accept until the backlog is empty (unless draining).
        while !shared.shutting_down() {
            match listener.accept() {
                Ok(stream) => {
                    progress = true;
                    if conns.len() >= max_connections {
                        refuse(stream, max_connections, shared);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        // Setup failed: drop the stream. Nothing was
                        // counted yet — the connection count is the
                        // map size, so a failed setup can never leak
                        // a slot toward the cap.
                        continue;
                    }
                    conns.insert(next_token, Conn::new(stream, write_timeout));
                    next_token = next_token.wrapping_add(1);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failures (EMFILE under an FD
                    // burst, ECONNABORTED, …) must shed, not kill the
                    // server: overload is a condition to ride out.
                    eprintln!("utk serve: accept error (retrying): {e}");
                    break;
                }
            }
        }

        // 3. Sweep the ready set.
        closed.clear();
        let mut awaiting = 0;
        for (token, conn) in conns.iter_mut() {
            match conn.step(*token, shared, &mut executor, &mut scratch) {
                Step::Progress => progress = true,
                Step::Idle => {}
                Step::Closed => {
                    progress = true;
                    closed.push(*token);
                    continue;
                }
            }
            if conn.awaiting_request() {
                awaiting += 1;
            }
        }
        for token in &closed {
            conns.remove(token);
        }

        // 4. Drained shutdown: stop once every connection is gone.
        if shared.shutting_down() && conns.is_empty() {
            break;
        }

        // 5. Park until a completion lands or the tick elapses.
        let now = shared.clock.now_nanos();
        if progress {
            last_active = now;
        } else {
            let since = now.saturating_sub(last_active);
            executor.park(park_tick(conns.len(), awaiting, since));
        }
    }
    executor.stop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use utk_core::obs::{Clock, TestClock};

    fn nanos(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).expect("a test duration fits in u64")
    }

    #[test]
    fn hot_inside_the_window_with_a_waiting_connection() {
        let clock = TestClock::new();
        let active = clock.now_nanos();
        assert_eq!(park_tick(1, 1, clock.now_nanos() - active), HOT_TICK);
        clock.advance(nanos(HOT_WINDOW) - 1);
        assert_eq!(park_tick(128, 1, clock.now_nanos() - active), HOT_TICK);
    }

    #[test]
    fn cold_once_the_window_has_passed() {
        let clock = TestClock::new();
        let active = clock.now_nanos();
        clock.advance(nanos(HOT_WINDOW));
        let since = clock.now_nanos() - active;
        assert_eq!(park_tick(1, 1, since), Duration::from_millis(1));
        assert_eq!(park_tick(128, 128, since), Duration::from_millis(1));
    }

    #[test]
    fn cold_when_every_connection_is_executing() {
        // No connection waits for a request: a completion wakes the
        // park early, so the window does not matter.
        assert_eq!(park_tick(1, 0, 0), Duration::from_millis(1));
        assert_eq!(park_tick(128, 0, 0), Duration::from_millis(1));
    }

    #[test]
    fn coarser_tiers_are_unchanged_inside_the_window() {
        assert_eq!(park_tick(129, 129, 0), Duration::from_millis(5));
        assert_eq!(park_tick(1024, 1, 0), Duration::from_millis(5));
        assert_eq!(park_tick(1025, 1, 0), Duration::from_millis(10));
        assert_eq!(park_tick(4096, 4096, 0), Duration::from_millis(10));
    }
}
