//! Per-connection state machine driven by the [`crate::reactor`].
//!
//! A [`Conn`] owns one non-blocking stream and cycles through three
//! states: **reading** a request line, **executing** it (work ops run
//! on the executor pool; the reactor holds the connection until the
//! completion comes back), and **draining** the buffered response.
//! Every socket call is `WouldBlock`-aware: the reactor calls
//! [`Conn::step`] each tick and the connection does exactly as much
//! I/O as the socket will take without blocking.
//!
//! Memory discipline: a connection never reads ahead while a response
//! is pending (`executing` or a non-empty write buffer), so requests
//! on one connection are answered strictly in order and each
//! connection holds at most one buffered response at a time. That
//! response is fully materialized before the first byte is written,
//! so response memory is bounded by `max_inflight` concurrent
//! responses.
//!
//! I/O error contract:
//!
//! * `ErrorKind::Interrupted` (EINTR) is a pure retry everywhere —
//!   it never counts against the write-stall window and never closes
//!   a connection;
//! * a short write is progress: the rest of the buffer is resumed
//!   from the written offset, never re-sent or dropped;
//! * a write stall is bounded by *zero-progress* time: only a full
//!   `write_timeout` window with not one byte accepted closes the
//!   connection, and the socket is shut down first so the peer sees
//!   EOF mid-line rather than a torn prefix passing as a complete
//!   response;
//! * at shutdown, complete buffered request lines are still answered
//!   and a partial line is dropped;
//! * request lines are capped at [`MAX_REQUEST_BYTES`].

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::Request;
use crate::reactor::{Executor, Job};
use crate::server::{
    claim_admission, respond_admitted, write_line, Shared, Stream, MAX_REQUEST_BYTES,
};

/// Size of the read scratch buffer the reactor lends to
/// [`Conn::step`]: one buffer serves every connection, so an idle
/// sweep's `WouldBlock` probe costs a syscall, not a fresh buffer.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// The socket surface a [`Conn`] drives: non-blocking reads and
/// writes plus a best-effort full shutdown. [`Stream`] is the
/// production implementation.
pub(crate) trait ConnStream: Read + Write {
    /// Best-effort full shutdown: the peer sees EOF on its next read,
    /// so an abandoned response is a detectably torn line (no
    /// terminating newline), never a prefix that parses as complete.
    fn shutdown(&mut self);
}

/// What one [`Conn::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Bytes moved or a request was dispatched/answered.
    Progress,
    /// Nothing to do until the socket or an executor completion says
    /// otherwise.
    Idle,
    /// The connection is finished; the reactor must drop it.
    Closed,
}

/// Outcome of one attempt to drain the write buffer.
enum Flow {
    /// Everything buffered has been written.
    Drained,
    /// The socket stopped taking bytes (within the stall window).
    Blocked,
    /// The peer is gone (EOF on write, hard error, or stall expiry).
    Dead,
}

/// Outcome of one attempt to read from the socket.
enum Fill {
    /// New bytes (or EOF) arrived.
    Progress,
    /// Nothing readable right now.
    Blocked,
    /// Hard read error or an oversized request line.
    Closed,
}

/// One connection.
pub(crate) struct Conn<S = Stream> {
    stream: S,
    /// Bytes read but not yet consumed as request lines.
    read_buf: Vec<u8>,
    /// The buffered response being drained to the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written — partial writes
    /// resume from here, never re-sending or dropping bytes.
    written: usize,
    /// A work op is running on the executor; its completion will call
    /// [`Conn::complete`].
    executing: bool,
    /// The peer half-closed its write side.
    eof: bool,
    /// Close once the write buffer drains.
    closing: bool,
    /// Clock reading at the start of the current zero-progress write
    /// stall (`None` while writes make progress).
    stalled_since: Option<u64>,
    /// The zero-progress write bound, in nanoseconds.
    stall_nanos: u64,
}

impl<S: ConnStream> Conn<S> {
    pub(crate) fn new(stream: S, write_timeout: Duration) -> Conn<S> {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            executing: false,
            eof: false,
            closing: false,
            stalled_since: None,
            stall_nanos: write_timeout.as_nanos().min(u64::MAX as u128) as u64,
        }
    }

    /// Hands back an executor completion: the buffered response for
    /// the request this connection was executing.
    pub(crate) fn complete(&mut self, bytes: Vec<u8>) {
        // No read-ahead while executing, so the write buffer is
        // always drained by the time a completion arrives.
        self.write_buf = bytes;
        self.written = 0;
        self.executing = false;
    }

    /// Whether the connection waits for its peer's next request:
    /// nothing executing and no response left to write. The reactor
    /// reads this after each [`Conn::step`] to choose its park.
    pub(crate) fn awaiting_request(&self) -> bool {
        !self.executing && !self.closing && self.write_buf.is_empty()
    }

    /// Advances the state machine as far as the socket allows: drain
    /// pending output, then consume complete request lines, then pull
    /// more bytes through `scratch` (non-empty; its contents are
    /// overwritten). Returns [`Step::Closed`] when the reactor should
    /// drop the connection.
    pub(crate) fn step(
        &mut self,
        token: u64,
        shared: &Arc<Shared>,
        executor: &mut Executor,
        scratch: &mut [u8],
    ) -> Step {
        let mut progress = false;
        let done = |progress: bool| {
            if progress {
                Step::Progress
            } else {
                Step::Idle
            }
        };
        loop {
            match self.flush_pending(shared) {
                (_, Flow::Dead) => return Step::Closed,
                (p, Flow::Blocked) => return done(progress || p),
                (p, Flow::Drained) => progress |= p,
            }
            if self.closing {
                return Step::Closed;
            }
            if self.executing {
                return done(progress);
            }
            if let Some(line) = self.take_line() {
                progress = true;
                if line.len() > MAX_REQUEST_BYTES {
                    return Step::Closed; // oversized request line
                }
                self.process_line(&line, token, shared, executor);
                continue; // drain (or dispatch) what that produced
            }
            if self.eof {
                return Step::Closed;
            }
            if shared.shutting_down() {
                // Drain: a partial line at shutdown is dropped;
                // complete buffered lines (handled above) are still
                // answered.
                return Step::Closed;
            }
            match self.fill(scratch) {
                Fill::Progress => progress = true,
                Fill::Blocked => return done(progress),
                Fill::Closed => return Step::Closed,
            }
        }
    }

    /// Drains as much of the write buffer as the socket will take.
    /// EINTR retries; `WouldBlock` starts (or continues) the
    /// zero-progress stall clock, and on expiry the socket is shut
    /// down before the connection dies so the peer sees EOF, never a
    /// torn prefix as a complete response.
    fn flush_pending(&mut self, shared: &Arc<Shared>) -> (bool, Flow) {
        let mut progress = false;
        while self.written < self.write_buf.len() {
            let pending = self.write_buf.get(self.written..).unwrap_or(&[]);
            match self.stream.write(pending) {
                Ok(0) => return (progress, Flow::Dead),
                Ok(n) => {
                    self.written += n;
                    self.stalled_since = None;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    let now = shared.clock.now_nanos();
                    let since = *self.stalled_since.get_or_insert(now);
                    if now.saturating_sub(since) >= self.stall_nanos {
                        self.stream.shutdown();
                        return (progress, Flow::Dead);
                    }
                    return (progress, Flow::Blocked);
                }
                Err(_) => return (progress, Flow::Dead),
            }
        }
        if self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        (progress, Flow::Drained)
    }

    /// Takes one complete request line (newline included) out of the
    /// read buffer, or — at EOF — the final unterminated line, which
    /// is still a request.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        if let Some(i) = self.read_buf.iter().position(|&b| b == b'\n') {
            let rest = self.read_buf.split_off(i + 1);
            return Some(std::mem::replace(&mut self.read_buf, rest));
        }
        if self.eof && !self.read_buf.is_empty() {
            return Some(std::mem::take(&mut self.read_buf));
        }
        None
    }

    /// Parses and routes one request line. Parse errors, control ops
    /// and refused work are answered inline on the reactor (they are
    /// cheap and slot-free); admitted work is dispatched to the
    /// executor with its [`AdmitSlot`] already claimed — overload was
    /// shed *before* any queueing.
    ///
    /// [`AdmitSlot`]: crate::server::AdmitSlot
    fn process_line(
        &mut self,
        line: &[u8],
        token: u64,
        shared: &Arc<Shared>,
        executor: &mut Executor,
    ) {
        // Invalid UTF-8 becomes U+FFFD, which `Request::parse`
        // rejects as a `bad_request` like any other bad byte.
        let text = String::from_utf8_lossy(line);
        let text = text.trim();
        if text.is_empty() {
            return;
        }
        let started_at = shared.clock.now_nanos();
        let request = match Request::parse(text) {
            Ok(request) => request,
            Err(e) => {
                shared.count_error(e.code);
                write_line(&mut self.write_buf, &e.to_json());
                return;
            }
        };
        match claim_admission(shared, &request) {
            Ok(Some(slot)) => {
                self.executing = true;
                executor.submit(Job {
                    token,
                    request,
                    slot,
                    started_at,
                });
            }
            admission => {
                respond_admitted(&request, admission, shared, &mut self.write_buf, started_at);
            }
        }
    }

    /// Reads whatever the socket has, up to a complete line, through
    /// `chunk`. EINTR retries; an over-cap line without a newline in
    /// sight closes the connection without a reply.
    fn fill(&mut self, chunk: &mut [u8]) -> Fill {
        let mut any = false;
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Fill::Progress;
                }
                Ok(n) => {
                    any = true;
                    let got = chunk.get(..n).unwrap_or(&[]);
                    self.read_buf.extend_from_slice(got);
                    if got.contains(&b'\n') {
                        return Fill::Progress;
                    }
                    if self.read_buf.len() > MAX_REQUEST_BYTES {
                        return Fill::Closed; // oversized request line
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return if any { Fill::Progress } else { Fill::Blocked };
                }
                Err(_) => return Fill::Closed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Bind, ServerConfig};
    use std::collections::VecDeque;
    use std::io::ErrorKind;
    use utk_core::obs::{Clock, TestClock};

    /// A non-blocking stream that plays back scripts: each read pops
    /// one chunk or error (an empty script is `WouldBlock` — nothing
    /// readable yet; an empty chunk is EOF), each write pops one
    /// accepted-byte count or error (an empty script accepts
    /// everything). Records every accepted byte and every shutdown.
    #[derive(Default)]
    struct Scripted {
        reads: VecDeque<std::io::Result<Vec<u8>>>,
        writes: VecDeque<std::io::Result<usize>>,
        accepted: Vec<u8>,
        shutdowns: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.reads.pop_front() {
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.reads.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = match self.writes.pop_front() {
                Some(Ok(n)) => n.min(buf.len()),
                Some(Err(e)) => return Err(e),
                None => buf.len(),
            };
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl ConnStream for Scripted {
        fn shutdown(&mut self) {
            self.shutdowns += 1;
        }
    }

    fn reads(script: Vec<std::io::Result<&[u8]>>) -> Scripted {
        Scripted {
            reads: script.into_iter().map(|r| r.map(<[u8]>::to_vec)).collect(),
            ..Scripted::default()
        }
    }

    fn writes(script: Vec<std::io::Result<usize>>) -> Scripted {
        Scripted {
            writes: script.into(),
            ..Scripted::default()
        }
    }

    fn err<T>(kind: ErrorKind) -> std::io::Result<T> {
        Err(kind.into())
    }

    /// What the reactor lends each [`Conn::step`]: server state with no
    /// listener and no datasets, the executor (which grows a worker
    /// only if a test sends a work op) and the read scratch buffer.
    struct Harness {
        shared: Arc<Shared>,
        executor: Executor,
        scratch: Vec<u8>,
    }

    impl Harness {
        fn step(&mut self, conn: &mut Conn<Scripted>, token: u64) -> Step {
            conn.step(token, &self.shared, &mut self.executor, &mut self.scratch)
        }
    }

    fn harness(clock: Arc<TestClock>) -> Harness {
        let mut config = ServerConfig::new(Bind::Tcp(0), "no-datasets".into());
        config.clock = clock as Arc<dyn Clock>;
        let shared = Arc::new(Shared::new(config));
        let executor = Executor::new(&shared, 1);
        Harness {
            shared,
            executor,
            scratch: vec![0; READ_CHUNK],
        }
    }

    fn lines(bytes: &[u8]) -> Vec<String> {
        String::from_utf8_lossy(bytes)
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn eintr_is_a_pure_retry_in_fill() {
        // EINTR between chunks must not kill the connection: the
        // interrupted reads retry and the complete line is answered.
        let mut h = harness(Arc::new(TestClock::new()));
        let mut conn = Conn::new(
            reads(vec![
                err(ErrorKind::Interrupted),
                Ok(b"{\"op\":"),
                err(ErrorKind::Interrupted),
                err(ErrorKind::Interrupted),
                Ok(b"\"stats\"}\n"),
            ]),
            Duration::from_secs(30),
        );
        assert_eq!(h.step(&mut conn, 0), Step::Progress);
        let answered = lines(&conn.stream.accepted);
        assert_eq!(answered.len(), 1, "{answered:?}");
        assert!(answered[0].starts_with(r#"{"ok":"stats""#), "{answered:?}");
        assert_eq!(conn.stream.shutdowns, 0);
        // Nothing more to read: the connection idles, it is not closed.
        assert_eq!(h.step(&mut conn, 0), Step::Idle);
    }

    #[test]
    fn partial_line_waits_until_shutdown_then_is_dropped() {
        let mut h = harness(Arc::new(TestClock::new()));
        // A WouldBlock mid-line is no reason to close: the partial
        // line stays buffered and the connection idles.
        let mut partial = Conn::new(reads(vec![Ok(b"{\"op\":")]), Duration::from_secs(30));
        assert_eq!(h.step(&mut partial, 0), Step::Progress);
        assert_eq!(h.step(&mut partial, 0), Step::Idle);

        // Another connection requests shutdown. Complete lines it had
        // already buffered are still answered; its trailing partial
        // line is dropped and the connection closes.
        let mut closer = Conn::new(
            reads(vec![Ok(
                b"{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n{\"op\":\"st",
            )]),
            Duration::from_secs(30),
        );
        assert_eq!(h.step(&mut closer, 1), Step::Closed);
        let answered = lines(&closer.stream.accepted);
        assert_eq!(answered.len(), 2, "{answered:?}");
        assert_eq!(answered[0], r#"{"ok":"shutdown"}"#);
        assert!(answered[1].starts_with(r#"{"ok":"stats""#), "{answered:?}");

        // Now the idle partial line is dropped unanswered.
        assert_eq!(h.step(&mut partial, 0), Step::Closed);
        assert!(partial.stream.accepted.is_empty());
        assert_eq!(partial.stream.shutdowns, 0);
    }

    #[test]
    fn flush_resumes_partial_writes() {
        // Short writes and WouldBlocks interleave, yet the full line
        // arrives untorn: the written offset is tracked and resumed,
        // and every byte of progress restarts the stall window. Each
        // clock read advances 0.6 ms against a 1 ms window, so two
        // stalls only trip the cut-off if progress failed to reset it.
        let clock = Arc::new(TestClock::with_step(600_000));
        let mut h = harness(clock);
        let mut conn = Conn::new(
            writes(vec![
                Ok(3),
                err(ErrorKind::WouldBlock),
                err(ErrorKind::TimedOut),
                Ok(4),
                err(ErrorKind::WouldBlock),
                err(ErrorKind::WouldBlock),
                Ok(2),
            ]),
            Duration::from_millis(1),
        );
        conn.complete(b"0123456789\n".to_vec());
        let mut steps = 0;
        while conn.stream.accepted.len() < 11 {
            assert_ne!(h.step(&mut conn, 0), Step::Closed);
            steps += 1;
            assert!(steps < 10, "write never completed");
        }
        assert_eq!(conn.stream.accepted, b"0123456789\n");
        assert_eq!(conn.stream.shutdowns, 0);
    }

    #[test]
    fn flush_retries_eintr_without_consulting_the_clock() {
        // EINTR is a pure retry: a burst of signals neither counts
        // against the stall window nor reaches the clock at all —
        // any two reads of this clock would trip the 1 ns window.
        let clock = Arc::new(TestClock::with_step(u64::MAX / 4));
        let mut h = harness(clock);
        let mut conn = Conn::new(
            writes((0..16).map(|_| err(ErrorKind::Interrupted)).collect()),
            Duration::from_nanos(1),
        );
        conn.complete(b"{\"ok\":\"stats\"}\n".to_vec());
        assert_eq!(h.step(&mut conn, 0), Step::Progress);
        assert_eq!(conn.stream.accepted, b"{\"ok\":\"stats\"}\n");
        assert_eq!(conn.stream.shutdowns, 0);
    }

    #[test]
    fn zero_progress_stall_half_closes_the_socket() {
        // Zero progress for a full write_timeout window: the socket is
        // shut down (peer sees EOF, not a torn prefix passing as a
        // complete response) before the connection is dropped.
        let clock = Arc::new(TestClock::with_step(600_000)); // 0.6 ms per read
        let mut h = harness(clock);
        let mut conn = Conn::new(
            writes((0..3).map(|_| err(ErrorKind::TimedOut)).collect()),
            Duration::from_millis(1),
        );
        conn.complete(b"response\n".to_vec());
        assert_eq!(h.step(&mut conn, 0), Step::Idle);
        assert_eq!(h.step(&mut conn, 0), Step::Idle);
        assert_eq!(conn.stream.shutdowns, 0, "still inside the window");
        assert_eq!(h.step(&mut conn, 0), Step::Closed);
        assert_eq!(conn.stream.shutdowns, 1, "half-close precedes the drop");
        assert!(conn.stream.accepted.is_empty());
    }

    #[test]
    fn awaiting_tracks_dispatch_and_completion() {
        // A work op leaves the connection executing — not waiting for a
        // request, so the reactor parks cold — until its completion is
        // handed back and drained.
        let mut h = harness(Arc::new(TestClock::new()));
        let mut conn = Conn::new(
            reads(vec![Ok(
                b"{\"op\":\"query\",\"dataset\":\"hotels\",\"q\":\"utk1 --k 2\"}\n",
            )]),
            Duration::from_secs(30),
        );
        assert!(conn.awaiting_request(), "a fresh connection waits");
        assert_eq!(h.step(&mut conn, 0), Step::Progress);
        assert!(conn.executing);
        assert!(!conn.awaiting_request());
        // No read-ahead while executing: further steps idle.
        assert_eq!(h.step(&mut conn, 0), Step::Idle);
        assert!(!conn.awaiting_request());

        conn.complete(b"answer\n".to_vec());
        assert!(!conn.awaiting_request(), "the answer is still unwritten");
        assert_eq!(h.step(&mut conn, 0), Step::Progress);
        assert_eq!(conn.stream.accepted, b"answer\n");
        assert!(conn.awaiting_request());
        h.executor.stop();
    }
}
