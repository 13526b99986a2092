//! Integration tests for the evented serving front end: served bytes
//! against the in-process `utk batch` oracle, connection scaling,
//! connection-cap accounting under churn, and the throttled-reader /
//! stuck-reader connection-I/O contracts over real sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use utk::core::engine::UtkEngine;
use utk::data::csv::parse_csv;
use utk::server::client::{BatchReply, Connection};
use utk::server::proto::{Request, Response};
use utk::server::registry::DatasetRegistry;
use utk::server::server::{Bind, Server, ServerConfig, ServerHandle};
use utk::server::spec;

const HOTELS_CSV: &str = "\
hotel,service,cleanliness,location
p1,8.3,9.1,7.2
p2,2.4,9.6,8.6
p3,5.4,1.6,4.1
p4,2.6,6.9,9.4
p5,7.3,3.1,2.4
p6,7.9,6.4,6.6
p7,8.6,7.1,4.3
";

/// The mixed batch `tests/serve.rs` pins: valid, malformed, and
/// engine-rejected lines all take distinct server paths.
const QUERY_FILE: &str = "\
# mixed batch: valid, malformed, engine-rejected
utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25

frobnicate --k 2
topk --k 2 --weights 0.3,0.5,0.2
utk2 --k 2 --lo 0.05,0.05 --hi 0.45,0.25 --parallel
utk1 --k 0 --lo 0.05,0.05 --hi 0.45,0.25
utk2 --k 2 --center 0.25,0.15 --width 0.2 --algo jaa
";

fn datasets_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("utk_evented_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("hotels.csv"), HOTELS_CSV).unwrap();
    dir
}

/// An in-process TCP server.
fn spawn(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::new(Bind::Tcp(0), datasets_dir(tag));
    config.pool_threads = 1;
    tweak(&mut config);
    Server::bind(config).expect("bind").spawn()
}

fn tcp_port(handle: &ServerHandle) -> u16 {
    match handle.bind_addr() {
        Bind::Tcp(port) => *port,
        #[cfg(unix)]
        Bind::Unix(path) => panic!("expected a TCP bind, got unix:{}", path.display()),
    }
}

fn shutdown(handle: ServerHandle) {
    let mut conn = Connection::connect(handle.bind_addr()).expect("shutdown connection");
    conn.round_trip(&Request::Shutdown.to_json())
        .expect("shutdown");
    handle.join().expect("clean exit");
}

/// Drives one connection through the full protocol surface and
/// returns every response line, in order.
fn drive_protocol(handle: &ServerHandle) -> Vec<String> {
    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");
    let mut lines = Vec::new();
    lines.push(
        conn.round_trip(r#"{"op":"load","dataset":"hotels"}"#)
            .expect("load"),
    );
    lines.push(
        conn.round_trip(
            r#"{"op":"query","dataset":"hotels","q":"utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25"}"#,
        )
        .expect("query"),
    );
    match conn.batch("hotels", QUERY_FILE).expect("batch") {
        BatchReply::Lines(batch) => lines.extend(batch),
        BatchReply::Rejected(e) => panic!("batch rejected: {e}"),
    }
    // Error paths: malformed JSON, unknown op, unknown dataset.
    lines.push(conn.round_trip("hello there").expect("bad line"));
    lines.push(
        conn.round_trip(r#"{"op":"frobnicate"}"#)
            .expect("unknown op"),
    );
    lines.push(
        conn.round_trip(r#"{"op":"load","dataset":"nope"}"#)
            .expect("unknown dataset"),
    );
    lines
}

/// The served wire bytes for the full protocol surface — load, query,
/// a mixed batch, and the typed error paths — are byte-identical to
/// the in-process answers: `spec` on a fresh engine (the `utk batch`
/// oracle) for query results, and the protocol's own renderings for
/// receipts and errors.
#[test]
fn transports_produce_byte_identical_responses() {
    let dir = datasets_dir("ident");
    let handle = spawn("ident", |_| {});
    let served = drive_protocol(&handle);
    shutdown(handle);

    let data = parse_csv(HOTELS_CSV, "hotels").unwrap();
    // Same pool size as the server's engines: `--parallel` answers
    // report it.
    let engine = UtkEngine::new(data.dataset.points.clone())
        .unwrap()
        .with_pool_threads(1);
    let mut expected = vec![
        Response::Load {
            dataset: "hotels".into(),
            n: 7,
            d: 3,
            already_loaded: false,
        }
        .to_json(),
        spec::answer_query_line(&engine, &data, "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25"),
    ];
    let parsed = spec::parse_query_file(QUERY_FILE, data.dataset.dim());
    expected.extend(spec::answer_query_file(&engine, &data, &parsed));
    for bad in ["hello there", r#"{"op":"frobnicate"}"#] {
        expected.push(Request::parse(bad).unwrap_err().to_json());
    }
    let registry = DatasetRegistry::new(dir, 1 << 20, 1);
    expected.push(registry.get_or_load("nope").unwrap_err().to_json());
    assert_eq!(
        served, expected,
        "served bytes differ from in-process answers"
    );
}

/// Connection scaling: the reactor holds 300 concurrent connections
/// and serves a query on every one of them.
#[test]
fn evented_serves_three_hundred_concurrent_connections() {
    let handle = spawn("scale", |c| {
        c.max_inflight = 16;
    });
    let mut conns: Vec<Connection> = (0..300)
        .map(|i| {
            Connection::connect(handle.bind_addr()).unwrap_or_else(|e| panic!("conn {i}: {e}"))
        })
        .collect();
    let mut answers = Vec::new();
    for (i, conn) in conns.iter_mut().enumerate() {
        let line = conn
            .round_trip(
                r#"{"op":"query","dataset":"hotels","q":"topk --k 2 --weights 0.3,0.5,0.2"}"#,
            )
            .unwrap_or_else(|e| panic!("query on conn {i}: {e}"));
        assert!(
            line.starts_with(r#"{"query""#),
            "conn {i} got a non-result: {line}"
        );
        answers.push(line);
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "answers diverged");
    let snap = handle.snapshot();
    assert!(snap.requests_served >= 300, "{snap:?}");
    drop(conns);
    shutdown(handle);
}

/// Reads one `\n`-terminated line from a raw socket.
fn read_raw_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("raw read: {e}"),
        }
    }
    String::from_utf8_lossy(&line).into_owned()
}

/// Connection-cap accounting on error/churn paths. A
/// connection that dies before, during, or right after setup must
/// never leak a slot toward the cap: after 3×cap churned connections
/// (instant drops and half-written garbage), the full cap of live
/// connections still fits — and the cap itself still holds.
#[test]
fn cap_survives_connection_churn_on_evented() {
    const CAP: usize = 8;
    let handle = spawn("churn_evented", |c| {
        c.max_connections = CAP;
    });
    let port = tcp_port(&handle);

    for i in 0..(3 * CAP) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("churn connect");
        if i % 2 == 0 {
            // Half a request line, never completed — the connection
            // dies mid-read on the server.
            let _ = stream.write_all(b"{\"op\":\"sta");
        }
        drop(stream); // instant close, possibly before the server accepts
    }

    // Every churned slot must come back: CAP concurrent connections
    // all serve (retry while the server reaps the churned ones).
    let deadline = Instant::now() + Duration::from_secs(20);
    let held: Vec<Connection> = loop {
        assert!(Instant::now() < deadline, "cap leaked by churn");
        let mut conns: Vec<Connection> = Vec::new();
        let mut all_served = true;
        for _ in 0..CAP {
            let mut conn = Connection::connect(handle.bind_addr()).expect("held connect");
            let line = conn.round_trip(&Request::Stats.to_json()).expect("stats");
            if line.contains("\"busy\"") {
                all_served = false;
                break;
            }
            assert!(line.starts_with(r#"{"ok":"stats""#), "{line}");
            conns.push(conn);
        }
        if all_served {
            break conns;
        }
        drop(conns);
        std::thread::sleep(Duration::from_millis(25));
    };

    // With the cap fully held, one more connection is refused with
    // the typed busy line, then closed.
    let mut extra = TcpStream::connect(("127.0.0.1", port)).expect("over-cap connect");
    extra
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let refusal = read_raw_line(&mut extra);
    assert!(
        refusal.contains("\"code\":\"busy\"") && refusal.contains("connections"),
        "over-cap connection got: {refusal}"
    );
    let busy_before = handle.snapshot().busy_rejections;
    assert!(busy_before >= 1, "refusal must be counted");

    let mut held = held;
    let first = held.first_mut().expect("held connection");
    first
        .round_trip(&Request::Shutdown.to_json())
        .expect("shutdown");
    drop(held);
    handle.join().expect("clean exit");
}

/// A batch big enough that its response (hundreds of KiB) overflows
/// the socket buffers, forcing the server into partial writes.
fn big_batch(queries: usize) -> String {
    let lines: Vec<String> = (0..queries)
        .map(|_| "topk --k 2 --weights 0.3,0.5,0.2".to_string())
        .collect();
    Request::Batch {
        dataset: "hotels".into(),
        queries: lines,
    }
    .to_json()
}

/// A throttled-but-alive reader receives the complete response,
/// byte-for-byte — the server resumes partial writes whenever the
/// socket becomes writable again instead of tearing the line and
/// dropping the connection.
#[test]
fn throttled_reader_gets_untorn_response_on_evented() {
    // ~6 MiB of response: past the ~4 MiB the kernel send buffer can
    // absorb (tcp_wmem max), so the server *must* hit partial writes.
    const QUERIES: usize = 40_000;
    let handle = spawn("throttle_evented", |_| {});
    let port = tcp_port(&handle);

    // The oracle: the same batch read at full speed.
    let mut fast = TcpStream::connect(("127.0.0.1", port)).expect("fast connect");
    fast.write_all(big_batch(QUERIES).as_bytes()).unwrap();
    fast.write_all(b"\n").unwrap();
    let mut expected = Vec::new();
    let mut lines = 0usize;
    let mut buf = [0u8; 65536];
    while lines < QUERIES + 1 {
        let n = fast.read(&mut buf).expect("fast read");
        assert!(n > 0, "server closed the fast connection early");
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count();
        expected.extend_from_slice(&buf[..n]);
    }

    // The throttled reader: stall long enough to fill the socket
    // buffers (the server's write must block and resume), then drain
    // in slow, small sips.
    let mut slow = TcpStream::connect(("127.0.0.1", port)).expect("slow connect");
    slow.write_all(big_batch(QUERIES).as_bytes()).unwrap();
    slow.write_all(b"\n").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let mut got = Vec::new();
    let mut lines = 0usize;
    let mut sip = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(120);
    while lines < QUERIES + 1 {
        assert!(Instant::now() < deadline, "throttled read never completed");
        let n = slow.read(&mut sip).expect("throttled read");
        assert!(
            n > 0,
            "connection torn after {} of {} bytes",
            got.len(),
            expected.len()
        );
        lines += sip[..n].iter().filter(|&&b| b == b'\n').count();
        got.extend_from_slice(&sip[..n]);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        got, expected,
        "throttled response differs from the fast one"
    );
    drop(slow);
    drop(fast);
    shutdown(handle);
}

/// The other half of the write contract: a reader that stops reading
/// *entirely* is disconnected after the zero-progress window — with a
/// socket shutdown first, so it observes EOF (a detectably incomplete
/// response: fewer lines than the batch header promised) rather than
/// hanging the server; the server stays fully responsive throughout
/// and still drains cleanly.
#[test]
fn stuck_reader_is_cut_loose_on_evented() {
    // ~14 MiB of response: far past everything the kernel will buffer
    // for a reader that never reads (sndbuf caps at ~4 MiB and the
    // receive window stays small without reads), so the server's
    // write is guaranteed to stall with zero progress.
    const QUERIES: usize = 100_000;
    let handle = spawn("stuck_evented", |c| {
        c.write_timeout = Duration::from_millis(300);
    });
    let port = tcp_port(&handle);

    let mut stuck = TcpStream::connect(("127.0.0.1", port)).expect("stuck connect");
    stuck.write_all(big_batch(QUERIES).as_bytes()).unwrap();
    stuck.write_all(b"\n").unwrap();
    // Read nothing. The server fills the socket buffers, stalls with
    // zero progress for the whole window, and cuts the connection.
    // Wait for the in-process signal that the batch was rendered: it
    // enters `inflight` while executing and leaves once compute is
    // done and the response is handed to the reactor to drain. Then
    // ride out the stall window with margin so the cut has certainly
    // landed before we touch the socket.
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.snapshot().inflight == 0 {
        assert!(Instant::now() < deadline, "batch never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    while handle.snapshot().inflight > 0 {
        assert!(Instant::now() < deadline, "batch never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_millis(1500));

    // The server is alive and serving while the stuck writer stalls.
    let mut probe = Connection::connect(handle.bind_addr()).expect("probe connect");
    let stats = probe.round_trip(&Request::Stats.to_json()).expect("stats");
    assert!(stats.starts_with(r#"{"ok":"stats""#), "{stats}");

    // The stuck reader sees EOF: a truncated response (fewer lines
    // than promised), never an indefinite hang.
    stuck
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 65536];
    loop {
        match stuck.read(&mut buf) {
            Ok(0) => break, // EOF: the server half-closed
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // The cut may surface as a reset instead of a clean FIN
            // once buffered bytes are discarded.
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                break
            }
            Err(e) => panic!("stuck read: {e}"),
        }
    }
    let lines = got.iter().filter(|&&b| b == b'\n').count();
    assert!(
        lines < QUERIES + 1,
        "a stuck reader cannot have received the full response"
    );

    probe
        .round_trip(&Request::Shutdown.to_json())
        .expect("shutdown");
    handle
        .join()
        .expect("clean exit despite the cut connection");
}
