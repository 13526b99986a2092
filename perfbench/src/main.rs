// utk-lint: class=bench
//! `utk-perfbench`: end-to-end and per-layer latency of `utk serve`.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's datasets from `--seed`
//! (`utk_data::synthetic::generate`, n = 100 000, d = 4), writes them
//! as CSV, launches the real `utk serve` (evented transport, Unix
//! socket, a 1 MiB filter cache) and times its set-up nine times. It then fills
//! the server's filter cache and drives one client connection as a
//! closed loop — the next request goes out only after the previous
//! answer and a short seeded think time — for `--seconds`, and checks
//! every answer against `spec::answer_query_line` on fresh in-process
//! engines. `p50_ms` and `p90_ms` are the best of the timed phase's
//! four quarters.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` then serves
//! the same stream again on a fresh server, traced (spans on every
//! request, `metrics` scrapes around the timed phase), and reports
//! per-layer metrics: served counters and phase self-times, plus spans
//! around in-process calls into each layer's public functions, and the
//! tracing overhead as traced minus untraced. A fresh server matters:
//! the traced phase then meets the cache state the untraced one did.
//! Spans are written to `.bench_out/`. The last stdout line is the JSON result;
//! the lines before it name every metric with its unit and stamp the
//! run.

mod layers;
mod served;
mod summary;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use utk_data::csv::{parse_csv, write_csv, CsvData};
use utk_data::synthetic::generate;
use utk_server::json;

use layers::Spans;
use served::{drive, Entry, Phase, RunDir, Scrape, Until};
use summary::{failed_frac, mean, median, percentile, residual, sorted, supports, tail};
use workload::{data_seed, dataset_name, Kind, Op, Stream, Workload, D, K, N, SESSION};

/// The end-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("p50_ms", "ms"), ("p90_ms", "ms")];

/// The per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("reactor.ping_p50_ms", "ms"),
    ("server.request_mean_ms", "ms"),
    ("transport.residual_mean_ms", "ms"),
    ("proto.parse_us", "us"),
    ("spec.parse_us", "us"),
    ("engine.utk1_ms", "ms"),
    ("engine.utk2_ms", "ms"),
    ("cache.exact_hit_ratio", "ratio"),
    ("cache.superset_hit_ratio", "ratio"),
    ("cache.repairs", "1/update"),
    ("cache.evictions", "1/query"),
    ("skyband.filter_self_ms", "ms"),
    ("skyband.bbs_pops", "1/query"),
    ("skyband.candidates_per_pop", "ratio"),
    ("rdominance.screen_self_ms", "ms"),
    ("rdominance.rdom_tests", "1/query"),
    ("rdominance.kernel_blocks", "1/query"),
    ("rdominance.prefilter_reject_ratio", "ratio"),
    ("graph.self_ms", "ms"),
    ("drill.self_ms", "ms"),
    ("drill.hit_ratio", "ratio"),
    ("jaa.arrange_self_ms", "ms"),
    ("jaa.halfspaces_inserted", "1/query"),
    ("jaa.cells_created", "1/query"),
    ("jaa.peak_arrangement_bytes", "bytes"),
    ("wire.serialize_us", "us"),
    ("parallel.groups_per_query", "ratio"),
    ("parallel.stolen_tasks", "1/batch"),
    ("parallel.run_many_ms", "ms"),
    ("parallel.serial_loop_ms", "ms"),
    ("registry.update_ms", "ms"),
    ("csv.stage_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("engine.apply_update_ms", "ms"),
    ("setup.csv_parse_s", "s"),
    ("setup.index_build_s", "s"),
    ("residual_ms", "ms"),
    ("utk1_p50_ms", "ms"),
    ("utk1_tail_ms", "ms"),
    ("utk1_tail_pct", "pct"),
    ("utk1_samples", "count"),
    ("utk2_p50_ms", "ms"),
    ("utk2_tail_ms", "ms"),
    ("utk2_tail_pct", "pct"),
    ("utk2_samples", "count"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("update_tail_pct", "pct"),
    ("update_samples", "count"),
    ("queries_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("overhead.setup_s", "s"),
    ("overhead.p50_ms", "ms"),
    ("overhead.p90_ms", "ms"),
    ("overhead.mean_ms", "ms"),
    ("overhead.queries_per_s", "1/s"),
];

/// A run that has not finished this long after it started fails: it
/// kills its server, reports each unanswered request as failed and
/// exits non-zero rather than overrun its time limit.
const DEADLINE: Duration = Duration::from_secs(165);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// `stats` round trips behind `reactor.ping_p50_ms`.
const PINGS: usize = 500;
/// Batches behind the in-process `run_many` measurement.
const PARALLEL_BATCHES: usize = 48;
/// The timed phase is cut into this many equal spans of time; each
/// end-to-end latency is the best (lowest) of their figures.
const QUARTERS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    utk: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        utk: get("utk")?.into(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The run's stamp: what it measured, where, on which code.
fn stamp(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    // A checkout without git metadata stamps "unknown".
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let w = args.workload;
    format!(
        concat!(
            r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"available_parallelism":{},"#,
            r#""n":{},"d":{},"k":{},"sigma":{},"datasets":{},"connections":1,"#,
            r#""transport":"evented/unix","wal":{},"commit":"{}"}}"#
        ),
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallelism,
        N,
        D,
        K,
        w.sigma(),
        w.datasets(),
        w.wal(),
        commit.as_deref().unwrap_or("unknown"),
    )
}

/// The run's datasets: CSV text as served, and as the reference parses
/// it.
struct Datasets {
    texts: Vec<String>,
    parsed: Vec<CsvData>,
}

fn make_datasets(args: &Args, run: &RunDir) -> std::io::Result<Datasets> {
    std::fs::create_dir_all(run.data())?;
    let w = args.workload;
    let mut texts = Vec::new();
    let mut parsed = Vec::new();
    for i in 0..w.datasets() {
        let ds = generate(w.dist(), N, D, data_seed(args.seed, i));
        let text = write_csv(&ds, None);
        let name = dataset_name(i);
        std::fs::write(run.data().join(format!("{name}.csv")), &text)?;
        parsed.push(parse_csv(&text, &name).map_err(|e| std::io::Error::other(e.to_string()))?);
        texts.push(text);
    }
    Ok(Datasets { texts, parsed })
}

fn run(args: &Args) -> std::io::Result<bool> {
    let epoch = Instant::now();
    let w = args.workload;
    let stamp = stamp(args);
    eprintln!("perfbench: {stamp}");
    let run = RunDir {
        root: Path::new(".bench_run").join(format!(
            "{}-s{}-p{}",
            w.name(),
            args.seed,
            std::process::id()
        )),
    };
    if run.root.exists() {
        std::fs::remove_dir_all(&run.root)?;
    }
    std::fs::create_dir_all(&run.root)?;
    let result = measure(args, &run, epoch, &stamp);
    let _ = std::fs::remove_dir_all(&run.root);
    let _ = std::fs::remove_dir(".bench_run");
    result
}

/// One server's life: set up, warmed up, one timed phase, shut down.
struct Lifetime {
    /// Set-up seconds: the median of [`SETUPS`] untraced set-ups, or the
    /// one traced set-up.
    setup_s: f64,
    warmup: Phase,
    timed: Phase,
    /// `metrics` scrapes around the timed phase (traced only).
    scrapes: Option<(Scrape, Scrape)>,
    /// `stats` round trips after it, in ms (traced only).
    pings: Vec<f64>,
}

impl Lifetime {
    /// Every request, warm-up included, in send order.
    fn all(&self) -> impl Iterator<Item = &Entry> {
        entries(&self.warmup).chain(entries(&self.timed))
    }
}

/// Times the set-up (untraced: [`SETUPS`] times), then sets a server up
/// to serve: warm-up, the timed phase, shut-down.
fn serve(
    args: &Args,
    run: &RunDir,
    data: &Datasets,
    traced: bool,
    spans: &mut Spans,
    watchdog: &Watchdog,
) -> std::io::Result<Lifetime> {
    let w = args.workload;
    let mut setups = Vec::new();
    if !traced {
        for _ in 0..SETUPS {
            let (server, secs) = served::set_up(&args.utk, run, w)?;
            setups.push(secs);
            server.shutdown()?;
        }
    }
    let start = Instant::now();
    let (mut server, secs) = served::set_up(&args.utk, run, w)?;
    if traced {
        spans.push("serve.setup", 0, start);
        setups = vec![secs];
    }
    watchdog.serving(server.pid());
    let mut conn = server.connect()?;
    let mirror = if w.wal() {
        data.parsed[0].dataset.points.clone()
    } else {
        Vec::new()
    };
    let mut stream = Stream::new(w, args.seed, mirror);
    let warmup = drive(&mut conn, &mut stream, Until::Count(w.warmup()))?;
    let before = if traced {
        Some(Scrape::take(&mut conn)?)
    } else {
        None
    };
    let timed = Until::Elapsed(Duration::from_secs_f64(args.seconds));
    let timed = drive(&mut conn, &mut stream, timed)?;
    let mut scrapes = None;
    let mut pings = Vec::new();
    if let Some(before) = before {
        scrapes = Some((before, Scrape::take(&mut conn)?));
        pings = served::ping(&mut conn, PINGS)?;
    }
    drop(conn);
    watchdog.serving(0);
    server.shutdown()?;
    Ok(Lifetime {
        setup_s: median(&setups),
        warmup,
        timed,
        scrapes,
        pings,
    })
}

fn measure(args: &Args, run: &RunDir, epoch: Instant, stamp: &str) -> std::io::Result<bool> {
    let w = args.workload;
    let data = make_datasets(args, run)?;
    stage(epoch, "datasets written");
    let mut spans = Spans::new(epoch);
    let watchdog = Watchdog::start(epoch, run.root.clone());
    let plain = serve(args, run, &data, false, &mut spans, &watchdog)?;
    stage(epoch, "untraced server done");
    let traced = if args.trace {
        let t = serve(args, run, &data, true, &mut spans, &watchdog)?;
        stage(epoch, "traced server done");
        Some(t)
    } else {
        None
    };
    let lifetimes: Vec<&Lifetime> = std::iter::once(&plain).chain(traced.as_ref()).collect();

    // The correctness gate, against fresh engines per server lifetime.
    let mut verdict = layers::Verdict::default();
    let mut ref_spans = Vec::new();
    for l in &lifetimes {
        let stream: Vec<&Entry> = l.all().collect();
        let (v, s) = layers::verify(w, &data.parsed, &stream, epoch);
        verdict.absorb(v);
        ref_spans.extend(s);
    }
    stage(epoch, "answers checked");
    let attempted = lifetimes.iter().flat_map(|l| l.all()).count() as u64;
    let failed = lifetimes
        .iter()
        .flat_map(|l| l.all())
        .filter(|e| e.failed())
        .count() as u64;
    let failed_share = failed_frac(failed, attempted);
    let counters = Counters::of(&traced.as_ref().unwrap_or(&plain).timed);
    let mut checks = self_checks(w, &counters, &verdict);
    if failed > 0 {
        checks.push(format!(
            "{failed} of {attempted} requests failed or were refused"
        ));
    }
    if verdict.mismatches > 0 {
        checks.push(format!(
            "{} of {} answers differ from the reference; first: {}",
            verdict.mismatches,
            verdict.checked,
            verdict.first.as_deref().unwrap_or("")
        ));
    }

    let e2e = EndToEnd::of(&plain.timed, args.seconds, plain.setup_s);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let listed: &[(&str, &str)] = if let Some(t) = &traced {
        spans.list.extend(ref_spans);
        let traced_e2e = EndToEnd::of(&t.timed, args.seconds, t.setup_s);
        record_client_spans(&mut spans, &t.timed, epoch);
        per_layer(
            &mut metrics,
            &mut spans,
            LayerInputs {
                run,
                data: &data,
                plain: &plain,
                traced: t,
                counters: &counters,
                verdict: &verdict,
                plain_e2e: &e2e,
                traced_e2e: &traced_e2e,
            },
        )?;
        metrics.insert("failed_frac", failed_share);
        write_spans(args, stamp, &spans)?;
        &PER_LAYER
    } else {
        metrics.insert("setup_s", e2e.setup_s);
        metrics.insert("p50_ms", e2e.p50_ms);
        metrics.insert("p90_ms", e2e.p90_ms);
        &END_TO_END
    };

    watchdog.stop();
    stage(epoch, "metrics computed");
    if !supports(e2e.samples, 90.0) {
        eprintln!(
            "perfbench: warning: {} samples do not support p90 (need 100)",
            e2e.samples
        );
    }
    for check in &checks {
        eprintln!("perfbench: check failed: {check}");
    }
    let correct = checks.is_empty();
    println!("# stamp {stamp}");
    println!(
        "# {} requests attempted, {} failed (failed_frac {}), {} answers checked, {} samples timed",
        attempted,
        failed,
        json_number(failed_share),
        verdict.checked,
        e2e.samples
    );
    for kind in Kind::ALL {
        let lat: Vec<f64> = entries(&plain.timed)
            .filter(|e| e.req.kind == kind)
            .map(|e| e.latency_ns as f64 / 1e6)
            .collect();
        if let Some(t) = tail(&lat) {
            println!(
                "# {}: p50 {:.4} ms, p{} {:.4} ms, mean {:.4} ms over {} samples",
                kind.label(),
                median(&lat),
                t.pct,
                t.value,
                mean(&lat),
                t.samples
            );
        }
    }
    let mut parts = Vec::new();
    for (name, unit) in listed {
        let value = *metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("{name:<36} {value:>16.6} {unit}");
        parts.push(format!(
            r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
            json_number(value)
        ));
    }
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        parts.join(",")
    );
    Ok(correct)
}

/// Fails the run, server included, if it passes [`DEADLINE`]: a query
/// that never ends must fail the run, not hold it past its time limit.
struct Watchdog {
    done: Arc<AtomicBool>,
    pid: Arc<AtomicU32>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Watches the run that started at `epoch` and keeps its files
    /// under `root`.
    fn start(epoch: Instant, root: PathBuf) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let pid = Arc::new(AtomicU32::new(0));
        let (d, p) = (Arc::clone(&done), Arc::clone(&pid));
        let handle = std::thread::spawn(move || {
            while !d.load(Ordering::SeqCst) {
                if epoch.elapsed() > DEADLINE {
                    eprintln!("perfbench: run passed {} s; failing", DEADLINE.as_secs());
                    let server = p.load(Ordering::SeqCst);
                    if server != 0 {
                        served::kill(server);
                    }
                    // The server's stderr names a panic, if one ate a request.
                    if let Ok(log) = std::fs::read_to_string(root.join("server.log")) {
                        eprint!("{log}");
                    }
                    let _ = std::fs::remove_dir_all(&root);
                    let _ = std::fs::remove_dir(".bench_run");
                    let unanswered = served::unanswered().clone();
                    if let Some(line) = &unanswered {
                        eprintln!("perfbench: unanswered at the deadline: {line}");
                    }
                    println!(
                        r#"{{"correct":false,"attempted":{},"failed":{},"metrics":{{}}}}"#,
                        served::SENT.load(Ordering::SeqCst).max(1),
                        u8::from(unanswered.is_some())
                    );
                    std::process::exit(3);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        Watchdog {
            done,
            pid,
            handle: Some(handle),
        }
    }

    /// The server to kill on a timeout (0: none running).
    fn serving(&self, pid: u32) {
        self.pid.store(pid, Ordering::SeqCst);
    }

    fn stop(mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("watchdog thread");
        }
    }
}

/// Logs how far the run has got, to stderr.
fn stage(epoch: Instant, what: &str) {
    eprintln!(
        "perfbench: {:>7.2} s  {what}",
        epoch.elapsed().as_secs_f64()
    );
}

/// A finite JSON number with every digit kept.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The end-to-end figures of one timed phase.
struct EndToEnd {
    setup_s: f64,
    /// The lowest p50 of the phase's [`QUARTERS`].
    p50_ms: f64,
    /// The lowest p90 of the phase's [`QUARTERS`].
    p90_ms: f64,
    /// Over the whole phase.
    mean_ms: f64,
    /// Answered query lines per second, over the whole phase.
    queries_per_s: f64,
    /// Requests timed.
    samples: usize,
}

impl EndToEnd {
    /// The figures of `phase`, planned to last `seconds`.
    ///
    /// The host lends the benchmark two cores of a shared machine, and
    /// other tenants take CPU time from it in bursts of a few seconds
    /// (steal rose to 8% of a run). A run's p50 and p90 are therefore
    /// taken per quarter of the timed phase, and the best quarter is
    /// reported: a burst that covers part of a run does not move them,
    /// while a change in the program moves every quarter.
    fn of(phase: &Phase, seconds: f64, setup_s: f64) -> EndToEnd {
        let quarter_ns = (seconds * 1e9 / QUARTERS as f64).max(1.0);
        let mut quarters = vec![Vec::new(); QUARTERS];
        for e in entries(phase) {
            let q = (e.start_ns as f64 / quarter_ns) as usize;
            quarters[q.min(QUARTERS - 1)].push(e.latency_ns as f64 / 1e6);
        }
        let best = |pct: f64| {
            quarters
                .iter()
                .filter(|q| !q.is_empty())
                .map(|q| percentile(&sorted(q.clone()), pct))
                .fold(f64::INFINITY, f64::min)
        };
        let all: Vec<f64> = quarters.concat();
        let answered = entries(phase)
            .filter(|e| !e.failed() && e.req.line().is_some())
            .count();
        EndToEnd {
            setup_s,
            p50_ms: best(50.0),
            p90_ms: best(90.0),
            mean_ms: mean(&all),
            queries_per_s: answered as f64 / seconds,
            samples: all.len(),
        }
    }
}

fn entries(phase: &Phase) -> impl Iterator<Item = &Entry> {
    phase.entries.iter()
}

/// Sums of the served answers' `stats` counters over one phase.
#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    updates: u64,
    lines: u64,
    utk2_lines: u64,
    cold_candidates: u64,
    bbs_pops: u64,
    rdom_tests: u64,
    kernel_blocks: u64,
    prefilter_rejects: u64,
    prefilter_verifies: u64,
    drills: u64,
    drill_hits: u64,
    utk2_halfspaces: u64,
    utk2_cells: u64,
    utk2_peak_bytes: u64,
    exact: u64,
    superset: u64,
    evictions: u64,
}

impl Counters {
    fn of(phase: &Phase) -> Counters {
        let mut c = Counters::default();
        for e in entries(phase) {
            c.requests += 1;
            match &e.req.op {
                Op::Query(_) => c.add(&e.reply),
                Op::Update { .. } => c.updates += 1,
            }
        }
        c
    }

    fn add(&mut self, line: &str) {
        let Ok(doc) = json::parse(line) else { return };
        let Some(stats) = doc.get("stats") else {
            return;
        };
        let get = |k: &str| stats.get(k).and_then(json::Value::as_u64).unwrap_or(0);
        self.lines += 1;
        let pops = get("bbs_pops");
        if pops > 0 {
            self.cold_candidates += get("candidates");
        }
        self.bbs_pops += pops;
        self.rdom_tests += get("rdom_tests");
        self.kernel_blocks += get("kernel_blocks");
        self.prefilter_rejects += get("prefilter_rejects");
        self.prefilter_verifies += get("prefilter_verifies");
        self.drills += get("drills");
        self.drill_hits += get("drill_hits");
        if doc.get("query").and_then(json::Value::as_str) == Some("utk2") {
            self.utk2_lines += 1;
            self.utk2_halfspaces += get("halfspaces_inserted");
            self.utk2_cells += get("cells_created");
            self.utk2_peak_bytes += get("peak_arrangement_bytes");
        }
        self.exact += get("filter_cache_hits");
        self.superset += get("superset_hits");
        self.evictions += get("evictions");
    }

    fn per_line(&self, v: u64) -> f64 {
        ratio(v as f64, self.lines as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Checks that each workload still exercises the layer it was built
/// for; every failure is a message.
fn self_checks(w: Workload, c: &Counters, verdict: &layers::Verdict) -> Vec<String> {
    let mut out = Vec::new();
    match w {
        Workload::AntiCold if c.exact + c.superset > 0 => out.push(format!(
            "anti_cold saw {} exact and {} superset hits",
            c.exact, c.superset
        )),
        Workload::UpdateMix if c.exact == 0 || c.superset == 0 => {
            out.push("update_mix saw no exact or no superset hits".into())
        }
        Workload::UpdateMix if verdict.repairs == 0 => {
            out.push("update_mix performed no splice repair".into())
        }
        _ => {}
    }
    out
}

/// Client spans of the traced phase: one per request.
fn record_client_spans(spans: &mut Spans, phase: &Phase, epoch: Instant) {
    let phase_start = phase.started.duration_since(epoch).as_nanos() as u64;
    for (i, e) in phase.entries.iter().enumerate() {
        spans.list.push(layers::Span {
            name: match e.req.kind {
                Kind::Utk1 => "client.utk1",
                Kind::Utk2 => "client.utk2",
                Kind::Update => "client.update",
            },
            id: i as u64,
            start_ns: phase_start + e.start_ns,
            dur_ns: e.latency_ns,
        });
    }
}

fn write_spans(args: &Args, stamp: &str, spans: &Spans) -> std::io::Result<()> {
    use std::io::Write;
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "{stamp}")?;
    for s in &spans.list {
        writeln!(
            out,
            r#"{{"name":"{}","id":{},"start_ns":{},"dur_ns":{}}}"#,
            s.name, s.id, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

struct LayerInputs<'a> {
    run: &'a RunDir,
    data: &'a Datasets,
    plain: &'a Lifetime,
    traced: &'a Lifetime,
    counters: &'a Counters,
    verdict: &'a layers::Verdict,
    plain_e2e: &'a EndToEnd,
    traced_e2e: &'a EndToEnd,
}

fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    spans: &mut Spans,
    x: LayerInputs<'_>,
) -> std::io::Result<()> {
    let c = x.counters;
    let traced = &x.traced.timed;
    let (before, after) = x
        .traced
        .scrapes
        .as_ref()
        .expect("a traced lifetime scrapes");
    let requests = c.requests as f64;

    // Transport.
    m.insert("reactor.ping_p50_ms", median(&x.traced.pings));
    let (mut count, mut sum) = (0, 0);
    for op in ["query", "update"] {
        let (n, s) = after.histogram_delta(before, "utk_request_nanos", &format!("op=\"{op}\""));
        count += n;
        sum += s;
    }
    let server_ms = ratio(sum as f64, count as f64) / 1e6;
    m.insert("server.request_mean_ms", server_ms);
    let transport_ms = x.traced_e2e.mean_ms - server_ms;
    m.insert("transport.residual_mean_ms", transport_ms);

    // Parse, over the workload's own lines.
    let request_lines: Vec<String> = entries(traced).map(|e| e.req.to_json()).collect();
    let query_lines: Vec<String> = entries(traced)
        .filter_map(|e| e.req.line().map(str::to_string))
        .collect();
    let (proto_us, spec_us) = layers::parse_costs(spans, &request_lines, &query_lines);
    m.insert("proto.parse_us", proto_us);
    m.insert("spec.parse_us", spec_us);
    let lines_per_request = ratio(query_lines.len() as f64, requests);

    // Engine phases, per request, from the server's own counters.
    let phase_ms = |phase: &str| {
        let nanos = after.counter_delta(
            before,
            "utk_phase_nanos_total",
            &format!("phase=\"{phase}\""),
        );
        ratio(nanos as f64, requests) / 1e6
    };
    let filter = phase_ms("filter");
    let screen = phase_ms("screen");
    let graph = phase_ms("graph");
    let drill = phase_ms("drill");
    let arrange = phase_ms("arrange");
    let serialize = phase_ms("serialize");
    m.insert("skyband.filter_self_ms", filter);
    m.insert("rdominance.screen_self_ms", screen);
    m.insert("graph.self_ms", graph);
    m.insert("drill.self_ms", drill);
    m.insert("jaa.arrange_self_ms", arrange);
    m.insert("wire.serialize_us", serialize * 1e3);

    // Engine, in process, over the same stream (the reference replay).
    m.insert("engine.utk1_ms", spans.mean_ms("engine.run.utk1"));
    m.insert("engine.utk2_ms", spans.mean_ms("engine.run.utk2"));

    // Served counters.
    m.insert("cache.exact_hit_ratio", c.per_line(c.exact));
    m.insert("cache.superset_hit_ratio", c.per_line(c.superset));
    m.insert(
        "cache.repairs",
        ratio(x.verdict.repairs as f64, x.verdict.updates as f64),
    );
    m.insert("cache.evictions", c.per_line(c.evictions));
    m.insert("skyband.bbs_pops", c.per_line(c.bbs_pops));
    m.insert(
        "skyband.candidates_per_pop",
        ratio(c.cold_candidates as f64, c.bbs_pops as f64),
    );
    m.insert("rdominance.rdom_tests", c.per_line(c.rdom_tests));
    m.insert("rdominance.kernel_blocks", c.per_line(c.kernel_blocks));
    m.insert(
        "rdominance.prefilter_reject_ratio",
        ratio(
            c.prefilter_rejects as f64,
            (c.prefilter_rejects + c.prefilter_verifies) as f64,
        ),
    );
    m.insert(
        "drill.hit_ratio",
        ratio(c.drill_hits as f64, c.drills as f64),
    );
    let per_utk2 = |v: u64| ratio(v as f64, c.utk2_lines as f64);
    m.insert("jaa.halfspaces_inserted", per_utk2(c.utk2_halfspaces));
    m.insert("jaa.cells_created", per_utk2(c.utk2_cells));
    m.insert("jaa.peak_arrangement_bytes", per_utk2(c.utk2_peak_bytes));

    // run_many against a serial loop, in process: the timed phase's
    // query lines as batches of one session each (timing starts where
    // a session does), so a zoom session's repeats share filter groups.
    let batches: Vec<Vec<String>> = query_lines
        .chunks_exact(SESSION)
        .take(PARALLEL_BATCHES)
        .map(<[String]>::to_vec)
        .collect();
    let p = layers::parallel_costs(spans, &x.data.parsed[0], &batches);
    m.insert("parallel.groups_per_query", p.groups_per_query);
    m.insert("parallel.run_many_ms", p.run_many_ms);
    m.insert("parallel.serial_loop_ms", p.serial_loop_ms);
    m.insert("parallel.stolen_tasks", p.stolen_tasks);

    // The write path, one layer at a time, over the stream's edits.
    let write = if c.updates == 0 {
        None
    } else {
        Some(layers::write_path_costs(
            spans,
            &x.run.root.join("inproc"),
            &x.data.texts[0],
            &x.traced.all().collect::<Vec<_>>(),
        )?)
    };
    let registry_ms = write.as_ref().map_or(0.0, |p| p.registry_update_ms);
    m.insert("registry.update_ms", registry_ms);
    m.insert(
        "csv.stage_ms",
        write.as_ref().map_or(0.0, |p| p.csv_stage_ms),
    );
    m.insert(
        "wal.append_ms",
        write.as_ref().map_or(0.0, |p| p.wal_append_ms),
    );
    m.insert(
        "engine.apply_update_ms",
        spans.mean_ms("engine.apply_update"),
    );

    // Set-up.
    let (parse_s, build_s) = layers::setup_costs(spans, &x.data.texts[0]);
    m.insert("setup.csv_parse_s", parse_s);
    m.insert("setup.index_build_s", build_s);

    // What the layers leave unexplained of the traced mean.
    let update_share = ratio(c.updates as f64, requests);
    m.insert(
        "residual_ms",
        residual(
            x.traced_e2e.mean_ms,
            &[
                transport_ms,
                proto_us / 1e3,
                spec_us / 1e3 * lines_per_request,
                filter,
                screen,
                graph,
                drill,
                arrange,
                serialize,
                registry_ms * update_share,
            ],
        ),
    );

    // Latency split by request kind, over the untraced phase.
    for kind in Kind::ALL {
        let lat: Vec<f64> = entries(&x.plain.timed)
            .filter(|e| e.req.kind == kind)
            .map(|e| e.latency_ns as f64 / 1e6)
            .collect();
        let t = tail(&lat);
        let names = kind_metric_names(kind);
        m.insert(names[0], median(&lat));
        m.insert(names[1], t.as_ref().map_or(0.0, |t| t.value));
        m.insert(names[2], t.as_ref().map_or(0.0, |t| t.pct));
        m.insert(names[3], lat.len() as f64);
    }

    m.insert("queries_per_s", x.plain_e2e.queries_per_s);

    // Tracing overhead: traced minus untraced.
    m.insert(
        "overhead.setup_s",
        x.traced_e2e.setup_s - x.plain_e2e.setup_s,
    );
    m.insert("overhead.p50_ms", x.traced_e2e.p50_ms - x.plain_e2e.p50_ms);
    m.insert("overhead.p90_ms", x.traced_e2e.p90_ms - x.plain_e2e.p90_ms);
    m.insert(
        "overhead.mean_ms",
        x.traced_e2e.mean_ms - x.plain_e2e.mean_ms,
    );
    m.insert(
        "overhead.queries_per_s",
        x.traced_e2e.queries_per_s - x.plain_e2e.queries_per_s,
    );
    Ok(())
}

fn kind_metric_names(kind: Kind) -> [&'static str; 4] {
    match kind {
        Kind::Utk1 => [
            "utk1_p50_ms",
            "utk1_tail_ms",
            "utk1_tail_pct",
            "utk1_samples",
        ],
        Kind::Utk2 => [
            "utk2_p50_ms",
            "utk2_tail_ms",
            "utk2_tail_pct",
            "utk2_samples",
        ],
        Kind::Update => [
            "update_p50_ms",
            "update_tail_ms",
            "update_tail_pct",
            "update_samples",
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_names_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(json::Value::as_str)
                            .expect("a string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect();
        let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn latencies_are_the_best_quarter() {
        let entry = |start_ms: u64, latency_ms: u64| Entry {
            req: workload::Request {
                kind: Kind::Utk1,
                op: Op::Query("utk1".into()),
                dataset: 0,
            },
            reply: "{}".into(),
            start_ns: start_ms * 1_000_000,
            latency_ns: latency_ms * 1_000_000,
        };
        // Four 1-s quarters; the third is the fastest, the first slowest.
        let mut log = Vec::new();
        for (q, ms) in [(0, 9), (1, 5), (2, 2), (3, 4)] {
            for i in 0..10 {
                log.push(entry(q * 1000 + i * 10, ms + i % 2));
            }
        }
        let phase = Phase {
            started: Instant::now(),
            entries: log,
        };
        let e = EndToEnd::of(&phase, 4.0, 0.5);
        assert_eq!((e.p50_ms, e.p90_ms), (2.0, 3.0));
        assert_eq!(e.samples, 40);
        assert_eq!(e.queries_per_s, 10.0);
        assert_eq!(e.mean_ms, (9.5 + 5.5 + 2.5 + 4.5) / 4.0);
    }

    #[test]
    fn kind_names_are_listed() {
        for kind in Kind::ALL {
            for name in kind_metric_names(kind) {
                assert!(name.starts_with(kind.label()));
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
            }
        }
    }
}
