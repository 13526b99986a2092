// utk-lint: class=bench
//! The in-process side: the correctness gate's reference replay, and
//! the traced run's calls into each layer's public functions, each
//! wrapped in a span recorded here.

use std::path::Path;
use std::time::Instant;

use utk_core::engine::UtkEngine;
use utk_data::csv::{parse_csv, CsvData};
use utk_data::wal::{WalFile, WalRecord};
use utk_server::proto::{Request as Proto, Response};
use utk_server::registry::DatasetRegistry;
use utk_server::spec;

use crate::served::Entry;
use crate::summary::median;
use crate::workload::{dataset_name, Kind, Op, Workload, CACHE_MIB};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and function, e.g. `engine.run`.
    pub name: &'static str,
    /// The request (or loop pass) it belongs to.
    pub id: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    epoch: Instant,
    /// Recorded spans, in completion order.
    pub list: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.push(name, id, start);
        out
    }

    /// Records a span that started at `start` and ends now.
    pub fn push(&mut self, name: &'static str, id: u64, start: Instant) {
        self.list.push(Span {
            name,
            id,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
    }

    /// Mean duration of the spans named `name`, in milliseconds (0 if
    /// none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        crate::summary::mean(&durs)
    }
}

/// The wire answer without its `"stats"` object: the bytes the gate
/// compares (stats carry cache state, which differs between engines).
pub fn answer_part(line: &str) -> &str {
    line.split_once("\"stats\"")
        .map_or(line, |(answer, _)| answer)
}

/// The correctness gate's outcome.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers compared.
    pub checked: u64,
    /// Answers that differed from the reference.
    pub mismatches: u64,
    /// The first difference, for the log.
    pub first: Option<String>,
    /// Splice repairs the reference engines performed.
    pub repairs: usize,
    /// Updates the reference applied.
    pub updates: usize,
}

impl Verdict {
    /// Adds another replay's outcome.
    pub fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.first = self.first.take().or(other.first);
        self.repairs += other.repairs;
        self.updates += other.updates;
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.is_none() {
            self.first = Some(what);
        }
    }
}

/// The kind of a query line, by its command word.
fn line_kind(line: &str) -> Kind {
    if line.starts_with("utk2") {
        Kind::Utk2
    } else {
        Kind::Utk1
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Utk2 => "engine.run.utk2",
        _ => "engine.run.utk1",
    }
}

/// Compares every served answer with `spec::answer_query_line` on
/// fresh engines built from the same CSV, one per dataset. `stream`
/// holds the requests in send order. A stream that takes updates is
/// replayed in that order, so the reference sees the same mutation
/// stream; a read-only one is split by dataset and then in halves, each
/// part on its own thread.
pub fn verify(
    workload: Workload,
    data: &[CsvData],
    stream: &[&Entry],
    epoch: Instant,
) -> (Verdict, Vec<Span>) {
    // The server's cache budget, so an update repairs as many entries
    // here as it did there.
    let engines: Vec<UtkEngine> = data
        .iter()
        .map(|d| {
            UtkEngine::new(d.dataset.points.clone())
                .expect("benchmark data indexes")
                .with_filter_cache_budget(CACHE_MIB << 20)
        })
        .collect();
    // (dataset, requests) per replay thread.
    let mut chunks: Vec<(usize, Vec<&Entry>)> = Vec::new();
    for ds in 0..data.len() {
        let mine: Vec<&Entry> = stream
            .iter()
            .filter(|e| e.req.dataset == ds)
            .copied()
            .collect();
        if workload.wal() {
            chunks.push((ds, mine));
        } else {
            let (a, b) = mine.split_at(mine.len() / 2);
            chunks.push((ds, a.to_vec()));
            chunks.push((ds, b.to_vec()));
        }
    }
    let results: Vec<(Verdict, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(ds, entries)| {
                let (engine, data) = (&engines[ds], &data[ds]);
                scope.spawn(move || replay(engine, data, &entries, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut verdict = Verdict::default();
    let mut spans = Vec::new();
    for (v, s) in results {
        verdict.absorb(v);
        spans.extend(s);
    }
    if workload.wal() {
        verdict.repairs = engines.iter().map(UtkEngine::filter_repairs).sum();
    }
    (verdict, spans)
}

fn replay(
    engine: &UtkEngine,
    data: &CsvData,
    entries: &[&Entry],
    epoch: Instant,
) -> (Verdict, Vec<Span>) {
    let mut data = data.clone();
    let mut spans = Spans::new(epoch);
    let mut v = Verdict::default();
    for (i, entry) in entries.iter().enumerate() {
        let id = i as u64;
        if entry.failed() {
            continue; // Refused or failed: the caller counts it and fails the run.
        }
        let served = &entry.reply;
        match &entry.req.op {
            Op::Query(line) => check(engine, &data, served, line, id, &mut v, &mut spans),
            Op::Update { delete, insert } => {
                let report = spans
                    .time("engine.apply_update", id, || {
                        engine.apply_update(&[*delete], vec![insert.clone()])
                    })
                    .expect("the reference accepts what the server accepted");
                data.apply_update(&[*delete], std::slice::from_ref(insert), None)
                    .expect("the reference payload accepts the update");
                v.checked += 1;
                v.updates += 1;
                match Response::parse(served) {
                    Ok(Response::Update { epoch, n, .. })
                        if epoch == report.epoch && n as usize == report.n => {}
                    _ => v.mismatch(format!(
                        "update -{delete}: served {served}, reference epoch {} n {}",
                        report.epoch, report.n
                    )),
                }
            }
        }
    }
    (v, spans.list)
}

/// Compares one served answer with the reference's, timing the
/// reference engine run as a span.
fn check(
    engine: &UtkEngine,
    data: &CsvData,
    served: &str,
    line: &str,
    id: u64,
    v: &mut Verdict,
    spans: &mut Spans,
) {
    let reference = spec::answer_query_line_with(data, line, |q| {
        spans.time(span_name(line_kind(line)), id, || engine.run(q))
    });
    v.checked += 1;
    if answer_part(served) != answer_part(&reference) {
        v.mismatch(format!(
            "{line}\n  served:    {served}\n  reference: {reference}"
        ));
    }
}

/// Mean microseconds per call of `f` over `items`, repeating passes
/// until at least `min_secs` have been measured. One span per pass.
fn per_item_us<T>(
    spans: &mut Spans,
    name: &'static str,
    items: &[T],
    min_secs: f64,
    mut f: impl FnMut(&T),
) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    let mut pass = 0u64;
    while calls == 0 || start.elapsed().as_secs_f64() < min_secs {
        spans.time(name, pass, || items.iter().for_each(&mut f));
        calls += items.len() as u64;
        pass += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// `proto.parse_us`: `Request::parse` over the workload's own request
/// lines, and `spec.parse_us`: `spec::parse_query_line` over its query
/// lines.
pub fn parse_costs(spans: &mut Spans, requests: &[String], queries: &[String]) -> (f64, f64) {
    let proto = per_item_us(spans, "proto.parse", requests, 0.2, |l| {
        std::hint::black_box(Proto::parse(std::hint::black_box(l)).is_ok());
    });
    let query = per_item_us(spans, "spec.parse_query_line", queries, 0.2, |l| {
        std::hint::black_box(
            spec::parse_query_line(std::hint::black_box(l), crate::workload::D).is_ok(),
        );
    });
    (proto, query)
}

/// `setup.csv_parse_s` and `setup.index_build_s`: the median of three
/// `parse_csv` and `UtkEngine::new` calls on one dataset's CSV text.
pub fn setup_costs(spans: &mut Spans, csv_text: &str) -> (f64, f64) {
    let mut p = Vec::new();
    let mut b = Vec::new();
    for i in 0..3 {
        let start = Instant::now();
        let data = parse_csv(csv_text, &dataset_name(0)).expect("benchmark CSV parses");
        spans.push("setup.parse_csv", i, start);
        p.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let engine = UtkEngine::new(data.dataset.points).expect("benchmark data indexes");
        spans.push("setup.engine_new", i, start);
        b.push(start.elapsed().as_secs_f64());
        drop(engine);
    }
    (median(&p), median(&b))
}

/// The `run_many` layer over a workload's batches: mean wall
/// milliseconds per batch through `UtkEngine::run_many`, the same
/// queries as a serial `run` loop on a second fresh engine, tasks
/// stolen per batch, and filter groups per query line.
pub struct Parallel {
    /// Mean milliseconds per batch through `run_many`.
    pub run_many_ms: f64,
    /// Mean milliseconds per batch as a serial loop.
    pub serial_loop_ms: f64,
    /// Pool tasks stolen per batch.
    pub stolen_tasks: f64,
    /// `run_many`'s filter groups per query line, over the batches.
    pub groups_per_query: f64,
}

/// Measures [`Parallel`] on `batches` (query lines per batch).
pub fn parallel_costs(spans: &mut Spans, data: &CsvData, batches: &[Vec<String>]) -> Parallel {
    let prepared: Vec<Vec<utk_core::engine::UtkQuery>> = batches
        .iter()
        .map(|lines| {
            lines
                .iter()
                .map(|l| {
                    spec::parse_query_line(l, data.dataset.dim())
                        .expect("own lines parse")
                        .query
                })
                .collect()
        })
        .collect();
    let pooled = UtkEngine::new(data.dataset.points.clone()).expect("benchmark data indexes");
    let serial = UtkEngine::new(data.dataset.points.clone()).expect("benchmark data indexes");
    let stolen_before = pooled.pool().stolen_tasks();
    let (mut groups, mut lines) = (0, 0);
    for (i, queries) in prepared.iter().enumerate() {
        let results = spans.time("engine.run_many", i as u64, || pooled.run_many(queries));
        // Every line of a batch reports the batch's group count.
        if let Some(Ok(first)) = results.first() {
            groups += first.stats().batch_group_count;
            lines += queries.len();
        }
        spans.time("engine.run.serial_loop", i as u64, || {
            for q in queries {
                std::hint::black_box(serial.run(q).is_ok());
            }
        });
    }
    let stolen = pooled.pool().stolen_tasks() - stolen_before;
    Parallel {
        run_many_ms: spans.mean_ms("engine.run_many"),
        serial_loop_ms: spans.mean_ms("engine.run.serial_loop"),
        stolen_tasks: stolen as f64 / prepared.len().max(1) as f64,
        groups_per_query: if lines == 0 {
            0.0
        } else {
            groups as f64 / lines as f64
        },
    }
}

/// The write path, one layer at a time, over the same edits.
/// `UtkEngine::apply_update` is timed in the reference replay, where
/// the engine's cache holds what the server's held.
pub struct WritePath {
    /// `DatasetRegistry::update` (WAL-backed), mean ms.
    pub registry_update_ms: f64,
    /// The registry's staging copy: `CsvData` clone + `apply_update`.
    pub csv_stage_ms: f64,
    /// `WalFile::append`, fsync included.
    pub wal_append_ms: f64,
}

/// Edits behind [`WritePath`]: enough for stable means, few enough
/// that a traced run stays well inside its time limit.
const WRITE_EDITS: usize = 48;

/// Measures [`WritePath`] over the first [`WRITE_EDITS`] edits of
/// `stream` against dataset 0, whose CSV text is `csv_text`, with
/// scratch files under `dir`. The registry
/// also answers the stream's reads, untimed, so each update repairs
/// the cache entries it would have repaired in the server.
pub fn write_path_costs(
    spans: &mut Spans,
    dir: &Path,
    csv_text: &str,
    stream: &[&Entry],
) -> std::io::Result<WritePath> {
    let data_dir = dir.join("data");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&data_dir)?;
    std::fs::create_dir_all(&wal_dir)?;
    let name = dataset_name(0);
    std::fs::write(data_dir.join(format!("{name}.csv")), csv_text)?;
    let registry = DatasetRegistry::new(data_dir, CACHE_MIB << 20, 0).with_wal_dir(wal_dir);
    let (ds, _) = registry
        .get_or_load(&name)
        .map_err(|e| std::io::Error::other(e.to_json()))?;
    let mut staged = (*ds.data_snapshot()).clone();
    let mut wal = WalFile::open(&dir.join("probe.wal"))
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .wal;
    let mut edits = 0;
    for entry in stream.iter().filter(|e| !e.failed()) {
        if edits == WRITE_EDITS {
            break;
        }
        let (delete, insert) = match &entry.req.op {
            Op::Update { delete, insert } => (*delete, insert),
            _ => {
                if let Some(line) = entry.req.line() {
                    let query = spec::parse_query_line(line, crate::workload::D)
                        .expect("own lines parse")
                        .query;
                    std::hint::black_box(ds.engine.run(&query).is_ok());
                }
                continue;
            }
        };
        let id = edits as u64;
        edits += 1;
        spans
            .time("registry.update", id, || {
                registry.update(&name, &[delete], vec![insert.clone()], None)
            })
            .map_err(|e| std::io::Error::other(e.to_json()))?;
        staged = spans.time("csv.stage", id, || {
            let mut next = staged.clone();
            next.apply_update(&[delete], std::slice::from_ref(insert), None)
                .expect("the edit applies");
            next
        });
        let record = WalRecord::for_update(
            wal.epoch() + 1,
            &[delete],
            std::slice::from_ref(insert),
            None,
        );
        spans
            .time("wal.append", id, || wal.append(&record))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    Ok(WritePath {
        registry_update_ms: spans.mean_ms("registry.update"),
        csv_stage_ms: spans.mean_ms("csv.stage"),
        wal_append_ms: spans.mean_ms("wal.append"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_ignores_only_stats() {
        let a = r##"{"query":"utk1","records":[{"id":1,"name":"#1"}],"stats":{"bbs_pops":9}}"##;
        let b = r##"{"query":"utk1","records":[{"id":1,"name":"#1"}],"stats":{"bbs_pops":0}}"##;
        let c = r##"{"query":"utk1","records":[{"id":2,"name":"#2"}],"stats":{"bbs_pops":9}}"##;
        assert_eq!(answer_part(a), answer_part(b));
        assert_ne!(answer_part(a), answer_part(c));
        assert_eq!(answer_part(r#"{"error":"x"}"#), r#"{"error":"x"}"#);
    }
}
