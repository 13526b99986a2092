// utk-lint: class=bench
//! The two workloads and their request streams.
//!
//! Every stream is a pure function of the seed and — for `update_mix`
//! only — the answers already received (an edit replaces a record the
//! session was just shown). All workloads use
//! n = 100 000, d = 4 and k = 10.
//!
//! Region sides are half the paper's defaults (σ = 0.5% on ANTI, 1%
//! for IND zoom bases): JAA's cost has a heavy tail that grows steeply
//! with σ. On 300 random regions, ANTI UTK2 at σ = 1% had p99 132 ms
//! and max 1.4 s, at 0.5% p99 20 ms and max 0.1 s; IND UTK2 at 2% had
//! p99 150 ms, at 1% 19 ms. ANTI regions also keep [`CENTRE_GAP`] away
//! from the uniform weights, where the answer alone runs to tens of
//! thousands of partitions.

use utk_data::queries::random_regions;
use utk_data::synthetic::Distribution;
use utk_server::proto::Request as Proto;

/// Records per dataset.
pub const N: usize = 100_000;
/// Dimensionality.
pub const D: usize = 4;
/// Rank bound of every query.
pub const K: usize = 10;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ANTI data, every request a UTK1 or UTK2 on a fresh σ = 0.5%
    /// region: filter, screen and arrangement do the work, the cache
    /// never hits.
    AntiCold,
    /// Zoom sessions on IND data — UTK1 and UTK2 on a fresh σ = 1%
    /// base, three nested UTK1 zooms, the base twice more — with one
    /// WAL-backed edit per session: exact and superset cache hits,
    /// splice repair, WAL fsync and the registry's staging copy.
    UpdateMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::AntiCold, Workload::UpdateMix];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AntiCold => "anti_cold",
            Workload::UpdateMix => "update_mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The data distribution.
    pub fn dist(self) -> Distribution {
        match self {
            Workload::AntiCold => Distribution::Anti,
            _ => Distribution::Ind,
        }
    }

    /// Query-region side length as a share of the axis.
    pub fn sigma(self) -> f64 {
        match self {
            Workload::AntiCold => 0.005,
            Workload::UpdateMix => 0.01,
        }
    }

    /// Datasets served, each from its own seed; request `i` of the
    /// stream addresses dataset `i % datasets()`. On ANTI data a
    /// dataset's few highest records decide how hard every query is, so
    /// hardness varies from seed to seed: in one hour, seed 201's
    /// anti_cold p90 read 6.3–7.4 ms and seed 208's 5.5–5.8 ms. Two
    /// datasets per run average that out. `update_mix` keeps one, whose
    /// edits the stream mirrors.
    pub fn datasets(self) -> usize {
        match self {
            Workload::AntiCold => 2,
            Workload::UpdateMix => 1,
        }
    }

    /// Whether the server runs with `--wal-dir`.
    pub fn wal(self) -> bool {
        self == Workload::UpdateMix
    }

    /// Requests sent before timing starts: the
    /// [`FILL`] queries that fill the filter cache, then two sessions
    /// (or 16 requests) of the workload's own, so timing starts where a
    /// session does.
    pub fn warmup(self) -> usize {
        FILL + match self {
            Workload::AntiCold => 16,
            Workload::UpdateMix => 2 * (SESSION + 1),
        }
    }
}

/// The served filter-cache budget, in MiB (`utk serve --cache-budget`).
/// An entry takes about 2.5 KB, so 1 MiB holds about 400. A run's timed
/// phase then starts with a full cache that evicts as it inserts: the
/// superset probe scans every entry on each miss, and under the default
/// 64 MiB the cache kept growing through the run, so latency climbed
/// with every query served (a read-only zoom-session stream's
/// per-second p50 went 0.42 → 1.59 ms in 12 s) and a run's figures
/// depended on how far it got.
pub const CACHE_MIB: usize = 1;

/// The longest client think time, in microseconds: after each answer a
/// client waits a seeded uniform draw from `0..=THINK_MAX_US`
/// before it sends the next request. The reactor parks for 1 ms
/// whenever a sweep finds no work, so a request sent the instant the
/// previous answer arrived met the park at whatever phase the last
/// round trip left it in: a read-only zoom-session stream's p50
/// flipped between 0.6 and 1.4 ms from run to run. A spread-out
/// arrival meets the park at a uniform phase instead, as independent
/// callers do.
pub const THINK_MAX_US: u64 = 2_000;

/// Fresh cold UTK1 queries that open every stream: enough entries to
/// fill [`CACHE_MIB`] before the timed phase.
pub const FILL: usize = 600;

/// The served name of dataset `i`.
pub fn dataset_name(i: usize) -> String {
    format!("d{i}")
}

/// The kind of one request, as the latency split reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `query` op carrying a UTK1 (RSA) line.
    Utk1,
    /// A `query` op carrying a UTK2 (JAA) line.
    Utk2,
    /// A WAL-backed `update` op.
    Update,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 3] = [Kind::Utk1, Kind::Utk2, Kind::Update];

    /// The metric-name prefix.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Utk1 => "utk1",
            Kind::Utk2 => "utk2",
            Kind::Update => "update",
        }
    }
}

/// One operation on the wire.
#[derive(Debug, Clone)]
pub enum Op {
    /// One query line.
    Query(String),
    /// Delete one record and insert one row.
    Update {
        /// The id to delete.
        delete: u32,
        /// The row to append.
        insert: Vec<f64>,
    },
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which latency split it belongs to.
    pub kind: Kind,
    /// What it sends.
    pub op: Op,
    /// The dataset it addresses.
    pub dataset: usize,
}

impl Request {
    /// The protocol line.
    pub fn to_json(&self) -> String {
        let dataset = dataset_name(self.dataset);
        match &self.op {
            Op::Query(q) => Proto::Query {
                dataset,
                q: q.clone(),
            },
            Op::Update { delete, insert } => Proto::Update {
                dataset,
                delete: vec![*delete],
                insert: vec![insert.clone()],
                labels: None,
            },
        }
        .to_json()
    }

    /// The query line it carries, if it is a query.
    pub fn line(&self) -> Option<&str> {
        match &self.op {
            Op::Query(q) => Some(q),
            Op::Update { .. } => None,
        }
    }
}

/// SplitMix64: mixes a seed with a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of dataset `i`'s data.
pub fn data_seed(seed: u64, i: usize) -> u64 {
    mix(seed, 0xDA7A + i as u64)
}

/// One axis-parallel region `lo ≤ w ≤ hi`.
#[derive(Debug, Clone)]
struct Region {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Region {
    /// The `level`-th nested zoom: shrunk by 12% of the side per level
    /// from each face, so every zoom lies inside the one before.
    fn zoom(&self, level: usize) -> Region {
        let f = 0.12 * level as f64;
        let lo = self.lo.iter().zip(&self.hi).map(|(l, h)| l + f * (h - l));
        let hi = self.lo.iter().zip(&self.hi).map(|(l, h)| h - f * (h - l));
        Region {
            lo: lo.collect(),
            hi: hi.collect(),
        }
    }

    fn line(&self, kind: Kind) -> String {
        let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{} --k {K} --lo {} --hi {}",
            kind.label(),
            join(&self.lo),
            join(&self.hi)
        )
    }
}

/// How close (L∞, over all d weights) a region on ANTI data may come to
/// the uniform weight vector. There every ANTI record scores about the
/// same and the answer itself explodes: a UTK2 box δ (L∞) from the centre
/// returned 216 partitions in 0.26 s at δ = 0.01, 3 412 in 1.6 s at
/// 0.005 and 27 570 in 25 s at 0.001, and one holding the centre ran past
/// 100 s. The cost follows the output size, and about 1 region in 2 000
/// falls inside the gap; one such query would dominate a timed run.
pub const CENTRE_GAP: f64 = 0.02;

/// The L∞ distance from the uniform weight vector to the box
/// `lo ≤ w ≤ hi`, counting the implied last weight `1 − Σ w`.
pub fn centre_distance(lo: &[f64], hi: &[f64]) -> f64 {
    let centre = 1.0 / (lo.len() + 1) as f64;
    let gap = |l: f64, h: f64| (l - centre).max(centre - h).max(0.0);
    let last = gap(1.0 - hi.iter().sum::<f64>(), 1.0 - lo.iter().sum::<f64>());
    lo.iter()
        .zip(hi)
        .map(|(&l, &h)| gap(l, h))
        .fold(last, f64::max)
}

/// Fresh random regions of side σ, in seeded chunks.
struct Regions {
    seed: u64,
    sigma: f64,
    /// Skip regions within [`CENTRE_GAP`] of the uniform weights.
    avoid_centre: bool,
    chunk: u64,
    pending: std::vec::IntoIter<utk_data::queries::QueryBox>,
}

impl Regions {
    fn new(seed: u64, sigma: f64, avoid_centre: bool) -> Regions {
        Regions {
            seed,
            sigma,
            avoid_centre,
            chunk: 0,
            pending: Vec::new().into_iter(),
        }
    }

    fn next(&mut self) -> Region {
        loop {
            if let Some(b) = self.pending.next() {
                if self.avoid_centre && centre_distance(&b.lo, &b.hi) < CENTRE_GAP {
                    continue;
                }
                return Region { lo: b.lo, hi: b.hi };
            }
            let seed = mix(self.seed, self.chunk);
            self.chunk += 1;
            self.pending = random_regions(D - 1, self.sigma, 256, seed).into_iter();
        }
    }
}

/// Requests per zoom session (`update_mix` adds one edit).
pub const SESSION: usize = 7;
/// Where in an `update_mix` session the edit lands: after the base
/// queries and the first zoom, so later reads meet repaired entries.
const EDIT_AT: usize = 3;

/// The client's request stream.
pub struct Stream {
    workload: Workload,
    regions: Regions,
    /// Requests sent so far.
    sent: usize,
    /// Position in the stream past the [`FILL`] prefix.
    pos: usize,
    /// The current session's base region.
    base: Option<Region>,
    /// The first record of the current session's base answer.
    shown: Option<u32>,
    /// Whether the answer awaited is a session's base answer.
    awaiting_base: bool,
    /// [`FILL`] queries sent so far.
    filled: usize,
    /// The seed of the think times, and how many were drawn.
    think_seed: u64,
    thinks: u64,
    /// The dataset as the server holds it (`update_mix` only): ids are
    /// positions, deletes renumber.
    mirror: Vec<Vec<f64>>,
}

impl Stream {
    /// The stream of `seed`; `mirror` is the dataset's rows for
    /// `update_mix` (ignored elsewhere).
    pub fn new(workload: Workload, seed: u64, mirror: Vec<Vec<f64>>) -> Stream {
        Stream {
            workload,
            regions: Regions::new(
                mix(seed, 0x5E55),
                workload.sigma(),
                workload.dist() == Distribution::Anti,
            ),
            sent: 0,
            pos: 0,
            base: None,
            shown: None,
            awaiting_base: false,
            filled: 0,
            think_seed: mix(seed, 0x7417),
            thinks: 0,
            mirror,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let mut req = self.next_op();
        req.dataset = self.sent % self.workload.datasets();
        self.sent += 1;
        req
    }

    /// The next request, addressed to dataset 0.
    fn next_op(&mut self) -> Request {
        self.awaiting_base = false;
        if self.filled < FILL {
            self.filled += 1;
            return query(Kind::Utk1, &self.regions.next());
        }
        let pos = self.pos;
        self.pos += 1;
        match self.workload {
            Workload::AntiCold => {
                let kind = if pos.is_multiple_of(2) {
                    Kind::Utk1
                } else {
                    Kind::Utk2
                };
                query(kind, &self.regions.next())
            }
            Workload::UpdateMix => {
                let step = pos % (SESSION + 1);
                match step.cmp(&EDIT_AT) {
                    std::cmp::Ordering::Less => self.session_read(step),
                    std::cmp::Ordering::Equal => self.edit(),
                    std::cmp::Ordering::Greater => self.session_read(step - 1),
                }
            }
        }
    }

    /// Step `step` of a zoom session: UTK1 and UTK2 on a fresh base,
    /// three nested UTK1 zooms, then the base twice more.
    fn session_read(&mut self, step: usize) -> Request {
        if step == 0 {
            self.base = Some(self.regions.next());
            self.shown = None;
            self.awaiting_base = true;
        }
        let base = self.base.clone().expect("a session starts at step 0");
        match step {
            0 => query(Kind::Utk1, &base),
            1 => query(Kind::Utk2, &base),
            2..=4 => query(Kind::Utk1, &base.zoom(step - 1)),
            _ => query(Kind::Utk1, &base),
        }
    }

    /// An edit of a record the session was shown: delete it and append
    /// a slightly worse copy, which lands near the cached r-skybands
    /// and so exercises splice repair.
    fn edit(&mut self) -> Request {
        let delete = match self.shown {
            Some(id) if (id as usize) < self.mirror.len() => id,
            _ => (self.pos % self.mirror.len().max(1)) as u32,
        };
        let row = self.mirror.remove(delete as usize);
        let insert: Vec<f64> = row.iter().map(|v| v * 0.999).collect();
        self.mirror.push(insert.clone());
        Request {
            kind: Kind::Update,
            op: Op::Update { delete, insert },
            dataset: 0,
        }
    }

    /// How long to wait before the next request.
    pub fn think(&mut self) -> std::time::Duration {
        self.thinks += 1;
        let draw = mix(self.think_seed, self.thinks) % (THINK_MAX_US + 1);
        std::time::Duration::from_micros(draw)
    }

    /// Feeds back the answer to the request just sent.
    pub fn observe(&mut self, answer: &str) {
        if self.awaiting_base {
            self.shown = first_record(answer);
        }
    }
}

fn query(kind: Kind, region: &Region) -> Request {
    Request {
        kind,
        op: Op::Query(region.line(kind)),
        dataset: 0,
    }
}

/// The id of the first record of a wire answer.
fn first_record(answer: &str) -> Option<u32> {
    let at = answer.find("\"records\":[{\"id\":")? + "\"records\":[{\"id\":".len();
    let digits: String = answer[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed() {
        for w in Workload::ALL {
            let mirror = vec![vec![0.5; D]; 64];
            let mut a = Stream::new(w, 7, mirror.clone());
            let mut b = Stream::new(w, 7, mirror.clone());
            let mut c = Stream::new(w, 8, mirror);
            let mut differs = false;
            for i in 0..FILL + 40 {
                let (x, y, z) = (a.next_request(), b.next_request(), c.next_request());
                assert_eq!(x.to_json(), y.to_json());
                assert_eq!(x.dataset, i % w.datasets());
                differs |= x.to_json() != z.to_json();
            }
            assert!(differs, "{}: another seed gives another stream", w.name());
        }
    }

    /// A stream past its cache-filling prefix.
    fn past_fill(w: Workload, seed: u64, mirror: Vec<Vec<f64>>) -> Stream {
        let mut s = Stream::new(w, seed, mirror);
        for _ in 0..FILL {
            let r = s.next_request();
            assert_eq!(r.kind, Kind::Utk1);
        }
        s
    }

    #[test]
    fn think_times_repeat_and_stay_in_range() {
        let mut a = Stream::new(Workload::AntiCold, 4, Vec::new());
        let mut b = Stream::new(Workload::AntiCold, 4, Vec::new());
        let draws: Vec<_> = (0..1000).map(|_| a.think()).collect();
        assert!(draws.iter().all(|d| d.as_micros() <= THINK_MAX_US as u128));
        assert!(draws.iter().any(|d| d.as_micros() < 200));
        assert!(draws.iter().any(|d| d.as_micros() > 1_800));
        assert_eq!(draws, (0..1000).map(|_| b.think()).collect::<Vec<_>>());
    }

    #[test]
    fn zoom_session_shape() {
        let mut s = past_fill(Workload::UpdateMix, 1, vec![vec![0.5; D]; 64]);
        let reqs: Vec<Request> = (0..SESSION + 1).map(|_| s.next_request()).collect();
        let kinds: Vec<&str> = reqs.iter().map(|r| r.kind.label()).collect();
        assert_eq!(
            kinds,
            ["utk1", "utk2", "utk1", "update", "utk1", "utk1", "utk1", "utk1"]
        );
        // The session ends by asking its base region twice more.
        assert_eq!(reqs[0].line(), reqs[6].line());
        assert_eq!(reqs[0].line(), reqs[7].line());
        let side = |r: &Request| {
            let l = r.line().expect("a query");
            let num = |flag: &str| -> f64 {
                let at = l.find(flag).expect("a corner") + flag.len();
                l[at..].split([',', ' ']).next().unwrap().parse().unwrap()
            };
            num("--hi ") - num("--lo ")
        };
        // Each zoom is nested inside, and smaller than, the one before.
        assert!(side(&reqs[2]) < side(&reqs[0]));
        assert!(side(&reqs[4]) < side(&reqs[2]));
        assert!(side(&reqs[5]) < side(&reqs[4]));
    }

    #[test]
    fn edits_replace_the_shown_record() {
        let mirror: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64; D]).collect();
        let mut s = past_fill(Workload::UpdateMix, 3, mirror);
        s.next_request();
        s.observe(r##"{"query":"utk1","records":[{"id":4,"name":"#4"}],"stats":{}}"##);
        s.next_request();
        s.next_request();
        let edit = s.next_request();
        assert_eq!(edit.kind, Kind::Update);
        let Op::Update { delete, insert } = edit.op else {
            panic!("an edit")
        };
        assert_eq!(delete, 4);
        assert_eq!(insert, vec![4.0 * 0.999; D]);
        assert_eq!(s.mirror.len(), 10);
    }

    #[test]
    fn centre_distance_counts_the_implied_weight() {
        // The box around (¼, ¼, ¼) holds the uniform vector.
        assert_eq!(centre_distance(&[0.24; 3], &[0.26; 3]), 0.0);
        // 0.05 off in w1 only.
        let d = centre_distance(&[0.3, 0.24, 0.24], &[0.31, 0.26, 0.26]);
        assert!((d - 0.05).abs() < 1e-12, "{d}");
        // w1..w3 sit 0.05 off; the implied w4 = 0.1 sits 0.15 off.
        let d = centre_distance(&[0.3, 0.3, 0.3], &[0.3, 0.3, 0.3]);
        assert!((d - 0.15).abs() < 1e-12, "{d}");
    }

    #[test]
    fn anti_regions_keep_clear_of_the_centre() {
        let mut r = Regions::new(9, 0.005, true);
        for _ in 0..5000 {
            let b = r.next();
            assert!(centre_distance(&b.lo, &b.hi) >= CENTRE_GAP);
        }
    }
}
