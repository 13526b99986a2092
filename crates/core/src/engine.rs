//! The unified query engine: build the expensive per-dataset state
//! once, answer many queries against it.
//!
//! The paper's framework shares one substrate across all its
//! algorithms — the R-tree over the dataset, and per `(k, R)` the
//! r-skyband candidate set with its r-dominance graph (§4.1). The
//! legacy free functions (`rsa`, `jaa`, `baseline_utk1`, …) rebuild
//! all of it on every call; [`UtkEngine`] owns it instead:
//!
//! * the dataset and its R-tree are built **once**, at engine
//!   construction;
//! * the r-skyband + graph of each `(k, R)` pair is **memoized** in a
//!   byte-budgeted LRU cache ([`crate::cache::ByteLru`]), so repeating
//!   a region with a different algorithm, or re-running a query, skips
//!   the filtering phase entirely; on an exact miss, a cached
//!   *containing* region's candidate set is re-screened into the exact
//!   answer (superset reuse) instead of re-running BBS over the tree;
//! * generalized-scoring transforms (§6) of the dataset, and their
//!   R-trees, are memoized the same way;
//! * a persistent work-stealing [`ThreadPool`] is built lazily for
//!   parallel queries ([`UtkQuery::parallel`]) and batches
//!   ([`UtkEngine::run_many`]) — never one per query.
//!
//! Queries are described by the [`UtkQuery`] builder and return a
//! typed [`QueryResult`] carrying [`Stats`]; every entry point returns
//! `Result<_, UtkError>` — malformed input (wrong dimensionality, NaN,
//! `k = 0`, empty region) is reported, never panicked on.
//!
//! ```
//! use utk_core::engine::{Algo, QueryResult, UtkEngine, UtkQuery};
//! use utk_geom::Region;
//!
//! // Figure 1 of the paper: 7 hotels, k = 2.
//! let hotels = vec![
//!     vec![8.3, 9.1, 7.2], vec![2.4, 9.6, 8.6], vec![5.4, 1.6, 4.1],
//!     vec![2.6, 6.9, 9.4], vec![7.3, 3.1, 2.4], vec![7.9, 6.4, 6.6],
//!     vec![8.6, 7.1, 4.3],
//! ];
//! let engine = UtkEngine::new(hotels)?;
//! let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
//!
//! // UTK1: which hotels can make the top-2 at all?
//! let utk1 = engine.run(&UtkQuery::utk1(2).region(region.clone()))?;
//! assert_eq!(utk1.records(), &[0, 1, 3, 5]);
//!
//! // UTK2 over the same region reuses the memoized r-skyband.
//! let utk2 = engine.run(&UtkQuery::utk2(2).region(region))?;
//! assert_eq!(utk2.records(), &[0, 1, 3, 5]);
//! assert_eq!(utk2.stats().filter_cache_hits, 1);
//! # Ok::<(), utk_core::UtkError>(())
//! ```

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

use crate::baseline::{baseline_utk1, FilterKind};
use crate::cache::ByteLru;
use crate::error::UtkError;
use crate::jaa::{jaa_parallel_refine, jaa_refine, records_of, JaaOptions, Utk2Cell, Utk2Result};
use crate::obs::{self, Clock, MonotonicClock, Phase};
use crate::parallel::ThreadPool;
use crate::rdominance::ScreenKernel;
use crate::rsa::{rsa_refine, RsaOptions, Utk1Result};
use crate::scoring::GeneralScoring;
use crate::skyband::{
    r_skyband_from_superset_with_kernel, r_skyband_repair_inserts_with_kernel,
    r_skyband_repair_with_kernel, r_skyband_view_with_kernel, rejected_by_members, CandidateSet,
    TreeView, TOMBSTONE,
};
use crate::stats::Stats;
use utk_geom::tol::INTERIOR_EPS;
use utk_geom::{PointStore, Region};
use utk_rtree::RTree;

/// Default byte budget of the r-skyband filter cache (payload bytes
/// of the cached [`CandidateSet`]s plus their region keys).
pub const DEFAULT_FILTER_CACHE_BUDGET: usize = 64 << 20;
/// Default byte budget of the transformed-dataset (generalized
/// scoring) cache — entries are full dataset copies plus an R-tree,
/// so the budget is wider.
pub const DEFAULT_SCORING_CACHE_BUDGET: usize = 256 << 20;

/// When the R-tree overlay's corrections (tombstoned base records
/// plus appended records) exceed this fraction of the live dataset, a
/// mutation rebuilds the tree instead of growing the overlay. Results
/// are exact either way (see [`TreeView`]); the threshold only bounds
/// the traversal overhead of reading through stale geometry.
const OVERLAY_REBUILD_NUM: usize = 1;
const OVERLAY_REBUILD_DEN: usize = 2;

/// Which processing algorithm answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Pick per query kind: RSA for UTK1, JAA for UTK2.
    Auto,
    /// The r-skyband algorithm (§4). UTK1 only.
    Rsa,
    /// The joint-arrangement algorithm (§5). Answers UTK2, and UTK1
    /// via the partition union.
    Jaa,
    /// The SK baseline (§3.3): k-skyband filter + kSPR. UTK1 only.
    Sk,
    /// The ON baseline (§3.3): onion-layers filter + kSPR. UTK1 only.
    On,
}

impl Algo {
    /// The concrete algorithm [`Algo::Auto`] resolves to for `kind`
    /// (RSA for UTK1, JAA for UTK2); non-`Auto` values pass through.
    pub fn resolved_for(self, kind: QueryKind) -> Algo {
        match (self, kind) {
            (Algo::Auto, QueryKind::Utk1) => Algo::Rsa,
            (Algo::Auto, QueryKind::Utk2) => Algo::Jaa,
            (a, _) => a,
        }
    }

    /// Display label (`auto`, `rsa`, `jaa`, `sk`, `on`).
    pub fn label(self) -> &'static str {
        match self {
            Algo::Auto => "auto",
            Algo::Rsa => "rsa",
            Algo::Jaa => "jaa",
            Algo::Sk => "sk",
            Algo::On => "on",
        }
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Algo::Auto),
            "rsa" => Ok(Algo::Rsa),
            "jaa" => Ok(Algo::Jaa),
            "sk" => Ok(Algo::Sk),
            "on" => Ok(Algo::On),
            other => Err(format!(
                "unknown algorithm {other:?} (expected auto, rsa, jaa, sk or on)"
            )),
        }
    }
}

/// The three query kinds the engine answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// UTK1: the minimal set of possible top-k records over `R`.
    Utk1,
    /// UTK2: the partitioning of `R` by exact top-k set.
    Utk2,
    /// Plain top-k at one weight vector (for comparison workloads).
    TopK,
}

impl QueryKind {
    /// Display label (`utk1`, `utk2`, `topk`).
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Utk1 => "utk1",
            QueryKind::Utk2 => "utk2",
            QueryKind::TopK => "topk",
        }
    }
}

/// A query description, built fluently and handed to
/// [`UtkEngine::run`].
///
/// ```
/// use utk_core::engine::{Algo, UtkQuery};
/// use utk_geom::Region;
///
/// let query = UtkQuery::utk1(10)
///     .region(Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.3]))
///     .algorithm(Algo::Auto)
///     .parallel(true);
/// ```
#[derive(Debug, Clone)]
pub struct UtkQuery {
    kind: QueryKind,
    k: usize,
    region: Option<Region>,
    weights: Option<Vec<f64>>,
    algo: Algo,
    parallel: bool,
    threads: usize,
    scoring: Option<GeneralScoring>,
    rsa_options: RsaOptions,
    jaa_options: JaaOptions,
}

impl UtkQuery {
    fn new(kind: QueryKind, k: usize) -> Self {
        Self {
            kind,
            k,
            region: None,
            weights: None,
            algo: Algo::Auto,
            parallel: false,
            threads: 0,
            scoring: None,
            rsa_options: RsaOptions::default(),
            jaa_options: JaaOptions::default(),
        }
    }

    /// A UTK1 query: the minimal set of records appearing in some
    /// top-`k` over the region (set with [`UtkQuery::region`]).
    pub fn utk1(k: usize) -> Self {
        Self::new(QueryKind::Utk1, k)
    }

    /// A UTK2 query: the partitioning of the region (set with
    /// [`UtkQuery::region`]) into cells labelled with exact top-`k`
    /// sets.
    pub fn utk2(k: usize) -> Self {
        Self::new(QueryKind::Utk2, k)
    }

    /// A plain top-`k` query at one weight vector (set with
    /// [`UtkQuery::weights`]).
    pub fn topk(k: usize) -> Self {
        Self::new(QueryKind::TopK, k)
    }

    /// The uncertainty region `R` of the preference domain (required
    /// for UTK1/UTK2).
    pub fn region(mut self, region: Region) -> Self {
        self.region = Some(region);
        self
    }

    /// The weight vector for top-k queries: either the reduced `d − 1`
    /// preference-domain form, or all `d` weights (the implied last
    /// weight is dropped, §3.1).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Selects the processing algorithm (default [`Algo::Auto`]).
    pub fn algorithm(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Fans refinement out over the engine's worker pool: RSA verifies
    /// candidates concurrently (UTK1) and JAA work-steals partition
    /// tasks (UTK2), with output identical to the sequential runs.
    /// The baselines stay sequential. Defaults to off.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Worker thread count. Engine queries run on the engine's
    /// persistent pool, sized once via
    /// [`UtkEngine::with_pool_threads`] — a per-query count has no
    /// effect there, which is why this builder is deprecated rather
    /// than silently honored sometimes.
    #[deprecated(
        since = "0.1.0",
        note = "engine queries run on the engine's persistent pool; \
                size it with UtkEngine::with_pool_threads instead"
    )]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Generalized scoring (§6): the dataset is transformed through
    /// the monotone per-attribute functions and the query runs on the
    /// transformed data. The engine memoizes the transform.
    pub fn scoring(mut self, scoring: GeneralScoring) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// Tuning/ablation switches for RSA.
    pub fn rsa_options(mut self, opts: RsaOptions) -> Self {
        self.rsa_options = opts;
        self
    }

    /// Tuning/ablation switches for JAA.
    pub fn jaa_options(mut self, opts: JaaOptions) -> Self {
        self.jaa_options = opts;
        self
    }

    /// The query kind.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The rank bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    fn pivot_order(&self) -> bool {
        match self.kind {
            QueryKind::Utk2 => self.jaa_options.pivot_order,
            _ => self.rsa_options.pivot_order,
        }
    }
}

/// Output of a plain top-k query.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The top-k record ids, in descending score order (ties toward
    /// the smaller id).
    pub records: Vec<u32>,
    /// Work counters.
    pub stats: Stats,
}

/// The typed result of [`UtkEngine::run`], one variant per
/// [`QueryKind`].
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// A UTK1 answer.
    Utk1(Utk1Result),
    /// A UTK2 answer.
    Utk2(Utk2Result),
    /// A plain top-k answer.
    TopK(TopKResult),
}

impl QueryResult {
    /// The answer's record ids: the UTK1 set, the union over UTK2
    /// cells, or the ranked top-k.
    pub fn records(&self) -> &[u32] {
        match self {
            QueryResult::Utk1(r) => &r.records,
            QueryResult::Utk2(r) => &r.records,
            QueryResult::TopK(r) => &r.records,
        }
    }

    /// Work counters of this query.
    pub fn stats(&self) -> &Stats {
        match self {
            QueryResult::Utk1(r) => &r.stats,
            QueryResult::Utk2(r) => &r.stats,
            QueryResult::TopK(r) => &r.stats,
        }
    }

    fn stats_mut(&mut self) -> &mut Stats {
        match self {
            QueryResult::Utk1(r) => &mut r.stats,
            QueryResult::Utk2(r) => &mut r.stats,
            QueryResult::TopK(r) => &mut r.stats,
        }
    }

    /// The UTK2 partitioning, when this is a UTK2 result.
    pub fn cells(&self) -> Option<&[Utk2Cell]> {
        match self {
            QueryResult::Utk2(r) => Some(&r.cells),
            _ => None,
        }
    }

    /// This result as UTK1 output, if it is one.
    pub fn as_utk1(&self) -> Option<&Utk1Result> {
        match self {
            QueryResult::Utk1(r) => Some(r),
            _ => None,
        }
    }

    /// This result as UTK2 output, if it is one.
    pub fn as_utk2(&self) -> Option<&Utk2Result> {
        match self {
            QueryResult::Utk2(r) => Some(r),
            _ => None,
        }
    }
}

/// One scoring's view of the dataset: the (possibly transformed)
/// points — row layout for the baselines and transforms, flat layout
/// for the filtering hot path — and their R-tree. Tagged with the
/// epoch of the dataset snapshot it was derived from.
#[derive(Debug)]
struct Scored {
    epoch: u64,
    points: Vec<Vec<f64>>,
    store: PointStore,
    tree: RTree,
}

impl Scored {
    /// Payload bytes for the scoring cache's budget accounting.
    fn approx_bytes(&self) -> usize {
        let rows: usize = self
            .points
            .iter()
            .map(|p| std::mem::size_of::<Vec<f64>>() + p.len() * 8)
            .sum();
        rows + self.store.approx_bytes() + self.tree.approx_bytes()
    }
}

/// The spatial index of one dataset version: a tree packed over
/// exactly the live records, or the last-packed tree read through a
/// tombstone/append overlay (see [`TreeView`]).
#[derive(Debug)]
enum TreeIndex {
    /// Record ids in the tree *are* current dataset ids.
    Packed(Arc<RTree>),
    /// A stale base tree plus corrections accumulated by mutations.
    Overlay {
        /// The tree as last built.
        base: Arc<RTree>,
        /// Base record id → current dataset id ([`TOMBSTONE`] =
        /// deleted); `None` while no delete has happened since the
        /// last rebuild.
        remap: Option<Vec<u32>>,
        /// Current dataset ids appended since the last rebuild.
        extra: Vec<u32>,
        /// A tree packed over the live records, built on demand for
        /// consumers that need plain tree geometry (the SK/ON
        /// baselines, [`DatasetSnapshot::tree`]). Built at most once
        /// per version.
        packed: OnceLock<Arc<RTree>>,
    },
}

/// One immutable version of the engine's dataset. Queries snapshot
/// the current version (an `Arc` clone) and run entirely against it,
/// so a concurrent [`UtkEngine::apply_update`] never tears a query:
/// it swaps in a *new* version while in-flight queries finish on the
/// old one.
#[derive(Debug)]
struct DatasetVersion {
    /// Content version: 0 at construction, +1 per mutation. Keys the
    /// engine caches — an entry is only ever served to queries whose
    /// snapshot has the same epoch.
    epoch: u64,
    /// Live records in id order (row layout: baselines, transforms).
    points: Vec<Vec<f64>>,
    /// The same records, flat (the filtering hot path).
    store: PointStore,
    /// The spatial index.
    index: TreeIndex,
}

impl DatasetVersion {
    fn packed(epoch: u64, points: Vec<Vec<f64>>, tree: Arc<RTree>) -> Self {
        let store = PointStore::from_rows(&points);
        Self {
            epoch,
            points,
            store,
            index: TreeIndex::Packed(tree),
        }
    }

    /// The BBS view of this version's index.
    fn tree_view(&self) -> TreeView<'_> {
        match &self.index {
            TreeIndex::Packed(tree) => TreeView::packed(tree),
            TreeIndex::Overlay {
                base, remap, extra, ..
            } => TreeView::overlay(base, remap.as_deref(), extra),
        }
    }

    /// A tree packed over exactly the live records, building (and
    /// memoizing) one if the index is an overlay.
    fn packed_tree(&self) -> &RTree {
        match &self.index {
            TreeIndex::Packed(tree) => tree,
            TreeIndex::Overlay { packed, .. } => {
                packed.get_or_init(|| Arc::new(RTree::bulk_load(&self.points)))
            }
        }
    }
}

/// A read-only view of one dataset version, handed out by
/// [`UtkEngine::snapshot`]. Cheap to clone; keeps its version alive
/// (and its answers coherent) however many mutations happen after it
/// was taken.
#[derive(Debug, Clone)]
pub struct DatasetSnapshot {
    version: Arc<DatasetVersion>,
}

impl DatasetSnapshot {
    /// The records of this version, in id order.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.version.points
    }

    /// The flat layout of the same records.
    pub fn store(&self) -> &PointStore {
        &self.version.store
    }

    /// An R-tree packed over exactly these records (built on demand
    /// if the live index is an overlay).
    pub fn tree(&self) -> &RTree {
        self.version.packed_tree()
    }

    /// This version's epoch.
    pub fn epoch(&self) -> u64 {
        self.version.epoch
    }

    /// Number of records in this version.
    pub fn len(&self) -> usize {
        self.version.points.len()
    }

    /// Never true: engines never hold an empty dataset.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// What one [`UtkEngine::apply_update`] did — the mutation seam's
/// receipt, surfaced through `utk update`, the serving protocol's
/// `update` op, and the dynamic test oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// The dataset epoch after the mutation (unchanged for a no-op).
    pub epoch: u64,
    /// Live records after the mutation.
    pub n: usize,
    /// Records appended.
    pub inserted: usize,
    /// Records removed.
    pub deleted: usize,
    /// Filter-cache entries whose r-skyband could have changed and
    /// were dropped outright (no splice repair applied).
    pub filter_invalidated: usize,
    /// Filter-cache entries carried into the new epoch — proven
    /// unaffected and re-keyed, or splice-repaired in place. (Repaired
    /// entries count here *and* in [`UpdateReport::filter_repaired`];
    /// only this field is on the wire.)
    pub filter_retained: usize,
    /// Of the retained entries, how many were splice-repaired
    /// (re-screened incrementally) rather than merely re-keyed. Not
    /// part of the wire format.
    pub filter_repaired: usize,
    /// Whether the mutation rebuilt the R-tree (overlay overhead past
    /// the threshold) instead of extending the overlay.
    pub index_rebuilt: bool,
}

/// A validated region's interior, or the shortcut answer when it has
/// none (see [`UtkEngine::interior_or_degenerate`]).
enum RegionInterior {
    /// Full-dimensional region: max-slack interior point.
    Full { interior: Vec<f64>, slack: f64 },
    /// Degenerate region: the pivot `w` and the sorted top-k there.
    Degenerate { w: Vec<f64>, top_k: Vec<u32> },
}

/// Snapshot-or-transformed access to a query's dataset view. Either
/// way the view is immutable and epoch-tagged: a query runs start to
/// finish against one dataset version.
enum DataRef {
    Snapshot(Arc<DatasetVersion>),
    Transformed(Arc<Scored>),
}

impl DataRef {
    fn points(&self) -> &[Vec<f64>] {
        match self {
            DataRef::Snapshot(v) => &v.points,
            DataRef::Transformed(s) => &s.points,
        }
    }

    /// The flat layout of the same dataset (the filtering hot path).
    fn store(&self) -> &PointStore {
        match self {
            DataRef::Snapshot(v) => &v.store,
            DataRef::Transformed(s) => &s.store,
        }
    }

    /// The BBS view of the index (overlay-aware for the base data;
    /// transformed datasets always carry a freshly packed tree).
    fn tree_view(&self) -> TreeView<'_> {
        match self {
            DataRef::Snapshot(v) => v.tree_view(),
            DataRef::Transformed(s) => TreeView::packed(&s.tree),
        }
    }

    /// A plain packed tree (the SK/ON baselines' input).
    fn packed_tree(&self) -> &RTree {
        match self {
            DataRef::Snapshot(v) => v.packed_tree(),
            DataRef::Transformed(s) => &s.tree,
        }
    }

    /// The epoch of the underlying dataset version.
    fn epoch(&self) -> u64 {
        match self {
            DataRef::Snapshot(v) => v.epoch,
            DataRef::Transformed(s) => s.epoch,
        }
    }
}

/// The filter-cache turn of a [`UtkEngine::run_many`] batch: the index
/// of the next query allowed to touch the cache.
#[derive(Default)]
struct BatchOrder {
    turn: Mutex<usize>,
    cv: Condvar,
}

impl BatchOrder {
    /// Blocks until the turn reaches `index`. The counter is valid
    /// after any panic, so a poisoned lock is safe to keep using (and
    /// [`Turn::pass`] runs in `drop`, where a panic would abort).
    fn reach(&self, index: usize) -> MutexGuard<'_, usize> {
        let mut turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        while *turn < index {
            turn = self.cv.wait(turn).unwrap_or_else(PoisonError::into_inner);
        }
        turn
    }
}

/// One query's place in its batch's [`BatchOrder`]. Queries touch the
/// filter cache strictly in input order, so a batch answers exactly
/// like the sequential loop of `run` calls. A lone `run` has no batch
/// and never waits. The turn passes on drop at the latest, so a query
/// that errors, panics or never reaches the filter still lets later
/// queries through.
struct Turn<'a> {
    batch: Option<(&'a BatchOrder, usize)>,
    passed: Cell<bool>,
}

impl<'a> Turn<'a> {
    fn solo() -> Turn<'static> {
        Turn {
            batch: None,
            passed: Cell::new(false),
        }
    }

    fn in_batch(order: &'a BatchOrder, index: usize) -> Turn<'a> {
        Turn {
            batch: Some((order, index)),
            passed: Cell::new(false),
        }
    }

    /// Blocks until every earlier query of the batch has passed its
    /// turn. A query must pass its turn before it touches the pool:
    /// run_many's deadlock freedom rests on that.
    fn wait(&self) {
        if let Some((order, index)) = self.batch {
            drop(order.reach(index));
        }
    }

    /// Hands the turn to the next query, first waiting for this one's.
    /// Idempotent.
    fn pass(&self) {
        if self.passed.replace(true) {
            return;
        }
        if let Some((order, index)) = self.batch {
            *order.reach(index) = index + 1;
            order.cv.notify_all();
        }
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.pass();
    }
}

/// Identity of a memoized r-skyband: everything the filter output
/// depends on — including the dataset epoch, so an entry computed
/// before a mutation can never answer a query running after it (and
/// vice versa: an in-flight query on an old snapshot that completes
/// a miss after the swap inserts under its *own* epoch, where current
/// queries never look). Region geometry is keyed on the exact bit
/// patterns of its constraints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FilterKey {
    epoch: u64,
    k: usize,
    pivot_order: bool,
    scoring: ScoringKey,
    region: Vec<u64>,
}

impl FilterKey {
    /// The filter identity of a query at dataset `epoch`: everything
    /// its r-skyband output depends on. Shared by the cache lookup
    /// and `run_many`'s grouping so "same group" always means "same
    /// cache entry".
    fn of(query: &UtkQuery, epoch: u64) -> Self {
        FilterKey {
            epoch,
            k: query.k,
            pivot_order: query.pivot_order(),
            // An all-identity scoring computes exactly what no scoring
            // does: normalize both to the empty key so they share
            // entries.
            scoring: query
                .scoring
                .as_ref()
                .filter(|s| !s.is_identity())
                .map(|s| s.fingerprint())
                .unwrap_or_default(),
            region: query
                .region
                .as_ref()
                .map(region_fingerprint)
                .unwrap_or_default(),
        }
    }
}

/// Identity of a memoized scoring transform (empty = plain linear).
type ScoringKey = Vec<(u8, u64)>;

fn region_fingerprint(region: &Region) -> Vec<u64> {
    let mut bits = Vec::with_capacity(1 + region.constraints().len() * (region.dim() + 1));
    bits.push(region.dim() as u64);
    for c in region.constraints() {
        for &a in &c.a {
            bits.push(a.to_bits());
        }
        bits.push(c.b.to_bits());
    }
    bits
}

/// Validates a query region against the preference domain: correct
/// dimensionality, finite, feasible, and inside `{w ≥ 0, Σ w ≤ 1}`
/// (§3.1). Shared with the legacy entry points, which panic on the
/// error it returns.
pub(crate) fn check_region(region: &Region, dp: usize) -> Result<(), UtkError> {
    if region.dim() != dp {
        return Err(UtkError::DimensionMismatch {
            what: "query region (d − 1 preference-domain coordinates)",
            expected: dp,
            got: region.dim(),
        });
    }
    for c in region.constraints() {
        if !c.b.is_finite() || c.a.iter().any(|a| !a.is_finite()) {
            return Err(UtkError::NonFiniteInput {
                what: "query region",
            });
        }
    }
    let ones = vec![1.0; dp];
    let Some((_, max)) = region.linear_range(&ones, 0.0) else {
        return Err(UtkError::EmptyRegion);
    };
    if max > 1.0 + 1e-9 {
        return Err(UtkError::RegionOutsideDomain {
            detail: format!("weights sum up to {max:.6} > 1 inside the region"),
        });
    }
    for i in 0..dp {
        let mut e = vec![0.0; dp];
        e[i] = 1.0;
        let Some((min, _)) = region.linear_range(&e, 0.0) else {
            return Err(UtkError::EmptyRegion);
        };
        if min < -1e-9 {
            return Err(UtkError::RegionOutsideDomain {
                detail: format!("weight {i} reaches {min:.6} < 0 inside the region"),
            });
        }
    }
    Ok(())
}

/// One filter-cache payload: the candidate set plus the region it was
/// filtered for (the geometry the superset-containment probe tests).
#[derive(Debug, Clone)]
struct FilterEntry {
    region: Region,
    cands: Arc<CandidateSet>,
}

impl FilterEntry {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.region.approx_bytes() + self.cands.approx_bytes()
    }
}

/// The engine's shared state: one allocation behind the [`UtkEngine`]
/// handle, so clones of the handle (and [`UtkEngine::run_many`] batch
/// jobs on the worker pool) all serve the same dataset, caches and
/// pool.
#[derive(Debug)]
struct EngineInner {
    /// The current dataset version. Queries take a read lock just
    /// long enough to clone the `Arc`; mutations take the write lock
    /// only to swap in the next version atomically with the cache
    /// re-key — the expensive version *construction* happens outside
    /// it, under [`EngineInner::mutation`].
    data: RwLock<Arc<DatasetVersion>>,
    /// Serializes mutators ([`UtkEngine::apply_update`],
    /// [`UtkEngine::compact`]) so they can build the next version
    /// (point copies, store, possibly an R-tree bulk load) without
    /// holding the `data` write lock — queries keep snapshotting
    /// freely while a mutation prepares.
    mutation: Mutex<()>,
    /// Dataset dimensionality — invariant across mutations (every
    /// insert is validated against it).
    dim: usize,
    cache_enabled: bool,
    /// Whether a mutation that invalidates a filter-cache entry may
    /// splice-repair it (incremental re-screen) instead of dropping
    /// it. On by default; benchmarks disable it to measure the
    /// drop-and-recompute baseline.
    repair_enabled: bool,
    /// Which dominance kernel the r-skyband screen runs
    /// ([`ScreenKernel::BlockedPrefilter`] by default). Candidate sets
    /// are byte-identical across kernels; the scalar oracle stays
    /// reachable through [`UtkEngine::without_blocked_kernel`] for the
    /// identity property suite and ablation benches.
    kernel: ScreenKernel,
    filter_cache: Mutex<ByteLru<FilterKey, FilterEntry>>,
    scoring_cache: Mutex<ByteLru<(u64, ScoringKey), Arc<Scored>>>,
    filter_hits: AtomicUsize,
    filter_misses: AtomicUsize,
    /// Filter-cache entries splice-repaired across all mutations.
    filter_repairs: AtomicUsize,
    /// r-dominance tests spent inside splice repairs (the incremental
    /// maintenance cost a drop-and-recompute baseline pays many times
    /// over on the next query).
    repair_screens: AtomicUsize,
    /// Mutations that rebuilt the R-tree (vs extending the overlay).
    index_rebuilds: AtomicUsize,
    /// Cache misses answered by re-screening a containing region's
    /// cached candidate set instead of a full BBS run.
    superset_hits: AtomicUsize,
    /// Requested pool size (0 = one worker per available core);
    /// applied when the pool is first needed.
    pool_threads_cfg: usize,
    /// The persistent worker pool, built lazily on the first parallel
    /// query or batch — sequential engines never spawn threads.
    pool: OnceLock<Arc<ThreadPool>>,
    /// How many pools this engine ever built (regression guard: must
    /// never exceed 1).
    pool_builds: AtomicUsize,
    /// Nanosecond source for the per-query phase tracer
    /// ([`crate::obs`]). [`MonotonicClock`] in production; tests
    /// inject a [`crate::obs::TestClock`] via [`UtkEngine::with_clock`]
    /// for deterministic timing breakdowns. Timings never enter the
    /// wire format, so the clock cannot affect query results.
    clock: Arc<dyn Clock>,
}

/// The build-once / query-many UTK engine. See the [module
/// docs](crate::engine) for the overall picture and an example.
///
/// The engine is `Sync`: one instance can serve queries from many
/// threads, sharing its caches. It is also cheap to `Clone` — clones
/// are handles onto the same dataset, caches and worker pool.
///
/// Parallel queries ([`UtkQuery::parallel`]) and batches
/// ([`UtkEngine::run_many`]) run on a persistent work-stealing
/// [`ThreadPool`] owned by the engine, built lazily on first use and
/// sized by [`UtkEngine::with_pool_threads`] (default: one worker per
/// available core). No engine query ever constructs a pool per query.
#[derive(Debug, Clone)]
pub struct UtkEngine {
    inner: Arc<EngineInner>,
}

impl UtkEngine {
    /// Builds an engine owning `points`: validates the dataset and
    /// bulk-loads the R-tree.
    pub fn new(points: Vec<Vec<f64>>) -> Result<Self, UtkError> {
        if points.is_empty() {
            return Err(UtkError::EmptyDataset);
        }
        let dim = points[0].len();
        if dim < 2 {
            return Err(UtkError::DatasetTooFlat { got: dim });
        }
        for p in &points {
            if p.len() != dim {
                return Err(UtkError::DimensionMismatch {
                    what: "record",
                    expected: dim,
                    got: p.len(),
                });
            }
            if p.iter().any(|x| !x.is_finite()) {
                return Err(UtkError::NonFiniteInput { what: "dataset" });
            }
        }
        let tree = Arc::new(RTree::bulk_load(&points));
        let version = DatasetVersion::packed(0, points, tree);
        Ok(Self {
            inner: Arc::new(EngineInner {
                data: RwLock::new(Arc::new(version)),
                mutation: Mutex::new(()),
                dim,
                cache_enabled: true,
                repair_enabled: true,
                kernel: ScreenKernel::default(),
                filter_cache: Mutex::new(ByteLru::new(DEFAULT_FILTER_CACHE_BUDGET)),
                scoring_cache: Mutex::new(ByteLru::new(DEFAULT_SCORING_CACHE_BUDGET)),
                filter_hits: AtomicUsize::new(0),
                filter_misses: AtomicUsize::new(0),
                filter_repairs: AtomicUsize::new(0),
                repair_screens: AtomicUsize::new(0),
                index_rebuilds: AtomicUsize::new(0),
                superset_hits: AtomicUsize::new(0),
                pool_threads_cfg: 0,
                pool: OnceLock::new(),
                pool_builds: AtomicUsize::new(0),
                clock: Arc::new(MonotonicClock::new()),
            }),
        })
    }

    /// Builds an engine from borrowed points (cloned in).
    pub fn from_slice(points: &[Vec<f64>]) -> Result<Self, UtkError> {
        Self::new(points.to_vec())
    }

    /// Disables the r-skyband/scoring memoization: every query
    /// recomputes its filtering from scratch. Useful for benchmarks
    /// that measure per-query cost. Builder-style: call right after
    /// construction, before the engine is cloned or queried.
    pub fn without_filter_cache(mut self) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("without_filter_cache must be called before the engine is cloned")
            .cache_enabled = false;
        self
    }

    /// Disables splice repair of invalidated filter-cache entries:
    /// mutations fall back to drop-and-recompute (the pre-repair
    /// behavior). Used by benchmarks to measure what repair saves.
    /// Builder-style: call right after construction, before the
    /// engine is cloned or queried.
    pub fn without_cache_repair(mut self) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("without_cache_repair must be called before the engine is cloned")
            .repair_enabled = false;
        self
    }

    /// Runs every r-skyband screen on the scalar oracle kernel
    /// instead of the default blocked sweep + `f32` prefilter. The
    /// candidate sets (and hence all query results) are byte-identical
    /// either way — this twin exists so the property suite can assert
    /// exactly that, and so benches can measure what blocking buys.
    /// Builder-style: call right after construction, before the
    /// engine is cloned or queried.
    pub fn without_blocked_kernel(mut self) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("without_blocked_kernel must be called before the engine is cloned")
            .kernel = ScreenKernel::Scalar;
        self
    }

    /// Seeds the initial dataset epoch (default 0). The serving
    /// registry uses this when rebuilding an engine from a compacted
    /// write-ahead-log snapshot, so epochs stay absolute across
    /// restarts: a snapshot captured at epoch `B` reloads at epoch
    /// `B`, and replaying the log's tail lands the engine on exactly
    /// the epoch the log ends at. Builder-style: call right after
    /// construction, before the engine is cloned, queried or mutated.
    pub fn with_base_epoch(mut self, epoch: u64) -> Self {
        let inner = Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("with_base_epoch must be called before the engine is cloned");
        let slot = inner
            .data
            .get_mut()
            // utk-lint: allow(panic) -- poison propagation: get_mut is the exclusive-access form of .read()
            .expect("dataset lock");
        Arc::get_mut(slot)
            // utk-lint: allow(panic) -- the version Arc is unshared until the first query
            .expect("with_base_epoch must be called before the first query")
            .epoch = epoch;
        self
    }

    /// Sets the byte budget of the r-skyband filter cache (default
    /// [`DEFAULT_FILTER_CACHE_BUDGET`]). Accounting covers the cached
    /// `CandidateSet` payloads (ids, flat points, graph) plus their
    /// region keys; least-recently-used entries are evicted once the
    /// budget is exceeded. Builder-style: call right after
    /// construction, before the engine is cloned or queried.
    pub fn with_filter_cache_budget(self, bytes: usize) -> Self {
        *self.inner.filter_cache.lock().expect("cache lock") = ByteLru::new(bytes);
        self
    }

    /// Sets the byte budget of the transformed-dataset (generalized
    /// scoring) cache (default [`DEFAULT_SCORING_CACHE_BUDGET`]).
    /// Builder-style, like [`UtkEngine::with_filter_cache_budget`].
    pub fn with_scoring_cache_budget(self, bytes: usize) -> Self {
        *self.inner.scoring_cache.lock().expect("cache lock") = ByteLru::new(bytes);
        self
    }

    /// Re-sizes the filter cache's byte budget **in place** on a live
    /// (possibly shared) engine: cached entries survive, shrinking
    /// evicts LRU-first down to the new budget, growing is free.
    /// Returns how many entries were evicted. This is the registry
    /// hook for serving many datasets under one shared budget — the
    /// per-engine slice is re-dealt whenever a dataset loads or
    /// unloads, unlike the builder
    /// [`UtkEngine::with_filter_cache_budget`], which replaces the
    /// cache wholesale and must run before the engine is shared.
    pub fn set_filter_cache_budget(&self, bytes: usize) -> usize {
        self.inner
            .filter_cache
            .lock()
            .expect("cache lock")
            .set_budget(bytes)
    }

    /// The filter cache's current byte budget.
    pub fn filter_cache_budget(&self) -> usize {
        self.inner.filter_cache.lock().expect("cache lock").budget()
    }

    /// Sizes the worker pool backing parallel queries and
    /// [`UtkEngine::run_many`] (0 = one worker per available core, the
    /// default). Builder-style: call right after construction, before
    /// the first parallel query builds the pool.
    pub fn with_pool_threads(mut self, threads: usize) -> Self {
        let inner = Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("with_pool_threads must be called before the engine is cloned");
        assert!(
            inner.pool.get().is_none(),
            "with_pool_threads must be called before the pool is first used"
        );
        inner.pool_threads_cfg = threads;
        self
    }

    /// Replaces the engine's nanosecond source for query-phase
    /// tracing (default: a fresh [`MonotonicClock`]). Tests inject a
    /// [`crate::obs::TestClock`] to make `Stats::timings` exactly
    /// reproducible; results and wire bytes are clock-independent.
    /// Builder-style: call right after construction, before the
    /// engine is cloned or queried.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("with_clock must be called before the engine is cloned")
            .clock = clock;
        self
    }

    /// The engine's tracing clock (shared with the serving layer so
    /// slow-query thresholds and metrics observe the same time base).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// The engine's persistent worker pool, built on first use.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.inner.pool.get_or_init(|| {
            self.inner.pool_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(ThreadPool::new(self.inner.pool_threads_cfg))
        })
    }

    /// Worker threads the engine's pool has (or will have once built).
    pub fn pool_threads(&self) -> usize {
        match self.inner.pool.get() {
            Some(pool) => pool.threads(),
            None if self.inner.pool_threads_cfg != 0 => self.inner.pool_threads_cfg,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// How many worker pools this engine ever constructed: 0 before
    /// the first parallel query, 1 after — never more (the regression
    /// the counter guards against is per-query pool construction).
    pub fn pool_builds(&self) -> usize {
        self.inner.pool_builds.load(Ordering::Relaxed)
    }

    /// The current dataset version (an `Arc` clone under a momentary
    /// read lock).
    fn current(&self) -> Arc<DatasetVersion> {
        Arc::clone(&self.inner.data.read().expect("dataset lock"))
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.current().points.len()
    }

    /// Always false: empty datasets are rejected at construction and
    /// a mutation may never delete the last record without inserting.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dataset dimensionality `d` (invariant across mutations).
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// A coherent read-only view of the current dataset version:
    /// points, flat store, packed R-tree and epoch. The snapshot
    /// stays valid (and internally consistent) across concurrent
    /// mutations.
    pub fn snapshot(&self) -> DatasetSnapshot {
        DatasetSnapshot {
            version: self.current(),
        }
    }

    /// The current dataset epoch: 0 at construction, +1 per
    /// [`UtkEngine::apply_update`] that changed anything.
    pub fn dataset_epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Mutations that rebuilt the R-tree outright instead of
    /// extending the tombstone/append overlay.
    pub fn index_rebuilds(&self) -> usize {
        self.inner.index_rebuilds.load(Ordering::Relaxed)
    }

    /// Whether the current index is packed over exactly the live
    /// records (false while mutations are riding the overlay).
    pub fn index_is_packed(&self) -> bool {
        matches!(self.current().index, TreeIndex::Packed(_))
    }

    /// Appends records to the dataset. Equivalent to
    /// [`UtkEngine::apply_update`] with no deletions; the new records
    /// take ids `len..len + rows.len()`.
    pub fn insert_points(&self, rows: Vec<Vec<f64>>) -> Result<UpdateReport, UtkError> {
        self.apply_update(&[], rows)
    }

    /// Removes records by id. Equivalent to
    /// [`UtkEngine::apply_update`] with no insertions.
    pub fn delete_points(&self, ids: &[u32]) -> Result<UpdateReport, UtkError> {
        self.apply_update(ids, Vec::new())
    }

    /// The mutation seam: atomically removes the records named by
    /// `deletes` and appends `inserts`, as **one** epoch bump.
    ///
    /// Semantics — the contract the dynamic test oracle locks:
    ///
    /// * `deletes` are ids in the *current* dataset, applied
    ///   simultaneously (an unknown id or a repeat is a typed error
    ///   and nothing changes); survivors keep their relative order
    ///   and are renumbered densely, exactly as if the dataset had
    ///   been rebuilt without those rows.
    /// * `inserts` are appended after the surviving rows (validated
    ///   for dimensionality and finiteness first).
    /// * Every query thereafter answers **byte-identically** to a
    ///   fresh engine built from the post-mutation dataset (modulo
    ///   engine-history work counters): the R-tree is either rebuilt
    ///   or read through a tombstone/append overlay whose candidate
    ///   sets are provably identical ([`TreeView`]), and the filter
    ///   cache keeps exactly the entries whose r-skyband cannot have
    ///   changed — a deleted record that is **not** a cached member,
    ///   and inserted records r-dominated by ≥ k earlier-popping
    ///   members ([`rejected_by_members`]) leave an entry valid; its
    ///   member ids are remapped and it is re-keyed under the new
    ///   epoch. Anything else (including every entry under a scoring
    ///   transform when records are inserted, where the cached view
    ///   cannot evaluate the new rows) is dropped. The
    ///   transformed-dataset cache is flushed wholesale.
    ///
    /// In-flight queries are never torn: they finish on the snapshot
    /// they started with, and epoch-tagged cache keys keep the two
    /// versions' entries apart.
    pub fn apply_update(
        &self,
        deletes: &[u32],
        inserts: Vec<Vec<f64>>,
    ) -> Result<UpdateReport, UtkError> {
        for row in &inserts {
            if row.len() != self.inner.dim {
                return Err(UtkError::DimensionMismatch {
                    what: "inserted record",
                    expected: self.inner.dim,
                    got: row.len(),
                });
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(UtkError::NonFiniteInput {
                    what: "inserted record",
                });
            }
        }
        // Serialize mutators without blocking queries: the heavy
        // construction below (row copies, flat store, possibly an
        // R-tree bulk load) runs under the mutation lock only;
        // `current()` keeps serving snapshots throughout, and the
        // `data` write lock is taken just for the cache re-key +
        // version swap at the end.
        let _mutating = self.inner.mutation.lock().expect("mutation lock");
        let cur = self.current();
        let n = cur.points.len();
        let mut deleted_mask = vec![false; n];
        for &id in deletes {
            if (id as usize) >= n {
                return Err(UtkError::UnknownRecordId { id, len: n });
            }
            if deleted_mask[id as usize] {
                return Err(UtkError::DuplicateRecordId { id: id.to_string() });
            }
            deleted_mask[id as usize] = true;
        }
        if deletes.is_empty() && inserts.is_empty() {
            return Ok(UpdateReport {
                epoch: cur.epoch,
                n,
                inserted: 0,
                deleted: 0,
                filter_invalidated: 0,
                filter_retained: 0,
                filter_repaired: 0,
                index_rebuilt: false,
            });
        }
        if deletes.len() == n && inserts.is_empty() {
            return Err(UtkError::EmptyDataset);
        }

        // Dense renumbering of the survivors: old id → new id.
        let mut shift = vec![TOMBSTONE; n];
        let mut new_points: Vec<Vec<f64>> = Vec::with_capacity(n - deletes.len() + inserts.len());
        for (i, p) in cur.points.iter().enumerate() {
            if !deleted_mask[i] {
                shift[i] = new_points.len() as u32;
                new_points.push(p.clone());
            }
        }
        let first_inserted = new_points.len() as u32;
        new_points.extend(inserts.iter().cloned());
        let epoch = cur.epoch + 1;

        // Compose the index overlay (or rebuild past the threshold).
        let (base, mut remap, mut extra) = match &cur.index {
            TreeIndex::Packed(tree) => (Arc::clone(tree), None, Vec::new()),
            TreeIndex::Overlay {
                base, remap, extra, ..
            } => (Arc::clone(base), remap.clone(), extra.clone()),
        };
        if !deletes.is_empty() {
            let composed: Vec<u32> = match remap {
                None => shift.clone(),
                Some(old) => old
                    .iter()
                    .map(|&id| {
                        if id == TOMBSTONE {
                            TOMBSTONE
                        } else {
                            shift[id as usize]
                        }
                    })
                    .collect(),
            };
            remap = Some(composed);
            extra.retain_mut(|id| {
                *id = shift[*id as usize];
                *id != TOMBSTONE
            });
        }
        extra.extend(first_inserted..first_inserted + inserts.len() as u32);
        let dead = remap
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&id| id == TOMBSTONE).count());
        let overhead = dead + extra.len();
        let rebuild = overhead * OVERLAY_REBUILD_DEN > new_points.len() * OVERLAY_REBUILD_NUM;
        let index = if rebuild {
            self.inner.index_rebuilds.fetch_add(1, Ordering::Relaxed);
            TreeIndex::Packed(Arc::new(RTree::bulk_load(&new_points)))
        } else {
            TreeIndex::Overlay {
                base,
                remap,
                extra,
                packed: OnceLock::new(),
            }
        };

        let store = PointStore::from_rows(&new_points);
        let next = Arc::new(DatasetVersion {
            epoch,
            points: new_points,
            store,
            index,
        });

        // Publish: targeted cache invalidation atomic with the
        // version swap, under a write lock held only for this final,
        // cheap step.
        let mut guard = self.inner.data.write().expect("dataset lock");
        debug_assert!(
            Arc::ptr_eq(&guard, &cur),
            "mutators are serialized by the mutation lock"
        );
        let (filter_invalidated, filter_retained, filter_repaired) = if self.inner.cache_enabled {
            self.rekey_filter_cache(
                cur.epoch,
                &next,
                &deleted_mask,
                &shift,
                first_inserted,
                deletes,
                &inserts,
            )
        } else {
            (0, 0, 0)
        };
        self.inner.scoring_cache.lock().expect("cache lock").clear();
        let report = UpdateReport {
            epoch,
            n: next.points.len(),
            inserted: inserts.len(),
            deleted: deletes.len(),
            filter_invalidated,
            filter_retained,
            filter_repaired,
            index_rebuilt: rebuild,
        };
        *guard = next;
        Ok(report)
    }

    /// Drains the filter cache and carries every entry it can into
    /// the new epoch, preserving LRU order. Three outcomes per entry:
    /// provably unaffected → re-keyed (ids remapped) as-is;
    /// affected but plain-scoring → **splice-repaired** — re-screened
    /// incrementally against the next version
    /// ([`crate::skyband::r_skyband_repair`] /
    /// [`crate::skyband::r_skyband_repair_inserts`]), byte-identical
    /// to a cold run on
    /// the new dataset; otherwise dropped. Returns `(invalidated,
    /// retained, repaired)`, where repaired entries also count as
    /// retained.
    #[allow(clippy::too_many_arguments)]
    fn rekey_filter_cache(
        &self,
        old_epoch: u64,
        next: &DatasetVersion,
        deleted_mask: &[bool],
        shift: &[u32],
        first_inserted: u32,
        deletes: &[u32],
        inserts: &[Vec<f64>],
    ) -> (usize, usize, usize) {
        let new_epoch = next.epoch;
        let mut cache = self.inner.filter_cache.lock().expect("cache lock");
        let mut invalidated = 0;
        let mut retained = 0;
        let mut repaired = 0;
        for (key, entry, bytes) in cache.take_entries() {
            // Stragglers inserted by in-flight queries on older
            // snapshots are unreachable already; drop them without
            // counting — this mutation never evaluated them, so they
            // belong in neither `invalidated` nor `retained`.
            if key.epoch != old_epoch {
                continue;
            }
            // A deleted record that is a cached member changes the
            // member list by definition.
            let member_deleted = entry.cands.ids.iter().any(|&id| deleted_mask[id as usize]);
            // Inserts that escape the exact rejection test would join
            // this entry's r-skyband. Transformed-space entries cannot
            // evaluate new rows at all (the transform is only known by
            // fingerprint here): conservative fallback.
            let scoring_blocked = !key.scoring.is_empty() && !inserts.is_empty();
            let mut live_inserts: Vec<u32> = Vec::new();
            if key.scoring.is_empty() {
                for (j, row) in inserts.iter().enumerate() {
                    if !rejected_by_members(
                        &entry.cands,
                        row,
                        &entry.region,
                        key.k,
                        key.pivot_order,
                    ) {
                        live_inserts.push(first_inserted + j as u32);
                    }
                }
            }
            if !member_deleted && !scoring_blocked && live_inserts.is_empty() {
                let entry = if deletes.is_empty() {
                    entry // ids unchanged: reuse the cached set as-is
                } else {
                    let cands = Arc::new(CandidateSet {
                        ids: entry
                            .cands
                            .ids
                            .iter()
                            .map(|&id| shift[id as usize])
                            .collect(),
                        points: entry.cands.points.clone(),
                        graph: entry.cands.graph.clone(),
                    });
                    FilterEntry {
                        region: entry.region.clone(),
                        cands,
                    }
                };
                let key = FilterKey {
                    epoch: new_epoch,
                    ..key
                };
                cache.insert(key, entry, bytes);
                retained += 1;
                continue;
            }
            // The entry's r-skyband did (or may) change: splice-repair
            // it instead of dropping, when the repair preconditions
            // hold. The repaired set is byte-identical to a cold run,
            // so a later cache hit answers exactly like a fresh build.
            if self.inner.repair_enabled && key.scoring.is_empty() {
                let mut rstats = Stats::new();
                let repaired_set = if member_deleted {
                    let old_ids_new: Vec<u32> = entry
                        .cands
                        .ids
                        .iter()
                        .map(|&id| shift[id as usize])
                        .collect();
                    r_skyband_repair_with_kernel(
                        &entry.cands,
                        &old_ids_new,
                        &live_inserts,
                        &next.store,
                        &next.tree_view(),
                        &entry.region,
                        key.k,
                        key.pivot_order,
                        self.inner.kernel,
                        &mut rstats,
                    )
                } else {
                    // No member deleted: renumber the survivors, then
                    // merge-splice the admissible inserts in without
                    // touching the tree.
                    let renumbered;
                    let cands: &CandidateSet = if deletes.is_empty() {
                        &entry.cands
                    } else {
                        renumbered = CandidateSet {
                            ids: entry
                                .cands
                                .ids
                                .iter()
                                .map(|&id| shift[id as usize])
                                .collect(),
                            points: entry.cands.points.clone(),
                            graph: entry.cands.graph.clone(),
                        };
                        &renumbered
                    };
                    r_skyband_repair_inserts_with_kernel(
                        cands,
                        &live_inserts,
                        &next.store,
                        &entry.region,
                        key.k,
                        key.pivot_order,
                        self.inner.kernel,
                        &mut rstats,
                    )
                };
                if let Some(cands) = repaired_set {
                    self.inner
                        .repair_screens
                        .fetch_add(rstats.rdom_tests, Ordering::Relaxed);
                    self.inner.filter_repairs.fetch_add(1, Ordering::Relaxed);
                    let entry = FilterEntry {
                        region: entry.region.clone(),
                        cands: Arc::new(cands),
                    };
                    let bytes = entry.approx_bytes();
                    let key = FilterKey {
                        epoch: new_epoch,
                        ..key
                    };
                    cache.insert(key, entry, bytes);
                    retained += 1;
                    repaired += 1;
                    continue;
                }
            }
            invalidated += 1;
        }
        (invalidated, retained, repaired)
    }

    /// Forces the index packed: if mutations left the R-tree reading
    /// through a tombstone/append overlay, rebuild it over exactly
    /// the live records now. Content (and epoch, and caches) are
    /// unchanged — this trades one bulk load for leaner traversals.
    pub fn compact(&self) {
        let _mutating = self.inner.mutation.lock().expect("mutation lock");
        let cur = self.current();
        if matches!(cur.index, TreeIndex::Packed(_)) {
            return;
        }
        self.inner.index_rebuilds.fetch_add(1, Ordering::Relaxed);
        // Build outside the data lock (queries keep snapshotting);
        // swap under a momentary write lock.
        let tree = Arc::new(RTree::bulk_load(&cur.points));
        let next = Arc::new(DatasetVersion::packed(cur.epoch, cur.points.clone(), tree));
        *self.inner.data.write().expect("dataset lock") = next;
    }

    /// Drops every memoized r-skyband and transformed dataset,
    /// keeping budgets and lifetime counters. After `compact()` +
    /// `clear_caches()` the engine is observationally identical to a
    /// freshly built one (the dynamic suite asserts exactly that,
    /// byte for byte on the wire).
    pub fn clear_caches(&self) {
        self.inner.filter_cache.lock().expect("cache lock").clear();
        self.inner.scoring_cache.lock().expect("cache lock").clear();
    }

    /// `(hits, misses)` of the r-skyband cache over this engine's
    /// lifetime. Superset reuses count as misses (the exact entry was
    /// absent) — see [`UtkEngine::filter_superset_hits`].
    pub fn filter_cache_counters(&self) -> (usize, usize) {
        (
            self.inner.filter_hits.load(Ordering::Relaxed),
            self.inner.filter_misses.load(Ordering::Relaxed),
        )
    }

    /// Cache misses served by re-screening a cached candidate set of
    /// a containing region (`R' ⊇ R`) instead of a full BBS run.
    pub fn filter_superset_hits(&self) -> usize {
        self.inner.superset_hits.load(Ordering::Relaxed)
    }

    /// Filter-cache entries splice-repaired (incrementally
    /// re-screened instead of dropped) across this engine's lifetime.
    pub fn filter_repairs(&self) -> usize {
        self.inner.filter_repairs.load(Ordering::Relaxed)
    }

    /// r-dominance tests spent inside splice repairs over this
    /// engine's lifetime — the incremental maintenance cost to weigh
    /// against the full recomputes it avoided.
    pub fn repair_screen_tests(&self) -> usize {
        self.inner.repair_screens.load(Ordering::Relaxed)
    }

    /// Payload bytes currently held by the r-skyband filter cache.
    pub fn filter_cache_bytes(&self) -> usize {
        self.inner
            .filter_cache
            .lock()
            .expect("cache lock")
            .bytes_used()
    }

    /// LRU evictions of the r-skyband filter cache over this engine's
    /// lifetime.
    pub fn filter_cache_evictions(&self) -> usize {
        self.inner
            .filter_cache
            .lock()
            .expect("cache lock")
            .evictions()
    }

    /// Number of memoized r-skyband candidate sets currently held.
    pub fn cached_filters(&self) -> usize {
        self.inner.filter_cache.lock().expect("cache lock").len()
    }

    /// Runs a query, returning its typed result. The whole run is
    /// traced against the engine's [`Clock`]; the per-phase breakdown
    /// lands on `Stats::timings` (off the wire format — see
    /// [`crate::obs`]).
    pub fn run(&self, query: &UtkQuery) -> Result<QueryResult, UtkError> {
        self.run_in_turn(query, &Turn::solo())
    }

    fn run_in_turn(&self, query: &UtkQuery, turn: &Turn) -> Result<QueryResult, UtkError> {
        let (result, timings) = obs::trace(&self.inner.clock, || self.run_untraced(query, turn));
        let mut result = result?;
        result.stats_mut().timings = timings;
        Ok(result)
    }

    fn run_untraced(&self, query: &UtkQuery, turn: &Turn) -> Result<QueryResult, UtkError> {
        if query.k == 0 {
            return Err(UtkError::InvalidK { k: 0 });
        }
        // One dataset view for the whole query: concurrent mutations
        // swap in new versions without tearing this run.
        let data = self.data_for(query.scoring.as_ref())?;
        let mut result = match query.kind {
            QueryKind::TopK => self.run_topk(query, &data).map(QueryResult::TopK),
            QueryKind::Utk1 => self.run_utk1(query, &data, turn).map(QueryResult::Utk1),
            QueryKind::Utk2 => self.run_utk2(query, &data, turn).map(QueryResult::Utk2),
        }?;
        result.stats_mut().dataset_epoch = data.epoch() as usize;
        Ok(result)
    }

    /// Answers a batch of queries, returning per-query results **in
    /// input order** — element `i` is exactly what `run(&queries[i])`
    /// returns, including per-query errors (one malformed query never
    /// aborts or poisons its siblings).
    ///
    /// Queries execute concurrently on the engine's worker pool, but
    /// their filter-cache accesses take turns in input order, so every
    /// answer and every stat equals that of the sequential loop of
    /// `run` calls however the pool schedules them: a repeated
    /// `(k, region, scoring)` is a cache hit, and a contained region
    /// reuses its superset, exactly as in the loop. Refinement, the
    /// bulk of the work, overlaps freely. Each successful result's
    /// [`Stats::batch_group_count`] records how many distinct filter
    /// keys (each top-k query counting as its own) the batch holds.
    pub fn run_many(&self, queries: &[UtkQuery]) -> Vec<Result<QueryResult, UtkError>> {
        // An empty batch is a legitimate request (a server `batch` op
        // with no parseable lines): answer it without building the
        // pool or taking a cache lock.
        if queries.is_empty() {
            return Vec::new();
        }
        let epoch = self.current().epoch;
        let topk = queries.iter().filter(|q| q.kind == QueryKind::TopK).count();
        let keys: HashSet<FilterKey> = queries
            .iter()
            .filter(|q| q.kind != QueryKind::TopK)
            .map(|q| FilterKey::of(q, epoch))
            .collect();
        let group_count = topk + keys.len();

        // One pre-allocated slot per query keeps answers in input
        // order however the tasks are scheduled.
        type Slots = Vec<Mutex<Option<Result<QueryResult, UtkError>>>>;
        let mut out: Vec<Result<QueryResult, UtkError>> = if queries.len() <= 1 {
            // A batch of one needs no pool.
            queries.iter().map(|q| self.run(q)).collect()
        } else {
            let slots: Arc<Slots> = Arc::new(queries.iter().map(|_| Mutex::new(None)).collect());
            let batch: Arc<Vec<UtkQuery>> = Arc::new(queries.to_vec());
            let order = Arc::new(BatchOrder::default());
            let claimed = Arc::new(AtomicUsize::new(0));
            let set = self.pool().task_set();
            for _ in 0..batch.len() {
                let engine = self.clone();
                let batch = Arc::clone(&batch);
                let slots = Arc::clone(&slots);
                let order = Arc::clone(&order);
                let claimed = Arc::clone(&claimed);
                set.spawn(move || {
                    // Indices are claimed as tasks start, not as they
                    // are queued: every earlier index then belongs to
                    // a task already running, whose turn passes
                    // before it touches the pool, so waiting for a
                    // turn never starves the pool into a deadlock.
                    let i = claimed.fetch_add(1, Ordering::Relaxed);
                    let Some(query) = batch.get(i) else {
                        return;
                    };
                    let turn = Turn::in_batch(&order, i);
                    let result = engine.run_in_turn(query, &turn);
                    *slots[i].lock().expect("batch result slot") = Some(result);
                });
            }
            set.wait();
            slots
                .iter()
                .map(|slot| {
                    slot.lock()
                        .expect("batch result slot")
                        .take()
                        // utk-lint: allow(panic) -- invariant: wait() returns only after every task stored its slot
                        .expect("every batch slot is filled before wait() returns")
                })
                .collect()
        };
        for result in out.iter_mut().flatten() {
            result.stats_mut().batch_group_count = group_count;
        }
        out
    }

    /// Convenience: UTK1 with default options.
    pub fn utk1(&self, region: &Region, k: usize) -> Result<Utk1Result, UtkError> {
        match self.run(&UtkQuery::utk1(k).region(region.clone()))? {
            QueryResult::Utk1(r) => Ok(r),
            _ => unreachable!("UTK1 query returned a non-UTK1 result"),
        }
    }

    /// Convenience: UTK2 with default options.
    pub fn utk2(&self, region: &Region, k: usize) -> Result<Utk2Result, UtkError> {
        match self.run(&UtkQuery::utk2(k).region(region.clone()))? {
            QueryResult::Utk2(r) => Ok(r),
            _ => unreachable!("UTK2 query returned a non-UTK2 result"),
        }
    }

    /// Convenience: plain top-k at `weights` (reduced `d − 1` form or
    /// all `d` weights).
    pub fn top_k(&self, weights: &[f64], k: usize) -> Result<TopKResult, UtkError> {
        match self.run(&UtkQuery::topk(k).weights(weights.to_vec()))? {
            QueryResult::TopK(r) => Ok(r),
            _ => unreachable!("top-k query returned a non-top-k result"),
        }
    }

    fn run_topk(&self, query: &UtkQuery, data: &DataRef) -> Result<TopKResult, UtkError> {
        if query.algo != Algo::Auto {
            return Err(UtkError::UnsupportedAlgorithm {
                algo: query.algo.label(),
                kind: query.kind.label(),
            });
        }
        let weights = query.weights.as_ref().ok_or(UtkError::MissingParameter {
            what: "weight vector",
        })?;
        let reduced = self.reduced_weights(weights)?;
        let records = crate::topk::top_k_store(data.store(), reduced, query.k);
        Ok(TopKResult {
            records,
            stats: Stats::new(),
        })
    }

    /// Accepts `d − 1` reduced weights, or all `d` weights with the
    /// implied last one dropped.
    fn reduced_weights<'w>(&self, weights: &'w [f64]) -> Result<&'w [f64], UtkError> {
        const EPS: f64 = 1e-6;
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(UtkError::NonFiniteInput {
                what: "weight vector",
            });
        }
        let dp = self.inner.dim - 1;
        let reduced = if weights.len() == dp {
            weights
        } else if weights.len() == self.inner.dim {
            // Full d-weight form: the dropped last weight must be the
            // implied 1 − Σ of the others, or the caller's intent and
            // the ranking would silently disagree.
            let implied = 1.0 - weights[..dp].iter().sum::<f64>();
            if (weights[dp] - implied).abs() > EPS {
                return Err(UtkError::WeightsOutsideDomain {
                    detail: format!(
                        "last weight {} is not the implied 1 − Σ = {implied:.6} \
                         (weights must sum to 1)",
                        weights[dp]
                    ),
                });
            }
            &weights[..dp]
        } else {
            return Err(UtkError::DimensionMismatch {
                what: "weight vector",
                expected: dp,
                got: weights.len(),
            });
        };
        if let Some(w) = reduced.iter().find(|w| **w < -EPS) {
            return Err(UtkError::WeightsOutsideDomain {
                detail: format!("negative weight {w}"),
            });
        }
        let total: f64 = reduced.iter().sum();
        if total > 1.0 + EPS {
            return Err(UtkError::WeightsOutsideDomain {
                detail: format!("reduced weights sum to {total:.6} > 1"),
            });
        }
        Ok(reduced)
    }

    fn run_utk1(
        &self,
        query: &UtkQuery,
        data: &DataRef,
        turn: &Turn,
    ) -> Result<Utk1Result, UtkError> {
        let region = self.checked_region(query)?;
        match query.algo.resolved_for(QueryKind::Utk1) {
            algo @ (Algo::Sk | Algo::On) => {
                let filter = if algo == Algo::Sk {
                    FilterKind::Skyband
                } else {
                    FilterKind::Onion
                };
                Ok(baseline_utk1(
                    data.points(),
                    data.packed_tree(),
                    region,
                    query.k,
                    filter,
                ))
            }
            Algo::Jaa => {
                let r = self.jaa_pipeline(data, region, query, turn)?;
                Ok(Utk1Result {
                    records: r.records,
                    stats: r.stats,
                })
            }
            _ => self.rsa_pipeline(data, region, query, turn),
        }
    }

    fn run_utk2(
        &self,
        query: &UtkQuery,
        data: &DataRef,
        turn: &Turn,
    ) -> Result<Utk2Result, UtkError> {
        match query.algo {
            Algo::Auto | Algo::Jaa => {}
            other => {
                return Err(UtkError::UnsupportedAlgorithm {
                    algo: other.label(),
                    kind: query.kind.label(),
                })
            }
        }
        let region = self.checked_region(query)?;
        self.jaa_pipeline(data, region, query, turn)
    }

    fn checked_region<'q>(&self, query: &'q UtkQuery) -> Result<&'q Region, UtkError> {
        let region = query
            .region
            .as_ref()
            .ok_or(UtkError::MissingParameter { what: "region" })?;
        check_region(region, self.inner.dim - 1)?;
        Ok(region)
    }

    /// The interior of a validated region, or — for a degenerate `R`
    /// with no interior — the single sorted top-k (at the pivot `w`)
    /// that answers any UTK query over it.
    fn interior_or_degenerate(
        &self,
        data: &DataRef,
        region: &Region,
        k: usize,
    ) -> Result<RegionInterior, UtkError> {
        let Some((interior, slack)) = region.interior_point() else {
            return Err(UtkError::EmptyRegion);
        };
        if slack <= INTERIOR_EPS {
            let w = region.pivot().ok_or(UtkError::EmptyRegion)?;
            let mut top_k = crate::topk::top_k_store(data.store(), &w, k);
            top_k.sort_unstable();
            return Ok(RegionInterior::Degenerate { w, top_k });
        }
        Ok(RegionInterior::Full { interior, slack })
    }

    /// RSA processing of a UTK1 query: degenerate-region shortcut,
    /// (cached) filtering, then sequential or parallel refinement.
    ///
    /// NOTE: mirrors [`crate::skyband::prefilter`] (the legacy entry
    /// points' pre-refinement pipeline) with the candidate step routed
    /// through the cache — a shortcut changed in one place must change
    /// in the other.
    fn rsa_pipeline(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
        turn: &Turn,
    ) -> Result<Utk1Result, UtkError> {
        let k = query.k;
        let (interior, slack) = match self.interior_or_degenerate(data, region, k)? {
            RegionInterior::Degenerate { top_k, .. } => {
                return Ok(Utk1Result {
                    records: top_k,
                    stats: Stats::new(),
                })
            }
            RegionInterior::Full { interior, slack } => (interior, slack),
        };
        let (cands, mut stats) = self.candidates(data, region, query, turn)?;
        let records = if cands.len() <= k {
            let mut records = cands.ids.clone();
            records.sort_unstable();
            records
        } else if query.parallel {
            // The engine's persistent pool: thread count is resolved
            // once at pool construction, never per query.
            crate::parallel::rsa_parallel_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.rsa_options,
                self.pool(),
                &mut stats,
            )
        } else {
            rsa_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.rsa_options,
                &mut stats,
            )
        };
        Ok(Utk1Result { records, stats })
    }

    /// JAA processing of a UTK2 (or JAA-selected UTK1) query.
    fn jaa_pipeline(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
        turn: &Turn,
    ) -> Result<Utk2Result, UtkError> {
        let k = query.k;
        let (interior, slack) = match self.interior_or_degenerate(data, region, k)? {
            RegionInterior::Degenerate { w, top_k } => {
                return Ok(Utk2Result {
                    records: top_k.clone(),
                    cells: vec![Utk2Cell {
                        region: region.clone(),
                        interior: w,
                        top_k,
                    }],
                    stats: Stats::new(),
                })
            }
            RegionInterior::Full { interior, slack } => (interior, slack),
        };
        let (cands, mut stats) = self.candidates(data, region, query, turn)?;
        if cands.len() <= k {
            let mut top_k = cands.ids.clone();
            top_k.sort_unstable();
            return Ok(Utk2Result {
                records: top_k.clone(),
                cells: vec![Utk2Cell {
                    region: region.clone(),
                    interior,
                    top_k,
                }],
                stats,
            });
        }
        let cells = if query.parallel {
            jaa_parallel_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.jaa_options,
                self.pool(),
                &mut stats,
            )
        } else {
            jaa_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.jaa_options,
                &mut stats,
            )
        };
        let records = records_of(&cells);
        Ok(Utk2Result {
            cells,
            records,
            stats,
        })
    }

    /// The r-skyband + r-dominance graph for `(k, region)`, memoized
    /// in the byte-budgeted LRU filter cache. Returns the candidate
    /// set plus the stats of obtaining it.
    ///
    /// Lookup order:
    /// 1. exact `(k, region, scoring)` entry — a hit serves the
    ///    memoized set directly;
    /// 2. **superset reuse** (pivot order only): a cached entry whose
    ///    region *contains* this query's region, with the same `k` and
    ///    scoring, is re-screened via
    ///    [`crate::skyband::r_skyband_from_superset`] — byte-identical
    ///    to a cold run
    ///    at a fraction of the dominance tests;
    /// 3. a cold BBS run over the R-tree.
    ///
    /// Both miss paths insert their result (evicting LRU entries past
    /// the byte budget) and count toward [`Stats::evictions`] /
    /// [`Stats::filter_cache_bytes`]. The cache work waits for `turn`,
    /// which passes once the cache holds this query's entry.
    fn candidates(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
        turn: &Turn,
    ) -> Result<(Arc<CandidateSet>, Stats), UtkError> {
        if !self.inner.cache_enabled {
            // Nothing shared to order: the next query may go at once.
            turn.pass();
            let mut stats = Stats::new();
            let cands = obs::span(Phase::Filter, || {
                r_skyband_view_with_kernel(
                    data.store(),
                    &data.tree_view(),
                    region,
                    query.k,
                    query.pivot_order(),
                    self.inner.kernel,
                    &mut stats,
                )
            });
            return Ok((Arc::new(cands), stats));
        }
        turn.wait();
        let found = self.cached_candidates(data, region, query);
        turn.pass();
        found
    }

    /// [`Self::candidates`] through the filter cache.
    fn cached_candidates(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
    ) -> Result<(Arc<CandidateSet>, Stats), UtkError> {
        let mut stats = Stats::new();
        debug_assert_eq!(
            region_fingerprint(region),
            query
                .region
                .as_ref()
                .map(region_fingerprint)
                .unwrap_or_default(),
            "candidates() must be keyed on the query's own region"
        );
        let key = FilterKey::of(query, data.epoch());
        let superset: Option<Arc<CandidateSet>> = {
            let mut cache = self.inner.filter_cache.lock().expect("cache lock");
            if let Some(hit) = cache.get(&key) {
                let cands = Arc::clone(&hit.cands);
                self.inner.filter_hits.fetch_add(1, Ordering::Relaxed);
                stats.filter_cache_hits = 1;
                stats.candidates = cands.len();
                stats.filter_cache_bytes = cache.bytes_used();
                return Ok((cands, stats));
            }
            // Exact miss: probe for a cached containing region *of
            // the same dataset epoch*. Valid only under the pivot
            // heap key — the re-screen reproduces cold pop order from
            // pivot scores, which the sum-key ablation does not
            // bound.
            if query.pivot_order() {
                let best = cache
                    .scan()
                    .filter(|(ck, _)| {
                        ck.epoch == key.epoch
                            && ck.k == key.k
                            && ck.pivot_order
                            && ck.scoring == key.scoring
                    })
                    .filter(|(_, entry)| entry.region.contains_region(region))
                    // Smallest candidate set re-screens cheapest; the
                    // fingerprint tie-break keeps the choice
                    // deterministic under HashMap iteration order.
                    .min_by_key(|(ck, entry)| (entry.cands.len(), ck.region.clone()))
                    .map(|(ck, entry)| (ck.clone(), Arc::clone(&entry.cands)));
                best.map(|(ck, cands)| {
                    cache.touch(&ck);
                    cands
                })
            } else {
                None
            }
        };
        self.inner.filter_misses.fetch_add(1, Ordering::Relaxed);
        let cands = match &superset {
            Some(sup) => {
                self.inner.superset_hits.fetch_add(1, Ordering::Relaxed);
                stats.superset_hits = 1;
                // Pure screen-kernel work (no BBS): its own phase.
                Arc::new(obs::span(Phase::Screen, || {
                    r_skyband_from_superset_with_kernel(
                        sup,
                        region,
                        query.k,
                        self.inner.kernel,
                        &mut stats,
                    )
                }))
            }
            None => Arc::new(obs::span(Phase::Filter, || {
                r_skyband_view_with_kernel(
                    data.store(),
                    &data.tree_view(),
                    region,
                    query.k,
                    query.pivot_order(),
                    self.inner.kernel,
                    &mut stats,
                )
            })),
        };
        let entry = FilterEntry {
            region: region.clone(),
            cands: Arc::clone(&cands),
        };
        let bytes = entry.approx_bytes();
        let mut cache = self.inner.filter_cache.lock().expect("cache lock");
        stats.evictions = cache.insert(key, entry, bytes);
        stats.filter_cache_bytes = cache.bytes_used();
        Ok((cands, stats))
    }

    /// The dataset view for a scoring: the current snapshot for plain
    /// linear scoring, a memoized transformed copy (points + R-tree)
    /// otherwise. Transform entries are keyed by `(epoch,
    /// fingerprint)` — a mutation makes every old transform
    /// unreachable (and flushes them eagerly).
    fn data_for(&self, scoring: Option<&GeneralScoring>) -> Result<DataRef, UtkError> {
        let snapshot = self.current();
        let Some(scoring) = scoring else {
            return Ok(DataRef::Snapshot(snapshot));
        };
        if scoring.dim() != self.inner.dim {
            return Err(UtkError::DimensionMismatch {
                what: "scoring function",
                expected: self.inner.dim,
                got: scoring.dim(),
            });
        }
        if scoring.is_identity() {
            return Ok(DataRef::Snapshot(snapshot));
        }
        let key = (snapshot.epoch, scoring.fingerprint());
        if self.inner.cache_enabled {
            if let Some(hit) = self
                .inner
                .scoring_cache
                .lock()
                .expect("cache lock")
                .get(&key)
            {
                return Ok(DataRef::Transformed(Arc::clone(hit)));
            }
        }
        let points = scoring.transform(&snapshot.points);
        if points.iter().any(|p| p.iter().any(|x| !x.is_finite())) {
            return Err(UtkError::NonFiniteInput {
                what: "transformed dataset (scoring function)",
            });
        }
        let tree = RTree::bulk_load(&points);
        let store = PointStore::from_rows(&points);
        let scored = Arc::new(Scored {
            epoch: snapshot.epoch,
            points,
            store,
            tree,
        });
        if self.inner.cache_enabled {
            let bytes = scored.approx_bytes();
            let mut cache = self.inner.scoring_cache.lock().expect("cache lock");
            cache.insert(key, Arc::clone(&scored), bytes);
        }
        Ok(DataRef::Transformed(scored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_hotels() -> Vec<Vec<f64>> {
        vec![
            vec![8.3, 9.1, 7.2],
            vec![2.4, 9.6, 8.6],
            vec![5.4, 1.6, 4.1],
            vec![2.6, 6.9, 9.4],
            vec![7.3, 3.1, 2.4],
            vec![7.9, 6.4, 6.6],
            vec![8.6, 7.1, 4.3],
        ]
    }

    fn figure1_region() -> Region {
        Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25])
    }

    #[test]
    fn figure1_through_all_algorithms() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        for algo in [Algo::Auto, Algo::Rsa, Algo::Jaa, Algo::Sk, Algo::On] {
            let res = engine
                .run(&UtkQuery::utk1(2).region(figure1_region()).algorithm(algo))
                .unwrap();
            assert_eq!(res.records(), &[0, 1, 3, 5], "{}", algo.label());
        }
    }

    #[test]
    fn utk2_reuses_utk1_filter() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let u1 = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(u1.stats.filter_cache_hits, 0);
        let u2 = engine.utk2(&figure1_region(), 2).unwrap();
        assert_eq!(u2.stats.filter_cache_hits, 1);
        assert_eq!(u2.records, u1.records);
        assert_eq!(engine.filter_cache_counters(), (1, 1));
    }

    #[test]
    fn cache_disabled_engine_never_hits() {
        let engine = UtkEngine::new(figure1_hotels())
            .unwrap()
            .without_filter_cache();
        engine.utk1(&figure1_region(), 2).unwrap();
        let u2 = engine.utk2(&figure1_region(), 2).unwrap();
        assert_eq!(u2.stats.filter_cache_hits, 0);
        assert_eq!(engine.filter_cache_counters(), (0, 0));
        assert_eq!(engine.cached_filters(), 0);
    }

    #[test]
    fn run_many_on_an_empty_slice_is_a_true_no_op() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let out = engine.run_many(&[]);
        assert!(out.is_empty());
        // Neither the pool nor the caches were touched.
        assert_eq!(engine.pool_builds(), 0);
        assert_eq!(engine.filter_cache_counters(), (0, 0));
        assert_eq!(engine.cached_filters(), 0);
    }

    #[test]
    fn runtime_budget_resize_preserves_entries() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(engine.cached_filters(), 1);
        let bytes = engine.filter_cache_bytes();
        assert!(bytes > 0);
        // Growing (or shrinking to just above the resident bytes)
        // keeps the entry; the very next same-region query is a hit.
        assert_eq!(engine.set_filter_cache_budget(bytes + 1), 0);
        assert_eq!(engine.filter_cache_budget(), bytes + 1);
        let u2 = engine.utk2(&figure1_region(), 2).unwrap();
        assert_eq!(u2.stats.filter_cache_hits, 1);
        // Shrinking below the resident bytes evicts.
        assert_eq!(engine.set_filter_cache_budget(bytes - 1), 1);
        assert_eq!(engine.cached_filters(), 0);
    }

    #[test]
    fn topk_matches_brute_force_order() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        // Reduced and full weight forms agree.
        let a = engine.top_k(&[0.3, 0.5], 2).unwrap();
        let b = engine.top_k(&[0.3, 0.5, 0.2], 2).unwrap();
        assert_eq!(a.records, vec![0, 1]);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn topk_weights_must_lie_in_the_preference_domain() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        // Full form whose last weight contradicts 1 − Σ.
        assert!(matches!(
            engine.top_k(&[2.0, 3.0, 5.0], 2).unwrap_err(),
            UtkError::WeightsOutsideDomain { .. }
        ));
        // Reduced form outside the simplex.
        assert!(matches!(
            engine.top_k(&[0.8, 0.7], 2).unwrap_err(),
            UtkError::WeightsOutsideDomain { .. }
        ));
        assert!(matches!(
            engine.top_k(&[-0.1, 0.5], 2).unwrap_err(),
            UtkError::WeightsOutsideDomain { .. }
        ));
        // A consistent full form still passes.
        assert!(engine.top_k(&[0.2, 0.3, 0.5], 2).is_ok());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert_eq!(UtkEngine::new(vec![]).unwrap_err(), UtkError::EmptyDataset);
        assert_eq!(
            UtkEngine::new(vec![vec![1.0]]).unwrap_err(),
            UtkError::DatasetTooFlat { got: 1 }
        );
        assert!(matches!(
            UtkEngine::new(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err(),
            UtkError::DimensionMismatch { .. }
        ));
        assert_eq!(
            UtkEngine::new(vec![vec![1.0, f64::NAN]]).unwrap_err(),
            UtkError::NonFiniteInput { what: "dataset" }
        );

        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        assert_eq!(
            engine
                .run(&UtkQuery::utk1(0).region(figure1_region()))
                .unwrap_err(),
            UtkError::InvalidK { k: 0 }
        );
        assert_eq!(
            engine.run(&UtkQuery::utk1(2)).unwrap_err(),
            UtkError::MissingParameter { what: "region" }
        );
        assert!(matches!(
            engine
                .run(&UtkQuery::utk1(2).region(Region::hyperrect(vec![0.1], vec![0.2])))
                .unwrap_err(),
            UtkError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            engine
                .run(
                    &UtkQuery::utk2(2)
                        .region(figure1_region())
                        .algorithm(Algo::Rsa)
                )
                .unwrap_err(),
            UtkError::UnsupportedAlgorithm { .. }
        ));
    }

    #[test]
    fn algo_parses_from_str() {
        assert_eq!("RSA".parse::<Algo>().unwrap(), Algo::Rsa);
        assert_eq!("auto".parse::<Algo>().unwrap(), Algo::Auto);
        assert!("frobnicate".parse::<Algo>().is_err());
    }

    #[test]
    fn auto_resolves_per_query_kind() {
        assert_eq!(Algo::Auto.resolved_for(QueryKind::Utk1), Algo::Rsa);
        assert_eq!(Algo::Auto.resolved_for(QueryKind::Utk2), Algo::Jaa);
        assert_eq!(Algo::Sk.resolved_for(QueryKind::Utk1), Algo::Sk);
    }

    #[test]
    fn mutations_match_a_fresh_engine_and_bump_the_epoch() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        assert_eq!(engine.dataset_epoch(), 0);
        // Delete p3 (id 2, never in the Figure 1 answer) and insert a
        // dominant hotel.
        let report = engine
            .apply_update(&[2], vec![vec![9.9, 9.9, 9.9]])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.n, 7);
        assert_eq!((report.deleted, report.inserted), (1, 1));
        assert_eq!(engine.dataset_epoch(), 1);

        let mut model = figure1_hotels();
        model.remove(2);
        model.push(vec![9.9, 9.9, 9.9]);
        let fresh = UtkEngine::new(model).unwrap();
        let q = UtkQuery::utk1(2).region(figure1_region());
        let mutated = engine.run(&q).unwrap();
        let rebuilt = fresh.run(&q).unwrap();
        assert_eq!(mutated.records(), rebuilt.records());
        assert_eq!(mutated.stats().dataset_epoch, 1);
        assert_eq!(rebuilt.stats().dataset_epoch, 0);
    }

    #[test]
    fn targeted_invalidation_keeps_unaffected_entries_warm() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let warm = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(engine.cached_filters(), 1);

        // p3 (id 2) and p5 (id 4) are not r-skyband members here;
        // deleting p5 must keep the entry (ids remapped), and the
        // very next query is a cache hit with the same member set.
        let report = engine.delete_points(&[4]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_invalidated, 0);
        let hit = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(hit.stats.filter_cache_hits, 1);
        // Same members, ids above the deleted one shifted down.
        let expected: Vec<u32> = warm
            .records
            .iter()
            .map(|&id| if id > 4 { id - 1 } else { id })
            .collect();
        assert_eq!(hit.records, expected);

        // Deleting a member (p1 = id 0) can change the r-skyband —
        // the entry is splice-repaired in place, and the very next
        // query is a cache hit answering like a fresh build.
        let report = engine.delete_points(&[0]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_repaired, 1);
        assert_eq!(report.filter_invalidated, 0);
        let repaired = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(repaired.stats.filter_cache_hits, 1);
        let mut model = figure1_hotels();
        model.remove(4); // p5 (first delete above)
        model.remove(0); // p1
        let fresh = UtkEngine::new(model).unwrap();
        assert_eq!(
            repaired.records,
            fresh.utk1(&figure1_region(), 2).unwrap().records
        );

        // Inserting a clearly dominated record keeps the entry
        // without repair work; a dominant one splices it in.
        assert_eq!(engine.cached_filters(), 1);
        let report = engine.insert_points(vec![vec![0.1, 0.1, 0.1]]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_repaired, 0);
        let report = engine.insert_points(vec![vec![9.9, 9.9, 9.9]]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_repaired, 1);
        assert_eq!(report.filter_invalidated, 0);
        assert_eq!(engine.filter_repairs(), 2);
        assert!(engine.repair_screen_tests() > 0);

        // With repair disabled the same mutations drop the entry —
        // the drop-and-recompute baseline benchmarks measure against.
        let baseline = UtkEngine::new(figure1_hotels())
            .unwrap()
            .without_cache_repair();
        baseline.utk1(&figure1_region(), 2).unwrap();
        let report = baseline.delete_points(&[0]).unwrap();
        assert_eq!(report.filter_invalidated, 1);
        assert_eq!(report.filter_retained, 0);
        assert_eq!(baseline.filter_repairs(), 0);
    }

    #[test]
    fn mutation_error_paths_leave_the_engine_untouched() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        assert_eq!(
            engine.delete_points(&[7]).unwrap_err(),
            UtkError::UnknownRecordId { id: 7, len: 7 }
        );
        assert_eq!(
            engine.delete_points(&[3, 3]).unwrap_err(),
            UtkError::DuplicateRecordId { id: "3".into() }
        );
        assert!(matches!(
            engine.insert_points(vec![vec![1.0, 2.0]]).unwrap_err(),
            UtkError::DimensionMismatch { .. }
        ));
        assert_eq!(
            engine
                .insert_points(vec![vec![1.0, f64::NAN, 2.0]])
                .unwrap_err(),
            UtkError::NonFiniteInput {
                what: "inserted record"
            }
        );
        assert_eq!(
            engine.delete_points(&[0, 1, 2, 3, 4, 5, 6]).unwrap_err(),
            UtkError::EmptyDataset
        );
        assert_eq!(engine.dataset_epoch(), 0, "failed mutations change nothing");
        assert_eq!(engine.len(), 7);
        // And the no-op shape: nothing happened, no epoch bump.
        let report = engine.apply_update(&[], vec![]).unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(engine.dataset_epoch(), 0);
    }

    #[test]
    fn overlay_rides_small_mutations_and_rebuilds_past_threshold() {
        let points: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64, (i % 7) as f64])
            .collect();
        let engine = UtkEngine::new(points).unwrap();
        assert!(engine.index_is_packed());
        engine.delete_points(&[3]).unwrap();
        assert!(!engine.index_is_packed(), "one delete rides the overlay");
        assert_eq!(engine.index_rebuilds(), 0);
        // Pile up deletions until the overlay overhead crosses 1/2.
        let ids: Vec<u32> = (0..40).collect();
        engine.delete_points(&ids).unwrap();
        assert!(
            engine.index_rebuilds() >= 1,
            "threshold must trigger a rebuild"
        );
        // compact() packs on demand and is idempotent.
        engine.insert_points(vec![vec![1.0, 1.0, 1.0]]).unwrap();
        assert!(!engine.index_is_packed());
        engine.compact();
        assert!(engine.index_is_packed());
        let rebuilds = engine.index_rebuilds();
        engine.compact();
        assert_eq!(engine.index_rebuilds(), rebuilds);
    }

    #[test]
    fn identity_scoring_shares_cache_with_plain_queries() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let plain = engine.utk1(&figure1_region(), 2).unwrap();
        let scored = engine
            .run(
                &UtkQuery::utk1(2)
                    .region(figure1_region())
                    .scoring(GeneralScoring::linear(3)),
            )
            .unwrap();
        assert_eq!(scored.records(), plain.records);
        assert_eq!(scored.stats().filter_cache_hits, 1, "identity must share");
    }
}
