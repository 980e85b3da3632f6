//! The concurrent mining session: a `Send + Sync` [`SharedEngine`]
//! serving parallel query traffic over one relation with `&self`.
//!
//! The paper's §1.3 scenario is interactive — an analyst fires *many*
//! optimized-range queries against the *same* relation — and the
//! expensive steps of each query are shared work: a **bucketization**
//! (Algorithm 3.1: sample `S = 40·M` points, sort, cut) depends only
//! on `(attribute, M, S/M, seed)`, a **counting scan** on the
//! bucketization plus *what* is counted. Simple boolean queries
//! (`objective = (B = yes)`, no presumptive condition) share one scan
//! counting **every** Boolean attribute at once — the §6.1 all-pairs
//! trick — so after the first query on an attribute, follow-ups run in
//! O(M) optimizer time instead of O(N) scan time.
//!
//! `SharedEngine` is that session, split in two:
//!
//! * the **[`Executor`]** (see [`crate::exec`]) owns everything that
//!   does not care where rows live — the **sharded, interior-mutable,
//!   cost-aware LRU cache** (see [`crate::cache`]) bounded by a
//!   [`CacheConfig`] cost budget, singleflight, the hit/work counters,
//!   plan fan-out and rule assembly. It is the same executor the
//!   scatter-gather coordinator runs;
//! * the engine supplies the **local [`CountSource`]**: the pinned
//!   relation version scanned by `equi_depth_cuts`, the counting
//!   kernels and `GridCounts::count`, with the kernel-vs-fallback
//!   counters and data-pass histograms.
//!
//! Every method takes `&self` and many threads can mine concurrently —
//! warm lookups take one cache-shard read lock and never block on
//! unrelated shards. Counters are atomics, snapshotted as
//! [`EngineStats`] by [`stats`](SharedEngine::stats) and per cache
//! shard by [`shard_stats`](SharedEngine::shard_stats).
//!
//! Caching (including eviction) is semantically invisible: a query
//! returns the same [`RuleSet`] whether it hit, missed, or was
//! evicted and re-scanned — property-tested in
//! `tests/proptest_cache.rs` and stress-tested against a cache-free
//! oracle in the workspace `tests/concurrent_engine.rs`.
//!
//! # Live relations: generations and snapshot isolation
//!
//! The relation is **mutable by append** without giving up determinism
//! or the warm cache. The engine holds the current relation version as
//! an atomically swappable `Arc` **generation**:
//!
//! * [`append_rows`](SharedEngine::append_rows) (available when the
//!   store implements [`AppendRows`] — use a
//!   [`ChunkedRelation`](optrules_relation::ChunkedRelation) for O(k)
//!   amortized appends) builds the next version *outside* any lock
//!   readers take, then swaps it in and bumps the generation id.
//!   Writers serialize against each other on a dedicated mutex and
//!   never block in-flight queries;
//! * every query and every batch **pins** one generation
//!   ([`pin`](SharedEngine::pin)) for its whole lifetime: results are
//!   byte-identical to running the same specs against that pinned
//!   snapshot on a fresh engine — snapshot isolation, oracle-tested in
//!   `crates/core/tests/proptest_live.rs`;
//! * cache keys ([`BucketKey`]/[`ScanKey`]) carry the generation id, so
//!   a superseded generation's entries can never be served to a newer
//!   snapshot, while singleflight keeps coalescing per (generation,
//!   key). They are also **retired**: the append that makes generation
//!   `g + 1` drops every entry of a generation before `g`, keeping the
//!   just-superseded `g` for batches still pinned to it — so a stream
//!   of appends and requeries holds two generations' worth of
//!   artifacts, not a cache budget's worth of dead ones.
//!   [`clear_cache`](SharedEngine::clear_cache) is *never* needed
//!   around appends.
//!
//! ```
//! use optrules_core::{EngineConfig, QuerySpec, SharedEngine};
//! use optrules_relation::gen::{BankGenerator, DataGenerator};
//!
//! let rel = BankGenerator::default().to_relation(5_000, 3);
//! let engine = SharedEngine::with_config(
//!     rel,
//!     EngineConfig { buckets: 50, ..EngineConfig::default() },
//! );
//! // Prime the cache once, then fan out over scoped threads — every
//! // worker is served warm, and queries take &self.
//! engine.run_spec(&QuerySpec::boolean("Balance", "CardLoan")).unwrap();
//! std::thread::scope(|scope| {
//!     let engine = &engine;
//!     for target in ["CardLoan", "AutoWithdraw"] {
//!         scope.spawn(move || {
//!             let rules = engine.run_spec(&QuerySpec::boolean("Balance", target)).unwrap();
//!             assert!(!rules.attr_name.is_empty());
//!         });
//!     }
//! });
//! // All three queries shared one bucketization and one counting scan.
//! assert_eq!(engine.stats().scans, 1);
//! assert_eq!(engine.stats().scan_cache_hits, 2);
//! ```

use crate::cache::{CacheConfig, ShardStats};
use crate::error::{CoreError, Result};
use crate::exec::{CountSource, EngineStats, Executor};
use crate::plan::{self, Plan};
use crate::query::RuleSet;
use crate::ratio::Ratio;
use crate::region2d::GridCounts;
use crate::spec::QuerySpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use optrules_bucketing::{
    count_buckets_parallel, equi_depth_cuts, BucketCounts, BucketSpec, CountSpec, EquiDepthConfig,
    SamplingMethod,
};
use optrules_obs::{Histogram, HistogramSnapshot, Timer};
use optrules_relation::{
    AppendRows, Condition, Durability, DurabilityMetrics, DurabilityStats, NumAttr, RandomAccess,
    RowFrame, Schema,
};

/// Session-wide defaults for a [`SharedEngine`] (or a coordinator).
/// Every knob can be overridden per query by a [`QuerySpec`] field.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Bucket count `M` per numeric attribute (paper: up to thousands).
    pub buckets: usize,
    /// Random samples per bucket for Algorithm 3.1 (paper: 40).
    pub samples_per_bucket: u64,
    /// Seed for the sampling step (mining is deterministic given this).
    pub seed: u64,
    /// Default minimum support for optimized-confidence rules.
    pub min_support: Ratio,
    /// Default minimum confidence for optimized-support rules.
    pub min_confidence: Ratio,
    /// Worker threads for the counting scan (1 = sequential;
    /// >1 = Algorithm 3.2).
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            buckets: 1000,
            samples_per_bucket: 40,
            seed: 0x0f0f_0f0f,
            min_support: Ratio::percent(10),
            min_confidence: Ratio::percent(50),
            threads: 1,
        }
    }
}

/// Cache key for one bucketization: everything Algorithm 3.1's output
/// depends on — including the relation **generation** it sampled, so a
/// post-append query can never be served a stale bucketization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketKey {
    /// The numeric attribute being bucketized.
    pub attr: NumAttr,
    /// Number of equi-depth buckets.
    pub buckets: usize,
    /// Sample size per bucket (Algorithm 3.1's `S = samples · M`).
    pub samples_per_bucket: u64,
    /// Session sampling seed (pre-mixing; see [`attr_seed`]).
    pub seed: u64,
    /// Relation generation the bucketization was computed over.
    pub generation: u64,
}

/// What a cached counting scan counted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScanWhat {
    /// The shared simple-query scan: every Boolean attribute as a
    /// `(B = yes)` target, no presumptive filter. A structural variant
    /// so warm lookups need no spec rebuild or fingerprinting.
    AllBooleans,
    /// Any other spec, keyed by a canonical fingerprint (presumptive
    /// condition and target lists rendered via `Debug`, which
    /// distinguishes every condition shape and every `f64` bound).
    Spec(String),
}

/// Cache key for one counting scan: the bucketization, what was
/// counted, and the worker count. Threads are part of the key because
/// float *sums* depend on addition order: a parallel scan accumulates
/// per-partition, so serving its sums to a sequential query (or vice
/// versa) could differ in low bits from that query's cold run —
/// breaking the cache-is-invisible guarantee. Integer counts would be
/// safe to share, but one honest key is simpler than a split cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanKey {
    /// The bucketization the scan ran over.
    pub bucket: BucketKey,
    /// Worker threads the scan used (accumulation order matters for
    /// float sums).
    pub threads: usize,
    /// What was counted.
    pub what: ScanWhat,
}

/// The per-attribute sampling seed: the session seed mixed with the
/// attribute index so distinct attributes draw distinct samples.
///
/// Public because a coordinator reproducing a shard-distributed
/// bucketization must seed its index stream exactly as the local
/// source does.
pub fn attr_seed(seed: u64, attr: NumAttr) -> u64 {
    seed ^ (attr.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Canonical [`ScanWhat`] fingerprint of an arbitrary counting spec.
pub fn spec_fingerprint(what: &CountSpec) -> ScanWhat {
    ScanWhat::Spec(format!(
        "{:?}|{:?}|{:?}",
        what.presumptive, what.bool_targets, what.sum_targets
    ))
}

/// Cache key for one §1.4 grid-counting scan: both axis
/// bucketizations plus what was counted — an `nx × ny` grid is a
/// shareable work unit exactly like a 1-D scan, and both
/// [`BucketKey`]s carry the generation tag, so snapshot pinning and
/// generation retirement work unchanged. Unlike [`ScanKey`] there is
/// no `threads` component: a grid holds only integer counts and
/// min/max range folds, and the scan itself always runs sequentially
/// over blocks, so the artifact is identical at every worker count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridKey {
    /// The x-axis bucketization.
    pub x: BucketKey,
    /// The y-axis bucketization.
    pub y: BucketKey,
    /// What was counted (presumptive/objective fingerprint).
    pub what: ScanWhat,
}

/// Canonical [`ScanWhat`] fingerprint of a grid-counting scan's
/// conditions (the grid's axes live in [`GridKey`] itself).
pub fn grid_fingerprint(presumptive: &Condition, objective: &Condition) -> ScanWhat {
    ScanWhat::Spec(format!("grid|{presumptive:?}|{objective:?}"))
}

/// A point-in-time observability snapshot of one [`SharedEngine`]:
/// the current relation generation, the engine-level [`EngineStats`],
/// and every cache shard's counters.
///
/// Produced by [`SharedEngine::snapshot`]; encoded as JSON for the
/// server's `{"cmd":"stats"}` control frame by
/// [`stats_to_value`](crate::json::stats_to_value). Under concurrent
/// traffic the halves are snapshotted back to back, not atomically
/// together — totals may be mid-update by a few counts (`generation`
/// and `rows` are read together and are always a consistent pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Current relation generation (0 until the first append).
    pub generation: u64,
    /// Row count of the current generation.
    pub rows: u64,
    /// Engine-level work and cache counters.
    pub engine: EngineStats,
    /// Per-shard cache counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Durability counters when the relation store is durable
    /// (WAL-backed), `None` for in-memory stores.
    pub durability: Option<DurabilityStats>,
}

/// The outcome of one [`SharedEngine::append_rows`] call — the payload
/// of the server's `{"cmd":"append"}` acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Generation the append produced (unchanged if `appended == 0`).
    pub generation: u64,
    /// Rows appended by this call.
    pub appended: u64,
    /// Total rows in the new generation.
    pub total_rows: u64,
}

/// One pinned relation generation: an `Arc` of the relation version
/// plus its generation id, as returned by [`SharedEngine::pin`].
///
/// A query or batch holds one `Pinned` for its whole lifetime, so
/// concurrent appends can never change what it scans — and because the
/// generation id is part of every cache key it touches, it can never
/// be served another generation's cached artifacts either.
#[derive(Debug)]
pub struct Pinned<R> {
    rel: Arc<R>,
    generation: u64,
}

// Manual impl: the `Arc` clones regardless of whether `R: Clone`.
impl<R> Clone for Pinned<R> {
    fn clone(&self) -> Self {
        Self {
            rel: Arc::clone(&self.rel),
            generation: self.generation,
        }
    }
}

impl<R: RandomAccess> Pinned<R> {
    /// The pinned generation id.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Row count of the pinned generation.
    pub fn rows(&self) -> u64 {
        self.rel.len()
    }

    /// The pinned relation version.
    pub fn relation(&self) -> &Arc<R> {
        &self.rel
    }
}

/// The swappable generation state: id + relation version, swapped
/// together under one lock so a pin always sees a consistent pair.
#[derive(Debug)]
struct GenState<R> {
    id: u64,
    rel: Arc<R>,
}

/// A concurrent, long-lived mining session over one relation.
///
/// See the [module docs](self) for the concurrency and eviction model.
/// All query entry points take `&self`; share the engine across scoped
/// threads by reference (it is `Send + Sync` whenever the relation
/// is). The engine takes the relation by value; to mine a relation you
/// only have a reference to, pass the reference itself — `&R`
/// implements the scanning traits too.
#[derive(Debug)]
pub struct SharedEngine<R: RandomAccess> {
    /// Current generation; readers take the read lock only to clone the
    /// `Arc` (a pin), writers only to swap it.
    current: RwLock<GenState<R>>,
    /// Serializes appenders; never held while queries pin or scan, so a
    /// slow append build blocks other writers only.
    writer: Mutex<()>,
    /// The schema, immutable across generations (appends cannot change
    /// it), so resolution never needs to pin.
    schema: Schema,
    config: EngineConfig,
    cache_config: CacheConfig,
    exec: Executor,
    obs: ScanObs,
}

/// The local source's data-pass observability: which scan path the
/// storage took, and per-phase latency histograms — recorded at the
/// *compute* sites only, so cache hits stay free and the counts line up
/// with the executor's work counters in [`EngineStats`].
#[derive(Debug, Default)]
struct ScanObs {
    kernel_scans: AtomicU64,
    fallback_scans: AtomicU64,
    /// Algorithm 3.1 bucketizations (sample + sort + cut).
    bucketize: Histogram,
    /// Counting scans through the columnar kernels.
    kernel_scan: Histogram,
    /// Counting scans through the row-visitor fallback.
    fallback_scan: Histogram,
}

/// Snapshot of the engine's phase histograms — the `engine` object of
/// the server's `{"cmd":"metrics"}` reply.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Algorithm 3.1 bucketizations (sample + sort + cut).
    pub bucketize: HistogramSnapshot,
    /// Counting scans through the columnar kernels.
    pub kernel_scan: HistogramSnapshot,
    /// Counting scans through the row-visitor fallback.
    pub fallback_scan: HistogramSnapshot,
    /// Rule assembly (the optimization step over bucket summaries).
    pub optimize: HistogramSnapshot,
}

/// The local [`CountSource`]: Algorithm 3.1 and the counting kernels
/// over one pinned relation version. With `obs` it is the engine's own
/// data pass (kernel-vs-fallback counters, phase histograms); without,
/// the raw scan a shard runs for a coordinator's `count` / `count2d`
/// frame — the coordinator owns caching, deduplication and the
/// observability for that work, so nothing is tallied here.
pub(crate) struct LocalSource<'a, R> {
    rel: &'a R,
    obs: Option<&'a ScanObs>,
}

impl<'a, R: RandomAccess> LocalSource<'a, R> {
    /// The untallied source behind a shard's internal frames.
    pub(crate) fn raw(rel: &'a R) -> Self {
        Self { rel, obs: None }
    }

    /// Runs one scan, recording which path this storage takes; parallel
    /// workers share the capability of `rel`, so one scan is wholly
    /// kernel or wholly fallback.
    fn scan<T>(&self, scan: impl FnOnce() -> Result<T>) -> Result<T> {
        let Some(obs) = self.obs else { return scan() };
        let (path_counter, path_histogram) = if self.rel.as_columnar().is_some() {
            (&obs.kernel_scans, &obs.kernel_scan)
        } else {
            (&obs.fallback_scans, &obs.fallback_scan)
        };
        path_counter.fetch_add(1, Ordering::Relaxed);
        let timer = Timer::start();
        let scanned = scan()?;
        timer.stop(path_histogram);
        Ok(scanned)
    }
}

impl<R: RandomAccess> CountSource for LocalSource<'_, R> {
    type Error = CoreError;

    fn bucketize(&self, key: BucketKey) -> Result<BucketSpec> {
        let cfg = EquiDepthConfig {
            buckets: key.buckets,
            samples_per_bucket: key.samples_per_bucket,
            seed: attr_seed(key.seed, key.attr),
            method: SamplingMethod::WithReplacement,
        };
        let timer = Timer::start();
        let spec = equi_depth_cuts(self.rel, key.attr, &cfg)?;
        if let Some(obs) = self.obs {
            timer.stop(&obs.bucketize);
        }
        Ok(spec)
    }

    fn count(
        &self,
        attr: NumAttr,
        cuts: &BucketSpec,
        what: Option<&CountSpec>,
        threads: usize,
    ) -> Result<BucketCounts> {
        // The shared simple-query scan counts every Boolean attribute
        // at once; its spec is only built here, on a cold miss.
        let all_booleans;
        let what = match what {
            Some(what) => what,
            None => {
                all_booleans = CountSpec::all_booleans(attr, self.rel.schema());
                &all_booleans
            }
        };
        // One worker is the plain sequential scan.
        self.scan(|| {
            Ok(count_buckets_parallel(
                self.rel,
                cuts,
                what,
                threads.max(1),
            )?)
        })
    }

    fn count_grid(
        &self,
        x_attr: NumAttr,
        y_attr: NumAttr,
        x_cuts: &BucketSpec,
        y_cuts: &BucketSpec,
        presumptive: &Condition,
        objective: &Condition,
    ) -> Result<GridCounts> {
        self.scan(|| {
            GridCounts::count(
                self.rel,
                x_attr,
                y_attr,
                x_cuts,
                y_cuts,
                presumptive,
                objective,
            )
        })
    }
}

impl<R: RandomAccess> SharedEngine<R> {
    /// Creates a shared engine over `rel` with default session and
    /// cache configuration.
    pub fn new(rel: R) -> Self {
        Self::with_cache(rel, EngineConfig::default(), CacheConfig::default())
    }

    /// Creates a shared engine with the given session defaults and the
    /// default bounded cache.
    pub fn with_config(rel: R, config: EngineConfig) -> Self {
        Self::with_cache(rel, config, CacheConfig::default())
    }

    /// Creates a shared engine with explicit session and cache
    /// configuration.
    pub fn with_cache(rel: R, config: EngineConfig, cache: CacheConfig) -> Self {
        Self::from_arc(Arc::new(rel), config, cache)
    }

    /// Creates a shared engine over an already-shared relation — e.g.
    /// to run several sessions (different configs) over one relation
    /// without copying it.
    pub fn from_arc(rel: Arc<R>, config: EngineConfig, cache: CacheConfig) -> Self {
        Self::from_arc_at(rel, 0, config, cache)
    }

    /// Like [`from_arc`](Self::from_arc), starting the generation
    /// counter at `generation` instead of 0 — used when resuming a
    /// recovered durable relation so generation ids stay continuous
    /// across restarts.
    pub fn from_arc_at(
        rel: Arc<R>,
        generation: u64,
        config: EngineConfig,
        cache: CacheConfig,
    ) -> Self {
        Self {
            schema: rel.schema().clone(),
            current: RwLock::new(GenState {
                id: generation,
                rel,
            }),
            writer: Mutex::new(()),
            config,
            cache_config: cache,
            exec: Executor::new(cache),
            obs: ScanObs::default(),
        }
    }

    /// The session defaults.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cache sizing policy.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache_config
    }

    /// The relation schema — shared by every generation (appends cannot
    /// change it).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Pins the current generation: the returned handle keeps that
    /// relation version alive and scannable no matter how many appends
    /// land afterwards. Every query/batch entry point pins internally;
    /// call this directly to observe the generation id and row count as
    /// one consistent pair.
    pub fn pin(&self) -> Pinned<R> {
        let current = self.current.read().expect("generation lock poisoned");
        Pinned {
            rel: Arc::clone(&current.rel),
            generation: current.id,
        }
    }

    /// The current generation id: 0 at construction, +1 per non-empty
    /// [`append_rows`](Self::append_rows).
    pub fn generation(&self) -> u64 {
        self.current.read().expect("generation lock poisoned").id
    }

    /// The current generation's relation version (a pin without the
    /// metadata — the `Arc` stays valid and bit-stable forever).
    pub fn relation(&self) -> Arc<R> {
        Arc::clone(&self.current.read().expect("generation lock poisoned").rel)
    }

    /// Consumes the engine and returns the current generation's shared
    /// relation handle.
    pub fn into_relation(self) -> Arc<R> {
        self.current
            .into_inner()
            .expect("generation lock poisoned")
            .rel
    }

    /// Appends rows, producing the next relation generation. The new
    /// version is built copy-on-write *outside* any lock queries take
    /// (O(k) amortized with a
    /// [`ChunkedRelation`](optrules_relation::ChunkedRelation) store),
    /// then swapped in atomically:
    ///
    /// * concurrent appenders serialize on a writer mutex — appends
    ///   apply in a total order;
    /// * in-flight queries and batches are untouched: they pinned a
    ///   generation and keep scanning it (snapshot isolation);
    /// * no lookup can reach a superseded generation's cache entries
    ///   (keys carry the generation), and the append that makes
    ///   generation `g + 1` retires every entry older than `g`. The
    ///   just-superseded `g` stays for batches still pinned to it.
    ///   These drops are not `evictions`, which stays the
    ///   budget-pressure signal.
    ///
    /// Appending zero rows is a no-op that does **not** bump the
    /// generation.
    ///
    /// # Errors
    ///
    /// Fails if any row's arities do not match the schema; the
    /// generation is unchanged.
    pub fn append_rows(&self, rows: &[RowFrame]) -> Result<AppendOutcome>
    where
        R: AppendRows,
    {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let current = self.pin();
        if rows.is_empty() {
            return Ok(AppendOutcome {
                generation: current.generation(),
                appended: 0,
                total_rows: current.rows(),
            });
        }
        // Built outside the generation lock: readers pin and scan
        // freely while this runs. The writer mutex makes `current` the
        // latest version — no other append can land in between.
        let next = Arc::new(current.rel.with_rows(rows)?);
        let total_rows = next.len();
        let generation = {
            let mut current = self.current.write().expect("generation lock poisoned");
            current.id += 1;
            current.rel = next;
            current.id
        };
        self.exec.retire_before(generation - 1);
        Ok(AppendOutcome {
            generation,
            appended: rows.len() as u64,
            total_rows,
        })
    }

    /// Cache/work counters since construction (or the last
    /// [`clear_cache`](Self::clear_cache)), snapshotted from atomics.
    /// Under concurrent traffic the snapshot is a consistent *final*
    /// tally only once in-flight queries have finished.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            kernel_scans: self.obs.kernel_scans.load(Ordering::Relaxed),
            fallback_scans: self.obs.fallback_scans.load(Ordering::Relaxed),
            bucketize_ns: self.obs.bucketize.sum(),
            kernel_scan_ns: self.obs.kernel_scan.sum(),
            fallback_scan_ns: self.obs.fallback_scan.sum(),
            ..self.exec.stats()
        }
    }

    /// Per-phase latency histograms, snapshotted for the
    /// `{"cmd":"metrics"}` wire frame.
    pub fn engine_metrics(&self) -> EngineMetrics {
        EngineMetrics {
            bucketize: self.obs.bucketize.snapshot(),
            kernel_scan: self.obs.kernel_scan.snapshot(),
            fallback_scan: self.obs.fallback_scan.snapshot(),
            optimize: self.exec.optimize_metrics(),
        }
    }

    /// Durability latency histograms of the current relation version
    /// (WAL fsync, spill checkpoint), or `None` for in-memory stores.
    pub fn durability_metrics(&self) -> Option<DurabilityMetrics>
    where
        R: Durability,
    {
        self.pin().relation().durability_metrics()
    }

    /// One coherent observability snapshot: the current generation and
    /// row count, the engine-level counters, and the per-shard cache
    /// breakdown. This is the payload of the server's `{"cmd":"stats"}`
    /// control frame (see [`crate::server`] and
    /// [`crate::json::stats_to_value`]).
    pub fn snapshot(&self) -> StatsSnapshot
    where
        R: Durability,
    {
        let pinned = self.pin();
        StatsSnapshot {
            generation: pinned.generation(),
            rows: pinned.rows(),
            engine: self.stats(),
            shards: self.shard_stats(),
            durability: pinned.relation().durability_stats(),
        }
    }

    /// Forces a durability checkpoint: spills the in-memory tail to a
    /// segment file and truncates the write-ahead log, then swaps the
    /// checkpointed version in as the current relation. Returns the
    /// current generation id.
    ///
    /// The swap does **not** bump the generation: the checkpointed
    /// version holds the same rows in the same order, so every cache
    /// entry tagged with the current generation stays valid, and pinned
    /// snapshots are untouched. For stores without durability
    /// ([`Durability`]'s no-op default) this is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the spill or manifest write.
    pub fn flush(&self) -> Result<u64>
    where
        R: Durability,
    {
        // Same exclusion as appends: `current` is the latest version
        // and stays the latest while the checkpoint runs.
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let current = self.pin();
        if let Some(next) = current.relation().checkpointed()? {
            let mut state = self.current.write().expect("generation lock poisoned");
            state.rel = Arc::new(next);
        }
        Ok(self.generation())
    }

    /// Per-shard cache counters (hit/miss/eviction/cost), for
    /// observing shard balance under concurrent traffic.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.exec.shard_stats()
    }

    /// Current total cost of all cached entries, in cells. Never
    /// exceeds [`CacheConfig::max_cost`].
    pub fn cache_cost(&self) -> u64 {
        self.exec.stats().cached_cost
    }

    /// Drops all cached bucketizations and scans and resets the
    /// counters. Never needed around [`append_rows`](Self::append_rows)
    /// — generation-tagged cache keys make stale entries unreachable and
    /// the append retires them — nor for sizing (the bounded cache
    /// evicts on its own); it exists for tests and for reclaiming
    /// memory eagerly.
    pub fn clear_cache(&self) {
        self.exec.clear();
        self.obs.kernel_scans.store(0, Ordering::Relaxed);
        self.obs.fallback_scans.store(0, Ordering::Relaxed);
        self.obs.bucketize.reset();
        self.obs.kernel_scan.reset();
        self.obs.fallback_scan.reset();
    }

    /// Mines the full §1.3 sweep ([`QuerySpec::all_pairs`]) as one
    /// batch fanned out over `threads` scoped worker threads. Results
    /// come back in the specs' numeric-major order regardless of
    /// `threads` — and, because each query is deterministic and cache
    /// effects are invisible, the `RuleSet`s themselves are identical
    /// to running the specs one by one.
    ///
    /// # Errors
    ///
    /// Returns the first error in pair order, if any query fails.
    pub fn mine_all_pairs(&self, threads: usize) -> Result<Vec<RuleSet>> {
        self.run_batch(&QuerySpec::all_pairs(self.schema()), threads)
            .into_iter()
            .collect()
    }

    /// Runs one [`QuerySpec`]. Pins the current generation for the
    /// whole run: a concurrent append cannot change what this query
    /// scans.
    ///
    /// # Errors
    ///
    /// Fails on unknown attribute names, invalid thresholds, or
    /// bucketing/storage errors.
    pub fn run_spec(&self, spec: &QuerySpec) -> Result<RuleSet> {
        let pinned = self.pin();
        let resolved = plan::resolve(&self.schema, &self.config, pinned.generation(), spec)?;
        self.exec.answer(&self.source(&pinned.rel), &resolved)
    }

    /// The engine's own data pass over one pinned relation version.
    fn source<'a>(&'a self, rel: &'a R) -> LocalSource<'a, R> {
        LocalSource {
            rel,
            obs: Some(&self.obs),
        }
    }

    /// Compiles a batch of specs into its [`Plan`] without executing:
    /// the distinct bucketization and counting-scan work units, for
    /// inspecting what a batch will cost. Touches neither the relation
    /// data nor the cache. Compiled against the current generation.
    pub fn plan_batch(&self, specs: &[QuerySpec]) -> Plan {
        Plan::compile(&self.schema, &self.config, self.generation(), specs)
    }

    /// Plans and executes a batch of specs: distinct work units are
    /// deduplicated across the whole batch and executed **once each**
    /// over `threads` scoped worker threads (bucketizations first,
    /// then counting scans), after which every query is assembled from
    /// the warm cache in input order — see
    /// [`Executor::run_plan`].
    ///
    /// The batch pins **one** generation up front: every query in it
    /// sees the same relation snapshot even while appends land
    /// concurrently, and results are byte-identical to calling
    /// [`run_spec`](Self::run_spec) on each spec in order against that
    /// snapshot, at every `threads` value — node execution order cannot
    /// matter because each node's output depends only on its key, and
    /// per-scan parallelism is part of the key (`QuerySpec::threads`).
    ///
    /// Specs that fail (unknown names, bad thresholds, bucketing
    /// errors) fail individually; the rest of the batch is unaffected.
    pub fn run_batch(&self, specs: &[QuerySpec], threads: usize) -> Vec<Result<RuleSet>> {
        let pinned = self.pin();
        let plan = Plan::compile(&self.schema, &self.config, pinned.generation(), specs);
        self.exec.run_plan(&self.source(&pinned.rel), plan, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;
    use optrules_relation::gen::{BankGenerator, DataGenerator};
    use optrules_relation::{Relation, TupleScan};

    fn bank_shared(rows: u64, seed: u64, buckets: usize) -> SharedEngine<Relation> {
        let rel = BankGenerator::default().to_relation(rows, seed);
        SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets,
                seed: 7,
                min_support: Ratio::percent(10),
                min_confidence: Ratio::percent(62),
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedEngine<Relation>>();
        assert_send_sync::<SharedEngine<&Relation>>();
    }

    #[test]
    fn concurrent_queries_share_one_scan() {
        let engine = bank_shared(5_000, 3, 50);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for target in ["CardLoan", "AutoWithdraw", "OnlineBanking"] {
                        engine
                            .run_spec(&QuerySpec::boolean("Balance", target))
                            .unwrap();
                    }
                });
            }
        });
        let stats = engine.stats();
        // Concurrent cold misses may duplicate the initial scan, but
        // the steady state holds exactly one bucketization + one scan.
        assert!(stats.scans >= 1);
        assert!(engine.cache_cost() > 0);
        assert_eq!(stats.hits() + stats.misses(), stats.lookups);
        // A follow-up query is warm.
        let before = engine.stats().scan_cache_hits;
        engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        assert_eq!(engine.stats().scan_cache_hits, before + 1);
    }

    #[test]
    fn mine_all_pairs_matches_lazy_iterator_any_thread_count() {
        let engine = bank_shared(5_000, 3, 50);
        let specs = QuerySpec::all_pairs(engine.schema());
        let lazy: Vec<_> = specs.iter().map(|s| engine.run_spec(s).unwrap()).collect();
        // 4 numeric × 3 boolean attributes, streamed numeric-major, one
        // scan per numeric attribute.
        assert_eq!(lazy.len(), 12);
        assert_eq!(lazy[0].attr_name, lazy[2].attr_name);
        let stats = engine.stats();
        assert_eq!((stats.scans, stats.scan_cache_hits), (4, 8));
        for threads in [1, 2, 4, 8] {
            let fanned = engine.mine_all_pairs(threads).unwrap();
            assert_eq!(fanned, lazy, "threads={threads}");
        }
    }

    #[test]
    fn tiny_cache_still_answers_correctly() {
        let rel = BankGenerator::default().to_relation(4_000, 9);
        let bounded = SharedEngine::with_cache(
            rel.clone(),
            EngineConfig {
                buckets: 40,
                seed: 7,
                ..EngineConfig::default()
            },
            CacheConfig {
                max_cost: 64,
                shards: 2,
            },
        );
        let unbounded = SharedEngine::with_cache(
            rel,
            EngineConfig {
                buckets: 40,
                seed: 7,
                ..EngineConfig::default()
            },
            CacheConfig::unbounded(),
        );
        for attr in ["Balance", "Age", "CheckingAccount"] {
            let b = bounded
                .run_spec(&QuerySpec::boolean(attr, "CardLoan"))
                .unwrap();
            let u = unbounded
                .run_spec(&QuerySpec::boolean(attr, "CardLoan"))
                .unwrap();
            assert_eq!(b, u, "{attr}");
            assert!(bounded.cache_cost() <= 64);
        }
    }

    #[test]
    fn failed_queries_keep_the_stats_identity() {
        let engine = bank_shared(1_000, 1, 10);
        // Miss both caches, then fail inside the bucketization.
        assert!(engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan").buckets(0))
            .is_err());
        let stats = engine.stats();
        assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
        // The failed attempt is visible as work, not silently dropped.
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.bucketizations, 1);
        // A later healthy query still behaves normally.
        engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
    }

    #[test]
    fn appends_bump_generations_and_pins_stay_stable() {
        use optrules_relation::{ChunkedRelation, RowFrame};
        let rel = ChunkedRelation::new(BankGenerator::default().to_relation(2_000, 3));
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 20,
                seed: 7,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.generation(), 0);
        let pinned = engine.pin();
        assert_eq!((pinned.generation(), pinned.rows()), (0, 2_000));

        let row = RowFrame {
            numeric: vec![3_100.0, 41.0, 1_200.0, 15_000.0],
            boolean: vec![true, false, true],
        };
        let outcome = engine.append_rows(&[row.clone(), row.clone()]).unwrap();
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.appended, 2);
        assert_eq!(outcome.total_rows, 2_002);
        assert_eq!(engine.generation(), 1);
        // The old pin still sees the old snapshot.
        assert_eq!((pinned.generation(), pinned.rows()), (0, 2_000));
        assert_eq!(engine.pin().rows(), 2_002);

        // Queries reflect the generation they pin.
        let rules = engine.run_spec(&QuerySpec::boolean("Balance", "CardLoan"));
        assert_eq!(rules.unwrap().total_rows, 2_002);

        // An empty append is a no-op, not a generation bump.
        let outcome = engine.append_rows(&[]).unwrap();
        assert_eq!((outcome.generation, outcome.appended), (1, 0));
        assert_eq!(engine.generation(), 1);

        // A malformed row appends nothing.
        let bad = RowFrame {
            numeric: vec![1.0],
            boolean: vec![true],
        };
        assert!(engine.append_rows(&[bad]).is_err());
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.pin().rows(), 2_002);

        // The snapshot exposes the generation/rows pair.
        let snapshot = engine.snapshot();
        assert_eq!((snapshot.generation, snapshot.rows), (1, 2_002));
    }

    #[test]
    fn superseded_generations_are_retired_not_evicted() {
        use optrules_relation::{ChunkedRelation, RowFrame};
        let rel = ChunkedRelation::new(BankGenerator::default().to_relation(2_000, 3));
        let config = EngineConfig {
            buckets: 20,
            seed: 7,
            ..EngineConfig::default()
        };
        let engine = SharedEngine::with_config(rel, config);
        let spec = QuerySpec::boolean("Balance", "CardLoan");
        let row = RowFrame {
            numeric: vec![3_100.0, 41.0, 1_200.0, 15_000.0],
            boolean: vec![true, false, true],
        };
        // One generation caches one bucketization and one all-Booleans
        // scan: at most 20 cuts plus 20 buckets of 3 + 3 cells.
        let one_generation = 20 + 20 * 6;
        for cycle in 0..50 {
            engine.append_rows(std::slice::from_ref(&row)).unwrap();
            engine.run_spec(&spec).unwrap();
            let stats = engine.stats();
            assert!(
                stats.cached_cost <= 2 * one_generation,
                "cycle {cycle}: {} cells cached",
                stats.cached_cost
            );
            assert_eq!(stats.evictions, 0, "retirement is not eviction");
        }
        assert_eq!(engine.stats().scans, 50);

        // A batch pinned across one append still hits its entries: the
        // just-superseded generation is kept.
        let pinned = engine.pin();
        let resolved =
            plan::resolve(&engine.schema, &engine.config, pinned.generation(), &spec).unwrap();
        let source = engine.source(&pinned.rel);
        let before = engine.exec.answer(&source, &resolved).unwrap();
        engine.append_rows(std::slice::from_ref(&row)).unwrap();
        let hits = engine.stats().hits();
        let after = engine.exec.answer(&source, &resolved).unwrap();
        assert_eq!(after, before);
        assert_eq!(engine.stats().scans, 50, "served from the cache");
        assert!(engine.stats().hits() > hits);
        // One more append retires it.
        engine.append_rows(std::slice::from_ref(&row)).unwrap();
        engine.exec.answer(&source, &resolved).unwrap();
        assert_eq!(engine.stats().scans, 51, "retired two appends on");
    }

    #[test]
    fn stale_generation_cache_entries_are_never_served() {
        use optrules_relation::{ChunkedRelation, RowFrame};
        let rel = ChunkedRelation::new(BankGenerator::default().to_relation(2_000, 3));
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 20,
                seed: 7,
                ..EngineConfig::default()
            },
        );
        let before = engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        assert_eq!(engine.stats().scans, 1);
        engine
            .append_rows(&[RowFrame {
                numeric: vec![3_100.0, 41.0, 1_200.0, 15_000.0],
                boolean: vec![true, false, true],
            }])
            .unwrap();
        // Same spec, new generation: a fresh scan, not the cached one.
        let after = engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        assert_eq!(engine.stats().scans, 2);
        assert_eq!(before.total_rows, 2_000);
        assert_eq!(after.total_rows, 2_001);
        // Re-running on the current generation is warm again.
        engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.scans, 2);
        assert_eq!(stats.scan_cache_hits, 1);
        assert_eq!(stats.hits() + stats.misses(), stats.lookups);
    }

    #[test]
    fn clear_cache_takes_shared_self() {
        let engine = bank_shared(2_000, 9, 20);
        let query = || {
            engine
                .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
                .unwrap()
        };
        query();
        engine.clear_cache();
        assert_eq!(engine.stats(), EngineStats::default());
        // The cleared entry is recomputed, not remembered.
        query();
        assert_eq!(engine.stats().scans, 1);
    }

    #[test]
    fn recovers_planted_rule_through_run_spec() {
        let engine = bank_shared(40_000, 11, 200);
        let rules = engine
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        let sup = rules.optimized_support().expect("confident range exists");
        assert!(sup.value_range.0 > 2500.0 && sup.value_range.0 < 3500.0);
        assert!(sup.value_range.1 > 7500.0 && sup.value_range.1 < 8500.0);
        assert!(sup.confidence() >= 0.62);
        let conf = rules.optimized_confidence().expect("ample range exists");
        assert!(conf.support() >= 0.099);
    }

    #[test]
    fn empty_relation_yields_error() {
        let rel = Relation::new(Schema::builder().numeric("X").boolean("B").build());
        let engine = SharedEngine::new(rel);
        assert!(engine.run_spec(&QuerySpec::boolean("X", "B")).is_err());
    }

    #[test]
    fn unknown_names_surface_as_errors_not_panics() {
        let engine = bank_shared(1_000, 1, 10);
        assert!(engine
            .run_spec(&QuerySpec::boolean("NoSuchAttr", "CardLoan"))
            .is_err());
        assert!(engine
            .run_spec(&QuerySpec::boolean("Balance", "NoSuchBool"))
            .is_err());
    }

    #[test]
    fn into_relation_hands_back_the_current_generation() {
        let engine = bank_shared(1_000, 1, 10);
        let rel = Arc::try_unwrap(engine.into_relation()).expect("no pins outstanding");
        assert_eq!(rel.len(), 1_000);
    }
}
