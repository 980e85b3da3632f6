//! The one plan executor: cache → singleflight → count → assemble.
//!
//! Every answer in this system is the same pipeline — Algorithm 3.1
//! bucket cuts, one counting pass, an O(M) optimizer over the bucket
//! summaries — and only the counting pass cares where the rows live.
//! [`Executor`] owns everything that does *not* care: the bounded
//! artifact cache, the singleflight that makes concurrent cold misses
//! compute once, the hit/work counters behind [`EngineStats`], the
//! compact-once-then-cache rule, the `optimize` timer, per-query
//! assembly, and the three-phase [`run_plan`](Executor::run_plan)
//! fan-out. The data pass sits behind the three-method [`CountSource`]
//! trait, with two production implementations:
//!
//! * the **local** source of [`SharedEngine`](crate::SharedEngine) — a
//!   pinned relation version scanned by the counting kernels;
//! * the **shard-set** source of the `optrules-coord` coordinator —
//!   the same three steps fanned out over `optrules serve` shards and
//!   merged in shard order.
//!
//! Dispatch is static (`S: CountSource`, no `dyn` on the request
//! path), and a source's `Error` only has to absorb [`CoreError`], so
//! a coordinator keeps its structured per-shard error envelope while a
//! single node keeps plain `CoreError`s.

use crate::cache::{CacheConfig, FlightRole, ShardStats, ShardedCache};
use crate::error::CoreError;
use crate::plan::{self, Plan, ResolvedQuery};
use crate::query::RuleSet;
use crate::region2d::GridCounts;
use crate::shared::{BucketKey, GridKey, ScanKey};
use optrules_bucketing::{BucketCounts, BucketSpec, CountSpec};
use optrules_obs::{Histogram, HistogramSnapshot, Timer};
use optrules_relation::{Condition, NumAttr};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where the rows live: the data pass of the pipeline, and nothing
/// else. Implementations run **uncached** — the [`Executor`] decides
/// when a call is needed at all — and return **raw** artifacts:
/// `count` leaves its buckets uncompacted (the executor compacts once
/// before caching), so partials from several places stay bucket-aligned
/// for merging inside the source.
pub trait CountSource: Sync {
    /// The source's failure type; plan resolution and optimizer errors
    /// enter it through `From<CoreError>`.
    type Error: From<CoreError>;

    /// Algorithm 3.1 steps 1–3: sample, sort, cut — the bucket
    /// boundaries for `key` over the snapshot this source reads.
    ///
    /// # Errors
    ///
    /// Fails on an empty relation, zero buckets, or storage/transport
    /// errors.
    fn bucketize(&self, key: BucketKey) -> Result<BucketSpec, Self::Error>;

    /// Algorithm 3.1 step 4: one counting scan of `attr` over `cuts`
    /// with `threads` workers. `what == None` is the shared
    /// all-Booleans scan (every Boolean attribute as a `(B = yes)`
    /// target, no presumptive filter).
    ///
    /// # Errors
    ///
    /// Propagates counting/storage/transport errors.
    fn count(
        &self,
        attr: NumAttr,
        cuts: &BucketSpec,
        what: Option<&CountSpec>,
        threads: usize,
    ) -> Result<BucketCounts, Self::Error>;

    /// The §1.4 grid-counting scan over both axes' cuts.
    ///
    /// # Errors
    ///
    /// Propagates counting/storage/transport errors.
    fn count_grid(
        &self,
        x_attr: NumAttr,
        y_attr: NumAttr,
        x_cuts: &BucketSpec,
        y_cuts: &BucketSpec,
        presumptive: &Condition,
        objective: &Condition,
    ) -> Result<GridCounts, Self::Error>;
}

/// Cache and work counters of one [`Executor`] (plus, on a
/// [`SharedEngine`](crate::SharedEngine), its local source's
/// kernel/fallback split), for observability and for asserting that
/// repeated queries really skip the O(N) work.
///
/// Snapshotted from atomics; at quiescence (no in-flight queries) the
/// identity `hits() + misses() == lookups` holds exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Bucketizations computed (sample + sort + cut runs), counted at
    /// cache-miss time — a query that misses and then fails (zero
    /// buckets, empty relation, I/O error) still counts here, keeping
    /// the `hits() + misses() == lookups` identity exact.
    pub bucketizations: u64,
    /// Bucketizations served from the cache.
    pub bucket_cache_hits: u64,
    /// Counting scans run (full passes over the relation), counted at
    /// cache-miss time like [`bucketizations`](Self::bucketizations).
    pub scans: u64,
    /// Counting scans served from the cache.
    pub scan_cache_hits: u64,
    /// Executed counting scans that ran through the columnar kernels
    /// (storage exposed `TupleScan::as_columnar`: in-memory, file, and
    /// chunked/durable relations all do). At quiescence
    /// `kernel_scans + fallback_scans == scans`.
    pub kernel_scans: u64,
    /// Executed counting scans that fell back to the generic row
    /// visitor (storage without the columnar capability).
    pub fallback_scans: u64,
    /// Cold misses that parked on another thread's in-flight
    /// computation instead of duplicating it (singleflight). Counted
    /// as cache hits in [`hits`](Self::hits) — the waiter was served a
    /// computed value without doing O(N) work itself.
    pub coalesced_waits: u64,
    /// Cache entries evicted to stay under the
    /// [`CacheConfig::max_cost`] budget.
    pub evictions: u64,
    /// Cache insertions refused because the entry alone exceeded its
    /// shard's budget (the artifact was computed and served, just not
    /// retained — a persistently non-zero rate means the cache is
    /// sized below one working-set entry).
    pub rejected: u64,
    /// Total cache lookups (bucketizations + scans, hits + misses).
    pub lookups: u64,
    /// Current total cost of cached entries, in cells (one cached
    /// `u64`/`f64`). Never exceeds the configured `max_cost`.
    pub cached_cost: u64,
    /// Total wall time spent computing bucketizations, in nanoseconds
    /// (the sum of the `bucketize` latency histogram; 0 under the
    /// frozen clock or with metrics disabled).
    pub bucketize_ns: u64,
    /// Total wall time in columnar-kernel counting scans, nanoseconds.
    pub kernel_scan_ns: u64,
    /// Total wall time in row-visitor fallback counting scans,
    /// nanoseconds.
    pub fallback_scan_ns: u64,
    /// Total wall time in the optimization step (rule assembly over
    /// bucket summaries), nanoseconds.
    pub optimize_ns: u64,
}

impl EngineStats {
    /// Lookups served from the cache (bucket + scan hits).
    pub fn hits(&self) -> u64 {
        self.bucket_cache_hits + self.scan_cache_hits
    }

    /// Lookups that had to compute (bucketizations + scans executed).
    pub fn misses(&self) -> u64 {
        self.bucketizations + self.scans
    }
}

/// All three artifact kinds share one sharded cache (and hence one
/// cost budget), keyed by this enum.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Bucket(BucketKey),
    Scan(ScanKey),
    Grid(GridKey),
}

impl CacheKey {
    /// The relation generation the artifact was computed over (a
    /// grid's two axes always share one).
    fn generation(&self) -> u64 {
        match self {
            CacheKey::Bucket(key) => key.generation,
            CacheKey::Scan(key) => key.bucket.generation,
            CacheKey::Grid(key) => key.x.generation,
        }
    }
}

/// The artifact stored under a [`CacheKey`].
#[derive(Debug, Clone)]
enum CacheValue {
    /// Bucket boundaries.
    Spec(Arc<BucketSpec>),
    /// Compacted per-bucket counts.
    Counts(Arc<BucketCounts>),
    /// Per-cell grid counts (§1.4).
    Grid(Arc<GridCounts>),
}

impl CacheValue {
    /// Cost in cells (one cached `u64`/`f64`): a bucketization holds
    /// its cut points; a counting scan `u`, the per-bucket range
    /// (2 cells) and one row per Boolean/sum target; a grid `u` and
    /// `v` per cell plus the per-axis observed ranges (2 cells each).
    fn cost(&self) -> u64 {
        let cells = match self {
            CacheValue::Spec(spec) => spec.bucket_count() as u64,
            CacheValue::Counts(counts) => {
                let per_bucket = 3 + counts.bool_v.len() as u64 + counts.sums.len() as u64;
                counts.bucket_count() as u64 * per_bucket
            }
            CacheValue::Grid(grid) => {
                2 * (grid.nx() * grid.ny()) as u64 + 2 * (grid.nx() + grid.ny()) as u64
            }
        };
        cells.max(1)
    }
}

/// Executor-level work counters (the cache tracks lookups/evictions
/// itself). Relaxed ordering: observability data, not synchronization.
#[derive(Debug, Default)]
struct WorkCounters {
    bucketizations: AtomicU64,
    bucket_cache_hits: AtomicU64,
    scans: AtomicU64,
    scan_cache_hits: AtomicU64,
    coalesced_waits: AtomicU64,
}

/// The transport- and storage-independent half of a mining session;
/// see the [module docs](self). All methods take `&self`; the executor
/// is `Send + Sync` and is shared by every query of a session.
#[derive(Debug)]
pub struct Executor {
    cache: ShardedCache<CacheKey, CacheValue>,
    counters: WorkCounters,
    /// Rule assembly (the optimization step over bucket summaries),
    /// per answered query.
    optimize: Histogram,
}

impl Executor {
    /// An executor with an empty cache sized by `cache`.
    pub fn new(cache: CacheConfig) -> Self {
        Self {
            cache: ShardedCache::new(cache),
            counters: WorkCounters::default(),
            optimize: Histogram::default(),
        }
    }

    /// The executor's share of [`EngineStats`]: hit/work counters,
    /// cache totals and optimize time. The data-pass fields
    /// (kernel/fallback split and their timings) belong to the source
    /// and are left zero.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            bucketizations: self.counters.bucketizations.load(Ordering::Relaxed),
            bucket_cache_hits: self.counters.bucket_cache_hits.load(Ordering::Relaxed),
            scans: self.counters.scans.load(Ordering::Relaxed),
            scan_cache_hits: self.counters.scan_cache_hits.load(Ordering::Relaxed),
            coalesced_waits: self.counters.coalesced_waits.load(Ordering::Relaxed),
            evictions: self.cache.evictions(),
            rejected: self.cache.rejected(),
            lookups: self.cache.lookups(),
            cached_cost: self.cache.current_cost(),
            optimize_ns: self.optimize.sum(),
            ..EngineStats::default()
        }
    }

    /// Snapshot of the `optimize` latency histogram.
    pub fn optimize_metrics(&self) -> HistogramSnapshot {
        self.optimize.snapshot()
    }

    /// Per-shard cache counters (hit/miss/eviction/cost).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.cache.shard_stats()
    }

    /// Drops every cached artifact and resets all counters.
    pub fn clear(&self) {
        self.cache.clear();
        self.counters.bucketizations.store(0, Ordering::Relaxed);
        self.counters.bucket_cache_hits.store(0, Ordering::Relaxed);
        self.counters.scans.store(0, Ordering::Relaxed);
        self.counters.scan_cache_hits.store(0, Ordering::Relaxed);
        self.counters.coalesced_waits.store(0, Ordering::Relaxed);
        self.optimize.reset();
    }

    /// Drops every cached artifact of a generation before `generation`
    /// — entries no lookup can reach any more once every snapshot that
    /// old is unpinned. Retirement is not budget pressure: `evictions`
    /// does not move.
    pub fn retire_before(&self, generation: u64) {
        self.cache.retain(|key| key.generation() >= generation);
    }

    /// The singleflight cached-compute path shared by every artifact
    /// kind. Exactly one counted cache lookup and one counter bump
    /// happen per call, so `hits() + misses() == lookups` holds at
    /// quiescence even across coalesced waits and failed leaders:
    ///
    /// * warm → `hit_counter`;
    /// * cold, this thread leads → `work_counter`, bumped at miss time
    ///   (before the fallible compute) so failures stay visible;
    /// * cold, another thread leads → parked on its flight, then
    ///   `hit_counter` + `coalesced_waits` — the expensive work ran
    ///   **once** however many threads missed together;
    /// * the leader failed → retry (possibly leading this time).
    fn cached_or_compute<E>(
        &self,
        key: CacheKey,
        hit_counter: &AtomicU64,
        work_counter: &AtomicU64,
        compute: impl FnOnce() -> Result<CacheValue, E>,
    ) -> Result<CacheValue, E> {
        if let Some(value) = self.cache.get(&key) {
            hit_counter.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        let mut compute = Some(compute);
        loop {
            match self.cache.begin(&key) {
                FlightRole::Ready(value) => {
                    hit_counter.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                FlightRole::Leader(flight) => {
                    work_counter.fetch_add(1, Ordering::Relaxed);
                    let compute = compute.take().expect("a caller leads at most one flight");
                    // On failure the dropped guard resolves the flight
                    // empty-handed and a waiter retries.
                    let value = compute()?;
                    // Insert before finishing the flight: `begin`
                    // re-checks the cache under the registry lock, so
                    // post-flight arrivals are guaranteed to find the
                    // value.
                    self.cache.insert(key, value.clone(), value.cost());
                    flight.finish(Some(value.clone()));
                    return Ok(value);
                }
                FlightRole::Waiter(flight) => {
                    if let Some(value) = flight.wait() {
                        hit_counter.fetch_add(1, Ordering::Relaxed);
                        self.counters
                            .coalesced_waits
                            .fetch_add(1, Ordering::Relaxed);
                        return Ok(value);
                    }
                }
            }
        }
    }

    /// Bucket boundaries for `key` (cached, coalesced). The source
    /// **must** read the snapshot named by `key.generation`.
    ///
    /// # Errors
    ///
    /// Propagates [`CountSource::bucketize`] errors.
    pub fn cuts<S: CountSource>(
        &self,
        source: &S,
        key: BucketKey,
    ) -> Result<Arc<BucketSpec>, S::Error> {
        let value = self.cached_or_compute::<S::Error>(
            CacheKey::Bucket(key),
            &self.counters.bucket_cache_hits,
            &self.counters.bucketizations,
            || Ok(CacheValue::Spec(Arc::new(source.bucketize(key)?))),
        )?;
        match value {
            CacheValue::Spec(spec) => Ok(spec),
            _ => unreachable!("bucket key holds a spec"),
        }
    }

    /// The counting scan filed under `key` (cached, coalesced),
    /// **compacted**: every consumer compacts before optimizing, so
    /// compacting once per scan keeps warm queries free of the
    /// O(M · targets) copy. `what` is only consulted on a cold miss.
    ///
    /// # Errors
    ///
    /// Propagates bucketization and [`CountSource::count`] errors.
    pub fn counts<S: CountSource>(
        &self,
        source: &S,
        key: ScanKey,
        what: Option<&CountSpec>,
    ) -> Result<Arc<BucketCounts>, S::Error> {
        let (bucket, threads) = (key.bucket, key.threads);
        let value = self.cached_or_compute::<S::Error>(
            CacheKey::Scan(key),
            &self.counters.scan_cache_hits,
            &self.counters.scans,
            || {
                let cuts = self.cuts(source, bucket)?;
                let raw = source.count(bucket.attr, &cuts, what, threads)?;
                Ok(CacheValue::Counts(Arc::new(raw.compact().1)))
            },
        )?;
        match value {
            CacheValue::Counts(counts) => Ok(counts),
            _ => unreachable!("scan key holds counts"),
        }
    }

    /// The §1.4 grid filed under `key` (cached, coalesced). Grid scans
    /// share the 1-D scan counters (`scans` / `scan_cache_hits`) — a
    /// grid is "a counting scan over two axes", and keeping the tallies
    /// unified leaves the stats wire schema unchanged. The conditions
    /// are only consulted on a cold miss.
    ///
    /// # Errors
    ///
    /// Propagates bucketization and [`CountSource::count_grid`] errors.
    pub fn grid<S: CountSource>(
        &self,
        source: &S,
        key: GridKey,
        presumptive: &Condition,
        objective: &Condition,
    ) -> Result<Arc<GridCounts>, S::Error> {
        let (x, y) = (key.x, key.y);
        let value = self.cached_or_compute::<S::Error>(
            CacheKey::Grid(key),
            &self.counters.scan_cache_hits,
            &self.counters.scans,
            || {
                let x_cuts = self.cuts(source, x)?;
                let y_cuts = self.cuts(source, y)?;
                let grid =
                    source.count_grid(x.attr, y.attr, &x_cuts, &y_cuts, presumptive, objective)?;
                Ok(CacheValue::Grid(Arc::new(grid)))
            },
        )?;
        match value {
            CacheValue::Grid(grid) => Ok(grid),
            _ => unreachable!("grid key holds a grid"),
        }
    }

    /// Fetch-and-assemble for one resolved query: rectangle queries
    /// read their grid and run the rectangle optimizers, 1-D queries
    /// read their counts and run the range optimizers. Either way the
    /// optimization step lands in the `optimize` histogram.
    ///
    /// # Errors
    ///
    /// Propagates data-pass and optimizer errors.
    pub fn answer<S: CountSource>(
        &self,
        source: &S,
        resolved: &ResolvedQuery,
    ) -> Result<RuleSet, S::Error> {
        let rules = if let Some(part) = &resolved.grid {
            let key = resolved.grid_key().expect("grid part implies grid key");
            let grid = self.grid(source, key, &part.presumptive, &part.objective)?;
            self.optimizing(|| plan::assemble_rect(resolved, &grid))
        } else {
            let counts = self.counts(source, resolved.scan_key(), resolved.count_spec.as_ref())?;
            self.optimizing(|| plan::assemble(resolved, &counts))
        };
        Ok(rules?)
    }

    /// Runs one optimization step under the `optimize` timer.
    fn optimizing<T>(&self, assemble: impl FnOnce() -> T) -> T {
        let timer = Timer::start();
        let assembled = assemble();
        timer.stop(&self.optimize);
        assembled
    }

    /// Executes a compiled [`Plan`]: distinct work units run **once
    /// each** over `threads` scoped worker threads (bucketizations,
    /// then counting scans, then grid scans), after which every query
    /// is assembled from the warm cache in input order — optimizer
    /// work only, no data access.
    ///
    /// Node errors are not propagated from the fan-out phases; every
    /// dependent query re-surfaces them individually during assembly,
    /// so one bad spec fails alone. Node execution order cannot matter:
    /// each node's output depends only on its key.
    pub fn run_plan<S: CountSource>(
        &self,
        source: &S,
        plan: Plan,
        threads: usize,
    ) -> Vec<Result<RuleSet, S::Error>> {
        fan_out(&plan.buckets, threads, |key| {
            let _ = self.cuts(source, *key);
        });
        fan_out(&plan.scans, threads, |node| {
            let _ = self.counts(source, node.key.clone(), node.count_spec.as_ref());
        });
        // Each grid fills sequentially (its artifact is
        // worker-count-free); the fan-out parallelizes across grids.
        fan_out(&plan.grids, threads, |node| {
            let _ = self.grid(source, node.key.clone(), &node.presumptive, &node.objective);
        });
        plan.queries
            .into_iter()
            .map(|resolved| self.answer(source, &resolved?))
            .collect()
    }
}

/// Fans `items` out over up to `threads` scoped worker threads pulling
/// from a shared index — the work-queue used for plan-node execution.
/// Order of execution is irrelevant by construction (each item's
/// effect depends only on the item), so no reassembly is needed.
fn fan_out<T: Sync>(items: &[T], threads: usize, run: impl Fn(&T) + Sync) {
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        for item in items {
            run(item);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                run(item);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::EngineConfig;
    use crate::spec::QuerySpec;
    use optrules_relation::Schema;
    use std::sync::Barrier;
    use std::time::Duration;

    /// A source with no rows behind it: every call is tallied and
    /// answered with a small fixed artifact, the first `failures`
    /// counts fail, and `delay` holds a scan in flight long enough for
    /// concurrent misses to park on it.
    #[derive(Default)]
    struct FakeSource {
        bucketizes: AtomicU64,
        counts: AtomicU64,
        grids: AtomicU64,
        failures: AtomicU64,
        delay: Duration,
    }

    #[derive(Debug)]
    enum FakeError {
        Injected,
        Core(CoreError),
    }

    impl From<CoreError> for FakeError {
        fn from(e: CoreError) -> Self {
            FakeError::Core(e)
        }
    }

    impl CountSource for FakeSource {
        type Error = FakeError;

        fn bucketize(&self, _key: BucketKey) -> Result<BucketSpec, FakeError> {
            self.bucketizes.fetch_add(1, Ordering::Relaxed);
            Ok(BucketSpec::from_cuts(vec![10.0, 20.0]))
        }

        fn count(
            &self,
            _attr: NumAttr,
            cuts: &BucketSpec,
            _what: Option<&CountSpec>,
            _threads: usize,
        ) -> Result<BucketCounts, FakeError> {
            self.counts.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            let failing = |left: u64| left.checked_sub(1);
            if self
                .failures
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, failing)
                .is_ok()
            {
                return Err(FakeError::Injected);
            }
            // One Boolean series (the schema has one Boolean); the
            // middle bucket stays empty so compaction has work.
            let mut counts = BucketCounts::zeroed(cuts.bucket_count(), 1, 0);
            counts.total_rows = 100;
            for bucket in [0, 2] {
                counts.u[bucket] = 50;
                counts.bool_v[0][bucket] = 40;
                counts.ranges[bucket] = (bucket as f64 * 10.0, bucket as f64 * 10.0 + 5.0);
            }
            Ok(counts)
        }

        fn count_grid(
            &self,
            _x_attr: NumAttr,
            _y_attr: NumAttr,
            x_cuts: &BucketSpec,
            y_cuts: &BucketSpec,
            _presumptive: &Condition,
            _objective: &Condition,
        ) -> Result<GridCounts, FakeError> {
            self.grids.fetch_add(1, Ordering::Relaxed);
            let (nx, ny) = (x_cuts.bucket_count(), y_cuts.bucket_count());
            Ok(GridCounts::from_cells(
                nx,
                ny,
                vec![10; nx * ny],
                vec![8; nx * ny],
            )?)
        }
    }

    fn compile(specs: &[QuerySpec]) -> Plan {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build();
        Plan::compile(&schema, &EngineConfig::default(), 0, specs)
    }

    fn assert_identity(exec: &Executor) {
        let stats = exec.stats();
        assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
    }

    #[test]
    fn a_plan_executes_each_key_once_at_any_fan_out() {
        let mut rect = QuerySpec::boolean("X", "B");
        rect.attr2 = Some("Y".into());
        let specs = [
            QuerySpec::boolean("X", "B"),
            QuerySpec::boolean("X", "B"),
            QuerySpec::boolean("Y", "B"),
            rect.clone(),
            rect,
            QuerySpec::boolean("NoSuchAttr", "B"),
        ];
        for threads in [1, 4] {
            let (exec, source) = (Executor::new(CacheConfig::default()), FakeSource::default());
            let results = exec.run_plan(&source, compile(&specs), threads);
            assert!(results[..5].iter().all(Result::is_ok), "threads={threads}");
            let Err(FakeError::Core(unresolved)) = &results[5] else {
                panic!("a spec that fails to resolve fails alone, as a CoreError");
            };
            assert!(
                unresolved.to_string().contains("NoSuchAttr"),
                "{unresolved}"
            );
            // The empty middle bucket was compacted away before caching.
            assert_eq!(results[0].as_ref().unwrap().buckets_used, 2);
            // X and Y at the 1-D bucket count, X and Y at the per-axis
            // grid count; two 1-D scans; one grid — however many
            // queries share them, and again on a warm second run.
            for _ in 0..2 {
                assert_eq!(source.bucketizes.load(Ordering::Relaxed), 4);
                assert_eq!(source.counts.load(Ordering::Relaxed), 2);
                assert_eq!(source.grids.load(Ordering::Relaxed), 1);
                let stats = exec.stats();
                assert_eq!((stats.bucketizations, stats.scans), (4, 3), "{stats:?}");
                assert_identity(&exec);
                exec.run_plan(&source, compile(&specs), threads);
            }
        }
    }

    #[test]
    fn failures_stay_visible_are_never_cached_and_keep_the_identity() {
        let (exec, source) = (Executor::new(CacheConfig::default()), FakeSource::default());
        let specs = [QuerySpec::boolean("X", "B")];
        // The scan node fails in the fan-out phase and again when the
        // query re-surfaces it: two visible attempts, nothing cached.
        source.failures.store(2, Ordering::Relaxed);
        let failed = exec.run_plan(&source, compile(&specs), 1);
        assert!(matches!(failed[0], Err(FakeError::Injected)));
        assert_eq!((exec.stats().bucketizations, exec.stats().scans), (1, 2));
        assert_identity(&exec);
        let healed = exec.run_plan(&source, compile(&specs), 1);
        assert!(healed[0].is_ok());
        assert_eq!(exec.stats().scans, 3);
        assert_identity(&exec);
    }

    #[test]
    fn a_failed_leader_wakes_its_waiters_and_the_retry_coalesces() {
        let exec = Executor::new(CacheConfig::default());
        let source = FakeSource {
            failures: AtomicU64::new(1),
            delay: Duration::from_millis(50),
            ..FakeSource::default()
        };
        let plan = compile(&[QuerySpec::boolean("X", "B")]);
        let resolved = plan.queries[0].as_ref().unwrap();
        let barrier = Barrier::new(8);
        let failed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    if exec.answer(&source, resolved).is_err() {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Eight cold misses: the first leader failed alone, one of its
        // waiters led the retry, and everyone else was served that one
        // scan — nobody stranded, nothing computed twice.
        assert_eq!(failed.load(Ordering::Relaxed), 1);
        assert_eq!(source.counts.load(Ordering::Relaxed), 2);
        let stats = exec.stats();
        assert_eq!((stats.scans, stats.scan_cache_hits), (2, 6), "{stats:?}");
        assert!(stats.coalesced_waits >= 1, "{stats:?}");
        assert_identity(&exec);
    }
}
