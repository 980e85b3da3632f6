//! Bounded, sharded, cost-aware LRU cache backing the
//! [`Executor`](crate::exec::Executor).
//!
//! The executor's cached artifacts (bucketizations, counting-scan
//! results) have wildly different footprints: a `BucketSpec` is `M`
//! cut values, a `BucketCounts` is `M × (targets + 3)` cells. A plain
//! entry-count LRU would treat them as equals, so the cache is
//! **cost-aware**: every entry carries a cost estimate in *cells* (one
//! cached `u64`/`f64`, ≈ 8 bytes), and eviction keeps the total cost
//! under [`CacheConfig::max_cost`] by evicting least-recently-used
//! entries first.
//!
//! Concurrency model: `N` shards, each a `std::sync::RwLock` over a
//! `HashMap`, with the shard chosen by the key's hash. Warm lookups
//! take one shard *read* lock — many threads mining different (or the
//! same) attributes proceed in parallel, and a cache miss filling one
//! shard never blocks hits on the others. Recency is tracked with a
//! per-shard atomic tick bumped under the read lock, so hits never
//! upgrade to a write lock.
//!
//! Invariant (property-tested in `tests/proptest_cache.rs`): the sum
//! of cached costs never exceeds `max_cost`. Each shard's budget is
//! `max_cost / shards`; an entry costlier than a whole shard budget is
//! never admitted (counted in [`ShardStats::rejected`]), so a single
//! huge scan cannot blow the bound either.
//!
//! **Singleflight**: cold misses are coalesced per key. A thread that
//! misses calls [`ShardedCache::begin`]; the first caller becomes the
//! *leader* (and computes), later callers become *waiters* parked on a
//! condvar until the leader publishes the value — so `N` concurrent
//! cold queries on one `BucketKey`/`ScanKey` run the expensive
//! sample-sort or relation scan exactly once. A failed leader wakes the
//! waiters empty-handed and one of them retries, so errors are never
//! cached and a panicking leader cannot strand its waiters (the flight
//! guard resolves on drop).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Sizing policy for a [`SharedEngine`](crate::shared::SharedEngine)
/// cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total cost budget across all shards, in cells (one cached
    /// `u64`/`f64`, ≈ 8 bytes). Each shard enforces `max_cost /
    /// shards`; `0` disables caching entirely (every query runs cold).
    pub max_cost: u64,
    /// Number of independent shards (lock granularity). Clamped to at
    /// least 1.
    pub shards: usize,
}

impl Default for CacheConfig {
    /// 4 Mi cells (≈ 32 MiB) across 16 shards — roughly 40 cached
    /// M = 1000 counting scans per shard, far more than the paper's
    /// interactive session ever holds.
    fn default() -> Self {
        Self {
            max_cost: 4 << 20,
            shards: 16,
        }
    }
}

impl CacheConfig {
    /// A practically unbounded cache (PR 1's grow-forever behavior),
    /// for benchmarking the eviction overhead or for sessions that
    /// must never re-scan.
    pub fn unbounded() -> Self {
        Self {
            max_cost: u64::MAX,
            ..Self::default()
        }
    }
}

/// A point-in-time snapshot of one shard's counters, from
/// [`SharedEngine::shard_stats`](crate::shared::SharedEngine::shard_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups served from this shard.
    pub hits: u64,
    /// Lookups that found nothing here.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions refused because the entry alone exceeded the shard
    /// budget.
    pub rejected: u64,
    /// Current total cost of the shard's entries.
    pub cost: u64,
    /// Current entry count.
    pub entries: usize,
}

/// One cached entry. `last_used` is an atomic so a read-locked hit can
/// refresh recency without upgrading to the write lock.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    cost: u64,
    last_used: AtomicU64,
}

#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    cost: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            cost: 0,
        }
    }
}

/// Per-shard monotonic counters, updated with relaxed atomics (they
/// are observability data, not synchronization).
#[derive(Debug, Default)]
struct Counters {
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

/// One in-flight computation: waiters park on the condvar until the
/// leader resolves the flight with `Done(Some(value))` (success) or
/// `Done(None)` (failure — retry).
#[derive(Debug)]
pub(crate) struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

#[derive(Debug)]
enum FlightState<V> {
    Pending,
    Done(Option<V>),
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader resolves the flight. `Some` is the
    /// computed value; `None` means the leader failed and the caller
    /// should retry (possibly becoming the new leader).
    pub fn wait(&self) -> Option<V> {
        let mut state = self.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Pending => state = self.cv.wait(state).expect("flight poisoned"),
                FlightState::Done(value) => return value.clone(),
            }
        }
    }

    fn resolve(&self, value: Option<V>) {
        *self.state.lock().expect("flight poisoned") = FlightState::Done(value);
        self.cv.notify_all();
    }
}

/// What [`ShardedCache::begin`] assigned the caller.
pub(crate) enum FlightRole<'a, K: Eq + Hash + Clone, V: Clone> {
    /// The value landed in the cache between the caller's miss and this
    /// call — no computation needed.
    Ready(V),
    /// The caller computes; it must call [`FlightGuard::finish`] (a
    /// dropped guard resolves the flight as failed).
    Leader(FlightGuard<'a, K, V>),
    /// Another thread is computing this key; call [`Flight::wait`].
    Waiter(Arc<Flight<V>>),
}

/// Leadership of one flight. Resolving happens exactly once: through
/// [`finish`](Self::finish), or on drop (as a failure) if the leader
/// unwinds.
pub(crate) struct FlightGuard<'a, K: Eq + Hash + Clone, V: Clone> {
    cache: &'a ShardedCache<K, V>,
    shard: usize,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> FlightGuard<'_, K, V> {
    /// Publishes the flight's outcome to every waiter and retires the
    /// flight. Pass `Some` *after* inserting the value into the cache,
    /// so threads arriving post-retirement find it there.
    pub fn finish(mut self, value: Option<V>) {
        self.complete(value);
    }

    fn complete(&mut self, value: Option<V>) {
        let Some(key) = self.key.take() else { return };
        let flight = self.cache.inflight[self.shard]
            .lock()
            .expect("inflight registry poisoned")
            .remove(&key);
        if let Some(flight) = flight {
            flight.resolve(value);
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        self.complete(None);
    }
}

/// The sharded cost-aware LRU cache. Interior-mutable: all operations
/// take `&self`.
#[derive(Debug)]
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    counters: Vec<Counters>,
    /// Per-shard singleflight registry: keys currently being computed.
    /// A `Mutex` (not `RwLock`) because every touch mutates it, and it
    /// is held only for map operations — never across a computation.
    inflight: Vec<Mutex<HashMap<K, Arc<Flight<V>>>>>,
    per_shard_budget: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// Builds an empty cache with `config.shards` shards splitting the
    /// `config.max_cost` budget evenly.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            counters: (0..shards).map(|_| Counters::default()).collect(),
            inflight: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            // Floor division: shards × budget ≤ max_cost, so the
            // per-shard invariant implies the global one.
            per_shard_budget: config.max_cost / shards as u64,
        }
    }

    /// The shard a key lives in. Uses the std `DefaultHasher` with its
    /// fixed keys, so the mapping is stable across runs — eviction
    /// behavior is reproducible.
    fn shard_of(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Looks up `key`, refreshing its recency on a hit. Takes only the
    /// shard's read lock.
    pub fn get(&self, key: &K) -> Option<V> {
        let s = self.shard_of(key);
        match self.peek(s, key) {
            Some(value) => {
                self.counters[s].hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.counters[s].misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`get`](Self::get) without the hit/miss accounting — used where
    /// the lookup re-checks a key whose miss was already counted, so
    /// the `hits + misses == lookups` identity stays exact.
    fn peek(&self, s: usize, key: &K) -> Option<V> {
        let shard = self.shards[s].read().expect("cache shard poisoned");
        shard.map.get(key).map(|entry| {
            let tick = self.counters[s].tick.fetch_add(1, Ordering::Relaxed);
            entry.last_used.store(tick, Ordering::Relaxed);
            entry.value.clone()
        })
    }

    /// Joins (or starts) the singleflight for `key` after a miss. The
    /// first caller per key becomes [`FlightRole::Leader`]; concurrent
    /// callers become [`FlightRole::Waiter`]s. If the previous leader
    /// already published the value, returns it as [`FlightRole::Ready`]
    /// — the cache is re-checked *under the registry lock*, closing the
    /// race where a miss predates the leader's insert.
    pub fn begin(&self, key: &K) -> FlightRole<'_, K, V> {
        let s = self.shard_of(key);
        let mut inflight = self.inflight[s].lock().expect("inflight registry poisoned");
        if let Some(flight) = inflight.get(key) {
            return FlightRole::Waiter(Arc::clone(flight));
        }
        // No flight for this key means any previous leader has finished
        // — and it inserts before finishing, so a peek here is ordered
        // after that insert (both flight retirement and this check hold
        // the registry lock).
        if let Some(value) = self.peek(s, key) {
            return FlightRole::Ready(value);
        }
        inflight.insert(key.clone(), Arc::new(Flight::new()));
        FlightRole::Leader(FlightGuard {
            cache: self,
            shard: s,
            key: Some(key.clone()),
        })
    }

    /// Inserts `key → value`, evicting least-recently-used entries
    /// until the shard is back under budget. If `cost` alone exceeds
    /// the shard budget the entry is not admitted. If another thread
    /// raced the same key in first, the existing entry is kept (both
    /// computed the same deterministic value).
    pub fn insert(&self, key: K, value: V, cost: u64) {
        let s = self.shard_of(&key);
        if cost > self.per_shard_budget {
            self.counters[s].rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shard = self.shards[s].write().expect("cache shard poisoned");
        if shard.map.contains_key(&key) {
            return;
        }
        let tick = self.counters[s].tick.fetch_add(1, Ordering::Relaxed);
        shard.cost += cost;
        shard.map.insert(
            key.clone(),
            Entry {
                value,
                cost,
                last_used: AtomicU64::new(tick),
            },
        );
        while shard.cost > self.per_shard_budget {
            // O(entries) scan for the LRU victim; shards stay small
            // enough (tens of entries) that this beats maintaining an
            // ordered index under the lock. The just-inserted entry
            // holds the freshest tick, so it is never its own victim
            // (cost ≤ budget guarantees termination).
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let evicted = shard.map.remove(&k).expect("victim came from the map");
                    shard.cost -= evicted.cost;
                    self.counters[s].evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Drops every entry `keep` rejects. This is retirement, not budget
    /// pressure: the drops are not counted as evictions, and recency
    /// and the other counters are untouched. In-flight computations
    /// are left alone, as in [`clear`](Self::clear).
    pub fn retain(&self, keep: impl Fn(&K) -> bool) {
        for shard in &self.shards {
            let mut shard = shard.write().expect("cache shard poisoned");
            let mut freed = 0;
            shard.map.retain(|key, entry| {
                let kept = keep(key);
                if !kept {
                    freed += entry.cost;
                }
                kept
            });
            shard.cost -= freed;
        }
    }

    /// Drops every entry and resets all counters. In-flight
    /// computations are left alone: removing a registry entry here
    /// would strand its waiters, and the flight resolves through its
    /// own guard regardless.
    pub fn clear(&self) {
        for (shard, counters) in self.shards.iter().zip(&self.counters) {
            let mut shard = shard.write().expect("cache shard poisoned");
            shard.map.clear();
            shard.cost = 0;
            counters.tick.store(0, Ordering::Relaxed);
            counters.hits.store(0, Ordering::Relaxed);
            counters.misses.store(0, Ordering::Relaxed);
            counters.evictions.store(0, Ordering::Relaxed);
            counters.rejected.store(0, Ordering::Relaxed);
        }
    }

    /// Current total cost across shards.
    pub fn current_cost(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").cost)
            .sum()
    }

    /// Total lookups (hits + misses) across shards.
    pub fn lookups(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.hits.load(Ordering::Relaxed) + c.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Total evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Total oversized-entry rejections across shards.
    pub fn rejected(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.rejected.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard counter snapshots.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.counters)
            .map(|(shard, c)| {
                let shard = shard.read().expect("cache shard poisoned");
                ShardStats {
                    hits: c.hits.load(Ordering::Relaxed),
                    misses: c.misses.load(Ordering::Relaxed),
                    evictions: c.evictions.load(Ordering::Relaxed),
                    rejected: c.rejected.load(Ordering::Relaxed),
                    cost: shard.cost,
                    entries: shard.map.len(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shard(max_cost: u64) -> ShardedCache<u32, u32> {
        ShardedCache::new(CacheConfig {
            max_cost,
            shards: 1,
        })
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = one_shard(3);
        cache.insert(1, 10, 1);
        cache.insert(2, 20, 1);
        cache.insert(3, 30, 1);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(4, 40, 1);
        assert_eq!(cache.get(&2), None, "LRU entry evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&4), Some(40));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.current_cost() <= 3);
    }

    #[test]
    fn cost_budget_is_never_exceeded() {
        let cache = one_shard(10);
        for k in 0..100u32 {
            cache.insert(k, k, u64::from(k % 4) + 1);
            assert!(cache.current_cost() <= 10, "after inserting {k}");
        }
    }

    #[test]
    fn oversized_entries_are_rejected_not_cached() {
        let cache = one_shard(4);
        cache.insert(1, 10, 5);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.shard_stats()[0].rejected, 1);
        assert_eq!(cache.current_cost(), 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = one_shard(0);
        cache.insert(1, 10, 1);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.lookups(), 1);
    }

    #[test]
    fn racing_insert_keeps_the_first_entry() {
        let cache = one_shard(10);
        cache.insert(1, 10, 2);
        cache.insert(1, 99, 2); // same key: kept, not double-counted
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.current_cost(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ShardedCache::new(CacheConfig {
            max_cost: 64,
            shards: 4,
        });
        for k in 0..16u32 {
            cache.insert(k, k, 1);
            cache.get(&k);
        }
        cache.clear();
        assert_eq!(cache.current_cost(), 0);
        assert_eq!(cache.lookups(), 0);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.shard_stats().iter().all(|s| s.entries == 0));
    }

    #[test]
    fn first_begin_leads_then_ready_after_publish() {
        let cache = one_shard(10);
        assert_eq!(cache.get(&1), None);
        let FlightRole::Leader(guard) = cache.begin(&1) else {
            panic!("first begin must lead");
        };
        cache.insert(1, 10, 1);
        guard.finish(Some(10));
        // The flight is retired; a late thread that missed before the
        // insert is handed the value by begin itself.
        match cache.begin(&1) {
            FlightRole::Ready(v) => assert_eq!(v, 10),
            _ => panic!("published value must short-circuit begin"),
        };
    }

    #[test]
    fn dropped_leader_wakes_waiters_to_retry() {
        let cache = one_shard(10);
        let FlightRole::Leader(guard) = cache.begin(&1) else {
            panic!("first begin must lead");
        };
        let FlightRole::Waiter(flight) = cache.begin(&1) else {
            panic!("second begin must wait");
        };
        drop(guard); // leader failed / unwound
        assert_eq!(flight.wait(), None, "failure wakes waiters empty");
        // The flight is retired, so a retry can lead.
        assert!(matches!(cache.begin(&1), FlightRole::Leader(_)));
    }

    #[test]
    fn waiters_coalesce_on_one_leader() {
        let cache = std::sync::Arc::new(one_shard(16));
        let computes = std::sync::Arc::new(AtomicU64::new(0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                let computes = std::sync::Arc::clone(&computes);
                let barrier = std::sync::Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    loop {
                        if let Some(v) = cache.get(&7) {
                            return v;
                        }
                        match cache.begin(&7) {
                            FlightRole::Ready(v) => return v,
                            FlightRole::Leader(guard) => {
                                computes.fetch_add(1, Ordering::Relaxed);
                                // Widen the window so waiters really park.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                cache.insert(7, 42, 1);
                                guard.finish(Some(42));
                                return 42;
                            }
                            FlightRole::Waiter(flight) => {
                                if let Some(v) = flight.wait() {
                                    return v;
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::Relaxed),
            1,
            "all cold misses must coalesce onto one computation"
        );
        assert_eq!(cache.get(&7), Some(42));
    }

    #[test]
    fn per_shard_budgets_sum_under_the_global_bound() {
        // 7 shards × floor(100/7) = 7 × 14 = 98 ≤ 100.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig {
            max_cost: 100,
            shards: 7,
        });
        assert_eq!(cache.per_shard_budget, 14);
    }
}
