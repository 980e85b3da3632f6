//! Concurrency stress test: many threads firing mixed queries at one
//! [`SharedEngine`] must observe results byte-identical to a fresh
//! cache-free oracle — caching, sharding, and eviction are invisible.
//!
//! Run in CI both with the default parallel test runner and under
//! `RUST_TEST_THREADS=1 cargo test --release` (different race windows).

use optrules::prelude::*;

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 50;

/// One deterministic query shape. `run_on` rebuilds the same spec
/// against any engine, so the shared session and the cache-free
/// oracle execute identical plans.
#[derive(Debug, Clone, Copy)]
struct Desc {
    attr: &'static str,
    objective: Obj,
    given: Option<(&'static str, bool)>,
    buckets: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
enum Obj {
    /// Boolean objective `(name = yes)`.
    Is(&'static str),
    /// §5 average operator over the named target.
    Avg(&'static str),
}

impl Desc {
    fn run_on(&self, engine: &SharedEngine<&Relation>) -> RuleSet {
        let spec = match self.objective {
            Obj::Is(target) => QuerySpec::boolean(self.attr, target),
            Obj::Avg(target) => QuerySpec::average(self.attr, target),
        };
        let given = self.given.map(|(name, value)| CondSpec::BoolIs {
            attr: name.into(),
            value,
        });
        engine
            .run_spec(&QuerySpec {
                buckets: self.buckets,
                ..spec.given(given)
            })
            .unwrap()
    }
}

/// The mixed workload: every simple (numeric, Boolean) pair, §4.3
/// generalized rules, §5 averages, and per-query bucket overrides.
fn descriptors() -> Vec<Desc> {
    let simple = |attr, target| Desc {
        attr,
        objective: Obj::Is(target),
        given: None,
        buckets: None,
    };
    let mut descs = Vec::new();
    for attr in ["Balance", "Age", "CheckingAccount", "SavingAccount"] {
        for target in ["CardLoan", "AutoWithdraw", "OnlineBanking"] {
            descs.push(simple(attr, target));
        }
    }
    descs.push(Desc {
        given: Some(("AutoWithdraw", true)),
        ..simple("Balance", "CardLoan")
    });
    descs.push(Desc {
        given: Some(("OnlineBanking", false)),
        ..simple("Age", "CardLoan")
    });
    descs.push(Desc {
        attr: "CheckingAccount",
        objective: Obj::Avg("SavingAccount"),
        given: None,
        buckets: None,
    });
    descs.push(Desc {
        attr: "Balance",
        objective: Obj::Avg("Age"),
        given: Some(("CardLoan", true)),
        buckets: None,
    });
    descs.push(Desc {
        buckets: Some(25),
        ..simple("Balance", "CardLoan")
    });
    descs.push(Desc {
        buckets: Some(75),
        ..simple("Age", "AutoWithdraw")
    });
    descs
}

fn config() -> EngineConfig {
    EngineConfig {
        buckets: 60,
        seed: 7,
        min_support: Ratio::percent(5),
        min_confidence: Ratio::percent(55),
        ..EngineConfig::default()
    }
}

/// A cache-free engine: zero cost budget means nothing is ever
/// admitted, so every query runs the full cold path.
fn oracle_engine(rel: &Relation) -> SharedEngine<&Relation> {
    SharedEngine::with_cache(
        rel,
        config(),
        CacheConfig {
            max_cost: 0,
            shards: 1,
        },
    )
}

/// The descriptor each (thread, iteration) slot runs: a deterministic
/// mix that makes threads collide on hot keys and also visit rare ones.
fn slot_descriptor(thread: usize, iteration: usize, count: usize) -> usize {
    (thread * QUERIES_PER_THREAD + iteration) * 13 % count
}

fn stress(shared: &SharedEngine<&Relation>, expected: &[RuleSet]) {
    let descs = descriptors();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let descs = &descs;
                scope.spawn(move || {
                    let mut mined = Vec::with_capacity(QUERIES_PER_THREAD);
                    for iteration in 0..QUERIES_PER_THREAD {
                        let idx = slot_descriptor(thread, iteration, descs.len());
                        mined.push((idx, descs[idx].run_on(shared)));
                    }
                    mined
                })
            })
            .collect();
        for (thread, handle) in handles.into_iter().enumerate() {
            for (idx, got) in handle.join().expect("stress worker panicked") {
                assert_eq!(
                    got, expected[idx],
                    "thread {thread} descriptor {idx} diverged from the cache-free oracle"
                );
            }
        }
    });
}

#[test]
fn shared_engine_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedEngine<Relation>>();
    assert_send_sync::<SharedEngine<FileRelation>>();
}

#[test]
fn eight_threads_match_cache_free_oracle() {
    let rel = BankGenerator::default().to_relation(20_000, 11);
    let descs = descriptors();
    // Oracle: a fresh cache-free run per descriptor.
    let expected: Vec<RuleSet> = descs
        .iter()
        .map(|d| d.run_on(&oracle_engine(&rel)))
        .collect();

    let shared = SharedEngine::with_config(&rel, config());
    stress(&shared, &expected);

    let stats = shared.stats();
    assert_eq!(
        stats.hits() + stats.misses(),
        stats.lookups,
        "every lookup must be exactly one hit or one miss: {stats:?}"
    );
    assert!(
        stats.hits() > 0,
        "400 queries over {} shapes must hit the cache: {stats:?}",
        descs.len()
    );
    assert!(stats.cached_cost <= shared.cache_config().max_cost);
}

#[test]
fn eight_threads_match_oracle_under_constant_eviction() {
    let rel = BankGenerator::default().to_relation(8_000, 11);
    let descs = descriptors();
    let expected: Vec<RuleSet> = descs
        .iter()
        .map(|d| d.run_on(&oracle_engine(&rel)))
        .collect();

    // A cache far too small for the workload: entries are evicted and
    // recomputed constantly, concurrently — results must not change.
    let tight = CacheConfig {
        max_cost: 800,
        shards: 4,
    };
    let shared = SharedEngine::with_cache(&rel, config(), tight);
    stress(&shared, &expected);

    let stats = shared.stats();
    assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
    assert!(stats.cached_cost <= tight.max_cost, "{stats:?}");
    assert!(
        stats.evictions > 0,
        "an 800-cell budget must evict under this workload: {stats:?}"
    );
}

#[test]
fn concurrent_cold_misses_coalesce_onto_one_scan() {
    // Singleflight: N threads cold-starting the *same* query must run
    // the bucketization and the counting scan exactly once — the other
    // threads park on the in-flight computation instead of duplicating
    // the O(N) work. This is deterministic, not probabilistic: a thread
    // either sees the cached value, leads the flight, or waits on it.
    let rel = BankGenerator::default().to_relation(20_000, 11);
    let shared = SharedEngine::with_config(&rel, config());
    let barrier = std::sync::Barrier::new(THREADS);
    let results: Vec<RuleSet> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = &shared;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    shared
                        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
                        .unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    let stats = shared.stats();
    assert_eq!(stats.bucketizations, 1, "{stats:?}");
    assert_eq!(stats.scans, 1, "{stats:?}");
    assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
    // Whoever missed while the flight was pending is accounted as a
    // coalesced wait; everyone else hit the cache outright. Either way
    // the work ran once, and the waiter tally can never exceed the
    // losing threads.
    assert!(
        stats.coalesced_waits <= (THREADS as u64 - 1) * 2,
        "{stats:?}"
    );
}

/// Live-relation stress: 8 reader threads run batches while one writer
/// appends generation after generation. Checks the issue's three
/// promises under real races:
///
/// * generations observed by each reader are **monotone** (a later
///   batch never sees an older snapshot);
/// * **no batch mixes two generations** — every result in one batch
///   reports the same `total_rows`, and that batch is byte-identical
///   to the same specs run sequentially against a fresh engine over
///   that generation's rows (snapshot isolation, not just row-count
///   agreement);
/// * the stats identity `hits + misses == lookups` holds under writes.
#[test]
fn readers_see_monotone_unmixed_generations_under_appends() {
    const BASE_ROWS: u64 = 6_000;
    const APPENDS: usize = 12;
    const ROWS_PER_APPEND: usize = 25;
    const ROUNDS: usize = 10;

    // Deterministic rows for append i, so oracles can be precomputed.
    fn rows_for(i: usize) -> Vec<RowFrame> {
        (0..ROWS_PER_APPEND)
            .map(|j| {
                let v = (i * ROWS_PER_APPEND + j) as f64;
                RowFrame {
                    numeric: vec![
                        (v * 37.0) % 20_000.0,
                        20.0 + (v % 60.0),
                        (v * 13.0) % 5_000.0,
                        (v * 101.0) % 40_000.0,
                    ],
                    boolean: vec![j % 2 == 0, j % 3 == 0, j % 5 == 0],
                }
            })
            .collect()
    }

    let specs = vec![
        QuerySpec::boolean("Balance", "CardLoan"),
        QuerySpec::boolean("Balance", "AutoWithdraw"),
        QuerySpec::average("CheckingAccount", "SavingAccount"),
    ];

    // Oracle per generation: the same specs on a fresh engine over the
    // flat concatenation of that generation's rows.
    let base = BankGenerator::default().to_relation(BASE_ROWS, 11);
    let mut flat = base.clone();
    let oracle: Vec<Vec<RuleSet>> = (0..=APPENDS)
        .map(|generation| {
            if generation > 0 {
                for row in rows_for(generation - 1) {
                    flat.push_row(&row.numeric, &row.boolean).unwrap();
                }
            }
            let fresh = SharedEngine::with_config(&flat, config());
            fresh
                .run_batch(&specs, 1)
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        })
        .collect();

    let live = SharedEngine::with_config(ChunkedRelation::new(base), config());
    std::thread::scope(|scope| {
        let live = &live;
        let specs = &specs;
        let oracle = &oracle;
        scope.spawn(move || {
            for i in 0..APPENDS {
                let outcome = live.append_rows(&rows_for(i)).unwrap();
                assert_eq!(outcome.generation, (i + 1) as u64);
                assert_eq!(outcome.appended, ROWS_PER_APPEND as u64);
                // Let readers interleave between generations.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        for _ in 0..THREADS {
            scope.spawn(move || {
                let mut last_generation = 0u64;
                for round in 0..ROUNDS {
                    let results: Vec<RuleSet> = live
                        .run_batch(specs, 1)
                        .into_iter()
                        .map(|r| r.unwrap())
                        .collect();
                    // No mixing: one total_rows across the whole batch.
                    let total_rows = results[0].total_rows;
                    assert!(
                        results.iter().all(|r| r.total_rows == total_rows),
                        "round {round}: a batch mixed generations: {:?}",
                        results.iter().map(|r| r.total_rows).collect::<Vec<_>>()
                    );
                    // The row count maps back to exactly one generation.
                    let delta = total_rows - BASE_ROWS;
                    assert_eq!(delta % ROWS_PER_APPEND as u64, 0, "round {round}");
                    let generation = delta / ROWS_PER_APPEND as u64;
                    assert!(generation <= APPENDS as u64, "round {round}");
                    // Monotone per reader.
                    assert!(
                        generation >= last_generation,
                        "round {round}: generation went backwards \
                         ({last_generation} -> {generation})"
                    );
                    last_generation = generation;
                    // Snapshot isolation: byte-identical to the fresh
                    // sequential run on that generation's rows.
                    assert_eq!(
                        results, oracle[generation as usize],
                        "round {round}: generation {generation} diverged from its oracle"
                    );
                }
            });
        }
    });

    let stats = live.stats();
    assert_eq!(
        stats.hits() + stats.misses(),
        stats.lookups,
        "every lookup must be exactly one hit or one miss under writes: {stats:?}"
    );
    assert_eq!(live.generation(), APPENDS as u64);
    assert_eq!(
        live.pin().rows(),
        BASE_ROWS + (APPENDS * ROWS_PER_APPEND) as u64
    );
}

#[test]
fn failing_leader_does_not_strand_concurrent_queries() {
    // A query whose computation fails (zero buckets) resolves its
    // flight as failed; coalesced waiters must retry (and fail the
    // same way), not hang.
    let rel = BankGenerator::default().to_relation(2_000, 11);
    let shared = SharedEngine::with_config(&rel, config());
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let shared = &shared;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let result = shared.run_spec(&QuerySpec::boolean("Balance", "CardLoan").buckets(0));
                assert!(result.is_err(), "zero buckets must fail");
            });
        }
    });
    let stats = shared.stats();
    assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
    // Errors are never cached, so a later healthy query still works.
    shared
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .unwrap();
}
