//! Property test for live relations: for **any** interleaving of
//! appends and queries, a query against the live (generational,
//! chunked, cached) engine returns exactly what the same query returns
//! on a *fresh* engine built from the flat concatenation of every row
//! appended so far — oracle equivalence, i.e. snapshot isolation plus
//! "chunking and generation-keyed caching are semantically invisible".
//!
//! The live engine runs with a deliberately tiny cache, so the
//! equivalence also holds across constant evictions, and with the
//! default cache, so it also holds across warm hits.

use optrules_core::query::RuleSet;
use optrules_core::{CacheConfig, CondSpec, EngineConfig, QuerySpec, Ratio, SharedEngine};
use optrules_relation::gen::{BankGenerator, DataGenerator};
use optrules_relation::{ChunkedRelation, RowFrame, TupleScan};
use proptest::prelude::*;

const NUMERIC: [&str; 4] = ["Balance", "Age", "CheckingAccount", "SavingAccount"];
const BOOLEAN: [&str; 3] = ["CardLoan", "AutoWithdraw", "OnlineBanking"];
const BUCKETS: [usize; 3] = [10, 20, 30];
const BASE_ROWS: u64 = 800;

/// One step of the generated interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Append `count` deterministic rows derived from `salt`.
    Append { count: usize, salt: u64 },
    /// Run one query; indices select shape from the tables above.
    /// `kind`: 0 = simple boolean, 1 = generalized (`given`),
    /// 2 = average.
    Query {
        attr: usize,
        target: usize,
        kind: usize,
        bucket_choice: usize,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..24, any::<u64>()).prop_map(|(count, salt)| Op::Append { count, salt }),
            (
                0usize..NUMERIC.len(),
                0usize..BOOLEAN.len(),
                0usize..3,
                0usize..BUCKETS.len(),
            )
                .prop_map(|(attr, target, kind, bucket_choice)| Op::Query {
                    attr,
                    target,
                    kind,
                    bucket_choice,
                }),
        ],
        1..20,
    )
}

/// Deterministic pseudo-random rows for one append op.
fn rows_for(count: usize, salt: u64) -> Vec<RowFrame> {
    let mut state = salt | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..count)
        .map(|_| RowFrame {
            numeric: vec![
                (next() % 20_000) as f64,
                20.0 + (next() % 60) as f64,
                (next() % 5_000) as f64 / 4.0,
                (next() % 40_000) as f64,
            ],
            boolean: vec![next() % 2 == 0, next() % 3 == 0, next() % 5 == 0],
        })
        .collect()
}

fn config() -> EngineConfig {
    EngineConfig {
        buckets: 20,
        seed: 7,
        min_support: Ratio::percent(5),
        min_confidence: Ratio::percent(55),
        ..EngineConfig::default()
    }
}

fn run_query<R: optrules_relation::RandomAccess>(
    engine: &SharedEngine<R>,
    attr: usize,
    target: usize,
    kind: usize,
    bucket_choice: usize,
) -> RuleSet {
    let spec = match kind {
        0 => QuerySpec::boolean(NUMERIC[attr], BOOLEAN[target]),
        1 => QuerySpec::boolean(NUMERIC[attr], BOOLEAN[(target + 1) % BOOLEAN.len()]).given([
            CondSpec::BoolIs {
                attr: BOOLEAN[target].into(),
                value: true,
            },
        ]),
        _ => QuerySpec::average(NUMERIC[attr], NUMERIC[(attr + 1) % NUMERIC.len()]),
    };
    engine
        .run_spec(&spec.buckets(BUCKETS[bucket_choice]))
        .expect("bank schema queries are valid")
}

fn check(seq: &[Op], cache: CacheConfig) {
    let base = BankGenerator::default().to_relation(BASE_ROWS, 3);
    let live = SharedEngine::with_cache(ChunkedRelation::new(base.clone()), config(), cache);
    // The flat mirror: every row the live engine has ever held, in one
    // plain relation. Queries on a *fresh* engine over it are the
    // oracle.
    let mut flat = base;
    let mut expected_generation = 0u64;
    for op in seq {
        match op {
            Op::Append { count, salt } => {
                let rows = rows_for(*count, *salt);
                let outcome = live.append_rows(&rows).unwrap();
                for row in &rows {
                    flat.push_row(&row.numeric, &row.boolean).unwrap();
                }
                expected_generation += 1;
                prop_assert_eq!(outcome.generation, expected_generation);
                prop_assert_eq!(outcome.total_rows, flat.len());
            }
            Op::Query {
                attr,
                target,
                kind,
                bucket_choice,
            } => {
                let got = run_query(&live, *attr, *target, *kind, *bucket_choice);
                let oracle = SharedEngine::with_config(&flat, config());
                let want = run_query(&oracle, *attr, *target, *kind, *bucket_choice);
                prop_assert_eq!(
                    &got,
                    &want,
                    "live engine diverged from the fresh-flat oracle at {:?}",
                    op
                );
                prop_assert_eq!(got.total_rows, flat.len());
            }
        }
    }
    prop_assert_eq!(live.generation(), expected_generation);
    prop_assert_eq!(live.pin().rows(), flat.len());
    let stats = live.stats();
    prop_assert_eq!(stats.hits() + stats.misses(), stats.lookups);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Default cache: queries after appends hit fresh-generation keys
    /// and must match the oracle (stale entries are unreachable).
    #[test]
    fn any_interleaving_matches_fresh_engine_oracle(seq in ops()) {
        check(&seq, CacheConfig::default());
    }

    /// Tiny cache: the same equivalence across constant evictions —
    /// generation keys and eviction churn together stay invisible.
    #[test]
    fn any_interleaving_matches_oracle_under_eviction(seq in ops()) {
        check(&seq, CacheConfig { max_cost: 500, shards: 2 });
    }
}

/// Deterministic companion: the eviction variant really evicts (so the
/// property above is not vacuously passing on a cache that never
/// fills), and repeated queries on a quiescent live engine are warm.
#[test]
fn live_workload_really_exercises_eviction_and_warm_paths() {
    let tight = CacheConfig {
        max_cost: 500,
        shards: 2,
    };
    let base = BankGenerator::default().to_relation(BASE_ROWS, 3);
    let live = SharedEngine::with_cache(ChunkedRelation::new(base), config(), tight);
    for round in 0..4 {
        live.append_rows(&rows_for(10, round)).unwrap();
        for attr in 0..NUMERIC.len() {
            for bucket_choice in 0..BUCKETS.len() {
                run_query(&live, attr, 0, 0, bucket_choice);
            }
        }
    }
    let stats = live.stats();
    assert!(stats.evictions > 0, "{stats:?}");
    assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");

    // Quiescent re-run on the current generation: served warm.
    run_query(&live, 0, 0, 0, 0);
    let warm = live.stats();
    run_query(&live, 0, 0, 0, 0);
    assert_eq!(live.stats().scans, warm.scans);
}
