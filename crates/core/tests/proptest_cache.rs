//! Property tests for the bounded cache behind `SharedEngine`:
//! for *any* query sequence,
//!
//! (a) the total cached cost never exceeds `CacheConfig::max_cost`, and
//! (b) a re-run query returns an identical `RuleSet` whether it hit,
//!     missed, or was evicted in between — cache effects (including
//!     eviction) stay semantically invisible.

use optrules_core::query::RuleSet;
use optrules_core::{CacheConfig, CondSpec, EngineConfig, QuerySpec, Ratio, SharedEngine};
use optrules_relation::gen::{BankGenerator, DataGenerator};
use optrules_relation::Relation;
use proptest::prelude::*;

const MAX_COST: u64 = 700;

/// One generated query: indices into the bank schema plus shape picks.
/// `kind`: 0 = simple boolean, 1 = generalized (`given`), 2 = average.
#[derive(Debug, Clone, Copy)]
struct GenQuery {
    attr: usize,
    target: usize,
    bucket_choice: usize,
    kind: usize,
}

const NUMERIC: [&str; 4] = ["Balance", "Age", "CheckingAccount", "SavingAccount"];
const BOOLEAN: [&str; 3] = ["CardLoan", "AutoWithdraw", "OnlineBanking"];
const BUCKETS: [usize; 3] = [10, 20, 30];

fn queries() -> impl Strategy<Value = Vec<GenQuery>> {
    prop::collection::vec(
        (
            0usize..NUMERIC.len(),
            0usize..BOOLEAN.len(),
            0usize..BUCKETS.len(),
            0usize..3,
        )
            .prop_map(|(attr, target, bucket_choice, kind)| GenQuery {
                attr,
                target,
                bucket_choice,
                kind,
            }),
        1..25,
    )
}

fn config() -> EngineConfig {
    EngineConfig {
        buckets: 30,
        seed: 7,
        min_support: Ratio::percent(5),
        min_confidence: Ratio::percent(55),
        ..EngineConfig::default()
    }
}

fn run_query(engine: &SharedEngine<&Relation>, q: GenQuery) -> RuleSet {
    let attr = NUMERIC[q.attr];
    let spec = match q.kind {
        0 => QuerySpec::boolean(attr, BOOLEAN[q.target]),
        1 => QuerySpec::boolean(attr, BOOLEAN[(q.target + 1) % BOOLEAN.len()]).given([
            CondSpec::BoolIs {
                attr: BOOLEAN[q.target].into(),
                value: true,
            },
        ]),
        _ => QuerySpec::average(attr, NUMERIC[(q.attr + 1) % NUMERIC.len()]),
    };
    engine
        .run_spec(&spec.buckets(BUCKETS[q.bucket_choice]))
        .expect("bank schema queries are valid")
}

/// Cache-free reference: zero budget admits nothing, so every query
/// runs the full cold path.
fn oracle(rel: &Relation) -> SharedEngine<&Relation> {
    SharedEngine::with_cache(
        rel,
        config(),
        CacheConfig {
            max_cost: 0,
            shards: 1,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two invariants, interleaved over arbitrary query sequences
    /// against a cache small enough to evict constantly.
    #[test]
    fn bounded_cache_is_invisible_and_never_over_budget(seq in queries()) {
        let rel = BankGenerator::default().to_relation(1_500, 3);
        let bounded = CacheConfig { max_cost: MAX_COST, shards: 2 };
        let engine = SharedEngine::with_cache(&rel, config(), bounded);

        // First pass: every result matches a fresh cache-free run, and
        // the budget holds after every single insertion/eviction.
        let mut first: Vec<RuleSet> = Vec::with_capacity(seq.len());
        for &q in &seq {
            let got = run_query(&engine, q);
            prop_assert!(
                engine.cache_cost() <= MAX_COST,
                "cache cost {} exceeds budget {MAX_COST}",
                engine.cache_cost()
            );
            let want = run_query(&oracle(&rel), q);
            prop_assert_eq!(&got, &want, "query {:?} diverged cold vs bounded", q);
            first.push(got);
        }

        // Second pass: each query now re-runs in a different cache
        // state (hit, miss, or evicted-and-rescanned) and must return
        // the exact same RuleSet as its first run.
        for (&q, want) in seq.iter().zip(&first) {
            let again = run_query(&engine, q);
            prop_assert_eq!(&again, want, "query {:?} changed on re-run", q);
            prop_assert!(engine.cache_cost() <= MAX_COST);
        }

        // Bookkeeping stays consistent through eviction churn.
        let stats = engine.stats();
        prop_assert_eq!(stats.hits() + stats.misses(), stats.lookups);
    }
}

/// Deterministic companion: this workload must actually trigger
/// evictions (so the property above isn't vacuously passing on a
/// cache that never fills).
#[test]
fn tiny_cache_workload_really_evicts() {
    let rel = BankGenerator::default().to_relation(1_500, 3);
    let engine = SharedEngine::with_cache(
        &rel,
        config(),
        CacheConfig {
            max_cost: MAX_COST,
            shards: 2,
        },
    );
    for attr in NUMERIC {
        for buckets in BUCKETS {
            for target in BOOLEAN {
                engine
                    .run_spec(&QuerySpec::boolean(attr, target).buckets(buckets))
                    .unwrap();
            }
        }
    }
    let stats = engine.stats();
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.cached_cost <= MAX_COST, "{stats:?}");
    assert_eq!(stats.hits() + stats.misses(), stats.lookups, "{stats:?}");
}
