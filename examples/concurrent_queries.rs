//! Serving parallel query traffic from one `SharedEngine`.
//!
//! Four scoped worker threads fire mixed queries at a single shared
//! session (`&self`, `Send + Sync`). The first query on each numeric
//! attribute pays the O(N) counting scan; everything after is served
//! from the sharded, bounded cache in O(M) optimizer time. The final
//! stats show the hit rate, the bounded cache cost, and the per-shard
//! balance.
//!
//! Run with: `cargo run --release --example concurrent_queries`

use optrules::prelude::*;

fn main() {
    let rel = BankGenerator::default().to_relation(200_000, 42);
    let engine = SharedEngine::with_cache(
        rel,
        EngineConfig {
            buckets: 500,
            min_support: Ratio::percent(5),
            min_confidence: Ratio::percent(55),
            ..EngineConfig::default()
        },
        // The default budget (≈ 32 MiB) split over 8 shards; shrink
        // max_cost to watch the eviction counters move.
        CacheConfig {
            shards: 8,
            ..CacheConfig::default()
        },
    );

    let attrs = ["Balance", "Age", "CheckingAccount", "SavingAccount"];
    let targets = ["CardLoan", "AutoWithdraw", "OnlineBanking"];

    std::thread::scope(|scope| {
        let engine = &engine;
        for worker in 0..4usize {
            scope.spawn(move || {
                // Each worker sweeps all pairs from a different start
                // offset, so threads constantly collide on hot cache
                // entries — reads never block on unrelated shards.
                for round in 0..3 {
                    for (i, attr) in attrs.iter().enumerate() {
                        let target = targets[(i + worker + round) % targets.len()];
                        let rules = engine
                            .run_spec(&QuerySpec::boolean(*attr, target))
                            .expect("bank queries are valid");
                        if round == 0 && worker == 0 {
                            if let Some(rule) = rules.optimized_support() {
                                println!(
                                    "worker {worker}: {}",
                                    rule.describe(&rules.attr_name, &rules.objective_desc)
                                );
                            }
                        }
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    println!("\nsession stats: {stats:?}");
    println!(
        "hit rate: {}/{} lookups warm ({} scans over 48 queries)",
        stats.hits(),
        stats.lookups,
        stats.scans
    );
    println!(
        "cache cost: {} / {} cells",
        stats.cached_cost,
        engine.cache_config().max_cost
    );
    for (i, shard) in engine.shard_stats().iter().enumerate() {
        if shard.hits + shard.misses > 0 {
            println!(
                "  shard {i}: {} hits, {} misses, {} entries ({} cells)",
                shard.hits, shard.misses, shard.entries, shard.cost
            );
        }
    }

    // The same relation is still available for single-threaded use.
    let total = engine.relation().len();
    println!("\nmined {total} rows without cloning the relation");
}
