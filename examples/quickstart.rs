//! Quickstart: mine both optimized rules from a tiny in-memory relation
//! through a `SharedEngine` session.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use optrules::prelude::*;

fn main() {
    // A miniature bank-customers relation: Balance plus a CardLoan flag.
    // Customers with balances between 3000 and 7000 take card loans at a
    // much higher rate — the pattern the miner should discover.
    let schema = Schema::builder()
        .numeric("Balance")
        .boolean("CardLoan")
        .build();
    let mut rel = Relation::new(schema);
    for i in 0..10_000u64 {
        let balance = (i % 200) as f64 * 50.0; // 0 .. 10 000
        let in_band = (3000.0..=7000.0).contains(&balance);
        // Deterministic pseudo-randomness keeps the example reproducible.
        let dice = (i.wrapping_mul(2654435761)) % 100;
        let loan = if in_band { dice < 70 } else { dice < 12 };
        rel.push_row(&[balance], &[loan]).expect("schema matches");
    }

    // The engine owns the relation and caches bucketization + counting
    // scans, so follow-up queries skip the O(N) work.
    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 100,
            min_support: Ratio::percent(10), // optimized-confidence constraint
            min_confidence: Ratio::percent(60), // optimized-support constraint
            ..EngineConfig::default()
        },
    );

    let rules = engine
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .expect("mining a non-empty relation succeeds");

    println!(
        "rows: {}, buckets used: {}",
        rules.total_rows, rules.buckets_used
    );
    println!();
    match rules.optimized_support() {
        Some(rule) => println!(
            "optimized-support rule  : {}",
            rule.describe(&rules.attr_name, &rules.objective_desc)
        ),
        None => println!("optimized-support rule  : no range reaches 60 % confidence"),
    }
    match rules.optimized_confidence() {
        Some(rule) => println!(
            "optimized-confidence rule: {}",
            rule.describe(&rules.attr_name, &rules.objective_desc)
        ),
        None => println!("optimized-confidence rule: no range reaches 10 % support"),
    }

    // A second query at a different threshold reuses the cached scan —
    // the relation is not touched again.
    let tighter = engine
        .run_spec(
            &QuerySpec::boolean("Balance", "CardLoan")
                .min_support_pct(30)
                .task(Task::OptimizeConfidence),
        )
        .expect("cached query succeeds");
    println!();
    match tighter.optimized_confidence() {
        Some(rule) => println!(
            "at >= 30 % support       : {}",
            rule.describe(&tighter.attr_name, &tighter.objective_desc)
        ),
        None => println!("at >= 30 % support       : no ample range"),
    }
    let stats = engine.stats();
    println!(
        "scans: {} (cache hits: {}) — the second query cost O(M), not O(N)",
        stats.scans, stats.scan_cache_hits
    );
}
