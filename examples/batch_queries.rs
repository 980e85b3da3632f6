//! Declarative batch mining: build [`QuerySpec`]s (in code or from
//! JSON), plan them as one batch, and execute with the shared work
//! deduplicated.
//!
//! ```text
//! cargo run --example batch_queries
//! ```

use optrules::core::json;
use optrules::prelude::*;

fn main() {
    let rel = BankGenerator::default().to_relation(50_000, 7);
    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 200,
            min_support: Ratio::percent(10),
            min_confidence: Ratio::percent(60),
            ..EngineConfig::default()
        },
    );

    // Two ways to the same plain-data spec.
    let direct = QuerySpec::boolean("Balance", "CardLoan");
    let wire = json::decode_spec(r#"{"attr":"Balance","objective":{"bool":"CardLoan"}}"#)
        .expect("valid request");
    assert_eq!(direct, wire);
    println!("request : {}", json::encode_spec(&direct));

    // A batch: every Boolean target over Balance (these share one
    // bucketization *and* one counting scan), plus an average query.
    let mut specs = vec![direct];
    specs.push(QuerySpec::boolean("Balance", "AutoWithdraw"));
    specs.push(QuerySpec::boolean("Balance", "OnlineBanking"));
    specs.push(QuerySpec::average("CheckingAccount", "SavingAccount").min_average(14_000.0));

    // Inspect the plan before paying for it.
    let plan = engine.plan_batch(&specs);
    println!(
        "plan    : {} queries -> {} bucketizations + {} scans",
        plan.queries(),
        plan.bucket_nodes(),
        plan.scan_nodes()
    );

    // Execute across 4 worker threads; results arrive in input order
    // and are byte-identical to running each spec sequentially.
    for result in engine.run_batch(&specs, 4) {
        let rules = result.expect("bank specs are valid");
        print!("{}", rules.describe());
    }

    let stats = engine.stats();
    println!(
        "stats   : {} bucketizations, {} scans, {} warm assemblies",
        stats.bucketizations, stats.scans, stats.scan_cache_hits
    );
    assert_eq!(stats.bucketizations, 2); // Balance + CheckingAccount
    assert_eq!(stats.scans, 2);

    // The response encoding is one JSON line per result — exactly what
    // `optrules batch` speaks over stdin/stdout.
    let rules = engine.run_spec(&specs[0]).unwrap();
    println!("response: {}", json::encode_rule_set(&rules));
}
