//! Generalized rules with Boolean conjuncts (Section 4.3):
//! `(Amount ∈ [v1, v2]) ∧ (Pizza = yes) ⇒ (Potato = yes)`.
//!
//! The retail generator plants the conditional pattern: *among
//! pizza-buying baskets* with totals in [30, 80], potatoes co-occur at
//! 70 %; everywhere else the potato rate is 20 %. Without the Pizza
//! conjunct the band dilutes to ~35 % and no confident rule exists —
//! exactly why §4.3's generalization matters.
//!
//! ```sh
//! cargo run --release --example retail_conjunction
//! ```

use optrules::prelude::*;

fn main() {
    let generator = RetailGenerator::default();
    let rel = generator.to_relation(200_000, 7);
    println!(
        "retail relation: {} baskets; planted: (Amount in [{}, {}]) AND Pizza => Potato at {}%",
        rel.len(),
        generator.amount_band.0,
        generator.amount_band.1,
        100.0 * generator.potato_in,
    );

    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 200,
            min_support: Ratio::percent(2),
            min_confidence: Ratio::percent(65),
            ..EngineConfig::default()
        },
    );
    let pizza = CondSpec::BoolIs {
        attr: "Pizza".into(),
        value: true,
    };

    // With the conjunct: the planted band is recovered.
    let with = engine
        .run_spec(&QuerySpec::boolean("Amount", "Potato").given([pizza]))
        .expect("mining succeeds");
    println!("\n== with Pizza conjunct ==");
    match with.optimized_support() {
        Some(rule) => println!(
            "  optimized support   : {}",
            rule.describe(&with.attr_name, &with.objective_desc)
        ),
        None => println!("  optimized support   : none"),
    }
    match with.optimized_confidence() {
        Some(rule) => println!(
            "  optimized confidence: {}",
            rule.describe(&with.attr_name, &with.objective_desc)
        ),
        None => println!("  optimized confidence: none"),
    }

    // Without the conjunct: the diluted pattern cannot reach 65 %.
    // Same attribute, so the engine reuses the cached bucketization.
    let without = engine
        .run_spec(&QuerySpec::boolean("Amount", "Potato"))
        .expect("mining succeeds");
    println!("\n== without conjunct ==");
    match without.optimized_support() {
        Some(rule) => println!(
            "  optimized support   : {} (unexpected!)",
            rule.describe(&without.attr_name, &without.objective_desc)
        ),
        None => println!("  optimized support   : none — the pattern only exists for pizza buyers"),
    }
    println!(
        "\nbucketizations: {} (cache hits: {})",
        engine.stats().bucketizations,
        engine.stats().bucket_cache_hits
    );
}
