//! The paper's motivating scenario (Sections 1-2): find balance ranges
//! whose customers are likely card-loan users, then sweep *all*
//! numeric × Boolean attribute pairs the way §1.3 envisions
//! ("optimized rules for all combinations of hundreds of numeric and
//! Boolean attributes").
//!
//! Data comes from the seeded bank generator, which plants
//! `(Balance ∈ [3000, 8000]) ⇒ (CardLoan = yes)` at 65 % confidence
//! (15 % elsewhere) — so the output can be eyeballed against ground
//! truth.
//!
//! ```sh
//! cargo run --release --example bank_marketing
//! ```

use optrules::prelude::*;

fn main() {
    let generator = BankGenerator::default();
    let rel = generator.to_relation(100_000, 42);
    println!(
        "bank relation: {} customers, planted rule (Balance in [{}, {}]) => CardLoan at {}%",
        rel.len(),
        generator.balance_band.0,
        generator.balance_band.1,
        100.0 * generator.card_loan_in,
    );

    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 500,
            min_support: Ratio::percent(10),
            min_confidence: Ratio::percent(60),
            ..EngineConfig::default()
        },
    );

    // --- Single pair: the paper's headline example. -------------------
    let rules = engine
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .expect("mining succeeds");
    println!("\n== Balance => CardLoan ==");
    if let Some(rule) = rules.optimized_support() {
        println!(
            "  optimized support   : {}",
            rule.describe(&rules.attr_name, &rules.objective_desc)
        );
    }
    if let Some(rule) = rules.optimized_confidence() {
        println!(
            "  optimized confidence: {}",
            rule.describe(&rules.attr_name, &rules.objective_desc)
        );
    }

    // --- All pairs: one spec per pair, run one at a time; one
    //     bucketing + one counting scan per numeric attribute covers
    //     every Boolean target at once (and the Balance scan above is
    //     already cached). -------------------------------------------
    println!("\n== all numeric x boolean pairs ==");
    let mut age_rule = None;
    for spec in QuerySpec::all_pairs(engine.schema()) {
        let pair = engine.run_spec(&spec).expect("mining succeeds");
        let line = match (pair.optimized_support(), pair.optimized_confidence()) {
            (Some(s), _) if s.support() > 0.0 => {
                format!(
                    "sup-rule {}",
                    s.describe(&pair.attr_name, &pair.objective_desc)
                )
            }
            (None, Some(c)) => format!(
                "conf-rule {}",
                c.describe(&pair.attr_name, &pair.objective_desc)
            ),
            _ => format!(
                "{} => {}: nothing clears the thresholds",
                pair.attr_name, pair.objective_desc
            ),
        };
        println!("  {line}");
        // The planted Age => AutoWithdraw association should surface:
        if pair.attr_name == "Age" && pair.objective_desc.contains("AutoWithdraw") {
            if let Some(rule) = pair.optimized_support() {
                age_rule = Some(rule.describe(&pair.attr_name, &pair.objective_desc));
            }
        }
    }

    if let Some(description) = age_rule {
        println!("\nplanted age association recovered: {description}");
    }
    let stats = engine.stats();
    println!(
        "scans: {} for {} queries ({} served from cache)",
        stats.scans,
        stats.scans + stats.scan_cache_hits,
        stats.scan_cache_hits
    );
}
