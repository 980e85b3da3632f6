//! Optimized ranges for the average operator (Section 5).
//!
//! The paper's decision-support scenario: instead of guessing ranges in
//!
//! ```sql
//! select avg(SavingAccount) from BankCustomers
//! where 1000 < CheckingAccount < 3000
//! ```
//!
//! compute directly
//!
//! * the **maximum average range** — the checking-account range (with
//!   at least 10 % of customers) maximizing average savings, and
//! * the **maximum support range** — the widest range whose average
//!   savings clears a target (here 10 000), the paper's Example 5.3.
//!
//! The bank generator plants `CheckingAccount ∈ [1000, 3000]` as an
//! "excellent customers" band with triple the mean savings.
//!
//! This is also where the engine's cache shines: the support-threshold
//! sweep at the end re-optimizes the *same* cached bucket counts six
//! times without ever rescanning the relation.
//!
//! ```sh
//! cargo run --release --example savings_average
//! ```

use optrules::prelude::*;

fn main() {
    let generator = BankGenerator::default();
    let rel = generator.to_relation(100_000, 99);
    println!(
        "bank relation: {} customers; planted high-saving band CheckingAccount in [{}, {}] \
         (mean savings {} vs {})",
        rel.len(),
        generator.checking_band.0,
        generator.checking_band.1,
        generator.saving_mean_in,
        generator.saving_mean_out,
    );

    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 400,
            min_support: Ratio::percent(10),
            ..EngineConfig::default()
        },
    );

    let spec = QuerySpec::average("CheckingAccount", "SavingAccount");
    let rules = engine
        .run_spec(&spec.clone().min_average(10_000.0))
        .expect("mining succeeds");

    println!();
    match rules.max_average() {
        Some(range) => println!(
            "maximum average range : {} in [{:.0}, {:.0}]  {} = {:.0}, support {:.1}%",
            rules.attr_name,
            range.value_range.0,
            range.value_range.1,
            rules.objective_desc,
            range.average(),
            100.0 * range.support(),
        ),
        None => println!("maximum average range : no ample range"),
    }
    match rules.max_support_average() {
        Some(range) => println!(
            "maximum support range : {} in [{:.0}, {:.0}]  {} = {:.0}, support {:.1}%",
            rules.attr_name,
            range.value_range.0,
            range.value_range.1,
            rules.objective_desc,
            range.average(),
            100.0 * range.support(),
        ),
        None => println!("maximum support range : no range clears avg 10000"),
    }

    // The trade-off the paper highlights: tightening the support
    // requirement lowers the achievable average. Every iteration after
    // the first is served from the engine's scan cache.
    println!("\nsupport threshold sweep (maximum average range):");
    for pct in [5u64, 10, 20, 30, 50] {
        let swept = engine
            .run_spec(
                &spec
                    .clone()
                    .min_support_pct(pct)
                    .task(Task::OptimizeConfidence),
            )
            .expect("mining succeeds");
        if let Some(range) = swept.max_average() {
            println!(
                "  support >= {pct:2}% : avg = {:>7.0}  range [{:.0}, {:.0}]",
                range.average(),
                range.value_range.0,
                range.value_range.1,
            );
        }
    }
    let stats = engine.stats();
    println!(
        "\nscans: {} for {} queries ({} cache hits) — the sweep was pure O(M) re-optimization",
        stats.scans,
        stats.scans + stats.scan_cache_hits,
        stats.scan_cache_hits
    );
}
