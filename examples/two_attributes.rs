//! Two numeric attributes (the §1.4 extension): find a *rectangle*
//! `(X, Y) ∈ [x1, x2] × [y1, y2]` maximizing confidence or support —
//! the rule shape `(Age, Balance) ∈ X ⇒ (CardLoan = yes)` the paper
//! points to its SIGMOD 1996 companion for.
//!
//! Rectangle mining is a first-class workload: name a second attribute
//! with [`QuerySpec::region2d`] and the engine
//! bucketizes both axes (Algorithm 3.1 per axis), fills the grid in
//! one counting scan, caches it, and runs the O(nx²·ny) rectangle
//! sweeps centrally. The same spec works through `optrules batch`,
//! `optrules serve`, and the scatter-gather coordinator.
//!
//! Data has a planted 0.4 × 0.4 block at 80 % confidence (10 % outside);
//! the sweep over the equi-depth grid recovers it.
//!
//! ```sh
//! cargo run --release --example two_attributes
//! ```

use optrules::prelude::*;
use optrules::relation::gen::PlantedRectGenerator;

fn main() {
    let generator = PlantedRectGenerator::default();
    let rel = generator.to_relation(200_000, 2718);
    println!(
        "planted rectangle: X in [{}, {}) x Y in [{}, {}), confidence {}% inside, {}% outside",
        generator.x_band.0,
        generator.x_band.1,
        generator.y_band.0,
        generator.y_band.1,
        100.0 * generator.conf_in,
        100.0 * generator.conf_out,
    );

    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            // 48 × 48 grid: `buckets` caps the *cell* budget for 2-D
            // queries, so 2304 cells ≈ the 1-D default budget. An
            // explicit per-spec `.buckets(48)` would do the same.
            buckets: 48 * 48,
            seed: 1,
            ..EngineConfig::default()
        },
    );

    // The §1.4 rectangle query, first-class: both optimizations in one
    // pass over one cached grid.
    let rect = QuerySpec::region2d("X", "Y", "C").min_confidence_pct(70);
    let rules = engine
        .run_spec(&rect.clone().min_support_pct(10))
        .expect("rectangle query runs");

    let conf = rules.rect_confidence().expect("ample rectangle exists");
    println!(
        "\noptimized-confidence rectangle (support >= 10%):\n  {}",
        conf.describe("X", "Y", &rules.objective_desc)
    );

    let sup = rules.rect_support().expect("confident rectangle exists");
    println!(
        "\noptimized-support rectangle (confidence >= 70%):\n  {}",
        sup.describe("X", "Y", &rules.objective_desc)
    );

    // A follow-up rectangle query on the same pair reuses the cached
    // grid — no second counting scan.
    let again = engine
        .run_spec(&rect.min_support_pct(20))
        .expect("rectangle query runs");
    assert!(again.rect_confidence().is_some());
    let stats = engine.stats();
    println!(
        "\nscans {} (grid shared across both queries), scan cache hits {}",
        stats.scans, stats.scan_cache_hits
    );
}
