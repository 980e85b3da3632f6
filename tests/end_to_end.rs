//! End-to-end pipeline tests: relation → buckets → optimized rules,
//! validated against exhaustive ground truth and across storage
//! backends.

use optrules::bucketing::{count_buckets, equi_depth_cuts, CountSpec, EquiDepthConfig};
use optrules::core::naive::{optimize_confidence_naive, optimize_support_naive};
use optrules::prelude::*;

/// Buckets + optimizers on a planted relation: the O(M) algorithms must
/// agree exactly with the O(M²) baselines on the same counts.
#[test]
fn fast_equals_naive_on_real_bucket_counts() {
    let rel = PlantedRangeGenerator::new((0.2, 0.5), 0.8, 0.2).to_relation(30_000, 42);
    let attr = rel.schema().numeric("A").unwrap();
    let target = Condition::BoolIs(rel.schema().boolean("C").unwrap(), true);
    for m in [10usize, 57, 200, 1000] {
        let spec = equi_depth_cuts(&rel, attr, &EquiDepthConfig::paper(m, 7)).unwrap();
        let counts = count_buckets(&rel, &spec, &CountSpec::simple(attr, target.clone())).unwrap();
        let (_, cc) = counts.compact();
        let (u, v) = (&cc.u, &cc.bool_v[0]);
        let n = counts.total_rows;
        for min_sup_pct in [1u64, 10, 30] {
            let w = Ratio::percent(min_sup_pct).min_count(n);
            assert_eq!(
                optimize_confidence(u, v, w).unwrap(),
                optimize_confidence_naive(u, v, w).unwrap(),
                "confidence mismatch at m={m} minsup={min_sup_pct}%"
            );
        }
        for theta_pct in [30u64, 50, 75] {
            let theta = Ratio::percent(theta_pct);
            assert_eq!(
                optimize_support(u, v, theta).unwrap(),
                optimize_support_naive(u, v, theta).unwrap(),
                "support mismatch at m={m} θ={theta_pct}%"
            );
        }
    }
}

/// File-backed and in-memory storage must yield identical mining
/// results for the same data and seed.
#[test]
fn file_backed_mining_matches_in_memory() {
    let gen = BankGenerator::default();
    let mem = gen.to_relation(20_000, 9);
    let path = std::env::temp_dir().join(format!("optrules-e2e-file-{}.rel", std::process::id()));
    let file = gen.to_file(&path, 20_000, 9).unwrap();

    let config = EngineConfig {
        buckets: 100,
        min_support: Ratio::percent(10),
        min_confidence: Ratio::percent(60),
        seed: 123,
        ..EngineConfig::default()
    };

    let from_mem = SharedEngine::with_config(&mem, config)
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .unwrap();
    let from_file = SharedEngine::with_config(&file, config)
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .unwrap();
    assert_eq!(from_mem, from_file);
    std::fs::remove_file(&path).unwrap();
}

/// Mining twice with the same seed is deterministic; a different seed
/// may move bucket boundaries but must keep the headline result stable
/// on strongly planted data.
#[test]
fn mining_determinism_and_seed_stability() {
    let rel = PlantedRangeGenerator::new((0.4, 0.7), 0.9, 0.05).to_relation(40_000, 4);
    let config = EngineConfig {
        buckets: 250,
        min_support: Ratio::percent(5),
        min_confidence: Ratio::percent(80),
        seed: 555,
        ..EngineConfig::default()
    };
    // Two independent engines (no shared cache) must agree exactly.
    let mine = |cfg: EngineConfig| {
        SharedEngine::with_config(&rel, cfg)
            .run_spec(&QuerySpec::boolean("A", "C"))
            .unwrap()
    };
    let a = mine(config);
    let b = mine(config);
    assert_eq!(a, b);

    let d = mine(EngineConfig {
        seed: 556,
        ..config
    });
    let ra = a.optimized_support().unwrap().clone();
    let rd = d.optimized_support().unwrap().clone();
    // Both seeds must find (approximately) the planted band. θ = 80 %
    // admits widening by up to 4 % support (0.3·(0.9−0.8)/(0.8−0.05)),
    // which can land entirely on one edge.
    for r in [&ra, &rd] {
        assert!(
            (r.value_range.0 - 0.4).abs() < 0.05,
            "left {:?}",
            r.value_range
        );
        assert!(
            (r.value_range.1 - 0.7).abs() < 0.05,
            "right {:?}",
            r.value_range
        );
    }
}

/// The facade's one-shot quickstart path stays green (doc example
/// mirror, with stronger assertions).
#[test]
fn quickstart_pipeline() {
    let schema = Schema::builder()
        .numeric("Balance")
        .boolean("CardLoan")
        .build();
    let mut rel = Relation::new(schema);
    for i in 0..5000u64 {
        let balance = (i % 100) as f64 * 100.0;
        let loan = (3000.0..=7000.0).contains(&balance) && i % 3 != 0;
        rel.push_row(&[balance], &[loan]).unwrap();
    }
    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 50,
            min_support: Ratio::percent(10),
            min_confidence: Ratio::percent(60),
            ..EngineConfig::default()
        },
    );
    let mined = engine
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .unwrap();
    let sup = mined.optimized_support().unwrap();
    assert!(sup.confidence() >= 0.60);
    // In-band loan rate is 2/3; the band spans 41 of 100 balance values.
    assert!(sup.support() > 0.3, "support {}", sup.support());
    let conf = mined.optimized_confidence().unwrap();
    assert!(conf.support() >= 0.0999);
    assert!(conf.confidence() >= sup.confidence() - 1e-9);
}

/// Optimized-confidence and optimized-support rules are duals: the
/// confidence-optimal range at the support the support-rule achieved
/// must have confidence ≥ the support-rule's (sanity linking the two).
#[test]
fn rule_duality_sanity() {
    let rel = PlantedRangeGenerator::table1().to_relation(25_000, 77);
    let attr = rel.schema().numeric("A").unwrap();
    let target = Condition::BoolIs(rel.schema().boolean("C").unwrap(), true);
    let spec = equi_depth_cuts(&rel, attr, &EquiDepthConfig::paper(300, 5)).unwrap();
    let counts = count_buckets(&rel, &spec, &CountSpec::simple(attr, target)).unwrap();
    let (_, cc) = counts.compact();
    let sup_rule = optimize_support(&cc.u, &cc.bool_v[0], Ratio::percent(60))
        .unwrap()
        .expect("planted band is confident");
    let conf_rule = optimize_confidence(&cc.u, &cc.bool_v[0], sup_rule.sup_count)
        .unwrap()
        .expect("that support level is feasible");
    assert!(
        conf_rule.hits * sup_rule.sup_count >= sup_rule.hits * conf_rule.sup_count,
        "confidence-optimal at the same support must be at least as confident"
    );
}
