//! The engine's caches must be invisible in the answers: every query
//! result must be byte-identical to what a cold, cache-free run of the
//! same pipeline produces — across seeds, generators, and query kinds.
//!
//! The oracle is the **direct pipeline** (`equi_depth_cuts` →
//! `count_buckets` → optimizers), inlined here and sharing no code with
//! the engine's caching paths.

use optrules::bucketing::{count_buckets, equi_depth_cuts, CountSpec, EquiDepthConfig};
use optrules::prelude::*;

/// The cache-free pipeline, inlined: one bucketization (with the engine's
/// per-attribute seed mix) and one counting scan, then both optimizers.
#[allow(clippy::too_many_arguments)]
fn direct_pair(
    rel: &Relation,
    attr: NumAttr,
    presumptive: Condition,
    objective: Condition,
    buckets: usize,
    seed: u64,
    min_support: Ratio,
    min_confidence: Ratio,
) -> (Option<RangeRule>, Option<RangeRule>) {
    let cfg = EquiDepthConfig {
        buckets,
        samples_per_bucket: 40,
        seed: seed ^ (attr.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        method: SamplingMethod::WithReplacement,
    };
    let spec = equi_depth_cuts(rel, attr, &cfg).unwrap();
    let combined = presumptive.clone().and(objective);
    let what = CountSpec {
        attr,
        presumptive,
        bool_targets: vec![combined],
        sum_targets: Vec::new(),
    };
    let counts = count_buckets(rel, &spec, &what).unwrap();
    let total_rows = counts.total_rows;
    let (_, cc) = counts.compact();
    if cc.bucket_count() == 0 {
        return (None, None);
    }
    let (u, v) = (&cc.u, &cc.bool_v[0]);
    let mk = |kind, r: OptRange| RangeRule {
        kind,
        bucket_range: (r.s, r.t),
        value_range: (cc.ranges[r.s].0, cc.ranges[r.t].1),
        sup_count: r.sup_count,
        hits: r.hits,
        total_rows,
    };
    let sup = optimize_support(u, v, min_confidence)
        .unwrap()
        .map(|r| mk(RuleKind::OptimizedSupport, r));
    let conf = optimize_confidence(u, v, min_support.min_count(total_rows))
        .unwrap()
        .map(|r| mk(RuleKind::OptimizedConfidence, r));
    (sup, conf)
}

#[test]
fn engine_matches_direct_pipeline_across_seeds() {
    for seed in [0u64, 1, 7, 42, 0xdead_beef] {
        for buckets in [25usize, 120] {
            let rel = BankGenerator::default().to_relation(12_000, seed ^ 0x55);
            let schema = rel.schema().clone();
            let attr = schema.numeric("Balance").unwrap();
            let loan = Condition::BoolIs(schema.boolean("CardLoan").unwrap(), true);
            let min_support = Ratio::percent(10);
            let min_confidence = Ratio::percent(55);

            let (direct_sup, direct_conf) = direct_pair(
                &rel,
                attr,
                Condition::True,
                loan.clone(),
                buckets,
                seed,
                min_support,
                min_confidence,
            );

            let engine = SharedEngine::with_config(
                &rel,
                EngineConfig {
                    buckets,
                    seed,
                    min_support,
                    min_confidence,
                    ..EngineConfig::default()
                },
            );
            // Run twice: the first answer is cold, the second comes
            // entirely from the cache. Both must equal the oracle.
            let spec = QuerySpec::new(
                "Balance",
                ObjectiveSpec::Cond {
                    all: CondSpec::from_condition(&loan, &schema),
                },
            );
            for round in 0..2 {
                let rules = engine.run_spec(&spec).unwrap();
                assert_eq!(
                    rules.optimized_support(),
                    direct_sup.as_ref(),
                    "seed {seed} buckets {buckets} round {round}: support rule diverged"
                );
                assert_eq!(
                    rules.optimized_confidence(),
                    direct_conf.as_ref(),
                    "seed {seed} buckets {buckets} round {round}: confidence rule diverged"
                );
            }
            assert_eq!(engine.stats().scans, 1, "second round must not rescan");
        }
    }
}

#[test]
fn engine_matches_direct_pipeline_for_generalized_rules() {
    for seed in [3u64, 11, 29] {
        let rel = RetailGenerator::default().to_relation(15_000, seed);
        let schema = rel.schema().clone();
        let amount = schema.numeric("Amount").unwrap();
        let pizza = Condition::BoolIs(schema.boolean("Pizza").unwrap(), true);
        let potato = Condition::BoolIs(schema.boolean("Potato").unwrap(), true);
        let min_support = Ratio::percent(2);
        let min_confidence = Ratio::percent(65);

        let (direct_sup, direct_conf) = direct_pair(
            &rel,
            amount,
            pizza.clone(),
            potato.clone(),
            80,
            seed,
            min_support,
            min_confidence,
        );
        let engine = SharedEngine::with_config(
            &rel,
            EngineConfig {
                buckets: 80,
                seed,
                min_support,
                min_confidence,
                ..EngineConfig::default()
            },
        );
        let spec = QuerySpec::new(
            "Amount",
            ObjectiveSpec::Cond {
                all: CondSpec::from_condition(&potato, &schema),
            },
        )
        .given(CondSpec::from_condition(&pizza, &schema));
        let rules = engine.run_spec(&spec).unwrap();
        assert_eq!(
            rules.optimized_support(),
            direct_sup.as_ref(),
            "seed {seed}"
        );
        assert_eq!(
            rules.optimized_confidence(),
            direct_conf.as_ref(),
            "seed {seed}"
        );
    }
}

#[test]
fn second_query_skips_resampling_and_rescanning() {
    let rel = BankGenerator::default().to_relation(20_000, 5);
    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 200,
            ..EngineConfig::default()
        },
    );
    engine
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
        .unwrap();
    let cold = engine.stats();
    assert_eq!((cold.bucketizations, cold.scans), (1, 1));

    // Same attribute, same spec: pure cache, no new O(N) work.
    engine
        .run_spec(&QuerySpec::boolean("Balance", "CardLoan").min_support_pct(25))
        .unwrap();
    // Same attribute, different Boolean target: still the shared scan.
    engine
        .run_spec(&QuerySpec::boolean("Balance", "OnlineBanking"))
        .unwrap();
    let warm = engine.stats();
    assert_eq!(
        (warm.bucketizations, warm.scans),
        (1, 1),
        "warm queries must not resample or rescan: {warm:?}"
    );
    assert_eq!(warm.scan_cache_hits, 2);
}
