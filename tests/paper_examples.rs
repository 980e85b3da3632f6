//! The paper's worked examples, encoded as executable tests.
//!
//! Each test cites the example it reproduces; together they pin the
//! semantics of Definitions 2.2-2.6 and the observations the paper
//! makes in passing.

use optrules::bucketing::{count_buckets, finest_cuts_for_integer_domain, CountSpec};
use optrules::prelude::*;

/// Example 2.3's observation: "although [1000, 5000] is a superset of
/// [2000, 4000], the confidence of the rule of the former range is
/// greater than that of the latter range". Construct buckets where
/// exactly that happens.
#[test]
fn example_2_3_superset_can_be_more_confident() {
    // Buckets over Balance: [1000,2000), [2000,4000), [4000,5000].
    // The outer buckets are hit-rich, the middle is hit-poor.
    let u = [100u64, 100, 100];
    let v = [95u64, 50, 95];
    let conf = |s: usize, t: usize| {
        v[s..=t].iter().sum::<u64>() as f64 / u[s..=t].iter().sum::<u64>() as f64
    };
    let inner = conf(1, 1); // [2000, 4000): 50 %
    let outer = conf(0, 2); // [1000, 5000]: 80 %
    assert!(outer > inner, "superset {outer} must exceed subset {inner}");

    // And the optimizers respect it: with θ = 65 % the optimized-support
    // range is the superset, not the subset.
    let best = optimize_support(&u, &v, Ratio::percent(65))
        .unwrap()
        .unwrap();
    assert_eq!((best.s, best.t), (0, 2));
}

/// Example 2.4: ages 0..=120 give 121 finest buckets; balances of
/// millions of customers would give millions — the case that motivates
/// approximate bucketing.
#[test]
fn example_2_4_age_finest_buckets() {
    let spec = finest_cuts_for_integer_domain(0, 120);
    assert_eq!(spec.bucket_count(), 121);
    // Every age maps to its own bucket.
    for age in 0..=120 {
        assert_eq!(spec.bucket_of(age as f64), age);
    }
}

/// Definition 2.6: `(Σ v_i)/(Σ u_i)` over consecutive buckets is the
/// rule's confidence and `(Σ u_i)/N` its support — checked through the
/// whole pipeline against direct per-tuple counting.
#[test]
fn definition_2_6_confidence_and_support_formulas() {
    let gen = PlantedRangeGenerator::new((0.3, 0.6), 0.75, 0.2);
    let rel = gen.to_relation(10_000, 77);
    let attr = rel.schema().numeric("A").unwrap();
    let c = rel.schema().boolean("C").unwrap();
    let spec = optrules::bucketing::BucketSpec::from_cuts(vec![0.25, 0.5, 0.75]);
    let counts = count_buckets(
        &rel,
        &spec,
        &CountSpec::simple(attr, Condition::BoolIs(c, true)),
    )
    .unwrap();

    // Range = buckets 1..=2, i.e. A ∈ (0.25, 0.75].
    let sup: u64 = counts.u[1..=2].iter().sum();
    let hits: u64 = counts.bool_v[0][1..=2].iter().sum();

    let (mut direct_sup, mut direct_hits) = (0u64, 0u64);
    for row in 0..rel.len() as usize {
        let a = rel.numeric_value(attr, row);
        if 0.25 < a && a <= 0.75 {
            direct_sup += 1;
            direct_hits += rel.bool_value(c, row) as u64;
        }
    }
    assert_eq!(sup, direct_sup);
    assert_eq!(hits, direct_hits);
}

/// Section 2.2 / Definition 2.4 dual structure: at the *same* threshold
/// pair, the optimized-support rule is at least as wide as the
/// optimized-confidence rule, and the optimized-confidence rule at
/// least as confident.
#[test]
fn definition_2_4_duality_on_planted_data() {
    let gen = PlantedRangeGenerator::new((0.2, 0.55), 0.8, 0.15);
    let rel = gen.to_relation(30_000, 5);
    let engine = SharedEngine::with_config(
        rel,
        EngineConfig {
            buckets: 200,
            min_support: Ratio::percent(10),
            min_confidence: Ratio::percent(60),
            ..EngineConfig::default()
        },
    );
    let mined = engine.run_spec(&QuerySpec::boolean("A", "C")).unwrap();
    let sup = mined.optimized_support().unwrap();
    let conf = mined.optimized_confidence().unwrap();
    assert!(sup.support() >= conf.support() - 1e-9);
    assert!(conf.confidence() >= sup.confidence() - 1e-9);
    // Both satisfy their respective constraints.
    assert!(sup.confidence() >= 0.60);
    assert!(conf.support() >= 0.10 - 1e-9);
}

/// §2.3's counting strategies agree: hash-style direct counting over
/// finest buckets (small discrete domain) equals the generic binary
/// search assignment.
#[test]
fn section_2_3_finest_bucket_counting() {
    let schema = Schema::builder().numeric("Age").boolean("C").build();
    let mut rel = Relation::new(schema);
    let mut direct = vec![(0u64, 0u64); 121];
    for i in 0..5000u64 {
        let age = (i * 37 % 121) as f64;
        let c = i % 4 == 0;
        rel.push_row(&[age], &[c]).unwrap();
        let slot = &mut direct[age as usize];
        slot.0 += 1;
        slot.1 += c as u64;
    }
    let spec = finest_cuts_for_integer_domain(0, 120);
    let attr = rel.schema().numeric("Age").unwrap();
    let c = Condition::BoolIs(rel.schema().boolean("C").unwrap(), true);
    let counts = count_buckets(&rel, &spec, &CountSpec::simple(attr, c)).unwrap();
    for (bucket, &(du, dv)) in direct.iter().enumerate() {
        assert_eq!(counts.u[bucket], du, "u mismatch at age {bucket}");
        assert_eq!(counts.bool_v[0][bucket], dv, "v mismatch at age {bucket}");
    }
}
