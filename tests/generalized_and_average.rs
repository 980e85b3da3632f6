//! Integration tests for the Section 4.3 generalized rules and the
//! Section 5 average-operator ranges.

use optrules::bucketing::{count_buckets, equi_depth_cuts, CountSpec, EquiDepthConfig};
use optrules::core::average::{
    maximum_average_range, maximum_average_range_naive, maximum_support_range,
    maximum_support_range_naive,
};
use optrules::prelude::*;

/// §4.3 semantics: mine_generalized must equal mining a *pre-filtered*
/// relation (tuples failing C1 dropped) with support measured against
/// the full row count.
#[test]
fn generalized_rule_equals_prefiltered_relation() {
    let gen = RetailGenerator::default();
    let rel = gen.to_relation(30_000, 3);
    let schema = rel.schema().clone();
    let amount = schema.numeric("Amount").unwrap();
    let pizza_attr = schema.boolean("Pizza").unwrap();
    let pizza = Condition::BoolIs(pizza_attr, true);
    let potato = Condition::BoolIs(schema.boolean("Potato").unwrap(), true);

    // Manual pre-filtering.
    let mut filtered = Relation::new(schema.clone());
    for row in 0..rel.len() as usize {
        if rel.bool_value(pizza_attr, row) {
            let nums: Vec<f64> = schema
                .numeric_attrs()
                .map(|a| rel.numeric_value(a, row))
                .collect();
            let bools: Vec<bool> = schema
                .boolean_attrs()
                .map(|a| rel.bool_value(a, row))
                .collect();
            filtered.push_row(&nums, &bools).unwrap();
        }
    }

    // Same buckets for both paths: derive them from the full relation.
    let spec = equi_depth_cuts(&rel, amount, &EquiDepthConfig::paper(64, 9)).unwrap();

    let what_gen = CountSpec {
        attr: amount,
        presumptive: pizza.clone(),
        bool_targets: vec![pizza.clone().and(potato.clone())],
        sum_targets: vec![],
    };
    let counts_gen = count_buckets(&rel, &spec, &what_gen).unwrap();

    let what_filtered = CountSpec::simple(amount, potato);
    let counts_filtered = count_buckets(&filtered, &spec, &what_filtered).unwrap();

    assert_eq!(counts_gen.u, counts_filtered.u);
    assert_eq!(counts_gen.bool_v[0], counts_filtered.bool_v[0]);
    // total_rows differs by design: support is measured against N.
    assert_eq!(counts_gen.total_rows, rel.len());
    assert_eq!(counts_filtered.total_rows, filtered.len());
}

/// §5 fast algorithms equal their exhaustive references on bucketized
/// bank data.
#[test]
fn average_ranges_match_naive_on_bank_data() {
    let rel = BankGenerator::default().to_relation(20_000, 7);
    let checking = rel.schema().numeric("CheckingAccount").unwrap();
    let saving = rel.schema().numeric("SavingAccount").unwrap();
    let spec = equi_depth_cuts(&rel, checking, &EquiDepthConfig::paper(128, 3)).unwrap();
    let counts = count_buckets(&rel, &spec, &CountSpec::averaging(checking, saving)).unwrap();
    let (_, cc) = counts.compact();

    for w in [100u64, 2_000, 10_000] {
        let fast = maximum_average_range(&cc.u, &cc.sums[0], w).unwrap();
        let naive = maximum_average_range_naive(&cc.u, &cc.sums[0], w).unwrap();
        assert_eq!(
            fast.map(|r| (r.s, r.t)),
            naive.map(|r| (r.s, r.t)),
            "max-average mismatch at W={w}"
        );
    }
    for theta in [4_000.0, 8_000.0, 14_000.0, 20_000.0] {
        let fast = maximum_support_range(&cc.u, &cc.sums[0], theta).unwrap();
        let naive = maximum_support_range_naive(&cc.u, &cc.sums[0], theta).unwrap();
        assert_eq!(
            fast.map(|r| (r.s, r.t, r.sup_count)),
            naive.map(|r| (r.s, r.t, r.sup_count)),
            "max-support mismatch at θ={theta}"
        );
    }
}

/// §5 trade-off: raising the support requirement can only lower the
/// best achievable average (monotone frontier).
#[test]
fn average_support_frontier_is_monotone() {
    let rel = BankGenerator::default().to_relation(25_000, 13);
    let checking = rel.schema().numeric("CheckingAccount").unwrap();
    let saving = rel.schema().numeric("SavingAccount").unwrap();
    let spec = equi_depth_cuts(&rel, checking, &EquiDepthConfig::paper(200, 3)).unwrap();
    let counts = count_buckets(&rel, &spec, &CountSpec::averaging(checking, saving)).unwrap();
    let (_, cc) = counts.compact();
    let n = counts.total_rows;

    let mut last_avg = f64::INFINITY;
    for pct in [2u64, 5, 10, 20, 40, 80] {
        let w = Ratio::percent(pct).min_count(n);
        let r = maximum_average_range(&cc.u, &cc.sums[0], w)
            .unwrap()
            .expect("feasible");
        assert!(
            r.average() <= last_avg + 1e-9,
            "average rose from {last_avg} to {} at support {pct}%",
            r.average()
        );
        assert!(r.sup_count >= w);
        last_avg = r.average();
    }
}

/// Generalized mining through the engine on the planted retail pattern,
/// cross-checked against direct per-tuple counting of the mined range.
#[test]
fn mined_generalized_rule_counts_are_exact() {
    let gen = RetailGenerator::default();
    let rel = gen.to_relation(40_000, 5);
    let schema = rel.schema().clone();
    let amount = schema.numeric("Amount").unwrap();
    let pizza_attr = schema.boolean("Pizza").unwrap();
    let potato_attr = schema.boolean("Potato").unwrap();

    let engine = SharedEngine::with_config(
        &rel,
        EngineConfig {
            buckets: 100,
            min_support: Ratio::percent(2),
            min_confidence: Ratio::percent(65),
            seed: 3,
            ..EngineConfig::default()
        },
    );
    let spec = QuerySpec::new(
        "Amount",
        ObjectiveSpec::Cond {
            all: CondSpec::from_condition(&Condition::BoolIs(potato_attr, true), &schema),
        },
    )
    .given(CondSpec::from_condition(
        &Condition::BoolIs(pizza_attr, true),
        &schema,
    ));
    let mined = engine.run_spec(&spec).unwrap();

    let rule = mined
        .optimized_support()
        .expect("planted band is confident");
    // Recount the mined value range tuple by tuple.
    let (lo, hi) = rule.value_range;
    let (mut sup, mut hits) = (0u64, 0u64);
    for row in 0..rel.len() as usize {
        let a = rel.numeric_value(amount, row);
        if (lo..=hi).contains(&a) && rel.bool_value(pizza_attr, row) {
            sup += 1;
            hits += rel.bool_value(potato_attr, row) as u64;
        }
    }
    assert_eq!(sup, rule.sup_count, "support count mismatch");
    assert_eq!(hits, rule.hits, "hit count mismatch");
}
