//! Batch execution (`SharedEngine::run_batch`) against the sequential
//! path: identical `RuleSet`s at every thread count, exactly one
//! bucketization / counting scan per distinct plan node, and the
//! JSON response encoding pinned by golden bytes.

use optrules::core::json;
use optrules::prelude::*;

fn config() -> EngineConfig {
    EngineConfig {
        buckets: 60,
        seed: 7,
        min_support: Ratio::percent(10),
        min_confidence: Ratio::percent(60),
        ..EngineConfig::default()
    }
}

fn engine(rows: u64, seed: u64) -> SharedEngine<Relation> {
    SharedEngine::with_config(BankGenerator::default().to_relation(rows, seed), config())
}

/// A mixed workload: many specs sharing one bucketization, plus an
/// average query, a generalized query, per-spec overrides, and two
/// failing specs (unknown attribute, invalid threshold combination).
fn mixed_specs() -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for target in ["CardLoan", "AutoWithdraw", "OnlineBanking"] {
        specs.push(QuerySpec::boolean("Balance", target));
    }
    let mut support_only = QuerySpec::boolean("Balance", "CardLoan");
    support_only.task = Task::OptimizeSupport;
    specs.push(support_only);
    let mut avg = QuerySpec::average("CheckingAccount", "SavingAccount");
    avg.min_average = Some(Real(14_000.0));
    specs.push(avg);
    let mut given = QuerySpec::boolean("Balance", "CardLoan");
    given.given = vec![CondSpec::BoolIs {
        attr: "AutoWithdraw".into(),
        value: true,
    }];
    specs.push(given);
    let mut rebucketed = QuerySpec::boolean("Age", "CardLoan");
    rebucketed.buckets = Some(25);
    specs.push(rebucketed);
    specs.push(QuerySpec::boolean("NoSuchAttr", "CardLoan"));
    let mut bad_threshold = QuerySpec::average("Balance", "SavingAccount");
    bad_threshold.min_confidence = Some(Ratio::percent(90));
    specs.push(bad_threshold);
    specs
}

#[test]
fn run_batch_matches_sequential_at_every_thread_count() {
    let specs = mixed_specs();
    let sequential: Vec<Result<RuleSet, String>> = {
        let engine = engine(8_000, 23);
        specs
            .iter()
            .map(|s| engine.run_spec(s).map_err(|e| e.to_string()))
            .collect()
    };
    // Sanity: the workload exercises both success and failure paths.
    assert!(sequential.iter().filter(|r| r.is_ok()).count() >= 6);
    assert_eq!(sequential.iter().filter(|r| r.is_err()).count(), 2);
    for threads in [1, 2, 4, 8] {
        let engine = engine(8_000, 23);
        let batched: Vec<Result<RuleSet, String>> = engine
            .run_batch(&specs, threads)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        assert_eq!(batched, sequential, "threads={threads}");
    }
}

#[test]
fn shared_work_units_run_exactly_once() {
    // 8 specs over one (attr, buckets, samples, seed) bucketization,
    // all eligible for the shared all-Booleans scan: one bucket node,
    // one scan node, however many queries.
    let mut specs = Vec::new();
    for target in ["CardLoan", "AutoWithdraw", "OnlineBanking"] {
        specs.push(QuerySpec::boolean("Balance", target));
        let mut conf_only = QuerySpec::boolean("Balance", target);
        conf_only.task = Task::OptimizeConfidence;
        specs.push(conf_only);
    }
    let mut tighter = QuerySpec::boolean("Balance", "CardLoan");
    tighter.min_support = Some(Ratio::percent(20));
    specs.push(tighter);
    let mut looser = QuerySpec::boolean("Balance", "CardLoan");
    looser.min_confidence = Some(Ratio::percent(52));
    specs.push(looser);

    let engine = engine(6_000, 11);
    let plan = engine.plan_batch(&specs);
    assert_eq!(plan.queries(), 8);
    assert_eq!(plan.bucket_nodes(), 1, "one shared bucketization");
    assert_eq!(plan.scan_nodes(), 1, "one shared counting scan");
    assert_eq!(plan.resolution_errors(), 0);

    for threads in [1, 4] {
        let engine = self::engine(6_000, 11);
        let results = engine.run_batch(&specs, threads);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = engine.stats();
        assert_eq!(stats.bucketizations, 1, "threads={threads}: {stats:?}");
        assert_eq!(stats.scans, 1, "threads={threads}: {stats:?}");
        // Every query was then assembled warm.
        assert_eq!(stats.scan_cache_hits, specs.len() as u64);
        assert_eq!(stats.hits() + stats.misses(), stats.lookups);
    }
}

#[test]
fn plan_counts_distinct_nodes() {
    // Bucket nodes: Balance@60, Balance@30, CheckingAccount@60.
    // Scan nodes: Balance@60 shared, Balance@30 shared, Balance@60
    // with a presumptive filter, CheckingAccount@60 average.
    let mut specs = vec![QuerySpec::boolean("Balance", "CardLoan")];
    specs.push(QuerySpec::boolean("Balance", "AutoWithdraw")); // same nodes
    let mut rebucketed = QuerySpec::boolean("Balance", "CardLoan");
    rebucketed.buckets = Some(30);
    specs.push(rebucketed); // new bucket node + new scan node
    let mut given = QuerySpec::boolean("Balance", "CardLoan");
    given.given = vec![CondSpec::BoolIs {
        attr: "AutoWithdraw".into(),
        value: true,
    }];
    specs.push(given); // same bucket node, new scan node
    specs.push(QuerySpec::average("CheckingAccount", "SavingAccount")); // new bucket + scan
    specs.push(QuerySpec::boolean("Missing", "CardLoan")); // resolution error

    let engine = engine(3_000, 5);
    let plan = engine.plan_batch(&specs);
    assert_eq!(plan.queries(), 6);
    assert_eq!(plan.bucket_nodes(), 3);
    assert_eq!(plan.scan_nodes(), 4);
    assert_eq!(plan.resolution_errors(), 1);

    engine.run_batch(&specs, 4);
    let stats = engine.stats();
    assert_eq!(stats.bucketizations, 3);
    assert_eq!(stats.scans, 4);
}

#[test]
fn spec_json_round_trip_runs_identically() {
    let engine = engine(5_000, 3);
    let spec = QuerySpec::boolean("Balance", "CardLoan")
        .given([CondSpec::BoolIs {
            attr: "AutoWithdraw".into(),
            value: true,
        }])
        .min_support_pct(5);
    let direct = engine.run_spec(&spec).unwrap();
    // Through JSON: encode → decode → run is still identical.
    let decoded = json::decode_spec(&json::encode_spec(&spec)).unwrap();
    assert_eq!(decoded, spec);
    assert_eq!(engine.run_spec(&decoded).unwrap(), direct);
}

/// Golden bytes for the response encoding: field order, number
/// formatting, and escaping are part of the protocol — if this test
/// breaks, the protocol changed and consumers must be told.
#[test]
fn rule_set_encoding_golden() {
    let rules = RuleSet {
        attr_name: "Balance".into(),
        attr2: None,
        objective_desc: "(CardLoan = yes)".into(),
        rules: vec![
            Rule::Range(RangeRule {
                kind: RuleKind::OptimizedSupport,
                bucket_range: (3, 17),
                value_range: (3004.25, 7998.875),
                sup_count: 24_890,
                hits: 16_120,
                total_rows: 100_000,
            }),
            Rule::Average(AvgRule {
                kind: RuleKind::MaximumAverage,
                bucket_range: (0, 4),
                value_range: (1.5, 9.25),
                sup_count: 400,
                sum: 123_456.75,
                total_rows: 2_000,
            }),
        ],
        buckets_used: 50,
        total_rows: 100_000,
    };
    assert_eq!(
        json::encode_rule_set(&rules),
        r#"{"attr":"Balance","objective":"(CardLoan = yes)","buckets_used":50,"total_rows":100000,"rules":[{"kind":"optimized_support","buckets":[3,17],"values":[3004.25,7998.875],"count":24890,"hits":16120,"rows":100000},{"kind":"maximum_average","buckets":[0,4],"values":[1.5,9.25],"count":400,"sum":123456.75,"rows":2000}]}"#
    );

    let empty = RuleSet {
        attr_name: "A \"quoted\"".into(),
        attr2: None,
        objective_desc: "avg(B)".into(),
        rules: vec![],
        buckets_used: 0,
        total_rows: 0,
    };
    assert_eq!(
        json::encode_rule_set(&empty),
        r#"{"attr":"A \"quoted\"","objective":"avg(B)","buckets_used":0,"total_rows":0,"rules":[]}"#
    );
}

/// Golden bytes for the request encoding (same contract as above).
#[test]
fn query_spec_encoding_golden() {
    let mut spec = QuerySpec::boolean("Balance", "CardLoan");
    spec.min_support = Some(Ratio::percent(10));
    spec.buckets = Some(200);
    assert_eq!(
        json::encode_spec(&spec),
        r#"{"attr":"Balance","objective":{"bool":"CardLoan"},"min_support":[10,100],"buckets":200}"#
    );
    let mut avg = QuerySpec::average("CheckingAccount", "SavingAccount");
    avg.given = vec![CondSpec::NumInRange {
        attr: "Age".into(),
        lo: Real(18.0),
        hi: Real(65.5),
    }];
    avg.task = Task::OptimizeConfidence;
    avg.min_average = Some(Real(14_000.0));
    avg.scan_all_booleans = false;
    assert_eq!(
        json::encode_spec(&avg),
        r#"{"attr":"CheckingAccount","objective":{"average":"SavingAccount"},"given":[{"num":"Age","in":[18,65.5]}],"task":"confidence","min_average":14000,"scan_all_booleans":false}"#
    );
}

#[test]
fn mine_all_pairs_is_a_batch_now() {
    // The §1.3 sweep rides the batch planner: per numeric attribute one
    // bucketization and one shared scan, at any fan-out width.
    let engine = engine(5_000, 3);
    let sets = engine.mine_all_pairs(4).unwrap();
    assert_eq!(sets.len(), 12); // 4 numeric × 3 boolean
    let stats = engine.stats();
    assert_eq!(stats.bucketizations, 4);
    assert_eq!(stats.scans, 4);
    assert_eq!(stats.scan_cache_hits, 12);
}
