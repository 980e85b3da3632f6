//! Algorithm 3.2 consistency: partitioned parallel counting must be
//! indistinguishable from the sequential scan, for both storage
//! backends and any thread count, including through the full miner.

use optrules::bucketing::{
    count_buckets, count_buckets_parallel, equi_depth_cuts, CountSpec, EquiDepthConfig,
};
use optrules::prelude::*;

fn spec_and_what(rel: &impl RandomAccess) -> (optrules::bucketing::BucketSpec, CountSpec) {
    let attr = rel.schema().numeric("N0").unwrap();
    let spec = equi_depth_cuts(rel, attr, &EquiDepthConfig::paper(256, 3)).unwrap();
    let what = CountSpec {
        attr,
        presumptive: Condition::True,
        bool_targets: rel
            .schema()
            .boolean_attrs()
            .map(|b| Condition::BoolIs(b, true))
            .collect(),
        sum_targets: rel.schema().numeric_attrs().skip(1).take(2).collect(),
    };
    (spec, what)
}

#[test]
fn parallel_counts_equal_sequential_in_memory() {
    let rel = UniformWorkload::paper().to_relation(30_011, 5);
    let (spec, what) = spec_and_what(&rel);
    let seq = count_buckets(&rel, &spec, &what).unwrap();
    for threads in [2usize, 3, 5, 8] {
        let par = count_buckets_parallel(&rel, &spec, &what, threads).unwrap();
        assert_eq!(par.u, seq.u, "u mismatch at {threads} threads");
        assert_eq!(par.bool_v, seq.bool_v, "v mismatch at {threads} threads");
        assert_eq!(par.ranges, seq.ranges);
        assert_eq!(par.total_rows, seq.total_rows);
        for (ps, ss) in par.sums.iter().zip(&seq.sums) {
            for (a, b) in ps.iter().zip(ss) {
                assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0));
            }
        }
    }
}

#[test]
fn parallel_counts_equal_sequential_file_backed() {
    let path = std::env::temp_dir().join(format!(
        "optrules-par-consistency-{}.rel",
        std::process::id()
    ));
    let rel = UniformWorkload::paper().to_file(&path, 20_000, 5).unwrap();
    let (spec, what) = spec_and_what(&rel);
    let seq = count_buckets(&rel, &spec, &what).unwrap();
    for threads in [2usize, 4] {
        let par = count_buckets_parallel(&rel, &spec, &what, threads).unwrap();
        assert_eq!(par.u, seq.u);
        assert_eq!(par.bool_v, seq.bool_v);
        assert_eq!(par.total_rows, seq.total_rows);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn engine_results_independent_of_thread_count() {
    let rel = BankGenerator::default().to_relation(15_000, 19);
    let engine = SharedEngine::with_config(
        &rel,
        EngineConfig {
            buckets: 128,
            seed: 77,
            min_support: Ratio::percent(10),
            min_confidence: Ratio::percent(60),
            ..EngineConfig::default()
        },
    );
    let mut results = Vec::new();
    for threads in [1usize, 2, 4] {
        // No clear_cache needed: the thread count is part of the scan
        // key, so each thread count runs its own fresh scan.
        results.push(
            engine
                .run_spec(&QuerySpec {
                    threads: Some(threads),
                    ..QuerySpec::boolean("Balance", "CardLoan")
                })
                .unwrap(),
        );
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}
