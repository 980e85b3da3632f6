//! The serving-path win of the `SharedEngine` session API: cold (fresh
//! engine per query, nothing amortized) vs warm (same engine, cache
//! populated) query latency at M ∈ {100, 1000}.
//!
//! A cold query pays Algorithm 3.1's 40·M sampling + sort plus the O(N)
//! counting scan; a warm query on a cached attribute pays only the O(M)
//! optimizers. The `speedup` lines print the measured cold/warm ratio
//! directly — the §1.3 interactive scenario needs it ≥ 5× at M = 1000.
//!
//! The `scan_kernel` / `scan_fallback` pair isolates the counting scan
//! itself: the same `count_buckets` call over the same relation, once
//! through the columnar kernels and once through [`VisitorOnly`] (which
//! hides the columnar capability, forcing the generic row visitor).
//! Their ratio is the kernel speedup on a cold scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use optrules_bench::{fmt_duration, time_best_of};
use optrules_bucketing::{count_buckets, CountSpec};
use optrules_core::{EngineConfig, Ratio, SharedEngine};
use optrules_relation::gen::{BankGenerator, DataGenerator};
use optrules_relation::{BoolAttr, Condition, NumAttr, Relation, Schema, TupleScan};
use std::hint::black_box;
use std::ops::Range;
use std::time::Duration;

/// Forwards `TupleScan` but keeps the default `as_columnar() == None`,
/// so scans over it take the row-visitor fallback.
struct VisitorOnly<'a>(&'a Relation);

impl TupleScan for VisitorOnly<'_> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn for_each_row_in(
        &self,
        range: Range<u64>,
        f: optrules_relation::scan::RowVisitor<'_>,
    ) -> optrules_relation::error::Result<()> {
        self.0.for_each_row_in(range, f)
    }
}

const ROWS: u64 = 100_000;

fn config(buckets: usize) -> EngineConfig {
    EngineConfig {
        buckets,
        min_support: Ratio::percent(10),
        min_confidence: Ratio::percent(60),
        ..EngineConfig::default()
    }
}

fn cold_query(rel: &Relation, buckets: usize) {
    let engine = SharedEngine::with_config(rel, config(buckets));
    black_box(
        engine
            .query("Balance")
            .objective_is("CardLoan")
            .run()
            .expect("ok"),
    );
}

fn warm_query(engine: &SharedEngine<&Relation>) {
    black_box(
        engine
            .query("Balance")
            .objective_is("CardLoan")
            .run()
            .expect("ok"),
    );
}

fn bench_engine_cache(c: &mut Criterion) {
    let rel = BankGenerator::default().to_relation(ROWS, 3);
    let mut group = c.benchmark_group("engine_cache");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(rel.len()));

    for buckets in [100usize, 1000] {
        group.bench_with_input(
            BenchmarkId::new("cold", buckets),
            &buckets,
            |b, &buckets| b.iter(|| cold_query(&rel, buckets)),
        );
        let engine = SharedEngine::with_config(&rel, config(buckets));
        warm_query(&engine); // populate the cache once
        group.bench_with_input(BenchmarkId::new("warm", buckets), &buckets, |b, _| {
            b.iter(|| warm_query(&engine))
        });
    }
    // The counting scan alone, kernel vs forced row-visitor fallback,
    // over identical cuts. Outputs are bit-identical (asserted below);
    // only the speed may differ.
    let attr = rel.schema().numeric("Balance").expect("bank schema");
    let target = rel.schema().boolean("CardLoan").expect("bank schema");
    let scan_spec = |attr: NumAttr, target: BoolAttr| CountSpec {
        attr,
        presumptive: Condition::True,
        bool_targets: vec![Condition::BoolIs(target, true)],
        sum_targets: vec![],
    };
    for buckets in [100usize, 1000] {
        let cuts = optrules_bucketing::naive_sort_cuts(&rel, attr, buckets).expect("cuts");
        let what = scan_spec(attr, target);
        let kernel = count_buckets(&rel, &cuts, &what).expect("kernel scan");
        let fallback = count_buckets(&VisitorOnly(&rel), &cuts, &what).expect("fallback scan");
        assert_eq!(kernel, fallback, "kernel must match the visitor path");
        group.bench_with_input(
            BenchmarkId::new("scan_kernel", buckets),
            &buckets,
            |b, _| b.iter(|| black_box(count_buckets(&rel, &cuts, &what).expect("ok"))),
        );
        group.bench_with_input(
            BenchmarkId::new("scan_fallback", buckets),
            &buckets,
            |b, _| {
                b.iter(|| black_box(count_buckets(&VisitorOnly(&rel), &cuts, &what).expect("ok")))
            },
        );
    }
    group.finish();

    // Headline ratios, measured outside Criterion so each prints as
    // one comparable number per M.
    for buckets in [100usize, 1000] {
        let cold = time_best_of(Duration::from_secs(1), || cold_query(&rel, buckets));
        let engine = SharedEngine::with_config(&rel, config(buckets));
        warm_query(&engine);
        let warm = time_best_of(Duration::from_millis(300), || warm_query(&engine));
        println!(
            "engine_cache/speedup/M={buckets:<4} cold {} / warm {} = {:.1}x",
            fmt_duration(cold),
            fmt_duration(warm),
            cold.as_secs_f64() / warm.as_secs_f64(),
        );
    }
    for buckets in [100usize, 1000] {
        let cuts = optrules_bucketing::naive_sort_cuts(&rel, attr, buckets).expect("cuts");
        let what = scan_spec(attr, target);
        let kernel = time_best_of(Duration::from_millis(500), || {
            black_box(count_buckets(&rel, &cuts, &what).expect("ok"));
        });
        let fallback = time_best_of(Duration::from_millis(500), || {
            black_box(count_buckets(&VisitorOnly(&rel), &cuts, &what).expect("ok"));
        });
        println!(
            "engine_cache/kernel_speedup/M={buckets:<4} fallback {} / kernel {} = {:.1}x",
            fmt_duration(fallback),
            fmt_duration(kernel),
            fallback.as_secs_f64() / kernel.as_secs_f64(),
        );
    }
}

criterion_group!(benches, bench_engine_cache);
criterion_main!(benches);
