//! §1.4 rectangle mining cost model: a cold rectangle query pays two
//! Algorithm 3.1 bucketizations plus the O(N) grid counting scan and
//! the O(nx²·ny) sweep; a warm query on a cached grid pays the sweep
//! alone. The `grid_kernel` / `grid_fallback` pair isolates the grid
//! counting scan — the same `GridCounts::count` over the same cuts,
//! once through the columnar block path and once with the columnar
//! capability hidden (forcing the row visitor); outputs are asserted
//! identical. The headline line prints the measured sweep-vs-naive
//! ratio: the O(nx²·ny) sweep against the exhaustive O(nx²·ny²)
//! prefix-sum oracle on the same grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use optrules_bench::{fmt_duration, time_best_of};
use optrules_core::region2d::{
    optimize_confidence_rectangle, optimize_rectangle_naive, optimize_support_rectangle,
};
use optrules_core::{EngineConfig, GridCounts, Ratio, SharedEngine};
use optrules_relation::gen::{BankGenerator, DataGenerator};
use optrules_relation::{Condition, Relation, Schema, TupleScan};
use std::hint::black_box;
use std::ops::Range;
use std::time::Duration;

/// Forwards `TupleScan` but keeps the default `as_columnar() == None`,
/// so grid scans over it take the row-visitor fallback.
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

/// Cell budget `per_axis²` makes the default per-axis split exactly
/// `per_axis` buckets on each grid axis.
fn config(per_axis: usize) -> EngineConfig {
    EngineConfig {
        buckets: per_axis * per_axis,
        min_support: Ratio::percent(10),
        min_confidence: Ratio::percent(60),
        ..EngineConfig::default()
    }
}

fn cold_query(rel: &Relation, per_axis: usize) {
    let engine = SharedEngine::with_config(rel, config(per_axis));
    black_box(
        engine
            .query("Age")
            .and_attr("Balance")
            .objective_is("CardLoan")
            .run()
            .expect("ok"),
    );
}

fn warm_query(engine: &SharedEngine<&Relation>) {
    black_box(
        engine
            .query("Age")
            .and_attr("Balance")
            .objective_is("CardLoan")
            .run()
            .expect("ok"),
    );
}

fn grid_cuts(
    rel: &Relation,
    per_axis: usize,
) -> (
    optrules_bucketing::BucketSpec,
    optrules_bucketing::BucketSpec,
) {
    let schema = rel.schema();
    let x = schema.numeric("Age").expect("bank schema");
    let y = schema.numeric("Balance").expect("bank schema");
    (
        optrules_bucketing::naive_sort_cuts(rel, x, per_axis).expect("cuts"),
        optrules_bucketing::naive_sort_cuts(rel, y, per_axis).expect("cuts"),
    )
}

/// The grid counting scan alone — cuts precomputed, so kernel vs
/// fallback compares nothing but the scan.
fn count_grid<T: TupleScan + ?Sized>(
    rel: &T,
    cuts: &(
        optrules_bucketing::BucketSpec,
        optrules_bucketing::BucketSpec,
    ),
) -> GridCounts {
    let schema = rel.schema();
    let x = schema.numeric("Age").expect("bank schema");
    let y = schema.numeric("Balance").expect("bank schema");
    let objective = Condition::BoolIs(schema.boolean("CardLoan").expect("bank schema"), true);
    GridCounts::count(rel, x, y, &cuts.0, &cuts.1, &Condition::True, &objective).expect("scan")
}

fn sweep(grid: &GridCounts) {
    let w = grid.total_rows / 10;
    black_box(optimize_confidence_rectangle(grid, w).expect("ok"));
    black_box(optimize_support_rectangle(grid, Ratio::percent(60)).expect("ok"));
}

fn naive(grid: &GridCounts) {
    let w = grid.total_rows / 10;
    black_box(optimize_rectangle_naive(grid, Some(w), None, false));
    black_box(optimize_rectangle_naive(
        grid,
        None,
        Some(Ratio::percent(60)),
        true,
    ));
}

fn bench_region2d(c: &mut Criterion) {
    let rel = BankGenerator::default().to_relation(ROWS, 3);
    let mut group = c.benchmark_group("region2d");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(rel.len()));

    for per_axis in [16usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("cold", per_axis),
            &per_axis,
            |b, &per_axis| b.iter(|| cold_query(&rel, per_axis)),
        );
        let engine = SharedEngine::with_config(&rel, config(per_axis));
        warm_query(&engine); // populate the grid cache once
        group.bench_with_input(BenchmarkId::new("warm", per_axis), &per_axis, |b, _| {
            b.iter(|| warm_query(&engine))
        });
    }

    // The grid counting scan alone, kernel vs forced row-visitor
    // fallback, over identical precomputed cuts. Outputs are
    // bit-identical (asserted); only the speed may differ.
    let cuts = grid_cuts(&rel, 32);
    let kernel_grid = count_grid(&rel, &cuts);
    let fallback_grid = count_grid(&VisitorOnly(&rel), &cuts);
    assert_eq!(
        kernel_grid, fallback_grid,
        "grid kernel must match the visitor path"
    );
    group.bench_function("grid_kernel/32", |b| {
        b.iter(|| black_box(count_grid(&rel, &cuts)))
    });
    group.bench_function("grid_fallback/32", |b| {
        b.iter(|| black_box(count_grid(&VisitorOnly(&rel), &cuts)))
    });

    // The sweep alone: O(nx²·ny) over an already-counted grid.
    for per_axis in [16usize, 32] {
        let grid = count_grid(&rel, &grid_cuts(&rel, per_axis));
        group.bench_with_input(BenchmarkId::new("sweep", per_axis), &per_axis, |b, _| {
            b.iter(|| sweep(&grid))
        });
    }
    group.finish();

    // Headline ratio: the sweep against the exhaustive O(nx²·ny²)
    // oracle on the same 24×24 grid, measured outside Criterion so it
    // prints as one comparable number.
    let grid = count_grid(&rel, &grid_cuts(&rel, 24));
    let fast = time_best_of(Duration::from_millis(500), || sweep(&grid));
    let slow = time_best_of(Duration::from_millis(500), || naive(&grid));
    println!(
        "region2d/sweep_speedup/24x24 naive {} / sweep {} = {:.1}x",
        fmt_duration(slow),
        fmt_duration(fast),
        slow.as_secs_f64() / fast.as_secs_f64(),
    );
}

criterion_group!(benches, bench_region2d);
criterion_main!(benches);
