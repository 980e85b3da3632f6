//! Source **A** of the per-layer metrics: each named public call timed
//! on its own from the ledger, over the workload's own base file and
//! the storage stack `serve` builds on it. These numbers say what one
//! layer costs in isolation; the spans of the traced replay say what
//! it costs inside a request.

use crate::stream::{Stream, FRAME_ROWS};
use optrules_bucketing::sampling::sample_with_replacement;
use optrules_bucketing::{
    count_buckets, count_buckets_parallel, cuts_from_sample, equi_depth_cuts, sample_indices,
    BucketCounts, CountSpec, EquiDepthConfig,
};
use optrules_core::json::{self, Json, Request};
use optrules_core::region2d::{optimize_confidence_rectangle, optimize_support_rectangle};
use optrules_core::{average, optimize_confidence, optimize_support};
use optrules_core::{GridCounts, QuerySpec, Ratio, SharedEngine};
use optrules_geometry::{max_slope_with_min_span, Point};
use optrules_relation::gen::{BankGenerator, DataGenerator};
use optrules_relation::{
    AppendRows, BoolAttr, ChunkedRelation, Condition, DurabilityConfig, DurableRelation,
    FileRelation, NumAttr, RandomAccess, RowFrame, TupleScan, WalSync,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    crate::trace::median(&mut samples) as f64
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

const BALANCE: NumAttr = NumAttr(0);
const AGE: NumAttr = NumAttr(1);
const SAVING: NumAttr = NumAttr(3);
const CARD_LOAN: BoolAttr = BoolAttr(0);
/// The data files' generator seed (`optrules gen bank --seed 7`).
pub const DATA_SEED: u64 = 7;

fn all_booleans(attr: NumAttr) -> CountSpec {
    CountSpec {
        attr,
        presumptive: Condition::True,
        bool_targets: (0..3)
            .map(|b| Condition::BoolIs(BoolAttr(b), true))
            .collect(),
        sum_targets: Vec::new(),
    }
}

/// Times every isolated layer call over `base` and returns
/// `(metric name, value in the registry's unit)` pairs. `scratch` is a
/// directory this call may fill and empties again.
pub fn run(
    base: &Path,
    scratch: &Path,
    stream: &Stream,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // relation: open, sequential block decode, random reads.
    out.push((
        "relation.file.open_ms",
        median_ns(9, || {
            black_box(FileRelation::open(base).expect("base file opens"));
        }) / 1e6,
    ));
    let file = FileRelation::open(base).map_err(err("opening base"))?;
    let n = file.len();
    let rows = n as f64;
    let columnar = file
        .as_columnar()
        .ok_or("file relation lost its columnar scan")?;
    out.push((
        "relation.file.block_decode_ns_per_row",
        median_ns(3, || {
            let mut seen = 0usize;
            columnar
                .for_each_block_in(0..n, &mut |block| seen += block.rows)
                .expect("block scan");
            assert_eq!(black_box(seen) as u64, n);
        }) / rows,
    ));
    let indices = sample_indices(n, 40_000, 99);
    out.push((
        "relation.file.random_read_us_per_k",
        median_ns(3, || {
            let mut sum = 0.0;
            for &row in &indices {
                sum += file.numeric_at(BALANCE, row).expect("random read");
            }
            black_box(sum);
        }) / 1e3
            / (indices.len() as f64 / 1e3),
    ));

    // The storage `serve` scans: chunked over the file-backed base.
    let chunked = ChunkedRelation::new(file);
    let frame: Vec<RowFrame> = match json::parse_request(stream.probe_frame(0)) {
        Request::Append(rows) => {
            json::rows_from_value(&rows, chunked.schema()).map_err(err("probe frame"))?
        }
        other => return Err(format!("probe frame parsed as {other:?}")),
    };
    assert_eq!(frame.len() as u64, FRAME_ROWS);
    {
        let frames = 200;
        let mut version = chunked.with_rows(&frame).map_err(err("chunked append"))?;
        let start = Instant::now();
        for _ in 0..frames {
            version = version.with_rows(&frame).map_err(err("chunked append"))?;
        }
        let per_frame = start.elapsed().as_nanos() as f64 / frames as f64;
        black_box(version.len());
        out.push(("relation.chunked.append_us_per_frame", per_frame / 1e3));
    }
    {
        let dir = scratch.join("micro-durable");
        let _ = std::fs::remove_dir_all(&dir);
        let config = DurabilityConfig {
            spill_rows: 8192,
            sync: WalSync::Always,
        };
        let recovered = DurableRelation::open(base, &dir, config).map_err(err("durable open"))?;
        let frames = 100;
        let mut version = recovered.relation;
        let start = Instant::now();
        for _ in 0..frames {
            version = version.with_rows(&frame).map_err(err("durable append"))?;
        }
        let per_frame = start.elapsed().as_nanos() as f64 / frames as f64;
        black_box(version.len());
        drop(version);
        std::fs::remove_dir_all(&dir).map_err(err("clearing micro data dir"))?;
        out.push(("relation.durable.append_us_per_frame", per_frame / 1e3));
    }

    // bucketing: Algorithm 3.1 steps 1–3 whole and in parts, then the
    // counting kernels (step 4) over file, memory, zone maps, 2 threads.
    let config = EquiDepthConfig::paper(1000, 12345);
    out.push((
        "bucketing.equidepth.cuts_ms",
        median_ns(5, || {
            black_box(equi_depth_cuts(&chunked, BALANCE, &config).expect("cuts"));
        }) / 1e6,
    ));
    out.push((
        "bucketing.sampling.fetch_ms",
        median_ns(5, || {
            black_box(
                sample_with_replacement(&chunked, BALANCE, config.sample_size(), config.seed)
                    .expect("sample"),
            );
        }) / 1e6,
    ));
    let sample = sample_with_replacement(&chunked, BALANCE, config.sample_size(), config.seed)
        .map_err(err("sample"))?;
    out.push((
        "bucketing.boundaries.sort_cut_ms",
        median_ns(5, || {
            let mut copy = sample.clone();
            black_box(cuts_from_sample(&mut copy, config.buckets).expect("cut"));
        }) / 1e6,
    ));
    let spec = equi_depth_cuts(&chunked, BALANCE, &config).map_err(err("cuts"))?;
    let booleans = all_booleans(BALANCE);
    out.push((
        "bucketing.kernel.scan_ns_per_row",
        median_ns(3, || {
            black_box(count_buckets(&chunked, &spec, &booleans).expect("scan"));
        }) / rows,
    ));
    let given = CountSpec {
        attr: BALANCE,
        presumptive: Condition::NumInRange(AGE, 30.0, 50.0),
        bool_targets: vec![
            Condition::NumInRange(AGE, 30.0, 50.0).and(Condition::BoolIs(CARD_LOAN, true))
        ],
        sum_targets: Vec::new(),
    };
    out.push((
        "bucketing.kernel.scan_given_ns_per_row",
        median_ns(3, || {
            black_box(count_buckets(&chunked, &spec, &given).expect("scan"));
        }) / rows,
    ));
    out.push((
        "bucketing.parallel.scan_t2_ns_per_row",
        median_ns(3, || {
            black_box(count_buckets_parallel(&chunked, &spec, &booleans, 2).expect("scan"));
        }) / rows,
    ));
    {
        let memory = BankGenerator::default().to_relation(n, DATA_SEED);
        out.push((
            "bucketing.kernel.scan_mem_ns_per_row",
            median_ns(5, || {
                black_box(count_buckets(&memory, &spec, &booleans).expect("scan"));
            }) / rows,
        ));
    }

    // core codecs.
    let append_line = stream.probe_frame(0);
    let schema = chunked.schema().clone();
    out.push((
        "core.json.append_decode_us_per_frame",
        median_ns(50, || {
            let Request::Append(rows) = json::parse_request(append_line) else {
                panic!("probe frame is an append");
            };
            black_box(json::rows_from_value(&rows, &schema).expect("rows"));
        }) / 1e3,
    ));
    let raw = count_buckets(&chunked, &spec, &booleans).map_err(err("scan"))?;
    out.push((
        "core.json.counts_codec_us",
        median_ns(20, || {
            let wire = json::counts_to_value(&raw, 0).encode();
            let value = Json::parse(&wire).expect("counts parse");
            black_box(json::counts_from_value(&value).expect("counts decode"));
        }) / 1e3,
    ));
    let values = &sample[..8192];
    out.push((
        "core.json.values_codec_us",
        median_ns(20, || {
            let wire = json::values_reply_to_value(values, 0).encode();
            let value = Json::parse(&wire).expect("values parse");
            black_box(json::values_reply_from_value(&value).expect("values decode"));
        }) / 1e3,
    ));

    // core plan: compiling the 240-spec warm pool.
    let engine = SharedEngine::with_config(chunked, crate::replay::engine_config());
    let warm = Stream::new("warm_serve", 0);
    let pool: Vec<QuerySpec> = warm
        .pool()
        .iter()
        .map(|line| match json::parse_request(line) {
            Request::Spec(spec) => *spec,
            other => panic!("pool line parsed as {other:?}"),
        })
        .collect();
    out.push((
        "core.plan.compile_us",
        median_ns(20, || {
            black_box(engine.plan_batch(&pool));
        }) / 1e3,
    ));
    let plan = engine.plan_batch(&pool);
    out.push((
        "core.plan.scan_nodes_per_spec",
        (plan.scan_nodes() + plan.grid_nodes()) as f64 / pool.len() as f64,
    ));
    out.push((
        "core.shared.append_us_per_frame",
        median_ns(200, || {
            black_box(engine.append_rows(&frame).expect("append"));
        }) / 1e3,
    ));

    // core optimizers and geometry on real compacted M=1000 counts —
    // the paper's Fig. 10/11 point.
    let rel = engine.relation();
    let counts: BucketCounts = raw.compact().1;
    let (u, v) = (&counts.u, &counts.bool_v[0]);
    let min_count = Ratio::percent(5).min_count(counts.total_rows);
    out.push((
        "core.confidence.optimize_us",
        median_ns(200, || {
            black_box(optimize_confidence(u, v, min_count).expect("confidence"));
        }) / 1e3,
    ));
    out.push((
        "core.support.optimize_us",
        median_ns(200, || {
            black_box(optimize_support(u, v, Ratio::percent(55)).expect("support"));
        }) / 1e3,
    ));
    let points: Vec<Point> = std::iter::once(Point::new(0.0, 0.0))
        .chain(u.iter().zip(v).scan((0u64, 0u64), |acc, (&ui, &vi)| {
            acc.0 += ui;
            acc.1 += vi;
            Some(Point::new(acc.0 as f64, acc.1 as f64))
        }))
        .collect();
    out.push((
        "geometry.max_slope_us",
        median_ns(200, || {
            black_box(max_slope_with_min_span(&points, min_count as f64));
        }) / 1e3,
    ));
    let sums = count_buckets(&*rel, &spec, &CountSpec::averaging(BALANCE, SAVING))
        .map_err(err("average scan"))?
        .compact()
        .1;
    out.push((
        "core.average.optimize_us",
        median_ns(200, || {
            black_box(
                average::maximum_average_range(&sums.u, &sums.sums[0], min_count).expect("avg"),
            );
            black_box(average::maximum_support_range(&sums.u, &sums.sums[0], 0.0).expect("avg"));
        }) / 1e3,
    ));

    // core region2d: one 48×48 grid scan, then both rectangle sweeps.
    let axis = |attr| {
        equi_depth_cuts(&*rel, attr, &EquiDepthConfig::paper(48, 12345)).map_err(err("axis cuts"))
    };
    let (x_spec, y_spec) = (axis(BALANCE)?, axis(AGE)?);
    let objective = Condition::BoolIs(CARD_LOAN, true);
    let count_grid = || {
        GridCounts::count(
            &*rel,
            BALANCE,
            AGE,
            &x_spec,
            &y_spec,
            &Condition::True,
            &objective,
        )
        .expect("grid scan")
    };
    out.push((
        "core.region2d.grid_scan_ns_per_row",
        median_ns(2, || {
            black_box(count_grid());
        }) / rel.len() as f64,
    ));
    let grid = count_grid();
    let min_count = Ratio::percent(5).min_count(grid.total_rows);
    out.push((
        "core.region2d.sweep_ms",
        median_ns(5, || {
            black_box(optimize_support_rectangle(&grid, Ratio::percent(55)).expect("sweep"));
            black_box(optimize_confidence_rectangle(&grid, min_count).expect("sweep"));
        }) / 1e6,
    ));
    Ok(out)
}
