//! Two storage equivalences, as properties over every layout — memory,
//! file, chunked with tail segments, durable with spilled parts, and a
//! durable relation reopened from its data dir (base file, spilled
//! segments and a replayed WAL tail, stacked as recovery builds them):
//!
//! 1. the batched fetch is the per-index fetch:
//!    `numeric_at_many(rows) == rows.map(numeric_at)` for unsorted
//!    draws with duplicates, indices on segment / part / read-span
//!    edges, the empty draw, and an out-of-range index anywhere;
//! 2. a projected block scan is the full block scan restricted to the
//!    projected columns, with the others left empty — and a file's
//!    finiteness check does not depend on the projection.

use optrules_relation::columnar::{ColumnBlock, NO_ZONE};
use optrules_relation::{
    AppendRows, ChunkedRelation, Durability, DurabilityConfig, DurableRelation, FileRelation,
    FileRelationWriter, NumAttr, Projection, RandomAccess, Relation, RowFrame, Schema, TupleScan,
    WalSync,
};
use proptest::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The debug run keeps `debug_assert!`s on; the release run (CI's
/// `cargo test --release`) exercises the vectorized loops at 4× the
/// cases.
const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 192 };

const N_NUM: usize = 3;
const N_BOOL: usize = 2;
/// 26-byte records: a 64 KiB read span holds 2 520 of them and the
/// 4 KiB coalescing gap 157, so a few thousand rows put draws on both
/// sides of either limit.
const BASE_ROWS: u64 = 6000;

fn schema() -> Schema {
    Schema::builder()
        .numeric("N0")
        .numeric("N1")
        .numeric("N2")
        .boolean("B0")
        .boolean("B1")
        .build()
}

/// Row `i` of the fixture: every cell a function of `i` alone, so any
/// layout holding rows `0..n` holds the same relation.
fn row(i: u64) -> RowFrame {
    let x = i as f64;
    RowFrame {
        numeric: vec![x * 0.5 - 100.0, (i * 7919 % 1013) as f64, -x],
        boolean: vec![i % 3 == 1, i % 7 < 3],
    }
}

fn frames(range: Range<u64>) -> Vec<RowFrame> {
    range.map(row).collect()
}

fn memory(rows: u64) -> Relation {
    let mut rel = Relation::new(schema());
    for r in frames(0..rows) {
        rel.push_row(&r.numeric, &r.boolean).unwrap();
    }
    rel
}

static DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A scratch directory of this test's own, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "optrules-prop-fetch-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn file(path: &Path, rows: u64) -> FileRelation {
    let mut w = FileRelationWriter::create(path, schema()).unwrap();
    for r in frames(0..rows) {
        w.push_row(&r.numeric, &r.boolean).unwrap();
    }
    w.finish().unwrap()
}

/// Appends rows `from..to` in batches of shrinking size, so geometric
/// merging leaves several tail segments. Returns the new version and
/// the global start row of every batch (candidate segment edges).
fn append_shrinking<R: AppendRows>(mut rel: R, from: u64, to: u64) -> (R, Vec<u64>) {
    let mut edges = vec![from];
    let mut at = from;
    let mut batch = (to - from) / 2;
    while at < to {
        let end = (at + batch.max(1)).min(to);
        rel = rel.with_rows(&frames(at..end)).unwrap();
        at = end;
        edges.push(at);
        batch /= 2;
    }
    (rel, edges)
}

/// The five layouts over the same `total` rows, with the row indices
/// where one part of a layout ends and the next begins.
struct Layouts {
    memory: Relation,
    file: FileRelation,
    chunked: ChunkedRelation<FileRelation>,
    durable: DurableRelation,
    reopened: DurableRelation,
    edges: Vec<u64>,
    total: u64,
    _scratch: Scratch,
}

fn layouts(tail_rows: u64, spill_rows: u64) -> Layouts {
    let scratch = Scratch::new();
    let total = BASE_ROWS + tail_rows;
    let flat = file(&scratch.0.join("flat.rel"), total);
    let base = file(&scratch.0.join("base.rel"), BASE_ROWS);
    let (chunked, mut edges) = append_shrinking(ChunkedRelation::new(base), BASE_ROWS, total);
    let config = DurabilityConfig {
        spill_rows,
        sync: WalSync::Off,
    };
    let durable = DurableRelation::open(scratch.0.join("base.rel"), scratch.0.join("data"), config)
        .unwrap()
        .relation;
    let (durable, more) = append_shrinking(durable, BASE_ROWS, total);
    edges.extend(more);
    let (reopened, more) = reopened(&scratch.0, total, spill_rows);
    edges.extend(more);
    Layouts {
        memory: memory(total),
        file: flat,
        chunked,
        durable,
        reopened,
        edges,
        total,
        _scratch: scratch,
    }
}

/// Rows `0..total` as recovery reassembles them: a base file of half
/// the base rows, three spilled segments of `seg_rows`, `2 * seg_rows`
/// and `3 * seg_rows` rows, and the rest logged to an fsync'd WAL in
/// shrinking frames — then the data dir is reopened. Returns the
/// recovered relation and its part edges.
fn reopened(dir: &Path, total: u64, seg_rows: u64) -> (DurableRelation, Vec<u64>) {
    let from = BASE_ROWS / 2;
    let base = dir.join("half.rel");
    file(&base, from);
    let data = dir.join("reopened");
    let config = DurabilityConfig {
        spill_rows: u64::MAX,
        sync: WalSync::Always,
    };
    let mut rel = DurableRelation::open(&base, &data, config)
        .unwrap()
        .relation;
    let mut edges = vec![from];
    let mut at = from;
    for k in 1..=3 {
        rel = rel.with_rows(&frames(at..at + k * seg_rows)).unwrap();
        rel = rel.checkpointed().unwrap().expect("a tail to spill");
        at += k * seg_rows;
        edges.push(at);
    }
    let (rel, more) = append_shrinking(rel, at, total);
    assert_eq!(rel.durability_stats().unwrap().segments_spilled, 3);
    drop(rel);
    edges.extend(more);
    let recovery = DurableRelation::open(&base, &data, config).unwrap();
    assert_eq!(recovery.relation.len(), total);
    assert!(recovery.replayed_frames > 0, "the WAL tail is replayed");
    (recovery.relation, edges)
}

impl Layouts {
    fn each(&self, mut f: impl FnMut(&str, &dyn Layout)) {
        f("memory", &self.memory);
        f("file", &self.file);
        f("chunked", &self.chunked);
        f("durable", &self.durable);
        f("reopened", &self.reopened);
    }
}

/// What the properties need of a layout, object-safely.
trait Layout {
    fn fetch(&self, attr: NumAttr, rows: &[u64]) -> Result<Vec<f64>, String>;
    fn fetch_one_by_one(&self, attr: NumAttr, rows: &[u64]) -> Result<Vec<f64>, String>;
    fn blocks(&self, range: Range<u64>, cols: &Projection) -> Vec<OwnedBlock>;
}

impl<T: RandomAccess> Layout for T {
    fn fetch(&self, attr: NumAttr, rows: &[u64]) -> Result<Vec<f64>, String> {
        let mut out = vec![f64::NAN; rows.len()];
        self.numeric_at_many(attr, rows, &mut out)
            .map(|()| out)
            .map_err(|e| e.to_string())
    }

    fn fetch_one_by_one(&self, attr: NumAttr, rows: &[u64]) -> Result<Vec<f64>, String> {
        rows.iter()
            .map(|&row| self.numeric_at(attr, row).map_err(|e| e.to_string()))
            .collect()
    }

    fn blocks(&self, range: Range<u64>, cols: &Projection) -> Vec<OwnedBlock> {
        let mut out = Vec::new();
        self.as_columnar()
            .expect("every layout under test is columnar")
            .for_each_block_projected(range, cols, &mut |block| out.push(OwnedBlock::of(block)))
            .unwrap();
        out
    }
}

/// A [`ColumnBlock`] copied out of its callback, floats as bits.
#[derive(Debug, PartialEq)]
struct OwnedBlock {
    start: u64,
    rows: usize,
    numeric: Vec<Vec<u64>>,
    bits: Vec<Vec<bool>>,
    zones: Vec<(u64, u64)>,
}

impl OwnedBlock {
    fn of(block: &ColumnBlock<'_>) -> Self {
        Self {
            start: block.start,
            rows: block.rows,
            numeric: (block.numeric.iter())
                .map(|col| col.iter().map(|x| x.to_bits()).collect())
                .collect(),
            bits: (block.bits.iter())
                .map(|span| (0..span.len()).map(|i| span.get(i)).collect())
                .collect(),
            zones: (block.zones.iter())
                .map(|z| (z.0.to_bits(), z.1.to_bits()))
                .collect(),
        }
    }
}

/// A draw of row indices in `0..total`: uniform picks, dense runs (the
/// fetch coalesces them up to its span cap), strided picks (gaps above
/// and below the coalescing limit), duplicates of earlier picks, and
/// the rows on either side of every edge — shuffled by construction,
/// since each pick is independent of its position.
fn draw(total: u64, edges: &[u64], picks: &[(u8, u64, u64)]) -> Vec<u64> {
    let mut rows: Vec<u64> = Vec::new();
    for &(kind, a, b) in picks {
        match kind % 6 {
            0 => rows.push(a % total),
            1 => rows.extend((0..b % 40).map(|k| (a + k) % total)),
            2 => rows.extend((0..b % 12).map(|k| (a + k * (100 + b % 200)) % total)),
            3 if !rows.is_empty() => rows.push(rows[(a % rows.len() as u64) as usize]),
            4 => {
                let edge = edges[(a % edges.len() as u64) as usize];
                rows.extend([edge.saturating_sub(1), edge, edge + 1].map(|r| r.min(total - 1)));
            }
            // Multiples of the 64 KiB span in 26-byte records.
            _ => rows.push((a % 4 * 2520 + b % 3).min(total - 1)),
        }
    }
    rows
}

fn arb_picks() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..6, 0u64..100_000, 0u64..100_000), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// (1) The batched fetch returns, slot for slot, what the per-index
    /// fetch returns — on every layout, for every attribute.
    #[test]
    fn batched_fetch_equals_per_index_fetch(
        tail_rows in 1u64..400,
        spill_rows in 16u64..200,
        picks in arb_picks(),
        attr in 0usize..N_NUM,
    ) {
        let l = layouts(tail_rows, spill_rows);
        let rows = draw(l.total, &l.edges, &picks);
        let want: Vec<u64> = rows.iter().map(|&r| row(r).numeric[attr].to_bits()).collect();
        l.each(|name, rel| {
            let batched = rel.fetch(NumAttr(attr), &rows).unwrap();
            let single = rel.fetch_one_by_one(NumAttr(attr), &rows).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&batched), bits(&single), "{name}");
            assert_eq!(bits(&batched), want, "{name}");
        });
    }

    /// (1) An out-of-range index anywhere in the draw fails the batch
    /// with the error the per-index loop meets first in request order.
    #[test]
    fn batched_fetch_reports_the_first_bad_index_in_request_order(
        tail_rows in 1u64..200,
        picks in arb_picks(),
        bad in prop::collection::vec((0usize..200, 0u64..50), 1..4),
    ) {
        let l = layouts(tail_rows, 64);
        let mut rows = draw(l.total, &l.edges, &picks);
        for &(at, past) in &bad {
            rows.insert(at % (rows.len() + 1), l.total + past);
        }
        l.each(|name, rel| {
            let batched = rel.fetch(NumAttr(0), &rows).unwrap_err();
            let single = rel.fetch_one_by_one(NumAttr(0), &rows).unwrap_err();
            assert_eq!(batched, single, "{name}");
        });
    }

    /// (2) Under a projection, projected columns and their zones are
    /// exactly the full scan's, unprojected ones are empty with no
    /// zone, and the blocks partition the range identically.
    #[test]
    fn projected_scan_is_the_full_scan_on_its_columns(
        tail_rows in 1u64..400,
        spill_rows in 16u64..200,
        numeric in prop::collection::vec(any::<bool>(), N_NUM),
        boolean in prop::collection::vec(any::<bool>(), N_BOOL),
        lo in 0u64..7000,
        hi in 0u64..7000,
    ) {
        let l = layouts(tail_rows, spill_rows);
        let mut cols = Projection::none();
        for (col, _) in numeric.iter().enumerate().filter(|(_, &on)| on) {
            cols.add_numeric(col);
        }
        for (col, _) in boolean.iter().enumerate().filter(|(_, &on)| on) {
            cols.add_boolean(col);
        }
        let range = lo.min(hi)..lo.max(hi);
        l.each(|name, rel| {
            let mut full = rel.blocks(range.clone(), &Projection::all());
            for block in &mut full {
                for (col, &on) in numeric.iter().enumerate() {
                    if !on {
                        block.numeric[col].clear();
                        block.zones[col] = (NO_ZONE.0.to_bits(), NO_ZONE.1.to_bits());
                    }
                }
                for (col, &on) in boolean.iter().enumerate() {
                    if !on {
                        block.bits[col].clear();
                    }
                }
            }
            assert_eq!(rel.blocks(range.clone(), &cols), full, "{name}");
        });
    }
}

#[test]
fn the_empty_draw_fetches_nothing() {
    let l = layouts(50, 16);
    l.each(|name, rel| assert_eq!(rel.fetch(NumAttr(1), &[]), Ok(Vec::new()), "{name}"));
}

#[test]
fn for_each_block_in_is_the_all_columns_projection() {
    let l = layouts(50, 16);
    let mut plain = Vec::new();
    (l.file.as_columnar().unwrap())
        .for_each_block_in(10..l.total, &mut |block| plain.push(OwnedBlock::of(block)))
        .unwrap();
    assert_eq!(plain, l.file.blocks(10..l.total, &Projection::all()));
    assert!(plain
        .iter()
        .all(|b| b.numeric.iter().all(|c| c.len() == b.rows)));
}

/// A foreign writer's NaN fails a file scan whatever the projection,
/// with the error the row path gives: the first offender in row-major
/// order, even when a later row's offender sits in an earlier column.
#[test]
fn a_nan_in_an_unprojected_column_still_fails_the_scan() {
    let scratch = Scratch::new();
    let path = scratch.0.join("nan.rel");
    let rows = 9000; // two blocks
    let rel = file(&path, rows);
    let record = 8 * N_NUM + N_BOOL;
    let data_start = std::fs::metadata(&path).unwrap().len() as usize - rows as usize * record;
    let mut bytes = std::fs::read(&path).unwrap();
    let mut patch = |row: usize, col: usize, v: f64| {
        let off = data_start + row * record + 8 * col;
        bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    patch(8500, 2, f64::NAN);
    patch(8700, 1, f64::INFINITY);
    patch(8700, 0, f64::NEG_INFINITY);
    drop(rel);
    std::fs::write(&path, &bytes).unwrap();
    let rel = FileRelation::open(&path).unwrap();

    let by_rows = rel.for_each_row(&mut |_, _, _| {}).unwrap_err().to_string();
    assert!(
        by_rows.contains("NaN") && by_rows.contains("column 2"),
        "{by_rows}"
    );
    let cols = rel.as_columnar().unwrap();
    let mut only_first = Projection::none();
    only_first.add_numeric(0);
    for projection in [Projection::all(), Projection::none(), only_first] {
        let mut blocks = 0;
        let err = cols
            .for_each_block_projected(0..rows, &projection, &mut |_| blocks += 1)
            .unwrap_err();
        assert_eq!(err.to_string(), by_rows, "{projection:?}");
        assert_eq!(blocks, 1, "the clean first block is delivered");
    }
}
