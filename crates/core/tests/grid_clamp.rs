//! The 2-D counting scan **clamps**, never errors: a value beyond the
//! outermost cuts of either axis lands in that axis's edge bucket
//! (`bucket_of` is `partition_point`, always in `[0, bucket_count)`),
//! and buckets no row reached keep the `(∞, −∞)` range sentinel. These
//! tests pin that contract across `Relation`, `FileRelation`,
//! `ChunkedRelation`, and `DurableRelation` — the 2-D mirror of
//! `crates/relation/tests/scan_clamp.rs` — so the grid filled through
//! the columnar block path and the row-visitor path cannot quietly
//! diverge from the hand-computed cell map.

use optrules_bucketing::BucketSpec;
use optrules_core::GridCounts;
use optrules_relation::{
    AppendRows, ChunkedRelation, Condition, DurabilityConfig, DurableRelation, FileRelationWriter,
    NumAttr, Relation, RowFrame, Schema, TupleScan, WalSync,
};
use std::path::PathBuf;

/// `(x, y, c)` rows chosen to hit every clamp case: far beyond the
/// cuts on both ends, exactly on a cut (buckets are `(c_{i−1}, c_i]`,
/// so a cut value belongs to the bucket *below*), and mixed
/// out-of-range x with in-range y and vice versa.
const DATA: &[(f64, f64, bool)] = &[
    (-1.0e18, -5.0e17, true), // far below both cuts → cell (0, 0)
    (10.0, 1.0, false),       // exactly on the first cuts → still (0, 0)
    (10.5, 1.5, true),        // interior → (1, 1)
    (20.0, 2.0, true),        // exactly on the last cuts → (1, 1)
    (20.5, 2.5, false),       // just past the last cuts → (2, 2)
    (1.0e18, 5.0e17, true),   // far above both → clamped to (2, 2)
    (-3.0, 2.5, true),        // x below, y above → (0, 2)
    (1.0e18, -5.0e17, false), // x above, y below → (2, 0)
    (15.0, 0.5, true),        // x interior, y below → (1, 0)
    (5.0, 1.5, false),        // x below, y interior → (0, 1)
];

fn x_spec() -> BucketSpec {
    BucketSpec::from_cuts(vec![10.0, 20.0]) // 3 x-buckets
}

fn y_spec() -> BucketSpec {
    BucketSpec::from_cuts(vec![1.0, 2.0]) // 3 y-buckets
}

fn schema() -> Schema {
    Schema::builder()
        .numeric("X")
        .numeric("Y")
        .boolean("C")
        .build()
}

fn memory() -> Relation {
    let mut rel = Relation::new(schema());
    for &(x, y, c) in DATA {
        rel.push_row(&[x, y], &[c]).unwrap();
    }
    rel
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optrules-grid-clamp-{}-{name}", std::process::id()))
}

fn file_backed(name: &str) -> optrules_relation::FileRelation {
    let path = tmp(name);
    let mut w = FileRelationWriter::create(&path, schema()).unwrap();
    for &(x, y, c) in DATA {
        w.push_row(&[x, y], &[c]).unwrap();
    }
    w.finish().unwrap()
}

fn frames(rows: &[(f64, f64, bool)]) -> Vec<RowFrame> {
    rows.iter()
        .map(|&(x, y, c)| RowFrame {
            numeric: vec![x, y],
            boolean: vec![c],
        })
        .collect()
}

/// 4 base rows + two appended segments (3 + 3 rows).
fn chunked() -> ChunkedRelation<Relation> {
    let mut base = Relation::new(schema());
    for &(x, y, c) in &DATA[..4] {
        base.push_row(&[x, y], &[c]).unwrap();
    }
    let rel = ChunkedRelation::new(base);
    let rel = rel.with_rows(&frames(&DATA[4..7])).unwrap();
    rel.with_rows(&frames(&DATA[7..])).unwrap()
}

/// 4 durable base rows + appends small enough to leave a live tail.
fn durable(name: &str) -> (DurableRelation, PathBuf) {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.rel");
    let mut w = FileRelationWriter::create(&base, schema()).unwrap();
    for &(x, y, c) in &DATA[..4] {
        w.push_row(&[x, y], &[c]).unwrap();
    }
    w.finish().unwrap();
    let config = DurabilityConfig {
        spill_rows: 5,
        sync: WalSync::Off,
    };
    let mut rel = DurableRelation::open(&base, dir.join("data"), config)
        .unwrap()
        .relation;
    for chunk in [&DATA[4..7], &DATA[7..]] {
        rel = rel.with_rows(&frames(chunk)).unwrap();
    }
    (rel, dir)
}

fn count<T: TupleScan + ?Sized>(rel: &T, presumptive: &Condition) -> GridCounts {
    GridCounts::count(
        rel,
        NumAttr(0),
        NumAttr(1),
        &x_spec(),
        &y_spec(),
        presumptive,
        &Condition::BoolIs(optrules_relation::BoolAttr(0), true),
    )
    .unwrap()
}

/// The hand-computed grid every backend must produce: every
/// out-of-range value clamped into an edge cell, no row dropped.
fn check_backend<T: TupleScan + ?Sized>(rel: &T, label: &str) {
    assert_eq!(rel.len(), DATA.len() as u64, "{label}: fixture size");
    let grid = count(rel, &Condition::True);
    assert_eq!((grid.nx(), grid.ny()), (3, 3), "{label}");
    assert_eq!(grid.total_rows, DATA.len() as u64, "{label}");
    assert_eq!(grid.counted(), DATA.len() as u64, "{label}: no row lost");
    // Row-major in x: cells (0,0) (0,1) (0,2) (1,0) ...
    assert_eq!(
        grid.u_cells(),
        &[2, 1, 1, 1, 2, 0, 1, 0, 2],
        "{label}: u cells"
    );
    assert_eq!(
        grid.v_cells(),
        &[1, 0, 1, 1, 2, 0, 0, 0, 1],
        "{label}: v cells"
    );
    // Observed ranges fold in the clamped extremes — the edge buckets
    // report the true value spread, not the cut positions.
    assert_eq!(
        grid.x_ranges,
        vec![(-1.0e18, 10.0), (10.5, 20.0), (20.5, 1.0e18)],
        "{label}: x ranges"
    );
    assert_eq!(
        grid.y_ranges,
        vec![(-5.0e17, 1.0), (1.5, 2.0), (2.5, 5.0e17)],
        "{label}: y ranges"
    );
}

#[test]
fn memory_clamps() {
    check_backend(&memory(), "Relation");
}

#[test]
fn file_clamps() {
    let rel = file_backed("file");
    check_backend(&rel, "FileRelation");
}

#[test]
fn chunked_clamps() {
    check_backend(&chunked(), "ChunkedRelation");
}

#[test]
fn durable_clamps() {
    let (rel, dir) = durable("durable");
    check_backend(&rel, "DurableRelation");
    drop(rel);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same backend seen through `&T` and `&dyn TupleScan` keeps the
/// clamp behavior — and `&dyn` loses the columnar fast path, so this
/// also pins row-visitor ≡ columnar on the clamp cases.
#[test]
fn references_and_trait_objects_clamp_identically() {
    let rel = memory();
    check_backend(&&rel, "&Relation");
    check_backend(&rel as &dyn TupleScan, "&dyn TupleScan");
}

/// A presumptive filter only suppresses tallies: the row total still
/// advances, and buckets that end up untouched keep the `(∞, −∞)`
/// sentinel (the value that travels as `null` on the 2-D wire).
#[test]
fn filtered_rows_keep_totals_and_sentinels() {
    let rel = memory();
    // Keep only x ∈ [10.5, 15.0]: rows (10.5, 1.5) and (15.0, 0.5).
    let grid = count(&rel, &Condition::NumInRange(NumAttr(0), 10.5, 15.0));
    assert_eq!(grid.total_rows, DATA.len() as u64);
    assert_eq!(grid.counted(), 2);
    assert_eq!(grid.u_cells(), &[0, 0, 0, 1, 1, 0, 0, 0, 0]);
    let sentinel = (f64::INFINITY, f64::NEG_INFINITY);
    assert_eq!(grid.x_ranges, vec![sentinel, (10.5, 15.0), sentinel]);
    assert_eq!(grid.y_ranges, vec![(0.5, 0.5), (1.5, 1.5), sentinel]);
}

/// Forwards `TupleScan` but hides the columnar capability, forcing the
/// grid scan down the row visitor.
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
        range: std::ops::Range<u64>,
        f: optrules_relation::scan::RowVisitor<'_>,
    ) -> optrules_relation::error::Result<()> {
        self.0.for_each_row_in(range, f)
    }
}

/// The mask-compiled grid loop equals the row visitor bit for bit —
/// over several mask chunks whose last is not a multiple of 64 rows,
/// several decoded file blocks, zeros of both signs on both axes, and
/// conditions mixing every test kind.
#[test]
fn columnar_grid_scan_equals_the_row_visitor_bit_for_bit() {
    use optrules_relation::BoolAttr;
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let lattice = |r: u64| match r % 8 {
        0 => 0.0,
        1 => -0.0,
        _ => ((r >> 8) % 257) as f64 * 0.25 - 32.0,
    };
    let rows = 9_000u64;
    let mut mem = Relation::new(schema());
    let path = tmp("grid-equivalence");
    let mut w = FileRelationWriter::create(&path, schema()).unwrap();
    for _ in 0..rows {
        let (r, b) = (next(), next());
        let nums = [lattice(r), lattice(r >> 24)];
        mem.push_row(&nums, &[b & 1 == 1]).unwrap();
        w.push_row(&nums, &[b & 1 == 1]).unwrap();
    }
    let file = w.finish().unwrap();
    let cuts = |n: i32| BucketSpec::from_cuts((-n..=n).map(|q| q as f64 * 2.5).collect());
    let bits = |ranges: &[(f64, f64)]| -> Vec<(u64, u64)> {
        ranges
            .iter()
            .map(|r| (r.0.to_bits(), r.1.to_bits()))
            .collect()
    };
    for (presumptive, objective) in [
        (Condition::True, Condition::BoolIs(BoolAttr(0), true)),
        (
            Condition::NumInRange(NumAttr(1), -10.0, 0.0),
            Condition::BoolIs(BoolAttr(0), false).and(Condition::NumEq(NumAttr(0), 0.0)),
        ),
        (
            Condition::BoolIs(BoolAttr(0), false).and(Condition::NumInRange(
                NumAttr(0),
                -0.0,
                31.0,
            )),
            Condition::NumInRange(NumAttr(1), 0.0, 5.0),
        ),
    ] {
        let grid = |rel: &dyn TupleScan| {
            let (x, y) = (cuts(9), cuts(5));
            GridCounts::count(
                rel,
                NumAttr(0),
                NumAttr(1),
                &x,
                &y,
                &presumptive,
                &objective,
            )
            .unwrap()
        };
        let want = grid(&VisitorOnly(&mem));
        for (label, got) in [("memory", grid(&mem)), ("file", grid(&file))] {
            assert_eq!(got, want, "{label}: {presumptive:?} / {objective:?}");
            assert_eq!(bits(&got.x_ranges), bits(&want.x_ranges), "{label}");
            assert_eq!(bits(&got.y_ranges), bits(&want.y_ranges), "{label}");
        }
    }
    drop(file);
    std::fs::remove_file(&path).unwrap();
}
