//! Chunked, copy-on-write relation versions for live (append-heavy)
//! workloads.
//!
//! The mining engine's snapshot-isolation model (one *generation* of
//! the relation per query) needs a store where producing the
//! next generation after appending `k` rows costs O(k), not a rebuild
//! of all `N` existing rows. [`ChunkedRelation`] provides that:
//!
//! * a **base** segment — any [`TupleScan`]/[`RandomAccess`] store
//!   (typically the file-backed [`crate::file::FileRelation`] the
//!   process started from, or an in-memory [`Relation`]) held behind an
//!   `Arc` and never copied;
//! * a list of **frozen tail segments** — in-memory [`Relation`]s
//!   holding the appended rows, also `Arc`-shared.
//!
//! [`ChunkedRelation::append`] returns a *new* `ChunkedRelation` that
//! shares every existing segment with its parent and adds one segment
//! for the new rows — the parent is untouched, so readers holding it
//! keep a bit-stable snapshot forever. To keep the segment list from
//! growing one entry per append, tail segments are **merged
//! geometrically** (a new segment absorbs every older tail segment
//! that is no larger than itself), which bounds the list at O(log
//! appended rows) segments and costs each appended row O(log n)
//! copies over the relation's lifetime — amortized O(k) per
//! `append(k)` in practice, and never a full-relation rebuild (the
//! base segment is never copied).
//!
//! Row order is base rows first, then appended rows in append order,
//! so a `ChunkedRelation` scans and random-accesses **identically** to
//! a flat relation holding the concatenated rows — the property the
//! engine's oracle tests (`proptest_live.rs`) pin down.

use crate::columnar::{BlockVisitor, ColumnarScan, Projection};
use crate::error::{RelationError, Result};
use crate::memory::Relation;
use crate::scan::{fetch_by_part, RandomAccess, RowVisitor, TupleScan};
use crate::schema::{NumAttr, Schema};
use std::ops::Range;
use std::sync::Arc;

/// One decoded row ready to append: numeric values then Boolean values,
/// both in schema column order. The unit of [`ChunkedRelation::append`]
/// and of the JSON protocol's `{"cmd":"append"}` frames.
#[derive(Debug, Clone, PartialEq)]
pub struct RowFrame {
    /// Numeric cell values, one per numeric attribute, in column order.
    pub numeric: Vec<f64>,
    /// Boolean cell values, one per Boolean attribute, in column order.
    pub boolean: Vec<bool>,
}

/// Stores that can produce a **new version** of themselves with rows
/// appended, sharing structure with the original where possible. The
/// original is untouched (copy-on-write), which is what lets the
/// engine swap generations atomically while readers keep scanning the
/// old one.
pub trait AppendRows: TupleScan + Sized {
    /// Returns a new relation version holding `self`'s rows followed by
    /// `rows`.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::SchemaMismatch`] if any row's arities do
    /// not match the schema.
    fn with_rows(&self, rows: &[RowFrame]) -> Result<Self>;
}

impl AppendRows for Relation {
    /// O(existing + k): clones every column, then appends. Fine for
    /// tests and small in-memory data; live workloads should wrap the
    /// store in a [`ChunkedRelation`], whose version step is O(k)
    /// amortized.
    fn with_rows(&self, rows: &[RowFrame]) -> Result<Self> {
        let mut next = self.clone();
        for row in rows {
            next.push_row(&row.numeric, &row.boolean)?;
        }
        Ok(next)
    }
}

/// A relation version made of `Arc`-shared segments: an arbitrary base
/// store plus frozen in-memory tail segments of appended rows. See the
/// [module docs](self) for the versioning model.
#[derive(Debug)]
pub struct ChunkedRelation<B> {
    base: Arc<B>,
    base_rows: u64,
    /// Frozen appended segments, oldest first. Never mutated once part
    /// of a version — `append` builds a new list.
    tail: Vec<Arc<Relation>>,
    /// Global start row of each tail segment (parallel to `tail`).
    starts: Vec<u64>,
    rows: u64,
}

// Manual impl: `Arc` clones regardless of whether `B: Clone`.
impl<B> Clone for ChunkedRelation<B> {
    fn clone(&self) -> Self {
        Self {
            base: Arc::clone(&self.base),
            base_rows: self.base_rows,
            tail: self.tail.clone(),
            starts: self.starts.clone(),
            rows: self.rows,
        }
    }
}

impl<B: TupleScan + Send> ChunkedRelation<B> {
    /// Wraps `base` as the immutable base segment of a new chunked
    /// relation with no appended rows.
    pub fn new(base: B) -> Self {
        Self::from_arc(Arc::new(base))
    }

    /// Like [`new`](Self::new) over an already-shared base.
    pub fn from_arc(base: Arc<B>) -> Self {
        let base_rows = base.len();
        Self {
            base,
            base_rows,
            tail: Vec::new(),
            starts: Vec::new(),
            rows: base_rows,
        }
    }

    /// The shared base segment.
    pub fn base(&self) -> &Arc<B> {
        &self.base
    }

    /// Rows appended on top of the base across all versions leading to
    /// this one.
    pub fn appended_rows(&self) -> u64 {
        self.rows - self.base_rows
    }

    /// Number of storage segments (the base plus the frozen tail
    /// segments) — O(log appended rows) thanks to geometric merging.
    pub fn segments(&self) -> usize {
        1 + self.tail.len()
    }

    /// Returns a new version with `rows` appended after every existing
    /// row. `self` is untouched; the two versions share the base and
    /// all unmerged tail segments. Appending no rows returns a plain
    /// clone.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::SchemaMismatch`] if any row's arities do
    /// not match the schema; no partial version is produced.
    pub fn append(&self, rows: &[RowFrame]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(self.clone());
        }
        let mut seg = Relation::with_capacity(self.schema().clone(), rows.len());
        for row in rows {
            seg.push_row(&row.numeric, &row.boolean)?;
        }
        Ok(self.with_segment(seg))
    }

    /// Appends one pre-built frozen segment, merging geometrically:
    /// the new segment absorbs every older tail segment no larger than
    /// itself, so the tail stays O(log appended rows) long.
    fn with_segment(&self, mut seg: Relation) -> Self {
        let mut tail = self.tail.clone();
        while let Some(last) = tail.last() {
            if last.len() > seg.len() {
                break;
            }
            seg = concat(self.schema(), last, &seg);
            tail.pop();
        }
        tail.push(Arc::new(seg));
        let mut starts = Vec::with_capacity(tail.len());
        let mut at = self.base_rows;
        for segment in &tail {
            starts.push(at);
            at += segment.len();
        }
        Self {
            base: Arc::clone(&self.base),
            base_rows: self.base_rows,
            tail,
            starts,
            rows: at,
        }
    }
}

/// Concatenates two frozen segments into one, preserving row order.
fn concat(schema: &Schema, a: &Relation, b: &Relation) -> Relation {
    let mut out = Relation::with_capacity(schema.clone(), (a.len() + b.len()) as usize);
    for seg in [a, b] {
        seg.for_each_row(&mut |_, nums, bools| {
            out.push_row(nums, bools)
                .expect("merged segments share one schema");
        })
        .expect("in-memory scan cannot fail");
    }
    out
}

impl<B: TupleScan + Send> TupleScan for ChunkedRelation<B> {
    fn schema(&self) -> &Schema {
        self.base.schema()
    }

    fn len(&self) -> u64 {
        self.rows
    }

    fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
        let start = range.start;
        let end = range.end.min(self.rows);
        if start >= end {
            return Ok(());
        }
        if start < self.base_rows {
            self.base
                .for_each_row_in(start..end.min(self.base_rows), f)?;
        }
        for (seg, &seg_start) in self.tail.iter().zip(&self.starts) {
            if end <= seg_start {
                break;
            }
            let seg_end = seg_start + seg.len();
            if start >= seg_end {
                continue;
            }
            let lo = start.max(seg_start) - seg_start;
            let hi = end.min(seg_end) - seg_start;
            seg.for_each_row_in(lo..hi, &mut |row, nums, bools| {
                f(seg_start + row, nums, bools);
            })?;
        }
        Ok(())
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        // Columnar only when the base is: tail segments are in-memory
        // `Relation`s (always columnar), so the base is the only
        // segment that can lack the capability.
        self.base.as_columnar().map(|_| self as &dyn ColumnarScan)
    }
}

impl<B: TupleScan + Send> ColumnarScan for ChunkedRelation<B> {
    /// Forwards to each overlapping segment in row order, rebasing
    /// segment-local blocks into the relation's global row space.
    ///
    /// Only callable when [`TupleScan::as_columnar`] returned `Some`,
    /// which requires a columnar base.
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()> {
        let start = range.start;
        let end = range.end.min(self.rows);
        if start >= end {
            return Ok(());
        }
        if start < self.base_rows {
            let base = self
                .base
                .as_columnar()
                .expect("ColumnarScan invoked on a ChunkedRelation with a non-columnar base");
            base.for_each_block_projected(start..end.min(self.base_rows), cols, f)?;
        }
        for (seg, &seg_start) in self.tail.iter().zip(&self.starts) {
            if end <= seg_start {
                break;
            }
            let seg_end = seg_start + seg.len();
            if start >= seg_end {
                continue;
            }
            let lo = start.max(seg_start) - seg_start;
            let hi = end.min(seg_end) - seg_start;
            seg.for_each_block_projected(lo..hi, cols, &mut |block| {
                f(&block.rebased(seg_start + block.start));
            })?;
        }
        Ok(())
    }
}

impl<B: RandomAccess + Send> RandomAccess for ChunkedRelation<B> {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        if row < self.base_rows {
            return self.base.numeric_at(attr, row);
        }
        if row >= self.rows {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        // partition_point over starts: the last segment starting at or
        // before `row`.
        let i = self.starts.partition_point(|&s| s <= row) - 1;
        self.tail[i].numeric_at(attr, row - self.starts[i])
    }

    /// One batched fetch per segment the draw touches: the base gets
    /// its indices in one call (so a file-backed base coalesces its
    /// reads), the in-memory tail segments theirs.
    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        let starts: Vec<u64> = std::iter::once(0)
            .chain(self.starts.iter().copied())
            .collect();
        fetch_by_part(
            &starts,
            self.rows,
            rows,
            out,
            |part, rows, out| match part {
                0 => self.base.numeric_at_many(attr, rows, out),
                _ => self.tail[part - 1].numeric_at_many(attr, rows, out),
            },
        )
    }
}

impl<B: RandomAccess + Send> AppendRows for ChunkedRelation<B> {
    fn with_rows(&self, rows: &[RowFrame]) -> Result<Self> {
        self.append(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::BoolAttr;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build()
    }

    fn frame(x: f64, y: f64, b: bool) -> RowFrame {
        RowFrame {
            numeric: vec![x, y],
            boolean: vec![b],
        }
    }

    fn base(rows: usize) -> Relation {
        let mut rel = Relation::new(schema());
        for i in 0..rows {
            rel.push_row(&[i as f64, (i * 2) as f64], &[i % 3 == 0])
                .unwrap();
        }
        rel
    }

    /// Flat oracle: the same rows in one `Relation`.
    fn flat(rows: usize, appended: &[RowFrame]) -> Relation {
        let mut rel = base(rows);
        for row in appended {
            rel.push_row(&row.numeric, &row.boolean).unwrap();
        }
        rel
    }

    fn assert_equiv(chunked: &ChunkedRelation<Relation>, flat: &Relation) {
        assert_eq!(chunked.len(), flat.len());
        let mut seen = Vec::new();
        chunked
            .for_each_row(&mut |row, nums, bools| {
                seen.push((row, nums.to_vec(), bools.to_vec()));
            })
            .unwrap();
        let mut want = Vec::new();
        flat.for_each_row(&mut |row, nums, bools| {
            want.push((row, nums.to_vec(), bools.to_vec()));
        })
        .unwrap();
        assert_eq!(seen, want);
        for row in 0..flat.len() {
            for attr in [NumAttr(0), NumAttr(1)] {
                assert_eq!(
                    chunked.numeric_at(attr, row).unwrap(),
                    flat.numeric_at(attr, row).unwrap(),
                    "attr {attr:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn appends_scan_like_the_flat_relation() {
        let mut appended = Vec::new();
        let mut chunked = ChunkedRelation::new(base(10));
        for batch in 0..7 {
            let rows: Vec<RowFrame> = (0..=batch)
                .map(|i| frame(100.0 + i as f64, batch as f64, i % 2 == 0))
                .collect();
            chunked = chunked.append(&rows).unwrap();
            appended.extend(rows);
            assert_equiv(&chunked, &flat(10, &appended));
        }
        assert_eq!(chunked.appended_rows(), appended.len() as u64);
    }

    #[test]
    fn old_versions_are_untouched_snapshots() {
        let v0 = ChunkedRelation::new(base(5));
        let v1 = v0.append(&[frame(1.0, 2.0, true)]).unwrap();
        let v2 = v1.append(&[frame(3.0, 4.0, false)]).unwrap();
        assert_eq!(v0.len(), 5);
        assert_eq!(v1.len(), 6);
        assert_eq!(v2.len(), 7);
        assert_equiv(&v0, &flat(5, &[]));
        assert_equiv(&v1, &flat(5, &[frame(1.0, 2.0, true)]));
        assert_equiv(
            &v2,
            &flat(5, &[frame(1.0, 2.0, true), frame(3.0, 4.0, false)]),
        );
    }

    #[test]
    fn geometric_merging_bounds_the_segment_count() {
        let mut rel = ChunkedRelation::new(base(0));
        for i in 0..256 {
            rel = rel.append(&[frame(i as f64, 0.0, false)]).unwrap();
        }
        assert_eq!(rel.len(), 256);
        // 256 one-row appends collapse into O(log) segments, not 256.
        assert!(rel.segments() <= 10, "{} segments", rel.segments());
        assert_equiv(
            &rel,
            &flat(
                0,
                &(0..256)
                    .map(|i| frame(i as f64, 0.0, false))
                    .collect::<Vec<_>>(),
            ),
        );
    }

    #[test]
    fn partial_ranges_split_across_segments() {
        let chunked = ChunkedRelation::new(base(4))
            .append(&[frame(10.0, 0.0, true), frame(11.0, 0.0, true)])
            .unwrap()
            .append(&[
                frame(20.0, 0.0, false),
                frame(21.0, 0.0, false),
                frame(22.0, 0.0, false),
            ])
            .unwrap();
        let mut xs = Vec::new();
        chunked
            .for_each_row_in(3..8, &mut |row, nums, _| xs.push((row, nums[0])))
            .unwrap();
        assert_eq!(
            xs,
            vec![(3, 3.0), (4, 10.0), (5, 11.0), (6, 20.0), (7, 21.0)]
        );
        // Clamps past the end like the flat relation.
        let mut count = 0;
        chunked
            .for_each_row_in(8..100, &mut |_, _, _| count += 1)
            .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn arity_mismatch_rejected_without_a_partial_version() {
        let v0 = ChunkedRelation::new(base(3));
        let bad = RowFrame {
            numeric: vec![1.0],
            boolean: vec![true],
        };
        assert!(v0.append(&[frame(1.0, 2.0, true), bad]).is_err());
        assert_eq!(v0.len(), 3, "failed append must not change anything");
    }

    #[test]
    fn empty_append_is_a_clone() {
        let v0 = ChunkedRelation::new(base(3));
        let v1 = v0.append(&[]).unwrap();
        assert_eq!(v1.len(), 3);
        assert_eq!(v1.segments(), 1);
    }

    #[test]
    fn random_access_out_of_bounds_errors() {
        let chunked = ChunkedRelation::new(base(2))
            .append(&[frame(9.0, 9.0, true)])
            .unwrap();
        assert_eq!(chunked.numeric_at(NumAttr(0), 2).unwrap(), 9.0);
        assert!(chunked.numeric_at(NumAttr(0), 3).is_err());
    }

    #[test]
    fn columnar_blocks_match_visitor_across_segments() {
        let mut chunked = ChunkedRelation::new(base(10));
        for batch in 0..6 {
            let rows: Vec<RowFrame> = (0..(batch * 3 + 1))
                .map(|i| frame(100.0 + i as f64, batch as f64, i % 2 == 0))
                .collect();
            chunked = chunked.append(&rows).unwrap();
        }
        assert!(chunked.segments() > 1);
        let n = chunked.len();
        crate::columnar::tests::assert_blocks_match_visitor(&chunked, 0..n);
        crate::columnar::tests::assert_blocks_match_visitor(&chunked, 3..(n - 2));
        crate::columnar::tests::assert_blocks_match_visitor(&chunked, (n - 1)..(n + 50));
        crate::columnar::tests::assert_blocks_match_visitor(&chunked, n..n + 1);
    }

    #[test]
    fn columnar_capability_tracks_the_base() {
        // In-memory base: columnar.
        assert!(ChunkedRelation::new(base(3)).as_columnar().is_some());

        // A base that only implements the row visitor: not columnar.
        struct RowsOnly(Relation);
        impl TupleScan for RowsOnly {
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            fn len(&self) -> u64 {
                self.0.len()
            }
            fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
                self.0.for_each_row_in(range, f)
            }
        }
        let wrapped = ChunkedRelation::new(RowsOnly(base(3)));
        assert!(wrapped.as_columnar().is_none());
    }

    #[test]
    fn plain_relation_append_rows_copies() {
        let rel = base(3);
        let next = rel.with_rows(&[frame(7.0, 8.0, true)]).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(next.len(), 4);
        assert_eq!(next.numeric_at(NumAttr(0), 3).unwrap(), 7.0);
        assert!(next.bool_value(BoolAttr(0), 3));
    }
}
