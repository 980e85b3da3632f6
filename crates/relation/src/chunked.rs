//! Chunked, copy-on-write relation versions for live (append-heavy)
//! workloads.
//!
//! The mining engine's snapshot-isolation model (one *generation* of
//! the relation per query) needs a store where producing the
//! next generation after appending `k` rows costs O(k), not a rebuild
//! of all `N` existing rows. [`ChunkedRelation`] provides that with one
//! stack of `Arc`-shared, never-copied parts:
//!
//! * one or more frozen **base parts** — any
//!   [`TupleScan`]/[`RandomAccess`] store, typically the file-backed
//!   [`crate::file::FileRelation`] the process started from (or an
//!   in-memory [`Relation`]). A durable relation stacks its spilled
//!   segment files here too, after the original base file;
//! * a list of **frozen tail segments** — in-memory [`Relation`]s
//!   holding the appended rows.
//!
//! [`ChunkedRelation::append`] returns a *new* `ChunkedRelation` that
//! shares every existing part with its parent and adds one segment
//! for the new rows — the parent is untouched, so readers holding it
//! keep a bit-stable snapshot forever. To keep the segment list from
//! growing one entry per append, tail segments are **merged
//! geometrically** (a new segment absorbs every older tail segment
//! that is no larger than itself), which bounds the list at O(log
//! appended rows) segments and costs each appended row O(log n)
//! copies over the relation's lifetime — amortized O(k) per
//! `append(k)` in practice, and never a full-relation rebuild (base
//! parts are never copied).
//!
//! Row order is base parts first, then appended rows in append order,
//! so a `ChunkedRelation` scans and random-accesses **identically** to
//! a flat relation holding the concatenated rows — the property the
//! engine's oracle tests (`proptest_live.rs`) pin down. One routing
//! rule maps a global row to its part, and every read path (row
//! visitor, block scan, point read, batched read) dispatches once per
//! part it touches, never once per row.

use crate::columnar::{BlockVisitor, ColumnarScan, Projection};
use crate::error::{RelationError, Result};
use crate::memory::Relation;
use crate::scan::{RandomAccess, RowVisitor, TupleScan};
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

/// A relation version made of `Arc`-shared parts: frozen base parts
/// followed by frozen in-memory tail segments of appended rows. See the
/// [module docs](self) for the versioning model.
#[derive(Debug)]
pub struct ChunkedRelation<B> {
    /// Frozen base parts, in row order. Never empty.
    base: Vec<Arc<B>>,
    /// Frozen appended segments, oldest first. Never mutated once part
    /// of a version — `append` builds a new list.
    tail: Vec<Arc<Relation>>,
    /// Global start row of every part: the base parts, then the tail
    /// segments.
    starts: Vec<u64>,
    rows: u64,
}

// Manual impl: `Arc` clones regardless of whether `B: Clone`.
impl<B> Clone for ChunkedRelation<B> {
    fn clone(&self) -> Self {
        Self {
            base: self.base.clone(),
            tail: self.tail.clone(),
            starts: self.starts.clone(),
            rows: self.rows,
        }
    }
}

impl<B: TupleScan + Send> ChunkedRelation<B> {
    /// Wraps `base` as the immutable base part of a new chunked
    /// relation with no appended rows.
    pub fn new(base: B) -> Self {
        Self::stack(vec![Arc::new(base)], Vec::new())
    }

    /// Stacks already-shared base parts end to end, in order, with no
    /// appended rows — how a durable relation reassembles its base file
    /// and spilled segments.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::SchemaMismatch`] if a part's schema
    /// differs from the first part's: parts may come from files written
    /// outside this process, and a mismatched arity would corrupt
    /// scans.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub(crate) fn from_parts(parts: Vec<Arc<B>>) -> Result<Self> {
        let schema = parts.first().expect("a stack needs a part").schema();
        if let Some((i, part)) = (parts.iter().enumerate()).find(|(_, p)| p.schema() != schema) {
            return Err(RelationError::SchemaMismatch {
                expected: format!("{schema:?}"),
                got: format!("{:?} (part {i} of the stack)", part.schema()),
            });
        }
        Ok(Self::stack(parts, Vec::new()))
    }

    /// Lays `base` and then `tail` end to end.
    fn stack(base: Vec<Arc<B>>, tail: Vec<Arc<Relation>>) -> Self {
        let lens = (base.iter().map(|p| p.len())).chain(tail.iter().map(|s| s.len()));
        let mut starts = Vec::with_capacity(base.len() + tail.len());
        let mut rows = 0;
        for len in lens {
            starts.push(rows);
            rows += len;
        }
        Self {
            base,
            tail,
            starts,
            rows,
        }
    }

    /// The same rows with every appended row moved into `part`, a new
    /// last base part holding exactly them — what a checkpoint swaps in
    /// after spilling the tail.
    pub(crate) fn with_tail_replaced(&self, part: Arc<B>) -> Self {
        debug_assert_eq!(part.len(), self.appended_rows());
        let mut base = self.base.clone();
        base.push(part);
        Self::stack(base, Vec::new())
    }

    /// Rows appended on top of the base parts across all versions
    /// leading to this one.
    pub fn appended_rows(&self) -> u64 {
        self.tail.iter().map(|seg| seg.len()).sum()
    }

    /// Number of storage parts (the base parts plus the frozen tail
    /// segments) — O(log appended rows) tail segments thanks to
    /// geometric merging.
    pub fn segments(&self) -> usize {
        self.starts.len()
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
        Self::stack(self.base.clone(), tail)
    }

    /// Part `i` in row order: the base parts, then the tail segments.
    fn scan_part(&self, i: usize) -> &dyn TupleScan {
        match self.base.get(i) {
            Some(part) => &**part,
            None => &*self.tail[i - self.base.len()],
        }
    }

    /// The part holding global row `row` (`row < len`); an empty part
    /// never holds a row.
    fn part_of(&self, row: u64) -> usize {
        self.starts.partition_point(|&s| s <= row) - 1
    }

    /// The routing walk: splits `range`, clamped to the relation, over
    /// the parts it overlaps and calls `visit(part, local range, global
    /// start of the part)` once per part, in row order.
    fn walk(
        &self,
        range: Range<u64>,
        mut visit: impl FnMut(usize, Range<u64>, u64) -> Result<()>,
    ) -> Result<()> {
        let end = range.end.min(self.rows);
        if range.start >= end {
            return Ok(());
        }
        for i in self.part_of(range.start)..self.starts.len() {
            let at = self.starts[i];
            if at >= end {
                break;
            }
            let part_end = self.starts.get(i + 1).copied().unwrap_or(self.rows);
            visit(i, range.start.max(at) - at..end.min(part_end) - at, at)?;
        }
        Ok(())
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
        self.base[0].schema()
    }

    fn len(&self) -> u64 {
        self.rows
    }

    fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
        self.walk(range, |i, local, at| {
            let part = self.scan_part(i);
            if at == 0 {
                return part.for_each_row_in(local, f);
            }
            part.for_each_row_in(local, &mut |row, nums, bools| f(at + row, nums, bools))
        })
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        // Tail segments are in-memory `Relation`s (always columnar), so
        // only a base part can lack the capability.
        (self.base.iter())
            .all(|part| part.as_columnar().is_some())
            .then_some(self as &dyn ColumnarScan)
    }
}

impl<B: TupleScan + Send> ColumnarScan for ChunkedRelation<B> {
    /// Forwards to each overlapping part in row order, rebasing
    /// part-local blocks into the relation's global row space.
    ///
    /// Only callable when [`TupleScan::as_columnar`] returned `Some`,
    /// which requires every base part to be columnar.
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()> {
        self.walk(range, |i, local, at| {
            let part = (self.scan_part(i).as_columnar())
                .expect("ColumnarScan invoked on a ChunkedRelation with a non-columnar part");
            if at == 0 {
                return part.for_each_block_projected(local, cols, f);
            }
            part.for_each_block_projected(local, cols, &mut |block| {
                f(&block.rebased(at + block.start));
            })
        })
    }
}

impl<B: RandomAccess + Send> ChunkedRelation<B> {
    /// [`scan_part`](Self::scan_part) with random access.
    fn access_part(&self, i: usize) -> &dyn RandomAccess {
        match self.base.get(i) {
            Some(part) => &**part,
            None => &*self.tail[i - self.base.len()],
        }
    }
}

impl<B: RandomAccess + Send> RandomAccess for ChunkedRelation<B> {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        if row >= self.rows {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        let i = self.part_of(row);
        self.access_part(i).numeric_at(attr, row - self.starts[i])
    }

    /// One batched fetch per part the draw touches, so a file-backed
    /// part coalesces its reads: groups `rows` by part (a stable
    /// counting sort, so each part sees its indices in request order),
    /// hands every part one call, and scatters the values back into
    /// request order.
    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        assert_eq!(rows.len(), out.len(), "one output slot per requested row");
        if let Some(&row) = rows.iter().find(|&&row| row >= self.rows) {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        let parts = self.starts.len();
        if parts == 1 {
            return self.access_part(0).numeric_at_many(attr, rows, out);
        }
        // offsets[p]..offsets[p + 1] is part p's run in the grouped order.
        let mut offsets = vec![0usize; parts + 1];
        for &row in rows {
            offsets[self.part_of(row) + 1] += 1;
        }
        for p in 0..parts {
            offsets[p + 1] += offsets[p];
        }
        let mut next = offsets.clone();
        let mut local = vec![0u64; rows.len()];
        let mut order = vec![0usize; rows.len()];
        for (i, &row) in rows.iter().enumerate() {
            let p = self.part_of(row);
            local[next[p]] = row - self.starts[p];
            order[next[p]] = i;
            next[p] += 1;
        }
        let mut values = vec![0.0; rows.len()];
        for p in 0..parts {
            let run = offsets[p]..offsets[p + 1];
            if !run.is_empty() {
                self.access_part(p)
                    .numeric_at_many(attr, &local[run.clone()], &mut values[run])?;
            }
        }
        for (&i, &v) in order.iter().zip(&values) {
            out[i] = v;
        }
        Ok(())
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
        rows_in(0..rows)
    }

    /// Rows `range` of the fixture `base` holds, as one relation.
    fn rows_in(range: Range<usize>) -> Relation {
        let mut rel = Relation::new(schema());
        for i in range {
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
    fn stacked_parts_scan_like_the_concatenation() {
        let stack =
            ChunkedRelation::from_parts(vec![Arc::new(rows_in(0..10)), Arc::new(rows_in(10..25))])
                .unwrap();
        assert_eq!(stack.len(), 25);
        assert_eq!(stack.segments(), 2);
        assert_eq!(stack.appended_rows(), 0);
        assert_equiv(&stack, &base(25));
        // Partial range across the part boundary.
        let mut xs = Vec::new();
        stack
            .for_each_row_in(8..12, &mut |row, nums, _| xs.push((row, nums[0])))
            .unwrap();
        assert_eq!(xs, vec![(8, 8.0), (9, 9.0), (10, 10.0), (11, 11.0)]);
        // Random access on both sides of the boundary; out of bounds errors.
        for row in [0u64, 9, 10, 24] {
            assert_eq!(stack.numeric_at(NumAttr(0), row).unwrap(), row as f64);
        }
        assert!(matches!(
            stack.numeric_at(NumAttr(0), 25),
            Err(RelationError::RowOutOfBounds { row: 25, len: 25 })
        ));
        crate::columnar::tests::assert_blocks_match_visitor(&stack, 0..25);
        crate::columnar::tests::assert_blocks_match_visitor(&stack, 8..12);
        // Appending stacks the tail after every base part.
        let grown = stack.append(&[frame(99.0, 0.0, true)]).unwrap();
        assert_eq!(grown.segments(), 3);
        assert_eq!(grown.numeric_at(NumAttr(0), 25).unwrap(), 99.0);
    }

    #[test]
    fn stacked_parts_reject_mismatched_schemas() {
        let other = Schema::builder().numeric("Z").build();
        let mut odd = Relation::new(other);
        odd.push_row(&[1.0], &[]).unwrap();
        assert!(matches!(
            ChunkedRelation::from_parts(vec![Arc::new(base(5)), Arc::new(odd)]),
            Err(RelationError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn columnar_capability_tracks_the_base() {
        /// A part that offers the columnar fast path or only the row
        /// visitor.
        struct Part {
            rel: Relation,
            columnar: bool,
        }
        impl TupleScan for Part {
            fn schema(&self) -> &Schema {
                self.rel.schema()
            }
            fn len(&self) -> u64 {
                self.rel.len()
            }
            fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
                self.rel.for_each_row_in(range, f)
            }
            fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
                self.rel.as_columnar().filter(|_| self.columnar)
            }
        }
        let part = |columnar| {
            Arc::new(Part {
                rel: base(3),
                columnar,
            })
        };

        // In-memory base: columnar.
        assert!(ChunkedRelation::new(base(3)).as_columnar().is_some());
        // A base that only implements the row visitor: not columnar.
        let rows_only = ChunkedRelation::from_parts(vec![part(false)]).unwrap();
        assert!(rows_only.as_columnar().is_none());
        // A stack is columnar only if every base part is, appended
        // rows or not.
        let all = ChunkedRelation::from_parts(vec![part(true), part(true)]).unwrap();
        assert!(all.as_columnar().is_some());
        let mixed = ChunkedRelation::from_parts(vec![part(true), part(false)]).unwrap();
        assert!(mixed.as_columnar().is_none());
        let mixed = mixed.append(&[frame(1.0, 2.0, true)]).unwrap();
        assert!(mixed.as_columnar().is_none());
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
