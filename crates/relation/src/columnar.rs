//! Columnar scan capability: per-segment access to contiguous column
//! data, the substrate of the counting-scan kernels.
//!
//! The row-visitor path ([`crate::scan::TupleScan::for_each_row_in`])
//! copies every tuple into scratch buffers and pays one dyn-closure
//! call per row — fine for generic algorithms, ruinous for the one
//! scan all mining cost bottoms out in (Algorithm 3.1 step 4).
//! [`ColumnarScan`] exposes what that scan actually needs: the rows of
//! each storage segment as contiguous `&[f64]` column slices plus
//! bit-packed Boolean columns ([`BitSpan`]), delivered block by block
//! in row order, with per-block **zone maps** (min/max per numeric
//! column) so a kernel can skip blocks that provably cannot satisfy a
//! range condition and collapse blocks whose values all fall in one
//! bucket. A scan names the columns it will read in a [`Projection`],
//! so a store that has to decode decodes only those.
//!
//! Storage opts in by overriding
//! [`TupleScan::as_columnar`](crate::scan::TupleScan::as_columnar):
//! the in-memory [`Relation`](crate::memory::Relation) hands out its
//! columns directly, the file-backed
//! [`FileRelation`](crate::file::FileRelation) decodes fixed-width
//! records into column buffers a few thousand rows at a time, and the
//! composite [`ChunkedRelation`](crate::chunked::ChunkedRelation)
//! (live generations, and the durable stack of base file, spilled
//! segments and in-memory tail) forwards per part. Algorithms discover
//! the capability at runtime and fall back to the row visitor when it
//! is absent, so everything keeps working over generic storage.

use crate::bitcol::BitSpan;
use crate::error::Result;
use std::ops::Range;

/// One block of rows viewed column-wise. Blocks are produced in row
/// order and partition the scanned range; `start` is the global row
/// index of the block's first row.
///
/// `zones` holds a per-numeric-column `(min, max)` over **at least**
/// the block's rows: implementations may report a looser bound (e.g. a
/// whole-segment zone for a partial block), so consumers may use zones
/// to prove values absent, never to prove them present.
///
/// # Projection contract
///
/// A block produced under a [`Projection`] still has one entry per
/// schema column in `numeric`, `bits` and `zones`, so column ids index
/// it unchanged — but a column the projection does not name is
/// **absent**: an empty slice (or empty span) with zone `(∞, −∞)`,
/// whatever `rows` says. Consumers read only the columns they asked
/// for.
#[derive(Debug, Clone)]
pub struct ColumnBlock<'a> {
    /// Global row index of the first row in this block.
    pub start: u64,
    /// Number of rows in the block.
    pub rows: usize,
    /// One contiguous slice per numeric attribute (schema column
    /// order), each exactly `rows` long — or empty when unprojected.
    pub numeric: Vec<&'a [f64]>,
    /// One bit span per Boolean attribute (schema column order), each
    /// exactly `rows` bits long — or empty when unprojected.
    pub bits: Vec<BitSpan<'a>>,
    /// Per-numeric-column `(min, max)` bounding the block's values
    /// (possibly loosely — see the type docs). `(∞, −∞)` when the
    /// bound is over zero rows or the column is unprojected.
    pub zones: Vec<(f64, f64)>,
}

impl<'a> ColumnBlock<'a> {
    /// The same block re-addressed to a new global start row — how
    /// composite stores translate a segment-local block into the
    /// containing relation's row space.
    pub fn rebased(&self, start: u64) -> ColumnBlock<'a> {
        ColumnBlock {
            start,
            ..self.clone()
        }
    }
}

/// The zone of a numeric column with no rows under it: unprojected, or
/// a bound over zero rows. Every real value lies outside it.
pub const NO_ZONE: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// The columns a block scan must materialize — the projection a
/// counting scan pushes down to storage so a store that decodes
/// (the file-backed one) touches only what the scan reads. See the
/// [projection contract](ColumnBlock#projection-contract) for what an
/// unprojected column looks like in a block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Projection {
    all: bool,
    numeric: Vec<bool>,
    boolean: Vec<bool>,
}

impl Projection {
    /// Every column of the schema.
    pub fn all() -> Self {
        Self {
            all: true,
            ..Self::default()
        }
    }

    /// No column yet; add the ones the scan reads.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds numeric column `col`.
    pub fn add_numeric(&mut self, col: usize) {
        if self.numeric.len() <= col {
            self.numeric.resize(col + 1, false);
        }
        self.numeric[col] = true;
    }

    /// Adds Boolean column `col`.
    pub fn add_boolean(&mut self, col: usize) {
        if self.boolean.len() <= col {
            self.boolean.resize(col + 1, false);
        }
        self.boolean[col] = true;
    }

    /// Whether numeric column `col` is materialized.
    pub fn has_numeric(&self, col: usize) -> bool {
        self.all || self.numeric.get(col) == Some(&true)
    }

    /// Whether Boolean column `col` is materialized.
    pub fn has_boolean(&self, col: usize) -> bool {
        self.all || self.boolean.get(col) == Some(&true)
    }
}

/// The block callback of [`ColumnarScan::for_each_block_in`].
pub type BlockVisitor<'a> = &'a mut dyn FnMut(&ColumnBlock<'_>);

/// Sequential column-wise access to a relation's tuples, block by
/// block. See the [module docs](self) for the role this plays.
pub trait ColumnarScan: Sync {
    /// Visits rows `range` as consecutive [`ColumnBlock`]s in row
    /// order, materializing the columns `cols` names (see the
    /// [projection contract](ColumnBlock#projection-contract)). Clamps
    /// exactly like
    /// [`TupleScan::for_each_row_in`](crate::scan::TupleScan::for_each_row_in):
    /// `range.end` is clamped to the row count and an empty or fully
    /// out-of-bounds range visits nothing — a columnar scan over any
    /// range covers precisely the rows the row visitor would.
    ///
    /// Blocks never contain zero rows.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (I/O and corrupt or non-finite data
    /// for file-backed relations). A non-finite stored value fails the
    /// scan whether or not its column is projected.
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()>;

    /// [`for_each_block_projected`](Self::for_each_block_projected)
    /// with every column.
    ///
    /// # Errors
    ///
    /// As the projected scan.
    fn for_each_block_in(&self, range: Range<u64>, f: BlockVisitor<'_>) -> Result<()> {
        self.for_each_block_projected(range, &Projection::all(), f)
    }
}

impl<T: ColumnarScan + ?Sized> ColumnarScan for &T {
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()> {
        (**self).for_each_block_projected(range, cols, f)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::memory::Relation;
    use crate::scan::TupleScan;
    use crate::schema::Schema;

    fn sample(rows: usize) -> Relation {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_row(&[i as f64, -(i as f64)], &[i % 3 == 0])
                .unwrap();
        }
        rel
    }

    /// Reconstructs rows from blocks and checks them against the
    /// row-visitor oracle — the contract every implementor must hold.
    pub(crate) fn assert_blocks_match_visitor<T: TupleScan + ?Sized>(rel: &T, range: Range<u64>) {
        let cols = rel
            .as_columnar()
            .expect("relation under test must support columnar scans");
        let mut from_blocks: Vec<(u64, Vec<f64>, Vec<bool>)> = Vec::new();
        cols.for_each_block_in(range.clone(), &mut |block| {
            assert!(block.rows > 0, "empty block emitted");
            assert_eq!(block.numeric.len(), rel.schema().numeric_count());
            assert_eq!(block.bits.len(), rel.schema().boolean_count());
            assert_eq!(block.zones.len(), rel.schema().numeric_count());
            for (col, slice) in block.numeric.iter().enumerate() {
                assert_eq!(slice.len(), block.rows);
                let (lo, hi) = block.zones[col];
                for &x in *slice {
                    assert!(lo <= x && x <= hi, "zone ({lo}, {hi}) misses {x}");
                }
            }
            for bits in &block.bits {
                assert_eq!(bits.len(), block.rows);
            }
            for i in 0..block.rows {
                from_blocks.push((
                    block.start + i as u64,
                    block.numeric.iter().map(|c| c[i]).collect(),
                    block.bits.iter().map(|b| b.get(i)).collect(),
                ));
            }
        })
        .unwrap();
        let mut from_rows: Vec<(u64, Vec<f64>, Vec<bool>)> = Vec::new();
        rel.for_each_row_in(range, &mut |row, nums, bools| {
            from_rows.push((row, nums.to_vec(), bools.to_vec()));
        })
        .unwrap();
        assert_eq!(from_blocks.len(), from_rows.len());
        for (a, b) in from_blocks.iter().zip(&from_rows) {
            assert_eq!(a.0, b.0);
            assert_eq!(
                a.1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.1.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(a.2, b.2);
        }
    }

    #[test]
    fn memory_blocks_match_visitor() {
        let rel = sample(100);
        assert_blocks_match_visitor(&rel, 0..100);
        assert_blocks_match_visitor(&rel, 17..63);
        // Clamp semantics match the row visitor.
        assert_blocks_match_visitor(&rel, 90..1000);
        assert_blocks_match_visitor(&rel, 100..200);
        assert_blocks_match_visitor(&rel, 0..0);
    }

    #[test]
    fn rebased_moves_only_the_start() {
        let rel = sample(10);
        rel.as_columnar()
            .unwrap()
            .for_each_block_in(0..10, &mut |block| {
                let moved = block.rebased(42);
                assert_eq!(moved.start, 42);
                assert_eq!(moved.rows, block.rows);
                assert_eq!(moved.numeric[0], block.numeric[0]);
            })
            .unwrap();
    }

    #[test]
    fn reference_forwarding() {
        let rel = sample(20);
        let by_ref: &Relation = &rel;
        assert!(by_ref.as_columnar().is_some());
        assert_blocks_match_visitor(&by_ref, 0..20);
    }
}
