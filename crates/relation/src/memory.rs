//! In-memory columnar relation.
//!
//! Numeric attributes are stored as `Vec<f64>` columns and Boolean
//! attributes as bit-packed [`BitColumn`]s. Columnar layout makes the
//! two operations the mining pipeline cares about fast: scanning one
//! numeric column (bucket assignment) and testing one Boolean column
//! (objective-condition counting).

use crate::bitcol::{BitColumn, BitSpan};
use crate::columnar::{BlockVisitor, ColumnBlock, ColumnarScan, Projection, NO_ZONE};
use crate::error::{RelationError, Result};
use crate::scan::{RandomAccess, TupleScan};
use crate::schema::{BoolAttr, NumAttr, Schema};
use std::ops::Range;

/// An in-memory columnar relation.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    numeric_cols: Vec<Vec<f64>>,
    bool_cols: Vec<BitColumn>,
    /// Per-numeric-column `(min, max)` over all rows, maintained on
    /// append — the relation's zone map. `(∞, −∞)` while empty.
    zones: Vec<(f64, f64)>,
    rows: u64,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        let numeric_cols = (0..schema.numeric_count()).map(|_| Vec::new()).collect();
        let bool_cols = (0..schema.boolean_count())
            .map(|_| BitColumn::new())
            .collect();
        let zones = vec![(f64::INFINITY, f64::NEG_INFINITY); schema.numeric_count()];
        Self {
            schema,
            numeric_cols,
            bool_cols,
            zones,
            rows: 0,
        }
    }

    /// Creates an empty relation with row capacity pre-reserved.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let numeric_cols = (0..schema.numeric_count())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        let bool_cols = (0..schema.boolean_count())
            .map(|_| BitColumn::with_capacity(rows))
            .collect();
        let zones = vec![(f64::INFINITY, f64::NEG_INFINITY); schema.numeric_count()];
        Self {
            schema,
            numeric_cols,
            bool_cols,
            zones,
            rows: 0,
        }
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::SchemaMismatch`] if the slice arities do
    /// not match the schema, and [`RelationError::NonFiniteValue`] if a
    /// numeric cell is NaN or infinite (see that variant for why such
    /// values can never be allowed to reach bucket assignment). On any
    /// error nothing is appended.
    pub fn push_row(&mut self, numeric: &[f64], boolean: &[bool]) -> Result<()> {
        if numeric.len() != self.schema.numeric_count()
            || boolean.len() != self.schema.boolean_count()
        {
            return Err(RelationError::SchemaMismatch {
                expected: format!(
                    "{} numeric + {} boolean",
                    self.schema.numeric_count(),
                    self.schema.boolean_count()
                ),
                got: format!("{} numeric + {} boolean", numeric.len(), boolean.len()),
            });
        }
        if let Some(column) = numeric.iter().position(|v| !v.is_finite()) {
            return Err(RelationError::NonFiniteValue {
                column,
                value: numeric[column],
            });
        }
        for ((col, zone), &v) in self
            .numeric_cols
            .iter_mut()
            .zip(&mut self.zones)
            .zip(numeric)
        {
            col.push(v);
            zone.0 = zone.0.min(v);
            zone.1 = zone.1.max(v);
        }
        for (col, &b) in self.bool_cols.iter_mut().zip(boolean) {
            col.push(b);
        }
        self.rows += 1;
        Ok(())
    }

    /// The zone map: per-numeric-column `(min, max)` over all rows,
    /// `(∞, −∞)` while the relation is empty.
    pub fn zones(&self) -> &[(f64, f64)] {
        &self.zones
    }

    /// Read-only view of a numeric column.
    pub fn numeric_col(&self, attr: NumAttr) -> &[f64] {
        &self.numeric_cols[attr.0]
    }

    /// Read-only view of a Boolean column.
    pub fn bool_col(&self, attr: BoolAttr) -> &BitColumn {
        &self.bool_cols[attr.0]
    }

    /// Value of one numeric cell.
    pub fn numeric_value(&self, attr: NumAttr, row: usize) -> f64 {
        self.numeric_cols[attr.0][row]
    }

    /// Value of one Boolean cell.
    pub fn bool_value(&self, attr: BoolAttr, row: usize) -> bool {
        self.bool_cols[attr.0].get(row)
    }
}

impl TupleScan for Relation {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> u64 {
        self.rows
    }

    fn for_each_row_in(
        &self,
        range: Range<u64>,
        f: &mut dyn FnMut(u64, &[f64], &[bool]),
    ) -> Result<()> {
        let end = range.end.min(self.rows);
        let mut nums = vec![0.0_f64; self.schema.numeric_count()];
        let mut bools = vec![false; self.schema.boolean_count()];
        for row in range.start..end {
            let r = row as usize;
            for (slot, col) in nums.iter_mut().zip(&self.numeric_cols) {
                *slot = col[r];
            }
            for (slot, col) in bools.iter_mut().zip(&self.bool_cols) {
                *slot = col.get(r);
            }
            f(row, &nums, &bools);
        }
        Ok(())
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        Some(self)
    }
}

impl ColumnarScan for Relation {
    /// The whole requested range as a single block borrowing the
    /// column storage directly — zero copying. The block's zones are
    /// the relation-wide zone map, a valid (if loose, for partial
    /// ranges) bound on any subrange. Unprojected columns are left
    /// empty, as the projection contract asks.
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()> {
        let end = range.end.min(self.rows);
        if range.start >= end {
            return Ok(());
        }
        let (lo, hi) = (range.start as usize, end as usize);
        let block = ColumnBlock {
            start: range.start,
            rows: hi - lo,
            numeric: (self.numeric_cols.iter().enumerate())
                .map(|(col, c)| {
                    if cols.has_numeric(col) {
                        &c[lo..hi]
                    } else {
                        &[]
                    }
                })
                .collect(),
            bits: (self.bool_cols.iter().enumerate())
                .map(|(col, c)| {
                    if cols.has_boolean(col) {
                        c.span(lo..hi)
                    } else {
                        BitSpan::default()
                    }
                })
                .collect(),
            zones: (self.zones.iter().enumerate())
                .map(|(col, &zone)| if cols.has_numeric(col) { zone } else { NO_ZONE })
                .collect(),
        };
        f(&block);
        Ok(())
    }
}

impl RandomAccess for Relation {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        if row >= self.rows {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        Ok(self.numeric_cols[attr.0][row as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let schema = Schema::builder()
            .numeric("Balance")
            .numeric("Age")
            .boolean("CardLoan")
            .build();
        let mut rel = Relation::new(schema);
        rel.push_row(&[1000.0, 30.0], &[true]).unwrap();
        rel.push_row(&[2000.0, 40.0], &[false]).unwrap();
        rel.push_row(&[1500.0, 50.0], &[true]).unwrap();
        rel
    }

    #[test]
    fn columnar_access() {
        let rel = sample();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.numeric_col(NumAttr(0)), &[1000.0, 2000.0, 1500.0]);
        assert_eq!(rel.numeric_col(NumAttr(1)), &[30.0, 40.0, 50.0]);
        assert_eq!(rel.bool_col(BoolAttr(0)).count_ones(), 2);
        assert_eq!(rel.numeric_value(NumAttr(1), 2), 50.0);
        assert!(rel.bool_value(BoolAttr(0), 0));
    }

    #[test]
    fn arity_checked() {
        let mut rel = sample();
        assert!(rel.push_row(&[1.0], &[true]).is_err());
        assert!(rel.push_row(&[1.0, 2.0], &[]).is_err());
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn scan_range() {
        let rel = sample();
        let mut rows = Vec::new();
        rel.for_each_row_in(1..3, &mut |idx, nums, bools| {
            rows.push((idx, nums.to_vec(), bools.to_vec()));
        })
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[0].1, vec![2000.0, 40.0]);
        assert_eq!(rows[1].2, vec![true]);
    }

    #[test]
    fn scan_range_clamps_to_len() {
        let rel = sample();
        let mut count = 0;
        rel.for_each_row_in(2..100, &mut |_, _, _| count += 1)
            .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn random_access_bounds() {
        let rel = sample();
        assert_eq!(rel.numeric_at(NumAttr(0), 1).unwrap(), 2000.0);
        assert!(rel.numeric_at(NumAttr(0), 3).is_err());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let schema = Schema::builder().numeric("X").boolean("B").build();
        let mut rel = Relation::with_capacity(schema, 100);
        assert!(rel.is_empty());
        rel.push_row(&[1.0], &[false]).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn zones_track_min_max_per_column() {
        let rel = sample();
        assert_eq!(rel.zones(), &[(1000.0, 2000.0), (30.0, 50.0)]);
        let empty = Relation::new(Schema::builder().numeric("X").build());
        assert_eq!(empty.zones(), &[(f64::INFINITY, f64::NEG_INFINITY)]);
    }

    #[test]
    fn non_finite_row_rejected_and_nothing_applied() {
        let mut rel = sample();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match rel.push_row(&[bad, 60.0], &[true]) {
                Err(RelationError::NonFiniteValue { column: 0, .. }) => {}
                other => panic!("expected NonFiniteValue, got {other:?}"),
            }
            match rel.push_row(&[3000.0, bad], &[true]) {
                Err(RelationError::NonFiniteValue { column: 1, .. }) => {}
                other => panic!("expected NonFiniteValue, got {other:?}"),
            }
        }
        // Nothing appended, zones untouched.
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.numeric_col(NumAttr(0)).len(), 3);
        assert_eq!(rel.zones(), &[(1000.0, 2000.0), (30.0, 50.0)]);
    }
}
