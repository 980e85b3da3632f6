//! Scanning traits that decouple algorithms from storage.
//!
//! Every algorithm in the workspace — bucket counting (Algorithm 3.1
//! step 4), parallel counting (Algorithm 3.2), sampling, rule mining —
//! is written against these traits, so it runs unchanged over the
//! in-memory columnar [`crate::memory::Relation`] and the file-backed
//! [`crate::file::FileRelation`].

use crate::columnar::ColumnarScan;
use crate::error::Result;
use crate::schema::{NumAttr, Schema};
use std::ops::Range;

/// Sequential access to a relation's tuples.
///
/// Implementations must be `Sync` so that Algorithm 3.2 can scan
/// disjoint row ranges from multiple threads concurrently (each thread
/// maintains its own cursor/file handle; the trait object itself is
/// only read).
pub trait TupleScan: Sync {
    /// The relation's schema.
    fn schema(&self) -> &Schema;

    /// Number of rows.
    fn len(&self) -> u64;

    /// Whether the relation has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits rows `range` in order. The callback receives the row index
    /// and the tuple's numeric and Boolean values in schema column
    /// order. Slices are only valid for the duration of the call.
    ///
    /// # Out-of-bounds ranges
    ///
    /// `range.end` is **clamped** to [`len()`](Self::len): a range
    /// reaching past the end visits only the rows that exist, and a
    /// range that is empty or starts at/after `len()` visits nothing.
    /// No implementation may error or panic on an out-of-bounds range —
    /// parallel partitioners (Algorithm 3.2) and snapshot readers hand
    /// out ranges computed from a row count that may have been observed
    /// before or after concurrent appends, and rely on every storage
    /// backend treating the overhang identically.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (I/O for file-backed relations).
    fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()>;

    /// Visits every row in order.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (I/O for file-backed relations).
    fn for_each_row(&self, f: RowVisitor<'_>) -> Result<()> {
        self.for_each_row_in(0..self.len(), f)
    }

    /// The relation's columnar fast-path capability, if the storage
    /// supports one (see [`ColumnarScan`]). Algorithms that have a
    /// columnar kernel probe this at runtime and fall back to
    /// [`for_each_row_in`](Self::for_each_row_in) on `None`; the
    /// default is `None`, so generic or wrapper storage keeps working
    /// without opting in.
    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        None
    }
}

/// The row callback: `(row index, numeric values, Boolean values)`.
pub type RowVisitor<'a> = &'a mut dyn FnMut(u64, &[f64], &[bool]);

/// Random access to individual numeric values, required by
/// with-replacement sampling (Algorithm 3.1 step 1 draws `S` uniform
/// random tuples).
pub trait RandomAccess: TupleScan {
    /// Reads the value of `attr` at `row`.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of bounds or on I/O failure.
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64>;

    /// Reads `attr` at every row of `rows` into `out`, in request
    /// order (`out[i]` is the value at `rows[i]`): exactly what
    /// [`numeric_at`](Self::numeric_at) returns index by index, for
    /// any order and with duplicates. One call per sample lets a store
    /// whose random reads cost a syscall each (the file-backed one)
    /// coalesce them; the provided default is the plain loop.
    ///
    /// # Errors
    ///
    /// An out-of-bounds index fails with the error `numeric_at` gives
    /// for the **first** offending index in request order; I/O
    /// failures propagate. `out` holds no meaningful values after an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` differ in length.
    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        assert_eq!(rows.len(), out.len(), "one output slot per requested row");
        for (slot, &row) in out.iter_mut().zip(rows) {
            *slot = self.numeric_at(attr, row)?;
        }
        Ok(())
    }
}

// Shared references scan like the relation itself, so session objects
// (e.g. the core crate's `SharedEngine`) can either own a relation or borrow
// one without a separate code path.
impl<T: TupleScan + ?Sized> TupleScan for &T {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
        (**self).for_each_row_in(range, f)
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        (**self).as_columnar()
    }
}

impl<T: RandomAccess + ?Sized> RandomAccess for &T {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        (**self).numeric_at(attr, row)
    }

    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        (**self).numeric_at_many(attr, rows, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Relation;
    use crate::schema::Schema;

    fn small() -> Relation {
        let schema = Schema::builder().numeric("X").boolean("C").build();
        let mut rel = Relation::new(schema);
        for i in 0..10 {
            rel.push_row(&[i as f64], &[i % 2 == 0]).unwrap();
        }
        rel
    }

    #[test]
    fn default_for_each_row_covers_all() {
        let rel = small();
        let mut seen = Vec::new();
        rel.for_each_row(&mut |idx, nums, bools| {
            seen.push((idx, nums[0], bools[0]));
        })
        .unwrap();
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[3], (3, 3.0, false));
    }

    #[test]
    fn is_empty_default() {
        let schema = Schema::builder().numeric("X").build();
        let rel = Relation::new(schema);
        assert!(rel.is_empty());
        assert!(!small().is_empty());
    }
}
