//! The counting scan (Algorithm 3.1, step 4; Definitions 2.6, 4.4; §4.3; §5).
//!
//! One sequential pass over the relation assigns every tuple to its
//! bucket by binary search (O(N log M) total) and accumulates:
//!
//! * `u_i` — tuples landing in bucket `i` (optionally restricted to a
//!   presumptive condition `C1`, for the generalized rules of §4.3);
//! * `v_i` per Boolean target `C` — tuples also meeting `C`
//!   (confidence numerators);
//! * `Σ t[B]` per numeric target `B` — per-bucket value sums for the
//!   average-operator ranges of Section 5;
//! * observed per-bucket value ranges, used to report mined ranges as
//!   `[x_s, y_t]` over actual data values rather than cut points.

use crate::bucket::{BucketCounts, BucketSpec};
use crate::error::Result;
use optrules_relation::{Condition, NumAttr, Schema, TupleScan};
use std::ops::Range;

/// What to count during a bucket-assignment scan.
#[derive(Debug, Clone)]
pub struct CountSpec {
    /// The bucketed numeric attribute `A`.
    pub attr: NumAttr,
    /// Presumptive condition `C1`; tuples failing it are ignored
    /// entirely (both `u` and `v`). `Condition::True` counts all tuples.
    pub presumptive: Condition,
    /// Boolean targets: each contributes a `v_i` series.
    pub bool_targets: Vec<Condition>,
    /// Numeric targets: each contributes a per-bucket value-sum series.
    pub sum_targets: Vec<NumAttr>,
}

impl CountSpec {
    /// Counts all tuples of `attr` with a single Boolean target.
    pub fn simple(attr: NumAttr, target: Condition) -> Self {
        Self {
            attr,
            presumptive: Condition::True,
            bool_targets: vec![target],
            sum_targets: Vec::new(),
        }
    }

    /// Counts tuples of `attr` with a numeric-sum target (Section 5).
    pub fn averaging(attr: NumAttr, target: NumAttr) -> Self {
        Self {
            attr,
            presumptive: Condition::True,
            bool_targets: Vec::new(),
            sum_targets: vec![target],
        }
    }

    /// The shared simple-query scan of `attr`: every Boolean attribute
    /// of `schema` as a `(B = yes)` target, no presumptive filter (the
    /// §6.1 all-pairs trick). One definition, so a shard expanding an
    /// `all_booleans` frame counts exactly what a single node does.
    pub fn all_booleans(attr: NumAttr, schema: &Schema) -> Self {
        Self {
            attr,
            presumptive: Condition::True,
            bool_targets: schema
                .boolean_attrs()
                .map(|battr| Condition::BoolIs(battr, true))
                .collect(),
            sum_targets: Vec::new(),
        }
    }
}

/// Runs the counting scan over the whole relation.
///
/// # Errors
///
/// Propagates storage errors.
pub fn count_buckets<T: TupleScan + ?Sized>(
    rel: &T,
    spec: &BucketSpec,
    what: &CountSpec,
) -> Result<BucketCounts> {
    count_buckets_range(rel, spec, what, 0..rel.len())
}

/// Runs the counting scan over a row range — the per-worker unit of
/// Algorithm 3.2.
///
/// When the storage exposes a columnar capability
/// ([`TupleScan::as_columnar`]), the scan runs through the compiled
/// columnar kernels (zone-map block skipping, grid-probed bucket
/// assignment, word-wise Boolean popcounts — see the `kernel` module
/// docs) and produces **bit-identical** counts to this visitor
/// path; otherwise it falls back to the generic row visitor below, so
/// any `TupleScan` keeps working.
///
/// # Errors
///
/// Propagates storage errors.
pub fn count_buckets_range<T: TupleScan + ?Sized>(
    rel: &T,
    spec: &BucketSpec,
    what: &CountSpec,
    rows: Range<u64>,
) -> Result<BucketCounts> {
    let mut counts = BucketCounts::zeroed(
        spec.bucket_count(),
        what.bool_targets.len(),
        what.sum_targets.len(),
    );
    if let Some(cols) = rel.as_columnar() {
        crate::kernel::count_columnar(cols, spec, what, rows, &mut counts)?;
        return Ok(counts);
    }
    rel.for_each_row_in(rows, &mut |_, nums, bools| {
        counts.total_rows += 1;
        if !what.presumptive.eval(nums, bools) {
            return;
        }
        let x = nums[what.attr.0];
        debug_assert!(
            x.is_finite(),
            "non-finite value {x} reached the counting scan: ingest validation \
             rejects NaN/inf, so a leak means a new unvalidated edge"
        );
        let b = spec.bucket_of(x);
        counts.u[b] += 1;
        let r = &mut counts.ranges[b];
        r.0 = r.0.min(x);
        r.1 = r.1.max(x);
        for (series, target) in counts.bool_v.iter_mut().zip(&what.bool_targets) {
            if target.eval(nums, bools) {
                series[b] += 1;
            }
        }
        for (series, &target) in counts.sums.iter_mut().zip(&what.sum_targets) {
            series[b] += nums[target.0];
        }
    })?;
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_relation::{BoolAttr, Relation, Schema};

    /// 12 rows: X = 0..12, C true on even X, Y = 10·X.
    fn rel() -> Relation {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("C")
            .build();
        let mut rel = Relation::new(schema);
        for i in 0..12 {
            rel.push_row(&[i as f64, 10.0 * i as f64], &[i % 2 == 0])
                .unwrap();
        }
        rel
    }

    fn spec3() -> BucketSpec {
        // Buckets: (−∞,3], (3,7], (7,∞) → sizes 4, 4, 4.
        BucketSpec::from_cuts(vec![3.0, 7.0])
    }

    #[test]
    fn u_counts_and_total() {
        let r = rel();
        let what = CountSpec::simple(NumAttr(0), Condition::BoolIs(BoolAttr(0), true));
        let c = count_buckets(&r, &spec3(), &what).unwrap();
        assert_eq!(c.u, vec![4, 4, 4]);
        assert_eq!(c.total_rows, 12);
        assert_eq!(c.counted(), 12);
    }

    #[test]
    fn v_counts_per_target() {
        let r = rel();
        let what = CountSpec {
            attr: NumAttr(0),
            presumptive: Condition::True,
            bool_targets: vec![
                Condition::BoolIs(BoolAttr(0), true),
                Condition::BoolIs(BoolAttr(0), false),
            ],
            sum_targets: vec![],
        };
        let c = count_buckets(&r, &spec3(), &what).unwrap();
        // Evens per bucket: {0,2} in [0..3], {4,6} in (3..7], {8,10} in (7..).
        assert_eq!(c.bool_v[0], vec![2, 2, 2]);
        assert_eq!(c.bool_v[1], vec![2, 2, 2]);
    }

    #[test]
    fn presumptive_filter_restricts_u_and_v() {
        let r = rel();
        let what = CountSpec {
            attr: NumAttr(0),
            presumptive: Condition::BoolIs(BoolAttr(0), true), // evens only
            bool_targets: vec![Condition::NumInRange(NumAttr(1), 0.0, 45.0)],
            sum_targets: vec![],
        };
        let c = count_buckets(&r, &spec3(), &what).unwrap();
        assert_eq!(c.u, vec![2, 2, 2]);
        // Y ≤ 45 ⇔ X ≤ 4.5 ⇒ evens 0,2,4.
        assert_eq!(c.bool_v[0], vec![2, 1, 0]);
        // total_rows still counts every scanned row.
        assert_eq!(c.total_rows, 12);
        assert_eq!(c.counted(), 6);
    }

    #[test]
    fn sums_accumulate() {
        let r = rel();
        let what = CountSpec::averaging(NumAttr(0), NumAttr(1));
        let c = count_buckets(&r, &spec3(), &what).unwrap();
        // Y sums: (0+10+20+30), (40+..+70), (80+..+110).
        assert_eq!(c.sums[0], vec![60.0, 220.0, 380.0]);
    }

    #[test]
    fn observed_ranges() {
        let r = rel();
        let what = CountSpec::simple(NumAttr(0), Condition::True);
        let c = count_buckets(&r, &spec3(), &what).unwrap();
        assert_eq!(c.ranges, vec![(0.0, 3.0), (4.0, 7.0), (8.0, 11.0)]);
    }

    #[test]
    fn range_scan_partitions_merge_to_full() {
        let r = rel();
        let what = CountSpec::simple(NumAttr(0), Condition::BoolIs(BoolAttr(0), true));
        let full = count_buckets(&r, &spec3(), &what).unwrap();
        let mut merged = count_buckets_range(&r, &spec3(), &what, 0..5).unwrap();
        let part2 = count_buckets_range(&r, &spec3(), &what, 5..12).unwrap();
        merged.merge(&part2);
        assert_eq!(merged, full);
    }

    #[test]
    fn empty_bucket_stays_zero() {
        let r = rel();
        // A cut far right leaves the last bucket empty.
        let spec = BucketSpec::from_cuts(vec![100.0]);
        let what = CountSpec::simple(NumAttr(0), Condition::True);
        let c = count_buckets(&r, &spec, &what).unwrap();
        assert_eq!(c.u, vec![12, 0]);
        assert_eq!(c.ranges[1], (f64::INFINITY, f64::NEG_INFINITY));
        let (kept, cc) = c.compact();
        assert_eq!(kept, vec![0]);
        assert_eq!(cc.u, vec![12]);
    }
}
