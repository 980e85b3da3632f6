//! Random sampling of one numeric column (Algorithm 3.1, step 1).
//!
//! The paper's analysis (Section 3.2) assumes each sample point is drawn
//! "independently and uniformly at random **with replacement** from the
//! original data" — that is what makes the bucket-size deviation exactly
//! `Binomial(S, 1/M)`. With-replacement sampling needs random access;
//! for purely sequential sources this module also provides single-pass
//! reservoir sampling (Vitter's Algorithm R), whose without-replacement
//! statistics are indistinguishable in the `S ≪ N` regime the system
//! operates in.

use crate::error::{BucketingError, Result};
use optrules_relation::{NumAttr, RandomAccess, TupleScan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The row indices that [`sample_with_replacement`] visits, in draw
/// order: `s` draws from `0..n`, deterministic in `seed`.
///
/// Exposed so a distributed caller can reproduce the exact sampling
/// stream of a single-node engine — generate the indices centrally,
/// fetch the values wherever the rows live, and feed them to
/// [`cuts_from_sample`](crate::cuts_from_sample) in this order.
///
/// # Panics
///
/// Panics if `n == 0`; callers must reject an empty relation first
/// (as [`sample_with_replacement`] does).
pub fn sample_indices(n: u64, s: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..s).map(|_| rng.gen_range(0..n)).collect()
}

/// Draws `s` values of `attr` uniformly with replacement, fetched in
/// one batch so storage can coalesce the reads (the sample stays in
/// draw order).
///
/// # Errors
///
/// Fails on an empty relation or on storage errors.
pub fn sample_with_replacement<R: RandomAccess + ?Sized>(
    rel: &R,
    attr: NumAttr,
    s: u64,
    seed: u64,
) -> Result<Vec<f64>> {
    let n = rel.len();
    if n == 0 {
        return Err(BucketingError::EmptyRelation);
    }
    let rows = sample_indices(n, s, seed);
    let mut out = vec![0.0; rows.len()];
    rel.numeric_at_many(attr, &rows, &mut out)?;
    Ok(out)
}

/// Draws a without-replacement sample of up to `s` values in one
/// sequential pass (reservoir sampling). Returns all values if the
/// relation has fewer than `s` rows.
///
/// # Errors
///
/// Fails on an empty relation or on storage errors.
pub fn reservoir_sample<T: TupleScan + ?Sized>(
    rel: &T,
    attr: NumAttr,
    s: u64,
    seed: u64,
) -> Result<Vec<f64>> {
    if rel.len() == 0 {
        return Err(BucketingError::EmptyRelation);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let s = s as usize;
    let mut reservoir: Vec<f64> = Vec::with_capacity(s);
    rel.for_each_row(&mut |row, nums, _| {
        let x = nums[attr.0];
        if reservoir.len() < s {
            reservoir.push(x);
        } else {
            let j = rng.gen_range(0..=row);
            if (j as usize) < s {
                reservoir[j as usize] = x;
            }
        }
    })?;
    Ok(reservoir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_relation::{Relation, Schema};

    fn ramp(n: u64) -> Relation {
        let schema = Schema::builder().numeric("X").build();
        let mut rel = Relation::new(schema);
        for i in 0..n {
            rel.push_row(&[i as f64], &[]).unwrap();
        }
        rel
    }

    #[test]
    fn with_replacement_size_and_range() {
        let rel = ramp(100);
        let sample = sample_with_replacement(&rel, NumAttr(0), 500, 1).unwrap();
        assert_eq!(sample.len(), 500);
        assert!(sample.iter().all(|&x| (0.0..100.0).contains(&x)));
        // With replacement over 100 rows, 500 draws must repeat values.
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert!(sorted.len() < 500);
    }

    #[test]
    fn with_replacement_deterministic_in_seed() {
        let rel = ramp(50);
        let a = sample_with_replacement(&rel, NumAttr(0), 100, 7).unwrap();
        let b = sample_with_replacement(&rel, NumAttr(0), 100, 7).unwrap();
        let c = sample_with_replacement(&rel, NumAttr(0), 100, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn indices_match_value_sampling() {
        let rel = ramp(64);
        let values = sample_with_replacement(&rel, NumAttr(0), 200, 11).unwrap();
        let indices = sample_indices(64, 200, 11);
        assert_eq!(indices.len(), 200);
        let via_indices: Vec<f64> = indices.iter().map(|&i| i as f64).collect();
        assert_eq!(values, via_indices);
    }

    #[test]
    fn reservoir_small_relation_returns_all() {
        let rel = ramp(10);
        let mut sample = reservoir_sample(&rel, NumAttr(0), 100, 3).unwrap();
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sample, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_unbiased_mean() {
        // Mean of a reservoir sample over a ramp should be near the
        // population mean.
        let rel = ramp(10_000);
        let sample = reservoir_sample(&rel, NumAttr(0), 2000, 5).unwrap();
        assert_eq!(sample.len(), 2000);
        let mean = sample.iter().sum::<f64>() / sample.len() as f64;
        assert!((mean - 4999.5).abs() < 250.0, "mean {mean}");
    }

    #[test]
    fn empty_relation_rejected() {
        let rel = ramp(0);
        assert!(matches!(
            sample_with_replacement(&rel, NumAttr(0), 10, 1),
            Err(BucketingError::EmptyRelation)
        ));
        assert!(matches!(
            reservoir_sample(&rel, NumAttr(0), 10, 1),
            Err(BucketingError::EmptyRelation)
        ));
    }
}
