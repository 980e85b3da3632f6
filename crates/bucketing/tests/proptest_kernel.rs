//! The kernel ≡ visitor equivalence property: for any relation
//! content, storage layout (fresh in-memory, chunked segments, durable
//! spilled base + tail), bucket spec, scan subrange, and counting spec
//! (presumptive filters, Boolean targets, numeric sums), the columnar
//! kernels must reproduce the generic row-visitor scan **bit for
//! bit** — identical integer counts and identical IEEE-754 bytes in
//! every sum and observed range, at any thread count.
//!
//! The oracle is [`VisitorOnly`], a wrapper that forwards `TupleScan`
//! but deliberately keeps the default `as_columnar() == None`, forcing
//! `count_buckets_range` down the row-visitor fallback.
//!
//! The generators aim at what the mask-compiled loop could get wrong:
//! several targets at once, each a conjunction mixing `BoolIs(_,
//! false)`, `NumEq` and `NumInRange`; a presumptive filter together
//! with sum targets; blocks and mask chunks whose row count is not a
//! multiple of 64 and scans of three blocks and more; segments
//! confined to one bucket between segments that spread; and columns
//! holding both `0.0` and `-0.0`, whose min/max ties and sums show in
//! the bits.

use optrules_bucketing::assign::count_buckets_range;
use optrules_bucketing::{count_buckets_parallel, BucketCounts, BucketSpec, CountSpec};
use optrules_relation::{
    AppendRows, BoolAttr, ChunkedRelation, Condition, DurabilityConfig, DurableRelation,
    FileRelationWriter, NumAttr, Relation, RowFrame, Schema, TupleScan, WalSync,
};
use proptest::prelude::*;
use std::ops::Range;

/// Forwards `TupleScan` but hides any columnar capability, so the scan
/// takes the row-visitor path even over columnar storage.
struct VisitorOnly<'a, T: TupleScan + ?Sized>(&'a T);

impl<T: TupleScan + ?Sized> TupleScan for VisitorOnly<'_, T> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn for_each_row_in(
        &self,
        range: Range<u64>,
        f: optrules_relation::scan::RowVisitor<'_>,
    ) -> optrules_relation::error::Result<()> {
        self.0.for_each_row_in(range, f)
    }
    // No as_columnar override: the default None is the whole point.
}

/// Bit-exact comparison: `==` would pass `-0.0 == 0.0` in sums and
/// ranges, which is precisely the kind of drift the kernels must not
/// introduce.
fn assert_bit_identical(kernel: &BucketCounts, visitor: &BucketCounts) {
    assert_eq!(kernel.total_rows, visitor.total_rows);
    assert_eq!(kernel.u, visitor.u);
    assert_eq!(kernel.bool_v, visitor.bool_v);
    assert_eq!(kernel.sums.len(), visitor.sums.len());
    for (ks, vs) in kernel.sums.iter().zip(&visitor.sums) {
        let kb: Vec<u64> = ks.iter().map(|x| x.to_bits()).collect();
        let vb: Vec<u64> = vs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(kb, vb, "sum series differ in bits: {ks:?} vs {vs:?}");
    }
    let kr: Vec<(u64, u64)> = kernel
        .ranges
        .iter()
        .map(|r| (r.0.to_bits(), r.1.to_bits()))
        .collect();
    let vr: Vec<(u64, u64)> = visitor
        .ranges
        .iter()
        .map(|r| (r.0.to_bits(), r.1.to_bits()))
        .collect();
    assert_eq!(
        kr, vr,
        "observed ranges differ in bits: {:?} vs {:?}",
        kernel.ranges, visitor.ranges
    );
}

/// Kernel vs visitor over `rel[range]`, plus the parallel driver at
/// several thread counts (each worker range must be bit-identical, so
/// the deterministic merge must be too).
fn check_equivalence<T: TupleScan + ?Sized>(
    rel: &T,
    spec: &BucketSpec,
    what: &CountSpec,
    range: Range<u64>,
) {
    assert!(
        rel.as_columnar().is_some(),
        "layout under test lost its columnar capability"
    );
    let kernel = count_buckets_range(rel, spec, what, range.clone()).unwrap();
    let visitor = count_buckets_range(&VisitorOnly(rel), spec, what, range).unwrap();
    assert_bit_identical(&kernel, &visitor);
    for threads in [2, 5] {
        let kernel_par = count_buckets_parallel(rel, spec, what, threads).unwrap();
        let visitor_par = count_buckets_parallel(&VisitorOnly(rel), spec, what, threads).unwrap();
        assert_bit_identical(&kernel_par, &visitor_par);
    }
}

/// Raw material for one condition: (kind, attr index, bool polarity,
/// range low, range width). Built into a [`Condition`] against the
/// actual schema arity by [`build_cond`].
type CondSeed = (u8, usize, bool, f64, f64);

fn build_cond(seed: &CondSeed, n_num: usize, n_bool: usize) -> Condition {
    let &(kind, idx, want, lo, width) = seed;
    match kind % 5 {
        0 => Condition::True,
        1 if n_bool > 0 => Condition::BoolIs(BoolAttr(idx % n_bool), want),
        2 => Condition::NumInRange(NumAttr(idx % n_num), lo, lo + width),
        // A range far outside the data lattice: zone rejection must
        // fire and must agree with the visitor (which counts nothing).
        3 => Condition::NumInRange(NumAttr(idx % n_num), 1e6, 2e6),
        // Exact equality on a lattice point — collisions do happen.
        _ => Condition::NumEq(NumAttr(idx % n_num), (lo * 4.0).round() * 0.25),
    }
}

/// The conjunction of `seeds`, in order (`True` when there are none).
fn build_conjunction(seeds: &[CondSeed], n_num: usize, n_bool: usize) -> Condition {
    let mut cond = Condition::True;
    for seed in seeds {
        cond = cond.and(build_cond(seed, n_num, n_bool));
    }
    cond
}

fn build_spec(
    n_num: usize,
    n_bool: usize,
    presumptive: &[CondSeed],
    bool_targets: &[Vec<CondSeed>],
    sum_targets: &[usize],
) -> CountSpec {
    CountSpec {
        attr: NumAttr(0),
        presumptive: build_conjunction(presumptive, n_num, n_bool),
        bool_targets: bool_targets
            .iter()
            .map(|seeds| build_conjunction(seeds, n_num, n_bool))
            .collect(),
        sum_targets: sum_targets.iter().map(|&i| NumAttr(i % n_num)).collect(),
    }
}

/// Values live on a narrow lattice (multiples of 0.25 in [-64, 64]) so
/// duplicates, cut collisions, and zone overlaps all actually happen,
/// and every value is exactly representable. One value in four is a
/// zero of either sign: `0.0 == -0.0` in every comparison the scan
/// makes, yet the two differ in bits, so a min/max tie broken the
/// other way or a re-associated sum would show.
fn lattice() -> impl Strategy<Value = f64> {
    (0u8..8, -256i32..=256).prop_map(|(kind, q)| match kind {
        0 => 0.0,
        1 => -0.0,
        _ => q as f64 * 0.25,
    })
}

/// Rows at the maximum arity (3 numeric, 2 Boolean); the tests
/// truncate to the drawn schema arity.
fn arb_rows() -> impl Strategy<Value = Vec<(Vec<f64>, Vec<bool>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(lattice(), 3),
            prop::collection::vec(any::<bool>(), 2),
        ),
        0..200,
    )
}

/// A batch of rows that is either spread over the lattice or, when
/// `narrow`, confined to one value of the bucketed attribute — a
/// segment whose zone map lands in a single bucket, so single-bucket
/// blocks come up between spread ones.
fn arb_batch() -> impl Strategy<Value = Vec<(Vec<f64>, Vec<bool>)>> {
    (arb_rows(), any::<bool>()).prop_map(|(mut rows, narrow)| {
        if narrow {
            if let Some(x) = rows.first().map(|(nums, _)| nums[0]) {
                for (nums, _) in &mut rows {
                    nums[0] = x;
                }
            }
        }
        rows
    })
}

/// Several Boolean targets, each a conjunction of up to three tests.
fn arb_targets() -> impl Strategy<Value = Vec<Vec<CondSeed>>> {
    prop::collection::vec(cond_seeds(), 0..4)
}

/// Cut points widened past the data lattice so some cuts fall outside
/// the data (empty buckets, single-bucket zone hits), plus an optional
/// extreme cut that forces the kernel's bucket-index grid to disable
/// itself (overflowing span).
fn arb_cuts() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec((-512i32..=512).prop_map(|q| q as f64 * 0.25), 0..24),
        prop::option::of(prop_oneof![Just(f64::MAX), Just(-f64::MAX), Just(1e18)]),
    )
        .prop_map(|(mut cuts, extreme)| {
            cuts.extend(extreme);
            cuts
        })
}

fn cond_seeds() -> impl Strategy<Value = Vec<CondSeed>> {
    prop::collection::vec(
        (
            0u8..5,
            0usize..8,
            any::<bool>(),
            -64.0f64..64.0,
            0.0f64..64.0,
        ),
        0..3,
    )
}

fn schema(n_num: usize, n_bool: usize) -> Schema {
    let mut b = Schema::builder();
    for i in 0..n_num {
        b = b.numeric(format!("N{i}"));
    }
    for i in 0..n_bool {
        b = b.boolean(format!("B{i}"));
    }
    b.build()
}

fn memory_relation(s: &Schema, rows: &[(Vec<f64>, Vec<bool>)]) -> Relation {
    let n_num = s.numeric_count();
    let n_bool = s.boolean_count();
    let mut rel = Relation::new(s.clone());
    for (nums, bools) in rows {
        rel.push_row(&nums[..n_num], &bools[..n_bool]).unwrap();
    }
    rel
}

fn frames(rows: &[(Vec<f64>, Vec<bool>)], n_num: usize, n_bool: usize) -> Vec<RowFrame> {
    rows.iter()
        .map(|(n, b)| RowFrame {
            numeric: n[..n_num].to_vec(),
            boolean: b[..n_bool].to_vec(),
        })
        .collect()
}

static DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The debug run keeps `debug_assert!`s on; the release run (CI's
/// `cargo test --release`) exercises the vectorized loops at 4× the
/// cases.
const RELEASE_FACTOR: u32 = if cfg!(debug_assertions) { 1 } else { 4 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96 * RELEASE_FACTOR))]

    /// In-memory relations: one block, whole-relation zones.
    #[test]
    fn kernel_matches_visitor_on_memory(
        n_num in 1usize..4,
        n_bool in 1usize..3,
        rows in arb_rows(),
        cuts in arb_cuts(),
        presumptive in cond_seeds(),
        bool_targets in arb_targets(),
        sum_targets in prop::collection::vec(0usize..8, 0..3),
        lo in 0u64..250,
        hi in 0u64..250,
    ) {
        let rel = memory_relation(&schema(n_num, n_bool), &rows);
        let spec = BucketSpec::from_cuts(cuts);
        let what = build_spec(n_num, n_bool, &presumptive, &bool_targets, &sum_targets);
        check_equivalence(&rel, &spec, &what, lo.min(hi)..lo.max(hi));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64 * RELEASE_FACTOR))]

    /// Chunked relations: a base plus several appended segments, each
    /// with its own zone maps; block rebasing across segment seams.
    #[test]
    fn kernel_matches_visitor_on_chunked(
        n_num in 1usize..4,
        n_bool in 1usize..3,
        base_rows in arb_rows(),
        batches in prop::collection::vec(arb_batch(), 1..5),
        cuts in arb_cuts(),
        presumptive in cond_seeds(),
        bool_targets in arb_targets(),
        sum_targets in prop::collection::vec(0usize..8, 0..3),
        lo in 0u64..600,
        hi in 0u64..600,
    ) {
        let s = schema(n_num, n_bool);
        let mut rel = ChunkedRelation::new(memory_relation(&s, &base_rows));
        for batch in &batches {
            if !batch.is_empty() {
                rel = rel.with_rows(&frames(batch, n_num, n_bool)).unwrap();
            }
        }
        let spec = BucketSpec::from_cuts(cuts);
        let what = build_spec(n_num, n_bool, &presumptive, &bool_targets, &sum_targets);
        check_equivalence(&rel, &spec, &what, lo.min(hi)..lo.max(hi));
    }

    /// Durable relations: spilled on-disk segments stacked as base parts
    /// under a live tail, scanned through the durable → chunked
    /// columnar plumbing, one rebase per part.
    #[test]
    fn kernel_matches_visitor_on_durable(
        base_rows in arb_rows(),
        batches in prop::collection::vec(arb_batch(), 1..4),
        spill_rows in 4u64..40,
        cuts in arb_cuts(),
        presumptive in cond_seeds(),
        bool_targets in arb_targets(),
        sum_targets in prop::collection::vec(0usize..8, 0..3),
        lo in 0u64..600,
        hi in 0u64..600,
    ) {
        let (n_num, n_bool) = (2, 1);
        let s = schema(n_num, n_bool);
        let dir = std::env::temp_dir().join(format!(
            "optrules-prop-kernel-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.rel");
        let mut w = FileRelationWriter::create(&base, s).unwrap();
        for (nums, bools) in &base_rows {
            w.push_row(&nums[..n_num], &bools[..n_bool]).unwrap();
        }
        w.finish().unwrap();
        let config = DurabilityConfig { spill_rows, sync: WalSync::Off };
        let mut rel = DurableRelation::open(&base, dir.join("data"), config)
            .unwrap()
            .relation;
        for batch in &batches {
            if !batch.is_empty() {
                rel = rel.with_rows(&frames(batch, n_num, n_bool)).unwrap();
            }
        }
        let spec = BucketSpec::from_cuts(cuts);
        let what = build_spec(n_num, n_bool, &presumptive, &bool_targets, &sum_targets);
        check_equivalence(&rel, &spec, &what, lo.min(hi)..lo.max(hi));
        drop(rel);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `rows` pseudo-random rows from `seed`: the bucketed attribute runs
/// in stretches of a few thousand rows that are alternately spread and
/// confined to one value, the other cells are lattice values and coin
/// flips with zeros of both signs mixed in.
fn big_rows(seed: u64, rows: usize) -> Vec<(Vec<f64>, Vec<bool>)> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let lattice = |r: u64| match r % 8 {
        0 => 0.0,
        1 => -0.0,
        _ => ((r >> 8) % 513) as f64 * 0.25 - 64.0,
    };
    (0..rows)
        .map(|i| {
            let stretch = i / 3000;
            let x = if stretch % 2 == 1 {
                stretch as f64
            } else {
                lattice(next())
            };
            let (r, b) = (next(), next());
            (
                vec![x, lattice(r), lattice(r >> 24)],
                vec![b & 1 == 1, b & 2 == 2],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6 * RELEASE_FACTOR))]

    /// Scans of three blocks and more, none a multiple of 64 rows: one
    /// in-memory block walked in several mask chunks, and a file-backed
    /// base of several decoded blocks under an appended tail.
    #[test]
    fn kernel_matches_visitor_across_many_blocks(
        seed in any::<u64>(),
        rows in 16_500usize..20_000,
        tail in 1usize..300,
        cuts in arb_cuts(),
        presumptive in cond_seeds(),
        bool_targets in arb_targets(),
        sum_targets in prop::collection::vec(0usize..8, 0..3),
        lo in 0u64..9_000,
    ) {
        let (n_num, n_bool) = (3, 2);
        let s = schema(n_num, n_bool);
        let data = big_rows(seed, rows + tail);
        let spec = BucketSpec::from_cuts(cuts);
        let what = build_spec(n_num, n_bool, &presumptive, &bool_targets, &sum_targets);
        let range = lo..(rows + tail) as u64 - 1;

        let memory = memory_relation(&s, &data);
        check_equivalence(&memory, &spec, &what, range.clone());

        let dir = std::env::temp_dir().join(format!(
            "optrules-prop-kernel-big-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = FileRelationWriter::create(dir.join("base.rel"), s).unwrap();
        for (nums, bools) in &data[..rows] {
            w.push_row(nums, bools).unwrap();
        }
        let chunked = ChunkedRelation::new(w.finish().unwrap())
            .with_rows(&frames(&data[rows..], n_num, n_bool))
            .unwrap();
        check_equivalence(&chunked, &spec, &what, range);
        drop(chunked);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
