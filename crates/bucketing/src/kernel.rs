//! Columnar counting kernels: the fast path of the counting scan
//! (Algorithm 3.1 step 4) over storage that exposes
//! [`ColumnarScan`] blocks.
//!
//! The row-visitor path pays per row: scratch-buffer copies, a dyn
//! closure call, a `Condition` tree walk, and an O(log M) binary
//! search. The kernel removes all four, and tells storage what it will
//! read:
//!
//! * the scan pushes its **projection** down — the bucketed attribute,
//!   the columns its compiled tests name, the sum columns — so a store
//!   that decodes (the file-backed one) decodes nothing else;
//! * conditions are **compiled** once into flat [`ColTest`] lists over
//!   column ids, and each list is evaluated **column-wise** into a bit
//!   mask over `MASK_CHUNK_ROWS` rows at a time: branch-free compare
//!   loops over `&[f64]` slices, word ops on repacked Boolean columns.
//!   No condition is evaluated per row;
//! * block **zone maps** prove whole blocks irrelevant to a compiled
//!   range test (skipped entirely) or confined to a **single bucket**
//!   (counted with one add, a slice min/max sweep, and popcounts of
//!   the target masks);
//! * bucket assignment replaces the full binary search with a
//!   [`CutIndex`] grid probe that starts at the first cut of the
//!   value's grid cell and usually decides in a single comparison;
//! * the row loop walks the set bits of the presumptive mask (all rows
//!   when there is no filter) and does one probe and one update of a
//!   **packed per-bucket entry** `[rows, min, max, hits…, sums…]` — one
//!   cache line per row — folded into [`BucketCounts`] once at the end.
//!
//! Every path is **bit-identical** to the visitor: the same bucket
//! function (proved below for [`CutIndex`]), the same evaluation
//! semantics ([`ColTest`] mirrors [`Condition::eval`] exactly), and
//! the same float accumulation order (sums and observed ranges are
//! folded sequentially in row order, with the identical operation
//! pairing — IEEE-754 addition is not associative, so order is part of
//! the contract). The equivalence proptest in
//! `tests/proptest_kernel.rs` pins this down across storage layouts.
//!
//! [`Condition::eval`]: optrules_relation::Condition::eval

use crate::assign::CountSpec;
use crate::bucket::{BucketCounts, BucketSpec};
use optrules_relation::columnar::{ColumnBlock, ColumnarScan, Projection};
use optrules_relation::error::Result;
use optrules_relation::Condition;
use std::ops::Range;

/// One primitive test compiled down to a column id — the flat form of
/// a [`Condition`] conjunction. Evaluation must match
/// [`Condition::eval`] exactly (same comparisons, same order).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ColTest {
    /// `bools[col] == want`.
    BoolIs(usize, bool),
    /// `nums[col] == v`.
    NumEq(usize, f64),
    /// `lo <= nums[col] && nums[col] <= hi`.
    NumInRange(usize, f64, f64),
}

/// Flattens a [`Condition`] into primitive tests. Total: `True`
/// compiles to the empty list (vacuously true) and `And` flattens in
/// order, so every condition the crate can express has a compiled
/// form.
fn compile(cond: &Condition) -> Vec<ColTest> {
    fn go(c: &Condition, out: &mut Vec<ColTest>) {
        match c {
            Condition::True => {}
            Condition::BoolIs(attr, want) => out.push(ColTest::BoolIs(attr.0, *want)),
            Condition::NumEq(attr, v) => out.push(ColTest::NumEq(attr.0, *v)),
            Condition::NumInRange(attr, lo, hi) => {
                out.push(ColTest::NumInRange(attr.0, *lo, *hi));
            }
            Condition::And(parts) => {
                for p in parts {
                    go(p, out);
                }
            }
        }
    }
    let mut tests = Vec::new();
    go(cond, &mut tests);
    tests
}

/// Rows a compiled conjunction is masked over at once: a large block
/// (an in-memory relation hands out one block for the whole range) is
/// walked in chunks of this many rows, so a mask is 64 words and all
/// of a scan's masks stay in L1 whatever the block size.
const MASK_CHUNK_ROWS: usize = 4096;

/// Splits `0..rows` into the consecutive chunks (4096 rows, the last
/// one shorter) that a [`RowMask`] is filled over.
pub fn mask_chunks(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows)
        .step_by(MASK_CHUNK_ROWS)
        .map(move |lo| lo..rows.min(lo + MASK_CHUNK_ROWS))
}

/// Adds the columns `tests` read to `cols`.
fn project(tests: &[ColTest], cols: &mut Projection) {
    for t in tests {
        match *t {
            ColTest::BoolIs(col, _) => cols.add_boolean(col),
            ColTest::NumEq(col, ..) | ColTest::NumInRange(col, ..) => cols.add_numeric(col),
        }
    }
}

/// One mask word per 64 values: bit `j` is `test(xs[j])`. The inner
/// loop is a compare, a shift and an or — no branch on the data.
#[inline(always)]
fn compare_words<'a>(
    xs: &'a [f64],
    test: impl Fn(f64) -> bool + 'a,
) -> impl Iterator<Item = u64> + 'a {
    xs.chunks(64).map(move |group| {
        let mut word = 0u64;
        for (j, &x) in group.iter().enumerate() {
            word |= u64::from(test(x)) << j;
        }
        word
    })
}

/// Evaluates a compiled conjunction over `rows` of a block into a bit
/// mask, column by column: mask word `w` lands in `out[w * stride]`
/// (`stride > 1` interleaves several masks), bit `i` is exactly
/// [`Condition::eval`] on row `rows.start + i`, and the bits past the
/// last row are zero. The empty conjunction gives all ones. `repack`
/// is scratch for Boolean columns.
///
/// [`Condition::eval`]: optrules_relation::Condition::eval
fn mask_into(
    tests: &[ColTest],
    block: &ColumnBlock<'_>,
    rows: Range<usize>,
    out: &mut [u64],
    stride: usize,
    repack: &mut Vec<u64>,
) {
    let n = rows.len();
    let words = n.div_ceil(64);
    for (w, slot) in out.iter_mut().step_by(stride).take(words).enumerate() {
        let live = (n - w * 64).min(64);
        *slot = !0u64 >> (64 - live);
    }
    let mut and_in = |words: &mut dyn Iterator<Item = u64>| {
        for (slot, word) in out.iter_mut().step_by(stride).zip(words) {
            *slot &= word;
        }
    };
    for t in tests {
        match *t {
            ColTest::BoolIs(col, want) => {
                block.bits[col].subspan(rows.clone()).repack_into(repack);
                let flip = if want { 0 } else { !0u64 };
                and_in(&mut repack.iter().map(|&word| word ^ flip));
            }
            ColTest::NumEq(col, v) => {
                let xs = &block.numeric[col][rows.clone()];
                and_in(&mut compare_words(xs, |x| x == v));
            }
            ColTest::NumInRange(col, lo, hi) => {
                let xs = &block.numeric[col][rows.clone()];
                and_in(&mut compare_words(xs, |x| (lo <= x) & (x <= hi)));
            }
        }
    }
}

/// Whether the block's zone maps prove some test false for **every**
/// row — the whole-block skip. Zones are (possibly loose) bounds, so a
/// test whose accepted set misses `[min, max]` entirely cannot hold
/// anywhere in the block; Boolean tests have no zones and never
/// reject.
fn zone_rejects(tests: &[ColTest], zones: &[(f64, f64)]) -> bool {
    tests.iter().any(|t| match *t {
        ColTest::BoolIs(..) => false,
        ColTest::NumEq(col, v) => {
            let (mn, mx) = zones[col];
            v < mn || v > mx
        }
        ColTest::NumInRange(col, lo, hi) => {
            let (mn, mx) = zones[col];
            hi < mn || lo > mx
        }
    })
}

/// A [`Condition`] conjunction compiled to flat column tests — the
/// reusable face of the kernel's condition machinery, for other
/// columnar counting loops (the 2-D grid scan of `optrules-core`).
/// A [`RowMask`] evaluates it exactly as [`Condition::eval`] would, row
/// by row; block rejection uses the zone maps and is sound (it only
/// proves rows absent, never present).
#[derive(Debug, Clone)]
pub struct CompiledCond {
    tests: Vec<ColTest>,
}

impl CompiledCond {
    /// Compiles a condition; total for every condition shape.
    pub fn compile(cond: &Condition) -> Self {
        Self {
            tests: compile(cond),
        }
    }

    /// Adds the columns the condition reads to a scan's projection.
    pub fn project(&self, cols: &mut Projection) {
        project(&self.tests, cols);
    }

    /// Whether `zones` prove the condition false for every row of the
    /// block (the whole-block skip).
    pub fn rejects_block(&self, zones: &[(f64, f64)]) -> bool {
        zone_rejects(&self.tests, zones)
    }
}

/// A reusable bit mask of one [`CompiledCond`] over one chunk of a
/// block's rows (see [`mask_chunks`]).
#[derive(Debug, Default)]
pub struct RowMask {
    words: Vec<u64>,
    repack: Vec<u64>,
}

impl RowMask {
    /// Evaluates `cond` over `rows` of `block`, column by column: bit
    /// `i` of [`words`](Self::words) is [`Condition::eval`] on row
    /// `rows.start + i`; bits past the last row are zero.
    pub fn fill(&mut self, cond: &CompiledCond, block: &ColumnBlock<'_>, rows: Range<usize>) {
        self.words.clear();
        self.words.resize(rows.len().div_ceil(64), 0);
        mask_into(
            &cond.tests,
            block,
            rows,
            &mut self.words,
            1,
            &mut self.repack,
        );
    }

    /// The mask, 64 rows per word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Grid-accelerated bucket assignment, exactly equal to
/// `BucketSpec::bucket_of` (`cuts.partition_point(|&c| c < x)`).
///
/// A uniform grid over `[cuts[0], cuts[last]]` maps each value to a
/// cell; `starts[g]` counts the cuts falling in cells before `g`.
/// The cell map is `cell(x) = round((x - c0) * inv, clamped to
/// [0, cells - 1])`, computed by `cell_of` without a float→int cast.
/// Any cell map works as long as it is monotone non-decreasing in `x`
/// and the **same** map builds `starts` and probes — rounding versus
/// truncation is immaterial. This one is monotone: FP subtraction and
/// multiplication by a positive finite constant are monotone under
/// round-to-nearest, clamping is monotone, and so is rounding. By
/// monotonicity, every cut in a cell before `cell(x)` is `< x`. The
/// probe therefore starts at
/// `b = starts[cell(x)]` and walks forward while `cuts[b] < x`: the
/// walk stops at the first cut `>= x`, and since everything before the
/// starting point is already known to be `< x`, the stop position *is*
/// `partition_point(cuts, c < x)` — no upper bound per cell is needed,
/// and `starts[g + 1]` is never read on the hot path. With
/// `GRID_CELLS_PER_CUT` cells per cut the walk averages about one
/// comparison for the near-uniform cut spacing equi-depth bucketing
/// produces. The grid is disabled — falling back to the full binary
/// search, still exact — when there are few cuts or the cut span is
/// infinite or empty.
pub struct CutIndex<'a> {
    cuts: &'a [f64],
    grid: Option<Grid>,
}

struct Grid {
    c0: f64,
    inv: f64,
    /// `(cells - 1) as f64` — the clamp bound of the cell map.
    max_cell: f64,
    /// `starts[g]` = number of cuts in cells `< g`; `len = cells + 1`.
    starts: Vec<u32>,
}

/// 2⁵² + 2⁵¹: adding it to a `t` in `[0, 2²⁰]` lands every result in
/// one binade (ulp = 1.0), so the low mantissa bits of the sum are
/// exactly `round(t)` — an integer cell in three cheap ops (add, bit
/// move, mask) where a saturating `as usize` cast costs a convert plus
/// range fixups on the probe's critical path.
const CELL_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The grid cell map: `round((x - c0) * inv)` clamped to
/// `[0, max_cell]`. Monotone non-decreasing in `x` (see [`CutIndex`]);
/// the `max`/`min` pair also sends NaN to cell 0 rather than
/// propagating it into the bit trick (NaN cannot reach a scan through
/// the ingest guards, but a cell map that cannot index out of bounds
/// on any input costs nothing).
#[inline(always)]
fn cell_of(c0: f64, inv: f64, max_cell: f64, x: f64) -> usize {
    let t = ((x - c0) * inv).max(0.0).min(max_cell);
    ((t + CELL_MAGIC).to_bits() & 0x7FFF_FFFF) as usize
}

/// Cap on grid cells so degenerate cut sets (two far-apart clusters)
/// cannot allocate unbounded memory.
const MAX_GRID_CELLS: usize = 1 << 20;

/// Grid cells allocated per cut. Denser grids leave most cells with at
/// most one cut, so the probe's forward walk usually decides in a
/// single comparison; 32 measured fastest on the counting-scan
/// benchmark (the `starts` table stays ≤ 128 KiB up to M = 1000, and
/// [`MAX_GRID_CELLS`] bounds it beyond that).
const GRID_CELLS_PER_CUT: usize = 32;

impl<'a> CutIndex<'a> {
    /// Indexes `cuts` (ascending, as [`BucketSpec::cuts`] holds them).
    pub fn new(cuts: &'a [f64]) -> Self {
        let grid = (|| {
            if cuts.len() < 8 || cuts.len() > u32::MAX as usize {
                return None;
            }
            let c0 = cuts[0];
            let span = cuts[cuts.len() - 1] - c0;
            if !span.is_finite() || span <= 0.0 {
                return None;
            }
            let cells = (cuts.len() * GRID_CELLS_PER_CUT).min(MAX_GRID_CELLS);
            let inv = cells as f64 / span;
            if !inv.is_finite() || inv <= 0.0 {
                return None;
            }
            let max_cell = (cells - 1) as f64;
            let mut counts = vec![0u32; cells];
            for &c in cuts {
                counts[cell_of(c0, inv, max_cell, c)] += 1;
            }
            let mut starts = Vec::with_capacity(cells + 1);
            let mut acc = 0u32;
            starts.push(0);
            for n in counts {
                acc += n;
                starts.push(acc);
            }
            Some(Grid {
                c0,
                inv,
                max_cell,
                starts,
            })
        })();
        Self { cuts, grid }
    }

    /// The bucket of `x`: exactly `BucketSpec::bucket_of`.
    #[inline]
    pub fn bucket_of(&self, x: f64) -> usize {
        match &self.grid {
            Some(g) => grid_probe(g, self.cuts, x),
            None => self.cuts.partition_point(|&c| c < x),
        }
    }
}

/// The grid probe: walk forward from the first cut of `x`'s cell until
/// a cut `>= x` stops the walk. See [`CutIndex`] for why the stop
/// position equals the global `partition_point` with no upper bound.
#[inline(always)]
fn grid_probe(g: &Grid, cuts: &[f64], x: f64) -> usize {
    let mut b = g.starts[cell_of(g.c0, g.inv, g.max_cell, x)] as usize;
    while b < cuts.len() && cuts[b] < x {
        b += 1;
    }
    b
}

/// Runs the counting scan over columnar storage, accumulating into
/// `counts` (fresh from [`BucketCounts::zeroed`]) — the kernel behind
/// `count_buckets_range` when `TupleScan::as_columnar` reports the
/// capability. Bit-identical to the visitor path (see the module
/// docs).
///
/// # Errors
///
/// Propagates storage errors from the block scan.
pub(crate) fn count_columnar(
    cols: &dyn ColumnarScan,
    spec: &BucketSpec,
    what: &CountSpec,
    rows: Range<u64>,
    counts: &mut BucketCounts,
) -> Result<()> {
    let presumptive = compile(&what.presumptive);
    let targets: Vec<Vec<ColTest>> = what.bool_targets.iter().map(compile).collect();
    let sum_cols: Vec<usize> = what.sum_targets.iter().map(|a| a.0).collect();
    let index = CutIndex::new(spec.cuts());
    let attr = what.attr.0;
    let mut projection = Projection::none();
    projection.add_numeric(attr);
    for tests in std::iter::once(&presumptive).chain(&targets) {
        project(tests, &mut projection);
    }
    for &col in &sum_cols {
        projection.add_numeric(col);
    }
    // The canonical `CountSpec::simple` shape — no filter, one `BoolIs`
    // target, no sums — gets a dedicated loop with no masks at all.
    let canonical: Option<(usize, bool)> =
        if presumptive.is_empty() && sum_cols.is_empty() && targets.len() == 1 {
            match targets[0][..] {
                [ColTest::BoolIs(col, want)] => Some((col, want)),
                _ => None,
            }
        } else {
            None
        };
    // Both loops accumulate per-bucket row count, target hits and the
    // observed-range fold in one packed entry, folded into `counts`
    // once after the scan — a single random cache line per row instead
    // of one per series. Byte-identity holds: the integer adds commute
    // exactly, and because *every* update of a scan goes through the
    // scratch, it carries the one continuous row-order min/max fold
    // from `(∞, −∞)` and the one row-order sum chain from `0.0` — the
    // identical op pairing as the visitor — and the final merge into
    // the still-pristine entries of the fresh `counts` is exact
    // (min/max against an infinity never ties, so it returns the other
    // operand bit-for-bit; the sums are assigned).
    // Only the loop that runs gets entries; the other scratch is empty.
    let (canonical_buckets, masked_buckets) = match canonical {
        Some(_) => (counts.u.len(), 0),
        None => (0, counts.u.len()),
    };
    let mut acc = vec![BucketAcc::EMPTY; canonical_buckets];
    let mut word_buf: Vec<u64> = Vec::new();
    let mut masked = MaskedScan::new(&presumptive, &targets, &sum_cols, masked_buckets);
    cols.for_each_block_projected(rows, &projection, &mut |block| {
        counts.total_rows += block.rows as u64;
        if zone_rejects(&presumptive, &block.zones) {
            // Every row fails the presumptive filter: only the row
            // total moves, exactly as the visitor would.
            return;
        }
        let xs = block.numeric[attr];
        // bucket_of is monotone, so zone bounds confined to one bucket
        // confine every row to it.
        let single = if presumptive.is_empty() {
            let (zmin, zmax) = block.zones[attr];
            let (blo, bhi) = (index.bucket_of(zmin), index.bucket_of(zmax));
            (blo == bhi).then_some(blo)
        } else {
            None
        };
        let Some((col, want)) = canonical else {
            masked.block(block, xs, &index, single);
            return;
        };
        match single {
            Some(b) => {
                // Keep the popcount shortcut but route the updates
                // through the scratch so the range fold stays one
                // unbroken row-order chain.
                let e = &mut acc[b];
                e.rows += block.rows as u64;
                let ones = block.bits[col].count_ones() as u64;
                e.hits += if want { ones } else { block.rows as u64 - ones };
                for &x in xs {
                    debug_assert!(
                        x.is_finite(),
                        "non-finite value {x} reached the counting scan"
                    );
                    e.min = e.min.min(x);
                    e.max = e.max.max(x);
                }
            }
            None => {
                block.bits[col].repack_into(&mut word_buf);
                canonical_block(xs, &word_buf, want, &index, &mut acc);
            }
        }
    })?;
    for (b, e) in acc.iter().enumerate() {
        counts.u[b] += e.rows;
        counts.bool_v[0][b] += e.hits;
        let r = &mut counts.ranges[b];
        r.0 = r.0.min(e.min);
        r.1 = r.1.max(e.max);
    }
    masked.acc.fold_into(counts);
    Ok(())
}

/// Per-bucket scratch entry of the canonical loop: row count, target
/// hits, and the running observed-range fold, packed so each row's
/// three updates land on one cache line.
#[derive(Clone, Copy)]
struct BucketAcc {
    rows: u64,
    hits: u64,
    min: f64,
    max: f64,
}

impl BucketAcc {
    const EMPTY: Self = Self {
        rows: 0,
        hits: 0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };
}

/// The canonical-shape hot loop: grid-probed bucket, then one
/// [`BucketAcc`] update — row count, hit, and the row-order min/max
/// fold all on one cache line. `words` is the target column repacked
/// to offset 0, so the hit update is a shift and mask off a local
/// slice, unconditional — `+= bit ^ flip` replaces a ~50% mispredicted
/// branch on real Boolean columns.
fn canonical_block(
    xs: &[f64],
    words: &[u64],
    want: bool,
    index: &CutIndex<'_>,
    acc: &mut [BucketAcc],
) {
    let flip = !want as u64;
    // Hoist the grid dispatch out of the row loop: one branch per
    // block, not per row.
    match &index.grid {
        Some(g) => {
            for (i, &x) in xs.iter().enumerate() {
                debug_assert!(
                    x.is_finite(),
                    "non-finite value {x} reached the counting scan"
                );
                let e = &mut acc[grid_probe(g, index.cuts, x)];
                e.rows += 1;
                e.hits += ((words[i >> 6] >> (i & 63)) & 1) ^ flip;
                e.min = e.min.min(x);
                e.max = e.max.max(x);
            }
        }
        None => {
            for (i, &x) in xs.iter().enumerate() {
                debug_assert!(
                    x.is_finite(),
                    "non-finite value {x} reached the counting scan"
                );
                let e = &mut acc[index.cuts.partition_point(|&c| c < x)];
                e.rows += 1;
                e.hits += ((words[i >> 6] >> (i & 63)) & 1) ^ flip;
                e.min = e.min.min(x);
                e.max = e.max.max(x);
            }
        }
    }
}

/// Per-bucket scratch of the masked loop, one packed entry of
/// `3 + targets + sums` words per bucket:
/// `[rows, min, max, hits₀…, sum₀…]`, the floats stored as their bits.
struct PackedCounts {
    words: Vec<u64>,
    stride: usize,
    targets: usize,
}

/// Offsets into a packed entry.
const ROWS: usize = 0;
const MIN: usize = 1;
const MAX: usize = 2;
const HITS: usize = 3;

impl PackedCounts {
    fn new(buckets: usize, targets: usize, sums: usize) -> Self {
        let stride = HITS + targets + sums;
        let mut entry = vec![0u64; stride];
        entry[MIN] = f64::INFINITY.to_bits();
        entry[MAX] = f64::NEG_INFINITY.to_bits();
        // Sum slots start at the bits of 0.0, which are 0.
        Self {
            words: entry.repeat(buckets),
            stride,
            targets,
        }
    }

    #[inline(always)]
    fn entry(&mut self, b: usize) -> &mut [u64] {
        &mut self.words[b * self.stride..(b + 1) * self.stride]
    }

    /// Folds the scratch into the fresh `counts` it was sized for.
    fn fold_into(&self, counts: &mut BucketCounts) {
        for (b, e) in self.words.chunks_exact(self.stride).enumerate() {
            counts.u[b] += e[ROWS];
            let r = &mut counts.ranges[b];
            r.0 = r.0.min(f64::from_bits(e[MIN]));
            r.1 = r.1.max(f64::from_bits(e[MAX]));
            let (hits, sums) = e[HITS..].split_at(self.targets);
            for (series, &h) in counts.bool_v.iter_mut().zip(hits) {
                series[b] += h;
            }
            for (series, &s) in counts.sums.iter_mut().zip(sums) {
                series[b] = f64::from_bits(s);
            }
        }
    }
}

#[inline(always)]
fn fold_range(e: &mut [u64], x: f64) {
    debug_assert!(
        x.is_finite(),
        "non-finite value {x} reached the counting scan"
    );
    e[MIN] = f64::from_bits(e[MIN]).min(x).to_bits();
    e[MAX] = f64::from_bits(e[MAX]).max(x).to_bits();
}

#[inline(always)]
fn add_sum(slot: &mut u64, v: f64) {
    *slot = (f64::from_bits(*slot) + v).to_bits();
}

/// The mask-compiled loop: every scan shape but the canonical one.
/// Holds the compiled spec, the packed per-bucket scratch and the mask
/// buffers reused from chunk to chunk.
struct MaskedScan<'a> {
    presumptive: &'a [ColTest],
    targets: &'a [Vec<ColTest>],
    sum_cols: &'a [usize],
    acc: PackedCounts,
    /// The presumptive mask of the current chunk.
    live: Vec<u64>,
    /// The target masks of the current chunk, interleaved so the words
    /// a 64-row group needs sit together: word `w` of target `k` is
    /// `hits[w * targets + k]`.
    hits: Vec<u64>,
    repack: Vec<u64>,
}

impl<'a> MaskedScan<'a> {
    fn new(
        presumptive: &'a [ColTest],
        targets: &'a [Vec<ColTest>],
        sum_cols: &'a [usize],
        buckets: usize,
    ) -> Self {
        Self {
            presumptive,
            targets,
            sum_cols,
            acc: PackedCounts::new(buckets, targets.len(), sum_cols.len()),
            live: Vec::new(),
            hits: Vec::new(),
            repack: Vec::new(),
        }
    }

    /// Counts one block: masks, then rows, a chunk at a time. `single`
    /// is the bucket the zone map confines the whole block to, if any.
    fn block(
        &mut self,
        block: &ColumnBlock<'_>,
        xs: &[f64],
        index: &CutIndex<'_>,
        single: Option<usize>,
    ) {
        let nt = self.targets.len();
        for rows in mask_chunks(block.rows) {
            let words = rows.len().div_ceil(64);
            self.live.resize(words, 0);
            mask_into(
                self.presumptive,
                block,
                rows.clone(),
                &mut self.live,
                1,
                &mut self.repack,
            );
            self.hits.resize(words * nt, 0);
            for (k, tests) in self.targets.iter().enumerate() {
                mask_into(
                    tests,
                    block,
                    rows.clone(),
                    &mut self.hits[k..],
                    nt,
                    &mut self.repack,
                );
            }
            match (single, &index.grid) {
                (Some(b), _) => self.single_bucket_rows(b, block, xs, rows),
                // Hoist the grid dispatch out of the row loop.
                (None, Some(g)) => {
                    self.spread_rows(block, xs, rows, |x| grid_probe(g, index.cuts, x))
                }
                (None, None) => {
                    self.spread_rows(block, xs, rows, |x| index.cuts.partition_point(|&c| c < x))
                }
            }
        }
    }

    /// The row loop: walks the set bits of the presumptive mask; per
    /// row one probe and one packed-entry update — row count, the
    /// row-order min/max fold, an unconditional `+= bit` per target,
    /// a row-order add per sum.
    #[inline(always)]
    fn spread_rows(
        &mut self,
        block: &ColumnBlock<'_>,
        xs: &[f64],
        rows: Range<usize>,
        bucket_of: impl Fn(f64) -> usize,
    ) {
        let nt = self.targets.len();
        for (w, &live) in self.live.iter().enumerate() {
            let hits = &self.hits[w * nt..(w + 1) * nt];
            let mut live = live;
            while live != 0 {
                let j = live.trailing_zeros() as usize;
                live &= live - 1;
                let i = rows.start + w * 64 + j;
                let x = xs[i];
                let e = self.acc.entry(bucket_of(x));
                e[ROWS] += 1;
                fold_range(e, x);
                let (hit_slots, sum_slots) = e[HITS..].split_at_mut(nt);
                for (slot, &mask) in hit_slots.iter_mut().zip(hits) {
                    *slot += (mask >> j) & 1;
                }
                for (slot, &col) in sum_slots.iter_mut().zip(self.sum_cols) {
                    add_sum(slot, block.numeric[col][i]);
                }
            }
        }
    }

    /// A chunk whose rows all land in bucket `b` with no presumptive
    /// filter: one add for the rows, a sequential min/max sweep for the
    /// observed range, a popcount per target mask, and sequential
    /// row-order adds for sums — through the same packed entry as
    /// [`spread_rows`](Self::spread_rows), so the range fold and the
    /// sum chains stay unbroken across both kinds of block.
    fn single_bucket_rows(
        &mut self,
        b: usize,
        block: &ColumnBlock<'_>,
        xs: &[f64],
        rows: Range<usize>,
    ) {
        let nt = self.targets.len();
        let e = self.acc.entry(b);
        e[ROWS] += rows.len() as u64;
        for &x in &xs[rows.clone()] {
            fold_range(e, x);
        }
        let (hit_slots, sum_slots) = e[HITS..].split_at_mut(nt);
        for (k, slot) in hit_slots.iter_mut().enumerate() {
            let mask = self.hits.iter().skip(k).step_by(nt);
            *slot += mask.map(|word| u64::from(word.count_ones())).sum::<u64>();
        }
        for (slot, &col) in sum_slots.iter_mut().zip(self.sum_cols) {
            for &v in &block.numeric[col][rows.clone()] {
                add_sum(slot, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_relation::schema::{BoolAttr, NumAttr};

    /// Deterministic pseudo-random f64s in [-1000, 1000).
    fn xorshift_values(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 2_000_000) as f64 / 1000.0 - 1000.0
            })
            .collect()
    }

    #[test]
    fn cut_index_equals_partition_point_everywhere() {
        for (label, cuts) in [
            (
                "uniform",
                (0..100).map(|i| i as f64 * 3.5 - 100.0).collect::<Vec<_>>(),
            ),
            ("clustered", {
                let mut c = xorshift_values(7, 64);
                c.sort_by(|a, b| a.partial_cmp(b).unwrap());
                c.dedup();
                c
            }),
            ("tiny", vec![1.0, 2.0, 3.0]), // below the grid threshold
            ("with-infinities", {
                let mut c = vec![f64::NEG_INFINITY, f64::INFINITY];
                c.extend((0..20).map(|i| i as f64));
                c.sort_by(|a, b| a.partial_cmp(b).unwrap());
                c
            }),
            ("zero-span-guard", vec![5.0; 1]),
        ] {
            let index = CutIndex::new(&cuts);
            let mut probes = xorshift_values(99, 4000);
            for &c in &cuts {
                probes.push(c);
                // Neighbouring representable values stress cell-edge
                // rounding.
                if c.is_finite() {
                    probes.push(f64::from_bits(c.to_bits().wrapping_sub(1)));
                    probes.push(f64::from_bits(c.to_bits() + 1));
                }
            }
            probes.extend([f64::MIN, f64::MAX, 0.0, -0.0]);
            for &x in &probes {
                assert_eq!(
                    index.bucket_of(x),
                    cuts.partition_point(|&c| c < x),
                    "{label}: x = {x:?}"
                );
            }
        }
    }

    #[test]
    fn compile_flattens_and_matches_eval() {
        let cond = Condition::And(vec![
            Condition::True,
            Condition::BoolIs(BoolAttr(1), false),
            Condition::And(vec![
                Condition::NumEq(NumAttr(0), 4.0),
                Condition::NumInRange(NumAttr(1), -1.0, 1.0),
            ]),
        ]);
        let tests = compile(&cond);
        assert_eq!(
            tests,
            vec![
                ColTest::BoolIs(1, false),
                ColTest::NumEq(0, 4.0),
                ColTest::NumInRange(1, -1.0, 1.0),
            ]
        );
        assert!(compile(&Condition::True).is_empty());
    }

    #[test]
    fn zone_rejection_is_sound_and_fires() {
        let zones = [(10.0, 20.0), (-5.0, 5.0)];
        // Disjoint range: rejected.
        assert!(zone_rejects(&[ColTest::NumInRange(0, 30.0, 40.0)], &zones));
        assert!(zone_rejects(&[ColTest::NumInRange(0, 0.0, 9.0)], &zones));
        // Touching or overlapping: kept.
        assert!(!zone_rejects(&[ColTest::NumInRange(0, 20.0, 40.0)], &zones));
        assert!(!zone_rejects(&[ColTest::NumInRange(0, 0.0, 10.0)], &zones));
        // Equality out of / in zone.
        assert!(zone_rejects(&[ColTest::NumEq(1, 6.0)], &zones));
        assert!(!zone_rejects(&[ColTest::NumEq(1, 5.0)], &zones));
        // Boolean tests never reject; one rejecting test suffices.
        assert!(!zone_rejects(&[ColTest::BoolIs(0, true)], &zones));
        assert!(zone_rejects(
            &[ColTest::BoolIs(0, true), ColTest::NumEq(0, 99.0)],
            &zones
        ));
        assert!(!zone_rejects(&[], &zones));
    }
}
