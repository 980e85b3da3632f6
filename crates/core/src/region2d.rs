//! Two-attribute rectangular regions (the §1.4 extension).
//!
//! Section 1.4 extends optimized rules to presumptive conditions over
//! *two* numeric attributes: `((A1, A2) ∈ X) ⇒ C` where `X` is a region
//! in the plane. Arbitrary connected regions are NP-hard; the authors'
//! companion paper (Fukuda et al., SIGMOD 1996 [7]) treats rectangles,
//! x-monotone and rectilinear-convex regions. This module implements
//! the **rectangle** case over a bucketed grid:
//!
//! * bucket each attribute (equi-depth as usual) into `nx` × `ny` cells
//!   with per-cell counts `u[i][j]`, `v[i][j]`;
//! * for every column span `i1 ..= i2` (there are O(nx²)), collapse the
//!   span into a 1-D bucket series over y and run the 1-D optimizers of
//!   Sections 4.1/4.2.
//!
//! Total cost O(nx² · ny) — the natural 2-D analogue of the paper's
//! machinery, against an O(nx² · ny²) exhaustive baseline kept for
//! tests.

use crate::confidence::optimize_confidence;
use crate::error::{CoreError, Result};
use crate::ratio::{cmp_fractions, Ratio};
use crate::support::optimize_support;
use optrules_bucketing::{mask_chunks, BucketSpec, CompiledCond, CutIndex, RowMask};
use optrules_relation::columnar::Projection;
use optrules_relation::{Condition, NumAttr, TupleScan};
use std::cmp::Ordering;

/// Per-cell counts over a 2-D bucket grid (row-major in x).
#[derive(Debug, Clone, PartialEq)]
pub struct GridCounts {
    nx: usize,
    ny: usize,
    u: Vec<u64>,
    v: Vec<u64>,
    /// Observed value ranges of the x-attribute per x-bucket.
    pub x_ranges: Vec<(f64, f64)>,
    /// Observed value ranges of the y-attribute per y-bucket.
    pub y_ranges: Vec<(f64, f64)>,
    /// Rows scanned.
    pub total_rows: u64,
}

impl GridCounts {
    /// One counting scan: assigns every tuple to its (x, y) cell and
    /// counts `u` (tuples meeting `presumptive`) and `v` (also meeting
    /// `objective`).
    ///
    /// Dispatches to a columnar block loop when the storage exposes
    /// [`ColumnarScan`](optrules_relation::columnar::ColumnarScan):
    /// the scan projects the two axes plus the columns its conditions
    /// read, compiles both conditions to column-wise bit masks, skips
    /// blocks the zone maps rule out, and walks the set bits of the
    /// presumptive mask. Otherwise it falls back to the row visitor.
    /// Both paths fold in row order with identical operation pairing,
    /// so the result is bit-identical either way.
    ///
    /// Cell assignment clamps by construction, matching the 1-D
    /// scan-clamp contract: `bucket_of` is `partition_point`, whose
    /// result is always in `[0, cuts.len()]` — exactly the bucket
    /// count per axis — so values beyond the outermost cuts land in
    /// the first/last bucket and can never index out of range
    /// (pinned in `crates/core/tests/grid_clamp.rs`).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn count<T: TupleScan + ?Sized>(
        rel: &T,
        x_attr: NumAttr,
        y_attr: NumAttr,
        x_spec: &BucketSpec,
        y_spec: &BucketSpec,
        presumptive: &Condition,
        objective: &Condition,
    ) -> Result<Self> {
        let nx = x_spec.bucket_count();
        let ny = y_spec.bucket_count();
        let mut grid = Self {
            nx,
            ny,
            u: vec![0; nx * ny],
            v: vec![0; nx * ny],
            x_ranges: vec![(f64::INFINITY, f64::NEG_INFINITY); nx],
            y_ranges: vec![(f64::INFINITY, f64::NEG_INFINITY); ny],
            total_rows: 0,
        };
        let (x_index, y_index) = (CutIndex::new(x_spec.cuts()), CutIndex::new(y_spec.cuts()));
        if let Some(cols) = rel.as_columnar() {
            let pres = CompiledCond::compile(presumptive);
            let obj = CompiledCond::compile(objective);
            let mut projection = Projection::none();
            projection.add_numeric(x_attr.0);
            projection.add_numeric(y_attr.0);
            pres.project(&mut projection);
            obj.project(&mut projection);
            let (mut live, mut hits) = (RowMask::default(), RowMask::default());
            cols.for_each_block_projected(0..rel.len(), &projection, &mut |block| {
                grid.total_rows += block.rows as u64;
                if pres.rejects_block(&block.zones) {
                    // Every row fails the presumptive filter: only the
                    // row total moves, exactly as the visitor would.
                    return;
                }
                for rows in mask_chunks(block.rows) {
                    live.fill(&pres, block, rows.clone());
                    hits.fill(&obj, block, rows.clone());
                    let xs = &block.numeric[x_attr.0][rows.clone()];
                    let ys = &block.numeric[y_attr.0][rows];
                    for (w, (&live, &hits)) in live.words().iter().zip(hits.words()).enumerate() {
                        let mut live = live;
                        while live != 0 {
                            let j = live.trailing_zeros() as usize;
                            live &= live - 1;
                            let i = w * 64 + j;
                            grid.tally(xs[i], ys[i], &x_index, &y_index, (hits >> j) & 1);
                        }
                    }
                }
            })?;
        } else {
            rel.for_each_row(&mut |_, nums, bools| {
                grid.total_rows += 1;
                if !presumptive.eval(nums, bools) {
                    return;
                }
                let (x, y) = (nums[x_attr.0], nums[y_attr.0]);
                let hit = u64::from(objective.eval(nums, bools));
                grid.tally(x, y, &x_index, &y_index, hit);
            })?;
        }
        Ok(grid)
    }

    /// One row's cell update, shared by both scan paths: a
    /// [`CutIndex`] probe per axis (exactly `BucketSpec::bucket_of`),
    /// then the cell counts and the two observed-range folds.
    #[inline]
    fn tally(&mut self, x: f64, y: f64, x_index: &CutIndex<'_>, y_index: &CutIndex<'_>, hit: u64) {
        debug_assert!(
            x.is_finite(),
            "non-finite value {x} reached the grid counting scan"
        );
        debug_assert!(
            y.is_finite(),
            "non-finite value {y} reached the grid counting scan"
        );
        let (i, j) = (x_index.bucket_of(x), y_index.bucket_of(y));
        self.u[i * self.ny + j] += 1;
        self.v[i * self.ny + j] += hit;
        let rx = &mut self.x_ranges[i];
        rx.0 = rx.0.min(x);
        rx.1 = rx.1.max(x);
        let ry = &mut self.y_ranges[j];
        ry.0 = ry.0.min(y);
        ry.1 = ry.1.max(y);
    }

    /// Grid width (x buckets).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (y buckets).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell counts `(u, v)` at `(i, j)`.
    pub fn at(&self, i: usize, j: usize) -> (u64, u64) {
        (self.u[i * self.ny + j], self.v[i * self.ny + j])
    }

    /// The `u` cells, row-major in x (`u[i * ny + j]`).
    pub fn u_cells(&self) -> &[u64] {
        &self.u
    }

    /// The `v` cells, row-major in x.
    pub fn v_cells(&self) -> &[u64] {
        &self.v
    }

    /// Tuples counted into the grid (`Σ u`).
    pub fn counted(&self) -> u64 {
        self.u.iter().sum()
    }

    /// Builds the grid directly from cell arrays (row-major in x) —
    /// for tests and synthetic workloads.
    ///
    /// # Errors
    ///
    /// Fails if array lengths do not equal `nx · ny`.
    pub fn from_cells(nx: usize, ny: usize, u: Vec<u64>, v: Vec<u64>) -> Result<Self> {
        // `nx` and `ny` arrive off the wire: the product must not wrap.
        let cells = nx.checked_mul(ny);
        if Some(u.len()) != cells || Some(v.len()) != cells {
            return Err(CoreError::LengthMismatch {
                u: u.len(),
                v: v.len(),
            });
        }
        let total: u64 = u.iter().sum();
        Ok(Self {
            nx,
            ny,
            u,
            v,
            x_ranges: vec![(0.0, 0.0); nx],
            y_ranges: vec![(0.0, 0.0); ny],
            total_rows: total,
        })
    }

    /// Rebuilds a grid from all of its parts — the decode side of the
    /// 2-D wire schema, where a coordinator reassembles per-shard
    /// partials (empty buckets hold the `(∞, −∞)` sentinel, restored
    /// from `null` on the wire).
    ///
    /// # Errors
    ///
    /// Fails if cell array lengths do not equal `nx · ny` or range
    /// array lengths do not equal `nx` / `ny`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        nx: usize,
        ny: usize,
        u: Vec<u64>,
        v: Vec<u64>,
        x_ranges: Vec<(f64, f64)>,
        y_ranges: Vec<(f64, f64)>,
        total_rows: u64,
    ) -> Result<Self> {
        // `nx` and `ny` arrive off the wire: the product must not wrap.
        let cells = nx.checked_mul(ny);
        if Some(u.len()) != cells || Some(v.len()) != cells {
            return Err(CoreError::LengthMismatch {
                u: u.len(),
                v: v.len(),
            });
        }
        if x_ranges.len() != nx || y_ranges.len() != ny {
            return Err(CoreError::LengthMismatch {
                u: x_ranges.len(),
                v: y_ranges.len(),
            });
        }
        Ok(Self {
            nx,
            ny,
            u,
            v,
            x_ranges,
            y_ranges,
            total_rows,
        })
    }

    /// Merges another grid into this one — Algorithm 3.2's coordinator
    /// step in two dimensions. Shard partitions are disjoint, so cell
    /// counts and the row total just add, and observed ranges fold by
    /// min/max (with the `(∞, −∞)` sentinel as the neutral element).
    /// Every field is either an integer sum or a min/max fold, so the
    /// merged grid is **identical however the relation was
    /// partitioned** — the basis of the coordinator's byte-identity
    /// with a single node.
    ///
    /// # Panics
    ///
    /// Panics on grid dimension mismatch.
    pub fn merge(&mut self, other: &GridCounts) {
        assert_eq!(
            (self.nx, self.ny),
            (other.nx, other.ny),
            "grid dimension mismatch"
        );
        for (a, b) in self.u.iter_mut().zip(&other.u) {
            *a += b;
        }
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a += b;
        }
        for (ra, rb) in self.x_ranges.iter_mut().zip(&other.x_ranges) {
            ra.0 = ra.0.min(rb.0);
            ra.1 = ra.1.max(rb.1);
        }
        for (ra, rb) in self.y_ranges.iter_mut().zip(&other.y_ranges) {
            ra.0 = ra.0.min(rb.0);
            ra.1 = ra.1.max(rb.1);
        }
        self.total_rows += other.total_rows;
    }
}

/// An optimized rectangle: bucket spans on both axes (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// First x bucket.
    pub x1: usize,
    /// Last x bucket.
    pub x2: usize,
    /// First y bucket.
    pub y1: usize,
    /// Last y bucket.
    pub y2: usize,
    /// Tuples inside the rectangle.
    pub sup_count: u64,
    /// Tuples inside also meeting the objective.
    pub hits: u64,
}

impl Rect {
    /// The rectangle rule's confidence.
    pub fn confidence(&self) -> f64 {
        if self.sup_count == 0 {
            0.0
        } else {
            self.hits as f64 / self.sup_count as f64
        }
    }

    /// The rectangle's support relative to `total_rows`.
    pub fn support(&self, total_rows: u64) -> f64 {
        if total_rows == 0 {
            0.0
        } else {
            self.sup_count as f64 / total_rows as f64
        }
    }
}

/// Collapses the x-span `i1 ..= i2` into per-y totals, then compacts
/// empty y buckets; returns `(kept_y, u, v)` or `None` when the span
/// holds no tuples.
fn collapse(
    grid: &GridCounts,
    acc_u: &[u64],
    acc_v: &[u64],
) -> Option<(Vec<usize>, Vec<u64>, Vec<u64>)> {
    let kept: Vec<usize> = (0..grid.ny).filter(|&j| acc_u[j] > 0).collect();
    if kept.is_empty() {
        return None;
    }
    let u: Vec<u64> = kept.iter().map(|&j| acc_u[j]).collect();
    let v: Vec<u64> = kept.iter().map(|&j| acc_v[j]).collect();
    Some((kept, u, v))
}

/// Runs `opt` over every x-span, feeding collapsed 1-D series, and
/// keeps the best rectangle under `better`.
///
/// # Determinism and tie-breaking
///
/// The sweep is strictly sequential over the grid in `(x1, x2)` order,
/// and an incumbent is replaced only when the candidate is *strictly*
/// greater under `better` — so among equal candidates the **first in
/// `(x1, x2, y1)` order wins**, at any thread count (the grid itself
/// is the only input, and per-query assembly never runs the sweep
/// concurrently with itself). `better` compares with
/// [`cmp_fractions`], i.e. exact integer cross-multiplication, so
/// "equal confidence" is decided exactly, never through float
/// rounding. A coordinator therefore cannot change the reported
/// rectangle by merging shard partials in a different order: the
/// merged grid is order-independent (see [`GridCounts::merge`]) and
/// the sweep is a deterministic function of the merged grid.
fn sweep_spans(
    grid: &GridCounts,
    mut opt: impl FnMut(&[u64], &[u64]) -> Option<(usize, usize, u64, u64)>,
    better: impl Fn(&Rect, &Rect) -> Ordering,
) -> Option<Rect> {
    let mut best: Option<Rect> = None;
    let ny = grid.ny;
    for x1 in 0..grid.nx {
        let mut acc_u = vec![0u64; ny];
        let mut acc_v = vec![0u64; ny];
        for x2 in x1..grid.nx {
            for j in 0..ny {
                acc_u[j] += grid.u[x2 * ny + j];
                acc_v[j] += grid.v[x2 * ny + j];
            }
            let Some((kept, u, v)) = collapse(grid, &acc_u, &acc_v) else {
                continue;
            };
            if let Some((s, t, sup, hits)) = opt(&u, &v) {
                let cand = Rect {
                    x1,
                    x2,
                    y1: kept[s],
                    y2: kept[t],
                    sup_count: sup,
                    hits,
                };
                best = Some(match best {
                    None => cand,
                    Some(cur) => {
                        if better(&cand, &cur) == Ordering::Greater {
                            cand
                        } else {
                            cur
                        }
                    }
                });
            }
        }
    }
    best
}

/// Optimized-confidence rectangle: maximal confidence among rectangles
/// with at least `min_support_count` tuples (ties: larger support, then
/// first in (x1, x2, y1) order).
///
/// # Errors
///
/// Propagates 1-D optimizer errors (cannot occur for well-formed grids).
pub fn optimize_confidence_rectangle(
    grid: &GridCounts,
    min_support_count: u64,
) -> Result<Option<Rect>> {
    let mut err = None;
    let best = sweep_spans(
        grid,
        |u, v| match optimize_confidence(u, v, min_support_count) {
            Ok(r) => r.map(|r| (r.s, r.t, r.sup_count, r.hits)),
            Err(e) => {
                err = Some(e);
                None
            }
        },
        |a, b| {
            cmp_fractions(a.hits, a.sup_count, b.hits, b.sup_count)
                .then_with(|| a.sup_count.cmp(&b.sup_count))
        },
    );
    match err {
        Some(e) => Err(e),
        None => Ok(best),
    }
}

/// Optimized-support rectangle: maximal support among rectangles whose
/// confidence is at least `min_conf` (ties: higher confidence, then
/// first in (x1, x2, y1) order).
///
/// # Errors
///
/// Propagates 1-D optimizer errors (cannot occur for well-formed grids).
pub fn optimize_support_rectangle(grid: &GridCounts, min_conf: Ratio) -> Result<Option<Rect>> {
    let mut err = None;
    let best = sweep_spans(
        grid,
        |u, v| match optimize_support(u, v, min_conf) {
            Ok(r) => r.map(|r| (r.s, r.t, r.sup_count, r.hits)),
            Err(e) => {
                err = Some(e);
                None
            }
        },
        |a, b| {
            a.sup_count
                .cmp(&b.sup_count)
                .then_with(|| cmp_fractions(a.hits, a.sup_count, b.hits, b.sup_count))
        },
    );
    match err {
        Some(e) => Err(e),
        None => Ok(best),
    }
}

/// Exhaustive O(nx²·ny²) rectangle search via 2-D prefix sums — ground
/// truth for tests, with identical tie-breaking.
pub fn optimize_rectangle_naive(
    grid: &GridCounts,
    min_support_count: Option<u64>,
    min_conf: Option<Ratio>,
    maximize_support: bool,
) -> Option<Rect> {
    let (nx, ny) = (grid.nx, grid.ny);
    // Prefix sums with a zero border: p[i][j] = Σ cells < (i, j).
    let idx = |i: usize, j: usize| i * (ny + 1) + j;
    let mut pu = vec![0u64; (nx + 1) * (ny + 1)];
    let mut pv = vec![0u64; (nx + 1) * (ny + 1)];
    for i in 0..nx {
        for j in 0..ny {
            let (cu, cv) = grid.at(i, j);
            pu[idx(i + 1, j + 1)] = pu[idx(i, j + 1)] + pu[idx(i + 1, j)] - pu[idx(i, j)] + cu;
            pv[idx(i + 1, j + 1)] = pv[idx(i, j + 1)] + pv[idx(i + 1, j)] - pv[idx(i, j)] + cv;
        }
    }
    let rect_sum = |p: &[u64], x1: usize, x2: usize, y1: usize, y2: usize| {
        p[idx(x2 + 1, y2 + 1)] + p[idx(x1, y1)] - p[idx(x1, y2 + 1)] - p[idx(x2 + 1, y1)]
    };
    let mut best: Option<Rect> = None;
    for x1 in 0..nx {
        for x2 in x1..nx {
            for y1 in 0..ny {
                for y2 in y1..ny {
                    let sup = rect_sum(&pu, x1, x2, y1, y2);
                    if sup == 0 {
                        continue;
                    }
                    let hits = rect_sum(&pv, x1, x2, y1, y2);
                    if let Some(w) = min_support_count {
                        if sup < w {
                            continue;
                        }
                    }
                    if let Some(theta) = min_conf {
                        if !theta.le_fraction(hits, sup) {
                            continue;
                        }
                    }
                    // Skip rectangles with empty border rows/columns so
                    // the canonical (tight) rectangle is reported, as in
                    // the compacted fast path.
                    if rect_sum(&pu, x1, x1, y1, y2) == 0
                        || rect_sum(&pu, x2, x2, y1, y2) == 0
                        || rect_sum(&pu, x1, x2, y1, y1) == 0
                        || rect_sum(&pu, x1, x2, y2, y2) == 0
                    {
                        continue;
                    }
                    let cand = Rect {
                        x1,
                        x2,
                        y1,
                        y2,
                        sup_count: sup,
                        hits,
                    };
                    let ord = |a: &Rect, b: &Rect| {
                        if maximize_support {
                            a.sup_count.cmp(&b.sup_count).then_with(|| {
                                cmp_fractions(a.hits, a.sup_count, b.hits, b.sup_count)
                            })
                        } else {
                            cmp_fractions(a.hits, a.sup_count, b.hits, b.sup_count)
                                .then_with(|| a.sup_count.cmp(&b.sup_count))
                        }
                    };
                    best = Some(match best {
                        None => cand,
                        Some(cur) => {
                            if ord(&cand, &cur) == Ordering::Greater {
                                cand
                            } else {
                                cur
                            }
                        }
                    });
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_grid(nx: usize, ny: usize, seed: u64) -> GridCounts {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Vec<u64> = (0..nx * ny).map(|_| rng.gen_range(0..8)).collect();
        let v: Vec<u64> = u.iter().map(|&ui| rng.gen_range(0..=ui)).collect();
        GridCounts::from_cells(nx, ny, u, v).unwrap()
    }

    #[test]
    fn planted_block_recovered() {
        // 6×6 grid, dense confident block at x 2..=3, y 1..=4.
        let (nx, ny) = (6usize, 6usize);
        let mut u = vec![4u64; nx * ny];
        let mut v = vec![0u64; nx * ny];
        for x in 2..=3 {
            for y in 1..=4 {
                v[x * ny + y] = 4;
            }
            // Ensure compaction paths get exercised: one empty cell row.
            u[x * ny] = 0;
        }
        let grid = GridCounts::from_cells(nx, ny, u, v).unwrap();
        let conf = optimize_confidence_rectangle(&grid, 16).unwrap().unwrap();
        assert_eq!((conf.x1, conf.x2, conf.y1, conf.y2), (2, 3, 1, 4));
        assert_eq!(conf.confidence(), 1.0);
        let sup = optimize_support_rectangle(&grid, Ratio::percent(100))
            .unwrap()
            .unwrap();
        assert_eq!((sup.x1, sup.x2, sup.y1, sup.y2), (2, 3, 1, 4));
        assert_eq!(sup.sup_count, 32);
    }

    #[test]
    fn matches_naive_confidence_randomized() {
        for seed in 0..40u64 {
            let grid = random_grid(5, 5, seed);
            let total: u64 = grid.u.iter().sum();
            if total == 0 {
                continue;
            }
            let w = (total / 4).max(1);
            let fast = optimize_confidence_rectangle(&grid, w).unwrap();
            let naive = optimize_rectangle_naive(&grid, Some(w), None, false);
            match (fast, naive) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        cmp_fractions(a.hits, a.sup_count, b.hits, b.sup_count),
                        Ordering::Equal,
                        "seed {seed}: {a:?} vs {b:?}"
                    );
                    assert_eq!(a.sup_count, b.sup_count, "seed {seed}: {a:?} vs {b:?}");
                }
                (a, b) => panic!("seed {seed}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn matches_naive_support_randomized() {
        for seed in 100..140u64 {
            let grid = random_grid(4, 6, seed);
            let theta = Ratio::percent(40 + (seed % 40));
            let fast = optimize_support_rectangle(&grid, theta).unwrap();
            let naive = optimize_rectangle_naive(&grid, None, Some(theta), true);
            match (fast, naive) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.sup_count, b.sup_count, "seed {seed}: {a:?} vs {b:?}");
                    assert_eq!(
                        cmp_fractions(a.hits, a.sup_count, b.hits, b.sup_count),
                        Ordering::Equal,
                        "seed {seed}"
                    );
                }
                (a, b) => panic!("seed {seed}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn grid_from_cells_validates() {
        assert!(GridCounts::from_cells(2, 2, vec![1; 3], vec![0; 4]).is_err());
        assert!(GridCounts::from_cells(2, 2, vec![1; 4], vec![0; 4]).is_ok());
    }

    #[test]
    fn empty_grid_yields_none() {
        let grid = GridCounts::from_cells(3, 3, vec![0; 9], vec![0; 9]).unwrap();
        assert_eq!(optimize_confidence_rectangle(&grid, 1).unwrap(), None);
        assert_eq!(
            optimize_support_rectangle(&grid, Ratio::percent(50)).unwrap(),
            None
        );
    }

    #[test]
    fn rect_accessors() {
        let r = Rect {
            x1: 0,
            x2: 1,
            y1: 2,
            y2: 3,
            sup_count: 20,
            hits: 15,
        };
        assert_eq!(r.confidence(), 0.75);
        assert_eq!(r.support(80), 0.25);
    }
}
