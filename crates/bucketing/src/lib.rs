//! Bucketing subsystem: Section 3 of Fukuda et al.
//!
//! Rule optimization runs over a sequence of buckets `B_1 … B_M` with
//! per-bucket tuple counts `u_i` and hit counts `v_i`. For giant
//! relations the buckets must be **almost equi-depth** (uniform `u_i`)
//! without sorting the data; the paper's Algorithm 3.1 achieves this by
//! sorting only a small random sample:
//!
//! 1. draw an `S`-sized random sample (`S = 40·M`, see
//!    `optrules-stats`);
//! 2. sort the sample — O(S log S), in memory;
//! 3. cut at the `i·(S/M)`-th smallest samples to get bucket boundaries;
//! 4. scan the relation once, binary-searching each tuple into its
//!    bucket — O(N log M).
//!
//! Modules:
//!
//! * [`bucket`] — boundaries ([`BucketSpec`]), counts
//!   ([`BucketCounts`]), and empty-bucket compaction;
//! * [`sampling`] — with-replacement sampling (the paper's model) and
//!   single-pass reservoir sampling for streams;
//! * [`boundaries`] — step 3: sample quantiles → cuts;
//! * [`assign`] — step 4: the counting scan, with optional presumptive
//!   filters (Section 4.3) and per-bucket numeric sums (Section 5),
//!   dispatching to the compiled columnar kernel (projection
//!   push-down, zone-map block skipping, column-wise condition masks,
//!   grid-probed bucket assignment into packed per-bucket entries)
//!   when the storage supports it;
//! * [`equidepth`] — the Algorithm 3.1 driver;
//! * [`parallel`] — Algorithm 3.2: communication-free partitioned
//!   counting on worker threads;
//! * [`naive`] — the §6.1 "Naive Sort" baseline (full-tuple sort per
//!   attribute) and exact equi-depth cuts from sorted data;
//! * [`vertical`] — the §6.1 "Vertical Split Sort" baseline
//!   ((value, tid) projection, then sort);
//! * [`finest`] — finest buckets (one bucket per distinct value,
//!   Example 2.4), the exact-optimum reference for error measurements;
//! * [`equiwidth`] — equi-width buckets, the ablation foil for
//!   footnote 3's claim that equi-depth minimizes approximation error;
//! * [`external_sort`] — out-of-core merge sort, the substrate a
//!   disk-resident naive sort would actually need.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod boundaries;
pub mod bucket;
pub mod equidepth;
pub mod equiwidth;
pub mod error;
pub mod external_sort;
pub mod finest;
mod kernel;
pub mod naive;
pub mod parallel;
pub mod sampling;
pub mod vertical;

pub use assign::{count_buckets, CountSpec};
pub use boundaries::cuts_from_sample;
pub use bucket::{BucketCounts, BucketSpec};
pub use equidepth::{equi_depth_cuts, EquiDepthConfig, SamplingMethod};
pub use equiwidth::equi_width_cuts;
pub use error::BucketingError;
pub use finest::{finest_cuts, finest_cuts_for_integer_domain};
pub use kernel::{mask_chunks, CompiledCond, CutIndex, RowMask};
pub use naive::{exact_equi_depth_cuts, naive_sort_cuts};
pub use parallel::count_buckets_parallel;
pub use sampling::sample_indices;
pub use vertical::vertical_split_cuts;
