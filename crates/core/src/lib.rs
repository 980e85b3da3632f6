//! Optimized association rules for numeric attributes — the primary
//! contribution of Fukuda, Morimoto, Morishita & Tokuyama (PODS 1996).
//!
//! Given bucket counts `u_i` (tuples) and `v_i` (tuples also meeting an
//! objective condition `C`) over a numeric attribute `A`, this crate
//! computes, in **O(M)** time over `M` buckets:
//!
//! * the **optimized-confidence rule** ([`confidence`]) — among ranges
//!   with support ≥ a minimum support threshold, the range maximizing
//!   the rule's confidence (Section 4.1: optimal slope pairs via convex
//!   hull tangents, Theorem 4.1);
//! * the **optimized-support rule** ([`support`]) — among ranges with
//!   confidence ≥ a minimum confidence threshold, the range maximizing
//!   support (Section 4.2: effective indices + the `top(s)` backward
//!   scan, Algorithms 4.3/4.4, Theorem 4.2);
//! * the **maximum-average** and **maximum-support** ranges for the
//!   average operator of Section 5 ([`average`]), where `v_i` is a
//!   per-bucket value *sum* instead of a hit count.
//!
//! Supporting modules:
//!
//! * [`naive`] — O(M²) exhaustive references with identical tie-breaking
//!   (the baselines of Figures 10/11 and the ground truth for tests);
//! * [`twopointer`] — a simpler O(M) alternative for the confidence
//!   problem (incremental lower hull + monotone pointer), used as an
//!   ablation against the paper's hull-tree algorithm;
//! * [`kadane`] — Bentley's max-gain range and the demonstration that it
//!   does **not** solve the optimized-support problem (Section 4.2's
//!   closing remark);
//! * [`ratio`] — exact rational thresholds so that optimality is decided
//!   by integer cross-multiplication, never floating-point division;
//! * [`approx`] — the bucket-granularity error bounds of Section 3.4
//!   (Table I);
//! * [`shared`], [`exec`], [`cache`], [`query`] — end-to-end mining
//!   sessions: a long-lived [`SharedEngine`] (`&self`, `Send + Sync`,
//!   serves concurrent query traffic) owning the relation, queried
//!   with [`spec::QuerySpec`]s (the paper's "hundreds of attributes"
//!   interactive scenario, §1.3). Execution is **one
//!   [`exec::Executor`] with two sources**: the executor owns the
//!   bounded, sharded, cost-aware bucketization/scan cache,
//!   singleflight, plan fan-out and rule assembly, and reaches the rows
//!   through the three-method [`exec::CountSource`] trait — implemented
//!   locally by `SharedEngine` (a pinned relation version and the
//!   counting kernels) and remotely by the `optrules-coord`
//!   coordinator (a shard set). The relation is **live**: appends
//!   produce atomically-swapped generations, every query pins one
//!   (snapshot isolation), and generation-tagged cache keys age stale
//!   entries out with no invalidation
//!   ([`SharedEngine::append_rows`](shared::SharedEngine::append_rows));
//! * [`spec`], [`plan`], [`json`] — the declarative layer: plain-data
//!   `Eq + Hash` [`spec::QuerySpec`]s, a batch planner that
//!   deduplicates shared work units across many specs
//!   ([`SharedEngine::run_batch`](shared::SharedEngine::run_batch)),
//!   and a dependency-free JSON request/response protocol;
//! * [`server`] — the network face: a dependency-free TCP server
//!   (`optrules serve`) keeping one `SharedEngine` warm across
//!   arbitrarily many client connections, with bounded accept/batch
//!   concurrency, stats/shutdown control frames, and graceful drain;
//! * [`rule`] — shared rule/range types;
//! * [`region2d`] — the §1.4 extension to two numeric attributes with
//!   rectangular regions (O(nx²·ny) over an nx × ny bucket grid).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod average;
pub mod cache;
pub mod confidence;
pub mod error;
pub mod exec;
pub mod json;
pub mod kadane;
pub mod naive;
pub mod plan;
pub mod query;
pub mod ratio;
pub mod region2d;
pub mod report;
pub mod rule;
pub mod server;
pub mod shared;
pub mod spec;
pub mod support;
pub mod twopointer;

pub use cache::{CacheConfig, ShardStats};
pub use confidence::optimize_confidence;
pub use error::CoreError;
pub use exec::{CountSource, EngineStats, Executor};
pub use plan::Plan;
pub use query::{AvgRule, Rule, RuleSet, Task};
pub use ratio::Ratio;
pub use region2d::GridCounts;
pub use rule::{OptRange, RangeRule, RectRule, RuleKind};
pub use server::{ServerConfig, ServerHandle};
pub use shared::{AppendOutcome, EngineConfig, Pinned, SharedEngine, StatsSnapshot};
pub use spec::{CondSpec, ObjectiveSpec, QuerySpec, Real};
pub use support::optimize_support;
