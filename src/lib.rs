//! # optrules
//!
//! A Rust implementation of **"Mining Optimized Association Rules for
//! Numeric Attributes"** (Fukuda, Morimoto, Morishita, Tokuyama —
//! PODS 1996; journal version JCSS 58(1), 1999).
//!
//! Given a relation with numeric and Boolean attributes, `optrules`
//! finds rules of the form `(A ∈ [v1, v2]) ⇒ C` with an *optimized*
//! range:
//!
//! * the **optimized-support rule** maximizes the range's support among
//!   ranges whose confidence clears a threshold;
//! * the **optimized-confidence rule** maximizes confidence among
//!   ranges whose support clears a threshold.
//!
//! Both run in O(M) time over M buckets; buckets are built *without
//! sorting the relation* via randomized almost-equi-depth bucketing
//! (sort a 40·M random sample, cut at its quantiles, then one counting
//! scan).
//!
//! See the repository `README.md` for the crate map, CLI usage, and
//! the paper citation.
//!
//! ## Quick start
//!
//! Mining is a session: a [`SharedEngine`](core::shared::SharedEngine)
//! owns the relation and caches bucketizations and counting scans, so
//! repeated queries — the paper's §1.3 interactive scenario — skip the
//! O(N) work. Queries take `&self` (share the engine across threads by
//! reference) and are plain-data [`QuerySpec`](core::spec::QuerySpec)
//! values:
//!
//! ```
//! use optrules::prelude::*;
//!
//! // Build a small relation: balance + card-loan flag.
//! let schema = Schema::builder().numeric("Balance").boolean("CardLoan").build();
//! let mut rel = Relation::new(schema);
//! for i in 0..1000u64 {
//!     let balance = (i % 100) as f64 * 100.0;
//!     // Customers with balances in [3000, 7000] often take card loans.
//!     let loan = (3000.0..=7000.0).contains(&balance) && i % 3 != 0;
//!     rel.push_row(&[balance], &[loan]).unwrap();
//! }
//!
//! let engine = SharedEngine::with_config(
//!     rel,
//!     EngineConfig { buckets: 50, ..EngineConfig::default() },
//! );
//!
//! // The optimized-support rule: widest band at ≥ 60 % confidence.
//! let spec = QuerySpec::boolean("Balance", "CardLoan")
//!     .min_support_pct(10)
//!     .min_confidence_pct(60);
//! let rules = engine.run_spec(&spec).unwrap();
//! let rule = rules.optimized_support().expect("confident range exists");
//! assert!(rule.confidence() >= 0.60);
//! println!("{}", rule.describe(&rules.attr_name, &rules.objective_desc));
//!
//! // A follow-up query on the same attribute reuses the cached scan:
//! let again = engine
//!     .run_spec(
//!         &QuerySpec::boolean("Balance", "CardLoan")
//!             .min_support_pct(20)
//!             .task(Task::OptimizeConfidence),
//!     )
//!     .unwrap();
//! assert!(again.optimized_confidence().is_some());
//! assert_eq!(engine.stats().scans, 1);
//! ```
//!
//! Generalized rules add presumptive conjuncts
//! (`.given([cond_spec])`, §4.3); Section 5's average operator is
//! `QuerySpec::average("Attr", "Target").min_average(θ)`; and
//! `QuerySpec::all_pairs(engine.schema())` lists the full numeric ×
//! Boolean sweep, run eagerly by `engine.mine_all_pairs(threads)`.
//!
//! ## Crate map
//!
//! This facade re-exports the workspace crates:
//!
//! * [`relation`] — storage: schemas, in-memory and file-backed
//!   relations, synthetic data generators;
//! * [`stats`] — binomial tails behind the `S = 40·M` sampling rule;
//! * [`geometry`] — convex hull tree and tangent walk (Algorithms
//!   4.1/4.2);
//! * [`bucketing`] — randomized equi-depth bucketing (Algorithm 3.1),
//!   parallel counting (Algorithm 3.2), and the sort-based baselines;
//! * [`core`] — the optimizers, the average-operator ranges
//!   (Section 5), and the [`core::shared::SharedEngine`] session API
//!   queried with [`core::spec::QuerySpec`]s. `SharedEngine` takes `&self`
//!   and is `Send + Sync` for parallel query traffic; underneath it is
//!   one [`core::exec::Executor`] (bounded sharded cache
//!   ([`core::cache`]), singleflight, plan fan-out, rule assembly)
//!   reading rows through a [`core::exec::CountSource`].
//!   The declarative layer on top — the same plain-data specs, the
//!   batch planner ([`core::plan`])
//!   behind `SharedEngine::run_batch`, and the JSON protocol
//!   ([`core::json`]) — makes the engine drivable by other processes
//!   (`optrules batch` on the CLI), and [`core::server`] serves that
//!   protocol over TCP from one long-lived warm engine
//!   (`optrules serve`). The relation is live: `{"cmd":"append"}`
//!   frames push rows into a new atomically-swapped generation
//!   ([`relation::ChunkedRelation`] keeps that O(k) amortized) while
//!   every in-flight query keeps its pinned snapshot — and optionally
//!   *durable*: [`relation::DurableRelation`] backs the live tail with
//!   a write-ahead log and spills it into file segments
//!   (`--data-dir` on the CLI), so acknowledged appends survive a
//!   crash and `optrules serve` resumes where it left off;
//! * [`coord`] — the scatter-gather coordinator (`optrules coord`): a
//!   thin front end running the same `Executor` over a shard-set
//!   `CountSource`: it plans and optimizes centrally but delegates
//!   the data pass (sampling fetches, counting scans) to a set of
//!   `optrules serve` shards over the same NDJSON protocol, merging
//!   per-shard partial bucket counts — answers byte-identical to a
//!   single node over the concatenated rows, with structured
//!   `{"error":{"shard":i,…}}` envelopes when a backend fails;
//! * [`obs`] — dependency-free observability: lock-free log-bucketed
//!   latency [`obs::Histogram`]s (per-shard snapshots merge exactly,
//!   so a coordinator's view composes from its shards'), phase
//!   [`obs::Timer`]s, server gauges, and the NDJSON
//!   [`obs::TraceSink`] behind `--trace-log`/`--slow-query-ms`. Every
//!   layer above records into it; the `{"cmd":"metrics"}` control
//!   frame ([`core::json`]) renders the result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Compiles the Rust snippets in `README.md` as doctests, so the
/// README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use optrules_bucketing as bucketing;
pub use optrules_coord as coord;
pub use optrules_core as core;
pub use optrules_geometry as geometry;
pub use optrules_obs as obs;
pub use optrules_relation as relation;
pub use optrules_stats as stats;

/// One-stop imports for typical mining sessions.
pub mod prelude {
    pub use crate::bucketing::{BucketSpec, CountSpec, EquiDepthConfig, SamplingMethod};
    pub use crate::coord::{CoordConfig, CoordError, Coordinator, ShardSet};
    pub use crate::core::average::{maximum_average_range, maximum_support_range};
    pub use crate::core::{
        optimize_confidence, optimize_support, AppendOutcome, AvgRule, CacheConfig, CondSpec,
        EngineConfig, EngineStats, GridCounts, ObjectiveSpec, OptRange, Pinned, Plan, QuerySpec,
        RangeRule, Ratio, Real, RectRule, Rule, RuleKind, RuleSet, ServerConfig, ServerHandle,
        ShardStats, SharedEngine, StatsSnapshot, Task,
    };
    pub use crate::relation::gen::{
        BankGenerator, DataGenerator, PlantedRangeGenerator, RetailGenerator, UniformWorkload,
    };
    pub use crate::relation::{
        AppendRows, BoolAttr, ChunkedRelation, Condition, Durability, DurabilityConfig,
        DurabilityStats, DurableRelation, FileRelation, FileRelationWriter, NumAttr, RandomAccess,
        Recovery, Relation, RowFrame, Schema, TupleScan, WalSync,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_session_pipeline() {
        let rel = PlantedRangeGenerator::table1().to_relation(2000, 1);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 40,
                min_support: Ratio::percent(10),
                min_confidence: Ratio::percent(60),
                ..EngineConfig::default()
            },
        );
        let rules = engine.run_spec(&QuerySpec::boolean("A", "C")).unwrap();
        assert!(rules.optimized_confidence().is_some());
        assert_eq!(engine.stats().scans, 1);
    }
}
