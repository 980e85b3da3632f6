//! Batch planning: compile many [`QuerySpec`]s into a [`Plan`] whose
//! nodes are the *deduplicated* shared work units.
//!
//! The paper's §1.3 workload is a stream of related queries over one
//! relation, and its expensive steps are shared, not per-query: a
//! bucketization depends only on `(attr, buckets, samples, seed)`, a
//! counting scan on the bucketization plus *what* is counted. The
//! planner makes that sharing explicit ahead of time instead of
//! relying on cache hits at run time:
//!
//! 1. **resolve** — each spec's names are resolved against the schema
//!    and its thresholds validated, producing a [`ResolvedQuery`]
//!    holding the exact cache keys it needs;
//! 2. **deduplicate** — distinct [`BucketKey`]s become bucket nodes and
//!    distinct [`ScanKey`]s become scan nodes, each listed once no
//!    matter how many queries share it;
//! 3. **execute** ([`Executor::run_plan`]) — nodes run once each
//!    across scoped worker threads (phase 1: bucketizations, phase 2:
//!    scans and grids), then every query is assembled from the warm
//!    cache in input order, so the output is deterministic and
//!    byte-identical to running the specs sequentially at any thread
//!    count. The executor reaches the rows through a
//!    [`CountSource`](crate::exec::CountSource), so the same plan runs
//!    over a local relation ([`SharedEngine::run_batch`]) or a shard
//!    set (the coordinator's `run_segment`) — the plan itself never
//!    knows which.
//!
//! Specs that fail to resolve contribute no nodes and carry their
//! error through to the per-query result slot — one bad request in a
//! batch fails alone.
//!
//! [`BucketKey`]: crate::shared::BucketKey
//! [`ScanKey`]: crate::shared::ScanKey
//! [`SharedEngine::run_batch`]: crate::shared::SharedEngine::run_batch
//! [`Executor::run_plan`]: crate::exec::Executor::run_plan

use crate::error::{CoreError, Result};
use crate::json::{MAX_BUCKETS, MAX_GRID_CELLS, MAX_SAMPLE, MAX_THREADS};
use crate::query::{AvgRule, Rule, RuleSet, Task};
use crate::ratio::Ratio;
use crate::region2d::{self, GridCounts, Rect};
use crate::rule::{AvgRange, RangeRule, RectRule, RuleKind};
use crate::shared::{
    grid_fingerprint, spec_fingerprint, BucketKey, EngineConfig, GridKey, ScanKey, ScanWhat,
};
use crate::spec::{resolve_conjunction, ObjectiveSpec, QuerySpec};
use crate::{average, confidence, support};
use optrules_bucketing::{BucketCounts, CountSpec};
use optrules_relation::{Condition, Schema};
use std::collections::HashSet;

/// How a resolved query turns its scan's counts into rules.
#[derive(Debug, Clone)]
pub enum Assemble {
    /// Boolean objective: optimize over `v = bool_v[v_index]`.
    Boolean {
        /// Index of the query's target series in the scan's `bool_v`.
        v_index: usize,
    },
    /// Section 5 average objective: optimize over `sums[0]`.
    Average,
    /// Section 1.4 two-attribute objective: optimize rectangles over a
    /// [`GridCounts`] (assembled via [`assemble_rect`], not
    /// [`assemble`]).
    Rect,
}

/// The grid half of a §1.4 rectangle query's resolution: the y-axis
/// bucketization (the x-axis key is [`ResolvedQuery::key`]) and the
/// resolved conditions the grid scan counts with.
#[derive(Debug, Clone)]
pub struct GridPart {
    /// The y-axis bucketization this query reads.
    pub y_key: BucketKey,
    /// Display name of the y-axis attribute.
    pub y_attr_name: String,
    /// Resolved presumptive condition (`u` counts rows matching it).
    pub presumptive: Condition,
    /// Resolved objective condition (`v` counts rows also matching it).
    pub objective: Condition,
}

/// One spec resolved against a schema and engine defaults: the cache
/// keys it needs, the counting spec to run on a cold scan, and the
/// thresholds/task for assembly.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// The bucketization this query reads.
    pub key: BucketKey,
    /// Scan parallelism (part of the scan-cache key).
    pub threads: usize,
    /// What the counting scan counts (part of the scan-cache key).
    pub what: ScanWhat,
    /// The counting spec for a cold scan; `None` means the shared
    /// all-Booleans scan (built from the schema on demand).
    pub count_spec: Option<CountSpec>,
    /// How the scan's counts become rules.
    pub assemble: Assemble,
    /// Display name of the bucketized attribute.
    pub attr_name: String,
    /// Display form of the objective (and presumptive condition).
    pub objective_desc: String,
    /// Minimum support threshold for assembly.
    pub min_support: Ratio,
    /// Minimum confidence threshold for assembly.
    pub min_confidence: Ratio,
    /// Minimum average threshold for assembly (average objectives).
    pub min_average: f64,
    /// Which optimizations to run.
    pub task: Task,
    /// The grid half of a §1.4 rectangle query; `None` for 1-D queries.
    pub grid: Option<GridPart>,
}

impl ResolvedQuery {
    /// The scan-cache key this query reads.
    pub fn scan_key(&self) -> ScanKey {
        ScanKey {
            bucket: self.key,
            threads: self.threads,
            what: self.what.clone(),
        }
    }

    /// The grid-cache key this query reads (§1.4 rectangle queries
    /// only). Unlike [`ScanKey`] there is no `threads` component: the
    /// grid scan is sequential and its artifact holds only integer
    /// counts and min/max folds, so it is identical at every worker
    /// count.
    pub fn grid_key(&self) -> Option<GridKey> {
        self.grid.as_ref().map(|part| GridKey {
            x: self.key,
            y: part.y_key,
            what: self.what.clone(),
        })
    }
}

/// Integer square root (floor), for splitting a 1-D cell budget evenly
/// across the two grid axes.
fn isqrt(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut r = (n as f64).sqrt() as usize;
    while r.saturating_mul(r) > n {
        r -= 1;
    }
    while (r + 1).saturating_mul(r + 1) <= n {
        r += 1;
    }
    r
}

/// Rejects a resource-amplifying setting: one request line must not be
/// able to claim unbounded threads or memory (a spec is outside input
/// wherever it is resolved — `batch`, `serve` and `coord` alike).
fn within(what: &str, value: u64, max: u64) -> Result<()> {
    if value > max {
        return Err(CoreError::BadRequest(format!(
            "{what} {value} exceeds the limit of {max}"
        )));
    }
    Ok(())
}

/// Bounds the thread count, bucket count and Algorithm 3.1 sample size
/// a query may ask for.
fn check_limits(threads: usize, key: &BucketKey) -> Result<()> {
    within("\"threads\"", threads as u64, MAX_THREADS as u64)?;
    within("\"buckets\"", key.buckets as u64, MAX_BUCKETS as u64)?;
    within(
        "\"buckets\" × \"samples_per_bucket\"",
        (key.buckets as u64).saturating_mul(key.samples_per_bucket),
        MAX_SAMPLE,
    )
}

/// Resolves one spec against a schema and engine defaults: names →
/// handles, descriptions rendered, defaults applied, thresholds
/// validated. Pure — no scan runs and no cache is touched;
/// `generation` only lands in the cache keys so the query reads (and
/// computes) that generation's artifacts. Taking the schema and config
/// rather than an engine lets a coordinator plan against remote shards
/// it never holds an engine for.
pub fn resolve(
    schema: &Schema,
    config: &EngineConfig,
    generation: u64,
    spec: &QuerySpec,
) -> Result<ResolvedQuery> {
    let attr = schema.numeric(&spec.attr)?;
    let attr_name = schema.numeric_name(attr).to_string();
    let presumptive = resolve_conjunction(&spec.given, schema)?;

    enum Objective {
        Condition(Condition),
        Average(optrules_relation::NumAttr),
    }
    let objective = match &spec.objective {
        ObjectiveSpec::Bool { target } => {
            Objective::Condition(Condition::BoolIs(schema.boolean(target)?, true))
        }
        ObjectiveSpec::Cond { all } => Objective::Condition(resolve_conjunction(all, schema)?),
        ObjectiveSpec::Average { target } => Objective::Average(schema.numeric(target)?),
    };

    // A threshold that the query kind can never read is a mistake, not
    // a no-op — reject it instead of silently dropping it.
    match &objective {
        Objective::Condition(_) if spec.min_average.is_some() => {
            return Err(CoreError::BadThreshold(
                "min_average applies only to average_of queries".into(),
            ));
        }
        Objective::Average(_) if spec.min_confidence.is_some() => {
            return Err(CoreError::BadThreshold(
                "min_confidence applies only to boolean-objective queries \
                 (average queries constrain with min_support / min_average)"
                    .into(),
            ));
        }
        _ => {}
    }

    // Two-attribute (§1.4) rectangle queries bucketize both axes and
    // count into a shared grid instead of a 1-D counting scan.
    if let Some(attr2) = &spec.attr2 {
        let y_attr = schema.numeric(attr2)?;
        let objective = match objective {
            Objective::Condition(c) => c,
            Objective::Average(_) => {
                return Err(CoreError::BadThreshold(
                    "average_of objectives are one-dimensional; two-attribute \
                     (attr2) queries take a boolean or conjunction objective"
                        .into(),
                ));
            }
        };
        // Per-axis bucket budget: an explicit `buckets` applies to each
        // axis directly; the engine default is a 1-D cell budget, so
        // each axis gets its integer square root (min 1) and the grid
        // holds about as many cells as a 1-D scan has buckets.
        let per_axis = spec.buckets.unwrap_or_else(|| isqrt(config.buckets)).max(1);
        let samples_per_bucket = spec.samples_per_bucket.unwrap_or(config.samples_per_bucket);
        let seed = spec.seed.unwrap_or(config.seed);
        let key = BucketKey {
            attr,
            buckets: per_axis,
            samples_per_bucket,
            seed,
            generation,
        };
        let y_key = BucketKey {
            attr: y_attr,
            buckets: per_axis,
            samples_per_bucket,
            seed,
            generation,
        };
        let threads = spec.threads.unwrap_or(config.threads);
        check_limits(threads, &key)?;
        within(
            "\"buckets\" squared (the rectangle grid's cells)",
            (per_axis as u64).saturating_mul(per_axis as u64),
            MAX_GRID_CELLS as u64,
        )?;
        let objective_desc = match &presumptive {
            Condition::True => objective.display(schema),
            p => format!("{} | {}", objective.display(schema), p.display(schema)),
        };
        return Ok(ResolvedQuery {
            key,
            threads,
            what: grid_fingerprint(&presumptive, &objective),
            count_spec: None,
            assemble: Assemble::Rect,
            attr_name,
            objective_desc,
            min_support: spec.min_support.unwrap_or(config.min_support),
            min_confidence: spec.min_confidence.unwrap_or(config.min_confidence),
            min_average: 0.0,
            task: spec.task,
            grid: Some(GridPart {
                y_key,
                y_attr_name: schema.numeric_name(y_attr).to_string(),
                presumptive,
                objective,
            }),
        });
    }

    let key = BucketKey {
        attr,
        buckets: spec.buckets.unwrap_or(config.buckets),
        samples_per_bucket: spec.samples_per_bucket.unwrap_or(config.samples_per_bucket),
        seed: spec.seed.unwrap_or(config.seed),
        generation,
    };
    let threads = spec.threads.unwrap_or(config.threads);
    check_limits(threads, &key)?;
    let min_support = spec.min_support.unwrap_or(config.min_support);
    let min_confidence = spec.min_confidence.unwrap_or(config.min_confidence);
    let min_average = spec.min_average.map_or(0.0, |r| r.get());

    let (what, count_spec, assemble, objective_desc) = match objective {
        Objective::Condition(objective) => {
            let desc = match &presumptive {
                Condition::True => objective.display(schema),
                p => format!("{} | {}", objective.display(schema), p.display(schema)),
            };
            // Simple queries — no presumptive condition, objective
            // `(B = yes)` — share one scan counting every Boolean
            // attribute (the §6.1 all-pairs trick).
            let shared_target = match (&presumptive, &objective) {
                (Condition::True, Condition::BoolIs(b, true)) if spec.scan_all_booleans => Some(*b),
                _ => None,
            };
            match shared_target {
                Some(b) => (
                    ScanWhat::AllBooleans,
                    None,
                    Assemble::Boolean { v_index: b.0 },
                    desc,
                ),
                None => {
                    // The objective must be evaluated together with the
                    // presumptive condition so v counts the conjunction.
                    let combined = presumptive.clone().and(objective);
                    let count_spec = CountSpec {
                        attr,
                        presumptive,
                        bool_targets: vec![combined],
                        sum_targets: Vec::new(),
                    };
                    (
                        spec_fingerprint(&count_spec),
                        Some(count_spec),
                        Assemble::Boolean { v_index: 0 },
                        desc,
                    )
                }
            }
        }
        Objective::Average(target) => {
            let desc = match &presumptive {
                Condition::True => format!("avg({})", schema.numeric_name(target)),
                p => format!(
                    "avg({}) | {}",
                    schema.numeric_name(target),
                    p.display(schema)
                ),
            };
            let count_spec = CountSpec {
                attr,
                presumptive,
                bool_targets: Vec::new(),
                sum_targets: vec![target],
            };
            (
                spec_fingerprint(&count_spec),
                Some(count_spec),
                Assemble::Average,
                desc,
            )
        }
    };

    Ok(ResolvedQuery {
        key,
        threads,
        what,
        count_spec,
        assemble,
        attr_name,
        objective_desc,
        min_support,
        min_confidence,
        min_average,
        task: spec.task,
        grid: None,
    })
}

/// Turns a scan's (compacted) counts into the query's [`RuleSet`] —
/// O(M) optimizer work, no relation access.
pub fn assemble(resolved: &ResolvedQuery, counts: &BucketCounts) -> Result<RuleSet> {
    let total_rows = counts.total_rows;
    let mut rules = Vec::new();
    if counts.bucket_count() > 0 {
        match &resolved.assemble {
            Assemble::Boolean { v_index } => {
                let u = &counts.u;
                let v = &counts.bool_v[*v_index];
                if matches!(resolved.task, Task::OptimizeSupport | Task::Both) {
                    if let Some(r) = support::optimize_support(u, v, resolved.min_confidence)? {
                        rules.push(Rule::Range(instantiate(
                            RuleKind::OptimizedSupport,
                            r.s,
                            r.t,
                            r.sup_count,
                            r.hits,
                            counts,
                            total_rows,
                        )));
                    }
                }
                if matches!(resolved.task, Task::OptimizeConfidence | Task::Both) {
                    let w = resolved.min_support.min_count(total_rows);
                    if let Some(r) = confidence::optimize_confidence(u, v, w)? {
                        rules.push(Rule::Range(instantiate(
                            RuleKind::OptimizedConfidence,
                            r.s,
                            r.t,
                            r.sup_count,
                            r.hits,
                            counts,
                            total_rows,
                        )));
                    }
                }
            }
            Assemble::Average => {
                let to_rule = |kind: RuleKind, r: AvgRange| {
                    Rule::Average(AvgRule {
                        kind,
                        bucket_range: (r.s, r.t),
                        value_range: (counts.ranges[r.s].0, counts.ranges[r.t].1),
                        sup_count: r.sup_count,
                        sum: r.sum,
                        total_rows,
                    })
                };
                if matches!(resolved.task, Task::OptimizeSupport | Task::Both) {
                    if let Some(r) = average::maximum_support_range(
                        &counts.u,
                        &counts.sums[0],
                        resolved.min_average,
                    )? {
                        rules.push(to_rule(RuleKind::MaximumSupportAverage, r));
                    }
                }
                if matches!(resolved.task, Task::OptimizeConfidence | Task::Both) {
                    let w = resolved.min_support.min_count(total_rows);
                    if let Some(r) = average::maximum_average_range(&counts.u, &counts.sums[0], w)?
                    {
                        rules.push(to_rule(RuleKind::MaximumAverage, r));
                    }
                }
            }
            Assemble::Rect => {
                unreachable!("rectangle queries assemble from grids via assemble_rect")
            }
        }
    }
    Ok(RuleSet {
        attr_name: resolved.attr_name.clone(),
        attr2: None,
        objective_desc: resolved.objective_desc.clone(),
        rules,
        buckets_used: counts.bucket_count(),
        total_rows,
    })
}

/// Turns a grid's counts into a §1.4 rectangle query's [`RuleSet`] —
/// O(nx²·ny) optimizer work, no relation access. The counterpart of
/// [`assemble`] for queries whose [`ResolvedQuery::grid`] is set.
///
/// # Errors
///
/// Propagates optimizer errors (cannot occur for well-formed grids).
///
/// # Panics
///
/// Panics if called on a one-dimensional query.
pub fn assemble_rect(resolved: &ResolvedQuery, grid: &GridCounts) -> Result<RuleSet> {
    let part = resolved
        .grid
        .as_ref()
        .expect("assemble_rect called on a one-dimensional query");
    let total_rows = grid.total_rows;
    let mut rules = Vec::new();
    if matches!(resolved.task, Task::OptimizeSupport | Task::Both) {
        if let Some(r) = region2d::optimize_support_rectangle(grid, resolved.min_confidence)? {
            rules.push(Rule::Rect(instantiate_rect(
                RuleKind::RectSupport,
                r,
                grid,
                total_rows,
            )));
        }
    }
    if matches!(resolved.task, Task::OptimizeConfidence | Task::Both) {
        let w = resolved.min_support.min_count(total_rows);
        if let Some(r) = region2d::optimize_confidence_rectangle(grid, w)? {
            rules.push(Rule::Rect(instantiate_rect(
                RuleKind::RectConfidence,
                r,
                grid,
                total_rows,
            )));
        }
    }
    Ok(RuleSet {
        attr_name: resolved.attr_name.clone(),
        attr2: Some(part.y_attr_name.clone()),
        objective_desc: resolved.objective_desc.clone(),
        rules,
        buckets_used: grid.nx() * grid.ny(),
        total_rows,
    })
}

/// Maps a [`Rect`]'s bucket spans back to observed attribute values by
/// folding the per-bucket ranges over each span. The fold treats the
/// empty-bucket `(∞, −∞)` sentinel as neutral, and a reported rectangle
/// always holds at least one tuple, so the result is always finite.
fn instantiate_rect(kind: RuleKind, r: Rect, grid: &GridCounts, total_rows: u64) -> RectRule {
    let fold = |ranges: &[(f64, f64)], a: usize, b: usize| {
        ranges[a..=b]
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(l, h)| {
                (lo.min(l), hi.max(h))
            })
    };
    RectRule {
        kind,
        x_bucket_range: (r.x1, r.x2),
        y_bucket_range: (r.y1, r.y2),
        x_value_range: fold(&grid.x_ranges, r.x1, r.x2),
        y_value_range: fold(&grid.y_ranges, r.y1, r.y2),
        sup_count: r.sup_count,
        hits: r.hits,
        total_rows,
    }
}

fn instantiate(
    kind: RuleKind,
    s: usize,
    t: usize,
    sup_count: u64,
    hits: u64,
    counts: &BucketCounts,
    total_rows: u64,
) -> RangeRule {
    RangeRule {
        kind,
        bucket_range: (s, t),
        value_range: (counts.ranges[s].0, counts.ranges[t].1),
        sup_count,
        hits,
        total_rows,
    }
}

/// One deduplicated counting-scan work unit of a [`Plan`].
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// The scan-cache key this node fills (bucketization, worker
    /// count, and what is counted).
    pub key: ScanKey,
    /// The counting spec; `None` means the shared all-Booleans scan.
    pub count_spec: Option<CountSpec>,
}

/// One deduplicated §1.4 grid-counting work unit of a [`Plan`]: a
/// single sequential scan filling an `nx × ny` cell grid that every
/// rectangle query over the same axes and conditions shares.
#[derive(Debug, Clone)]
pub struct GridNode {
    /// The grid-cache key this node fills (both axis bucketizations
    /// plus the condition fingerprint).
    pub key: GridKey,
    /// Resolved presumptive condition (`u` counts rows matching it).
    pub presumptive: Condition,
    /// Resolved objective condition (`v` counts rows also matching it).
    pub objective: Condition,
}

/// A compiled batch: the deduplicated work units of many specs, plus
/// one assembly recipe (or resolution error) per input spec, in input
/// order.
///
/// Produced by
/// [`SharedEngine::plan_batch`](crate::shared::SharedEngine::plan_batch)
/// and executed by
/// [`Executor::run_plan`](crate::exec::Executor::run_plan).
/// The node counts tell you what a batch will actually cost before
/// running it: `N` specs over one attribute at one configuration are
/// one bucket node and one scan node, however large `N` is.
#[derive(Debug)]
pub struct Plan {
    /// Deduplicated bucketization work units.
    pub buckets: Vec<BucketKey>,
    /// Deduplicated counting-scan work units.
    pub scans: Vec<ScanNode>,
    /// Deduplicated §1.4 grid-counting work units.
    pub grids: Vec<GridNode>,
    /// One assembly recipe (or resolution error) per input spec, in
    /// input order.
    pub queries: Vec<Result<ResolvedQuery>>,
}

impl Plan {
    /// Compiles a batch of specs against a schema and engine defaults,
    /// keyed to the relation generation `generation`. Never touches
    /// relation data or any cache.
    pub fn compile(
        schema: &Schema,
        config: &EngineConfig,
        generation: u64,
        specs: &[QuerySpec],
    ) -> Plan {
        let mut buckets = Vec::new();
        let mut seen_buckets = HashSet::new();
        let mut scans: Vec<ScanNode> = Vec::new();
        let mut seen_scans = HashSet::new();
        let mut grids: Vec<GridNode> = Vec::new();
        let mut seen_grids = HashSet::new();
        let queries: Vec<Result<ResolvedQuery>> = specs
            .iter()
            .map(|spec| {
                let resolved = resolve(schema, config, generation, spec)?;
                if seen_buckets.insert(resolved.key) {
                    buckets.push(resolved.key);
                }
                if let Some(part) = &resolved.grid {
                    // Rectangle queries need both axis bucketizations
                    // (shareable with 1-D queries over the same attr)
                    // plus one grid scan instead of a counting scan.
                    if seen_buckets.insert(part.y_key) {
                        buckets.push(part.y_key);
                    }
                    let key = resolved.grid_key().expect("grid part implies grid key");
                    if seen_grids.insert(key.clone()) {
                        grids.push(GridNode {
                            key,
                            presumptive: part.presumptive.clone(),
                            objective: part.objective.clone(),
                        });
                    }
                } else {
                    let key = resolved.scan_key();
                    if seen_scans.insert(key.clone()) {
                        scans.push(ScanNode {
                            key,
                            count_spec: resolved.count_spec.clone(),
                        });
                    }
                }
                Ok(resolved)
            })
            .collect();
        Plan {
            buckets,
            scans,
            grids,
            queries,
        }
    }

    /// Number of distinct bucketization work units.
    pub fn bucket_nodes(&self) -> usize {
        self.buckets.len()
    }

    /// Number of distinct counting-scan work units.
    pub fn scan_nodes(&self) -> usize {
        self.scans.len()
    }

    /// Number of distinct §1.4 grid-counting work units.
    pub fn grid_nodes(&self) -> usize {
        self.grids.len()
    }

    /// Number of input specs (queries to assemble), including ones
    /// whose resolution failed.
    pub fn queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of input specs that failed to resolve (unknown names,
    /// invalid thresholds); they surface their error in the batch
    /// result without blocking the rest.
    pub fn resolution_errors(&self) -> usize {
        self.queries.iter().filter(|q| q.is_err()).count()
    }
}
