//! Fluent queries against a [`SharedEngine`] and their [`RuleSet`]
//! results.
//!
//! A [`Query`] describes one optimized-range question in the paper's
//! vocabulary and unifies its three forms:
//!
//! * **boolean objective** — `(A ∈ I) ⇒ C2` (Sections 2–4):
//!   [`Query::objective`] / [`Query::objective_is`];
//! * **generalized rules** — `(A ∈ I) ∧ C1 ⇒ C2` (§4.3): add
//!   [`Query::given`];
//! * **average operator** — `avg(B)` over ranges of `A` (Section 5):
//!   [`Query::average_of`].
//!
//! A [`Task`] picks which optimization(s) to run, and every terminal
//! method returns the same [`RuleSet`] type. For boolean objectives
//! the two optimizations are the paper's optimized-support and
//! optimized-confidence rules; for the average operator they are the
//! maximum-support and maximum-average ranges — the same
//! maximize-A-subject-to-B duality, so they share the [`Task`] names.
//!
//! The builder is a thin front over the declarative layer: it collects
//! a plain-data [`QuerySpec`] (extractable with [`Query::spec`] for
//! batching or the JSON protocol), and its terminal methods hand that
//! spec to [`SharedEngine::run_spec`] — so a fluent query and its spec
//! run through exactly the same resolve → count → assemble path.

use crate::error::{CoreError, Result};
use crate::ratio::Ratio;
use crate::rule::{RangeRule, RectRule, RuleKind};
use crate::shared::SharedEngine;
use crate::spec::{CondSpec, ObjectiveSpec, QuerySpec, Real};
use optrules_relation::{BoolAttr, Condition, NumAttr, RandomAccess};

/// Which optimization(s) a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Task {
    /// Maximize support subject to the quality threshold — the
    /// optimized-support rule (§4.2), or the maximum-support range of
    /// §5 when the objective is an average.
    OptimizeSupport,
    /// Maximize the quality metric subject to the support threshold —
    /// the optimized-confidence rule (§4.1), or the maximum-average
    /// range of §5.
    OptimizeConfidence,
    /// Run both optimizations (the default).
    #[default]
    Both,
}

/// A query's objective, resolved against the schema when it runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// A Boolean condition `C2`: the rule is `(A ∈ I) [∧ C1] ⇒ C2`.
    Condition(Condition),
    /// A Boolean attribute name, sugar for `(name = yes)`.
    ConditionName(String),
    /// Section 5: optimize ranges of the queried attribute by the
    /// average of this numeric target attribute.
    Average(NumAttr),
    /// Like [`Objective::Average`], by attribute name.
    AverageName(String),
}

/// One mined rule: a range rule (boolean objective) or an average rule
/// (Section 5). [`RuleKind`] distinguishes the four optimizations.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// `(A ∈ I) [∧ C1] ⇒ C2` with an optimized range.
    Range(RangeRule),
    /// An optimized range for `avg(B)` over `A`.
    Average(AvgRule),
    /// `((A1, A2) ∈ X) [∧ C1] ⇒ C2` with an optimized rectangle
    /// (the §1.4 two-attribute extension).
    Rect(RectRule),
}

impl Rule {
    /// Which optimization produced this rule.
    pub fn kind(&self) -> RuleKind {
        match self {
            Rule::Range(r) => r.kind,
            Rule::Average(r) => r.kind,
            Rule::Rect(r) => r.kind,
        }
    }

    /// The instantiated attribute-value interval `[v1, v2]` — the
    /// x-axis interval for rectangle rules (see
    /// [`RectRule::y_value_range`] for the other axis).
    pub fn value_range(&self) -> (f64, f64) {
        match self {
            Rule::Range(r) => r.value_range,
            Rule::Average(r) => r.value_range,
            Rule::Rect(r) => r.x_value_range,
        }
    }

    /// The range's support as a fraction of all rows.
    pub fn support(&self) -> f64 {
        match self {
            Rule::Range(r) => r.support(),
            Rule::Average(r) => r.support(),
            Rule::Rect(r) => r.support(),
        }
    }
}

/// A fully instantiated Section 5 rule: bucket span mapped back to
/// attribute values, with the counts needed for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AvgRule {
    /// Which optimization produced this rule ([`RuleKind::MaximumAverage`]
    /// or [`RuleKind::MaximumSupportAverage`]).
    pub kind: RuleKind,
    /// Bucket span in the compacted bucket sequence (0-based, inclusive).
    pub bucket_range: (usize, usize),
    /// Observed attribute-value interval `[v1, v2]` covered by the range.
    pub value_range: (f64, f64),
    /// Tuples in the range.
    pub sup_count: u64,
    /// Sum of the target attribute over the range.
    pub sum: f64,
    /// Relation size the support is measured against.
    pub total_rows: u64,
}

impl AvgRule {
    /// The range's target-attribute average.
    pub fn average(&self) -> f64 {
        if self.sup_count == 0 {
            0.0
        } else {
            self.sum / self.sup_count as f64
        }
    }

    /// Support of the range (fraction of all rows).
    pub fn support(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.sup_count as f64 / self.total_rows as f64
        }
    }

    /// Renders the rule, e.g.
    /// `(CheckingAccount in [1003, 2998]) => avg(SavingAccount) = 14923.1  [support 19.8%]`.
    pub fn describe(&self, attr_name: &str, target_name: &str) -> String {
        format!(
            "({} in [{:.4}, {:.4}]) => avg({}) = {:.4}  [support {:.2}%]",
            attr_name,
            self.value_range.0,
            self.value_range.1,
            target_name,
            self.average(),
            100.0 * self.support(),
        )
    }
}

/// The unified result of one query: every rule the task produced, with
/// the context needed to render them.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Name of the bucketed numeric attribute.
    pub attr_name: String,
    /// Second bucketed attribute for §1.4 rectangle queries; `None`
    /// for 1-D queries.
    pub attr2: Option<String>,
    /// Human-readable objective (and presumptive, if any) description;
    /// `avg(Target)` for average queries.
    pub objective_desc: String,
    /// The rules found, at most one per [`RuleKind`]. Optimizations
    /// whose threshold no range cleared contribute nothing.
    pub rules: Vec<Rule>,
    /// Buckets actually used after compaction.
    pub buckets_used: usize,
    /// Relation row count.
    pub total_rows: u64,
}

impl RuleSet {
    fn range_rule(&self, kind: RuleKind) -> Option<&RangeRule> {
        self.rules.iter().find_map(|r| match r {
            Rule::Range(rr) if rr.kind == kind => Some(rr),
            _ => None,
        })
    }

    fn avg_rule(&self, kind: RuleKind) -> Option<&AvgRule> {
        self.rules.iter().find_map(|r| match r {
            Rule::Average(ar) if ar.kind == kind => Some(ar),
            _ => None,
        })
    }

    fn rect_rule(&self, kind: RuleKind) -> Option<&RectRule> {
        self.rules.iter().find_map(|r| match r {
            Rule::Rect(rr) if rr.kind == kind => Some(rr),
            _ => None,
        })
    }

    /// The optimized-support rule, if any range was confident enough.
    pub fn optimized_support(&self) -> Option<&RangeRule> {
        self.range_rule(RuleKind::OptimizedSupport)
    }

    /// The optimized-confidence rule, if any range was ample enough.
    pub fn optimized_confidence(&self) -> Option<&RangeRule> {
        self.range_rule(RuleKind::OptimizedConfidence)
    }

    /// The maximum-average range (§5), if the support threshold was
    /// feasible.
    pub fn max_average(&self) -> Option<&AvgRule> {
        self.avg_rule(RuleKind::MaximumAverage)
    }

    /// The maximum-support range under the average threshold (§5), if
    /// any range cleared it.
    pub fn max_support_average(&self) -> Option<&AvgRule> {
        self.avg_rule(RuleKind::MaximumSupportAverage)
    }

    /// The support-maximizing rectangle (§1.4), if any rectangle was
    /// confident enough.
    pub fn rect_support(&self) -> Option<&RectRule> {
        self.rect_rule(RuleKind::RectSupport)
    }

    /// The confidence-maximizing rectangle (§1.4), if any rectangle
    /// was ample enough.
    pub fn rect_confidence(&self) -> Option<&RectRule> {
        self.rect_rule(RuleKind::RectConfidence)
    }

    /// Whether no optimization produced a rule.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Renders every rule on its own line (empty string when no rule
    /// cleared its threshold).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            let line = match rule {
                Rule::Range(r) => r.describe(&self.attr_name, &self.objective_desc),
                // objective_desc is already `avg(Target)` (possibly with
                // a `| C1` suffix), so render around it directly instead
                // of through AvgRule::describe's target-name parameter.
                Rule::Average(r) => format!(
                    "({} in [{:.4}, {:.4}]) => {} = {:.4}  [support {:.2}%]",
                    self.attr_name,
                    r.value_range.0,
                    r.value_range.1,
                    self.objective_desc,
                    r.average(),
                    100.0 * r.support(),
                ),
                Rule::Rect(r) => r.describe(
                    &self.attr_name,
                    self.attr2.as_deref().unwrap_or("?"),
                    &self.objective_desc,
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// A fluent query builder; construct with [`SharedEngine::query`] or
/// [`SharedEngine::query_attr`], configure,
/// then finish with [`Query::run`], [`Query::optimize_support`],
/// [`Query::optimize_confidence`], or [`Query::with_task`].
///
/// Thresholds and bucketing parameters default to the engine's
/// [`EngineConfig`](crate::EngineConfig); each can be
/// overridden per query. Overriding bucketing parameters keys separate
/// cache entries, so alternating queries at two bucket counts still hit
/// the cache.
///
/// The builder borrows the session immutably, so any number of
/// queries can be built and run concurrently against one
/// [`SharedEngine`].
pub struct Query<'e, R: RandomAccess> {
    engine: &'e SharedEngine<R>,
    attr: String,
    attr2: Option<String>,
    given: Vec<CondSpec>,
    objective: Option<ObjectiveSpec>,
    min_support: Option<Ratio>,
    min_confidence: Option<Ratio>,
    min_average: Option<f64>,
    buckets: Option<usize>,
    samples_per_bucket: Option<u64>,
    seed: Option<u64>,
    threads: Option<usize>,
    scan_all_booleans: bool,
}

impl<'e, R: RandomAccess> Query<'e, R> {
    pub(crate) fn by_name(engine: &'e SharedEngine<R>, name: String) -> Self {
        Self::new(engine, name)
    }

    pub(crate) fn by_attr(engine: &'e SharedEngine<R>, attr: NumAttr) -> Self {
        let name = engine.schema().numeric_name(attr).to_string();
        Self::new(engine, name)
    }

    fn new(engine: &'e SharedEngine<R>, attr: String) -> Self {
        Self {
            engine,
            attr,
            attr2: None,
            given: Vec::new(),
            objective: None,
            min_support: None,
            min_confidence: None,
            min_average: None,
            buckets: None,
            samples_per_bucket: None,
            seed: None,
            threads: None,
            scan_all_booleans: true,
        }
    }

    /// Pairs a second numeric attribute with the queried one, turning
    /// the query into the §1.4 two-attribute **rectangle** form
    /// `((A1, A2) ∈ X) ⇒ C2` over an equi-depth grid. Only
    /// Boolean/conjunction objectives are valid (not
    /// [`Query::average_of`]); the per-axis bucket count comes from
    /// [`Query::buckets`] when set, else the integer square root of
    /// the engine's default bucket count.
    pub fn and_attr(mut self, attr2: impl Into<String>) -> Self {
        self.attr2 = Some(attr2.into());
        self
    }

    /// Adds a presumptive condition `C1` (§4.3): the rule becomes
    /// `(A ∈ I) ∧ C1 ⇒ C2` and support counts only tuples meeting `C1`
    /// (measured against the full row count). Multiple calls conjoin.
    /// With [`Query::average_of`], the average is likewise taken over
    /// tuples meeting `C1` only.
    pub fn given(mut self, condition: Condition) -> Self {
        self.given
            .extend(CondSpec::from_condition(&condition, self.engine.schema()));
        self
    }

    /// Sets the objective condition `C2`.
    pub fn objective(mut self, condition: Condition) -> Self {
        self.objective = Some(ObjectiveSpec::Cond {
            all: CondSpec::from_condition(&condition, self.engine.schema()),
        });
        self
    }

    /// Sets the objective to `(name = yes)` for a Boolean attribute —
    /// the common case, resolved when the query runs.
    pub fn objective_is(mut self, name: impl Into<String>) -> Self {
        self.objective = Some(ObjectiveSpec::Bool {
            target: name.into(),
        });
        self
    }

    /// Switches the query to the Section 5 average operator: optimize
    /// ranges of the queried attribute by `avg(target)`.
    pub fn average_of(mut self, target: impl Into<String>) -> Self {
        self.objective = Some(ObjectiveSpec::Average {
            target: target.into(),
        });
        self
    }

    /// Like [`Query::average_of`], by attribute handle.
    pub fn average_of_attr(self, target: NumAttr) -> Self {
        let name = self.engine.schema().numeric_name(target).to_string();
        self.average_of(name)
    }

    /// Sets a fully formed [`Objective`].
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = Some(match objective {
            Objective::Condition(cond) => ObjectiveSpec::Cond {
                all: CondSpec::from_condition(&cond, self.engine.schema()),
            },
            Objective::ConditionName(target) => ObjectiveSpec::Bool { target },
            Objective::Average(attr) => ObjectiveSpec::Average {
                target: self.engine.schema().numeric_name(attr).to_string(),
            },
            Objective::AverageName(target) => ObjectiveSpec::Average { target },
        });
        self
    }

    /// Minimum support for the optimized-confidence rule (or the §5
    /// maximum-average range).
    pub fn min_support(mut self, ratio: Ratio) -> Self {
        self.min_support = Some(ratio);
        self
    }

    /// [`Query::min_support`] as a whole-number percentage.
    pub fn min_support_pct(self, pct: u64) -> Self {
        self.min_support(Ratio::percent(pct))
    }

    /// Minimum confidence for the optimized-support rule.
    pub fn min_confidence(mut self, ratio: Ratio) -> Self {
        self.min_confidence = Some(ratio);
        self
    }

    /// [`Query::min_confidence`] as a whole-number percentage. Only
    /// valid for boolean-objective queries; setting it together with
    /// [`Query::average_of`] is an error at run time.
    pub fn min_confidence_pct(self, pct: u64) -> Self {
        self.min_confidence(Ratio::percent(pct))
    }

    /// Minimum target average for the §5 maximum-support range
    /// (default 0.0). Only valid with [`Query::average_of`]; setting it
    /// on a boolean-objective query is an error at run time.
    pub fn min_average(mut self, threshold: f64) -> Self {
        self.min_average = Some(threshold);
        self
    }

    /// Overrides the bucket count `M` for this query.
    pub fn buckets(mut self, buckets: usize) -> Self {
        self.buckets = Some(buckets);
        self
    }

    /// Overrides the samples-per-bucket of Algorithm 3.1 for this query.
    pub fn samples_per_bucket(mut self, samples: u64) -> Self {
        self.samples_per_bucket = Some(samples);
        self
    }

    /// Overrides the sampling seed for this query.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the counting-scan worker count for this query.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Whether a simple boolean query's scan counts **every** Boolean
    /// attribute (default `true`), so later queries on the same numeric
    /// attribute hit the cache with no rescan — the §6.1 all-pairs
    /// trick. Pass `false` for one-shot use (a throwaway engine, or a
    /// relation with very many Boolean attributes none of which will be
    /// queried again): the scan then evaluates only this objective.
    pub fn scan_all_booleans(mut self, share: bool) -> Self {
        self.scan_all_booleans = share;
        self
    }

    /// Runs both optimizations ([`Task::Both`]).
    ///
    /// # Errors
    ///
    /// Fails on unknown attribute names, a missing objective, or
    /// bucketing/storage errors.
    pub fn run(self) -> Result<RuleSet> {
        self.with_task(Task::Both)
    }

    /// Runs only the support-maximizing optimization.
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn optimize_support(self) -> Result<RuleSet> {
        self.with_task(Task::OptimizeSupport)
    }

    /// Runs only the quality-maximizing optimization.
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn optimize_confidence(self) -> Result<RuleSet> {
        self.with_task(Task::OptimizeConfidence)
    }

    /// Finishes building and returns the plain-data [`QuerySpec`]
    /// without running it — for batching
    /// ([`SharedEngine::run_batch`]), storing, or serializing through
    /// the JSON protocol ([`crate::json`]). Running the returned spec
    /// with [`SharedEngine::run_spec`] is identical to calling
    /// [`Query::run`] here.
    ///
    /// # Errors
    ///
    /// Fails if no objective was set. Names stay unresolved — an
    /// unknown attribute surfaces when the spec runs.
    pub fn spec(self) -> Result<QuerySpec> {
        let Some(objective) = self.objective else {
            return Err(CoreError::MissingObjective);
        };
        Ok(QuerySpec {
            attr: self.attr,
            attr2: self.attr2,
            given: self.given,
            objective,
            task: Task::Both,
            min_support: self.min_support,
            min_confidence: self.min_confidence,
            min_average: self.min_average.map(Real),
            buckets: self.buckets,
            samples_per_bucket: self.samples_per_bucket,
            seed: self.seed,
            threads: self.threads,
            scan_all_booleans: self.scan_all_booleans,
        })
    }

    /// Runs the query with an explicit [`Task`].
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn with_task(self, task: Task) -> Result<RuleSet> {
        let engine = self.engine;
        let mut spec = self.spec()?;
        spec.task = task;
        engine.run_spec(&spec)
    }
}

/// Lazy §1.3 sweep over every (numeric, Boolean) attribute pair;
/// created by [`SharedEngine::queries_for_all_pairs`]. Yields one
/// [`RuleSet`] per pair, numeric-major, streaming — advancing the
/// iterator runs at most one counting scan (the first pair of each
/// numeric attribute; the rest hit the scan cache). For the eager
/// multi-threaded sweep, see
/// [`SharedEngine::mine_all_pairs`].
pub struct AllPairs<'e, R: RandomAccess> {
    engine: &'e SharedEngine<R>,
    numeric: Vec<NumAttr>,
    booleans: Vec<BoolAttr>,
    next_index: usize,
}

impl<'e, R: RandomAccess> AllPairs<'e, R> {
    pub(crate) fn new(engine: &'e SharedEngine<R>) -> Self {
        let schema = engine.schema();
        let numeric = schema.numeric_attrs().collect();
        let booleans = schema.boolean_attrs().collect();
        Self {
            engine,
            numeric,
            booleans,
            next_index: 0,
        }
    }
}

impl<R: RandomAccess> Iterator for AllPairs<'_, R> {
    type Item = Result<RuleSet>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.booleans.is_empty() || self.next_index >= self.numeric.len() * self.booleans.len() {
            return None;
        }
        let attr = self.numeric[self.next_index / self.booleans.len()];
        let battr = self.booleans[self.next_index % self.booleans.len()];
        self.next_index += 1;
        Some(
            self.engine
                .query_attr(attr)
                .objective(Condition::BoolIs(battr, true))
                .run(),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.numeric.len() * self.booleans.len() - self.next_index;
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::EngineConfig;
    use optrules_relation::gen::{BankGenerator, DataGenerator, RetailGenerator};
    use optrules_relation::TupleScan;

    #[test]
    fn generalized_rule_needs_conjunct() {
        let rel = RetailGenerator::default().to_relation(60_000, 13);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 150,
                seed: 7,
                min_support: Ratio::percent(2),
                min_confidence: Ratio::percent(65),
                ..EngineConfig::default()
            },
        );
        let schema = engine.relation().schema().clone();
        let pizza = Condition::BoolIs(schema.boolean("Pizza").unwrap(), true);

        let with = engine
            .query("Amount")
            .given(pizza)
            .objective_is("Potato")
            .optimize_support()
            .unwrap();
        let rule = with.optimized_support().expect("band is 65 %-confident");
        assert!(rule.value_range.0 > 20.0 && rule.value_range.0 < 40.0);
        assert!(rule.value_range.1 > 70.0 && rule.value_range.1 < 90.0);
        assert!(
            with.optimized_confidence().is_none(),
            "task was support-only"
        );
        assert!(
            with.objective_desc.contains(" | "),
            "{}",
            with.objective_desc
        );

        let without = engine
            .query("Amount")
            .objective_is("Potato")
            .optimize_support()
            .unwrap();
        assert!(without.optimized_support().is_none());
    }

    #[test]
    fn average_query_finds_planted_band() {
        let rel = BankGenerator::default().to_relation(30_000, 17);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 100,
                seed: 7,
                min_support: Ratio::percent(10),
                ..EngineConfig::default()
            },
        );
        let rules = engine
            .query("CheckingAccount")
            .average_of("SavingAccount")
            .min_average(14_000.0)
            .run()
            .unwrap();
        assert_eq!(rules.objective_desc, "avg(SavingAccount)");
        let avg = rules.max_average().expect("ample range exists");
        assert!(avg.average() > 12_000.0, "avg {}", avg.average());
        assert!(avg.value_range.0 > 500.0 && avg.value_range.1 < 3500.0);
        let sup = rules.max_support_average().expect("band clears 14k");
        assert!(sup.average() >= 14_000.0);
        assert!((sup.support() - 0.20).abs() < 0.04);
        let text = rules.describe();
        assert!(text.contains("avg(SavingAccount)"), "{text}");
        assert!(!text.contains("avg(avg("), "{text}");
    }

    #[test]
    fn task_selects_rules() {
        let rel = BankGenerator::default().to_relation(8_000, 23);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 64,
                seed: 7,
                min_support: Ratio::percent(10),
                min_confidence: Ratio::percent(50),
                ..EngineConfig::default()
            },
        );
        let both = engine
            .query("Balance")
            .objective_is("CardLoan")
            .run()
            .unwrap();
        assert!(both.optimized_support().is_some());
        assert!(both.optimized_confidence().is_some());
        let sup_only = engine
            .query("Balance")
            .objective_is("CardLoan")
            .optimize_support()
            .unwrap();
        assert!(sup_only.optimized_support().is_some());
        assert!(sup_only.optimized_confidence().is_none());
        let conf_only = engine
            .query("Balance")
            .objective_is("CardLoan")
            .optimize_confidence()
            .unwrap();
        assert!(conf_only.optimized_support().is_none());
        assert!(conf_only.optimized_confidence().is_some());
        // All three shared one scan.
        assert_eq!(engine.stats().scans, 1);
        assert_eq!(engine.stats().scan_cache_hits, 2);
    }

    #[test]
    fn parallel_query_matches_sequential() {
        let rel = BankGenerator::default().to_relation(8_000, 23);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 64,
                seed: 7,
                ..EngineConfig::default()
            },
        );
        let seq = engine
            .query("Balance")
            .objective_is("CardLoan")
            .run()
            .unwrap();
        let par = engine
            .query("Balance")
            .objective_is("CardLoan")
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(seq, par);
        // The thread count is part of the scan key (float sums depend
        // on addition order), so the parallel query ran its own scan
        // instead of being served the sequential one's results.
        assert_eq!(engine.stats().scans, 2);
        assert_eq!(engine.stats().scan_cache_hits, 0);
    }

    #[test]
    fn wrong_kind_thresholds_are_rejected() {
        let rel = BankGenerator::default().to_relation(1_000, 1);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 10,
                ..EngineConfig::default()
            },
        );
        let err = engine
            .query("Balance")
            .objective_is("CardLoan")
            .min_average(5_000.0)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("min_average"), "{err}");
        let err = engine
            .query("CheckingAccount")
            .average_of("SavingAccount")
            .min_confidence_pct(90)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("min_confidence"), "{err}");
        // The valid combinations still work.
        assert!(engine
            .query("CheckingAccount")
            .average_of("SavingAccount")
            .min_support_pct(5)
            .min_average(1_000.0)
            .run()
            .is_ok());
    }

    #[test]
    fn average_query_honors_given() {
        let rel = BankGenerator::default().to_relation(10_000, 21);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 50,
                seed: 7,
                min_support: Ratio::percent(5),
                ..EngineConfig::default()
            },
        );
        let schema = engine.relation().schema().clone();
        let loan = Condition::BoolIs(schema.boolean("CardLoan").unwrap(), true);

        let unfiltered = engine
            .query("CheckingAccount")
            .average_of("SavingAccount")
            .run()
            .unwrap();
        let filtered = engine
            .query("CheckingAccount")
            .given(loan.clone())
            .average_of("SavingAccount")
            .run()
            .unwrap();
        assert_eq!(
            filtered.objective_desc, "avg(SavingAccount) | (CardLoan = yes)",
            "presumptive condition must show up in the description"
        );
        // Only a minority of customers hold card loans, so the filtered
        // maximum-average range must cover strictly fewer tuples.
        let unf = unfiltered.max_average().unwrap();
        let fil = filtered.max_average().unwrap();
        assert!(
            fil.sup_count < unf.sup_count,
            "filtered {} vs unfiltered {}",
            fil.sup_count,
            unf.sup_count
        );
        assert!(filtered.describe().contains("| (CardLoan = yes)"));

        // An unsatisfiable presumptive condition leaves nothing to
        // count: no buckets survive compaction and no rules exist.
        let empty = engine
            .query("CheckingAccount")
            .given(Condition::NumInRange(
                schema.numeric("Balance").unwrap(),
                1.0,
                0.0,
            ))
            .average_of("SavingAccount")
            .run()
            .unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.buckets_used, 0);
    }

    #[test]
    fn narrow_scan_gives_identical_rules_without_sharing() {
        let rel = BankGenerator::default().to_relation(6_000, 41);
        let engine = SharedEngine::with_config(
            rel,
            EngineConfig {
                buckets: 50,
                seed: 7,
                ..EngineConfig::default()
            },
        );
        let shared = engine
            .query("Balance")
            .objective_is("CardLoan")
            .run()
            .unwrap();
        let narrow = engine
            .query("Balance")
            .objective_is("CardLoan")
            .scan_all_booleans(false)
            .run()
            .unwrap();
        // Same math, different scan shape: answers must be identical.
        assert_eq!(shared, narrow);
        // The narrow spec is keyed separately, so it ran its own scan
        // (one target) instead of hitting the shared entry.
        assert_eq!(engine.stats().scans, 2);
        assert_eq!(engine.stats().bucketizations, 1);
    }

    #[test]
    fn repeated_given_conjoins() {
        let rel = RetailGenerator::default().to_relation(5_000, 2);
        let engine = SharedEngine::new(rel);
        let schema = engine.relation().schema().clone();
        let pizza = Condition::BoolIs(schema.boolean("Pizza").unwrap(), true);
        let coke = Condition::BoolIs(schema.boolean("Coke").unwrap(), true);
        let rs = engine
            .query("Amount")
            .given(pizza)
            .given(coke)
            .objective_is("Potato")
            .buckets(20)
            .run()
            .unwrap();
        assert!(rs.objective_desc.contains("Pizza"), "{}", rs.objective_desc);
        assert!(rs.objective_desc.contains("Coke"), "{}", rs.objective_desc);
    }
}
