//! What a query returns: the [`RuleSet`] of one
//! [`QuerySpec`](crate::spec::QuerySpec), and the [`Task`] that picks
//! its optimizations.
//!
//! A spec states one optimized-range question in the paper's
//! vocabulary, in one of three forms:
//!
//! * **boolean objective** — `(A ∈ I) ⇒ C2` (Sections 2–4):
//!   [`QuerySpec::boolean`](crate::spec::QuerySpec::boolean);
//! * **generalized rules** — `(A ∈ I) ∧ C1 ⇒ C2` (§4.3): add
//!   [`QuerySpec::given`](crate::spec::QuerySpec::given);
//! * **average operator** — `avg(B)` over ranges of `A` (Section 5):
//!   [`QuerySpec::average`](crate::spec::QuerySpec::average).
//!
//! A [`Task`] picks which optimization(s) to run, and every form
//! returns the same [`RuleSet`] type. For boolean objectives the two
//! optimizations are the paper's optimized-support and
//! optimized-confidence rules; for the average operator they are the
//! maximum-support and maximum-average ranges — the same
//! maximize-A-subject-to-B duality, so they share the [`Task`] names.

use crate::rule::{RangeRule, RectRule, RuleKind};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;
    use crate::shared::{EngineConfig, SharedEngine};
    use crate::spec::{CondSpec, QuerySpec};
    use optrules_relation::gen::{BankGenerator, DataGenerator, RetailGenerator};
    use optrules_relation::{Condition, TupleScan};

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
            .run_spec(
                &QuerySpec::boolean("Amount", "Potato")
                    .given(CondSpec::from_condition(&pizza, &schema))
                    .task(Task::OptimizeSupport),
            )
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
            .run_spec(&QuerySpec::boolean("Amount", "Potato").task(Task::OptimizeSupport))
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
            .run_spec(&QuerySpec::average("CheckingAccount", "SavingAccount").min_average(14_000.0))
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
        let spec = QuerySpec::boolean("Balance", "CardLoan");
        let both = engine.run_spec(&spec).unwrap();
        assert!(both.optimized_support().is_some());
        assert!(both.optimized_confidence().is_some());
        let sup_only = engine
            .run_spec(&spec.clone().task(Task::OptimizeSupport))
            .unwrap();
        assert!(sup_only.optimized_support().is_some());
        assert!(sup_only.optimized_confidence().is_none());
        let conf_only = engine
            .run_spec(&spec.task(Task::OptimizeConfidence))
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
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        let par = engine
            .run_spec(&QuerySpec {
                threads: Some(4),
                ..QuerySpec::boolean("Balance", "CardLoan")
            })
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
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan").min_average(5_000.0))
            .unwrap_err();
        assert!(err.to_string().contains("min_average"), "{err}");
        let avg = QuerySpec::average("CheckingAccount", "SavingAccount");
        let err = engine
            .run_spec(&avg.clone().min_confidence_pct(90))
            .unwrap_err();
        assert!(err.to_string().contains("min_confidence"), "{err}");
        // The valid combinations still work.
        assert!(engine
            .run_spec(&avg.min_support_pct(5).min_average(1_000.0))
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
        let avg = QuerySpec::average("CheckingAccount", "SavingAccount");

        let unfiltered = engine.run_spec(&avg).unwrap();
        let filtered = engine
            .run_spec(&avg.clone().given(CondSpec::from_condition(&loan, &schema)))
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
        let never = Condition::NumInRange(schema.numeric("Balance").unwrap(), 1.0, 0.0);
        let empty = engine
            .run_spec(&avg.given(CondSpec::from_condition(&never, &schema)))
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
            .run_spec(&QuerySpec::boolean("Balance", "CardLoan"))
            .unwrap();
        let narrow = engine
            .run_spec(&QuerySpec {
                scan_all_booleans: false,
                ..QuerySpec::boolean("Balance", "CardLoan")
            })
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
            .run_spec(
                &QuerySpec::boolean("Amount", "Potato")
                    .given(CondSpec::from_condition(&pizza, &schema))
                    .given(CondSpec::from_condition(&coke, &schema))
                    .buckets(20),
            )
            .unwrap();
        assert!(rs.objective_desc.contains("Pizza"), "{}", rs.objective_desc);
        assert!(rs.objective_desc.contains("Coke"), "{}", rs.objective_desc);
    }
}
