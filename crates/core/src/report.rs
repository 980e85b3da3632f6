//! Text reports for mined results.
//!
//! The paper's system is interactive — an analyst inspects "a complete
//! set of optimized rules for all combinations" (§1.3). This module
//! renders [`RuleSet`] collections as aligned text tables, sorted so
//! the strongest associations surface first, with weak pairs (nothing
//! cleared a threshold, or only noise-level support) pushed down.

use crate::query::RuleSet;
use crate::rule::RangeRule;
use std::fmt::Write as _;

/// How to order pairs in a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortBy {
    /// Strongest optimized-support rule first (largest support).
    #[default]
    Support,
    /// Strongest optimized-confidence rule first (highest confidence).
    Confidence,
    /// Keep the sweep's numeric-major order.
    Unsorted,
}

/// Renders the [`RuleSet`]s of a
/// [`QuerySpec::all_pairs`](crate::QuerySpec::all_pairs) sweep as an
/// aligned table. Pairs with no rule at all are summarized
/// in a trailing count instead of emitting empty rows.
///
/// # Examples
///
/// ```
/// use optrules_core::report::{render_rule_sets, SortBy};
/// let table = render_rule_sets(&[], SortBy::Support);
/// assert!(table.contains("0 rules"));
/// ```
pub fn render_rule_sets(sets: &[RuleSet], sort: SortBy) -> String {
    fn rules_of(set: &RuleSet) -> [Option<&RangeRule>; 2] {
        [set.optimized_support(), set.optimized_confidence()]
    }
    let with_rules: Vec<&RuleSet> = sort_rule_sets(sets, sort)
        .into_iter()
        .filter(|set| rules_of(set).iter().any(Option::is_some))
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<24} {:>24} {:>10} {:>11}  kind",
        "attribute", "objective", "range", "support", "confidence"
    );
    let mut rules = 0;
    for set in &with_rules {
        for (label, rule) in ["sup", "conf"].into_iter().zip(rules_of(set)) {
            if let Some(rule) = rule {
                let _ = writeln!(out, "{}", render_row(set, rule, label));
                rules += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "{} pairs, {rules} rules ({} pairs below thresholds)",
        sets.len(),
        sets.len() - with_rules.len(),
    );
    out
}

/// Orders rule sets the way [`render_rule_sets`] orders its rows
/// (stable, strongest first), without dropping anything — the ordering
/// used by machine-readable output (`--format json`), where
/// below-threshold pairs are emitted rather than summarized.
pub fn sort_rule_sets(sets: &[RuleSet], sort: SortBy) -> Vec<&RuleSet> {
    let mut refs: Vec<&RuleSet> = sets.iter().collect();
    match sort {
        SortBy::Support => sort_descending_by(&mut refs, |s| {
            s.optimized_support().map_or(0.0, RangeRule::support)
        }),
        SortBy::Confidence => sort_descending_by(&mut refs, |s| {
            s.optimized_confidence().map_or(0.0, RangeRule::confidence)
        }),
        SortBy::Unsorted => {}
    }
    refs
}

/// The one descending, stable, NaN-tolerant sort both the text table
/// and the JSON ordering use — keeping their row orders in lockstep.
fn sort_descending_by<T>(items: &mut [&T], key: impl Fn(&T) -> f64) {
    items.sort_by(|a, b| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn render_row(set: &RuleSet, rule: &RangeRule, kind: &str) -> String {
    format!(
        "{:<18} {:<24} [{:>9.2}, {:>9.2}] {:>9.2}% {:>10.2}%  {kind}",
        truncate(&set.attr_name, 18),
        truncate(&set.objective_desc, 24),
        rule.value_range.0,
        rule.value_range.1,
        100.0 * rule.support(),
        100.0 * rule.confidence(),
    )
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Rule;
    use crate::rule::RuleKind;

    fn pair(attr: &str, sup: Option<f64>, conf: Option<f64>) -> RuleSet {
        let mk = |kind, support: f64, confidence: f64| RangeRule {
            kind,
            bucket_range: (0, 1),
            value_range: (1.0, 2.0),
            sup_count: (support * 1000.0) as u64,
            hits: (support * confidence * 1000.0) as u64,
            total_rows: 1000,
        };
        let sup = sup.map(|s| mk(RuleKind::OptimizedSupport, s, 0.6));
        let conf = conf.map(|c| mk(RuleKind::OptimizedConfidence, 0.1, c));
        RuleSet {
            attr_name: attr.to_string(),
            attr2: None,
            objective_desc: "(C = yes)".to_string(),
            rules: sup.into_iter().chain(conf).map(Rule::Range).collect(),
            buckets_used: 10,
            total_rows: 1000,
        }
    }

    #[test]
    fn sorts_by_support() {
        let pairs = vec![pair("Small", Some(0.1), None), pair("Big", Some(0.5), None)];
        let table = render_rule_sets(&pairs, SortBy::Support);
        let big = table.find("Big").unwrap();
        let small = table.find("Small").unwrap();
        assert!(big < small, "{table}");
    }

    #[test]
    fn sorts_by_confidence() {
        let pairs = vec![
            pair("Weak", None, Some(0.3)),
            pair("Strong", None, Some(0.9)),
        ];
        let table = render_rule_sets(&pairs, SortBy::Confidence);
        assert!(table.find("Strong").unwrap() < table.find("Weak").unwrap());
    }

    #[test]
    fn counts_ruleless_pairs() {
        let pairs = vec![pair("A", Some(0.2), Some(0.7)), pair("B", None, None)];
        let table = render_rule_sets(&pairs, SortBy::Unsorted);
        assert!(
            table.contains("2 pairs, 2 rules (1 pairs below thresholds)"),
            "{table}"
        );
        assert!(!table.contains('B') || table.contains("below"), "{table}");
    }

    #[test]
    fn empty_input() {
        let table = render_rule_sets(&[], SortBy::Support);
        assert!(table.contains("0 pairs, 0 rules"), "{table}");
    }

    #[test]
    fn truncation() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("averyveryverylongname", 8);
        assert!(t.chars().count() <= 8, "{t}");
        assert!(t.ends_with('…'));
    }
}
