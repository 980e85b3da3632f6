//! Output: the contract's result line, the ledger file of a complete
//! set of runs, and `compare` — the regression gate that lives inside
//! the benchmark.

use crate::registry::END_TO_END;
use crate::run::Outcome;
use crate::scrape::{at, number};
use optrules_core::json::{Json, Num};

fn metrics_value(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let fields = vec![
                    ("value".into(), Json::Num(Num::Float(*value))),
                    ("unit".into(), Json::Str((*unit).into())),
                ];
                ((*name).to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// The one-line result the driver reads: exactly `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        (
            "attempted".into(),
            Json::Num(Num::UInt(outcome.attempted.max(1))),
        ),
        ("failed".into(), Json::Num(Num::UInt(outcome.failed))),
        ("metrics".into(), metrics_value(outcome)),
    ])
    .encode()
}

/// Every metric by name with its unit, one per line.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!(
        "== {workload}: attempted {} failed {} correct {}\n",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for (name, unit, value) in &outcome.metrics {
        out.push_str(&format!("{name:<44} {value:>16.4} {unit}\n"));
    }
    for note in &outcome.notes {
        out.push_str(&format!("!! {note}\n"));
    }
    out
}

/// Several runs of one workload as one: each metric's median, every
/// operation and every note counted.
pub fn median_outcome(runs: Vec<Outcome>) -> Outcome {
    let metrics = runs[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            let mut values: Vec<f64> = runs.iter().map(|run| run.metrics[i].2).collect();
            values.sort_by(f64::total_cmp);
            (*name, *unit, values[(values.len() - 1) / 2])
        })
        .collect();
    Outcome {
        attempted: runs.iter().map(|run| run.attempted).sum(),
        failed: runs.iter().map(|run| run.failed).sum(),
        correct: runs.iter().all(|run| run.correct),
        metrics,
        notes: runs
            .iter()
            .flat_map(|run| run.notes.iter().cloned())
            .collect(),
        spans: Vec::new(),
    }
}

/// One workload's entry in a ledger file: its untraced runs' medians
/// and its traced run.
pub fn workload_value(e2e: &Outcome, layers: &Outcome) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(e2e.correct && layers.correct)),
        (
            "attempted".into(),
            Json::Num(Num::UInt(e2e.attempted + layers.attempted)),
        ),
        (
            "failed".into(),
            Json::Num(Num::UInt(e2e.failed + layers.failed)),
        ),
        ("end_to_end".into(), metrics_value(e2e)),
        ("per_layer".into(), metrics_value(layers)),
    ])
}

pub fn ledger_value(tier: &str, seed: u64, seconds: f64, workloads: Vec<(String, Json)>) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("tier".into(), Json::Str(tier.into())),
        ("seed".into(), Json::Num(Num::UInt(seed))),
        ("seconds".into(), Json::Num(Num::Float(seconds))),
        ("cores".into(), Json::Num(Num::UInt(cores as u64))),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// Compares two ledger documents: per workload × end-to-end metric,
/// both values, how much worse `b` is than `a` (as a share of `a`,
/// positive = worse), and the bound. Returns the report and whether
/// every pairing stayed within its bound.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (label, doc) in [("first", a), ("second", b)] {
        match at(doc, &["tier"]) {
            Some(Json::Str(tier)) if tier == "full" => {}
            Some(Json::Str(tier)) => {
                return Err(format!(
                    "the {label} file is tier {tier:?}: only full runs compare"
                ))
            }
            _ => return Err(format!("the {label} file is not a ledger")),
        }
    }
    let Some(Json::Obj(workloads)) = at(a, &["workloads"]) else {
        return Err("the first file lists no workloads".into());
    };
    let mut report = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let mut within = true;
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let path = [
                "workloads",
                workload.as_str(),
                "end_to_end",
                metric.name,
                "value",
            ];
            let (Some(va), Some(vb)) = (number(a, &path), number(b, &path)) else {
                return Err(format!(
                    "{workload}/{} is missing from one file",
                    metric.name
                ));
            };
            let change = (vb - va) / va;
            let worse = if metric.better == "lower" {
                change
            } else {
                -change
            };
            let verdict = if worse > metric.bound {
                within = false;
                "  REGRESSED"
            } else {
                ""
            };
            report.push_str(&format!(
                "{workload:<16} {:<24} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{verdict}\n",
                metric.name,
                100.0 * worse,
                100.0 * metric.bound,
            ));
        }
        for (label, doc) in [("a", a), ("b", b)] {
            if number(doc, &["workloads", workload.as_str(), "failed"]) != Some(0.0) {
                within = false;
                report.push_str(&format!("{workload:<16} failed operations in {label}\n"));
            }
        }
    }
    Ok((report, within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(lat: f64) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            correct: true,
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        if m.name == "lat_p50_ms" { lat } else { 5.0 },
                    )
                })
                .collect(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn ledger(tier: &str, lat: f64) -> Json {
        let o = outcome(lat);
        let doc = ledger_value(
            tier,
            1,
            12.0,
            vec![("warm_serve".into(), workload_value(&o, &o))],
        );
        Json::parse(&doc.encode()).expect("ledger files round-trip")
    }

    #[test]
    fn median_outcome_takes_each_metric_s_median_and_sums_operations() {
        let mut slow = outcome(9.0);
        slow.failed = 2;
        slow.correct = false;
        slow.notes.push("half speed".into());
        let merged = median_outcome(vec![outcome(1.0), slow, outcome(1.5)]);
        let lat = merged.metrics.iter().find(|m| m.0 == "lat_p50_ms").unwrap();
        assert_eq!(lat.2, 1.5);
        assert_eq!(
            (merged.attempted, merged.failed, merged.correct),
            (30, 2, false)
        );
        assert_eq!(merged.notes, ["half speed"]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(1.25));
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"lat_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_bound_in_the_worse_direction() {
        let base = ledger("full", 1.0);
        let (_, ok) = compare(&base, &ledger("full", 1.09)).unwrap();
        assert!(ok, "9% slower is within the 10% bound");
        let (report, ok) = compare(&base, &ledger("full", 1.2)).unwrap();
        assert!(!ok && report.contains("REGRESSED"));
        let (_, ok) = compare(&base, &ledger("full", 0.5)).unwrap();
        assert!(ok, "faster is never a regression");
        assert!(compare(&base, &ledger("smoke", 1.0))
            .unwrap_err()
            .contains("smoke"));
    }
}
