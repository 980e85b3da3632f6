//! A dependency-free JSON layer for the query protocol: encode/decode
//! [`QuerySpec`](crate::spec::QuerySpec) requests and
//! [`RuleSet`](crate::query::RuleSet) responses.
//!
//! Hand-rolled (no serde — this workspace builds offline) but complete
//! for the protocol's needs, in three layers:
//!
//! * [`value`] — the format: the generic [`Json`] value, a strict
//!   parser and a compact canonical encoder (stable field order,
//!   minimal fields), so encoded output is byte-deterministic and
//!   golden-testable; number handling is documented there.
//! * [`wire`] — the schema: one [`Wire`] trait and **one field table
//!   per object-shaped type**, from which both codec directions and
//!   the strict missing / unknown / duplicate-key checks derive. To
//!   add a spec field, add one line to `QuerySpec`'s table.
//! * [`frames`] — the protocol: [`Request`], [`parse_request`], the
//!   two-method [`FrameHandler`] and [`execute_frames`], the one
//!   request loop `batch`, `serve` and `coord` all drive. Control
//!   frames (`stats`, `metrics`, `append`, …) are documented there.
//!
//! # Spec schema (requests)
//!
//! One spec is one JSON object; the CLI's `optrules batch` reads one
//! per line (NDJSON). Only `attr` and `objective` are required —
//! everything else falls back to the serving engine's defaults:
//!
//! ```json
//! {
//!   "attr": "Balance",
//!   "objective": {"bool": "CardLoan"},
//!   "given": [{"bool": "AutoWithdraw", "is": true}],
//!   "task": "both",
//!   "min_support": [10, 100],
//!   "min_confidence": [60, 100],
//!   "buckets": 200,
//!   "samples_per_bucket": 40,
//!   "seed": 7,
//!   "threads": 1,
//!   "scan_all_booleans": true
//! }
//! ```
//!
//! * `objective` — exactly one of
//!   `{"bool": "<boolean attr>"}` (rule implies `(attr = yes)`),
//!   `{"all": [<cond>, ...]}` (arbitrary conjunction; `[]` is always
//!   true), or `{"average": "<numeric attr>"}` (§5 average operator,
//!   which admits `min_average` instead of `min_confidence`).
//! * `<cond>` — one of `{"bool": "<attr>", "is": <bool>}`,
//!   `{"num": "<attr>", "eq": <x>}`, or
//!   `{"num": "<attr>", "in": [<lo>, <hi>]}` (inclusive bounds).
//! * `task` — `"both"` (default), `"support"`, or `"confidence"`.
//! * `min_support` / `min_confidence` — exact rationals as
//!   `[numerator, denominator]` (`[10, 100]` = 10 %), never floats:
//!   thresholds decide optimality by integer cross-multiplication.
//! * Unknown keys are rejected — a typo'd option must not silently
//!   become a default.
//!
//! # Result schema (responses)
//!
//! ```json
//! {
//!   "attr": "Balance",
//!   "objective": "(CardLoan = yes)",
//!   "buckets_used": 198,
//!   "total_rows": 100000,
//!   "rules": [
//!     {"kind": "optimized_support", "buckets": [12, 58],
//!      "values": [3004.2, 7998.9], "count": 24890, "hits": 16120,
//!      "rows": 100000}
//!   ]
//! }
//! ```
//!
//! `kind` is one of `optimized_support`, `optimized_confidence`,
//! `maximum_average`, `maximum_support_average`; the two average kinds
//! carry `sum` (target-value sum over the range) instead of `hits`.
//! Derived quantities (support, confidence, average) are intentionally
//! not encoded — clients recompute them from the exact counts.
//!
//! The CLI's batch responses wrap each result as `{"ok": <result>}` or
//! `{"error": "<message>"}`, one per request line.
//!

pub mod value;
// Declared before `frames`, which uses its field-table macros.
#[macro_use]
pub mod wire;
pub mod frames;

pub use frames::{
    count2d_frame_from_value, count2d_frame_to_value, count_frame_from_value, count_frame_to_value,
    execute_frames, execute_requests, parse_request, values_frame_from_value,
    values_frame_to_value, Count2dFrame, FrameHandler, Request,
};
pub use value::{Json, JsonError, JsonResult, Num};
pub use wire::{
    append_from_value, append_to_value, counts_from_value, counts_to_value, decode_rule_set,
    decode_spec, encode_rule_set, encode_spec, encode_stats, envelope_from_value, error_envelope,
    flush_to_value, gauges_to_value, grid_from_value, grid_to_value, histogram_to_value,
    ok_envelope, rows_from_value, rule_set_from_value, rule_set_to_value, schema_from_value,
    schema_to_value, server_metrics_to_value, shard_error_envelope, spec_from_value, spec_to_value,
    stats_to_value, values_reply_from_value, values_reply_to_value, Wire, MAX_APPEND_ROWS,
    MAX_BUCKETS, MAX_GRID_CELLS, MAX_SAMPLE, MAX_THREADS,
};

#[cfg(test)]
mod tests {
    use super::value::enc_f64;
    use super::*;
    use crate::cache::ShardStats;
    use crate::query::{AvgRule, Rule, RuleSet, Task};
    use crate::ratio::Ratio;
    use crate::region2d::GridCounts;
    use crate::rule::{RangeRule, RectRule, RuleKind};
    use crate::shared::{AppendOutcome, StatsSnapshot};
    use crate::spec::{CondSpec, QuerySpec, Real};
    use optrules_bucketing::{BucketCounts, BucketSpec, CountSpec};
    use optrules_relation::{Condition, NumAttr, RowFrame, Schema};

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(Num::UInt(42)));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(Num::Int(-7)));
        assert_eq!(Json::parse("2.5e1").unwrap(), Json::Num(Num::Float(25.0)));
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap(),
            Json::Num(Num::UInt(u64::MAX))
        );
        assert_eq!(
            Json::parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(Num::UInt(1)),
                Json::Arr(vec![Json::Num(Num::UInt(2))]),
                Json::Obj(vec![]),
            ])
        );
        let obj = Json::parse(r#"{"a": 1, "b": [true, null]}"#).unwrap();
        assert_eq!(
            obj,
            Json::Obj(vec![
                ("a".into(), Json::Num(Num::UInt(1))),
                ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let cases = [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand tab\t",
            "unicode: caffè ☕ 𝄞",
            "control \u{0001}\u{001f}",
        ];
        for case in cases {
            let encoded = Json::Str(case.to_string()).encode();
            assert_eq!(Json::parse(&encoded).unwrap(), Json::Str(case.to_string()));
        }
        // Escaped forms parse too.
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud834\udd1e\/""#).unwrap(),
            Json::Str("Aé𝄞/".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "\"\\q\"",
            "\"\\ud800\"",
            "- 1",
            "+1",
            "1.",
            ".5",
            "1e",
            "nul",
            "[1 2]",
            "01",
            // Overflows f64 to ∞; the encoder's finite-only invariant
            // means non-finite values only ever travel as strings.
            "1e999",
            "-1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // A depth bomb is rejected, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        assert_eq!(enc_f64(f64::INFINITY), Json::Str("Infinity".into()));
        assert_eq!(enc_f64(f64::NEG_INFINITY), Json::Str("-Infinity".into()));
        assert_eq!(enc_f64(f64::NAN), Json::Str("NaN".into()));
        assert!(enc_f64(f64::NAN).as_f64().unwrap().is_nan());
        assert_eq!(
            Json::Str("Infinity".into()).as_f64().unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn nan_payloads_round_trip_bit_exactly() {
        for bits in [
            0x7ff8_0000_0000_0001u64, // payload NaN
            0xfff8_0000_0000_0000,    // negative NaN
            0x7ff0_0000_0000_0001,    // signaling NaN
        ] {
            let x = f64::from_bits(bits);
            let encoded = enc_f64(x);
            assert_eq!(encoded, Json::Str(format!("NaN:0x{bits:016x}")));
            assert_eq!(encoded.as_f64().unwrap().to_bits(), bits);
        }
        // The NaN channel does not smuggle non-NaN bit patterns.
        assert!(Json::Str("NaN:0x0000000000000000".into()).as_f64().is_err());
        assert!(Json::Str("NaN:0xnope".into()).as_f64().is_err());
    }

    #[test]
    fn minimal_spec_decodes_with_defaults() {
        let spec =
            decode_spec(r#"{"attr": "Balance", "objective": {"bool": "CardLoan"}}"#).unwrap();
        assert_eq!(spec, QuerySpec::boolean("Balance", "CardLoan"));
        assert_eq!(spec.task, Task::Both);
        assert!(spec.scan_all_booleans);
        assert!(spec.min_support.is_none());
    }

    #[test]
    fn full_spec_round_trips() {
        let mut spec = QuerySpec::average("CheckingAccount", "SavingAccount");
        spec.given = vec![
            CondSpec::BoolIs {
                attr: "CardLoan".into(),
                value: true,
            },
            CondSpec::NumInRange {
                attr: "Age".into(),
                lo: Real(18.0),
                hi: Real(65.0),
            },
        ];
        spec.task = Task::OptimizeConfidence;
        spec.min_support = Some(Ratio::new(1, 7).unwrap());
        spec.min_average = Some(Real(14_000.5));
        spec.buckets = Some(200);
        spec.samples_per_bucket = Some(40);
        spec.seed = Some(u64::MAX);
        spec.threads = Some(4);
        spec.scan_all_booleans = false;
        let text = encode_spec(&spec);
        assert_eq!(decode_spec(&text).unwrap(), spec, "{text}");
    }

    #[test]
    fn unknown_and_duplicate_keys_are_rejected() {
        let unknown = r#"{"attr": "A", "objective": {"bool": "B"}, "bucket": 10}"#;
        let err = decode_spec(unknown).unwrap_err();
        assert!(err.msg.contains("unknown key \"bucket\""), "{err}");
        let dup = r#"{"attr": "A", "attr": "B", "objective": {"bool": "B"}}"#;
        let err = decode_spec(dup).unwrap_err();
        assert!(err.msg.contains("duplicate key"), "{err}");
        let wrong_task = r#"{"attr": "A", "objective": {"bool": "B"}, "task": "fastest"}"#;
        assert!(decode_spec(wrong_task).is_err());
        let zero_den = r#"{"attr": "A", "objective": {"bool": "B"}, "min_support": [1, 0]}"#;
        assert!(decode_spec(zero_den).is_err());
    }

    fn assert_bad(request: Request, needle: &str) {
        match request {
            Request::Bad(msg) => assert!(msg.contains(needle), "{msg:?} missing {needle:?}"),
            other => panic!("expected a bad request containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn control_frames_parse_strictly() {
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"flush"}"#),
            Request::Flush
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"append","rows":[[1,true]]}"#),
            Request::Append(_)
        ));
        // Key order in an append frame is irrelevant.
        assert!(matches!(
            parse_request(r#"{"rows":[[1,true]],"cmd":"append"}"#),
            Request::Append(_)
        ));
        assert_bad(parse_request(r#"{"cmd":"reboot"}"#), "unknown cmd");
        assert_bad(parse_request(r#"{"cmd":7}"#), "unknown cmd");
        assert_bad(
            parse_request(r#"{"cmd":"stats","verbose":true}"#),
            "control frame",
        );
        assert_bad(
            parse_request(r#"{"cmd":"flush","force":true}"#),
            "control frame",
        );
        assert_bad(parse_request(r#"{"cmd":"append"}"#), "control frame");
        assert_bad(
            parse_request(r#"{"cmd":"append","rows":[],"extra":1}"#),
            "control frame",
        );
        // `cmd` past index 1 must not underflow the rows-position math.
        assert_bad(
            parse_request(r#"{"a":1,"b":2,"cmd":"append"}"#),
            "control frame",
        );
        assert_bad(
            parse_request(r#"{"rows":[[1,true]],"extra":0,"cmd":"append"}"#),
            "control frame",
        );
        assert_bad(
            parse_request(r#"{"cmd":"append","rowz":[[1,true]]}"#),
            "control frame",
        );
    }

    #[test]
    fn specs_and_garbage_parse_as_expected() {
        assert!(matches!(
            parse_request(r#"{"attr":"A","objective":{"bool":"B"}}"#),
            Request::Spec(_)
        ));
        assert_bad(parse_request("garbage"), "bad request");
        assert_bad(
            parse_request(r#"{"attr":"A","objective":{"bool":"B"},"bogus":1}"#),
            "unknown key",
        );
    }

    #[test]
    fn append_rows_decode_strictly() {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build();
        let rows = |text: &str| rows_from_value(&Json::parse(text).unwrap(), &schema);

        let ok = rows(r#"[[1.5, 2, true], [3, -4.25, false]]"#).unwrap();
        assert_eq!(
            ok,
            vec![
                RowFrame {
                    numeric: vec![1.5, 2.0],
                    boolean: vec![true],
                },
                RowFrame {
                    numeric: vec![3.0, -4.25],
                    boolean: vec![false],
                },
            ]
        );

        for (bad, needle) in [
            (r#"{"x":1}"#, "must be an array"),
            (r#"[]"#, "has no rows"),
            (r#"[7]"#, "row 0 must be an array"),
            (r#"[[1, 2]]"#, "row 0 has 2 cells"),
            (r#"[[1, 2, true, false]]"#, "row 0 has 4 cells"),
            (r#"[[1, true, true]]"#, "row 0 cell 1: expected a number"),
            (r#"[[1, "2", true]]"#, "row 0 cell 1: expected a number"),
            (r#"[[1, 2, 3]]"#, "row 0 cell 2: expected a boolean"),
            (
                r#"[[1, 2, true], [1, 2, null]]"#,
                "row 1 cell 2: expected a boolean",
            ),
        ] {
            let err = rows(bad).unwrap_err();
            assert!(err.msg.contains(needle), "{bad}: {err}");
        }

        // The text parser refuses overflow-to-inf literals, so a
        // non-finite number can only arrive in a hand-built value —
        // and the decoder still rejects it (defense in depth for the
        // bucket-0 NaN miscount).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let value = Json::Arr(vec![Json::Arr(vec![
                Json::Num(Num::Float(bad)),
                Json::Num(Num::Float(2.0)),
                Json::Bool(true),
            ])]);
            let err = rows_from_value(&value, &schema).unwrap_err();
            assert!(err.msg.contains("non-finite numeric value"), "{bad}: {err}");
        }

        // One row over the frame cap is rejected outright.
        let over = format!(
            "[{}]",
            std::iter::repeat_n("[1,2,true]", MAX_APPEND_ROWS + 1)
                .collect::<Vec<_>>()
                .join(",")
        );
        let err = rows(&over).unwrap_err();
        assert!(err.msg.contains("exceeds 1024 rows"), "{err}");
        let at_cap = format!(
            "[{}]",
            std::iter::repeat_n("[1,2,true]", MAX_APPEND_ROWS)
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(rows(&at_cap).unwrap().len(), MAX_APPEND_ROWS);
    }

    #[test]
    fn append_ack_encoding_golden() {
        let outcome = AppendOutcome {
            generation: 3,
            appended: 2,
            total_rows: 20_052,
        };
        assert_eq!(
            ok_envelope(append_to_value(&outcome)).encode(),
            r#"{"ok":{"appended":2,"generation":3,"rows":20052}}"#
        );
    }

    /// The stats control-frame payload is part of the wire protocol:
    /// field order and names are pinned, like the rule-set golden in
    /// `tests/batch.rs`.
    #[test]
    fn stats_snapshot_encoding_golden() {
        let snapshot = StatsSnapshot {
            generation: 2,
            rows: 20_050,
            engine: crate::EngineStats {
                bucketizations: 4,
                bucket_cache_hits: 44,
                scans: 4,
                scan_cache_hits: 44,
                kernel_scans: 4,
                fallback_scans: 0,
                coalesced_waits: 3,
                evictions: 0,
                rejected: 0,
                lookups: 96,
                cached_cost: 40_160,
                bucketize_ns: 0,
                kernel_scan_ns: 0,
                fallback_scan_ns: 0,
                optimize_ns: 0,
            },
            shards: vec![ShardStats {
                hits: 11,
                misses: 1,
                evictions: 0,
                rejected: 0,
                cost: 10_040,
                entries: 2,
            }],
            durability: None,
        };
        assert_eq!(
            encode_stats(&snapshot),
            r#"{"generation":2,"rows":20050,"bucketizations":4,"bucket_cache_hits":44,"scans":4,"scan_cache_hits":44,"kernel_scans":4,"fallback_scans":0,"coalesced_waits":3,"evictions":0,"rejected":0,"lookups":96,"cached_cost":40160,"shards":[{"hits":11,"misses":1,"evictions":0,"rejected":0,"cost":10040,"entries":2}]}"#
        );
        // A durable relation appends its counters after `shards`; the
        // in-memory encoding above is byte-identical to before.
        let durable = StatsSnapshot {
            durability: Some(optrules_relation::DurabilityStats {
                wal_bytes: 128,
                unflushed_rows: 2,
                segments_spilled: 3,
                last_checkpoint_generation: 40,
            }),
            ..snapshot
        };
        assert_eq!(
            encode_stats(&durable),
            r#"{"generation":2,"rows":20050,"bucketizations":4,"bucket_cache_hits":44,"scans":4,"scan_cache_hits":44,"kernel_scans":4,"fallback_scans":0,"coalesced_waits":3,"evictions":0,"rejected":0,"lookups":96,"cached_cost":40160,"shards":[{"hits":11,"misses":1,"evictions":0,"rejected":0,"cost":10040,"entries":2}],"durability":{"wal_bytes":128,"unflushed_rows":2,"segments_spilled":3,"last_checkpoint_generation":40}}"#
        );
    }

    #[test]
    fn flush_ack_encoding_golden() {
        assert_eq!(
            ok_envelope(flush_to_value(5)).encode(),
            r#"{"ok":{"flushed":true,"generation":5}}"#
        );
    }

    #[test]
    fn rule_set_round_trips() {
        let rules = RuleSet {
            attr_name: "Balance".into(),
            attr2: None,
            objective_desc: "(CardLoan = yes)".into(),
            rules: vec![
                Rule::Range(RangeRule {
                    kind: RuleKind::OptimizedSupport,
                    bucket_range: (3, 17),
                    value_range: (3004.25, 7998.875),
                    sup_count: 24_890,
                    hits: 16_120,
                    total_rows: 100_000,
                }),
                Rule::Average(AvgRule {
                    kind: RuleKind::MaximumAverage,
                    bucket_range: (0, 4),
                    value_range: (1.5, 9.25),
                    sup_count: 400,
                    sum: 123_456.75,
                    total_rows: 2_000,
                }),
            ],
            buckets_used: 50,
            total_rows: 100_000,
        };
        let text = encode_rule_set(&rules);
        assert_eq!(decode_rule_set(&text).unwrap(), rules, "{text}");
    }

    #[test]
    fn rect_rule_set_round_trips() {
        let rules = RuleSet {
            attr_name: "Age".into(),
            attr2: Some("Balance".into()),
            objective_desc: "(CardLoan = yes)".into(),
            rules: vec![
                Rule::Rect(RectRule {
                    kind: RuleKind::RectSupport,
                    x_bucket_range: (1, 3),
                    y_bucket_range: (0, 2),
                    x_value_range: (20.0, 35.0),
                    y_value_range: (3000.0, 8000.0),
                    sup_count: 1_200,
                    hits: 950,
                    total_rows: 10_000,
                }),
                Rule::Rect(RectRule {
                    kind: RuleKind::RectConfidence,
                    x_bucket_range: (2, 2),
                    y_bucket_range: (1, 4),
                    x_value_range: (25.0, 27.5),
                    y_value_range: (4000.0, 9_500.25),
                    sup_count: 800,
                    hits: 700,
                    total_rows: 10_000,
                }),
            ],
            buckets_used: 25,
            total_rows: 10_000,
        };
        let text = encode_rule_set(&rules);
        assert_eq!(decode_rule_set(&text).unwrap(), rules, "{text}");
        // `attr2` sits right after `attr` so the 1-D layout (which
        // omits it) is a strict prefix-compatible subset.
        assert!(
            text.starts_with(r#"{"attr":"Age","attr2":"Balance","#),
            "{text}"
        );
    }

    #[test]
    fn spec_attr2_round_trips_and_defaults_off() {
        let mut spec = QuerySpec::boolean("Age", "CardLoan");
        spec.attr2 = Some("Balance".into());
        let text = encode_spec(&spec);
        assert!(
            text.starts_with(r#"{"attr":"Age","attr2":"Balance","#),
            "{text}"
        );
        assert_eq!(decode_spec(&text).unwrap(), spec);
        // A spec without attr2 keeps its exact 1-D bytes.
        let plain = QuerySpec::boolean("Age", "CardLoan");
        assert!(!encode_spec(&plain).contains("attr2"));
        assert_eq!(decode_spec(&encode_spec(&plain)).unwrap(), plain);
    }

    /// The 2-D reply schema is a byte contract like the 1-D one — and
    /// it pins the satellite bugfix: an empty bucket's `(∞, −∞)`
    /// sentinel travels as `null`, never as string-encoded non-finite
    /// floats.
    #[test]
    fn grid_reply_encoding_golden_empty_bucket_is_null() {
        let grid = GridCounts::from_parts(
            2,
            1,
            vec![3, 0],
            vec![2, 0],
            vec![(1.0, 2.5), (f64::INFINITY, f64::NEG_INFINITY)],
            vec![(5.0, 9.0)],
            3,
        )
        .unwrap();
        let reply = ok_envelope(grid_to_value(&grid, 7));
        assert_eq!(
            reply.encode(),
            r#"{"ok":{"generation":7,"rows":3,"nx":2,"ny":1,"u":[3,0],"v":[2,0],"x_ranges":[[1,2.5],null],"y_ranges":[[5,9]]}}"#
        );
    }

    #[test]
    fn grid_reply_round_trips_restoring_sentinels() {
        let grid = GridCounts::from_parts(
            2,
            2,
            vec![3, 0, 1, 2],
            vec![2, 0, 0, 1],
            vec![(1.0, 2.5), (f64::INFINITY, f64::NEG_INFINITY)],
            vec![(5.0, 9.0), (-1.5, 4.0)],
            6,
        )
        .unwrap();
        let (decoded, generation) = grid_from_value(&grid_to_value(&grid, 9)).unwrap();
        assert_eq!(generation, 9);
        assert_eq!(decoded.u_cells(), grid.u_cells());
        assert_eq!(decoded.v_cells(), grid.v_cells());
        assert_eq!(decoded.x_ranges, grid.x_ranges);
        assert_eq!(decoded.y_ranges, grid.y_ranges);
        assert_eq!(decoded.total_rows, 6);
        // Sentinels restored from null merge as the neutral element.
        let mut merged = decoded;
        merged.merge(&grid);
        assert_eq!(merged.x_ranges[1], (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn grid_reply_rejects_non_finite_range_bounds() {
        // A hand-built reply smuggling the 1-D string channel into a
        // range must be rejected — empty buckets travel as null.
        let reply = Json::parse(
            r#"{"generation":1,"rows":0,"nx":1,"ny":1,"u":[0],"v":[0],"x_ranges":[["Infinity","-Infinity"]],"y_ranges":[null]}"#,
        )
        .unwrap();
        let err = grid_from_value(&reply).unwrap_err();
        assert!(err.msg.contains("must be finite"), "{err}");
    }

    #[test]
    fn count2d_frame_round_trips() {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build();
        let x_cuts = BucketSpec::from_cuts(vec![1.0, 2.5]);
        let y_cuts = BucketSpec::from_cuts(vec![-3.0]);
        let presumptive = Condition::True;
        let objective = Condition::And(vec![
            Condition::BoolIs(optrules_relation::BoolAttr(0), true),
            Condition::NumInRange(NumAttr(1), 0.5, 9.5),
        ]);
        let frame = count2d_frame_to_value(
            &schema,
            NumAttr(0),
            NumAttr(1),
            &x_cuts,
            &y_cuts,
            &presumptive,
            &objective,
            Some("t9"),
        );
        let Json::Obj(mut fields) = frame else {
            panic!()
        };
        // The server strips the cmd key before handing the body over.
        fields.retain(|(k, _)| k != "cmd");
        let decoded = count2d_frame_from_value(&Json::Obj(fields), &schema).unwrap();
        assert_eq!(decoded.x_attr, NumAttr(0));
        assert_eq!(decoded.y_attr, NumAttr(1));
        assert_eq!(decoded.x_cuts, x_cuts);
        assert_eq!(decoded.y_cuts, y_cuts);
        assert_eq!(decoded.trace.as_deref(), Some("t9"));
        assert_eq!(
            format!("{:?}", decoded.presumptive),
            format!("{presumptive:?}")
        );
        assert_eq!(format!("{:?}", decoded.objective), format!("{objective:?}"));
    }

    #[test]
    fn count2d_frame_rejects_non_finite_cuts() {
        let schema = Schema::builder().numeric("X").numeric("Y").build();
        let frame = Json::parse(
            r#"{"attr":"X","attr2":"Y","x_cuts":[1.0,"Infinity"],"y_cuts":[0.0],"given":true,"objective":{"num":"Y","in":[0,1]}}"#,
        )
        .unwrap();
        assert!(count2d_frame_from_value(&frame, &schema).is_err());
    }

    #[test]
    fn shard_error_envelope_golden() {
        assert_eq!(
            shard_error_envelope(2, "connect refused").encode(),
            r#"{"error":{"shard":2,"message":"connect refused"}}"#
        );
    }

    #[test]
    fn envelope_splits_ok_and_error() {
        let ok = Json::parse(r#"{"ok":{"rows":3}}"#).unwrap();
        assert!(matches!(envelope_from_value(&ok), Ok(Ok(_))));
        let err = Json::parse(r#"{"error":"nope"}"#).unwrap();
        assert!(matches!(envelope_from_value(&err), Ok(Err(_))));
        let neither = Json::parse(r#"{"rows":3}"#).unwrap();
        assert!(envelope_from_value(&neither).is_err());
        let both = Json::parse(r#"{"ok":1,"error":"x"}"#).unwrap();
        assert!(envelope_from_value(&both).is_err());
    }

    #[test]
    fn append_ack_round_trips() {
        let outcome = AppendOutcome {
            appended: 3,
            generation: 7,
            total_rows: 1_003,
        };
        let decoded = append_from_value(&append_to_value(&outcome)).unwrap();
        assert_eq!(decoded.appended, 3);
        assert_eq!(decoded.generation, 7);
        assert_eq!(decoded.total_rows, 1_003);
    }

    #[test]
    fn values_frame_round_trips() {
        let schema = Schema::builder().numeric("X").numeric("Y").build();
        let frame = values_frame_to_value("Y", &[0, 5, 2], Some("t7"));
        // The server strips the cmd key before handing the body over.
        let Json::Obj(mut fields) = frame else {
            panic!()
        };
        fields.retain(|(k, _)| k != "cmd");
        let (attr, indices, trace) = values_frame_from_value(&Json::Obj(fields), &schema).unwrap();
        assert_eq!(attr, NumAttr(1));
        assert_eq!(indices, vec![0, 5, 2]);
        assert_eq!(trace.as_deref(), Some("t7"));

        let reply = values_reply_to_value(&[1.5, -2.0], 4);
        assert_eq!(reply.encode(), r#"{"generation":4,"values":[1.5,-2]}"#);
        let (values, generation) = values_reply_from_value(&reply).unwrap();
        assert_eq!(values, vec![1.5, -2.0]);
        assert_eq!(generation, 4);
    }

    #[test]
    fn values_frame_answers_in_request_order_and_names_the_first_bad_index() {
        use optrules_relation::{ChunkedRelation, Relation};
        let schema = Schema::builder().numeric("X").numeric("Y").build();
        let mut rel = Relation::new(schema);
        for i in 0..10 {
            rel.push_row(&[i as f64, 100.0 + i as f64], &[]).unwrap();
        }
        let engine = crate::SharedEngine::new(ChunkedRelation::new(rel));
        let ask = |line: &str| {
            let (replies, _) = execute_requests(&engine, vec![parse_request(line)], 1, None);
            replies[0].encode()
        };
        // Unsorted, with a duplicate: the reply keeps request order.
        assert_eq!(
            ask(r#"{"cmd":"values","attr":"Y","indices":[7,0,7,3]}"#),
            r#"{"ok":{"generation":0,"values":[107,100,107,103]}}"#
        );
        assert_eq!(
            ask(r#"{"cmd":"values","attr":"X","indices":[]}"#),
            r#"{"ok":{"generation":0,"values":[]}}"#
        );
        // Two bad indices, the first in the middle and not the largest.
        assert_eq!(
            ask(r#"{"cmd":"values","attr":"X","indices":[1,9,12,4,99,10]}"#),
            r#"{"error":"bad request: row index 12 out of range (10 rows)"}"#
        );
    }

    #[test]
    fn count_frame_round_trips_explicit_spec() {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("T")
            .boolean("B")
            .build();
        let cuts = BucketSpec::from_cuts(vec![1.0, 2.5]);
        let what = CountSpec {
            attr: NumAttr(0),
            presumptive: Condition::And(vec![
                Condition::BoolIs(optrules_relation::BoolAttr(0), false),
                Condition::NumInRange(NumAttr(1), 0.5, 9.5),
            ]),
            bool_targets: vec![Condition::BoolIs(optrules_relation::BoolAttr(0), true)],
            sum_targets: vec![NumAttr(1)],
        };
        let frame = count_frame_to_value(&schema, NumAttr(0), &cuts, Some(&what), 3, None);
        let Json::Obj(mut fields) = frame else {
            panic!()
        };
        fields.retain(|(k, _)| k != "cmd");
        let (cuts2, what2, threads, trace) =
            count_frame_from_value(&Json::Obj(fields), &schema).unwrap();
        assert_eq!(cuts2, cuts);
        assert_eq!(threads, 3);
        assert_eq!(trace, None);
        assert_eq!(format!("{what2:?}"), format!("{what:?}"));
    }

    #[test]
    fn count_frame_all_booleans_expands_like_the_engine() {
        let schema = Schema::builder()
            .numeric("X")
            .boolean("B1")
            .boolean("B2")
            .build();
        let cuts = BucketSpec::from_cuts(vec![0.0]);
        let frame = count_frame_to_value(&schema, NumAttr(0), &cuts, None, 1, None);
        let Json::Obj(mut fields) = frame else {
            panic!()
        };
        fields.retain(|(k, _)| k != "cmd");
        let (_, what, _, _) = count_frame_from_value(&Json::Obj(fields), &schema).unwrap();
        assert_eq!(what.attr, NumAttr(0));
        assert!(matches!(what.presumptive, Condition::True));
        assert_eq!(what.bool_targets.len(), 2);
        assert!(what.sum_targets.is_empty());
    }

    #[test]
    fn count_frame_rejects_non_finite_cuts() {
        let schema = Schema::builder().numeric("X").build();
        // "Infinity" decodes as a number on the string channel, so it
        // must be caught by the explicit finiteness guard.
        let frame =
            Json::parse(r#"{"attr":"X","cuts":[1.0,"Infinity"],"threads":1,"all_booleans":true}"#)
                .unwrap();
        assert!(count_frame_from_value(&frame, &schema).is_err());
    }

    #[test]
    fn count_reply_round_trips() {
        let counts = BucketCounts {
            u: vec![2, 0, 3],
            bool_v: vec![vec![1, 0, 2]],
            sums: vec![vec![1.5, 0.0, -3.25]],
            ranges: vec![(1.0, 2.0), (f64::INFINITY, f64::NEG_INFINITY), (5.0, 9.0)],
            total_rows: 5,
        };
        let reply = counts_to_value(&counts, 9);
        let (decoded, generation) = counts_from_value(&reply).unwrap();
        assert_eq!(generation, 9);
        assert_eq!(decoded.u, counts.u);
        assert_eq!(decoded.bool_v, counts.bool_v);
        assert_eq!(decoded.sums, counts.sums);
        assert_eq!(decoded.ranges, counts.ranges);
        assert_eq!(decoded.total_rows, 5);
    }

    #[test]
    fn schema_reply_round_trips() {
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build();
        let (decoded, generation, rows) =
            schema_from_value(&schema_to_value(&schema, 3, 42)).unwrap();
        assert_eq!(decoded, schema);
        assert_eq!(generation, 3);
        assert_eq!(rows, 42);
    }

    #[test]
    fn parse_control_accepts_coordinator_frames() {
        assert!(matches!(
            parse_request(r#"{"cmd":"schema"}"#),
            Request::Schema
        ));
        match parse_request(r#"{"cmd":"values","attr":"X","indices":[1]}"#) {
            Request::Values(body) => {
                // The cmd key is stripped; the body keeps the rest.
                assert!(matches!(&body, Json::Obj(fields) if fields.len() == 2));
            }
            other => panic!("expected Values, got {other:?}"),
        }
        match parse_request(r#"{"cmd":"count","attr":"X","cuts":[],"threads":1}"#) {
            Request::Count(_) => {}
            other => panic!("expected Count, got {other:?}"),
        }
        match parse_request(r#"{"cmd":"count2d","attr":"X","attr2":"Y","x_cuts":[],"y_cuts":[]}"#) {
            Request::Count2D(body) => {
                assert!(matches!(&body, Json::Obj(fields) if fields.len() == 4));
            }
            other => panic!("expected Count2D, got {other:?}"),
        }
    }
}
