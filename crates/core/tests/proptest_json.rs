//! Property tests for the JSON protocol layer — one set of properties
//! over **every** wire type (`optrules_core::json::Wire` and the
//! field-table codecs), instead of per-type examples:
//!
//! 1. **Round trip.** `dec(enc(x)) == x` and the canonical encoding is
//!    a fixed point, `enc(dec(enc(x))) == enc(x)`, through the text
//!    form — for specs, rule sets (all three rule shapes), the append
//!    acknowledgment, the values / counts / grid (incl. empty-bucket
//!    `null` ranges) / schema replies and the shard-internal `values` /
//!    `count` / `count2d` frames.
//! 2. **Strictness**, derived from the field table: dropping a
//!    required key, adding an unknown key and duplicating a key are
//!    each rejected, with the pinned message.
//! 3. **Never panic.** `parse_request` and every frame / reply decoder
//!    return `Ok` or `Err` on arbitrary mutations (byte flips,
//!    truncation, type swaps, nesting past the depth limit) of valid
//!    lines.
//!
//! Byte-level golden tests for `RuleSet` responses live in
//! `tests/batch.rs` and the module's unit tests.

use optrules_bucketing::{BucketCounts, BucketSpec, CountSpec};
use optrules_core::json::{self, decode_spec, encode_spec, Json, JsonError, Num, Request, Wire};
use optrules_core::shared::AppendOutcome;
use optrules_core::{
    AvgRule, CondSpec, GridCounts, ObjectiveSpec, QuerySpec, RangeRule, Ratio, Real, RectRule,
    Rule, RuleKind, RuleSet, Task,
};
use optrules_relation::{BoolAttr, Condition, NumAttr, Schema};
use proptest::prelude::*;
use std::fmt::{self, Debug};

/// Attribute-ish names, including empty strings and characters the
/// encoder must escape.
fn names() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Balance".to_string()),
        Just("CardLoan".to_string()),
        Just(String::new()),
        Just("weird \"name\"\\with\nescapes\t".to_string()),
        Just("unicode café ☕ \u{1f}".to_string()),
        prop::collection::vec(0u8..26, 1..12)
            .prop_map(|v| v.into_iter().map(|c| (b'a' + c) as char).collect()),
    ]
}

/// Floats incl. specials: condition bounds and thresholds must survive
/// the trip bit-exactly. `any::<f64>()` draws uniform bit patterns, so
/// NaN payloads, subnormals, and ±∞ all occur — plus a few pinned
/// troublemakers.
fn reals() -> impl Strategy<Value = Real> {
    prop_oneof![
        any::<f64>().prop_map(Real),
        Just(Real(0.0)),
        Just(Real(-0.0)),
        Just(Real(f64::INFINITY)),
        Just(Real(f64::NEG_INFINITY)),
        Just(Real(f64::NAN)),
        Just(Real(f64::from_bits(0x7ff8_0000_0000_0001))), // payload NaN
        Just(Real(f64::from_bits(0xfff8_0000_0000_0000))), // negative NaN
        Just(Real(1e-300)),
        Just(Real(1e300)),
        Just(Real(0.1)),
    ]
}

/// Floats that compare equal to themselves (`f64` fields use IEEE
/// equality): everything but NaN, ±∞ included.
fn floats() -> impl Strategy<Value = f64> {
    reals().prop_map(|r| if r.0.is_nan() { 0.5 } else { r.0 })
}

fn finite() -> impl Strategy<Value = f64> {
    floats().prop_map(|x| if x.is_finite() { x } else { -2.5 })
}

fn conds() -> impl Strategy<Value = CondSpec> {
    prop_oneof![
        (names(), any::<bool>()).prop_map(|(attr, value)| CondSpec::BoolIs { attr, value }),
        (names(), reals()).prop_map(|(attr, value)| CondSpec::NumEq { attr, value }),
        (names(), reals(), reals()).prop_map(|(attr, lo, hi)| CondSpec::NumInRange {
            attr,
            lo,
            hi
        }),
    ]
}

fn objectives() -> impl Strategy<Value = ObjectiveSpec> {
    prop_oneof![
        names().prop_map(|target| ObjectiveSpec::Bool { target }),
        prop::collection::vec(conds(), 0..4).prop_map(|all| ObjectiveSpec::Cond { all }),
        names().prop_map(|target| ObjectiveSpec::Average { target }),
    ]
}

fn tasks() -> impl Strategy<Value = Task> {
    prop_oneof![
        Just(Task::Both),
        Just(Task::OptimizeSupport),
        Just(Task::OptimizeConfidence),
    ]
}

fn ratios() -> impl Strategy<Value = Ratio> {
    (any::<u64>(), 1u64..u64::MAX).prop_map(|(num, den)| Ratio::new(num, den).expect("den >= 1"))
}

#[allow(clippy::type_complexity)]
fn specs() -> impl Strategy<Value = QuerySpec> {
    (
        (
            names(),
            // The 2-D extension: an optional second attribute turns the
            // spec into a rectangle query; its name needs the same
            // escaping guarantees as the first.
            prop::option::of(names()),
            prop::collection::vec(conds(), 0..4),
            objectives(),
            tasks(),
        ),
        (
            prop::option::of(ratios()),
            prop::option::of(ratios()),
            prop::option::of(reals()),
            prop::option::of(1usize..100_000),
        ),
        (
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            prop::option::of(1usize..64),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (attr, attr2, given, objective, task),
                (min_support, min_confidence, min_average, buckets),
                (samples_per_bucket, seed, threads, scan_all_booleans),
            )| {
                let mut spec = QuerySpec::new(attr, objective);
                spec.attr2 = attr2;
                spec.given = given;
                spec.task = task;
                spec.min_support = min_support;
                spec.min_confidence = min_confidence;
                spec.min_average = min_average;
                spec.buckets = buckets;
                spec.samples_per_bucket = samples_per_bucket;
                spec.seed = seed;
                spec.threads = threads;
                spec.scan_all_booleans = scan_all_booleans;
                spec
            },
        )
}

fn spans() -> impl Strategy<Value = (usize, usize)> {
    (0usize..5_000, 0usize..5_000)
}

fn pairs() -> impl Strategy<Value = (f64, f64)> {
    (floats(), floats())
}

fn rules() -> impl Strategy<Value = Rule> {
    let counts = || (any::<u64>(), any::<u64>(), any::<u64>());
    prop_oneof![
        (any::<bool>(), spans(), pairs(), counts()).prop_map(
            |(support, bucket_range, value_range, (sup_count, hits, total_rows))| {
                Rule::Range(RangeRule {
                    kind: if support {
                        RuleKind::OptimizedSupport
                    } else {
                        RuleKind::OptimizedConfidence
                    },
                    bucket_range,
                    value_range,
                    sup_count,
                    hits,
                    total_rows,
                })
            }
        ),
        (any::<bool>(), spans(), pairs(), counts(), floats()).prop_map(
            |(support, bucket_range, value_range, (sup_count, _, total_rows), sum)| {
                Rule::Average(AvgRule {
                    kind: if support {
                        RuleKind::MaximumSupportAverage
                    } else {
                        RuleKind::MaximumAverage
                    },
                    bucket_range,
                    value_range,
                    sup_count,
                    sum,
                    total_rows,
                })
            }
        ),
        (
            any::<bool>(),
            (spans(), spans()),
            (pairs(), pairs()),
            counts()
        )
            .prop_map(
                |(support, (x_bucket_range, y_bucket_range), (x_value_range, y_value_range), n)| {
                    Rule::Rect(RectRule {
                        kind: if support {
                            RuleKind::RectSupport
                        } else {
                            RuleKind::RectConfidence
                        },
                        x_bucket_range,
                        y_bucket_range,
                        x_value_range,
                        y_value_range,
                        sup_count: n.0,
                        hits: n.1,
                        total_rows: n.2,
                    })
                }
            ),
    ]
}

fn rule_sets() -> impl Strategy<Value = RuleSet> {
    (
        (names(), prop::option::of(names()), names()),
        prop::collection::vec(rules(), 0..4),
        0usize..2_000_000,
        any::<u64>(),
    )
        .prop_map(
            |((attr_name, attr2, objective_desc), rules, buckets_used, total_rows)| RuleSet {
                attr_name,
                attr2,
                objective_desc,
                rules,
                buckets_used,
                total_rows,
            },
        )
}

/// The schema the shard-internal frames resolve their names against.
fn schema() -> Schema {
    Schema::builder()
        .numeric("X")
        .numeric("Y")
        .numeric("unicode café ☕")
        .boolean("B1")
        .boolean("B \"2\"")
        .build()
}

fn num_attrs() -> impl Strategy<Value = NumAttr> {
    (0usize..3).prop_map(NumAttr)
}

/// Resolved conditions in the canonical (flattened) form every
/// planner-built condition has: `True`, one primitive, or an `And` of
/// two or more primitives.
fn conditions() -> impl Strategy<Value = Condition> {
    let primitive = prop_oneof![
        (0usize..2, any::<bool>()).prop_map(|(b, is)| Condition::BoolIs(BoolAttr(b), is)),
        (num_attrs(), reals()).prop_map(|(a, x)| Condition::NumEq(a, x.0)),
        (num_attrs(), reals(), reals())
            .prop_map(|(a, lo, hi)| Condition::NumInRange(a, lo.0, hi.0)),
    ];
    prop::collection::vec(primitive, 0..4)
        .prop_map(|parts| parts.into_iter().fold(Condition::True, Condition::and))
}

fn cuts() -> impl Strategy<Value = BucketSpec> {
    prop::collection::vec(finite(), 0..6).prop_map(BucketSpec::from_cuts)
}

fn traces() -> impl Strategy<Value = Option<String>> {
    prop::option::of(names())
}

/// Decodes, then reports `(re-encoding, equal to the original)`.
type Redecode = dyn Fn(&Json) -> Result<(Json, bool), JsonError>;

/// One generated wire value of some type, with everything the three
/// properties need, type-erased.
struct Case {
    /// The decoder's name for the type (`"a query spec"`, …).
    what: &'static str,
    /// Keys whose absence is a `"… is missing …"` error.
    required: &'static [&'static str],
    /// The line as it travels (a request frame includes its `cmd`).
    line: String,
    /// The object the decoder sees: the parsed line, or for a request
    /// frame the body `parse_request` strips the `cmd` from.
    wire: Json,
    dec: Box<Redecode>,
}

impl Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.what, self.line)
    }
}

/// The body of a shard-internal request frame, as the public request
/// path delivers it to the decoder.
fn frame_body(frame: &Json) -> Json {
    match json::parse_request(&frame.encode()) {
        Request::Values(body) | Request::Count(body) | Request::Count2D(body) => body,
        other => panic!("not a shard-internal frame: {other:?}"),
    }
}

fn case<T: 'static>(
    what: &'static str,
    required: &'static [&'static str],
    original: T,
    enc: impl Fn(&T) -> Json + 'static,
    dec: impl Fn(&Json) -> Result<T, JsonError> + 'static,
    same: impl Fn(&T, &T) -> bool + 'static,
) -> Case {
    let line = enc(&original);
    let is_frame = matches!(&line, Json::Obj(fields) if fields.iter().any(|(k, _)| k == "cmd"));
    let body = move |value: Json| if is_frame { frame_body(&value) } else { value };
    Case {
        what,
        required,
        line: line.encode(),
        wire: body(line),
        dec: Box::new(move |value| {
            let back = dec(value)?;
            Ok((body(enc(&back)), same(&back, &original)))
        }),
    }
}

fn wire_case<T: Wire + PartialEq + 'static>(
    what: &'static str,
    required: &'static [&'static str],
    original: T,
) -> Case {
    case(what, required, original, T::enc, T::dec, T::eq)
}

fn debug_eq<T: Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Per-bucket count series with consistent arities, incl. the
/// `(∞, −∞)` empty-bucket range the 1-D reply carries as strings.
fn bucket_counts() -> impl Strategy<Value = BucketCounts> {
    let bucket = (any::<u64>(), any::<u64>(), any::<u64>(), floats(), pairs());
    (
        prop::collection::vec(bucket, 0..6),
        0usize..3,
        0usize..2,
        any::<u64>(),
    )
        .prop_map(|(buckets, bools, sums, total_rows)| {
            let mut bool_v = vec![
                buckets.iter().map(|b| b.1).collect::<Vec<_>>(),
                buckets.iter().map(|b| b.2).collect(),
            ];
            bool_v.truncate(bools);
            let mut sum_rows = vec![buckets.iter().map(|b| b.3).collect::<Vec<_>>()];
            sum_rows.truncate(sums);
            BucketCounts {
                u: buckets.iter().map(|b| b.0).collect(),
                bool_v,
                sums: sum_rows,
                ranges: buckets.iter().map(|b| b.4).collect(),
                total_rows,
            }
        })
}

/// Grids whose buckets are either observed (`lo ≤ hi`, finite) or
/// empty (the `(∞, −∞)` sentinel, `null` on the wire).
fn grids() -> impl Strategy<Value = GridCounts> {
    let range = || {
        prop_oneof![
            Just((f64::INFINITY, f64::NEG_INFINITY)),
            (finite(), finite()).prop_map(|(a, b)| (a.min(b), a.max(b))),
        ]
    };
    let ranges = || prop::collection::vec(range(), 3..4);
    (
        (1usize..4, 1usize..4),
        prop::collection::vec((any::<u64>(), any::<u64>()), 9..10),
        (ranges(), ranges()),
        any::<u64>(),
    )
        .prop_map(|((nx, ny), cells, (xs, ys), total_rows)| {
            let cells = &cells[..nx * ny];
            GridCounts::from_parts(
                nx,
                ny,
                cells.iter().map(|c| c.0).collect(),
                cells.iter().map(|c| c.1).collect(),
                xs[..nx].to_vec(),
                ys[..ny].to_vec(),
                total_rows,
            )
            .expect("consistent arities")
        })
}

fn count_specs() -> impl Strategy<Value = (NumAttr, Option<CountSpec>)> {
    (
        num_attrs(),
        prop::option::of((
            conditions(),
            prop::collection::vec(conditions(), 0..3),
            prop::collection::vec(num_attrs(), 0..2),
        )),
    )
        .prop_map(|(attr, what)| {
            let what = what.map(|(presumptive, bool_targets, sum_targets)| CountSpec {
                attr,
                presumptive,
                bool_targets,
                sum_targets,
            });
            (attr, what)
        })
}

/// Every wire type, uniformly.
fn cases() -> impl Strategy<Value = Case> {
    const RULE_1D: &[&str] = &["kind", "buckets", "values", "count", "rows"];
    prop_oneof![
        specs().prop_map(|spec| wire_case("a query spec", &["attr", "objective"], spec)),
        conds().prop_map(|cond| wire_case("a condition", &[], cond)),
        objectives().prop_map(|objective| wire_case("an objective", &[], objective)),
        rule_sets().prop_map(|rules| wire_case(
            "a rule set",
            &["attr", "objective", "buckets_used", "total_rows", "rules"],
            rules
        )),
        rules().prop_map(|rule| {
            let required: &[&str] = match rule {
                Rule::Rect(_) => &[
                    "kind",
                    "x_buckets",
                    "y_buckets",
                    "x_values",
                    "y_values",
                    "count",
                    "hits",
                    "rows",
                ],
                _ => RULE_1D,
            };
            wire_case("a rule", required, rule)
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(appended, generation, rows)| {
            wire_case(
                "an append acknowledgment",
                &["appended", "generation", "rows"],
                AppendOutcome {
                    appended,
                    generation,
                    total_rows: rows,
                },
            )
        }),
        (prop::collection::vec(floats(), 0..6), any::<u64>()).prop_map(|reply| case(
            "a values reply",
            &["generation", "values"],
            reply,
            |(values, generation)| json::values_reply_to_value(values, *generation),
            json::values_reply_from_value,
            PartialEq::eq,
        )),
        (bucket_counts(), any::<u64>()).prop_map(|reply| case(
            "a count reply",
            &["generation", "rows", "u", "v", "sums", "ranges"],
            reply,
            |(counts, generation)| json::counts_to_value(counts, *generation),
            json::counts_from_value,
            PartialEq::eq,
        )),
        (grids(), any::<u64>()).prop_map(|reply| case(
            "a grid reply",
            &[
                "generation",
                "rows",
                "nx",
                "ny",
                "u",
                "v",
                "x_ranges",
                "y_ranges"
            ],
            reply,
            |(grid, generation)| json::grid_to_value(grid, *generation),
            json::grid_from_value,
            PartialEq::eq,
        )),
        (any::<u64>(), any::<u64>()).prop_map(|(generation, rows)| case(
            "a schema reply",
            &["numeric", "boolean", "generation", "rows"],
            (schema(), generation, rows),
            |(schema, generation, rows)| json::schema_to_value(schema, *generation, *rows),
            json::schema_from_value,
            PartialEq::eq,
        )),
        (
            num_attrs(),
            prop::collection::vec(any::<u64>(), 0..6),
            traces()
        )
            .prop_map(|frame| case(
                "a values frame",
                &["attr", "indices"],
                frame,
                |(attr, indices, trace)| json::values_frame_to_value(
                    schema().numeric_name(*attr),
                    indices,
                    trace.as_deref()
                ),
                |body| json::values_frame_from_value(body, &schema()),
                PartialEq::eq,
            )),
        (count_specs(), cuts(), 1usize..=256, traces()).prop_map(
            |((attr, what), cuts, threads, trace)| {
                let shared = what.is_none();
                let what = what.unwrap_or_else(|| CountSpec::all_booleans(attr, &schema()));
                case(
                    "a count frame",
                    if shared {
                        &["attr", "cuts", "threads"]
                    } else {
                        &[
                            "attr",
                            "cuts",
                            "threads",
                            "given",
                            "bool_targets",
                            "sum_targets",
                        ]
                    },
                    (cuts, what, threads, trace),
                    move |(cuts, what, threads, trace)| {
                        json::count_frame_to_value(
                            &schema(),
                            what.attr,
                            cuts,
                            (!shared).then_some(what),
                            *threads,
                            trace.as_deref(),
                        )
                    },
                    |body| json::count_frame_from_value(body, &schema()),
                    debug_eq,
                )
            }
        ),
        (
            (num_attrs(), num_attrs()),
            (cuts(), cuts()),
            (conditions(), conditions()),
            traces()
        )
            .prop_map(
                |((x_attr, y_attr), (x_cuts, y_cuts), (presumptive, objective), trace)| case(
                    "a count2d frame",
                    &["attr", "attr2", "x_cuts", "y_cuts", "given", "objective"],
                    json::Count2dFrame {
                        x_attr,
                        y_attr,
                        x_cuts,
                        y_cuts,
                        presumptive,
                        objective,
                        trace,
                    },
                    |f| json::count2d_frame_to_value(
                        &schema(),
                        f.x_attr,
                        f.y_attr,
                        &f.x_cuts,
                        &f.y_cuts,
                        &f.presumptive,
                        &f.objective,
                        f.trace.as_deref()
                    ),
                    |body| json::count2d_frame_from_value(body, &schema()),
                    |a, b| {
                        let parts = |f: &json::Count2dFrame| {
                            format!(
                                "{:?}",
                                (
                                    f.x_attr,
                                    f.y_attr,
                                    &f.x_cuts,
                                    &f.y_cuts,
                                    &f.presumptive,
                                    &f.objective,
                                    &f.trace
                                )
                            )
                        };
                        parts(a) == parts(b)
                    },
                )
            ),
    ]
}

fn fields_of(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(fields) => fields,
        other => panic!("every tabled wire type is an object, got {other:?}"),
    }
}

/// Values a type swap plants: every JSON type, and the numeric
/// extremes length and count fields must survive.
fn replacements() -> Vec<Json> {
    vec![
        Json::Null,
        Json::Bool(true),
        Json::Num(Num::UInt(0)),
        Json::Num(Num::UInt(u64::MAX)),
        Json::Num(Num::Int(i64::MIN)),
        Json::Num(Num::Float(1.5e300)),
        Json::Str(String::new()),
        Json::Str("Infinity".into()),
        Json::Str("NaN".into()),
        Json::Arr(Vec::new()),
        Json::Arr(vec![Json::Null, Json::Num(Num::UInt(1))]),
        Json::Arr(vec![Json::Str("X".into()), Json::Str("X".into())]),
        Json::Obj(Vec::new()),
        Json::Obj(vec![("and".into(), Json::Arr(Vec::new()))]),
    ]
}

fn node_count(value: &Json) -> usize {
    1 + match value {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, item)| node_count(item)).sum(),
        _ => 0,
    }
}

/// Replaces the `target`-th node in pre-order (`target` is below the
/// node count).
fn swap_node(value: &mut Json, target: &mut usize, replacement: &Json) -> bool {
    if *target == 0 {
        *value = replacement.clone();
        return true;
    }
    *target -= 1;
    match value {
        Json::Arr(items) => items
            .iter_mut()
            .any(|item| swap_node(item, target, replacement)),
        Json::Obj(fields) => fields
            .iter_mut()
            .any(|(_, item)| swap_node(item, target, replacement)),
        _ => false,
    }
}

fn mutate(line: &str, kind: usize, at: usize, with: usize) -> String {
    match kind {
        // Flip bits of one byte (lossily re-read as UTF-8, as the
        // server does not accept anything else).
        0 => {
            let mut bytes = line.as_bytes().to_vec();
            let at = at % bytes.len();
            bytes[at] ^= (with as u8) | 1;
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncate at a character boundary.
        1 => {
            let mut cut = at % line.len();
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_string()
        }
        // Nest one level past the parser's depth limit.
        2 => format!("{}{line}{}", "[".repeat(129), "]".repeat(129)),
        // Swap one node for a value of another type.
        _ => {
            let mut value = Json::parse(line).expect("cases are valid JSON");
            let replacements = replacements();
            let replacement = &replacements[with % replacements.len()];
            let mut target = at % node_count(&value);
            assert!(swap_node(&mut value, &mut target, replacement));
            value.encode()
        }
    }
}

/// Hands `line` to the request parser and `value` to every decoder —
/// the returned results are irrelevant, only that each call returns.
fn decode_everything(line: &str) {
    let schema = schema();
    if let Request::Values(body) | Request::Count(body) | Request::Count2D(body) =
        json::parse_request(line)
    {
        let _ = json::values_frame_from_value(&body, &schema);
        let _ = json::count_frame_from_value(&body, &schema);
        let _ = json::count2d_frame_from_value(&body, &schema).is_ok();
    }
    let Ok(value) = Json::parse(line) else { return };
    let _ = json::spec_from_value(&value);
    let _ = json::rule_set_from_value(&value);
    let _ = Rule::dec(&value);
    let _ = CondSpec::dec(&value);
    let _ = ObjectiveSpec::dec(&value);
    let _ = json::append_from_value(&value);
    let _ = json::values_reply_from_value(&value);
    let _ = json::counts_from_value(&value);
    let _ = json::grid_from_value(&value);
    let _ = json::schema_from_value(&value);
    let _ = json::rows_from_value(&value, &schema);
    let _ = json::values_frame_from_value(&value, &schema);
    let _ = json::count_frame_from_value(&value, &schema);
    let _ = json::count2d_frame_from_value(&value, &schema).is_ok();
    if let Ok(Ok(payload) | Err(payload)) = json::envelope_from_value(&value) {
        let _ = json::counts_from_value(payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn query_spec_round_trips_through_json(spec in specs()) {
        let text = encode_spec(&spec);
        let back = decode_spec(&text)
            .unwrap_or_else(|e| panic!("decode({text}) failed: {e}"));
        prop_assert_eq!(&back, &spec, "text: {}", text);
        // The canonical encoding is a fixed point: encoding the
        // decoded spec reproduces the bytes.
        prop_assert_eq!(encode_spec(&back), text);
    }

    /// Property 1, for every wire type, through the text form.
    #[test]
    fn every_wire_type_round_trips_through_its_canonical_text(case in cases()) {
        let text = case.wire.encode();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("parse({text}): {e}"));
        let (again, same) =
            (case.dec)(&parsed).unwrap_or_else(|e| panic!("decode({text}) failed: {e}"));
        prop_assert!(same, "dec(enc(x)) != x for {}", text);
        prop_assert_eq!(again.encode(), text);
    }

    /// Property 2: the strict checks every field table derives.
    #[test]
    fn every_wire_type_rejects_missing_unknown_and_duplicate_keys(case in cases()) {
        let fields = fields_of(&case.wire);
        let message = |fields: Vec<(String, Json)>| (case.dec)(&Json::Obj(fields)).map(|_| ()).map_err(|e| e.msg);
        for (i, (key, value)) in fields.iter().enumerate() {
            let mut without = fields.to_vec();
            without.remove(i);
            let dropped = message(without);
            if case.required.contains(&key.as_str()) {
                prop_assert_eq!(dropped, Err(format!("{} is missing {key:?}", case.what)));
            }
            let mut twice = fields.to_vec();
            twice.push((key.clone(), value.clone()));
            prop_assert_eq!(
                message(twice),
                Err(format!("duplicate key {key:?} in {}", case.what))
            );
        }
        let mut extra = fields.to_vec();
        extra.push(("no_such_key".into(), Json::Null));
        prop_assert_eq!(
            message(extra),
            Err(format!("unknown key \"no_such_key\" in {}", case.what))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Property 3: no mutation of a valid line panics a decoder.
    #[test]
    fn no_decoder_panics_on_mutated_lines(
        case in cases(),
        (kind, at, with) in (0usize..6, any::<usize>(), any::<usize>()),
    ) {
        decode_everything(&case.line);
        decode_everything(&mutate(&case.line, kind, at, with));
    }
}

/// Where a key-discriminated enum's messages differ from a struct's:
/// the variant is chosen by the keys present, so a dropped key may
/// name the key its sibling needs, or no variant at all.
#[test]
fn variant_tables_name_the_missing_key_or_the_choice_of_keys() {
    let cond = |text: &str| CondSpec::dec(&Json::parse(text).unwrap()).map_err(|e| e.msg);
    assert_eq!(
        cond(r#"{"bool":"B"}"#),
        Err("a condition is missing \"is\"".into())
    );
    assert_eq!(
        cond(r#"{"num":"X"}"#),
        Err("a condition is missing \"in\"".into())
    );
    assert_eq!(
        cond(r#"{"is":true}"#),
        Err("a condition needs a \"bool\" or \"num\" attribute".into())
    );
    assert_eq!(
        cond(r#"{"num":"X","eq":1,"in":[0,2]}"#),
        Err("unknown key \"in\" in a condition".into())
    );
    let objective = |text: &str| ObjectiveSpec::dec(&Json::parse(text).unwrap()).map_err(|e| e.msg);
    assert_eq!(
        objective("{}"),
        Err("an objective needs \"bool\", \"all\", or \"average\"".into())
    );
    // A count frame names what to count one way or the other.
    let frame = Json::parse(r#"{"attr":"X","cuts":[],"threads":1}"#).unwrap();
    assert_eq!(
        json::count_frame_from_value(&frame, &schema())
            .map(|_| ())
            .map_err(|e| e.msg),
        Err("a count frame is missing \"given\"".into())
    );
}

/// The duplicate-key check is linear in the object: 100 000 junk keys
/// (formerly 10 s of quadratic comparisons) are rejected at once.
#[test]
fn a_hundred_thousand_key_object_is_rejected_in_linear_time() {
    let junk: String = (0..100_000).map(|i| format!(",\"k{i}\":{i}")).collect();
    let line = format!(r#"{{"attr":"A","objective":{{"bool":"B"}}{junk}}}"#);
    let started = std::time::Instant::now();
    match json::parse_request(&line) {
        Request::Bad(msg) => assert_eq!(msg, "bad request: unknown key \"k0\" in a query spec"),
        other => panic!("expected a bad request, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    // A repeated *known* key is still a duplicate, wherever it sits.
    let line = format!(r#"{{"attr":"A","objective":{{"bool":"B"}}{junk},"attr":"A"}}"#);
    match json::parse_request(&line) {
        Request::Bad(msg) => assert_eq!(msg, "bad request: duplicate key \"attr\" in a query spec"),
        other => panic!("expected a bad request, got {other:?}"),
    }
}
