//! The wire schema: which Rust value travels as which JSON shape.
//!
//! One [`Wire`] trait carries both directions. Primitives, `Vec<T>`,
//! slices and two-element pairs implement it directly; every
//! **object-shaped** type states its keys exactly once, in a field
//! table (`wire_struct!`, `wire_fns!`, `wire_variants!`,
//! `wire_names!`) from which the encoder, the decoder and the strict
//! missing / unknown / duplicate-key checks all derive — so the two
//! directions cannot drift, and adding a wire field is one table line.
//! Key order on the wire is table order.
//!
//! Field modes: `req` is always present; `opt` is an `Option` omitted
//! when `None`; `def(x)` is omitted when equal to `x` and decodes to
//! `x` when absent (canonical encodings carry minimal fields).

use super::value::{enc_f64, Json, JsonError, JsonResult, Num, ObjReader};
use crate::cache::ShardStats;
use crate::query::{AvgRule, Rule, RuleSet, Task};
use crate::ratio::Ratio;
use crate::region2d::GridCounts;
use crate::rule::{RangeRule, RectRule, RuleKind};
use crate::server::ExecuteCtx;
use crate::shared::{AppendOutcome, StatsSnapshot};
use crate::spec::{CondSpec, ObjectiveSpec, QuerySpec, Real};
use optrules_bucketing::{BucketCounts, BucketSpec};
use optrules_obs::{Gauges, HistogramSnapshot};
use optrules_relation::{RowFrame, Schema};
use std::collections::HashSet;

/// A value with a JSON wire form: [`enc`](Wire::enc) and
/// [`dec`](Wire::dec) are inverse on every value `enc` can produce,
/// and `dec` is strict — a wrong shape is an error, never a default.
pub trait Wire {
    /// The canonical wire form.
    fn enc(&self) -> Json;
    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// Fails on any shape or type violation.
    fn dec(value: &Json) -> JsonResult<Self>
    where
        Self: Sized;
}

impl Wire for String {
    fn enc(&self) -> Json {
        Json::Str(self.clone())
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        value.as_str().map(str::to_string)
    }
}

impl Wire for str {
    fn enc(&self) -> Json {
        Json::Str(self.into())
    }
}

impl Wire for bool {
    fn enc(&self) -> Json {
        Json::Bool(*self)
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        value.as_bool()
    }
}

impl Wire for u64 {
    fn enc(&self) -> Json {
        Json::Num(Num::UInt(*self))
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        value.as_u64()
    }
}

impl Wire for usize {
    fn enc(&self) -> Json {
        Json::Num(Num::UInt(*self as u64))
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        usize::try_from(value.as_u64()?).map_err(|e| JsonError::decode(e.to_string()))
    }
}

/// Floats ride the non-finite string channel (see the value docs).
impl Wire for f64 {
    fn enc(&self) -> Json {
        enc_f64(*self)
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        value.as_f64()
    }
}

impl Wire for Real {
    fn enc(&self) -> Json {
        enc_f64(self.0)
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        value.as_f64().map(Real)
    }
}

impl<T: Wire> Wire for [T] {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(Wire::enc).collect())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self) -> Json {
        self.as_slice().enc()
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        value.as_arr()?.iter().map(T::dec).collect()
    }
}

/// A pair is a two-element array (`[s, t]`, `[lo, hi]`, `[num, den]`).
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self) -> Json {
        Json::Arr(vec![self.0.enc(), self.1.enc()])
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        match value.as_arr()? {
            [a, b] => Ok((A::dec(a)?, B::dec(b)?)),
            other => Err(JsonError::decode(format!(
                "expected a two-element array, got {} elements",
                other.len()
            ))),
        }
    }
}

/// Thresholds are exact rationals `[numerator, denominator]`.
impl Wire for Ratio {
    fn enc(&self) -> Json {
        (self.num(), self.den()).enc()
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        let (num, den) = Wire::dec(value)?;
        Ratio::new(num, den).map_err(|e| JsonError::decode(e.to_string()))
    }
}

/// Bucket boundaries — the one finite-cuts decoder every frame shares.
/// `BucketSpec::from_cuts` sorts with a NaN-unaware comparator, so
/// non-finite cuts are rejected before they can reach it.
impl Wire for BucketSpec {
    fn enc(&self) -> Json {
        self.cuts().enc()
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        let cuts = Vec::<f64>::dec(value)?;
        if cuts.iter().any(|c| !c.is_finite()) {
            return Err(JsonError::decode("bucket cuts must be finite"));
        }
        Ok(BucketSpec::from_cuts(cuts))
    }
}

// ---------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------

/// The object a table encodes: its present fields, in table order.
pub(crate) fn table_object<const N: usize>(fields: [Option<(String, Json)>; N]) -> Json {
    let mut present = Vec::with_capacity(N);
    present.extend(fields.into_iter().flatten());
    Json::Obj(present)
}

/// One table entry in one direction, by field mode: encoding yields
/// the `(key, value)` pair, or `None` for an omitted field.
macro_rules! wire_field {
    (@enc req, $key:literal, $get:expr) => {
        Some(($key.into(), ($get).enc()))
    };
    (@enc opt, $key:literal, $get:expr) => {
        $get.as_ref().map(|x| ($key.into(), x.enc()))
    };
    (@enc def($default:expr), $key:literal, $get:expr) => {
        ($get != $default).then(|| ($key.into(), ($get).enc()))
    };
    (@dec req, $obj:ident, $key:literal) => {
        Wire::dec($obj.required($key)?)?
    };
    (@dec opt, $obj:ident, $key:literal) => {
        match $obj.optional($key)? {
            Some(value) => Some(Wire::dec(value)?),
            None => None,
        }
    };
    (@dec def($default:expr), $obj:ident, $key:literal) => {
        match $obj.optional($key)? {
            Some(value) => Wire::dec(value)?,
            None => $default,
        }
    };
}

/// The field table of a struct whose fields *are* the wire fields:
/// `mode field = "key"`, in wire order.
macro_rules! wire_struct {
    ($ty:ty, $what:literal {
        $($mode:ident $(($default:expr))? $name:ident = $key:literal),+ $(,)?
    }) => {
        impl Wire for $ty {
            fn enc(&self) -> Json {
                $crate::json::wire::table_object([$(wire_field!(@enc $mode $(($default))?, $key, self.$name)),+])
            }
            fn dec(value: &Json) -> JsonResult<Self> {
                let mut obj = ObjReader::new($what, value)?;
                let out = Self {
                    $($name: wire_field!(@dec $mode $(($default))?, obj, $key)),+
                };
                obj.finish()?;
                Ok(out)
            }
        }
    };
}

/// The field table of an object assembled from borrowed parts: an
/// encoder `fn` over its arguments (`<- expr` reads each field from
/// them) and a decoder `fn` whose trailing expression builds the
/// result from the decoded fields, bound by name. A request frame's
/// table names its `cmd`: the encoder stamps the key first, and
/// [`parse_request`](super::parse_request) strips it again before the
/// body reaches the decoder.
macro_rules! wire_fns {
    (
        $(#[$emeta:meta])* $evis:vis fn $enc:ident($($arg:ident: $argty:ty),* $(,)?);
        $(#[$dmeta:meta])* $dvis:vis fn $dec:ident($($darg:ident: $dargty:ty),*) -> $out:ty;
        $what:literal $(cmd $cmd:literal)? {
            $($mode:ident $(($default:expr))? $name:ident = $key:literal <- $get:expr),+ $(,)?
        } => $build:expr
    ) => {
        $(#[$emeta])*
        $evis fn $enc($($arg: $argty),*) -> Json {
            $crate::json::wire::table_object([
                $(Some(("cmd".into(), Json::Str($cmd.into()))),)?
                $(wire_field!(@enc $mode $(($default))?, $key, $get)),+
            ])
        }
        $(#[$dmeta])*
        $dvis fn $dec(value: &Json $(, $darg: $dargty)*) -> JsonResult<$out> {
            let mut obj = ObjReader::new($what, value)?;
            $(let $name = wire_field!(@dec $mode $(($default))?, obj, $key);)+
            obj.finish()?;
            $build
        }
    };
}

/// The table of an enum that travels as one string per variant.
macro_rules! wire_names {
    ($ty:ident, |$other:ident| $error:expr, { $($variant:ident = $name:literal),+ $(,)? }) => {
        impl Wire for $ty {
            fn enc(&self) -> Json {
                Json::Str(match self { $($ty::$variant => $name),+ }.into())
            }
            fn dec(value: &Json) -> JsonResult<Self> {
                match value.as_str()? {
                    $($name => Ok($ty::$variant),)+
                    $other => Err(JsonError::decode($error)),
                }
            }
        }
    };
}

/// The table of an enum whose variants are told apart by their keys:
/// `Variant { field = "key", lo & hi = "pair-key" }`. The first variant
/// whose keys are all present decodes; otherwise the last variant
/// whose leading key is present names the key it is missing, and an
/// object with no leading key at all gets the `$needs` message.
macro_rules! wire_variants {
    ($ty:ident, $what:literal, $needs:literal, {
        $($variant:ident { $($($field:ident)&+ = $key:literal),+ }),+ $(,)?
    }) => {
        impl Wire for $ty {
            fn enc(&self) -> Json {
                match self {
                    $($ty::$variant { $($($field),+),+ } => Json::Obj(vec![
                        $(($key.into(), wire_variants!(@enc $($field),+))),+
                    ]),)+
                }
            }
            fn dec(value: &Json) -> JsonResult<Self> {
                let mut obj = ObjReader::new($what, value)?;
                let mut missing = None;
                $(
                    let keys = [$($key),+];
                    if keys.iter().all(|key| obj.has(key)) {
                        $(wire_variants!(@dec obj, $key, $($field),+);)+
                        obj.finish()?;
                        return Ok($ty::$variant { $($($field),+),+ });
                    }
                    if obj.has(keys[0]) {
                        missing = keys.iter().copied().find(|key| !obj.has(key));
                    }
                )+
                Err(match missing {
                    Some(key) => obj.missing(key),
                    None => JsonError::decode($needs),
                })
            }
        }
    };
    (@enc $a:ident) => { $a.enc() };
    (@enc $a:ident, $b:ident) => { Json::Arr(vec![$a.enc(), $b.enc()]) };
    (@dec $obj:ident, $key:literal, $a:ident) => {
        let $a = Wire::dec($obj.required($key)?)?;
    };
    (@dec $obj:ident, $key:literal, $a:ident, $b:ident) => {
        let ($a, $b) = Wire::dec($obj.required($key)?)?;
    };
}

/// Encode-only fields whose keys are the source's field names, each
/// value through `Wire::enc` or the named encoder.
macro_rules! named_fields {
    ($src:expr => $($field:ident),+ $(,)?) => {
        named_fields!($src, Wire::enc => $($field),+)
    };
    ($src:expr, $enc:path => $($field:ident),+ $(,)?) => {
        vec![$((stringify!($field).to_string(), $enc(&$src.$field))),+]
    };
}

// ---------------------------------------------------------------------
// Query specs (requests)
// ---------------------------------------------------------------------

wire_variants!(CondSpec, "a condition", "a condition needs a \"bool\" or \"num\" attribute", {
    BoolIs { attr = "bool", value = "is" },
    NumEq { attr = "num", value = "eq" },
    NumInRange { attr = "num", lo & hi = "in" },
});

wire_variants!(ObjectiveSpec, "an objective", "an objective needs \"bool\", \"all\", or \"average\"", {
    Bool { target = "bool" },
    Cond { all = "all" },
    Average { target = "average" },
});

wire_names!(Task,
    |other| format!("task must be \"both\", \"support\", or \"confidence\", got {other:?}"), {
    Both = "both",
    OptimizeSupport = "support",
    OptimizeConfidence = "confidence",
});

wire_struct!(QuerySpec, "a query spec" {
    req attr = "attr",
    opt attr2 = "attr2",
    req objective = "objective",
    def(Vec::new()) given = "given",
    def(Task::Both) task = "task",
    opt min_support = "min_support",
    opt min_confidence = "min_confidence",
    opt min_average = "min_average",
    opt buckets = "buckets",
    opt samples_per_bucket = "samples_per_bucket",
    opt seed = "seed",
    opt threads = "threads",
    def(true) scan_all_booleans = "scan_all_booleans",
});

/// Converts a spec to its canonical [`Json`] value (defaulted fields
/// omitted).
pub fn spec_to_value(spec: &QuerySpec) -> Json {
    spec.enc()
}

/// Decodes a spec from a [`Json`] value (strict: unknown keys are
/// errors).
///
/// # Errors
///
/// Fails on missing/unknown/duplicate keys or wrong value shapes.
pub fn spec_from_value(value: &Json) -> JsonResult<QuerySpec> {
    QuerySpec::dec(value)
}

/// Encodes a spec as one compact JSON line (the request unit of the
/// batch protocol).
pub fn encode_spec(spec: &QuerySpec) -> String {
    spec.enc().encode()
}

/// Parses and decodes a spec from JSON text.
///
/// # Errors
///
/// Fails on syntax errors or schema violations (see
/// [`spec_from_value`]).
pub fn decode_spec(text: &str) -> JsonResult<QuerySpec> {
    QuerySpec::dec(&Json::parse(text)?)
}

// ---------------------------------------------------------------------
// Rule sets (responses)
// ---------------------------------------------------------------------

wire_names!(RuleKind, |other| format!("unknown rule kind {other:?}"), {
    OptimizedSupport = "optimized_support",
    OptimizedConfidence = "optimized_confidence",
    MaximumAverage = "maximum_average",
    MaximumSupportAverage = "maximum_support_average",
    RectSupport = "rect_support",
    RectConfidence = "rect_confidence",
});

wire_struct!(RangeRule, "a rule" {
    req kind = "kind",
    req bucket_range = "buckets",
    req value_range = "values",
    req sup_count = "count",
    req hits = "hits",
    req total_rows = "rows",
});

wire_struct!(AvgRule, "a rule" {
    req kind = "kind",
    req bucket_range = "buckets",
    req value_range = "values",
    req sup_count = "count",
    req sum = "sum",
    req total_rows = "rows",
});

wire_struct!(RectRule, "a rule" {
    req kind = "kind",
    req x_bucket_range = "x_buckets",
    req y_bucket_range = "y_buckets",
    req x_value_range = "x_values",
    req y_value_range = "y_values",
    req sup_count = "count",
    req hits = "hits",
    req total_rows = "rows",
});

/// A rule travels as its shape's table; on the way back `kind` names
/// the shape, whose table then checks every key.
impl Wire for Rule {
    fn enc(&self) -> Json {
        match self {
            Rule::Range(rule) => rule.enc(),
            Rule::Average(rule) => rule.enc(),
            Rule::Rect(rule) => rule.enc(),
        }
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        let kind = RuleKind::dec(ObjReader::new("a rule", value)?.required("kind")?)?;
        Ok(match kind {
            RuleKind::OptimizedSupport | RuleKind::OptimizedConfidence => {
                Rule::Range(Wire::dec(value)?)
            }
            RuleKind::MaximumAverage | RuleKind::MaximumSupportAverage => {
                Rule::Average(Wire::dec(value)?)
            }
            RuleKind::RectSupport | RuleKind::RectConfidence => Rule::Rect(Wire::dec(value)?),
        })
    }
}

// A two-attribute (rectangle) result carries its second attribute as
// `attr2`, right after `attr`; one-dimensional results omit the key,
// so their bytes are a strict subset.
wire_struct!(RuleSet, "a rule set" {
    req attr_name = "attr",
    opt attr2 = "attr2",
    req objective_desc = "objective",
    req buckets_used = "buckets_used",
    req total_rows = "total_rows",
    req rules = "rules",
});

/// Converts a mined result to its canonical [`Json`] value.
pub fn rule_set_to_value(rules: &RuleSet) -> Json {
    rules.enc()
}

/// Decodes a mined result from a [`Json`] value.
///
/// # Errors
///
/// Fails on missing/unknown keys or wrong value shapes.
pub fn rule_set_from_value(value: &Json) -> JsonResult<RuleSet> {
    RuleSet::dec(value)
}

/// Encodes a mined result as one compact JSON line (the response unit
/// of the batch protocol).
pub fn encode_rule_set(rules: &RuleSet) -> String {
    rules.enc().encode()
}

/// Parses and decodes a mined result from JSON text.
///
/// # Errors
///
/// Fails on syntax errors or schema violations.
pub fn decode_rule_set(text: &str) -> JsonResult<RuleSet> {
    RuleSet::dec(&Json::parse(text)?)
}

// ---------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------

/// Wraps a result payload in the protocol's `{"ok": …}` response
/// envelope. The envelope is a byte-level contract shared by
/// `optrules batch` and the TCP server ([`crate::server`]) — build it
/// here, never by hand.
pub fn ok_envelope(value: Json) -> Json {
    Json::Obj(vec![("ok".into(), value)])
}

/// Wraps an error message in the protocol's `{"error": "…"}` response
/// envelope (see [`ok_envelope`]).
pub fn error_envelope(msg: impl Into<String>) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(msg.into()))])
}

/// Wraps a per-shard failure in the coordinator's structured error
/// envelope: `{"error":{"shard":i,"message":"…"}}`. Distinguishable
/// from the string-valued `{"error":"…"}` envelope so clients can tell
/// "your request was bad" from "a backend shard failed".
pub fn shard_error_envelope(shard: usize, msg: impl Into<String>) -> Json {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("shard".into(), shard.enc()),
            ("message".into(), Json::Str(msg.into())),
        ]),
    )])
}

/// Splits a response line into its envelope halves: `Ok(payload)` for
/// `{"ok": …}`, `Err(detail)` for `{"error": …}` (the detail may be a
/// plain string or the structured shard object). Anything else is a
/// protocol violation.
///
/// # Errors
///
/// Fails unless the value is an object with exactly one of the keys.
pub fn envelope_from_value(value: &Json) -> JsonResult<std::result::Result<&Json, &Json>> {
    match value {
        Json::Obj(fields) => match fields.as_slice() {
            [(key, payload)] if key == "ok" => Ok(Ok(payload)),
            [(key, detail)] if key == "error" => Ok(Err(detail)),
            _ => Err(JsonError::decode(
                "a response envelope has exactly one of \"ok\" or \"error\"",
            )),
        },
        other => Err(JsonError::decode(format!(
            "a response envelope is an object, got {}",
            other.type_name()
        ))),
    }
}

// ---------------------------------------------------------------------
// Control-frame payloads: stats, metrics, flush, append, schema
// ---------------------------------------------------------------------

fn shard_to_value(shard: &ShardStats) -> Json {
    Json::Obj(named_fields!(shard => hits, misses, evictions, rejected, cost, entries))
}

/// Converts a [`StatsSnapshot`] to its canonical [`Json`] value — the
/// `{"ok": …}` payload the server returns for a `{"cmd":"stats"}`
/// control frame (schema in the [frame docs](super::frames)). `gauges`
/// are appended as a trailing `"gauges"` object in server context only
/// — batch mode has no uptime or connection count to report, and its
/// stats bytes stay exactly as before.
pub fn stats_to_value(snapshot: &StatsSnapshot, gauges: Option<&Gauges>) -> Json {
    let mut fields = named_fields!(snapshot => generation, rows);
    fields.extend(named_fields!(snapshot.engine =>
        bucketizations, bucket_cache_hits, scans, scan_cache_hits, kernel_scans,
        fallback_scans, coalesced_waits, evictions, rejected, lookups, cached_cost));
    fields.push((
        "shards".into(),
        Json::Arr(snapshot.shards.iter().map(shard_to_value).collect()),
    ));
    if let Some(d) = &snapshot.durability {
        fields.push((
            "durability".into(),
            Json::Obj(named_fields!(d =>
                wal_bytes, unflushed_rows, segments_spilled, last_checkpoint_generation)),
        ));
    }
    if let Some(g) = gauges {
        fields.push(("gauges".into(), gauges_to_value(g)));
    }
    Json::Obj(fields)
}

/// Encodes a stats snapshot as one compact JSON line (no gauges — the
/// batch-mode byte contract).
pub fn encode_stats(snapshot: &StatsSnapshot) -> String {
    stats_to_value(snapshot, None).encode()
}

/// Encodes server liveness gauges as the trailing `"gauges"` object of
/// a stats payload (shared by the single-node engine and the
/// coordinator, so the shape cannot drift).
pub fn gauges_to_value(g: &Gauges) -> Json {
    Json::Obj(named_fields!(g => uptime_ns, connections, inflight_batches))
}

/// Encodes one latency histogram snapshot for the metrics document:
/// exact counters plus bucket-estimated quantiles, and only the
/// **nonzero** buckets as `[lower_bound_ns, count]` pairs (the bucket
/// layout is fixed, so sparse encoding loses nothing).
pub fn histogram_to_value(h: &HistogramSnapshot) -> Json {
    let buckets: Vec<(u64, u64)> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n != 0)
        .map(|(i, &n)| (optrules_obs::bucket_bounds(i).0, n))
        .collect();
    Json::Obj(vec![
        ("count".into(), h.count.enc()),
        ("sum_ns".into(), h.sum.enc()),
        ("max_ns".into(), h.max.enc()),
        ("p50_ns".into(), h.quantile(0.50).enc()),
        ("p90_ns".into(), h.quantile(0.90).enc()),
        ("p99_ns".into(), h.quantile(0.99).enc()),
        ("buckets".into(), buckets.enc()),
    ])
}

/// Encodes the `server` object of the metrics document: the gauges
/// followed by the request-lifecycle histograms.
pub fn server_metrics_to_value(ctx: &ExecuteCtx<'_>) -> Json {
    let Json::Obj(mut fields) = gauges_to_value(&ctx.gauges) else {
        unreachable!("gauges encode as an object")
    };
    fields.extend(named_fields!(ctx.obs.snapshot(), histogram_to_value =>
        queue_wait, batch_execute, response_write));
    Json::Obj(fields)
}

/// The `{"ok": …}` payload acknowledging a `{"cmd":"flush"}` frame.
pub fn flush_to_value(generation: u64) -> Json {
    Json::Obj(vec![
        ("flushed".into(), Json::Bool(true)),
        ("generation".into(), generation.enc()),
    ])
}

// The append acknowledgment: `{"appended": k, "generation": g,
// "rows": n}`.
wire_struct!(AppendOutcome, "an append acknowledgment" {
    req appended = "appended",
    req generation = "generation",
    req total_rows = "rows",
});

/// Converts an [`AppendOutcome`] to the `{"ok": …}` payload of the
/// append acknowledgment.
pub fn append_to_value(outcome: &AppendOutcome) -> Json {
    outcome.enc()
}

/// Decodes an append acknowledgment payload (the `{"ok": …}` body).
///
/// # Errors
///
/// Fails on shape violations.
pub fn append_from_value(value: &Json) -> JsonResult<AppendOutcome> {
    AppendOutcome::dec(value)
}

/// Upper bound on rows in one `{"cmd":"append"}` frame. A frame over
/// the cap is answered with an error envelope and applies nothing —
/// callers wanting to load more rows send several frames (each is one
/// generation). Bounds per-frame memory the same way the server's
/// `max_line_bytes` bounds line length.
pub const MAX_APPEND_ROWS: usize = 1024;

/// Upper bound on a request's `threads` (spec and `count` frame): each
/// is one scoped OS thread with its own stack for the scan's duration.
/// Like the three limits below it is enforced where specs resolve
/// ([`plan::resolve`](crate::plan::resolve)), so one request line can
/// never claim unbounded threads or memory.
pub const MAX_THREADS: usize = 256;

/// Upper bound on a spec's `buckets` — per-bucket counters are
/// allocated up front, several series per scan. Covers the paper's
/// largest experiment (M = 10⁶).
pub const MAX_BUCKETS: usize = 1 << 20;

/// Upper bound on a spec's sample size `buckets × samples_per_bucket`
/// (Algorithm 3.1 materializes and sorts the whole sample); covers
/// M = 10⁶ at the paper's 40 samples per bucket.
pub const MAX_SAMPLE: u64 = 1 << 26;

/// Upper bound on a rectangle spec's grid cells `buckets²` (a dense
/// cell array under an O(nx² · ny) sweep): 512 buckets per axis.
pub const MAX_GRID_CELLS: usize = 1 << 18;

/// Decodes and validates the `rows` value of an append frame against a
/// schema. Each row is one JSON array holding the numeric cells (JSON
/// numbers, in numeric column order) followed by the Boolean cells
/// (JSON `true`/`false`, in Boolean column order) — strict: wrong
/// arity, a non-numeric cell, a non-Boolean cell, an empty frame, or a
/// frame over [`MAX_APPEND_ROWS`] all fail without applying anything.
///
/// # Errors
///
/// Fails on any shape or type violation, naming the offending row.
pub fn rows_from_value(value: &Json, schema: &Schema) -> JsonResult<Vec<RowFrame>> {
    let Json::Arr(rows) = value else {
        return Err(JsonError::decode(format!(
            "append rows must be an array of row arrays, got {}",
            value.type_name()
        )));
    };
    if rows.is_empty() {
        return Err(JsonError::decode("append frame has no rows"));
    }
    if rows.len() > MAX_APPEND_ROWS {
        return Err(JsonError::decode(format!(
            "append frame exceeds {MAX_APPEND_ROWS} rows (got {})",
            rows.len()
        )));
    }
    let numeric = schema.numeric_count();
    let boolean = schema.boolean_count();
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let Json::Arr(cells) = row else {
                return Err(JsonError::decode(format!(
                    "row {i} must be an array of cells, got {}",
                    row.type_name()
                )));
            };
            if cells.len() != numeric + boolean {
                return Err(JsonError::decode(format!(
                    "row {i} has {} cells; the schema needs {numeric} numeric + \
                     {boolean} boolean = {}",
                    cells.len(),
                    numeric + boolean
                )));
            }
            let mut frame = RowFrame {
                numeric: Vec::with_capacity(numeric),
                boolean: Vec::with_capacity(boolean),
            };
            for (j, cell) in cells.iter().enumerate() {
                match cell {
                    // The parser already rejects non-finite literals,
                    // so the finiteness check is defense in depth: no
                    // NaN/inf may reach bucket assignment through the
                    // wire path, whatever the frame's provenance.
                    Json::Num(_) if j < numeric => {
                        let v = cell.as_f64()?;
                        if !v.is_finite() {
                            return Err(JsonError::decode(format!(
                                "row {i} cell {j}: non-finite numeric value {v} \
                                 (NaN and ±inf cannot be bucketized)"
                            )));
                        }
                        frame.numeric.push(v);
                    }
                    Json::Bool(b) if j >= numeric => frame.boolean.push(*b),
                    other => {
                        let want = if j < numeric { "number" } else { "boolean" };
                        return Err(JsonError::decode(format!(
                            "row {i} cell {j}: expected a {want}, got {}",
                            other.type_name()
                        )));
                    }
                }
            }
            Ok(frame)
        })
        .collect()
}

wire_fns! {
    /// The `{"ok": …}` payload answering a `{"cmd":"schema"}` frame:
    /// attribute names in column order plus the current generation and
    /// row count.
    pub fn schema_to_value(schema: &Schema, generation: u64, rows: u64);
    /// Decodes a schema reply payload into `(schema, generation, rows)`.
    ///
    /// # Errors
    ///
    /// Fails on shape violations.
    pub fn schema_from_value() -> (Schema, u64, u64);
    "a schema reply" {
        req numeric = "numeric" <- schema.numeric_names(),
        req boolean = "boolean" <- schema.boolean_names(),
        req generation = "generation" <- generation,
        req rows = "rows" <- rows,
    } => {
        let (numeric, boolean): (Vec<String>, Vec<String>) = (numeric, boolean);
        // The schema builder asserts unique names; a reply is outside
        // input, so a repeat must be an error here, not a panic there.
        let mut seen = HashSet::new();
        if let Some(name) = numeric.iter().chain(&boolean).find(|name| !seen.insert(*name)) {
            return Err(JsonError::decode(format!(
                "a schema reply repeats the attribute name {name:?}"
            )));
        }
        let builder = numeric.iter().fold(Schema::builder(), |b, name| b.numeric(name));
        let builder = boolean.iter().fold(builder, |b, name| b.boolean(name));
        Ok((builder.build(), generation, rows))
    }
}

// ---------------------------------------------------------------------
// Shard-internal replies: values / count / count2d (the request
// frames they answer are tabled in `frames`).
// ---------------------------------------------------------------------

wire_fns! {
    /// The `{"ok": …}` payload answering a values frame.
    pub fn values_reply_to_value(values: &[f64], generation: u64);
    /// Decodes a values reply payload into `(values, generation)`.
    ///
    /// # Errors
    ///
    /// Fails on shape violations.
    pub fn values_reply_from_value() -> (Vec<f64>, u64);
    "a values reply" {
        req generation = "generation" <- generation,
        req values = "values" <- values,
    } => Ok((values, generation))
}

wire_fns! {
    /// The `{"ok": …}` payload answering a count frame: the **raw,
    /// uncompacted** per-bucket counts plus the generation they were
    /// scanned at.
    pub fn counts_to_value(counts: &BucketCounts, generation: u64);
    /// Decodes a count reply payload into `(counts, generation)`.
    ///
    /// # Errors
    ///
    /// Fails on shape violations or mismatched per-bucket arities.
    pub fn counts_from_value() -> (BucketCounts, u64);
    "a count reply" {
        req generation = "generation" <- generation,
        req total_rows = "rows" <- counts.total_rows,
        req u = "u" <- counts.u,
        req bool_v = "v" <- counts.bool_v,
        req sums = "sums" <- counts.sums,
        req ranges = "ranges" <- counts.ranges,
    } => {
        let counts = BucketCounts { u, bool_v, sums, ranges, total_rows };
        let buckets = counts.u.len();
        if counts.ranges.len() != buckets
            || counts.bool_v.iter().any(|row| row.len() != buckets)
            || counts.sums.iter().any(|row| row.len() != buckets)
        {
            return Err(JsonError::decode("count reply series disagree on bucket count"));
        }
        Ok((counts, generation))
    }
}

/// One bucket's observed `[lo, hi]` in a grid reply. Empty buckets
/// hold the `(∞, −∞)` min/max fold identity in memory; on the wire
/// they travel as `null`, **never** through the string-encoded
/// non-finite channel the 1-D reply uses — every number in the 2-D
/// wire schema is finite by construction.
struct Span(f64, f64);

impl Span {
    fn all(ranges: &[(f64, f64)]) -> Vec<Span> {
        ranges.iter().map(|&(lo, hi)| Span(lo, hi)).collect()
    }
}

impl Wire for Span {
    fn enc(&self) -> Json {
        if self.0 > self.1 {
            Json::Null
        } else {
            (self.0, self.1).enc()
        }
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        if let Json::Null = value {
            return Ok(Span(f64::INFINITY, f64::NEG_INFINITY));
        }
        let (lo, hi): (f64, f64) = Wire::dec(value)?;
        if !lo.is_finite() || !hi.is_finite() {
            return Err(JsonError::decode(
                "grid range bounds must be finite (empty buckets travel as null)",
            ));
        }
        Ok(Span(lo, hi))
    }
}

wire_fns! {
    /// The `{"ok": …}` payload answering a count2d frame: the **raw,
    /// unmerged** grid partial plus the generation it was scanned at
    /// (empty buckets travel as `null` ranges).
    pub fn grid_to_value(grid: &GridCounts, generation: u64);
    /// Decodes a grid reply payload into `(grid, generation)`,
    /// restoring the `(∞, −∞)` empty-bucket sentinel from each `null`
    /// range so merges fold correctly.
    ///
    /// # Errors
    ///
    /// Fails on shape violations, non-finite range bounds, or
    /// mismatched cell/range arities.
    pub fn grid_from_value() -> (GridCounts, u64);
    "a grid reply" {
        req generation = "generation" <- generation,
        req total_rows = "rows" <- grid.total_rows,
        req nx = "nx" <- grid.nx(),
        req ny = "ny" <- grid.ny(),
        req u = "u" <- grid.u_cells(),
        req v = "v" <- grid.v_cells(),
        req x_ranges = "x_ranges" <- Span::all(&grid.x_ranges),
        req y_ranges = "y_ranges" <- Span::all(&grid.y_ranges),
    } => {
        let tuples = |spans: Vec<Span>| spans.into_iter().map(|Span(lo, hi)| (lo, hi)).collect();
        GridCounts::from_parts(nx, ny, u, v, tuples(x_ranges), tuples(y_ranges), total_rows)
            .map(|grid| (grid, generation))
            .map_err(|e| JsonError::decode(e.to_string()))
    }
}
