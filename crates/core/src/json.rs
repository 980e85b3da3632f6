//! A dependency-free JSON layer for the query protocol: encode/decode
//! [`QuerySpec`] requests and [`RuleSet`] responses.
//!
//! Hand-rolled (no serde — this workspace builds offline) but complete
//! for the protocol's needs: a generic [`Json`] value with a strict
//! recursive-descent parser (string escapes incl. `\uXXXX` surrogate
//! pairs, scientific-notation numbers, a nesting-depth limit) and a
//! compact, canonical encoder (stable field order, minimal fields), so
//! encoded output is byte-deterministic and golden-testable.
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
//! # Control frames
//!
//! A request object with a `cmd` key is an operator command, not a
//! query spec. The TCP server (`optrules serve`, [`crate::server`])
//! and `optrules batch` share the grammar ([`parse_request`]); five
//! commands exist:
//!
//! ```json
//! {"cmd": "stats"}
//! {"cmd": "metrics"}
//! {"cmd": "shutdown"}
//! {"cmd": "flush"}
//! {"cmd": "append", "rows": [[3100.5, 41, 1200, 15000, true, false, true]]}
//! ```
//!
//! `stats` answers with `{"ok": <snapshot>}` where the snapshot (see
//! [`stats_to_value`]) carries the current relation generation and row
//! count, the engine counters verbatim, and the per-shard cache
//! breakdown:
//!
//! ```json
//! {
//!   "generation": 2, "rows": 20050,
//!   "bucketizations": 4, "bucket_cache_hits": 44,
//!   "scans": 4, "scan_cache_hits": 44,
//!   "kernel_scans": 4, "fallback_scans": 0, "coalesced_waits": 3,
//!   "evictions": 0, "rejected": 0, "lookups": 96, "cached_cost": 40160,
//!   "shards": [
//!     {"hits": 11, "misses": 1, "evictions": 0, "rejected": 0,
//!      "cost": 10040, "entries": 2}
//!   ]
//! }
//! ```
//!
//! When the engine serves a durable relation (`--data-dir`), the
//! snapshot additionally carries a `durability` object after `shards`:
//!
//! ```json
//! {"durability": {"wal_bytes": 128, "unflushed_rows": 2,
//!                 "segments_spilled": 3, "last_checkpoint_generation": 40}}
//! ```
//!
//! In server context the snapshot ends with a `gauges` object —
//! point-in-time values that exist only while serving (batch-mode
//! stats bytes are unchanged):
//!
//! ```json
//! {"gauges": {"uptime_ns": 81234567, "connections": 2,
//!             "inflight_batches": 1}}
//! ```
//!
//! `metrics` answers `{"ok": <document>}` with the latency-histogram
//! document: per-phase engine timings, the server request lifecycle,
//! and (durable relations only) durability fsync/checkpoint latency.
//! Every histogram `H` has the same shape — exact counters plus
//! bucket-estimated quantiles, with only the nonzero buckets of the
//! fixed 256-bucket log-scale layout encoded as
//! `[lower_bound_ns, count]` pairs ([`histogram_to_value`]):
//!
//! ```json
//! {"count": 12, "sum_ns": 340129, "max_ns": 91200,
//!  "p50_ns": 24575, "p90_ns": 49151, "p99_ns": 98303,
//!  "buckets": [[16384, 7], [24576, 3], [49152, 2]]}
//! ```
//!
//! The single-node document is
//!
//! ```json
//! {"engine": {"bucketize": H, "kernel_scan": H,
//!             "fallback_scan": H, "optimize": H},
//!  "server": {"uptime_ns": 81234567, "connections": 2,
//!             "inflight_batches": 1, "queue_wait": H,
//!             "batch_execute": H, "response_write": H},
//!  "durability": {"wal_fsync": H, "checkpoint": H}}
//! ```
//!
//! where `server` appears only under `optrules serve` (batch mode has
//! no request lifecycle) and `durability` only with `--data-dir`. The
//! coordinator (`optrules coord`) answers with its own document:
//! scatter-gather merge and central-optimize timings plus one
//! `{"values": H, "count": H, "append": H}` object per backend shard,
//! in shard order:
//!
//! ```json
//! {"coord": {"merge": H, "optimize": H,
//!            "shards": [{"values": H, "count": H, "append": H}]},
//!  "server": {…}}
//! ```
//!
//! All durations are nanoseconds. Quantiles are bucket upper bounds
//! clamped to the recorded maximum, so `p50 ≤ p90 ≤ p99 ≤ max` always
//! holds. Histograms merge associatively across shards and threads —
//! the same fixed bucket layout everywhere — and are recorded by
//! lock-free atomic counters (`OPTRULES_METRICS=off` disables
//! recording; the frame then reports empty histograms).
//!
//! Derived rates (hit rate, miss rate) are intentionally not encoded —
//! operators compute them from the exact counters. `shutdown` answers
//! `{"ok":"shutdown"}` and then gracefully stops the server (drain
//! connections, flush responses); in batch mode, which has no server
//! to stop, it answers with an error envelope.
//!
//! `flush` forces a durability checkpoint
//! ([`SharedEngine::flush`](crate::shared::SharedEngine::flush)): the
//! in-memory tail is spilled to a segment file and the write-ahead log
//! is truncated. It answers `{"ok":{"flushed":true,"generation":g}}`
//! with the current generation; over a non-durable (in-memory) relation
//! it is a no-op with the same acknowledgment. The server's graceful
//! shutdown drains through the same path, so a clean stop never leaves
//! a WAL tail behind.
//!
//! `append` appends rows to the live relation, producing the next
//! **generation** (see
//! [`SharedEngine::append_rows`](crate::shared::SharedEngine::append_rows)).
//! Each row is one JSON array: the numeric cells (numbers, in numeric
//! column order) followed by the Boolean cells (`true`/`false`, in
//! Boolean column order). Validation is strict and atomic — wrong
//! arity, a non-numeric/non-Boolean cell, an empty `rows`, or more
//! than [`MAX_APPEND_ROWS`] rows per frame produce an `{"error": …}`
//! response and append **nothing** ([`rows_from_value`]). Success
//! answers
//!
//! ```json
//! {"ok": {"appended": 1, "generation": 3, "rows": 20051}}
//! ```
//!
//! Requests are executed in order per connection (and per batch
//! stdin): specs before an append see the pre-append generation, specs
//! after it see the new one, and a `stats` frame reflects exactly the
//! requests before it. Like specs, control frames are strict: extra
//! keys or an unknown `cmd` produce an `{"error": …}` response.
//!
//! Three further frames exist for the scatter-gather coordinator
//! (`optrules coord`), which plans centrally and pushes only the
//! counting down to its backend shards:
//!
//! ```json
//! {"cmd": "schema"}
//! {"cmd": "values", "attr": "Balance", "indices": [0, 417, 3]}
//! {"cmd": "count", "attr": "Balance", "cuts": [10.5, 20.0],
//!  "threads": 1, "all_booleans": true}
//! ```
//!
//! `schema` answers `{"ok": {"numeric": [...], "boolean": [...],
//! "generation": g, "rows": n}}` — the attribute names in column
//! order, so a coordinator can verify every shard serves the same
//! relation shape. `values` fetches numeric cells by row index (the
//! coordinator reproduces a single-node engine's sampling index
//! stream centrally and fetches the drawn values from whichever shard
//! holds each row), answering `{"ok": {"generation": g, "values":
//! [...]}}`. `count` runs one **raw** counting scan over
//! caller-provided bucket boundaries — instead of `all_booleans`, a
//! spec-shaped frame carries `given` (a resolved condition),
//! `bool_targets`, and `sum_targets` — and answers with the
//! **uncompacted** per-bucket counts
//! (`{"ok": {"generation": g, "rows": n, "u": [...], "v": [[...]],
//! "sums": [[...]], "ranges": [[lo, hi], ...]}}`), so partial counts
//! from row-partitioned shards stay bucket-aligned for merging. The
//! shard never optimizes and never caches these frames — the
//! coordinator owns caching and deduplication.
//!
//! `values` and `count` frames optionally carry a `"trace": "<id>"`
//! key: the coordinator stamps each internal RPC with the trace id of
//! the client request that caused it, and a shard running with
//! `--trace-log` emits its `shard_values`/`shard_count` spans under
//! that propagated id — one cold request correlates end-to-end across
//! the scatter-gather fan.
//!
//! # Numbers
//!
//! Integers round-trip exactly across the full `u64`/`i64` range (the
//! parser keeps integer text out of `f64`), and finite floats
//! round-trip exactly via Rust's shortest-representation formatting.
//! JSON has no non-finite literals, so in *float-valued positions* the
//! strings `"Infinity"`, `"-Infinity"`, and `"NaN"` stand in (and are
//! accepted back; a NaN with a non-canonical bit pattern travels as
//! `"NaN:0x<16 hex digits>"` so even NaN payloads round-trip
//! bit-exactly). Non-finite values cannot occur in mined output —
//! observed value ranges are finite — but the stand-ins keep spec
//! round-trips total. Number literals that overflow `f64` (`1e999`)
//! are rejected outright rather than saturated.

use crate::cache::ShardStats;
use crate::error::CoreError;
use crate::exec::CountSource as _;
use crate::query::{AvgRule, Rule, RuleSet, Task};
use crate::ratio::Ratio;
use crate::region2d::GridCounts;
use crate::rule::{RangeRule, RectRule, RuleKind};
use crate::shared::{AppendOutcome, LocalSource, SharedEngine, StatsSnapshot};
use crate::spec::{CondSpec, ObjectiveSpec, QuerySpec, Real};
use optrules_bucketing::{BucketCounts, BucketSpec, CountSpec};
use optrules_obs::{Gauges, HistogramSnapshot, ServiceObs, Span, Timer, TraceSink};
use optrules_relation::{Condition, NumAttr, RowFrame, Schema};
use std::fmt;

/// Maximum nesting depth the parser accepts — far deeper than any
/// protocol message, shallow enough that hostile input cannot blow the
/// stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), so
/// encoding is stable; duplicate keys are rejected by the typed
/// decoders.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Num`] for the integer/float split).
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON number, kept out of `f64` when it is integer text so `u64`
/// seeds and counts survive round trips exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer text that fits `u64`.
    UInt(u64),
    /// Negative integer text that fits `i64`.
    Int(i64),
    /// Everything else (fraction, exponent, or out of integer range).
    Float(f64),
}

/// A parse or decode error, with the byte offset for parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input (0 for semantic decode errors).
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl JsonError {
    fn at(pos: usize, msg: impl Into<String>) -> Self {
        Self {
            pos,
            msg: msg.into(),
        }
    }

    fn decode(msg: impl Into<String>) -> Self {
        Self::at(0, msg)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pos > 0 {
            write!(f, "{} at byte {}", self.msg, self.pos)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

/// Result alias for this module.
pub type JsonResult<T> = std::result::Result<T, JsonError>;

// ---------------------------------------------------------------------
// Generic value: parsing and encoding
// ---------------------------------------------------------------------

impl Json {
    /// Parses one JSON value from `text`, rejecting trailing content.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset.
    pub fn parse(text: &str) -> JsonResult<Json> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing content after JSON value"));
        }
        Ok(value)
    }

    /// Encodes compactly (no whitespace), with object fields in
    /// insertion order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(Num::UInt(u)) => {
                let _ = fmt::write(out, format_args!("{u}"));
            }
            Json::Num(Num::Int(i)) => {
                let _ = fmt::write(out, format_args!("{i}"));
            }
            Json::Num(Num::Float(x)) => {
                debug_assert!(x.is_finite(), "encode non-finite floats via enc_f64");
                // Rust's float Display is the shortest string that
                // parses back to the same value, so this round-trips.
                let _ = fmt::write(out, format_args!("{x}"));
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> JsonResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> JsonResult<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected {text:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> JsonResult<Json> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                self.pos,
                format!("unexpected character {:?}", other as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> JsonResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> JsonResult<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> JsonResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| JsonError::at(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low
                                // surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(JsonError::at(start, "invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(c)
                                        .ok_or_else(|| JsonError::at(start, "invalid code point"))?
                                } else {
                                    return Err(JsonError::at(start, "unpaired surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&unit) {
                                return Err(JsonError::at(start, "unpaired surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| JsonError::at(start, "invalid code point"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError::at(
                                start,
                                format!("invalid escape \\{}", other as char),
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(self.pos, "raw control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str and
                    // pos only ever advances by whole scalars, so this
                    // slice is at a char boundary — O(1), no
                    // re-validation of the remaining input.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> JsonResult<u32> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| JsonError::at(self.pos, "truncated \\u escape"))?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        let unit = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> JsonResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(JsonError::at(start, "invalid number"));
        }
        // JSON forbids leading zeros ("01"), which integer parsing
        // would otherwise accept.
        if self.bytes[digits_start] == b'0' && self.pos - digits_start > 1 {
            return Err(JsonError::at(start, "leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::at(start, "invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::at(start, "invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        // "-0" must stay a float: Int(0) would drop the sign bit that
        // bit-exact Real round-trips preserve.
        if integral && text != "-0" {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Num(Num::UInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Num(Num::Int(i)));
            }
        }
        match text.parse::<f64>() {
            // Rust's parse saturates overflowing literals ("1e999") to
            // ±∞; admitting them would break the finite-only encoder
            // invariant (non-finite values travel as strings instead).
            Ok(x) if x.is_finite() => Ok(Json::Num(Num::Float(x))),
            Ok(_) => Err(JsonError::at(start, "number out of f64 range")),
            Err(_) => Err(JsonError::at(start, "invalid number")),
        }
    }
}

// ---------------------------------------------------------------------
// Generic value: typed accessors
// ---------------------------------------------------------------------

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn as_obj(&self) -> JsonResult<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(JsonError::decode(format!(
                "expected an object, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_arr(&self) -> JsonResult<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::decode(format!(
                "expected an array, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_str(&self) -> JsonResult<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::decode(format!(
                "expected a string, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_bool(&self) -> JsonResult<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::decode(format!(
                "expected a bool, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_u64(&self) -> JsonResult<u64> {
        match self {
            Json::Num(Num::UInt(u)) => Ok(*u),
            other => Err(JsonError::decode(format!(
                "expected a non-negative integer, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_f64(&self) -> JsonResult<f64> {
        match self {
            Json::Num(Num::UInt(u)) => Ok(*u as f64),
            Json::Num(Num::Int(i)) => Ok(*i as f64),
            Json::Num(Num::Float(x)) => Ok(*x),
            Json::Str(s) => match s.as_str() {
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                other => match other.strip_prefix("NaN:0x") {
                    Some(hex) => u64::from_str_radix(hex, 16)
                        .ok()
                        .map(f64::from_bits)
                        // Only genuine NaN bit patterns may ride the
                        // NaN channel — "NaN:0x0" must not decode.
                        .filter(|x| x.is_nan())
                        .ok_or_else(|| JsonError::decode(format!("invalid NaN bit pattern {s:?}"))),
                    None => Err(JsonError::decode(format!("expected a number, got {s:?}"))),
                },
            },
            other => Err(JsonError::decode(format!(
                "expected a number, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Encodes an `f64`, representing non-finite values as the strings the
/// decoder accepts back (JSON has no non-finite number literals). NaNs
/// with a non-canonical bit pattern (payloads, negative NaN) carry
/// their bits explicitly, so the bit-exact round trip [`Real`] equality
/// relies on stays total.
fn enc_f64(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(Num::Float(x))
    } else if x.is_nan() {
        if x.to_bits() == f64::NAN.to_bits() {
            Json::Str("NaN".into())
        } else {
            Json::Str(format!("NaN:0x{:016x}", x.to_bits()))
        }
    } else if x > 0.0 {
        Json::Str("Infinity".into())
    } else {
        Json::Str("-Infinity".into())
    }
}

/// A strict object reader: every key must be consumed exactly once;
/// duplicates and leftovers are errors.
struct ObjReader<'a> {
    what: &'static str,
    fields: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    fn new(what: &'static str, value: &'a Json) -> JsonResult<Self> {
        let fields = value.as_obj()?;
        for (i, (key, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(JsonError::decode(format!(
                    "duplicate key {key:?} in {what}"
                )));
            }
        }
        Ok(Self {
            what,
            fields,
            used: vec![false; fields.len()],
        })
    }

    fn optional(&mut self, key: &str) -> Option<&'a Json> {
        let (i, (_, value)) = self
            .fields
            .iter()
            .enumerate()
            .find(|(_, (k, _))| k == key)?;
        self.used[i] = true;
        Some(value)
    }

    fn required(&mut self, key: &str) -> JsonResult<&'a Json> {
        self.optional(key)
            .ok_or_else(|| JsonError::decode(format!("{} is missing {key:?}", self.what)))
    }

    fn finish(self) -> JsonResult<()> {
        match self.fields.iter().zip(&self.used).find(|(_, used)| !**used) {
            Some(((key, _), _)) => Err(JsonError::decode(format!(
                "unknown key {key:?} in {}",
                self.what
            ))),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// QuerySpec encode/decode
// ---------------------------------------------------------------------

fn cond_to_value(cond: &CondSpec) -> Json {
    match cond {
        CondSpec::BoolIs { attr, value } => Json::Obj(vec![
            ("bool".into(), Json::Str(attr.clone())),
            ("is".into(), Json::Bool(*value)),
        ]),
        CondSpec::NumEq { attr, value } => Json::Obj(vec![
            ("num".into(), Json::Str(attr.clone())),
            ("eq".into(), enc_f64(value.get())),
        ]),
        CondSpec::NumInRange { attr, lo, hi } => Json::Obj(vec![
            ("num".into(), Json::Str(attr.clone())),
            (
                "in".into(),
                Json::Arr(vec![enc_f64(lo.get()), enc_f64(hi.get())]),
            ),
        ]),
    }
}

fn cond_from_value(value: &Json) -> JsonResult<CondSpec> {
    let mut obj = ObjReader::new("a condition", value)?;
    let cond = if let Some(attr) = obj.optional("bool") {
        CondSpec::BoolIs {
            attr: attr.as_str()?.to_string(),
            value: obj.required("is")?.as_bool()?,
        }
    } else if let Some(attr) = obj.optional("num") {
        let attr = attr.as_str()?.to_string();
        if let Some(eq) = obj.optional("eq") {
            CondSpec::NumEq {
                attr,
                value: Real(eq.as_f64()?),
            }
        } else {
            let bounds = obj.required("in")?.as_arr()?;
            let [lo, hi] = bounds else {
                return Err(JsonError::decode("\"in\" expects [lo, hi]"));
            };
            CondSpec::NumInRange {
                attr,
                lo: Real(lo.as_f64()?),
                hi: Real(hi.as_f64()?),
            }
        }
    } else {
        return Err(JsonError::decode(
            "a condition needs a \"bool\" or \"num\" attribute",
        ));
    };
    obj.finish()?;
    Ok(cond)
}

fn objective_to_value(objective: &ObjectiveSpec) -> Json {
    match objective {
        ObjectiveSpec::Bool { target } => {
            Json::Obj(vec![("bool".into(), Json::Str(target.clone()))])
        }
        ObjectiveSpec::Cond { all } => Json::Obj(vec![(
            "all".into(),
            Json::Arr(all.iter().map(cond_to_value).collect()),
        )]),
        ObjectiveSpec::Average { target } => {
            Json::Obj(vec![("average".into(), Json::Str(target.clone()))])
        }
    }
}

fn objective_from_value(value: &Json) -> JsonResult<ObjectiveSpec> {
    let mut obj = ObjReader::new("an objective", value)?;
    let objective = if let Some(target) = obj.optional("bool") {
        ObjectiveSpec::Bool {
            target: target.as_str()?.to_string(),
        }
    } else if let Some(all) = obj.optional("all") {
        ObjectiveSpec::Cond {
            all: all
                .as_arr()?
                .iter()
                .map(cond_from_value)
                .collect::<JsonResult<_>>()?,
        }
    } else if let Some(target) = obj.optional("average") {
        ObjectiveSpec::Average {
            target: target.as_str()?.to_string(),
        }
    } else {
        return Err(JsonError::decode(
            "an objective needs \"bool\", \"all\", or \"average\"",
        ));
    };
    obj.finish()?;
    Ok(objective)
}

fn ratio_to_value(ratio: Ratio) -> Json {
    Json::Arr(vec![
        Json::Num(Num::UInt(ratio.num())),
        Json::Num(Num::UInt(ratio.den())),
    ])
}

fn ratio_from_value(value: &Json) -> JsonResult<Ratio> {
    let parts = value.as_arr()?;
    let [num, den] = parts else {
        return Err(JsonError::decode(
            "a threshold expects [numerator, denominator]",
        ));
    };
    Ratio::new(num.as_u64()?, den.as_u64()?)
        .map_err(|e: CoreError| JsonError::decode(e.to_string()))
}

/// Converts a spec to its canonical [`Json`] value (defaulted fields
/// omitted).
pub fn spec_to_value(spec: &QuerySpec) -> Json {
    let mut fields = vec![("attr".to_string(), Json::Str(spec.attr.clone()))];
    if let Some(attr2) = &spec.attr2 {
        fields.push(("attr2".to_string(), Json::Str(attr2.clone())));
    }
    fields.push(("objective".to_string(), objective_to_value(&spec.objective)));
    if !spec.given.is_empty() {
        fields.push((
            "given".into(),
            Json::Arr(spec.given.iter().map(cond_to_value).collect()),
        ));
    }
    if spec.task != Task::Both {
        let name = match spec.task {
            Task::OptimizeSupport => "support",
            Task::OptimizeConfidence => "confidence",
            Task::Both => unreachable!("filtered above"),
        };
        fields.push(("task".into(), Json::Str(name.into())));
    }
    if let Some(ratio) = spec.min_support {
        fields.push(("min_support".into(), ratio_to_value(ratio)));
    }
    if let Some(ratio) = spec.min_confidence {
        fields.push(("min_confidence".into(), ratio_to_value(ratio)));
    }
    if let Some(x) = spec.min_average {
        fields.push(("min_average".into(), enc_f64(x.get())));
    }
    if let Some(m) = spec.buckets {
        fields.push(("buckets".into(), Json::Num(Num::UInt(m as u64))));
    }
    if let Some(s) = spec.samples_per_bucket {
        fields.push(("samples_per_bucket".into(), Json::Num(Num::UInt(s))));
    }
    if let Some(s) = spec.seed {
        fields.push(("seed".into(), Json::Num(Num::UInt(s))));
    }
    if let Some(t) = spec.threads {
        fields.push(("threads".into(), Json::Num(Num::UInt(t as u64))));
    }
    if !spec.scan_all_booleans {
        fields.push(("scan_all_booleans".into(), Json::Bool(false)));
    }
    Json::Obj(fields)
}

/// Decodes a spec from a [`Json`] value (strict: unknown keys are
/// errors).
///
/// # Errors
///
/// Fails on missing/unknown/duplicate keys or wrong value shapes.
pub fn spec_from_value(value: &Json) -> JsonResult<QuerySpec> {
    let mut obj = ObjReader::new("a query spec", value)?;
    let mut spec = QuerySpec::new(
        obj.required("attr")?.as_str()?.to_string(),
        objective_from_value(obj.required("objective")?)?,
    );
    if let Some(attr2) = obj.optional("attr2") {
        spec.attr2 = Some(attr2.as_str()?.to_string());
    }
    if let Some(given) = obj.optional("given") {
        spec.given = given
            .as_arr()?
            .iter()
            .map(cond_from_value)
            .collect::<JsonResult<_>>()?;
    }
    if let Some(task) = obj.optional("task") {
        spec.task = match task.as_str()? {
            "both" => Task::Both,
            "support" => Task::OptimizeSupport,
            "confidence" => Task::OptimizeConfidence,
            other => {
                return Err(JsonError::decode(format!(
                    "task must be \"both\", \"support\", or \"confidence\", got {other:?}"
                )))
            }
        };
    }
    if let Some(ratio) = obj.optional("min_support") {
        spec.min_support = Some(ratio_from_value(ratio)?);
    }
    if let Some(ratio) = obj.optional("min_confidence") {
        spec.min_confidence = Some(ratio_from_value(ratio)?);
    }
    if let Some(x) = obj.optional("min_average") {
        spec.min_average = Some(Real(x.as_f64()?));
    }
    if let Some(m) = obj.optional("buckets") {
        spec.buckets = Some(m.as_u64()? as usize);
    }
    if let Some(s) = obj.optional("samples_per_bucket") {
        spec.samples_per_bucket = Some(s.as_u64()?);
    }
    if let Some(s) = obj.optional("seed") {
        spec.seed = Some(s.as_u64()?);
    }
    if let Some(t) = obj.optional("threads") {
        spec.threads = Some(t.as_u64()? as usize);
    }
    if let Some(share) = obj.optional("scan_all_booleans") {
        spec.scan_all_booleans = share.as_bool()?;
    }
    obj.finish()?;
    Ok(spec)
}

/// Encodes a spec as one compact JSON line (the request unit of the
/// batch protocol).
pub fn encode_spec(spec: &QuerySpec) -> String {
    spec_to_value(spec).encode()
}

/// Parses and decodes a spec from JSON text.
///
/// # Errors
///
/// Fails on syntax errors or schema violations (see
/// [`spec_from_value`]).
pub fn decode_spec(text: &str) -> JsonResult<QuerySpec> {
    spec_from_value(&Json::parse(text)?)
}

// ---------------------------------------------------------------------
// RuleSet encode/decode
// ---------------------------------------------------------------------

fn kind_name(kind: RuleKind) -> &'static str {
    match kind {
        RuleKind::OptimizedSupport => "optimized_support",
        RuleKind::OptimizedConfidence => "optimized_confidence",
        RuleKind::MaximumAverage => "maximum_average",
        RuleKind::MaximumSupportAverage => "maximum_support_average",
        RuleKind::RectSupport => "rect_support",
        RuleKind::RectConfidence => "rect_confidence",
    }
}

fn kind_from_name(name: &str) -> JsonResult<RuleKind> {
    match name {
        "optimized_support" => Ok(RuleKind::OptimizedSupport),
        "optimized_confidence" => Ok(RuleKind::OptimizedConfidence),
        "maximum_average" => Ok(RuleKind::MaximumAverage),
        "maximum_support_average" => Ok(RuleKind::MaximumSupportAverage),
        "rect_support" => Ok(RuleKind::RectSupport),
        "rect_confidence" => Ok(RuleKind::RectConfidence),
        other => Err(JsonError::decode(format!("unknown rule kind {other:?}"))),
    }
}

fn bucket_pair(range: (usize, usize)) -> Json {
    Json::Arr(vec![
        Json::Num(Num::UInt(range.0 as u64)),
        Json::Num(Num::UInt(range.1 as u64)),
    ])
}

fn value_pair(range: (f64, f64)) -> Json {
    Json::Arr(vec![enc_f64(range.0), enc_f64(range.1)])
}

fn rule_to_value(rule: &Rule) -> Json {
    if let Rule::Rect(r) = rule {
        return Json::Obj(vec![
            ("kind".into(), Json::Str(kind_name(r.kind).into())),
            ("x_buckets".into(), bucket_pair(r.x_bucket_range)),
            ("y_buckets".into(), bucket_pair(r.y_bucket_range)),
            ("x_values".into(), value_pair(r.x_value_range)),
            ("y_values".into(), value_pair(r.y_value_range)),
            ("count".into(), Json::Num(Num::UInt(r.sup_count))),
            ("hits".into(), Json::Num(Num::UInt(r.hits))),
            ("rows".into(), Json::Num(Num::UInt(r.total_rows))),
        ]);
    }
    let (kind, bucket_range, value_range) = match rule {
        Rule::Range(r) => (r.kind, r.bucket_range, r.value_range),
        Rule::Average(r) => (r.kind, r.bucket_range, r.value_range),
        Rule::Rect(_) => unreachable!("handled above"),
    };
    let mut fields = vec![
        ("kind".to_string(), Json::Str(kind_name(kind).into())),
        (
            "buckets".to_string(),
            Json::Arr(vec![
                Json::Num(Num::UInt(bucket_range.0 as u64)),
                Json::Num(Num::UInt(bucket_range.1 as u64)),
            ]),
        ),
        (
            "values".to_string(),
            Json::Arr(vec![enc_f64(value_range.0), enc_f64(value_range.1)]),
        ),
    ];
    match rule {
        Rule::Range(r) => {
            fields.push(("count".into(), Json::Num(Num::UInt(r.sup_count))));
            fields.push(("hits".into(), Json::Num(Num::UInt(r.hits))));
            fields.push(("rows".into(), Json::Num(Num::UInt(r.total_rows))));
        }
        Rule::Average(r) => {
            fields.push(("count".into(), Json::Num(Num::UInt(r.sup_count))));
            fields.push(("sum".into(), enc_f64(r.sum)));
            fields.push(("rows".into(), Json::Num(Num::UInt(r.total_rows))));
        }
        Rule::Rect(_) => unreachable!("handled above"),
    }
    Json::Obj(fields)
}

fn pair_usize(value: &Json, what: &str) -> JsonResult<(usize, usize)> {
    let [a, b] = value.as_arr()? else {
        return Err(JsonError::decode(format!("{what:?} expects [s, t]")));
    };
    Ok((a.as_u64()? as usize, b.as_u64()? as usize))
}

fn pair_f64(value: &Json, what: &str) -> JsonResult<(f64, f64)> {
    let [lo, hi] = value.as_arr()? else {
        return Err(JsonError::decode(format!("{what:?} expects [lo, hi]")));
    };
    Ok((lo.as_f64()?, hi.as_f64()?))
}

fn rule_from_value(value: &Json) -> JsonResult<Rule> {
    let mut obj = ObjReader::new("a rule", value)?;
    let kind = kind_from_name(obj.required("kind")?.as_str()?)?;
    if matches!(kind, RuleKind::RectSupport | RuleKind::RectConfidence) {
        let rule = Rule::Rect(RectRule {
            kind,
            x_bucket_range: pair_usize(obj.required("x_buckets")?, "x_buckets")?,
            y_bucket_range: pair_usize(obj.required("y_buckets")?, "y_buckets")?,
            x_value_range: pair_f64(obj.required("x_values")?, "x_values")?,
            y_value_range: pair_f64(obj.required("y_values")?, "y_values")?,
            sup_count: obj.required("count")?.as_u64()?,
            hits: obj.required("hits")?.as_u64()?,
            total_rows: obj.required("rows")?.as_u64()?,
        });
        obj.finish()?;
        return Ok(rule);
    }
    let bucket_range = pair_usize(obj.required("buckets")?, "buckets")?;
    let value_range = pair_f64(obj.required("values")?, "values")?;
    let sup_count = obj.required("count")?.as_u64()?;
    let rule = match kind {
        RuleKind::OptimizedSupport | RuleKind::OptimizedConfidence => Rule::Range(RangeRule {
            kind,
            bucket_range,
            value_range,
            sup_count,
            hits: obj.required("hits")?.as_u64()?,
            total_rows: obj.required("rows")?.as_u64()?,
        }),
        RuleKind::MaximumAverage | RuleKind::MaximumSupportAverage => Rule::Average(AvgRule {
            kind,
            bucket_range,
            value_range,
            sup_count,
            sum: obj.required("sum")?.as_f64()?,
            total_rows: obj.required("rows")?.as_u64()?,
        }),
        RuleKind::RectSupport | RuleKind::RectConfidence => unreachable!("handled above"),
    };
    obj.finish()?;
    Ok(rule)
}

/// Converts a mined result to its canonical [`Json`] value. A
/// two-attribute (rectangle) result carries its second attribute as
/// `attr2`, emitted right after `attr`; one-dimensional results omit
/// the key entirely, so their bytes are unchanged.
pub fn rule_set_to_value(rules: &RuleSet) -> Json {
    let mut fields = vec![("attr".into(), Json::Str(rules.attr_name.clone()))];
    if let Some(attr2) = &rules.attr2 {
        fields.push(("attr2".into(), Json::Str(attr2.clone())));
    }
    fields.extend([
        ("objective".into(), Json::Str(rules.objective_desc.clone())),
        (
            "buckets_used".into(),
            Json::Num(Num::UInt(rules.buckets_used as u64)),
        ),
        ("total_rows".into(), Json::Num(Num::UInt(rules.total_rows))),
        (
            "rules".into(),
            Json::Arr(rules.rules.iter().map(rule_to_value).collect()),
        ),
    ]);
    Json::Obj(fields)
}

/// Decodes a mined result from a [`Json`] value.
///
/// # Errors
///
/// Fails on missing/unknown keys or wrong value shapes.
pub fn rule_set_from_value(value: &Json) -> JsonResult<RuleSet> {
    let mut obj = ObjReader::new("a rule set", value)?;
    let attr_name = obj.required("attr")?.as_str()?.to_string();
    let attr2 = match obj.optional("attr2") {
        Some(a) => Some(a.as_str()?.to_string()),
        None => None,
    };
    let rules = RuleSet {
        attr_name,
        attr2,
        objective_desc: obj.required("objective")?.as_str()?.to_string(),
        buckets_used: obj.required("buckets_used")?.as_u64()? as usize,
        total_rows: obj.required("total_rows")?.as_u64()?,
        rules: obj
            .required("rules")?
            .as_arr()?
            .iter()
            .map(rule_from_value)
            .collect::<JsonResult<_>>()?,
    };
    obj.finish()?;
    Ok(rules)
}

/// Encodes a mined result as one compact JSON line (the response unit
/// of the batch protocol).
pub fn encode_rule_set(rules: &RuleSet) -> String {
    rule_set_to_value(rules).encode()
}

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

/// Parses and decodes a mined result from JSON text.
///
/// # Errors
///
/// Fails on syntax errors or schema violations.
pub fn decode_rule_set(text: &str) -> JsonResult<RuleSet> {
    rule_set_from_value(&Json::parse(text)?)
}

// ---------------------------------------------------------------------
// Stats snapshot encode (the `{"cmd":"stats"}` control-frame payload)
// ---------------------------------------------------------------------

fn shard_to_value(shard: &ShardStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Num(Num::UInt(shard.hits))),
        ("misses".into(), Json::Num(Num::UInt(shard.misses))),
        ("evictions".into(), Json::Num(Num::UInt(shard.evictions))),
        ("rejected".into(), Json::Num(Num::UInt(shard.rejected))),
        ("cost".into(), Json::Num(Num::UInt(shard.cost))),
        ("entries".into(), Json::Num(Num::UInt(shard.entries as u64))),
    ])
}

/// Converts a [`StatsSnapshot`] to its canonical [`Json`] value — the
/// `{"ok": …}` payload the server returns for a `{"cmd":"stats"}`
/// control frame (schema in the [module docs](self)). `gauges` are
/// appended as a trailing `"gauges"` object in server context only —
/// batch mode has no uptime or connection count to report, and its
/// stats bytes stay exactly as before.
pub fn stats_to_value(snapshot: &StatsSnapshot, gauges: Option<&Gauges>) -> Json {
    let e = &snapshot.engine;
    let mut fields = vec![
        (
            "generation".into(),
            Json::Num(Num::UInt(snapshot.generation)),
        ),
        ("rows".into(), Json::Num(Num::UInt(snapshot.rows))),
        (
            "bucketizations".into(),
            Json::Num(Num::UInt(e.bucketizations)),
        ),
        (
            "bucket_cache_hits".into(),
            Json::Num(Num::UInt(e.bucket_cache_hits)),
        ),
        ("scans".into(), Json::Num(Num::UInt(e.scans))),
        (
            "scan_cache_hits".into(),
            Json::Num(Num::UInt(e.scan_cache_hits)),
        ),
        ("kernel_scans".into(), Json::Num(Num::UInt(e.kernel_scans))),
        (
            "fallback_scans".into(),
            Json::Num(Num::UInt(e.fallback_scans)),
        ),
        (
            "coalesced_waits".into(),
            Json::Num(Num::UInt(e.coalesced_waits)),
        ),
        ("evictions".into(), Json::Num(Num::UInt(e.evictions))),
        ("rejected".into(), Json::Num(Num::UInt(e.rejected))),
        ("lookups".into(), Json::Num(Num::UInt(e.lookups))),
        ("cached_cost".into(), Json::Num(Num::UInt(e.cached_cost))),
        (
            "shards".into(),
            Json::Arr(snapshot.shards.iter().map(shard_to_value).collect()),
        ),
    ];
    if let Some(d) = &snapshot.durability {
        fields.push((
            "durability".into(),
            Json::Obj(vec![
                ("wal_bytes".into(), Json::Num(Num::UInt(d.wal_bytes))),
                (
                    "unflushed_rows".into(),
                    Json::Num(Num::UInt(d.unflushed_rows)),
                ),
                (
                    "segments_spilled".into(),
                    Json::Num(Num::UInt(d.segments_spilled)),
                ),
                (
                    "last_checkpoint_generation".into(),
                    Json::Num(Num::UInt(d.last_checkpoint_generation)),
                ),
            ]),
        ));
    }
    if let Some(g) = gauges {
        fields.push(("gauges".into(), gauges_to_value(g)));
    }
    Json::Obj(fields)
}

// ---------------------------------------------------------------------
// Metrics encode (the `{"cmd":"metrics"}` control-frame payload)
// ---------------------------------------------------------------------

/// Observability handles a serving transport passes down to its
/// [`FrameHandler`]: the request-lifecycle histograms, point-in-time
/// gauges (sampled when the frame batch was dequeued), and the span
/// sink when tracing is on. `None` in batch mode — there is no server
/// lifecycle to report.
pub struct ServerProbe<'a> {
    /// Request-lifecycle histograms of the serving process.
    pub obs: &'a ServiceObs,
    /// Uptime, live connections, in-flight batches at dequeue time.
    pub gauges: Gauges,
    /// Span sink for trace emission; `None` when tracing is off.
    pub trace: Option<&'a TraceSink>,
}

/// Encodes one latency histogram snapshot for the metrics document:
/// exact counters plus bucket-estimated quantiles, and only the
/// **nonzero** buckets as `[lower_bound_ns, count]` pairs (the bucket
/// layout is fixed, so sparse encoding loses nothing).
pub fn histogram_to_value(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n != 0)
        .map(|(i, &n)| {
            let (lo, _) = optrules_obs::bucket_bounds(i);
            Json::Arr(vec![Json::Num(Num::UInt(lo)), Json::Num(Num::UInt(n))])
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), Json::Num(Num::UInt(h.count))),
        ("sum_ns".into(), Json::Num(Num::UInt(h.sum))),
        ("max_ns".into(), Json::Num(Num::UInt(h.max))),
        ("p50_ns".into(), Json::Num(Num::UInt(h.quantile(0.50)))),
        ("p90_ns".into(), Json::Num(Num::UInt(h.quantile(0.90)))),
        ("p99_ns".into(), Json::Num(Num::UInt(h.quantile(0.99)))),
        ("buckets".into(), Json::Arr(buckets)),
    ])
}

/// Encodes server liveness gauges as the trailing `"gauges"` object of
/// a stats payload (shared by the single-node engine and the
/// coordinator, so the shape cannot drift).
pub fn gauges_to_value(g: &Gauges) -> Json {
    Json::Obj(vec![
        ("uptime_ns".into(), Json::Num(Num::UInt(g.uptime_ns))),
        ("connections".into(), Json::Num(Num::UInt(g.connections))),
        (
            "inflight_batches".into(),
            Json::Num(Num::UInt(g.inflight_batches)),
        ),
    ])
}

/// Encodes the `server` object of the metrics document: the gauges
/// followed by the request-lifecycle histograms.
pub fn server_metrics_to_value(probe: &ServerProbe<'_>) -> Json {
    let m = probe.obs.snapshot();
    Json::Obj(vec![
        (
            "uptime_ns".into(),
            Json::Num(Num::UInt(probe.gauges.uptime_ns)),
        ),
        (
            "connections".into(),
            Json::Num(Num::UInt(probe.gauges.connections)),
        ),
        (
            "inflight_batches".into(),
            Json::Num(Num::UInt(probe.gauges.inflight_batches)),
        ),
        ("queue_wait".into(), histogram_to_value(&m.queue_wait)),
        ("batch_execute".into(), histogram_to_value(&m.batch_execute)),
        (
            "response_write".into(),
            histogram_to_value(&m.response_write),
        ),
    ])
}

/// The `{"ok": …}` payload acknowledging a `{"cmd":"flush"}` frame.
pub fn flush_to_value(generation: u64) -> Json {
    Json::Obj(vec![
        ("flushed".into(), Json::Bool(true)),
        ("generation".into(), Json::Num(Num::UInt(generation))),
    ])
}

/// Encodes a stats snapshot as one compact JSON line (no gauges — the
/// batch-mode byte contract).
pub fn encode_stats(snapshot: &StatsSnapshot) -> String {
    stats_to_value(snapshot, None).encode()
}

// ---------------------------------------------------------------------
// Request frames: specs + control frames (stats/shutdown/append), the
// shared request grammar of `optrules batch` and the TCP server.
// ---------------------------------------------------------------------

/// Upper bound on rows in one `{"cmd":"append"}` frame. A frame over
/// the cap is answered with an error envelope and applies nothing —
/// callers wanting to load more rows send several frames (each is one
/// generation). Bounds per-frame memory the same way the server's
/// `max_line_bytes` bounds line length.
pub const MAX_APPEND_ROWS: usize = 1024;

/// One parsed request line of the NDJSON protocol, produced by
/// [`parse_request`]. Both `optrules batch` and the TCP server
/// ([`crate::server`]) speak exactly this grammar; they differ only in
/// which control frames they act on (`shutdown` is meaningful to the
/// server alone).
#[derive(Debug)]
pub enum Request {
    /// A mining spec (boxed: much larger than the control frames).
    Spec(Box<QuerySpec>),
    /// `{"cmd":"stats"}` — answer with the engine snapshot.
    Stats,
    /// `{"cmd":"metrics"}` — answer with the latency-histogram
    /// document (phase timers, request lifecycle, shard RPCs).
    Metrics,
    /// `{"cmd":"shutdown"}` — gracefully stop the server (an error in
    /// batch mode, which has no server to stop).
    Shutdown,
    /// `{"cmd":"flush"}` — force a durability checkpoint (spill + WAL
    /// truncation); a no-op acknowledgment for in-memory relations.
    Flush,
    /// `{"cmd":"append","rows":[…]}` — the raw (still unvalidated)
    /// `rows` value; decode against the serving schema with
    /// [`rows_from_value`] when executing.
    Append(Json),
    /// `{"cmd":"schema"}` — describe the serving relation: attribute
    /// names in column order, generation, rows.
    Schema,
    /// `{"cmd":"values",…}` — the raw (still unvalidated) frame body;
    /// decode against the serving schema with
    /// [`values_frame_from_value`] when executing.
    Values(Json),
    /// `{"cmd":"count",…}` — the raw (still unvalidated) frame body;
    /// decode against the serving schema with
    /// [`count_frame_from_value`] when executing.
    Count(Json),
    /// `{"cmd":"count2d",…}` — the raw (still unvalidated) frame body
    /// of a two-attribute grid scan; decode against the serving schema
    /// with [`count2d_frame_from_value`] when executing.
    Count2D(Json),
    /// Unparseable or invalid; answer with `{"error": …}`.
    Bad(String),
}

/// Parses one request line: a JSON object with a `cmd` key is a
/// control frame, anything else must decode as a [`QuerySpec`]. Never
/// fails — invalid input becomes [`Request::Bad`] carrying the error
/// message to send back.
pub fn parse_request(line: &str) -> Request {
    let value = match Json::parse(line) {
        Ok(value) => value,
        Err(e) => return Request::Bad(format!("bad request: {e}")),
    };
    match value {
        Json::Obj(fields) if fields.iter().any(|(key, _)| key == "cmd") => parse_control(fields),
        value => match spec_from_value(&value) {
            Ok(spec) => Request::Spec(Box::new(spec)),
            Err(e) => Request::Bad(format!("bad request: {e}")),
        },
    }
}

/// Strict control-frame parse: `{"cmd":"stats"}`, `{"cmd":"shutdown"}`
/// (exactly one key), or `{"cmd":"append","rows":[…]}` (exactly those
/// two keys) — extra keys or an unknown command are errors, mirroring
/// the strict spec decoder (a typo must not silently become a no-op).
/// Consumes the fields so an append frame's rows move into the request
/// instead of being deep-cloned.
fn parse_control(mut fields: Vec<(String, Json)>) -> Request {
    const SHAPE: &str = "bad request: a control frame is \
                         {\"cmd\": \"stats\"|\"metrics\"|\"shutdown\"|\"flush\"|\"schema\"}, \
                         {\"cmd\": \"append\", \"rows\": [[…], …]}, \
                         or an internal \"values\"/\"count\"/\"count2d\" frame";
    enum Cmd {
        Stats,
        Metrics,
        Shutdown,
        Flush,
        Append,
        Schema,
        Values,
        Count,
        Count2D,
        Unknown(String),
    }
    let cmd_pos = fields
        .iter()
        .position(|(key, _)| key == "cmd")
        .expect("caller found a cmd key");
    let cmd = match &fields[cmd_pos].1 {
        Json::Str(cmd) if cmd == "stats" => Cmd::Stats,
        Json::Str(cmd) if cmd == "metrics" => Cmd::Metrics,
        Json::Str(cmd) if cmd == "shutdown" => Cmd::Shutdown,
        Json::Str(cmd) if cmd == "flush" => Cmd::Flush,
        Json::Str(cmd) if cmd == "append" => Cmd::Append,
        Json::Str(cmd) if cmd == "schema" => Cmd::Schema,
        Json::Str(cmd) if cmd == "values" => Cmd::Values,
        Json::Str(cmd) if cmd == "count" => Cmd::Count,
        Json::Str(cmd) if cmd == "count2d" => Cmd::Count2D,
        other => Cmd::Unknown(other.encode()),
    };
    match cmd {
        Cmd::Stats | Cmd::Metrics | Cmd::Shutdown | Cmd::Flush | Cmd::Schema
            if fields.len() != 1 =>
        {
            Request::Bad(SHAPE.into())
        }
        Cmd::Stats => Request::Stats,
        Cmd::Metrics => Request::Metrics,
        Cmd::Shutdown => Request::Shutdown,
        Cmd::Flush => Request::Flush,
        Cmd::Schema => Request::Schema,
        Cmd::Append => {
            // Length check first: with extra keys, `cmd` may sit past
            // index 1 and `1 - cmd_pos` would underflow.
            if fields.len() != 2 {
                return Request::Bad(SHAPE.into());
            }
            let rows_pos = 1 - cmd_pos;
            if fields[rows_pos].0 != "rows" {
                return Request::Bad(SHAPE.into());
            }
            Request::Append(fields.swap_remove(rows_pos).1)
        }
        Cmd::Values | Cmd::Count | Cmd::Count2D => {
            // The frame body keeps its shape and is decoded strictly
            // against the serving schema at execution time (like an
            // append's rows); only the `cmd` key is consumed here.
            fields.remove(cmd_pos);
            match cmd {
                Cmd::Values => Request::Values(Json::Obj(fields)),
                Cmd::Count => Request::Count(Json::Obj(fields)),
                _ => Request::Count2D(Json::Obj(fields)),
            }
        }
        Cmd::Unknown(encoded) => Request::Bad(format!(
            "bad request: unknown cmd {encoded} \
             (expected \"stats\", \"metrics\", \"shutdown\", \"flush\", \
             \"append\", \"schema\", \"values\", \"count\", or \"count2d\")"
        )),
    }
}

/// What it takes to answer the NDJSON request grammar. One
/// implementation per *serving identity*: the single-node engine (via
/// [`execute_requests`]) and the scatter-gather coordinator (the
/// `optrules-coord` crate) both sit behind this trait, so every
/// transport (batch stdin, TCP connection) drives them identically
/// through [`execute_frames`].
///
/// Every method returns a **complete response envelope** (`{"ok":…}`
/// or `{"error":…}`) — the handler owns its error rendering, which is
/// how the coordinator gets its structured per-shard error form.
pub trait FrameHandler {
    /// Runs one segment of consecutive specs as a planned batch and
    /// returns one envelope per spec, in order.
    fn run_segment(&mut self, specs: &[QuerySpec]) -> Vec<Json>;
    /// Answers `{"cmd":"stats"}`.
    fn stats(&mut self) -> Json;
    /// Answers `{"cmd":"metrics"}` — the latency-histogram document
    /// (schema in the [module docs](self)).
    fn metrics(&mut self) -> Json;
    /// Answers `{"cmd":"flush"}`.
    fn flush(&mut self) -> Json;
    /// Answers `{"cmd":"append","rows":…}`; `rows` is the raw,
    /// still-unvalidated value.
    fn append(&mut self, rows: &Json) -> Json;
    /// Answers `{"cmd":"schema"}`.
    fn schema(&mut self) -> Json;
    /// Answers `{"cmd":"values",…}`; `frame` is the raw body minus its
    /// `cmd` key.
    fn values(&mut self, frame: &Json) -> Json;
    /// Answers `{"cmd":"count",…}`; `frame` is the raw body minus its
    /// `cmd` key.
    fn count(&mut self, frame: &Json) -> Json;
    /// Answers `{"cmd":"count2d",…}`; `frame` is the raw body minus
    /// its `cmd` key.
    fn count2d(&mut self, frame: &Json) -> Json;
    /// The acknowledgment for `{"cmd":"shutdown"}` — transports that
    /// cannot shut down (batch mode) answer an error envelope here.
    fn shutdown_ack(&mut self) -> Json;
}

/// Executes parsed request frames **in program order** against one
/// handler — the shared semantics of `optrules batch` and each server
/// connection: consecutive specs form one *segment* (run through
/// [`FrameHandler::run_segment`] as a planned batch pinning one
/// relation generation); any control frame flushes the open segment
/// first, so `stats` reflects exactly the requests before it and specs
/// after an `append` mine the new generation.
///
/// Returns one response per request, in request order, plus whether a
/// shutdown frame was seen. Requests after a shutdown frame still
/// execute — acting on the flag is the caller's job once responses are
/// written.
pub fn execute_frames<H: FrameHandler + ?Sized>(
    handler: &mut H,
    requests: Vec<Request>,
) -> (Vec<Json>, bool) {
    fn flush<H: FrameHandler + ?Sized>(
        handler: &mut H,
        pending: &mut Vec<(usize, QuerySpec)>,
        responses: &mut [Option<Json>],
    ) {
        if pending.is_empty() {
            return;
        }
        let (indices, specs): (Vec<usize>, Vec<QuerySpec>) = pending.drain(..).unzip();
        for (index, envelope) in indices.into_iter().zip(handler.run_segment(&specs)) {
            responses[index] = Some(envelope);
        }
    }

    let mut responses: Vec<Option<Json>> = (0..requests.len()).map(|_| None).collect();
    let mut pending: Vec<(usize, QuerySpec)> = Vec::new();
    let mut shutdown_requested = false;
    for (index, request) in requests.into_iter().enumerate() {
        let response = match request {
            Request::Spec(spec) => {
                pending.push((index, *spec));
                continue;
            }
            Request::Bad(msg) => error_envelope(msg),
            Request::Stats => {
                flush(handler, &mut pending, &mut responses);
                handler.stats()
            }
            Request::Metrics => {
                flush(handler, &mut pending, &mut responses);
                handler.metrics()
            }
            Request::Shutdown => {
                flush(handler, &mut pending, &mut responses);
                shutdown_requested = true;
                handler.shutdown_ack()
            }
            Request::Flush => {
                flush(handler, &mut pending, &mut responses);
                handler.flush()
            }
            Request::Append(rows_value) => {
                flush(handler, &mut pending, &mut responses);
                handler.append(&rows_value)
            }
            Request::Schema => {
                flush(handler, &mut pending, &mut responses);
                handler.schema()
            }
            Request::Values(frame) => {
                flush(handler, &mut pending, &mut responses);
                handler.values(&frame)
            }
            Request::Count(frame) => {
                flush(handler, &mut pending, &mut responses);
                handler.count(&frame)
            }
            Request::Count2D(frame) => {
                flush(handler, &mut pending, &mut responses);
                handler.count2d(&frame)
            }
        };
        responses[index] = Some(response);
    }
    flush(handler, &mut pending, &mut responses);
    let responses = responses
        .into_iter()
        .map(|response| response.expect("every request produced a response"))
        .collect();
    (responses, shutdown_requested)
}

/// The single-node engine behind the [`FrameHandler`] grammar — the
/// identity `optrules batch` and `optrules serve` both expose.
struct EngineFrames<'a, R, F, S>
where
    R: optrules_relation::RandomAccess,
{
    engine: &'a SharedEngine<R>,
    run_segment: F,
    shutdown_response: S,
    probe: Option<ServerProbe<'a>>,
}

impl<R, F, S> EngineFrames<'_, R, F, S>
where
    R: optrules_relation::RandomAccess,
{
    /// Emits one span to the serving transport's trace sink, if both a
    /// sink and a trace id are present. Shard-internal frames carry
    /// the coordinator's propagated trace id, so one cold request
    /// correlates across the whole scatter-gather fan.
    fn emit_span(&self, name: &'static str, trace: Option<&str>, timer: &Timer) {
        if let (Some(sink), Some(trace)) = (self.probe.as_ref().and_then(|p| p.trace), trace) {
            sink.emit(&Span {
                trace,
                span: name,
                shard: None,
                start_ns: timer.start_ns(),
                dur_ns: timer.elapsed_ns(),
            });
        }
    }
}

impl<R, F, S> FrameHandler for EngineFrames<'_, R, F, S>
where
    R: optrules_relation::RandomAccess
        + optrules_relation::AppendRows
        + optrules_relation::Durability
        + Send
        + Sync,
    F: FnMut(&[QuerySpec]) -> Vec<crate::error::Result<RuleSet>>,
    S: Fn() -> Json,
{
    fn run_segment(&mut self, specs: &[QuerySpec]) -> Vec<Json> {
        let timer = Timer::start();
        let responses = (self.run_segment)(specs)
            .into_iter()
            .map(|result| match result {
                Ok(rules) => ok_envelope(rule_set_to_value(&rules)),
                Err(e) => error_envelope(e.to_string()),
            })
            .collect();
        if let Some(sink) = self.probe.as_ref().and_then(|p| p.trace) {
            let trace = sink.next_trace_id();
            sink.emit(&Span {
                trace: &trace,
                span: "segment",
                shard: None,
                start_ns: timer.start_ns(),
                dur_ns: timer.elapsed_ns(),
            });
        }
        responses
    }

    fn stats(&mut self) -> Json {
        ok_envelope(stats_to_value(
            &self.engine.snapshot(),
            self.probe.as_ref().map(|p| &p.gauges),
        ))
    }

    fn metrics(&mut self) -> Json {
        let em = self.engine.engine_metrics();
        let mut fields = vec![(
            "engine".into(),
            Json::Obj(vec![
                ("bucketize".into(), histogram_to_value(&em.bucketize)),
                ("kernel_scan".into(), histogram_to_value(&em.kernel_scan)),
                (
                    "fallback_scan".into(),
                    histogram_to_value(&em.fallback_scan),
                ),
                ("optimize".into(), histogram_to_value(&em.optimize)),
            ]),
        )];
        if let Some(probe) = &self.probe {
            fields.push(("server".into(), server_metrics_to_value(probe)));
        }
        if let Some(d) = self.engine.durability_metrics() {
            fields.push((
                "durability".into(),
                Json::Obj(vec![
                    ("wal_fsync".into(), histogram_to_value(&d.wal_fsync)),
                    ("checkpoint".into(), histogram_to_value(&d.checkpoint)),
                ]),
            ));
        }
        ok_envelope(Json::Obj(fields))
    }

    fn flush(&mut self) -> Json {
        match self.engine.flush() {
            Ok(generation) => ok_envelope(flush_to_value(generation)),
            Err(e) => error_envelope(e.to_string()),
        }
    }

    fn append(&mut self, rows: &Json) -> Json {
        match rows_from_value(rows, self.engine.schema()) {
            Ok(rows) => match self.engine.append_rows(&rows) {
                Ok(outcome) => ok_envelope(append_to_value(&outcome)),
                Err(e) => error_envelope(e.to_string()),
            },
            Err(e) => error_envelope(format!("bad request: {e}")),
        }
    }

    fn schema(&mut self) -> Json {
        let pinned = self.engine.pin();
        ok_envelope(schema_to_value(
            self.engine.schema(),
            pinned.generation(),
            pinned.rows(),
        ))
    }

    fn values(&mut self, frame: &Json) -> Json {
        let (attr, indices, trace) = match values_frame_from_value(frame, self.engine.schema()) {
            Ok(decoded) => decoded,
            Err(e) => return error_envelope(format!("bad request: {e}")),
        };
        let timer = Timer::start();
        let response = (|| {
            let pinned = self.engine.pin();
            let rows = pinned.rows();
            let mut values = Vec::with_capacity(indices.len());
            for index in indices {
                if index >= rows {
                    return error_envelope(format!(
                        "bad request: row index {index} out of range ({rows} rows)"
                    ));
                }
                match pinned.relation().numeric_at(attr, index) {
                    Ok(value) => values.push(value),
                    Err(e) => return error_envelope(e.to_string()),
                }
            }
            ok_envelope(values_reply_to_value(&values, pinned.generation()))
        })();
        self.emit_span("shard_values", trace.as_deref(), &timer);
        response
    }

    fn count(&mut self, frame: &Json) -> Json {
        let (cuts, what, threads, trace) = match count_frame_from_value(frame, self.engine.schema())
        {
            Ok(decoded) => decoded,
            Err(e) => return error_envelope(format!("bad request: {e}")),
        };
        let timer = Timer::start();
        let pinned = self.engine.pin();
        let source = LocalSource::raw(pinned.relation().as_ref());
        let response = match source.count(what.attr, &cuts, Some(&what), threads) {
            Ok(counts) => ok_envelope(counts_to_value(&counts, pinned.generation())),
            Err(e) => error_envelope(e.to_string()),
        };
        self.emit_span("shard_count", trace.as_deref(), &timer);
        response
    }

    fn count2d(&mut self, frame: &Json) -> Json {
        let frame = match count2d_frame_from_value(frame, self.engine.schema()) {
            Ok(decoded) => decoded,
            Err(e) => return error_envelope(format!("bad request: {e}")),
        };
        let timer = Timer::start();
        let pinned = self.engine.pin();
        let source = LocalSource::raw(pinned.relation().as_ref());
        let response = match source.count_grid(
            frame.x_attr,
            frame.y_attr,
            &frame.x_cuts,
            &frame.y_cuts,
            &frame.presumptive,
            &frame.objective,
        ) {
            Ok(grid) => ok_envelope(grid_to_value(&grid, pinned.generation())),
            Err(e) => error_envelope(e.to_string()),
        };
        self.emit_span("shard_count2d", frame.trace.as_deref(), &timer);
        response
    }

    fn shutdown_ack(&mut self) -> Json {
        (self.shutdown_response)()
    }
}

/// Executes parsed request frames against one single-node engine — the
/// engine-backed instantiation of [`execute_frames`]: consecutive
/// specs run as one planned segment through `run_segment` (so the
/// transport can wrap execution — the server takes its in-flight gate
/// permit there); control frames flush the open segment first. Appends
/// never go through `run_segment` — they serialize on the engine's
/// writer lock only.
///
/// `shutdown_response` is the transport's answer to a shutdown frame
/// (`{"ok":"shutdown"}` for the server, an error envelope for batch
/// mode). `probe` carries the serving transport's observability
/// handles ([`ServerProbe`]) — `None` in batch mode, which reports no
/// server lifecycle and emits no spans.
pub fn execute_requests<R, F>(
    engine: &crate::shared::SharedEngine<R>,
    requests: Vec<Request>,
    run_segment: F,
    shutdown_response: impl Fn() -> Json,
    probe: Option<ServerProbe<'_>>,
) -> (Vec<Json>, bool)
where
    R: optrules_relation::RandomAccess
        + optrules_relation::AppendRows
        + optrules_relation::Durability
        + Send
        + Sync,
    F: FnMut(&[QuerySpec]) -> Vec<crate::error::Result<RuleSet>>,
{
    let mut handler = EngineFrames {
        engine,
        run_segment,
        shutdown_response,
        probe,
    };
    execute_frames(&mut handler, requests)
}

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
                if j < numeric {
                    let Json::Num(_) = cell else {
                        return Err(JsonError::decode(format!(
                            "row {i} cell {j}: expected a number, got {}",
                            cell.type_name()
                        )));
                    };
                    let v = cell.as_f64()?;
                    // The parser already rejects non-finite literals, so
                    // this is defense in depth: no NaN/inf may reach
                    // bucket assignment through the wire path, whatever
                    // the frame's provenance.
                    if !v.is_finite() {
                        return Err(JsonError::decode(format!(
                            "row {i} cell {j}: non-finite numeric value {v} \
                             (NaN and ±inf cannot be bucketized)"
                        )));
                    }
                    frame.numeric.push(v);
                } else {
                    let Json::Bool(b) = cell else {
                        return Err(JsonError::decode(format!(
                            "row {i} cell {j}: expected a boolean, got {}",
                            cell.type_name()
                        )));
                    };
                    frame.boolean.push(*b);
                }
            }
            Ok(frame)
        })
        .collect()
}

/// Converts an [`AppendOutcome`] to the `{"ok": …}` payload of the
/// append acknowledgment (schema in the [module docs](self)).
pub fn append_to_value(outcome: &AppendOutcome) -> Json {
    Json::Obj(vec![
        ("appended".into(), Json::Num(Num::UInt(outcome.appended))),
        (
            "generation".into(),
            Json::Num(Num::UInt(outcome.generation)),
        ),
        ("rows".into(), Json::Num(Num::UInt(outcome.total_rows))),
    ])
}

// ---------------------------------------------------------------------
// Coordinator frames: schema / values / count — the internal RPCs of
// the scatter-gather topology (the `optrules-coord` crate). Encoders
// build the request/response values the coordinator sends and the
// shard answers; decoders are the strict mirrors.
// ---------------------------------------------------------------------

/// Wraps a per-shard failure in the coordinator's structured error
/// envelope: `{"error":{"shard":i,"message":"…"}}`. Distinguishable
/// from the string-valued `{"error":"…"}` envelope so clients can tell
/// "your request was bad" from "a backend shard failed".
pub fn shard_error_envelope(shard: usize, msg: impl Into<String>) -> Json {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("shard".into(), Json::Num(Num::UInt(shard as u64))),
            ("message".into(), Json::Str(msg.into())),
        ]),
    )])
}

/// Splits a response line into its envelope halves: `Ok(payload)` for
/// `{"ok": …}`, `Err(detail)` for `{"error": …}` (the detail may be a
/// plain string or the structured shard object). Anything else is a
/// protocol violation.
pub fn envelope_from_value(value: &Json) -> JsonResult<std::result::Result<&Json, &Json>> {
    let Json::Obj(fields) = value else {
        return Err(JsonError::decode(format!(
            "a response envelope is an object, got {}",
            value.type_name()
        )));
    };
    match fields.as_slice() {
        [(key, payload)] if key == "ok" => Ok(Ok(payload)),
        [(key, detail)] if key == "error" => Ok(Err(detail)),
        _ => Err(JsonError::decode(
            "a response envelope has exactly one of \"ok\" or \"error\"",
        )),
    }
}

/// Decodes an append acknowledgment payload (the `{"ok": …}` body)
/// back into an [`AppendOutcome`]. Strict mirror of
/// [`append_to_value`].
pub fn append_from_value(value: &Json) -> JsonResult<AppendOutcome> {
    let mut obj = ObjReader::new("an append acknowledgment", value)?;
    let outcome = AppendOutcome {
        appended: obj.required("appended")?.as_u64()?,
        generation: obj.required("generation")?.as_u64()?,
        total_rows: obj.required("rows")?.as_u64()?,
    };
    obj.finish()?;
    Ok(outcome)
}

/// Encodes a **resolved** [`Condition`] for the count frame, attribute
/// handles rendered as schema names: `true` (always), `{"bool":…,
/// "is":…}`, `{"num":…,"eq":…}`, `{"num":…,"in":[lo,hi]}`, or
/// `{"and":[…]}`.
fn condition_to_value(cond: &Condition, schema: &Schema) -> Json {
    match cond {
        Condition::True => Json::Bool(true),
        Condition::BoolIs(attr, value) => Json::Obj(vec![
            (
                "bool".into(),
                Json::Str(schema.boolean_name(*attr).to_string()),
            ),
            ("is".into(), Json::Bool(*value)),
        ]),
        Condition::NumEq(attr, value) => Json::Obj(vec![
            (
                "num".into(),
                Json::Str(schema.numeric_name(*attr).to_string()),
            ),
            ("eq".into(), enc_f64(*value)),
        ]),
        Condition::NumInRange(attr, lo, hi) => Json::Obj(vec![
            (
                "num".into(),
                Json::Str(schema.numeric_name(*attr).to_string()),
            ),
            ("in".into(), Json::Arr(vec![enc_f64(*lo), enc_f64(*hi)])),
        ]),
        Condition::And(parts) => Json::Obj(vec![(
            "and".into(),
            Json::Arr(
                parts
                    .iter()
                    .map(|part| condition_to_value(part, schema))
                    .collect(),
            ),
        )]),
    }
}

fn condition_from_value(value: &Json, schema: &Schema) -> JsonResult<Condition> {
    if let Json::Bool(true) = value {
        return Ok(Condition::True);
    }
    let mut obj = ObjReader::new("a resolved condition", value)?;
    let cond = if let Some(attr) = obj.optional("bool") {
        let attr = schema
            .boolean(attr.as_str()?)
            .map_err(|e| JsonError::decode(e.to_string()))?;
        Condition::BoolIs(attr, obj.required("is")?.as_bool()?)
    } else if let Some(attr) = obj.optional("num") {
        let attr = schema
            .numeric(attr.as_str()?)
            .map_err(|e| JsonError::decode(e.to_string()))?;
        if let Some(eq) = obj.optional("eq") {
            Condition::NumEq(attr, eq.as_f64()?)
        } else {
            let bounds = obj.required("in")?.as_arr()?;
            let [lo, hi] = bounds else {
                return Err(JsonError::decode("\"in\" expects [lo, hi]"));
            };
            Condition::NumInRange(attr, lo.as_f64()?, hi.as_f64()?)
        }
    } else if let Some(parts) = obj.optional("and") {
        Condition::And(
            parts
                .as_arr()?
                .iter()
                .map(|part| condition_from_value(part, schema))
                .collect::<JsonResult<_>>()?,
        )
    } else {
        return Err(JsonError::decode(
            "a resolved condition needs \"bool\", \"num\", or \"and\" (or is `true`)",
        ));
    };
    obj.finish()?;
    Ok(cond)
}

/// Builds one complete `{"cmd":"values"}` request object. `trace` is
/// the coordinator's trace id, stamped on the frame so the shard's own
/// trace log correlates with the coordinator's spans.
pub fn values_frame_to_value(attr: &str, indices: &[u64], trace: Option<&str>) -> Json {
    let mut fields = vec![
        ("cmd".into(), Json::Str("values".into())),
        ("attr".into(), Json::Str(attr.into())),
        (
            "indices".into(),
            Json::Arr(indices.iter().map(|&i| Json::Num(Num::UInt(i))).collect()),
        ),
    ];
    if let Some(trace) = trace {
        fields.push(("trace".into(), Json::Str(trace.into())));
    }
    Json::Obj(fields)
}

/// Decodes a values frame body (the request minus its `cmd` key)
/// against the serving schema, returning the attribute, the row
/// indices, and the propagated trace id (if any).
///
/// # Errors
///
/// Fails on unknown attributes or shape violations.
pub fn values_frame_from_value(
    value: &Json,
    schema: &Schema,
) -> JsonResult<(NumAttr, Vec<u64>, Option<String>)> {
    let mut obj = ObjReader::new("a values frame", value)?;
    let attr = schema
        .numeric(obj.required("attr")?.as_str()?)
        .map_err(|e| JsonError::decode(e.to_string()))?;
    let indices = obj
        .required("indices")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<JsonResult<Vec<u64>>>()?;
    let trace = match obj.optional("trace") {
        Some(t) => Some(t.as_str()?.to_string()),
        None => None,
    };
    obj.finish()?;
    Ok((attr, indices, trace))
}

/// The `{"ok": …}` payload answering a values frame.
pub fn values_reply_to_value(values: &[f64], generation: u64) -> Json {
    Json::Obj(vec![
        ("generation".into(), Json::Num(Num::UInt(generation))),
        (
            "values".into(),
            Json::Arr(values.iter().map(|&x| enc_f64(x)).collect()),
        ),
    ])
}

/// Decodes a values reply payload into `(values, generation)`.
///
/// # Errors
///
/// Fails on shape violations.
pub fn values_reply_from_value(value: &Json) -> JsonResult<(Vec<f64>, u64)> {
    let mut obj = ObjReader::new("a values reply", value)?;
    let generation = obj.required("generation")?.as_u64()?;
    let values = obj
        .required("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<JsonResult<Vec<f64>>>()?;
    obj.finish()?;
    Ok((values, generation))
}

/// Builds one complete `{"cmd":"count"}` request object for a scan
/// work unit: the bucket boundaries plus *what* to count — `None` is
/// the shared all-Booleans scan, `Some` an explicit counting spec
/// (whose `attr` must equal `attr`).
pub fn count_frame_to_value(
    schema: &Schema,
    attr: NumAttr,
    cuts: &BucketSpec,
    what: Option<&CountSpec>,
    threads: usize,
    trace: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("cmd".into(), Json::Str("count".into())),
        (
            "attr".into(),
            Json::Str(schema.numeric_name(attr).to_string()),
        ),
        (
            "cuts".into(),
            Json::Arr(cuts.cuts().iter().map(|&c| enc_f64(c)).collect()),
        ),
        ("threads".into(), Json::Num(Num::UInt(threads as u64))),
    ];
    match what {
        None => fields.push(("all_booleans".into(), Json::Bool(true))),
        Some(spec) => {
            fields.push((
                "given".into(),
                condition_to_value(&spec.presumptive, schema),
            ));
            fields.push((
                "bool_targets".into(),
                Json::Arr(
                    spec.bool_targets
                        .iter()
                        .map(|t| condition_to_value(t, schema))
                        .collect(),
                ),
            ));
            fields.push((
                "sum_targets".into(),
                Json::Arr(
                    spec.sum_targets
                        .iter()
                        .map(|&t| Json::Str(schema.numeric_name(t).to_string()))
                        .collect(),
                ),
            ));
        }
    }
    if let Some(trace) = trace {
        fields.push(("trace".into(), Json::Str(trace.into())));
    }
    Json::Obj(fields)
}

/// Decodes a count frame body (the request minus its `cmd` key)
/// against the serving schema. An `all_booleans` frame expands to the
/// same [`CountSpec`] a single-node engine builds for its shared
/// simple-query scan, so shard partials merge into byte-identical
/// totals.
///
/// # Errors
///
/// Fails on unknown attributes, non-finite cuts, or shape violations.
pub fn count_frame_from_value(
    value: &Json,
    schema: &Schema,
) -> JsonResult<(BucketSpec, CountSpec, usize, Option<String>)> {
    let mut obj = ObjReader::new("a count frame", value)?;
    let attr = schema
        .numeric(obj.required("attr")?.as_str()?)
        .map_err(|e| JsonError::decode(e.to_string()))?;
    let cuts = obj
        .required("cuts")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<JsonResult<Vec<f64>>>()?;
    // `BucketSpec::from_cuts` sorts with a NaN-unaware comparator;
    // reject non-finite cuts before they can reach it.
    if cuts.iter().any(|c| !c.is_finite()) {
        return Err(JsonError::decode("count frame cuts must be finite"));
    }
    let threads = obj.required("threads")?.as_u64()? as usize;
    let spec = if let Some(flag) = obj.optional("all_booleans") {
        if !flag.as_bool()? {
            return Err(JsonError::decode(
                "\"all_booleans\" must be true when present",
            ));
        }
        CountSpec::all_booleans(attr, schema)
    } else {
        CountSpec {
            attr,
            presumptive: condition_from_value(obj.required("given")?, schema)?,
            bool_targets: obj
                .required("bool_targets")?
                .as_arr()?
                .iter()
                .map(|t| condition_from_value(t, schema))
                .collect::<JsonResult<_>>()?,
            sum_targets: obj
                .required("sum_targets")?
                .as_arr()?
                .iter()
                .map(|t| {
                    schema
                        .numeric(t.as_str()?)
                        .map_err(|e| JsonError::decode(e.to_string()))
                })
                .collect::<JsonResult<_>>()?,
        }
    };
    let trace = match obj.optional("trace") {
        Some(t) => Some(t.as_str()?.to_string()),
        None => None,
    };
    obj.finish()?;
    Ok((BucketSpec::from_cuts(cuts), spec, threads, trace))
}

/// A decoded `{"cmd":"count2d"}` frame body: which two-attribute grid
/// to scan. Unlike the 1-D count frame there is **no `threads` key** —
/// a grid partial holds only integer cell counts and min/max range
/// folds, so the scan runs sequentially on the shard and the artifact
/// is identical at every worker count.
pub struct Count2dFrame {
    /// The x-axis (first) attribute.
    pub x_attr: NumAttr,
    /// The y-axis (second) attribute.
    pub y_attr: NumAttr,
    /// X-axis bucket boundaries.
    pub x_cuts: BucketSpec,
    /// Y-axis bucket boundaries.
    pub y_cuts: BucketSpec,
    /// The resolved presumptive condition (the rule's `given`).
    pub presumptive: Condition,
    /// The resolved objective condition.
    pub objective: Condition,
    /// The coordinator's propagated trace id, if any.
    pub trace: Option<String>,
}

/// Builds one complete `{"cmd":"count2d"}` request object for a grid
/// work unit (see [`Count2dFrame`] for the shape).
#[allow(clippy::too_many_arguments)]
pub fn count2d_frame_to_value(
    schema: &Schema,
    x_attr: NumAttr,
    y_attr: NumAttr,
    x_cuts: &BucketSpec,
    y_cuts: &BucketSpec,
    presumptive: &Condition,
    objective: &Condition,
    trace: Option<&str>,
) -> Json {
    let cuts = |spec: &BucketSpec| Json::Arr(spec.cuts().iter().map(|&c| enc_f64(c)).collect());
    let mut fields = vec![
        ("cmd".into(), Json::Str("count2d".into())),
        (
            "attr".into(),
            Json::Str(schema.numeric_name(x_attr).to_string()),
        ),
        (
            "attr2".into(),
            Json::Str(schema.numeric_name(y_attr).to_string()),
        ),
        ("x_cuts".into(), cuts(x_cuts)),
        ("y_cuts".into(), cuts(y_cuts)),
        ("given".into(), condition_to_value(presumptive, schema)),
        ("objective".into(), condition_to_value(objective, schema)),
    ];
    if let Some(trace) = trace {
        fields.push(("trace".into(), Json::Str(trace.into())));
    }
    Json::Obj(fields)
}

/// Decodes a count2d frame body (the request minus its `cmd` key)
/// against the serving schema.
///
/// # Errors
///
/// Fails on unknown attributes, non-finite cuts, or shape violations.
pub fn count2d_frame_from_value(value: &Json, schema: &Schema) -> JsonResult<Count2dFrame> {
    let mut obj = ObjReader::new("a count2d frame", value)?;
    let x_attr = schema
        .numeric(obj.required("attr")?.as_str()?)
        .map_err(|e| JsonError::decode(e.to_string()))?;
    let y_attr = schema
        .numeric(obj.required("attr2")?.as_str()?)
        .map_err(|e| JsonError::decode(e.to_string()))?;
    let mut cuts_of = |key: &'static str| -> JsonResult<BucketSpec> {
        let cuts = obj
            .required(key)?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<JsonResult<Vec<f64>>>()?;
        // `BucketSpec::from_cuts` sorts with a NaN-unaware comparator;
        // reject non-finite cuts before they can reach it.
        if cuts.iter().any(|c| !c.is_finite()) {
            return Err(JsonError::decode(format!("{key:?} must be finite")));
        }
        Ok(BucketSpec::from_cuts(cuts))
    };
    let x_cuts = cuts_of("x_cuts")?;
    let y_cuts = cuts_of("y_cuts")?;
    let presumptive = condition_from_value(obj.required("given")?, schema)?;
    let objective = condition_from_value(obj.required("objective")?, schema)?;
    let trace = match obj.optional("trace") {
        Some(t) => Some(t.as_str()?.to_string()),
        None => None,
    };
    obj.finish()?;
    Ok(Count2dFrame {
        x_attr,
        y_attr,
        x_cuts,
        y_cuts,
        presumptive,
        objective,
        trace,
    })
}

/// The `{"ok": …}` payload answering a count2d frame: the **raw,
/// unmerged** grid partial plus the generation it was scanned at.
///
/// Empty buckets hold the `(∞, −∞)` min/max fold identity in memory;
/// on the wire they travel as `null`, **never** through the
/// string-encoded non-finite channel the 1-D reply uses — every number
/// in the 2-D wire schema is finite by construction.
pub fn grid_to_value(grid: &GridCounts, generation: u64) -> Json {
    let ranges = |ranges: &[(f64, f64)]| {
        Json::Arr(
            ranges
                .iter()
                .map(|&(lo, hi)| {
                    if lo > hi {
                        Json::Null
                    } else {
                        Json::Arr(vec![enc_f64(lo), enc_f64(hi)])
                    }
                })
                .collect(),
        )
    };
    let cells = |cells: &[u64]| Json::Arr(cells.iter().map(|&n| Json::Num(Num::UInt(n))).collect());
    Json::Obj(vec![
        ("generation".into(), Json::Num(Num::UInt(generation))),
        ("rows".into(), Json::Num(Num::UInt(grid.total_rows))),
        ("nx".into(), Json::Num(Num::UInt(grid.nx() as u64))),
        ("ny".into(), Json::Num(Num::UInt(grid.ny() as u64))),
        ("u".into(), cells(grid.u_cells())),
        ("v".into(), cells(grid.v_cells())),
        ("x_ranges".into(), ranges(&grid.x_ranges)),
        ("y_ranges".into(), ranges(&grid.y_ranges)),
    ])
}

/// Decodes a grid reply payload into `(grid, generation)`, restoring
/// the `(∞, −∞)` empty-bucket sentinel from each `null` range so
/// merges fold correctly.
///
/// # Errors
///
/// Fails on shape violations, non-finite range bounds (empty buckets
/// must travel as `null`), or mismatched cell/range arities.
pub fn grid_from_value(value: &Json) -> JsonResult<(GridCounts, u64)> {
    let mut obj = ObjReader::new("a grid reply", value)?;
    let generation = obj.required("generation")?.as_u64()?;
    let total_rows = obj.required("rows")?.as_u64()?;
    let nx = obj.required("nx")?.as_u64()? as usize;
    let ny = obj.required("ny")?.as_u64()? as usize;
    let cells = |value: &Json| -> JsonResult<Vec<u64>> {
        value.as_arr()?.iter().map(Json::as_u64).collect()
    };
    let u = cells(obj.required("u")?)?;
    let v = cells(obj.required("v")?)?;
    let ranges = |value: &Json, axis: &str| -> JsonResult<Vec<(f64, f64)>> {
        value
            .as_arr()?
            .iter()
            .map(|entry| match entry {
                Json::Null => Ok((f64::INFINITY, f64::NEG_INFINITY)),
                pair => {
                    let (lo, hi) = pair_f64(pair, axis)?;
                    if !lo.is_finite() || !hi.is_finite() {
                        return Err(JsonError::decode(format!(
                            "{axis} bounds must be finite (empty buckets travel as null)"
                        )));
                    }
                    Ok((lo, hi))
                }
            })
            .collect()
    };
    let x_ranges = ranges(obj.required("x_ranges")?, "x_ranges")?;
    let y_ranges = ranges(obj.required("y_ranges")?, "y_ranges")?;
    obj.finish()?;
    GridCounts::from_parts(nx, ny, u, v, x_ranges, y_ranges, total_rows)
        .map(|grid| (grid, generation))
        .map_err(|e| JsonError::decode(e.to_string()))
}

/// The `{"ok": …}` payload answering a count frame: the **raw,
/// uncompacted** per-bucket counts plus the generation they were
/// scanned at.
pub fn counts_to_value(counts: &BucketCounts, generation: u64) -> Json {
    Json::Obj(vec![
        ("generation".into(), Json::Num(Num::UInt(generation))),
        ("rows".into(), Json::Num(Num::UInt(counts.total_rows))),
        (
            "u".into(),
            Json::Arr(counts.u.iter().map(|&n| Json::Num(Num::UInt(n))).collect()),
        ),
        (
            "v".into(),
            Json::Arr(
                counts
                    .bool_v
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&n| Json::Num(Num::UInt(n))).collect()))
                    .collect(),
            ),
        ),
        (
            "sums".into(),
            Json::Arr(
                counts
                    .sums
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&x| enc_f64(x)).collect()))
                    .collect(),
            ),
        ),
        (
            "ranges".into(),
            Json::Arr(
                counts
                    .ranges
                    .iter()
                    .map(|&(lo, hi)| Json::Arr(vec![enc_f64(lo), enc_f64(hi)]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a count reply payload into `(counts, generation)`.
///
/// # Errors
///
/// Fails on shape violations or mismatched per-bucket arities.
pub fn counts_from_value(value: &Json) -> JsonResult<(BucketCounts, u64)> {
    let mut obj = ObjReader::new("a count reply", value)?;
    let generation = obj.required("generation")?.as_u64()?;
    let total_rows = obj.required("rows")?.as_u64()?;
    let u = obj
        .required("u")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<JsonResult<Vec<u64>>>()?;
    let bool_v = obj
        .required("v")?
        .as_arr()?
        .iter()
        .map(|row| {
            row.as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<JsonResult<Vec<u64>>>()
        })
        .collect::<JsonResult<Vec<_>>>()?;
    let sums = obj
        .required("sums")?
        .as_arr()?
        .iter()
        .map(|row| {
            row.as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<JsonResult<Vec<f64>>>()
        })
        .collect::<JsonResult<Vec<_>>>()?;
    let ranges = obj
        .required("ranges")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let [lo, hi] = pair.as_arr()? else {
                return Err(JsonError::decode("a range expects [lo, hi]"));
            };
            Ok((lo.as_f64()?, hi.as_f64()?))
        })
        .collect::<JsonResult<Vec<_>>>()?;
    obj.finish()?;
    let buckets = u.len();
    if ranges.len() != buckets
        || bool_v.iter().any(|row| row.len() != buckets)
        || sums.iter().any(|row| row.len() != buckets)
    {
        return Err(JsonError::decode(
            "count reply series disagree on bucket count",
        ));
    }
    Ok((
        BucketCounts {
            u,
            bool_v,
            sums,
            ranges,
            total_rows,
        },
        generation,
    ))
}

/// The `{"ok": …}` payload answering a `{"cmd":"schema"}` frame:
/// attribute names in column order plus the current generation and row
/// count.
pub fn schema_to_value(schema: &Schema, generation: u64, rows: u64) -> Json {
    Json::Obj(vec![
        (
            "numeric".into(),
            Json::Arr(
                schema
                    .numeric_names()
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        (
            "boolean".into(),
            Json::Arr(
                schema
                    .boolean_names()
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        ("generation".into(), Json::Num(Num::UInt(generation))),
        ("rows".into(), Json::Num(Num::UInt(rows))),
    ])
}

/// Decodes a schema reply payload into `(schema, generation, rows)`.
///
/// # Errors
///
/// Fails on shape violations.
pub fn schema_from_value(value: &Json) -> JsonResult<(Schema, u64, u64)> {
    let mut obj = ObjReader::new("a schema reply", value)?;
    let mut builder = Schema::builder();
    for name in obj.required("numeric")?.as_arr()? {
        builder = builder.numeric(name.as_str()?);
    }
    for name in obj.required("boolean")?.as_arr()? {
        builder = builder.boolean(name.as_str()?);
    }
    let generation = obj.required("generation")?.as_u64()?;
    let rows = obj.required("rows")?.as_u64()?;
    obj.finish()?;
    Ok((builder.build(), generation, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

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
