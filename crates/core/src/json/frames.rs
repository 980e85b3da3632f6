//! Request frames and the one loop that executes them: the request
//! grammar of `optrules batch`, `optrules serve` and `optrules coord`.
//!
//! [`parse_request`] turns one NDJSON line into a [`Request`];
//! [`execute_frames`] runs a batch of them in program order against a
//! [`FrameHandler`] — one implementation per *serving identity* (the
//! single-node engine here, the scatter-gather coordinator in the
//! `optrules-coord` crate). Adding a control frame touches three
//! sites: a [`Request`] variant, its arm in [`parse_request`], and one
//! `match` arm in each identity's [`FrameHandler::control`].
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
//! lock-free atomic counters, always on.
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
//! than [`MAX_APPEND_ROWS`](super::MAX_APPEND_ROWS) rows per frame
//! produce an `{"error": …}`
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

use super::value::{Json, JsonError, JsonResult, ObjReader};
use super::wire::{
    append_to_value, counts_to_value, error_envelope, flush_to_value, grid_to_value,
    histogram_to_value, ok_envelope, rows_from_value, rule_set_to_value, schema_to_value,
    server_metrics_to_value, spec_from_value, stats_to_value, values_reply_to_value, Wire,
    MAX_THREADS,
};
use crate::exec::CountSource as _;
use crate::server::ExecuteCtx;
use crate::shared::{LocalSource, SharedEngine};
use crate::spec::{resolve_conjunction, CondSpec, QuerySpec};
use optrules_bucketing::{BucketSpec, CountSpec};
use optrules_obs::{Span, Timer};
use optrules_relation::{
    AppendRows, Condition, Durability, NumAttr, RandomAccess, RelationError, Schema,
};
use std::fmt::Display;

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
    /// `{"cmd":"values",…}` — the raw (still unvalidated) frame body
    /// minus its `cmd` key; decode against the serving schema with
    /// [`values_frame_from_value`] when executing.
    Values(Json),
    /// `{"cmd":"count",…}` — likewise, for [`count_frame_from_value`].
    Count(Json),
    /// `{"cmd":"count2d",…}` — likewise, for the two-attribute grid
    /// scan's [`count2d_frame_from_value`].
    Count2D(Json),
    /// Unparseable or invalid; answer with `{"error": …}`.
    Bad(String),
}

/// Parses one request line: a JSON object with a `cmd` key is a
/// control frame, anything else must decode as a [`QuerySpec`]. Never
/// fails — invalid input becomes [`Request::Bad`] carrying the error
/// message to send back.
///
/// Control frames are as strict as specs (a typo must not silently
/// become a no-op): `stats` / `metrics` / `shutdown` / `flush` /
/// `schema` carry exactly the `cmd` key, `append` exactly `cmd` and
/// `rows` (moved into the request, not cloned), and the shard-internal
/// frames keep their body for the strict decode against the serving
/// schema at execution time.
pub fn parse_request(line: &str) -> Request {
    const SHAPE: &str = "bad request: a control frame is \
                         {\"cmd\": \"stats\"|\"metrics\"|\"shutdown\"|\"flush\"|\"schema\"}, \
                         {\"cmd\": \"append\", \"rows\": [[…], …]}, \
                         or an internal \"values\"/\"count\"/\"count2d\" frame";
    let bad = |e: JsonError| Request::Bad(format!("bad request: {e}"));
    let mut value = match Json::parse(line) {
        Ok(value) => value,
        Err(e) => return bad(e),
    };
    let cmd = match &mut value {
        Json::Obj(fields) => fields
            .iter()
            .position(|(key, _)| key == "cmd")
            .map(|at| (fields.remove(at).1, std::mem::take(fields))),
        _ => None,
    };
    let Some((cmd, mut body)) = cmd else {
        return match spec_from_value(&value) {
            Ok(spec) => Request::Spec(Box::new(spec)),
            Err(e) => bad(e),
        };
    };
    let is_bare = body.is_empty();
    let bare = |request| {
        if is_bare {
            request
        } else {
            Request::Bad(SHAPE.into())
        }
    };
    match cmd.as_str().unwrap_or_default() {
        "stats" => bare(Request::Stats),
        "metrics" => bare(Request::Metrics),
        "shutdown" => bare(Request::Shutdown),
        "flush" => bare(Request::Flush),
        "schema" => bare(Request::Schema),
        "append" => match body.pop() {
            Some((key, rows)) if key == "rows" && body.is_empty() => Request::Append(rows),
            _ => Request::Bad(SHAPE.into()),
        },
        "values" => Request::Values(Json::Obj(body)),
        "count" => Request::Count(Json::Obj(body)),
        "count2d" => Request::Count2D(Json::Obj(body)),
        _ => Request::Bad(format!(
            "bad request: unknown cmd {} \
             (expected \"stats\", \"metrics\", \"shutdown\", \"flush\", \
             \"append\", \"schema\", \"values\", \"count\", or \"count2d\")",
            cmd.encode()
        )),
    }
}

// ---------------------------------------------------------------------
// Shard-internal frames: values / count / count2d — the RPCs of the
// scatter-gather topology (the `optrules-coord` crate). Replies are
// tabled in `wire`.
// ---------------------------------------------------------------------

/// A **resolved** [`Condition`] on the wire, attribute handles rendered
/// as schema names: [`CondSpec`]'s grammar plus `true` (always) and
/// `{"and":[…]}`. Decoding resolves the names back through
/// [`resolve_conjunction`], exactly as a spec's `given` resolves.
struct Conjunction(Vec<CondSpec>);

impl Conjunction {
    const AND: &'static str = "and";

    fn of(cond: &Condition, schema: &Schema) -> Self {
        Self(CondSpec::from_condition(cond, schema))
    }

    fn resolve(&self, schema: &Schema) -> JsonResult<Condition> {
        resolve_conjunction(&self.0, schema).map_err(|e| JsonError::decode(e.to_string()))
    }
}

impl Wire for Conjunction {
    fn enc(&self) -> Json {
        match self.0.as_slice() {
            [] => Json::Bool(true),
            [one] => one.enc(),
            all => Json::Obj(vec![(Self::AND.into(), all.enc())]),
        }
    }
    fn dec(value: &Json) -> JsonResult<Self> {
        Ok(Self(match value {
            Json::Bool(true) => Vec::new(),
            Json::Obj(fields) if matches!(fields.as_slice(), [(key, _)] if key == Self::AND) => {
                Wire::dec(&fields[0].1)?
            }
            one => vec![CondSpec::dec(one)?],
        }))
    }
}

/// The one attr-by-name decoder of the shard-internal frames.
fn numeric_attr(schema: &Schema, name: &str) -> JsonResult<NumAttr> {
    schema
        .numeric(name)
        .map_err(|e| JsonError::decode(e.to_string()))
}

wire_fns! {
    /// Builds one complete `{"cmd":"values"}` request object. `trace`
    /// is the coordinator's trace id, stamped on the frame so the
    /// shard's own trace log correlates with the coordinator's spans.
    pub fn values_frame_to_value(attr: &str, indices: &[u64], trace: Option<&str>);
    /// Decodes a values frame body (the request minus its `cmd` key)
    /// against the serving schema, returning the attribute, the row
    /// indices, and the propagated trace id (if any).
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes or shape violations.
    pub fn values_frame_from_value(schema: &Schema) -> (NumAttr, Vec<u64>, Option<String>);
    "a values frame" cmd "values" {
        req attr = "attr" <- attr,
        req indices = "indices" <- indices,
        opt trace = "trace" <- trace,
    } => Ok((numeric_attr(schema, String::as_str(&attr))?, indices, trace))
}

wire_fns! {
    /// Builds one complete `{"cmd":"count"}` request object for a scan
    /// work unit: the bucket boundaries plus *what* to count — `None`
    /// is the shared all-Booleans scan, `Some` an explicit counting
    /// spec (whose `attr` must equal `attr`).
    pub fn count_frame_to_value(
        schema: &Schema,
        attr: NumAttr,
        cuts: &BucketSpec,
        what: Option<&CountSpec>,
        threads: usize,
        trace: Option<&str>,
    );
    /// Decodes a count frame body (the request minus its `cmd` key)
    /// against the serving schema. An `all_booleans` frame expands to
    /// the same [`CountSpec`] a single-node engine builds for its
    /// shared simple-query scan, so shard partials merge into
    /// byte-identical totals.
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes, non-finite cuts, a `threads` over
    /// [`MAX_THREADS`], or shape violations.
    pub fn count_frame_from_value(schema: &Schema)
        -> (BucketSpec, CountSpec, usize, Option<String>);
    "a count frame" cmd "count" {
        req attr = "attr" <- schema.numeric_name(attr),
        req cuts = "cuts" <- cuts,
        req threads = "threads" <- threads,
        opt all_booleans = "all_booleans" <- what.is_none().then_some(true),
        opt given = "given" <- what.map(|w| Conjunction::of(&w.presumptive, schema)),
        opt bool_targets = "bool_targets" <- what.map(|w| {
            let targets = w.bool_targets.iter();
            targets.map(|t| Conjunction::of(t, schema)).collect::<Vec<_>>()
        }),
        opt sum_targets = "sum_targets" <- what.map(|w| {
            let targets = w.sum_targets.iter();
            targets.map(|&t| schema.numeric_name(t).to_string()).collect::<Vec<_>>()
        }),
        opt trace = "trace" <- trace,
    } => {
        let attr = numeric_attr(schema, String::as_str(&attr))?;
        if threads > MAX_THREADS {
            return Err(JsonError::decode(format!(
                "\"threads\" {threads} exceeds the limit of {MAX_THREADS}"
            )));
        }
        let missing = |key: &str| JsonError::decode(format!("a count frame is missing {key:?}"));
        let spec = match all_booleans {
            Some(true) => CountSpec::all_booleans(attr, schema),
            Some(false) => {
                return Err(JsonError::decode("\"all_booleans\" must be true when present"))
            }
            None => {
                let given: Conjunction = given.ok_or_else(|| missing("given"))?;
                let bool_targets: Vec<Conjunction> =
                    bool_targets.ok_or_else(|| missing("bool_targets"))?;
                let sum_targets: Vec<String> = sum_targets.ok_or_else(|| missing("sum_targets"))?;
                CountSpec {
                    attr,
                    presumptive: given.resolve(schema)?,
                    bool_targets: bool_targets
                        .iter()
                        .map(|t| t.resolve(schema))
                        .collect::<JsonResult<_>>()?,
                    sum_targets: sum_targets
                        .iter()
                        .map(|t| numeric_attr(schema, t))
                        .collect::<JsonResult<_>>()?,
                }
            }
        };
        Ok((cuts, spec, threads, trace))
    }
}

/// A decoded `{"cmd":"count2d"}` frame: which two-attribute grid to
/// scan. Unlike the 1-D count frame there is **no `threads` key** — a
/// grid partial holds only integer cell counts and min/max range
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

wire_fns! {
    /// Builds one complete `{"cmd":"count2d"}` request object for a
    /// grid work unit (see [`Count2dFrame`] for the shape).
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
    );
    /// Decodes a count2d frame body (the request minus its `cmd` key)
    /// against the serving schema.
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes, non-finite cuts, or shape
    /// violations.
    pub fn count2d_frame_from_value(schema: &Schema) -> Count2dFrame;
    "a count2d frame" cmd "count2d" {
        req attr = "attr" <- schema.numeric_name(x_attr),
        req attr2 = "attr2" <- schema.numeric_name(y_attr),
        req x_cuts = "x_cuts" <- x_cuts,
        req y_cuts = "y_cuts" <- y_cuts,
        req given = "given" <- Conjunction::of(presumptive, schema),
        req objective = "objective" <- Conjunction::of(objective, schema),
        opt trace = "trace" <- trace,
    } => {
        let (given, objective): (Conjunction, Conjunction) = (given, objective);
        Ok(Count2dFrame {
            x_attr: numeric_attr(schema, String::as_str(&attr))?,
            y_attr: numeric_attr(schema, String::as_str(&attr2))?,
            x_cuts,
            y_cuts,
            presumptive: given.resolve(schema)?,
            objective: objective.resolve(schema)?,
            trace,
        })
    }
}

/// What it takes to answer the NDJSON request grammar. One
/// implementation per *serving identity*: the single-node engine
/// ([`execute_requests`]) and the scatter-gather coordinator (the
/// `optrules-coord` crate) both sit behind this trait, so every
/// transport (batch stdin, TCP connection) drives them identically
/// through [`execute_frames`].
///
/// Both methods return **complete response envelopes** (`{"ok":…}` or
/// `{"error":…}`) — the handler owns its error rendering, which is how
/// the coordinator gets its structured per-shard error form.
pub trait FrameHandler {
    /// Runs one segment of consecutive specs as a planned batch and
    /// returns one envelope per spec, in order.
    fn run_segment(&mut self, specs: &[QuerySpec]) -> Vec<Json>;
    /// Answers one non-spec request — in each identity a single
    /// exhaustive `match` over [`Request`].
    fn control(&mut self, request: &Request) -> Json;
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
        responses[index] = Some(match request {
            Request::Spec(spec) => {
                pending.push((index, *spec));
                continue;
            }
            Request::Bad(msg) => error_envelope(msg),
            control => {
                flush(handler, &mut pending, &mut responses);
                shutdown_requested |= matches!(control, Request::Shutdown);
                handler.control(&control)
            }
        });
    }
    flush(handler, &mut pending, &mut responses);
    let responses = responses
        .into_iter()
        .map(|response| response.expect("every request produced a response"))
        .collect();
    (responses, shutdown_requested)
}

/// `{"ok": enc(value)}`, or the plain `{"error": "…"}` envelope.
fn reply<T, E: Display>(result: Result<T, E>, enc: impl FnOnce(T) -> Json) -> Json {
    match result {
        Ok(value) => ok_envelope(enc(value)),
        Err(e) => error_envelope(e.to_string()),
    }
}

/// The single-node engine behind the [`FrameHandler`] grammar — the
/// identity `optrules batch` and `optrules serve` both expose.
struct EngineFrames<'a, R: RandomAccess> {
    engine: &'a SharedEngine<R>,
    threads: usize,
    ctx: Option<ExecuteCtx<'a>>,
}

impl<R> EngineFrames<'_, R>
where
    R: RandomAccess + AppendRows + Durability + Send + Sync,
{
    /// Answers one shard-internal frame: a body that fails its strict
    /// decode is a bad request; otherwise `run` answers it under one
    /// span carrying the coordinator's propagated trace id, so one cold
    /// request correlates across the whole scatter-gather fan.
    fn shard_frame<T>(
        &self,
        span: &'static str,
        decoded: Result<(T, Option<String>), JsonError>,
        run: impl FnOnce(T) -> Json,
    ) -> Json {
        let (frame, trace) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => return error_envelope(format!("bad request: {e}")),
        };
        let timer = Timer::start();
        let response = run(frame);
        let sink = self.ctx.as_ref().and_then(|ctx| ctx.trace);
        if let (Some(sink), Some(trace)) = (sink, trace.as_deref()) {
            sink.emit(&Span {
                trace,
                span,
                shard: None,
                start_ns: timer.start_ns(),
                dur_ns: timer.elapsed_ns(),
            });
        }
        response
    }

    /// One batched fetch on the pinned relation; an out-of-range index
    /// is reported as the fetch reports it — the first offender in
    /// request order.
    fn values(&self, attr: NumAttr, indices: Vec<u64>) -> Json {
        let pinned = self.engine.pin();
        let mut values = vec![0.0; indices.len()];
        match (pinned.relation()).numeric_at_many(attr, &indices, &mut values) {
            Ok(()) => ok_envelope(values_reply_to_value(&values, pinned.generation())),
            Err(RelationError::RowOutOfBounds { row, len }) => error_envelope(format!(
                "bad request: row index {row} out of range ({len} rows)"
            )),
            Err(e) => error_envelope(e.to_string()),
        }
    }

    fn metrics(&self) -> Json {
        let mut fields = vec![(
            "engine".into(),
            Json::Obj(
                named_fields!(self.engine.engine_metrics(), histogram_to_value =>
                bucketize, kernel_scan, fallback_scan, optimize),
            ),
        )];
        if let Some(ctx) = &self.ctx {
            fields.push(("server".into(), server_metrics_to_value(ctx)));
        }
        if let Some(d) = self.engine.durability_metrics() {
            fields.push((
                "durability".into(),
                Json::Obj(named_fields!(d, histogram_to_value => wal_fsync, checkpoint)),
            ));
        }
        ok_envelope(Json::Obj(fields))
    }
}

impl<R> FrameHandler for EngineFrames<'_, R>
where
    R: RandomAccess + AppendRows + Durability + Send + Sync,
{
    /// Under a server the segment holds an in-flight gate permit;
    /// appends and the other control frames never take one.
    fn run_segment(&mut self, specs: &[QuerySpec]) -> Vec<Json> {
        let timer = Timer::start();
        let results = {
            let _permit = self.ctx.as_ref().map(|ctx| ctx.gate.acquire());
            self.engine.run_batch(specs, self.threads)
        };
        let responses = results
            .into_iter()
            .map(|result| reply(result, |rules| rule_set_to_value(&rules)))
            .collect();
        if let Some(sink) = self.ctx.as_ref().and_then(|ctx| ctx.trace) {
            sink.emit(&Span {
                trace: &sink.next_trace_id(),
                span: "segment",
                shard: None,
                start_ns: timer.start_ns(),
                dur_ns: timer.elapsed_ns(),
            });
        }
        responses
    }

    fn control(&mut self, request: &Request) -> Json {
        let engine = self.engine;
        let schema = engine.schema();
        match request {
            Request::Spec(spec) => self.run_segment(std::slice::from_ref(spec)).remove(0),
            Request::Bad(msg) => error_envelope(msg.as_str()),
            Request::Stats => ok_envelope(stats_to_value(
                &engine.snapshot(),
                self.ctx.as_ref().map(|ctx| &ctx.gauges),
            )),
            Request::Metrics => self.metrics(),
            // Batch mode has no transport context — and no server to
            // stop.
            Request::Shutdown => match self.ctx {
                Some(_) => ok_envelope(Json::Str("shutdown".into())),
                None => error_envelope(
                    "\"shutdown\" stops `optrules serve`; batch mode has no server to stop",
                ),
            },
            Request::Flush => reply(engine.flush(), flush_to_value),
            Request::Append(rows) => match rows_from_value(rows, schema) {
                Ok(rows) => reply(engine.append_rows(&rows), |outcome| {
                    append_to_value(&outcome)
                }),
                Err(e) => error_envelope(format!("bad request: {e}")),
            },
            Request::Schema => {
                let pinned = engine.pin();
                ok_envelope(schema_to_value(schema, pinned.generation(), pinned.rows()))
            }
            Request::Values(frame) => self.shard_frame(
                "shard_values",
                values_frame_from_value(frame, schema).map(|(a, i, trace)| ((a, i), trace)),
                |(attr, indices)| self.values(attr, indices),
            ),
            Request::Count(frame) => self.shard_frame(
                "shard_count",
                count_frame_from_value(frame, schema).map(|(c, w, t, trace)| ((c, w, t), trace)),
                |(cuts, what, threads)| {
                    let pinned = engine.pin();
                    let source = LocalSource::raw(pinned.relation().as_ref());
                    reply(
                        source.count(what.attr, &cuts, Some(&what), threads),
                        |counts| counts_to_value(&counts, pinned.generation()),
                    )
                },
            ),
            Request::Count2D(frame) => self.shard_frame(
                "shard_count2d",
                count2d_frame_from_value(frame, schema).map(|mut f| {
                    let trace = f.trace.take();
                    (f, trace)
                }),
                |f| {
                    let pinned = engine.pin();
                    let source = LocalSource::raw(pinned.relation().as_ref());
                    reply(
                        source.count_grid(
                            f.x_attr,
                            f.y_attr,
                            &f.x_cuts,
                            &f.y_cuts,
                            &f.presumptive,
                            &f.objective,
                        ),
                        |grid| grid_to_value(&grid, pinned.generation()),
                    )
                },
            ),
        }
    }
}

/// Executes parsed request frames against one single-node engine — the
/// engine-backed instantiation of [`execute_frames`]. Each segment of
/// consecutive specs runs as one planned batch at `threads`; `ctx` is
/// the serving transport's context (in-flight gate, lifecycle
/// histograms, gauges, trace sink) — `None` in batch mode, which takes
/// no gate permit, reports no server lifecycle, emits no spans, and
/// answers `shutdown` with an error envelope.
pub fn execute_requests<R>(
    engine: &SharedEngine<R>,
    requests: Vec<Request>,
    threads: usize,
    ctx: Option<ExecuteCtx<'_>>,
) -> (Vec<Json>, bool)
where
    R: RandomAccess + AppendRows + Durability + Send + Sync,
{
    let mut handler = EngineFrames {
        engine,
        threads,
        ctx,
    };
    execute_frames(&mut handler, requests)
}
