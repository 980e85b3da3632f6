//! Scatter-gather coordinator: plan centrally, count on shards,
//! optimize once.
//!
//! The optimization step of every query in this system is cheap — it
//! runs over `M` (≤ thousands) bucket summaries, not `N` (millions of)
//! rows. What costs is the data pass: sampling for Algorithm 3.1's
//! bucket boundaries and the counting scan that fills them. This crate
//! splits the two across machines:
//!
//! ```text
//!                      ┌────────────┐  specs / stats / append
//!            clients ─▶│ optrules   │◀─ NDJSON over TCP
//!                      │   coord    │
//!                      └─────┬──────┘
//!        plan, cache, merge, │ optimize   (cheap, centralized)
//!            ┌───────────────┼───────────────┐
//!            ▼               ▼               ▼
//!      ┌───────────┐   ┌───────────┐   ┌───────────┐
//!      │ optrules  │   │ optrules  │   │ optrules  │   values/count
//!      │  serve #0 │   │  serve #1 │   │  serve #2 │   frames only
//!      └───────────┘   └───────────┘   └───────────┘
//!        rows 0..a       rows a..b       rows b..N    (concatenation)
//! ```
//!
//! The shards are plain `optrules serve` processes; they never
//! optimize for the coordinator — they answer three internal frames:
//! `{"cmd":"values"}` (fetch sampled rows for bucketization),
//! `{"cmd":"count"}` (one raw counting scan, partials left
//! uncompacted) and `{"cmd":"count2d"}` (one raw §1.4 grid scan).
//!
//! There is **one executor with two sources**. Planning, cross-query
//! dedup, the artifact cache, singleflight, compaction, the hit/work
//! counters and rule assembly are the very
//! [`Executor`](optrules_core::Executor) a single-node
//! [`SharedEngine`](optrules_core::SharedEngine) runs; the coordinator
//! only supplies the [`CountSource`] that reaches rows living on
//! shards — reproduce the sampling index stream centrally and fetch the
//! drawn values, fan a count frame out, verify every partial against
//! the pin, merge in shard order — so a segment is just pin →
//! `Plan::compile` → `Executor::run_plan` → envelopes.
//!
//! # Byte-identity
//!
//! Responses are byte-identical to a single-node `optrules serve` over
//! the concatenated relation: the sampling index stream is reproduced
//! centrally ([`sample_indices`] + [`attr_seed`]) and the drawn values
//! are fetched from whichever shard holds each row, so the bucket
//! boundaries — and hence every count and every optimized rule — match
//! the single-node run exactly. (Caveat: `sums` of *non-integer* f64
//! values may differ in low bits from a differently-partitioned run,
//! since float addition is not associative; integer-valued data is
//! exact.)
//!
//! # Consistency model
//!
//! Each query pins a **generation vector** — one `(generation, rows)`
//! pair per shard. An append routes to the last shard and bumps only
//! that entry; there is no cross-shard append atomicity. Every shard
//! reply carries the generation it served; a mismatch against the pin
//! fails that query with a structured shard error (and refreshes the
//! coordinator's view for subsequent segments). The wire-visible
//! `generation` is the **epoch** — the sum over the vector — which
//! advances by exactly one per append, matching single-node numbering.
//!
//! # Degradation
//!
//! A dead or hung shard fails only the requests that needed it, with
//! the structured `{"error":{"shard":i,"message":…}}` envelope; the
//! coordinator itself keeps serving and recovers when the shard comes
//! back (connections are redialed per RPC, and a generation refresh
//! re-pins the restarted shard's state).

#![warn(missing_docs)]

mod error;
mod shardset;
mod source;

pub use error::{CoordError, Result};
pub use shardset::{CoordConfig, RpcKind, ShardRpcMetrics, ShardSet};

use optrules_core::cache::CacheConfig;
use optrules_core::json::{self, Json, Num, Request};
use optrules_core::plan::Plan;
use optrules_core::server::{ExecuteCtx, Service};
use optrules_core::shared::AppendOutcome;
use optrules_core::{EngineConfig, Executor, QuerySpec};
use optrules_obs::{Gauges, Histogram, Span, Timer, TraceSink};
use optrules_relation::Schema;
use source::ShardSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The coordinator's pinned view of shard state: one `(generation,
/// rows)` pair per shard plus a local **pin identity** that changes
/// whenever the vector does. Cache keys carry the pin identity, not
/// the epoch — two distinct vectors could share an epoch sum (e.g.
/// after a shard restart), and artifacts from different vectors must
/// never be served interchangeably.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardView {
    gens: Vec<u64>,
    rows: Vec<u64>,
    pin_id: u64,
}

impl ShardView {
    /// Wire-visible generation: the sum of per-shard generations.
    /// Advances by exactly one per append (an append bumps one shard's
    /// generation by one), matching single-node numbering.
    fn epoch(&self) -> u64 {
        self.gens.iter().sum()
    }

    /// Total rows across the concatenation.
    fn total_rows(&self) -> u64 {
        self.rows.iter().sum()
    }

    /// Global row offset at which each shard's segment begins.
    fn offsets(&self) -> Vec<u64> {
        let mut offsets = Vec::with_capacity(self.rows.len());
        let mut acc = 0u64;
        for &r in &self.rows {
            offsets.push(acc);
            acc += r;
        }
        offsets
    }
}

/// The scatter-gather coordinator: a [`Service`] that runs the shared
/// [`Executor`] over a shard-set
/// [`CountSource`](optrules_core::CountSource). See the [module
/// docs](self).
pub struct Coordinator {
    shards: ShardSet,
    schema: Schema,
    config: EngineConfig,
    exec: Executor,
    state: RwLock<ShardView>,
    next_pin: AtomicU64,
    merged_nodes: AtomicU64,
    /// Decode + pin-verify + merge of per-shard partials, per cold
    /// scan or grid node — the one phase a coordinator adds to the
    /// pipeline.
    merge: Histogram,
    trace: Option<Arc<TraceSink>>,
}

/// Parses one shard reply line and unwraps its `{"ok":…}` payload; an
/// `{"error":…}` reply or a protocol violation becomes a shard error.
fn parse_ok(shard: usize, line: &str) -> Result<Json> {
    let value = Json::parse(line)
        .map_err(|e| CoordError::shard(shard, format!("unparseable reply: {e}")))?;
    match json::envelope_from_value(&value)
        .map_err(|e| CoordError::shard(shard, format!("bad reply envelope: {e}")))?
    {
        Ok(payload) => Ok(payload.clone()),
        Err(Json::Str(msg)) => Err(CoordError::shard(shard, msg.clone())),
        Err(detail) => Err(CoordError::shard(shard, detail.encode())),
    }
}

/// Reads a top-level `u64` field out of a JSON object, if present.
fn obj_u64(value: &Json, key: &str) -> Option<u64> {
    let Json::Obj(fields) = value else {
        return None;
    };
    fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
        if let Json::Num(Num::UInt(n)) = v {
            Some(*n)
        } else {
            None
        }
    })
}

/// Renders a [`CoordError`] as its response envelope: shard failures
/// get the structured form, everything else the plain string form a
/// single-node engine would produce for the same failure.
fn render_error(e: CoordError) -> Json {
    match e {
        CoordError::Shard { shard, message } => json::shard_error_envelope(shard, message),
        other => json::error_envelope(other.to_string()),
    }
}

fn cmd_line(cmd: &str) -> String {
    Json::Obj(vec![("cmd".into(), Json::Str(cmd.into()))]).encode()
}

impl Coordinator {
    /// Connects to the shard set: fetches every shard's schema (they
    /// must all match) and records the initial generation vector.
    ///
    /// # Errors
    ///
    /// Fails when `addrs` is empty, a shard is unreachable, or the
    /// shards disagree on the schema.
    pub fn connect(
        addrs: &[String],
        config: EngineConfig,
        cache: CacheConfig,
        net: CoordConfig,
    ) -> Result<Coordinator> {
        if addrs.is_empty() {
            return Err(CoordError::Config(
                "at least one shard address is required".into(),
            ));
        }
        let shards = ShardSet::new(addrs, net);
        let replies = shards.broadcast(&cmd_line("schema"), true, RpcKind::Control);
        let mut schema: Option<Schema> = None;
        let mut gens = Vec::with_capacity(addrs.len());
        let mut rows = Vec::with_capacity(addrs.len());
        for (i, reply) in replies.into_iter().enumerate() {
            let lines = reply?;
            let payload = parse_ok(i, &lines[0])?;
            let (shard_schema, generation, shard_rows) = json::schema_from_value(&payload)
                .map_err(|e| CoordError::shard(i, format!("bad schema reply: {e}")))?;
            match &schema {
                None => schema = Some(shard_schema),
                Some(first) => {
                    if *first != shard_schema {
                        return Err(CoordError::Config(format!(
                            "shard {i} ({}) serves a different schema than shard 0",
                            shards.addr(i)
                        )));
                    }
                }
            }
            gens.push(generation);
            rows.push(shard_rows);
        }
        Ok(Coordinator {
            shards,
            schema: schema.expect("addrs is non-empty"),
            config,
            exec: Executor::new(cache),
            state: RwLock::new(ShardView {
                gens,
                rows,
                pin_id: 0,
            }),
            next_pin: AtomicU64::new(1),
            merged_nodes: AtomicU64::new(0),
            merge: Histogram::default(),
            trace: None,
        })
    }

    /// Installs a trace sink: every client segment gets a fresh trace
    /// id, every shard RPC a span under it, and the same id rides the
    /// internal frames so shard-side logs correlate. Builder-style, for
    /// use between [`Coordinator::connect`] and serving.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<Arc<TraceSink>>) -> Coordinator {
        self.trace = trace;
        self
    }

    /// The schema every shard serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of backend shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current wire-visible generation (the epoch; see [module
    /// docs](self)).
    pub fn generation(&self) -> u64 {
        self.state.read().expect("state poisoned").epoch()
    }

    /// Records a freshly observed `(generation, rows)` for one shard;
    /// any change invalidates the pin identity so later segments
    /// re-plan (and re-cache) against the new vector.
    fn observe_shard(&self, shard: usize, generation: u64, rows: u64) {
        let mut st = self.state.write().expect("state poisoned");
        if st.gens[shard] != generation || st.rows[shard] != rows {
            st.gens[shard] = generation;
            st.rows[shard] = rows;
            st.pin_id = self.next_pin.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Re-reads one shard's `(generation, rows)` after a mismatch —
    /// how the coordinator re-pins a restarted shard. Best effort: a
    /// failure here just leaves the stale view for the next attempt.
    fn resync(&self, shard: usize) {
        if let Ok(lines) = self
            .shards
            .rpc(shard, &[cmd_line("schema")], true, RpcKind::Control)
        {
            if let Ok(payload) = parse_ok(shard, &lines[0]) {
                if let Ok((_, generation, rows)) = json::schema_from_value(&payload) {
                    self.observe_shard(shard, generation, rows);
                }
            }
        }
    }

    /// Runs one segment of consecutive specs as a planned batch,
    /// returning one response envelope per spec in order. `threads`
    /// fans deduplicated plan nodes out in parallel (each scan node is
    /// additionally parallel across shards internally).
    pub fn run_segment(&self, specs: &[QuerySpec], threads: usize) -> Vec<Json> {
        let segment_timer = Timer::start();
        let trace_id = self.trace.as_ref().map(|sink| sink.next_trace_id());
        let trace = trace_id.as_deref();
        let pin = self.state.read().expect("state poisoned").clone();
        let plan = Plan::compile(&self.schema, &self.config, pin.pin_id, specs);
        let source = ShardSource {
            coord: self,
            pin: &pin,
            trace,
        };
        let responses = self
            .exec
            .run_plan(&source, plan, threads)
            .into_iter()
            .map(|outcome| match outcome {
                Ok(rules) => json::ok_envelope(json::rule_set_to_value(&rules)),
                Err(e) => render_error(e),
            })
            .collect();
        if let (Some(sink), Some(trace)) = (self.trace.as_deref(), trace) {
            sink.emit(&Span {
                trace,
                span: "segment",
                shard: None,
                start_ns: segment_timer.start_ns(),
                dur_ns: segment_timer.elapsed_ns(),
            });
        }
        responses
    }

    /// Answers an append frame: validate centrally (invalid frames
    /// render byte-identically to a single-node engine and never reach
    /// a shard), route the rows to the **last** shard (preserving
    /// concatenation order), and rewrite the acknowledgment into epoch
    /// terms. Appends never retry after bytes were written — the frame
    /// is not idempotent.
    pub fn append(&self, rows_value: &Json) -> Json {
        if let Err(e) = json::rows_from_value(rows_value, &self.schema) {
            return json::error_envelope(format!("bad request: {e}"));
        }
        let last = self.shards.len() - 1;
        let frame = Json::Obj(vec![
            ("cmd".into(), Json::Str("append".into())),
            ("rows".into(), rows_value.clone()),
        ])
        .encode();
        let lines = match self.shards.rpc(last, &[frame], false, RpcKind::Append) {
            Ok(lines) => lines,
            Err(e) => return render_error(e),
        };
        let parsed = match Json::parse(&lines[0]) {
            Ok(value) => value,
            Err(e) => {
                return render_error(CoordError::shard(last, format!("unparseable reply: {e}")))
            }
        };
        let payload = match json::envelope_from_value(&parsed) {
            // The shard rejected the append (e.g. a storage failure):
            // its error envelope is forwarded verbatim, byte-identical
            // to the same failure on a single-node engine.
            Ok(Err(_)) => return parsed,
            Ok(Ok(payload)) => payload.clone(),
            Err(e) => {
                return render_error(CoordError::shard(last, format!("bad reply envelope: {e}")))
            }
        };
        let ack = match json::append_from_value(&payload) {
            Ok(ack) => ack,
            Err(e) => {
                return render_error(CoordError::shard(last, format!("bad append reply: {e}")))
            }
        };
        self.observe_shard(last, ack.generation, ack.total_rows);
        let st = self.state.read().expect("state poisoned");
        json::ok_envelope(json::append_to_value(&AppendOutcome {
            appended: ack.appended,
            generation: st.epoch(),
            total_rows: st.total_rows(),
        }))
    }

    /// Answers a stats frame: aggregates every shard's own stats
    /// payload under `"shards"` and adds the coordinator's counters.
    /// Also refreshes the pinned generation vector from the replies —
    /// the cheap way to re-pin after shard restarts.
    ///
    /// When served over TCP, `gauges` carries the server's liveness
    /// gauges and is appended as a trailing `"gauges"` object — batch
    /// contexts pass `None` and render byte-identically to before.
    pub fn stats(&self, gauges: Option<&Gauges>) -> Json {
        let results = self
            .shards
            .broadcast(&cmd_line("stats"), true, RpcKind::Control);
        let mut payloads = Vec::with_capacity(results.len());
        for (shard, result) in results.into_iter().enumerate() {
            let payload = match result.and_then(|lines| parse_ok(shard, &lines[0])) {
                Ok(payload) => payload,
                Err(e) => return render_error(e),
            };
            if let (Some(generation), Some(rows)) =
                (obj_u64(&payload, "generation"), obj_u64(&payload, "rows"))
            {
                self.observe_shard(shard, generation, rows);
            }
            payloads.push(payload);
        }
        let st = self.state.read().expect("state poisoned").clone();
        let (shard_rpcs, shard_retries, shard_errors) = self.shards.counters();
        let work = self.exec.stats();
        let num = |n: u64| Json::Num(Num::UInt(n));
        let mut fields = vec![
            ("generation".into(), num(st.epoch())),
            ("rows".into(), num(st.total_rows())),
            ("shard_rpcs".into(), num(shard_rpcs)),
            ("shard_retries".into(), num(shard_retries)),
            ("shard_errors".into(), num(shard_errors)),
            (
                "merged_nodes".into(),
                num(self.merged_nodes.load(Ordering::Relaxed)),
            ),
            ("bucketizations".into(), num(work.bucketizations)),
            ("bucket_cache_hits".into(), num(work.bucket_cache_hits)),
            ("scans".into(), num(work.scans)),
            ("scan_cache_hits".into(), num(work.scan_cache_hits)),
            ("shards".into(), Json::Arr(payloads)),
        ];
        if let Some(g) = gauges {
            fields.push(("gauges".into(), json::gauges_to_value(g)));
        }
        json::ok_envelope(Json::Obj(fields))
    }

    /// Answers a metrics frame: the coordinator's own scatter-gather
    /// latency profile — per-shard `values`/`count`/`append` RPC
    /// histograms plus central `merge` and `optimize` time — and, when
    /// served over TCP, the server section from `ctx`. No shard
    /// round trip: these are the coordinator's measurements of its own
    /// RPCs, not the shards' engine metrics (scrape each shard's
    /// `metrics` frame for those).
    pub fn metrics(&self, ctx: Option<&ExecuteCtx<'_>>) -> Json {
        let shards = self
            .shards
            .shard_metrics()
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("values".into(), json::histogram_to_value(&m.values)),
                    ("count".into(), json::histogram_to_value(&m.count)),
                    ("append".into(), json::histogram_to_value(&m.append)),
                ])
            })
            .collect();
        let coord = Json::Obj(vec![
            (
                "merge".into(),
                json::histogram_to_value(&self.merge.snapshot()),
            ),
            (
                "optimize".into(),
                json::histogram_to_value(&self.exec.optimize_metrics()),
            ),
            ("shards".into(), Json::Arr(shards)),
        ]);
        let mut doc = vec![("coord".into(), coord)];
        if let Some(ctx) = ctx {
            doc.push(("server".into(), json::server_metrics_to_value(ctx)));
        }
        json::ok_envelope(Json::Obj(doc))
    }

    /// Answers a flush frame: a durability barrier across **all**
    /// shards. Any shard failure fails the barrier with a structured
    /// shard error.
    pub fn flush(&self) -> Json {
        let results = self
            .shards
            .broadcast(&cmd_line("flush"), true, RpcKind::Flush);
        for (shard, result) in results.into_iter().enumerate() {
            if let Err(e) = result.and_then(|lines| parse_ok(shard, &lines[0])) {
                return render_error(e);
            }
        }
        let st = self.state.read().expect("state poisoned");
        json::ok_envelope(json::flush_to_value(st.epoch()))
    }

    /// Answers a schema frame from the coordinator's own (validated)
    /// view — no shard round trip.
    pub fn schema_frame(&self) -> Json {
        let st = self.state.read().expect("state poisoned");
        json::ok_envelope(json::schema_to_value(
            &self.schema,
            st.epoch(),
            st.total_rows(),
        ))
    }

    /// Propagates shutdown to every shard **in parallel**, tolerating
    /// shards that are already gone — one dead backend must not stall
    /// (or fail) the coordinator's own teardown.
    pub fn drain_shards(&self) {
        let _ = self
            .shards
            .broadcast(&cmd_line("shutdown"), true, RpcKind::Control);
    }
}

/// The coordinator behind the [`json::FrameHandler`] grammar — what a
/// TCP connection (or any other transport) drives.
struct CoordFrames<'a> {
    coord: &'a Coordinator,
    ctx: ExecuteCtx<'a>,
}

impl json::FrameHandler for CoordFrames<'_> {
    fn run_segment(&mut self, specs: &[QuerySpec]) -> Vec<Json> {
        let _permit = self.ctx.gate.acquire();
        self.coord.run_segment(specs, self.ctx.batch_threads)
    }

    fn control(&mut self, request: &Request) -> Json {
        let internal = |cmd: &str| {
            json::error_envelope(format!("bad request: {cmd:?} is a shard-internal frame"))
        };
        match request {
            Request::Spec(spec) => self.run_segment(std::slice::from_ref(spec)).remove(0),
            Request::Bad(msg) => json::error_envelope(msg.as_str()),
            Request::Stats => self.coord.stats(Some(&self.ctx.gauges)),
            Request::Metrics => self.coord.metrics(Some(&self.ctx)),
            Request::Shutdown => json::ok_envelope(Json::Str("shutdown".into())),
            Request::Flush => self.coord.flush(),
            Request::Append(rows) => self.coord.append(rows),
            Request::Schema => self.coord.schema_frame(),
            Request::Values(_) => internal("values"),
            Request::Count(_) => internal("count"),
            Request::Count2D(_) => internal("count2d"),
        }
    }
}

impl Service for Coordinator {
    fn execute(&self, requests: Vec<Request>, ctx: ExecuteCtx<'_>) -> (Vec<Json>, bool) {
        json::execute_frames(&mut CoordFrames { coord: self, ctx }, requests)
    }

    fn drain(&self) {
        self.drain_shards();
    }
}
