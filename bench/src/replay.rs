//! The in-process side: the answer oracle and the traced replay.
//!
//! Both build the engine exactly as `optrules serve` does —
//! `SharedEngine::with_cache(ChunkedRelation::new(FileRelation::open(..)))`,
//! or `DurableRelation::open` + `SharedEngine::from_arc_at` under
//! `--data-dir` — over the same files the server children serve.
//!
//! * The **oracle** runs a request through `SharedEngine::run_spec`
//!   and encodes the `RuleSet` with `ok_envelope`; the bytes must equal
//!   what the server process answered.
//! * The **traced replay** runs the same request through the public
//!   calls `run_spec` is made of, one span each, in pipeline order:
//!   `json::parse_request` → `plan::resolve` → sampling + cuts
//!   (Algorithm 3.1 steps 1–3) → `count_buckets` / `GridCounts::count`
//!   (step 4) → `plan::assemble` → `json` encode. Its answer must equal
//!   the oracle's, so the decomposition is checked, not assumed.
//!
//! Neither calls `Miner`, `Engine` or `json::execute_requests`.

use crate::trace::{self, Recorder, Span};
use optrules_bucketing::sampling::sample_with_replacement;
use optrules_bucketing::{
    count_buckets, count_buckets_parallel, cuts_from_sample, BucketCounts, BucketSpec, CountSpec,
};
use optrules_core::json::{self, Request};
use optrules_core::plan::{self, ResolvedQuery};
use optrules_core::shared::{attr_seed, BucketKey, GridKey, ScanKey};
use optrules_core::{CacheConfig, EngineConfig, GridCounts, Ratio, SharedEngine};
use optrules_relation::{
    AppendRows, ChunkedRelation, Condition, DurabilityConfig, DurableRelation, FileRelation,
    RandomAccess,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The session defaults every server child is started with
/// (`--buckets 1000 --min-support 5 --min-confidence 55 --seed 7`).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        buckets: 1000,
        min_support: Ratio::percent(5),
        min_confidence: Ratio::percent(55),
        seed: 7,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// `--cache-mb N` as `optrules serve` maps it (cells of 8 bytes).
pub fn cache_config(cache_mb: Option<u64>) -> CacheConfig {
    let mut config = CacheConfig::default();
    if let Some(mb) = cache_mb {
        config.max_cost = mb.saturating_mul(1 << 20) / 8;
    }
    config
}

pub type FileEngine = SharedEngine<ChunkedRelation<FileRelation>>;

pub fn open_file_engine(path: &Path, cache_mb: Option<u64>) -> Result<FileEngine, String> {
    let rel = FileRelation::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    Ok(SharedEngine::with_cache(
        ChunkedRelation::new(rel),
        engine_config(),
        cache_config(cache_mb),
    ))
}

pub fn open_durable_engine(
    base: &Path,
    dir: &Path,
    config: DurabilityConfig,
) -> Result<SharedEngine<DurableRelation>, String> {
    let recovered = DurableRelation::open(base, dir, config)
        .map_err(|e| format!("opening data dir {}: {e}", dir.display()))?;
    Ok(SharedEngine::from_arc_at(
        Arc::new(recovered.relation),
        recovered.generation,
        engine_config(),
        cache_config(None),
    ))
}

/// The oracle's answer to one request line: what a correct server must
/// have written back, byte for byte.
pub fn answer<R>(engine: &SharedEngine<R>, line: &str) -> String
where
    R: RandomAccess + AppendRows,
{
    let envelope = match json::parse_request(line) {
        Request::Spec(spec) => match engine.run_spec(&spec) {
            Ok(rules) => json::ok_envelope(json::rule_set_to_value(&rules)),
            Err(e) => json::error_envelope(e.to_string()),
        },
        Request::Append(rows) => match json::rows_from_value(&rows, engine.schema()) {
            Ok(rows) => match engine.append_rows(&rows) {
                Ok(outcome) => json::ok_envelope(json::append_to_value(&outcome)),
                Err(e) => json::error_envelope(e.to_string()),
            },
            Err(e) => json::error_envelope(format!("bad request: {e}")),
        },
        other => json::error_envelope(format!("the oracle does not answer {other:?}")),
    };
    envelope.encode()
}

/// The replay's own memo of count nodes, standing where the engine's
/// cache stands: keys are the engine's, so a generation bump misses
/// here exactly as it does there.
#[derive(Default)]
pub struct Pipeline {
    specs: HashMap<BucketKey, Arc<BucketSpec>>,
    counts: HashMap<ScanKey, Arc<BucketCounts>>,
    grids: HashMap<GridKey, Arc<GridCounts>>,
}

type Step<T> = Result<T, String>;

impl Pipeline {
    /// One request through the public pipeline calls, each under its
    /// own span, all under one `request` span. Returns the response
    /// line a server would write.
    pub fn run<R>(&mut self, rec: &mut Recorder, engine: &SharedEngine<R>, line: &str) -> String
    where
        R: RandomAccess + AppendRows,
    {
        rec.span("request", |rec| {
            let request = rec.span("json.parse_request", |_| json::parse_request(line));
            let outcome: Step<String> = match request {
                Request::Spec(spec) => {
                    let pinned = engine.pin();
                    let rel: &R = pinned.relation();
                    rec.span("plan.resolve", |_| {
                        plan::resolve(engine.schema(), engine.config(), pinned.generation(), &spec)
                    })
                    .map_err(|e| e.to_string())
                    .and_then(|resolved| {
                        let rules = if resolved.grid.is_some() {
                            let grid = self.grid(rec, &resolved, rel)?;
                            rec.span("plan.assemble_rect", |_| {
                                plan::assemble_rect(&resolved, &grid)
                            })
                        } else {
                            let counts = self.counts(rec, &resolved, rel)?;
                            rec.span("plan.assemble", |_| plan::assemble(&resolved, &counts))
                        }
                        .map_err(|e| e.to_string())?;
                        Ok(rec.span("json.encode_response", |_| {
                            json::ok_envelope(json::rule_set_to_value(&rules)).encode()
                        }))
                    })
                }
                Request::Append(rows) => rec
                    .span("json.rows_from_value", |_| {
                        json::rows_from_value(&rows, engine.schema())
                    })
                    .map_err(|e| format!("bad request: {e}"))
                    .and_then(|rows| {
                        let outcome = rec
                            .span("shared.append_rows", |_| engine.append_rows(&rows))
                            .map_err(|e| e.to_string())?;
                        Ok(rec.span("json.encode_response", |_| {
                            json::ok_envelope(json::append_to_value(&outcome)).encode()
                        }))
                    }),
                other => Err(format!("the replay does not answer {other:?}")),
            };
            outcome.unwrap_or_else(|msg| json::error_envelope(msg).encode())
        })
    }

    /// Algorithm 3.1 steps 1–3, as `SharedEngine` runs them:
    /// with-replacement sampling seeded by `attr_seed`, then sort + cut.
    fn spec_for<R: RandomAccess>(
        &mut self,
        rec: &mut Recorder,
        key: BucketKey,
        rel: &R,
    ) -> Step<Arc<BucketSpec>> {
        if let Some(spec) = self.specs.get(&key) {
            return Ok(Arc::clone(spec));
        }
        let spec = rec.span("bucketing.equidepth.cuts", |rec| {
            let size = key.samples_per_bucket * key.buckets as u64;
            let seed = attr_seed(key.seed, key.attr);
            let mut sample = rec
                .span("bucketing.sampling.fetch", |_| {
                    sample_with_replacement(rel, key.attr, size, seed)
                })
                .map_err(|e| e.to_string())?;
            rec.span("bucketing.boundaries.sort_cut", |_| {
                cuts_from_sample(&mut sample, key.buckets)
            })
            .map_err(|e| e.to_string())
        })?;
        let spec = Arc::new(spec);
        self.specs.insert(key, Arc::clone(&spec));
        Ok(spec)
    }

    /// Algorithm 3.1 step 4 plus the compaction the engine caches.
    fn counts<R: RandomAccess>(
        &mut self,
        rec: &mut Recorder,
        resolved: &ResolvedQuery,
        rel: &R,
    ) -> Step<Arc<BucketCounts>> {
        let key = resolved.scan_key();
        if let Some(counts) = self.counts.get(&key) {
            return Ok(Arc::clone(counts));
        }
        let spec = self.spec_for(rec, resolved.key, rel)?;
        let what = resolved.count_spec.clone().unwrap_or_else(|| CountSpec {
            attr: resolved.key.attr,
            presumptive: Condition::True,
            bool_targets: rel
                .schema()
                .boolean_attrs()
                .map(|b| Condition::BoolIs(b, true))
                .collect(),
            sum_targets: Vec::new(),
        });
        let raw = rec
            .span("bucketing.count_buckets", |_| {
                if resolved.threads > 1 {
                    count_buckets_parallel(rel, &spec, &what, resolved.threads)
                } else {
                    count_buckets(rel, &spec, &what)
                }
            })
            .map_err(|e| e.to_string())?;
        let counts = Arc::new(rec.span("bucketing.compact", |_| raw.compact().1));
        self.counts.insert(key, Arc::clone(&counts));
        Ok(counts)
    }

    /// The §1.4 grid: both axis bucketizations, then one grid scan.
    fn grid<R: RandomAccess>(
        &mut self,
        rec: &mut Recorder,
        resolved: &ResolvedQuery,
        rel: &R,
    ) -> Step<Arc<GridCounts>> {
        let part = resolved
            .grid
            .as_ref()
            .expect("caller checked the grid part");
        let key = resolved.grid_key().expect("grid part implies grid key");
        if let Some(grid) = self.grids.get(&key) {
            return Ok(Arc::clone(grid));
        }
        let x_spec = self.spec_for(rec, key.x, rel)?;
        let y_spec = self.spec_for(rec, key.y, rel)?;
        let grid = rec
            .span("region2d.grid_count", |_| {
                GridCounts::count(
                    rel,
                    key.x.attr,
                    key.y.attr,
                    &x_spec,
                    &y_spec,
                    &part.presumptive,
                    &part.objective,
                )
            })
            .map_err(|e| e.to_string())?;
        let grid = Arc::new(grid);
        self.grids.insert(key, Arc::clone(&grid));
        Ok(grid)
    }
}

/// The layer groups of the self-time table, as the metrics that carry
/// them.
pub const GROUP_METRICS: [&str; 7] = [
    "trace.self.json_ms",
    "trace.self.plan_ms",
    "trace.self.bucketize_ms",
    "trace.self.scan_ms",
    "trace.self.optimize_ms",
    "trace.self.append_ms",
    "trace.self.glue_ms",
];

/// Index into [`GROUP_METRICS`] of the group a span name belongs to.
fn group_of(name: &str) -> usize {
    match name {
        "json.parse_request" | "json.encode_response" | "json.rows_from_value" => 0,
        "plan.resolve" => 1,
        "bucketing.equidepth.cuts"
        | "bucketing.sampling.fetch"
        | "bucketing.boundaries.sort_cut" => 2,
        "bucketing.count_buckets" | "bucketing.compact" | "region2d.grid_count" => 3,
        "plan.assemble" | "plan.assemble_rect" => 4,
        "shared.append_rows" => 5,
        _ => 6,
    }
}

/// One request of the replay: self time by group, and its `request`
/// span's duration.
type RequestRow = ([u64; 7], u64);

/// Index of the append group.
const APPEND: usize = 5;

/// What the spans of one replay add up to. Requests that appended are
/// kept apart from requests that queried: every median but the append
/// group's is over the querying requests only.
pub struct Breakdown {
    /// Querying requests replayed.
    pub requests: usize,
    /// Median request span duration.
    pub request_p50_ns: u64,
    /// Median over requests of each group's summed self time.
    pub group_p50_ns: [u64; 7],
    /// Median over requests of everything but the replay's own glue:
    /// the layer time a server spends on the blocking path.
    pub layers_p50_ns: u64,
    /// Median over requests of bucketize + scan self time.
    pub data_pass_p50_ns: u64,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let own = trace::self_times(spans);
    // Per request: self time by group, and the root span's duration.
    let mut per_request: HashMap<usize, RequestRow> = HashMap::new();
    for span in spans {
        let entry = per_request.entry(span.request).or_insert(([0; 7], 0));
        entry.0[group_of(span.name)] += own[span.id];
        if span.parent.is_none() {
            entry.1 = span.dur_ns();
        }
    }
    let (appends, queries): (Vec<_>, Vec<_>) = per_request
        .into_values()
        .partition(|(groups, _)| groups[APPEND] > 0);
    let med = |f: &dyn Fn(&RequestRow) -> u64| {
        trace::median(&mut queries.iter().map(f).collect::<Vec<_>>())
    };
    let mut group_p50_ns = [0; 7];
    for (g, slot) in group_p50_ns.iter_mut().enumerate() {
        *slot = med(&|(groups, _)| groups[g]);
    }
    group_p50_ns[APPEND] = trace::median(
        &mut appends
            .iter()
            .map(|(groups, _)| groups[APPEND])
            .collect::<Vec<_>>(),
    );
    Breakdown {
        requests: queries.len(),
        request_p50_ns: med(&|(_, dur)| *dur),
        group_p50_ns,
        layers_p50_ns: med(&|(groups, _)| groups[..6].iter().sum()),
        data_pass_p50_ns: med(&|(groups, _)| groups[2] + groups[3]),
    }
}

/// Median duration of the spans whose name starts with `prefix` (zero
/// if there are none): `plan.assemble` covers the 1-D and the
/// rectangle assembly alike.
pub fn span_p50_ns(spans: &[Span], prefix: &str) -> u64 {
    let mut durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(Span::dur_ns)
        .collect();
    trace::median(&mut durs)
}

/// `SharedEngine::run_spec` timed as a black box over `lines`, split
/// by whether the call led a scan (cold) or was served from the cache
/// (warm). Returns `(answers, cold ns, warm ns)`.
pub fn timed_answers<R>(
    engine: &SharedEngine<R>,
    lines: &[&str],
) -> (Vec<String>, Vec<u64>, Vec<u64>)
where
    R: RandomAccess + AppendRows,
{
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let answers = lines
        .iter()
        .map(|line| {
            let scans_before = engine.stats().scans;
            let start = Instant::now();
            let reply = answer(engine, line);
            let ns = start.elapsed().as_nanos() as u64;
            if line.starts_with("{\"cmd\"") {
                // Appends are priced by their own span.
            } else if engine.stats().scans > scans_before {
                cold.push(ns);
            } else {
                warm.push(ns);
            }
            reply
        })
        .collect();
    (answers, cold, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Stream;
    use optrules_relation::gen::{BankGenerator, DataGenerator};

    fn engine() -> SharedEngine<ChunkedRelation<optrules_relation::Relation>> {
        let rel = BankGenerator::default().to_relation(20_000, 7);
        let config = EngineConfig {
            buckets: 200,
            ..engine_config()
        };
        SharedEngine::with_config(ChunkedRelation::new(rel), config)
    }

    /// The decomposed pipeline answers exactly what `run_spec` answers,
    /// for every request kind the workloads send, appends included.
    #[test]
    fn pipeline_and_oracle_agree_byte_for_byte() {
        let (oracle, replayed) = (engine(), engine());
        let mut pipeline = Pipeline::default();
        let mut rec = Recorder::new(true);
        let cold = Stream::new("cold_scan", 4);
        let live = Stream::new("append_requery", 4);
        let rect = Stream::new("rect2d", 4);
        let mut lines: Vec<String> = (0..20).map(|i| cold.op(0, i).line.into_owned()).collect();
        lines.extend((0..6).map(|i| live.op(0, i).line.into_owned()));
        lines.extend(rect.pool().iter().take(3).cloned());
        for (i, line) in lines.iter().enumerate() {
            rec.set_request(i);
            let expected = answer(&oracle, line);
            assert!(expected.starts_with("{\"ok\":{"), "{line} → {expected}");
            assert_eq!(pipeline.run(&mut rec, &replayed, line), expected, "{line}");
        }
        assert_eq!(oracle.generation(), 3);

        let b = breakdown(&rec.spans);
        assert_eq!(b.requests, lines.len() - 3, "three of the lines append");
        assert!(b.group_p50_ns[5] > 0);
        assert!(b.layers_p50_ns > 0 && b.layers_p50_ns <= b.request_p50_ns);
        // Most requests are cold scans: the data pass dominates them.
        assert!(b.data_pass_p50_ns * 2 > b.layers_p50_ns);
        assert!(span_p50_ns(&rec.spans, "plan.resolve") > 0);
        assert_eq!(span_p50_ns(&rec.spans, "no.such.span"), 0);
    }

    #[test]
    fn a_repeated_spec_is_warm_in_both_the_engine_and_the_replay() {
        let engine = engine();
        let stream = Stream::new("warm_serve", 2);
        let line = stream.pool()[0].as_str();
        let (answers, cold, warm) = timed_answers(&engine, &[line, line, line]);
        assert_eq!((cold.len(), warm.len()), (1, 2));
        assert!(answers.windows(2).all(|w| w[0] == w[1]));

        let mut pipeline = Pipeline::default();
        let mut rec = Recorder::new(true);
        for i in 0..2 {
            rec.set_request(i);
            assert_eq!(pipeline.run(&mut rec, &engine, line), answers[0]);
        }
        let scans = rec
            .spans
            .iter()
            .filter(|s| s.name == "bucketing.count_buckets")
            .count();
        assert_eq!(scans, 1, "the second run reads the memo");
    }

    #[test]
    fn malformed_and_unsupported_lines_become_error_envelopes() {
        let engine = engine();
        let mut rec = Recorder::new(false);
        let mut pipeline = Pipeline::default();
        for line in [
            "not json",
            "{\"cmd\":\"stats\"}",
            "{\"attr\":\"Nope\",\"objective\":{\"bool\":\"CardLoan\"}}",
        ] {
            assert!(answer(&engine, line).starts_with("{\"error\":"), "{line}");
            assert!(
                pipeline
                    .run(&mut rec, &engine, line)
                    .starts_with("{\"error\":"),
                "{line}"
            );
        }
    }
}
