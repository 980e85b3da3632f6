//! One run of one workload: generate data, bring the real server
//! children up (several times, for `setup_s`), drive the measured
//! window, scrape, probe, check every answer against the in-process
//! oracle, and — in a traced run — replay the stream through the
//! public pipeline calls under spans and time each layer on its own.

use crate::loadgen::{self, Conn, ConnLog, Window};
use crate::micro;
use crate::procs::{self, Server};
use crate::registry::{END_TO_END, PER_LAYER};
use crate::replay::{self, Pipeline};
use crate::scrape::{self, ratio, Delta, Snapshot};
use crate::stream::{Op, OpKind, Stream, COLD_CYCLE, FRAME_ROWS};
use crate::trace::{self, Recorder, Span};
use optrules_coord::{CoordConfig, Coordinator};
use optrules_core::json::{self, Request};
use optrules_core::SharedEngine;
use optrules_relation::{AppendRows, DurabilityConfig, RandomAccess, WalSync};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where the binary under test and the scratch space are.
pub struct Env {
    /// The built `optrules` binary.
    pub optrules: PathBuf,
    /// `bench/out`: run directories, `trace-<workload>.json`, ledger files.
    pub out: PathBuf,
}

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Wiring check: one set-up, no minimum sample count.
    pub smoke: bool,
}

/// What a run found. `metrics` holds every end-to-end metric (untraced
/// run) or every per-layer metric (traced run), in registry order.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Failure messages and violated workload conditions.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// Flags every server child gets (the coordinator's plan the same
/// session defaults, so answers stay byte-identical to one node).
const SESSION_FLAGS: [&str; 8] = [
    "--buckets",
    "1000",
    "--min-support",
    "5",
    "--min-confidence",
    "55",
    "--seed",
    "7",
];
const SPILL_ROWS: u64 = 8192;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Spec samples the window must collect so p90 has ten beyond it.
const MIN_SAMPLES: usize = 110;
/// Frames of the post-window append probe.
const PROBE_FRAMES: usize = 300;
/// Laps of the pool replayed under spans (960 `warm_serve` requests,
/// 288 `rect2d` ones — a second and a half of sweeps).
const TRACED_LAPS: usize = 4;
/// Cold requests checked by the oracle and replayed under spans: one
/// full kind rotation, so their mix is the window's.
const CHECKED_COLD: usize = COLD_CYCLE;
/// Requests replayed against the single-node reference for
/// `coord.cold_overhead_ratio`.
const REFERENCE_REQUESTS: usize = 3 * COLD_CYCLE;

struct Shape {
    rows: u64,
    cache_mb: Option<u64>,
    durable: bool,
    /// Two shards behind a coordinator, all three confined to one CPU:
    /// left alone, the scheduler puts the two shards' workers on one
    /// core or on two when they first run and keeps them there, so
    /// their scans run one after the other or side by side — two
    /// regimes 20 ms apart that last a coordinator's whole life and
    /// flip between runs. Side by side, the coordinator's readers also
    /// compete with the scans and one request in five waits for a
    /// second delayed-ACK timer. On one core there is one regime.
    coord: bool,
}

fn shape(workload: &str) -> Shape {
    let plain = Shape {
        rows: 200_000,
        cache_mb: None,
        durable: false,
        coord: false,
    };
    match workload {
        "warm_serve" => Shape {
            rows: 1_000_000,
            ..plain
        },
        "cold_scan" => Shape {
            rows: 1_000_000,
            cache_mb: Some(1),
            ..plain
        },
        "append_requery" => Shape {
            durable: true,
            ..plain
        },
        "rect2d" => plain,
        "coord_cold" => Shape {
            cache_mb: Some(1),
            coord: true,
            ..plain
        },
        other => panic!("no shape for workload {other:?}"),
    }
}

struct Files {
    run_dir: PathBuf,
    base: PathBuf,
    shards: Vec<PathBuf>,
}

fn optrules(env: &Env, args: &[String]) -> Result<(), String> {
    let output = Command::new(&env.optrules)
        .args(args)
        .output()
        .map_err(|e| format!("running {}: {e}", env.optrules.display()))?;
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "optrules {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// `optrules gen bank` for the base file, `optrules slice` for shards.
fn prepare(env: &Env, shape: &Shape, workload: &str) -> Result<Files, String> {
    let run_dir = env
        .out
        .join(format!("run-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let base = run_dir.join("base.rel");
    optrules(
        env,
        &[
            "gen".into(),
            "bank".into(),
            path_arg(&base),
            "--rows".into(),
            shape.rows.to_string(),
            "--seed".into(),
            micro::DATA_SEED.to_string(),
        ],
    )?;
    let mut shards = Vec::new();
    if shape.coord {
        let half = shape.rows / 2;
        for (i, (start, end)) in [(0, half), (half, shape.rows)].into_iter().enumerate() {
            let path = run_dir.join(format!("shard{i}.rel"));
            optrules(
                env,
                &[
                    "slice".into(),
                    path_arg(&base),
                    path_arg(&path),
                    "--start".into(),
                    start.to_string(),
                    "--end".into(),
                    end.to_string(),
                ],
            )?;
            shards.push(path);
        }
    }
    Ok(Files {
        run_dir,
        base,
        shards,
    })
}

/// The server children of one set-up; clients talk to `front`.
struct Topology {
    front: Server,
    shards: Vec<Server>,
    /// Arguments `front` was started with, for the restart after SIGKILL.
    front_args: Vec<String>,
}

impl Topology {
    fn pids(&self) -> Vec<u32> {
        std::iter::once(&self.front)
            .chain(&self.shards)
            .map(Server::pid)
            .collect()
    }

    /// Graceful stop; a coordinator's shutdown drains its shards.
    fn shutdown(self) -> Result<(), String> {
        self.front.shutdown()?;
        self.shards.into_iter().try_for_each(Server::wait_stopped)
    }
}

fn cache_flags(shape: &Shape) -> Vec<String> {
    shape
        .cache_mb
        .map(|mb| vec!["--cache-mb".to_string(), mb.to_string()])
        .unwrap_or_default()
}

fn serve_args(file: &Path, workers: &str, extra: Vec<String>) -> Vec<String> {
    let mut args = vec![
        "serve".to_string(),
        path_arg(file),
        "--workers".into(),
        workers.into(),
    ];
    args.extend(extra);
    args.extend(SESSION_FLAGS.iter().map(|s| s.to_string()));
    args
}

/// What one run works with, bundled so its phases can share it.
#[derive(Clone, Copy)]
struct Bench<'a> {
    env: &'a Env,
    shape: &'a Shape,
    files: &'a Files,
    stream: &'a Stream,
    /// The one CPU every server child is confined to, if the workload
    /// pins (see `Shape::coord`).
    pin: Option<usize>,
}

impl Bench<'_> {
    /// Spawns the binary under test; its stderr lands in the run directory.
    fn spawn(&self, label: &str, args: &[String]) -> Result<Server, String> {
        Server::spawn(
            &self.env.optrules,
            args,
            label,
            &self.files.run_dir,
            self.pin,
        )
    }
}

fn spawn_topology(bench: Bench<'_>, attempt: usize) -> Result<Topology, String> {
    let Bench { shape, files, .. } = bench;
    if shape.coord {
        // Shards get spare workers: each parks one on the coordinator's
        // pooled connection, and the traced run dials them as well.
        let mut shards = Vec::new();
        for (i, file) in files.shards.iter().enumerate() {
            let args = serve_args(file, "4", Vec::new());
            shards.push(bench.spawn(&format!("shard{i}-{attempt}"), &args)?);
        }
        let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
        let mut front_args = vec![
            "coord".to_string(),
            "--shards".into(),
            addrs.join(","),
            "--workers".into(),
            "2".into(),
        ];
        front_args.extend(cache_flags(shape));
        front_args.extend(SESSION_FLAGS.iter().map(|s| s.to_string()));
        let front = bench.spawn(&format!("coord-{attempt}"), &front_args)?;
        return Ok(Topology {
            front,
            shards,
            front_args,
        });
    }
    let mut extra = cache_flags(shape);
    if shape.durable {
        extra.extend([
            "--data-dir".to_string(),
            path_arg(&data_dir(files, attempt)),
            "--wal-sync".into(),
            "always".into(),
            "--spill-rows".into(),
            SPILL_ROWS.to_string(),
        ]);
    }
    let front_args = serve_args(&files.base, "2", extra);
    let front = bench.spawn(&format!("serve-{attempt}"), &front_args)?;
    Ok(Topology {
        front,
        shards: Vec::new(),
        front_args,
    })
}

fn data_dir(files: &Files, attempt: usize) -> PathBuf {
    files.run_dir.join(format!("data-{attempt}"))
}

/// Replies to the warm-up, in operation order, and the rows the server
/// holds afterwards.
struct Warm {
    replies: Vec<String>,
    rows: u64,
}

/// Sends the warm-up, round-robin over the workload's connections,
/// depth 1 on each. Any bad reply fails the set-up: a window over a
/// server that did not warm up measures nothing.
fn warm_up(addr: &str, stream: &Stream, rows_before: u64) -> Result<Warm, String> {
    let ops = stream.warmup();
    let conns = stream.connections;
    let parts: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let ops = &ops;
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn =
                        Conn::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
                    let mut out = Vec::new();
                    for (i, op) in ops.iter().enumerate().filter(|(i, _)| i % conns == c) {
                        let (_, reply) = conn
                            .roundtrip(&op.line)
                            .map_err(|e| format!("warm-up op {i}: {e}"))?;
                        out.push((i, reply.to_string()));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect()
    });
    let mut replies = vec![String::new(); ops.len()];
    for part in parts {
        for (i, reply) in part? {
            replies[i] = reply;
        }
    }
    let mut rows = rows_before;
    for (op, reply) in ops.iter().zip(&replies) {
        match op.kind {
            OpKind::Spec(_) if reply.starts_with("{\"ok\":{") => {}
            OpKind::Append => {
                rows += FRAME_ROWS;
                if loadgen::acked_rows(reply) != Some(rows) {
                    return Err(format!(
                        "warm-up append acked {reply}, expected rows={rows}"
                    ));
                }
            }
            OpKind::Spec(_) => return Err(format!("warm-up spec {} answered {reply}", op.line)),
        }
    }
    Ok(Warm { replies, rows })
}

fn scrape_front(addr: &str) -> Result<Snapshot, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    Snapshot::take(&mut conn)
}

fn sum(pids: &[u32], read: impl Fn(u32) -> Result<u64, String>) -> Result<u64, String> {
    pids.iter().try_fold(0, |acc, pid| Ok(acc + read(*pid)?))
}

fn sorted_merge(logs: &[ConnLog], pick: impl Fn(&ConnLog) -> &[u64]) -> Vec<u64> {
    let mut all: Vec<u64> = logs
        .iter()
        .flat_map(|log| pick(log).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// The `pct`-th percentile in milliseconds; in a smoke run, the highest
/// percentile the short sample supports, else its maximum.
fn pick(sorted: &[u64], pct: f64, what: &str, smoke: bool) -> Result<f64, String> {
    let value = match loadgen::percentile(sorted, pct) {
        Some(v) => v,
        None if smoke && !sorted.is_empty() => {
            loadgen::tail(sorted).map_or(sorted[sorted.len() - 1], |(_, v)| v)
        }
        None => {
            return Err(format!(
                "{what}: {} samples cannot support p{pct} with ten beyond it",
                sorted.len()
            ))
        }
    };
    Ok(value as f64 / 1e6)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Set-up, several times over: first child spawned → last warm-up
/// reply. Every server but the last is shut down again; the last one
/// is the one the window measures. Returns it with its warm-up replies
/// and every set-up's duration.
fn set_up(bench: Bench<'_>, setups: usize) -> Result<(Topology, Warm, Vec<u64>), String> {
    let mut times = Vec::new();
    for attempt in 0..setups {
        let start = Instant::now();
        let topo = spawn_topology(bench, attempt)?;
        let warm = warm_up(&topo.front.addr, bench.stream, bench.shape.rows)?;
        times.push(start.elapsed().as_nanos() as u64);
        if attempt + 1 == setups {
            return Ok((topo, warm, times));
        }
        topo.shutdown()?;
    }
    unreachable!("a run sets up at least once")
}

/// The window as the client and `/proc` saw it, between two scrapes.
struct Measured {
    logs: Vec<ConnLog>,
    before: Snapshot,
    after: Snapshot,
    cpu_ticks: u64,
    rss_kb: u64,
}

fn measure(topo: &Topology, window: &Window<'_>) -> Result<Measured, String> {
    let pids = topo.pids();
    let before = scrape_front(window.addr)?;
    let cpu_before = sum(&pids, procs::cpu_ticks)?;
    let logs = loadgen::run_window(window)?;
    let cpu_ticks = sum(&pids, procs::cpu_ticks)? - cpu_before;
    let rss_kb = sum(&pids, procs::vm_hwm_kb)?;
    let after = scrape_front(window.addr)?;
    Ok(Measured {
        logs,
        before,
        after,
        cpu_ticks,
        rss_kb,
    })
}

type Layers = BTreeMap<&'static str, f64>;

/// `coord_cold`, traced: the same stream against one node over the
/// unsliced file (for `coord.cold_overhead_ratio`), then an in-process
/// `Coordinator` over the live shard children, its answers checked
/// against the single-node oracle.
fn coord_probes(
    bench: Bench<'_>,
    topo: &Topology,
    lat_p50_ms: f64,
    log: &mut ConnLog,
    layers: &mut Layers,
) -> Result<(), String> {
    let Bench {
        shape,
        files,
        stream,
        ..
    } = bench;
    let reference = bench.spawn(
        "reference",
        &serve_args(&files.base, "2", cache_flags(shape)),
    )?;
    let mut conn = Conn::connect(&reference.addr).map_err(|e| format!("reference connect: {e}"))?;
    let mut ns = Vec::new();
    for i in 0..REFERENCE_REQUESTS {
        let (rtt, reply) = conn
            .roundtrip(&stream.op(0, i).line)
            .map_err(|e| format!("reference op {i}: {e}"))?;
        let ns_taken = rtt.as_nanos() as u64;
        log.check(reply.starts_with("{\"ok\":{"), || {
            format!("reference op {i}: {reply}")
        });
        ns.push(ns_taken);
    }
    drop(conn);
    reference.shutdown()?;
    layers.insert(
        "coord.cold_overhead_ratio",
        ratio(lat_p50_ms, ms(trace::median(&mut ns))),
    );

    let shard_addrs: Vec<String> = topo.shards.iter().map(|s| s.addr.clone()).collect();
    let coordinator = Coordinator::connect(
        &shard_addrs,
        replay::engine_config(),
        replay::cache_config(shape.cache_mb),
        CoordConfig::default(),
    )
    .map_err(|e| format!("in-process coordinator: {e}"))?;
    let oracle = replay::open_file_engine(&files.base, shape.cache_mb)?;
    let mut segment_ns = Vec::new();
    for j in 0..CHECKED_COLD {
        let line = stream.spare_cold(j).expect("coord_cold is a cold stream");
        let Request::Spec(spec) = json::parse_request(&line) else {
            unreachable!("a spare cold request is a spec")
        };
        let start = Instant::now();
        let replies = coordinator.run_segment(std::slice::from_ref(&*spec), 1);
        segment_ns.push(start.elapsed().as_nanos() as u64);
        log.check(
            replies[0].encode() == replay::answer(&oracle, &line),
            || format!("in-process coordinator diverged on {line}"),
        );
    }
    layers.insert(
        "coord.run_segment_cold_ms",
        ms(trace::median(&mut segment_ns)),
    );
    Ok(())
}

/// After the window on a durable server: flush, remember the dashboard
/// answer, SIGKILL, restart on the same data directory, and require the
/// last acked row count and the same answer back. Returns the restarted
/// topology. (The sandbox's page cache survives SIGKILL: this checks
/// the recovery logic, not power loss.)
fn durability_check(
    bench: Bench<'_>,
    topo: Topology,
    dir: &Path,
    rows_acked: u64,
    log: &mut ConnLog,
    layers: &mut Layers,
) -> Result<Topology, String> {
    let Bench { shape, stream, .. } = bench;
    let dashboard = stream.op(0, 1).line.into_owned();
    let mut conn =
        Conn::connect(&topo.front.addr).map_err(|e| format!("durability connect: {e}"))?;
    let flushed = conn
        .roundtrip("{\"cmd\":\"flush\"}")
        .map_err(|e| format!("flush: {e}"))?
        .1
        .to_string();
    log.check(flushed.starts_with("{\"ok\":{\"flushed\":true"), || {
        format!("flush answered {flushed}")
    });
    let before = conn
        .roundtrip(&dashboard)
        .map_err(|e| format!("pre-kill requery: {e}"))?
        .1
        .to_string();
    drop(conn);
    layers.insert(
        "relation.durable.disk_bytes_per_row",
        ratio(
            procs::dir_bytes(dir)? as f64,
            (rows_acked - shape.rows) as f64,
        ),
    );

    let Topology {
        front,
        shards,
        front_args,
    } = topo;
    front.kill9();
    let front = bench.spawn("serve-recovered", &front_args)?;
    layers.insert(
        "relation.durable.recover_ms",
        front.listen_time.as_secs_f64() * 1e3,
    );
    let mut conn = Conn::connect(&front.addr).map_err(|e| format!("post-recovery connect: {e}"))?;
    let rows = scrape::num(&scrape::control(&mut conn, "stats")?, &["rows"]) as u64;
    log.check(rows == rows_acked, || {
        format!("recovered {rows} rows, the last ack said {rows_acked}")
    });
    let after = conn
        .roundtrip(&dashboard)
        .map_err(|e| format!("post-recovery requery: {e}"))?
        .1
        .to_string();
    log.check(after == before, || {
        format!("dashboard changed across SIGKILL: {before} → {after}")
    });
    Ok(Topology {
        front,
        shards,
        front_args,
    })
}

/// What the in-process side is asked to verify and replay.
struct Script {
    /// `(request line, the server's reply)`, in order: the oracle must
    /// reproduce every reply byte for byte.
    pairs: Vec<(String, String)>,
    /// Lines that are cache hits once `pairs` ran (for the warm
    /// `run_spec` timing).
    warm: Vec<String>,
    /// Lines run untraced before the traced replay, to fill its memo.
    prewarm: Vec<String>,
    /// `(line, expected answer)` replayed under spans.
    traced: Vec<(String, String)>,
}

/// What the window's replies become for the in-process side.
fn script(
    shape: &Shape,
    stream: &Stream,
    warm: &Warm,
    kept: &[(String, String)],
    trace: bool,
) -> Script {
    if shape.durable {
        // Appends change every later answer: replay the exact operation
        // sequence — warm-up, then the window's first cycles.
        let ops = warm.replies.len() + 2 * kept.len();
        let mut kept_replies = kept.iter().map(|(_, reply)| reply.clone());
        let mut rows = shape.rows;
        let pairs: Vec<(String, String)> = (0..ops)
            .map(|i| {
                let op = stream.op(0, i);
                if op.kind == OpKind::Append {
                    rows += FRAME_ROWS;
                }
                let reply = match (warm.replies.get(i), op.kind) {
                    (Some(reply), _) => reply.clone(),
                    // The window checked the ack's row count; the
                    // generation moves by one per append.
                    (None, OpKind::Append) => format!(
                        "{{\"ok\":{{\"appended\":{FRAME_ROWS},\"generation\":{},\"rows\":{rows}}}}}",
                        (rows - shape.rows) / FRAME_ROWS
                    ),
                    (None, OpKind::Spec(_)) => kept_replies.next().expect("one kept reply per replayed cycle"),
                };
                (op.line.into_owned(), reply)
            })
            .collect();
        let dashboard = stream.op(0, 1).line.into_owned();
        return Script {
            traced: pairs.clone(),
            pairs,
            warm: vec![dashboard],
            prewarm: Vec::new(),
        };
    }
    if stream.pool().is_empty() {
        // Cold: the window's first full kind rotation, recomputed. Its
        // last entries are still cached afterwards.
        let warm = kept
            .iter()
            .rev()
            .take(2)
            .map(|(line, _)| line.clone())
            .collect();
        return Script {
            pairs: kept.to_vec(),
            warm,
            prewarm: Vec::new(),
            traced: kept.to_vec(),
        };
    }
    // Pooled: the server's first answer of every pool slot, then laps
    // of connection 0's order under spans.
    let pool = stream.pool();
    let pairs: Vec<(String, String)> = pool
        .iter()
        .cloned()
        .zip(warm.replies.iter().cloned())
        .collect();
    let laps = if trace { TRACED_LAPS * pool.len() } else { 0 };
    let traced: Vec<(String, String)> = (0..laps)
        .map(|i| match stream.op(0, i) {
            Op {
                line,
                kind: OpKind::Spec(Some(slot)),
            } => (line.into_owned(), warm.replies[slot].clone()),
            _ => unreachable!("a pooled stream yields pool slots"),
        })
        .collect();
    let warm = traced.iter().map(|(line, _)| line.clone()).collect();
    Script {
        pairs,
        warm,
        prewarm: pool.to_vec(),
        traced,
    }
}

/// What the in-process side found.
#[derive(Default)]
struct Verified {
    checked: usize,
    /// `SharedEngine::run_spec` durations that led a scan / hit the cache.
    cold_ns: Vec<u64>,
    warm_ns: Vec<u64>,
    spans: Vec<Span>,
    trace_overhead_pct: f64,
}

/// Runs the script: the oracle over every pair, and — traced — the
/// span pipeline with tracing on, then off to price the spans. `open`
/// yields a fresh engine over the workload's files per role (the
/// durable store needs a data directory per engine; for file engines
/// the three are interchangeable).
fn verify<R>(
    open: impl Fn(&str) -> Result<SharedEngine<R>, String>,
    script: &Script,
    trace: bool,
    log: &mut ConnLog,
) -> Result<Verified, String>
where
    R: RandomAccess + AppendRows,
{
    // The operations were attempted in the window: a mismatch only fails one.
    let mut mismatch = |what: &str, line: &str, got: &str, want: &str| {
        log.fail(format!(
            "{what} diverged on {line}: server {want} vs in-process {got}"
        ));
    };
    let oracle = open("oracle")?;
    let lines: Vec<&str> = script.pairs.iter().map(|(line, _)| line.as_str()).collect();
    let (answers, cold_ns, _) = replay::timed_answers(&oracle, &lines);
    for ((line, reply), answer) in script.pairs.iter().zip(&answers) {
        if reply != answer {
            mismatch("oracle", line, answer, reply);
        }
    }
    let mut found = Verified {
        checked: script.pairs.len(),
        cold_ns,
        ..Verified::default()
    };
    if !trace {
        return Ok(found);
    }
    let warm: Vec<&str> = script.warm.iter().map(String::as_str).collect();
    found.warm_ns = replay::timed_answers(&oracle, &warm).2;

    let replay = |engine: &SharedEngine<R>, enabled: bool| {
        let mut pipeline = Pipeline::default();
        let mut quiet = Recorder::new(false);
        for line in &script.prewarm {
            pipeline.run(&mut quiet, engine, line);
        }
        let mut rec = Recorder::new(enabled);
        let start = Instant::now();
        let answers: Vec<String> = script
            .traced
            .iter()
            .enumerate()
            .map(|(i, (line, _))| {
                rec.set_request(i);
                pipeline.run(&mut rec, engine, line)
            })
            .collect();
        (start.elapsed().as_secs_f64(), answers, rec.spans)
    };
    let (on, answers, spans) = replay(&open("trace-on")?, true);
    for ((line, expected), answer) in script.traced.iter().zip(&answers) {
        if expected != answer {
            mismatch("traced pipeline", line, answer, expected);
        }
    }
    let (off, _, _) = replay(&open("trace-off")?, false);
    found.spans = spans;
    found.trace_overhead_pct = 100.0 * (on - off) / off;
    Ok(found)
}

pub fn run(env: &Env, opts: &Options) -> Result<Outcome, String> {
    let shape = shape(&opts.workload);
    let stream = Stream::new(&opts.workload, opts.seed);
    let files = prepare(env, &shape, &opts.workload)?;
    let pin = match shape.coord {
        true => procs::allowed_cpus()?.last().copied(),
        false => None,
    };
    let bench = Bench {
        env,
        shape: &shape,
        files: &files,
        stream: &stream,
        pin,
    };
    let outcome = run_in(bench, opts);
    // Data files and data directories go; the children's logs stay
    // only after trouble.
    if matches!(&outcome, Ok(o) if o.correct) {
        let _ = std::fs::remove_dir_all(&files.run_dir);
    } else {
        for entry in std::fs::read_dir(&files.run_dir)
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = entry.path();
            if path.is_dir() {
                let _ = std::fs::remove_dir_all(&path);
            } else if path.extension().is_some_and(|e| e == "rel") {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    outcome
}

fn run_in(bench: Bench<'_>, opts: &Options) -> Result<Outcome, String> {
    let Bench {
        shape,
        files,
        stream,
        ..
    } = bench;
    let mut layers = Layers::new();
    let mut notes: Vec<String> = Vec::new();
    let setups = if opts.smoke { 1 } else { SETUPS };
    let (mut topo, warm, mut setup_ns) = set_up(bench, setups)?;
    let addr = topo.front.addr.clone();

    let pooled: &[String] = if stream.pool().is_empty() {
        &[]
    } else {
        &warm.replies
    };
    let window = Window {
        stream,
        addr: &addr,
        seconds: opts.seconds,
        min_samples: if opts.smoke {
            0
        } else {
            MIN_SAMPLES / stream.connections
        },
        max_seconds: opts.seconds * 4.0,
        keep: CHECKED_COLD,
        expected: pooled,
        rows_before: warm.rows,
        first_op: stream.first_window_op(),
    };
    let Measured {
        mut logs,
        before,
        after,
        cpu_ticks,
        rss_kb,
    } = measure(&topo, &window)?;
    let delta = Delta {
        before: &before,
        after: &after,
    };

    let spec_ns = sorted_merge(&logs, |l| &l.spec_ns);
    let spec_replies = spec_ns.len() as f64;
    let req_per_s: f64 = logs
        .iter()
        .map(|l| l.spec_ns.len() as f64 / l.elapsed.as_secs_f64())
        .sum();
    let lat_p50_ms = pick(&spec_ns, 50.0, "spec latency", opts.smoke)?;
    let lat_p90_ms = pick(&spec_ns, 90.0, "spec latency", opts.smoke)?;

    // Workload conditions: a warm workload that scanned, or a cold one
    // that answered without scanning, is not what its name says. (A
    // cold request still *hits* once: the planned batch fills the count
    // node, then assembly reads it back. Scans are what tell.)
    let scans = delta.stat(&["scans"]);
    match opts.workload.as_str() {
        "warm_serve" | "rect2d" if scans + delta.stat(&["bucketizations"]) != 0.0 => {
            notes.push(format!(
                "{}: {scans} scans inside a warm window",
                opts.workload
            ));
        }
        "cold_scan" | "coord_cold" if scans < spec_replies => {
            notes.push(format!(
                "{}: {spec_replies} replies from only {scans} scans",
                opts.workload
            ));
        }
        _ => {}
    }

    // Probes beside the window, each on a connection of its own, their
    // failures in a log of their own. The append probe comes last: it
    // changes the rows every later answer would be computed over.
    let mut extra = ConnLog::default();
    if opts.trace {
        let mut conn = Conn::connect(&addr).map_err(|e| format!("rtt connect: {e}"))?;
        layers.insert(
            "core.server.rtt_floor_us",
            us(loadgen::rtt_floor(&mut conn, 300)?),
        );
        if shape.coord {
            coord_probes(bench, &topo, lat_p50_ms, &mut extra, &mut layers)?;
        }
    }
    // The append probe, on every workload: after an append/requery
    // window it continues from the last acked row count, against the
    // durable store. It confines both of its ends — every server child
    // and the client, a thread of its own so the pin ends with it — to
    // one CPU (see `append_probe`).
    let window_append_ns = sorted_merge(&logs, |l| &l.append_ns);
    let rows_before_probe = logs
        .iter()
        .filter_map(|l| l.rows_acked)
        .max()
        .unwrap_or(warm.rows);
    let frames = if opts.smoke { 30 } else { PROBE_FRAMES };
    let cpu = *procs::allowed_cpus()?.last().expect("never empty");
    std::iter::once(&topo.front)
        .chain(&topo.shards)
        .try_for_each(|server| server.confine(cpu))?;
    let append_ns = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            procs::confine_this_thread(cpu)?;
            let mut conn =
                Conn::connect(&addr).map_err(|e| format!("append probe connect: {e}"))?;
            let ns =
                loadgen::append_probe(&mut conn, stream, frames, rows_before_probe, &mut extra);
            Ok::<_, String>(ns)
        });
        probe
            .join()
            .unwrap_or_else(|_| Err("append probe panicked".into()))
    })?;
    let rows_acked = extra.rows_acked.unwrap_or(rows_before_probe);
    let append_p50_ms = pick(&append_ns, 50.0, "append latency", opts.smoke)?;
    let append_p90_ms = pick(&append_ns, 90.0, "append latency", opts.smoke)?;
    if shape.durable {
        let dir = data_dir(files, setups - 1);
        topo = durability_check(bench, topo, &dir, rows_acked, &mut extra, &mut layers)?;
    }
    if let Err(e) = topo.shutdown() {
        notes.push(format!("shutdown: {e}"));
    }

    // The answer oracle and the traced replay, in process, over the
    // same files the children served.
    let kept: Vec<(String, String)> = logs.iter().flat_map(|l| l.kept.iter().cloned()).collect();
    let script = script(shape, stream, &warm, &kept, opts.trace);
    let found = if shape.durable {
        let config = DurabilityConfig {
            spill_rows: SPILL_ROWS,
            sync: WalSync::Always,
        };
        let open = |role: &str| {
            replay::open_durable_engine(
                &files.base,
                &files.run_dir.join(format!("{role}-data")),
                config,
            )
        };
        verify(open, &script, opts.trace, &mut extra)?
    } else {
        verify(
            |_| replay::open_file_engine(&files.base, shape.cache_mb),
            &script,
            opts.trace,
            &mut extra,
        )?
    };
    if found.checked == 0 {
        notes.push("the oracle checked no answer".into());
    }

    logs.push(extra);
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    notes.extend(logs.iter().flat_map(|l| l.failures.iter().cloned()));
    let correct = failed == 0 && notes.is_empty();
    let outcome = |metrics, spans| Outcome {
        attempted,
        failed,
        correct,
        metrics,
        notes,
        spans,
    };

    if !opts.trace {
        let cpu_ms = cpu_ticks as f64 / procs::clk_tck() * 1e3;
        let values: BTreeMap<&str, f64> = BTreeMap::from([
            ("setup_s", trace::median(&mut setup_ns) as f64 / 1e9),
            ("req_per_s", req_per_s),
            ("lat_p50_ms", lat_p50_ms),
            ("lat_p90_ms", lat_p90_ms),
            ("append_p50_ms", append_p50_ms),
            ("server_cpu_ms_per_req", ratio(cpu_ms, spec_replies)),
            ("server_rss_peak_mb", rss_kb as f64 / 1024.0),
        ]);
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    *values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("run.rs computes no {}", m.name)),
                )
            })
            .collect();
        return Ok(outcome(metrics, Vec::new()));
    }

    // Source B: the server's own counters and histograms over the window.
    let per_req = |x: f64| ratio(x, spec_replies);
    let mean = |(count, total): (f64, f64)| ratio(total, count);
    // Share of requests answered without a counting scan.
    layers.insert("core.cache.hit_ratio", (1.0 - per_req(scans)).max(0.0));
    layers.insert(
        "core.cache.evictions_per_req",
        per_req(delta.stat(&["evictions"])),
    );
    layers.insert(
        "core.cache.coalesced_waits",
        delta.stat(&["coalesced_waits"]),
    );
    layers.insert(
        "core.engine.kernel_scans_per_req",
        per_req(delta.stat(&["kernel_scans"])),
    );
    layers.insert(
        "core.engine.fallback_scans",
        delta.stat(&["fallback_scans"]),
    );
    layers.insert(
        "core.engine.bucketize_ms_per_req",
        per_req(delta.hist(&["engine", "bucketize"]).1) / 1e6,
    );
    layers.insert(
        "core.engine.kernel_scan_ms_per_req",
        per_req(delta.hist(&["engine", "kernel_scan"]).1) / 1e6,
    );
    layers.insert(
        "core.engine.optimize_us_per_req",
        per_req(delta.hist(&["engine", "optimize"]).1) / 1e3,
    );
    // One queue-wait sample per accepted connection, not per request:
    // the mean over the server's whole life.
    let queue_wait = |leaf| scrape::num(&after.metrics, &["server", "queue_wait", leaf]);
    layers.insert(
        "core.server.queue_wait_us",
        mean((queue_wait("count"), queue_wait("sum_ns"))) / 1e3,
    );
    layers.insert(
        "core.server.batch_execute_ms_per_req",
        mean(delta.hist(&["server", "batch_execute"])) / 1e6,
    );
    layers.insert(
        "core.server.response_write_us_per_req",
        mean(delta.hist(&["server", "response_write"])) / 1e3,
    );
    let checkpoint = delta.hist(&["durability", "checkpoint"]);
    layers.insert(
        "relation.durable.fsyncs_per_frame",
        ratio(
            delta.hist(&["durability", "wal_fsync"]).0,
            window_append_ns.len() as f64,
        ),
    );
    layers.insert("relation.durable.checkpoints", checkpoint.0);
    layers.insert(
        "relation.durable.checkpoint_ms_mean",
        mean(checkpoint) / 1e6,
    );
    // A scatter waits for its slower shard.
    let slowest_shard = |kind: &str| {
        (0..delta.coord_shards())
            .map(|i| delta.hist(&["coord", "shards", &i.to_string(), kind]).1)
            .fold(0.0, f64::max)
    };
    let values_rpc_ms = per_req(slowest_shard("values")) / 1e6;
    let count_rpc_ms = per_req(slowest_shard("count")) / 1e6;
    let merge_us = per_req(delta.hist(&["coord", "merge"]).1) / 1e3;
    let coord_optimize_us = per_req(delta.hist(&["coord", "optimize"]).1) / 1e3;
    layers.insert("coord.shardset.values_rpc_ms_per_req", values_rpc_ms);
    layers.insert("coord.shardset.count_rpc_ms_per_req", count_rpc_ms);
    layers.insert("coord.merge_us_per_req", merge_us);
    layers.insert("coord.optimize_us_per_req", coord_optimize_us);
    layers.insert(
        "coord.shard_rpcs_per_req",
        per_req(delta.stat(&["shard_rpcs"])),
    );
    layers.insert("coord.shard_retries", delta.stat(&["shard_retries"]));
    layers.insert("coord.shard_errors", delta.stat(&["shard_errors"]));

    // The client's own view, beyond the end-to-end metrics.
    let (tail_pct, tail_ns) = loadgen::tail(&spec_ns).unwrap_or((0.0, 0));
    layers.insert("client.lat_samples", spec_replies);
    layers.insert("client.lat_tail_pct", tail_pct);
    layers.insert("client.lat_tail_ms", ms(tail_ns));
    layers.insert("client.append_samples", append_ns.len() as f64);
    layers.insert("client.append_p90_ms", append_p90_ms);
    // The window's own appends (`append_requery` only): each follows a
    // 35 ms scan, and their latency drifts far more than the probe's.
    let window_append_p50_ns = loadgen::percentile(&window_append_ns, 50.0).unwrap_or(0);
    layers.insert("client.window_append_p50_ms", ms(window_append_p50_ns));

    // Source A, inside requests: the spans of the traced replay.
    let Verified {
        checked,
        mut cold_ns,
        mut warm_ns,
        spans,
        trace_overhead_pct,
    } = found;
    let b = replay::breakdown(&spans);
    layers.insert("trace.requests", b.requests as f64);
    layers.insert("trace.spans", spans.len() as f64);
    layers.insert("trace.request_p50_ms", ms(b.request_p50_ns));
    for (name, ns) in replay::GROUP_METRICS.into_iter().zip(b.group_p50_ns) {
        layers.insert(name, ms(ns));
    }
    let resolve_ns = replay::span_p50_ns(&spans, "plan.resolve");
    let assemble_ns = replay::span_p50_ns(&spans, "plan.assemble");
    let run_spec_warm_ns = trace::median(&mut warm_ns);
    layers.insert(
        "core.json.parse_request_us",
        us(replay::span_p50_ns(&spans, "json.parse_request")),
    );
    layers.insert(
        "core.json.encode_response_us",
        us(replay::span_p50_ns(&spans, "json.encode_response")),
    );
    layers.insert("core.plan.resolve_us", us(resolve_ns));
    layers.insert("core.plan.assemble_us", us(assemble_ns));
    layers.insert("core.shared.run_spec_warm_us", us(run_spec_warm_ns));
    layers.insert(
        "core.shared.run_spec_cold_ms",
        ms(trace::median(&mut cold_ns)),
    );
    // The warm parent's self time: what `run_spec` spends beyond the
    // two calls it is made of on a hit — pin, cache lookup, counters.
    layers.insert(
        "core.cache.lookup_us",
        us(run_spec_warm_ns.saturating_sub(resolve_ns + assemble_ns)),
    );

    // What the layers leave unexplained. Under a coordinator the
    // blocking layers are its own timed phases; on one node they are
    // the replay's spans.
    let floor_ms = layers
        .get("core.server.rtt_floor_us")
        .map_or(0.0, |floor_us| floor_us / 1e3);
    let layers_ms = if shape.coord {
        values_rpc_ms + count_rpc_ms + (merge_us + coord_optimize_us) / 1e3
    } else {
        ms(b.layers_p50_ns)
    };
    layers.insert("e2e.unattributed_ms", lat_p50_ms - floor_ms - layers_ms);
    layers.insert(
        "e2e.data_pass_share_pct",
        100.0 * ratio(ms(b.data_pass_p50_ns), lat_p50_ms),
    );
    layers.insert(
        "e2e.optimize_share_pct",
        100.0 * ratio(ms(b.group_p50_ns[4]), lat_p50_ms),
    );
    layers.insert("bench.trace_overhead_pct", trace_overhead_pct);
    layers.insert("bench.oracle_checked", checked as f64);

    // Source A, in isolation: each public call on its own.
    let scratch = files.run_dir.join("micro");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    layers.extend(micro::run(&files.base, &scratch, stream)?);

    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "run.rs computes unregistered {name}"
        );
    }
    // A layer this workload never entered did no work: it reports zero.
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, layers.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Ok(outcome(metrics, spans))
}
