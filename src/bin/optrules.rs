//! `optrules` — command-line rule mining over relation files.
//!
//! ```text
//! optrules gen <paper|bank|retail|planted> <path> [--rows N] [--seed S]
//! optrules info <path>
//! optrules mine <path> --attr A --target B [--buckets M] [--min-support P]
//!               [--min-confidence P] [--threads T] [--seed S] [--given C]
//!               [--format text|json]
//! optrules mine-all <path> [--buckets M] [--min-support P] [--min-confidence P]
//!               [--threads T] [--seed S] [--sort support|confidence|none]
//!               [--format text|json]
//! optrules avg <path> --attr A --target B [--buckets M] [--min-support P]
//!               [--min-avg X] [--threads T] [--seed S] [--format text|json]
//! optrules batch <path> [--buckets M] [--min-support P] [--min-confidence P]
//!               [--threads T] [--seed S] [--cache-mb N] [--cache-shards N]
//!               [--data-dir DIR] [--wal-sync always|batch|off] [--spill-rows N]
//!               (query specs + stats/append/flush frames as NDJSON on stdin)
//! optrules serve <path> [--addr HOST:PORT] [--workers N] [--max-inflight N]
//!               [--max-line-bytes N] [--write-timeout-secs N]
//!               [--cache-mb N] [--cache-shards N]
//!               [--data-dir DIR] [--wal-sync always|batch|off] [--spill-rows N]
//!               [--trace-log PATH|stderr] [--slow-query-ms N]
//!               [--buckets M] [--min-support P] [--min-confidence P]
//!               [--threads T] [--seed S]
//! optrules coord --shards H:P,H:P[,…] [--addr HOST:PORT] [--workers N]
//!               [--max-inflight N] [--max-line-bytes N] [--write-timeout-secs N]
//!               [--cache-mb N] [--cache-shards N]
//!               [--connect-timeout-ms N] [--rpc-timeout-ms N]
//!               [--retries N] [--retry-backoff-ms N]
//!               [--trace-log PATH|stderr] [--slow-query-ms N]
//!               [--buckets M] [--min-support P] [--min-confidence P]
//!               [--threads T] [--seed S]
//! optrules slice <src> <dst> [--start N] [--end N]
//! ```
//!
//! Relation files are the fixed-width format written by
//! `FileRelationWriter` (see `optrules::relation::file`). Percentages
//! are whole numbers (`--min-support 10` means 10 %). Mining runs on
//! the `SharedEngine` session API, so `mine-all` shares one
//! counting scan per numeric attribute across all Boolean targets.
//!
//! `--threads` means different things per subcommand: for `mine` and
//! `avg` it sets the counting-scan worker count (Algorithm 3.2); for
//! `mine-all` and `batch` it fans whole queries out across that many
//! scoped threads over one `SharedEngine` (each scan stays sequential,
//! so the output is byte-identical for every `--threads` value).
//!
//! `batch` is the request/response face of the engine: it reads one
//! JSON request frame per stdin line (the schema is documented in
//! `optrules::core::json`), plans each run of consecutive query specs
//! so shared bucketizations and counting scans run once each, and
//! writes one JSON response per line — `{"ok": <result>}` or
//! `{"error": "<message>"}` — in request order. `{"cmd":"append"}`
//! frames append rows (a new relation *generation*; later specs mine
//! it) and `{"cmd":"stats"}` reports engine counters plus the current
//! generation and row count. The engine flags set session defaults
//! that individual specs may override per query.
//!
//! `serve` keeps one warm `SharedEngine` behind a TCP listener and
//! speaks the same NDJSON protocol per connection, including the
//! `{"cmd":"stats"}` / `{"cmd":"shutdown"}` /
//! `{"cmd":"append","rows":…}` control frames (see
//! `optrules::core::server`; appends never block in-flight queries —
//! each batch pins its relation generation). It prints `listening on
//! <addr>` once bound (with `--addr host:0` the OS picks the port)
//! and exits 0 after a graceful shutdown.
//! `--cache-mb`/`--cache-shards` size the engine's bounded cache
//! without recompiling: `--cache-mb` is the total budget in MiB (`0`
//! disables caching — every query runs cold), `--cache-shards` the
//! lock granularity (≥ 1; the default is 32 MiB across 16 shards);
//! `--write-timeout-secs` (default 30) bounds how long a response
//! write may block on a client that stops reading.
//!
//! `coord` serves the same NDJSON protocol but owns no rows at all: it
//! plans every query centrally and scatters the data pass (sampling
//! fetches and counting scans) across the `optrules serve` backends
//! named by `--shards`, merging their partial bucket counts before the
//! cheap centralized optimization step. Responses are byte-identical
//! to a single-node server over the concatenated shard relations (see
//! `optrules::coord`). A dead shard fails only the requests that
//! needed it — those answer the structured
//! `{"error":{"shard":i,"message":…}}` envelope — and the coordinator
//! keeps serving, re-pinning the shard when it comes back. `slice`
//! cuts a row range of a relation file into a new file — the shard
//! files of a scatter-gather deployment are plain slices of the
//! original.
//!
//! `--data-dir DIR` makes the live relation *durable* for `batch` and
//! `serve` (see `optrules::relation::durable`): appended rows are
//! written to a write-ahead log in DIR before the ack, spilled into
//! file-backed segments once the tail passes `--spill-rows` (default
//! 65536), and replayed on the next start — acknowledged appends
//! survive a crash, and the server resumes at the generation it
//! stopped at. `--wal-sync` picks the ack guarantee: `always`
//! (default; fsync per append — survives power loss), `batch`
//! (OS page cache only — survives process crashes), `off` (no WAL —
//! only spilled segments and checkpoints survive). Without
//! `--data-dir` everything runs in memory and output is byte-identical
//! to previous releases.

use optrules::core::json;
use optrules::core::report::{render_rule_sets, sort_rule_sets, SortBy};
use optrules::core::server;
use optrules::obs::TraceSink;
use optrules::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  optrules gen <paper|bank|retail|planted> <path> [--rows N] [--seed S]
  optrules info <path>
  optrules mine <path> --attr A --target B [--buckets M] [--min-support P]
                [--min-confidence P] [--threads T] [--seed S] [--given C]
                [--format text|json]
  optrules mine-all <path> [--buckets M] [--min-support P] [--min-confidence P]
                [--threads T] [--seed S] [--sort support|confidence|none]
                [--format text|json]
  optrules avg <path> --attr A --target B [--buckets M] [--min-support P]
                [--min-avg X] [--threads T] [--seed S] [--format text|json]
  optrules batch <path> [--buckets M] [--min-support P] [--min-confidence P]
                [--threads T] [--seed S] [--cache-mb N] [--cache-shards N]
                [--data-dir DIR] [--wal-sync always|batch|off] [--spill-rows N]
                (query specs + stats/append/flush frames as NDJSON on stdin)
  optrules serve <path> [--addr HOST:PORT] [--workers N] [--max-inflight N]
                [--max-line-bytes N] [--write-timeout-secs N]
                [--cache-mb N] [--cache-shards N]
                [--data-dir DIR] [--wal-sync always|batch|off] [--spill-rows N]
                [--trace-log PATH|stderr] [--slow-query-ms N]
                [--buckets M] [--min-support P] [--min-confidence P]
                [--threads T] [--seed S]
                (NDJSON specs + stats/metrics/shutdown/flush/append
                 frames per TCP connection; --cache-mb sizes the shared
                 cache in MiB, 0 disables it; --cache-shards sets lock
                 granularity; --write-timeout-secs drops clients that
                 stop reading, both at least 1; --data-dir makes
                 appends durable: WAL + segment spill + crash
                 recovery; --trace-log emits one NDJSON span per
                 request phase, --slow-query-ms only spans at least
                 that long)
  optrules coord --shards H:P,H:P[,…] [--addr HOST:PORT] [--workers N]
                [--max-inflight N] [--max-line-bytes N] [--write-timeout-secs N]
                [--cache-mb N] [--cache-shards N]
                [--connect-timeout-ms N] [--rpc-timeout-ms N]
                [--retries N] [--retry-backoff-ms N]
                [--trace-log PATH|stderr] [--slow-query-ms N]
                [--buckets M] [--min-support P] [--min-confidence P]
                [--threads T] [--seed S]
                (scatter-gather front end over `optrules serve` shards:
                 plans and optimizes centrally, counts on the shards,
                 answers byte-identically to one server over the
                 concatenated rows; appends route to the last shard)
  optrules slice <src> <dst> [--start N] [--end N]
                (copies rows start..end of a relation file into a new
                 file — for cutting a relation into shard files)";

type CliResult = Result<(), String>;

/// Splits positional arguments from `--key value` flags. A trailing
/// `--key` with no value is a usage error, not an empty value, and so
/// is a repeated `--key`: the later value must not silently replace
/// the earlier one.
fn parse(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let Some(value) = args.get(i + 1) else {
                return Err(format!("flag --{key} expects a value"));
            };
            // A following `--flag` is a missing value, not a value
            // (single-dash negatives like `-5` remain accepted).
            if value.starts_with("--") {
                return Err(format!("flag --{key} expects a value, got {value:?}"));
            }
            if flags.insert(key, value.as_str()).is_some() {
                return Err(format!("flag --{key} given more than once"));
            }
            i += 2;
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, flags))
}

/// Rejects flags the subcommand doesn't know, naming the offender.
fn reject_unknown(flags: &HashMap<&str, &str>, allowed: &[&str]) -> CliResult {
    let mut unknown: Vec<&str> = flags
        .keys()
        .filter(|key| !allowed.contains(*key))
        .copied()
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        None => Ok(()),
        Some(key) if allowed.is_empty() => Err(format!(
            "unknown flag --{key} (this subcommand takes no flags)"
        )),
        Some(key) => Err(format!(
            "unknown flag --{key} (expected one of: {})",
            allowed
                .iter()
                .map(|a| format!("--{a}"))
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn flag_num<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key} expects a number, got {raw:?}")),
    }
}

const MINE_FLAGS: &[&str] = &[
    "attr",
    "target",
    "buckets",
    "min-support",
    "min-confidence",
    "threads",
    "seed",
    "given",
    "format",
];
const MINE_ALL_FLAGS: &[&str] = &[
    "buckets",
    "min-support",
    "min-confidence",
    "threads",
    "seed",
    "sort",
    "format",
];
const AVG_FLAGS: &[&str] = &[
    "attr",
    "target",
    "buckets",
    "min-support",
    "min-avg",
    "threads",
    "seed",
    "format",
];
const BATCH_FLAGS: &[&str] = &[
    "buckets",
    "min-support",
    "min-confidence",
    "threads",
    "seed",
    "cache-mb",
    "cache-shards",
    "data-dir",
    "wal-sync",
    "spill-rows",
];
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "max-inflight",
    "max-line-bytes",
    "write-timeout-secs",
    "cache-mb",
    "cache-shards",
    "data-dir",
    "wal-sync",
    "spill-rows",
    "trace-log",
    "slow-query-ms",
    "buckets",
    "min-support",
    "min-confidence",
    "threads",
    "seed",
];
const COORD_FLAGS: &[&str] = &[
    "shards",
    "addr",
    "workers",
    "max-inflight",
    "max-line-bytes",
    "write-timeout-secs",
    "cache-mb",
    "cache-shards",
    "connect-timeout-ms",
    "rpc-timeout-ms",
    "retries",
    "retry-backoff-ms",
    "trace-log",
    "slow-query-ms",
    "buckets",
    "min-support",
    "min-confidence",
    "threads",
    "seed",
];

/// Output format shared by the mining subcommands: `text` (the default,
/// byte-identical to the pre-`--format` output) or `json` (the
/// response encoding of `optrules::core::json`, one result per line).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn parse_format(flags: &HashMap<&str, &str>) -> Result<Format, String> {
    match flags.get("format").copied() {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some(other) => Err(format!("--format expects text or json, got {other:?}")),
    }
}

fn run(args: &[String]) -> CliResult {
    let (pos, flags) = parse(args)?;
    match pos.as_slice() {
        ["gen", kind, path] => {
            reject_unknown(&flags, &["rows", "seed"])?;
            gen(kind, path, &flags)
        }
        ["info", path] => {
            reject_unknown(&flags, &[])?;
            info(path)
        }
        ["mine", path] => {
            reject_unknown(&flags, MINE_FLAGS)?;
            mine(path, &flags)
        }
        ["mine-all", path] => {
            reject_unknown(&flags, MINE_ALL_FLAGS)?;
            mine_all(path, &flags)
        }
        ["avg", path] => {
            reject_unknown(&flags, AVG_FLAGS)?;
            avg(path, &flags)
        }
        ["batch", path] => {
            reject_unknown(&flags, BATCH_FLAGS)?;
            batch(path, &flags)
        }
        ["serve", path] => {
            reject_unknown(&flags, SERVE_FLAGS)?;
            serve(path, &flags)
        }
        ["coord"] => {
            reject_unknown(&flags, COORD_FLAGS)?;
            coord(&flags)
        }
        ["slice", src, dst] => {
            reject_unknown(&flags, &["start", "end"])?;
            slice(src, dst, &flags)
        }
        [] => Err("missing command".into()),
        other => Err(format!("unrecognized command {other:?}")),
    }
}

fn gen(kind: &str, path: &str, flags: &HashMap<&str, &str>) -> CliResult {
    let rows: u64 = flag_num(flags, "rows", 100_000)?;
    let seed: u64 = flag_num(flags, "seed", 42)?;
    let rel = match kind {
        "paper" => UniformWorkload::paper()
            .to_file(path, rows, seed)
            .map_err(|e| e.to_string())?,
        "bank" => BankGenerator::default()
            .to_file(path, rows, seed)
            .map_err(|e| e.to_string())?,
        "retail" => RetailGenerator::default()
            .to_file(path, rows, seed)
            .map_err(|e| e.to_string())?,
        "planted" => PlantedRangeGenerator::table1()
            .to_file(path, rows, seed)
            .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown generator {other:?}")),
    };
    println!(
        "wrote {} rows ({} numeric + {} boolean attributes, {} bytes) to {path}",
        rel.len(),
        rel.schema().numeric_count(),
        rel.schema().boolean_count(),
        rel.data_bytes(),
    );
    Ok(())
}

fn info(path: &str) -> CliResult {
    let rel = FileRelation::open(path).map_err(|e| e.to_string())?;
    let schema = rel.schema();
    println!("rows     : {}", rel.len());
    println!(
        "data     : {} bytes ({} per tuple)",
        rel.data_bytes(),
        schema.record_size()
    );
    println!("numeric  : {}", schema.numeric_names().join(", "));
    println!("boolean  : {}", schema.boolean_names().join(", "));
    Ok(())
}

/// Parses `--given` of the form `Attr=yes|no` into a presumptive
/// conjunct.
fn parse_given(schema: &Schema, raw: &str) -> Result<CondSpec, String> {
    let (name, value) = raw
        .split_once('=')
        .ok_or_else(|| format!("--given expects Attr=yes|no, got {raw:?}"))?;
    schema
        .boolean(name)
        .map_err(|_| format!("unknown boolean attribute {name:?}"))?;
    let value = match value {
        "yes" => true,
        "no" => false,
        other => return Err(format!("--given value must be yes or no, got {other:?}")),
    };
    Ok(CondSpec::BoolIs {
        attr: name.to_string(),
        value,
    })
}

/// The `EngineConfig` flags shared by `mine`, `mine-all`, and `avg`.
/// `scan_threads` is the counting-scan worker count — `mine-all`
/// pins it to 1 because its `--threads` fans out whole queries
/// instead.
fn config_from_flags(
    flags: &HashMap<&str, &str>,
    scan_threads: usize,
) -> Result<EngineConfig, String> {
    Ok(EngineConfig {
        buckets: flag_num(flags, "buckets", 1000usize)?,
        min_support: Ratio::percent(flag_num(flags, "min-support", 10u64)?),
        min_confidence: Ratio::percent(flag_num(flags, "min-confidence", 50u64)?),
        threads: scan_threads,
        seed: flag_num(flags, "seed", 7u64)?,
        ..EngineConfig::default()
    })
}

/// The `--cache-mb` / `--cache-shards` operator flags, mapped onto
/// [`CacheConfig`]. `--cache-mb` is the total budget in MiB (converted
/// to cells of 8 bytes; `0` disables caching entirely) and
/// `--cache-shards` the lock granularity, which must be at least 1.
fn cache_from_flags(flags: &HashMap<&str, &str>) -> Result<CacheConfig, String> {
    let mut config = CacheConfig::default();
    if let Some(raw) = flags.get("cache-mb") {
        let mb: u64 = raw
            .parse()
            .map_err(|_| format!("--cache-mb expects a number of MiB, got {raw:?}"))?;
        // One cache cell is a u64/f64 ≈ 8 bytes.
        config.max_cost = mb.saturating_mul(1 << 20) / 8;
    }
    if let Some(raw) = flags.get("cache-shards") {
        let shards: usize = raw
            .parse()
            .map_err(|_| format!("--cache-shards expects a number, got {raw:?}"))?;
        if shards == 0 {
            return Err("--cache-shards must be at least 1".into());
        }
        config.shards = shards;
    }
    Ok(config)
}

/// The `--data-dir` / `--wal-sync` / `--spill-rows` durability flags.
/// Returns `None` when `--data-dir` is absent (pure in-memory mode);
/// the sync and spill flags are only meaningful with a data directory
/// and are rejected without one.
fn durability_from_flags(
    flags: &HashMap<&str, &str>,
) -> Result<Option<(String, DurabilityConfig)>, String> {
    let Some(dir) = flags.get("data-dir").copied() else {
        if flags.contains_key("wal-sync") {
            return Err("--wal-sync requires --data-dir".into());
        }
        if flags.contains_key("spill-rows") {
            return Err("--spill-rows requires --data-dir".into());
        }
        return Ok(None);
    };
    let sync = match flags.get("wal-sync").copied() {
        None | Some("always") => WalSync::Always,
        Some("batch") => WalSync::Batch,
        Some("off") => WalSync::Off,
        Some(other) => {
            return Err(format!(
                "--wal-sync expects always, batch, or off, got {other:?}"
            ))
        }
    };
    let spill_rows: u64 = flag_num(flags, "spill-rows", DurabilityConfig::default().spill_rows)?;
    if spill_rows == 0 {
        return Err("--spill-rows must be at least 1".into());
    }
    Ok(Some((
        dir.to_string(),
        DurabilityConfig { spill_rows, sync },
    )))
}

/// Opens the durable store and reports the recovery outcome on stderr
/// as one NDJSON event (stdout stays protocol-clean for
/// `batch`/`serve`, and stderr stays machine-parseable alongside
/// `--trace-log stderr` span lines).
fn recover_durable(
    path: &str,
    dir: &str,
    config: DurabilityConfig,
) -> Result<(Arc<DurableRelation>, u64), String> {
    let recovered = DurableRelation::open(path, dir, config)
        .map_err(|e| format!("opening data dir {dir}: {e}"))?;
    eprintln!(
        "{{\"event\":\"recover\",\"dir\":\"{}\",\"rows\":{},\"replayed_rows\":{},\"replayed_frames\":{},\"generation\":{}}}",
        optrules::obs::json_escape(dir),
        recovered.relation.len(),
        recovered.replayed_rows,
        recovered.replayed_frames,
        recovered.generation,
    );
    Ok((Arc::new(recovered.relation), recovered.generation))
}

fn engine_from_flags(
    path: &str,
    flags: &HashMap<&str, &str>,
) -> Result<SharedEngine<FileRelation>, String> {
    let rel = FileRelation::open(path).map_err(|e| e.to_string())?;
    let scan_threads = flag_num(flags, "threads", 1usize)?;
    Ok(SharedEngine::with_config(
        rel,
        config_from_flags(flags, scan_threads)?,
    ))
}

fn mine(path: &str, flags: &HashMap<&str, &str>) -> CliResult {
    // Validated before mining: a typo'd --format must not cost a scan.
    let format = parse_format(flags)?;
    let engine = engine_from_flags(path, flags)?;
    let schema = engine.relation().schema().clone();
    let attr = *flags.get("attr").ok_or("--attr is required")?;
    let target = *flags.get("target").ok_or("--target is required")?;
    let presumptive = flags
        .get("given")
        .map(|raw| parse_given(&schema, raw))
        .transpose()?;
    let spec = QuerySpec {
        // One query per process: no point counting the other booleans.
        scan_all_booleans: false,
        ..QuerySpec::boolean(attr, target)
    }
    .given(presumptive);
    let rules = engine.run_spec(&spec).map_err(|e| e.to_string())?;
    match format {
        Format::Text => print_rules(&rules),
        Format::Json => println!("{}", json::encode_rule_set(&rules)),
    }
    Ok(())
}

fn mine_all(path: &str, flags: &HashMap<&str, &str>) -> CliResult {
    // Validated before mining: a typo'd --format must not cost a sweep.
    let format = parse_format(flags)?;
    let sort = match flags.get("sort").copied() {
        Some("confidence") => SortBy::Confidence,
        Some("none") => SortBy::Unsorted,
        Some("support") | None => SortBy::Support,
        Some(other) => {
            return Err(format!(
                "--sort expects support, confidence, or none, got {other:?}"
            ))
        }
    };
    let threads: usize = flag_num(flags, "threads", 1)?;
    let rel = FileRelation::open(path).map_err(|e| e.to_string())?;
    // Here `--threads` fans *queries* out, not one scan: each worker
    // runs whole pairs with a sequential counting scan, so results —
    // and, after the deterministic numeric-major reassembly plus the
    // stable sort below, the printed order — are identical for every
    // thread count.
    let engine = SharedEngine::with_config(rel, config_from_flags(flags, 1)?);
    let sets = engine.mine_all_pairs(threads).map_err(|e| e.to_string())?;
    match format {
        Format::Text => {
            print!("{}", render_rule_sets(&sets, sort));
            println!("{} attribute pairs mined", sets.len());
        }
        // JSON emits *every* pair (no below-threshold summarizing), in
        // the same --sort order as the table.
        Format::Json => {
            for set in sort_rule_sets(&sets, sort) {
                println!("{}", json::encode_rule_set(set));
            }
        }
    }
    Ok(())
}

fn avg(path: &str, flags: &HashMap<&str, &str>) -> CliResult {
    // Validated before mining: a typo'd --format must not cost a scan.
    let format = parse_format(flags)?;
    let engine = engine_from_flags(path, flags)?;
    let attr = *flags.get("attr").ok_or("--attr is required")?;
    let target = *flags.get("target").ok_or("--target is required")?;
    let min_avg: f64 = flag_num(flags, "min-avg", 0.0)?;
    let rules = engine
        .run_spec(&QuerySpec::average(attr, target).min_average(min_avg))
        .map_err(|e| e.to_string())?;
    if format == Format::Json {
        println!("{}", json::encode_rule_set(&rules));
        return Ok(());
    }
    let line = |r: &AvgRule| {
        format!(
            "{} in [{:.4}, {:.4}]  {} = {:.4}, support {:.2}%",
            rules.attr_name,
            r.value_range.0,
            r.value_range.1,
            rules.objective_desc,
            r.average(),
            100.0 * r.support(),
        )
    };
    match rules.max_average() {
        Some(r) => println!("max-average range : {}", line(r)),
        None => println!("max-average range : none (support threshold unreachable)"),
    }
    match rules.max_support_average() {
        Some(r) => println!("max-support range : {}", line(r)),
        None => println!("max-support range : none (no range clears the average threshold)"),
    }
    Ok(())
}

/// The `batch` subcommand: NDJSON request frames on stdin → one NDJSON
/// response per request, in request order. Consecutive query specs are
/// planned as one segment (`SharedEngine::run_batch`), so specs
/// sharing a bucketization or scan run it exactly once; control frames
/// (`{"cmd":"stats"}` and the live write `{"cmd":"append","rows":…}`)
/// split segments and apply in request order, so a spec after an
/// append mines the new relation generation. Malformed or failing
/// requests produce an `{"error": ...}` line without aborting the
/// rest; `{"cmd":"shutdown"}` is a server command and answers an
/// error here.
fn batch(path: &str, flags: &HashMap<&str, &str>) -> CliResult {
    let threads: usize = flag_num(flags, "threads", 1)?;
    let cache = cache_from_flags(flags)?;
    let config = config_from_flags(flags, 1)?;
    match durability_from_flags(flags)? {
        // Durable mode: the WAL-backed relation replaces the plain
        // chunked wrapper; the final flush checkpoints whatever tail
        // the batch appended so the next start replays nothing.
        Some((dir, dconfig)) => {
            let (rel, generation) = recover_durable(path, &dir, dconfig)?;
            let engine = SharedEngine::from_arc_at(rel, generation, config, cache);
            batch_requests(&engine, threads)?;
            engine
                .flush()
                .map_err(|e| format!("final checkpoint: {e}"))?;
            Ok(())
        }
        None => {
            let rel = FileRelation::open(path).map_err(|e| e.to_string())?;
            // The chunked wrapper gives appends O(k) generation steps;
            // the file-backed base is never copied. Like mine-all,
            // --threads fans whole queries out and every scan stays
            // sequential, so output is byte-identical at any width
            // (and at any cache sizing — caching is semantically
            // invisible).
            let engine = SharedEngine::with_cache(ChunkedRelation::new(rel), config, cache);
            batch_requests(&engine, threads)
        }
    }
}

/// The transport-independent half of `batch`: read NDJSON frames from
/// stdin, execute them in order, write NDJSON responses to stdout.
fn batch_requests<R>(engine: &SharedEngine<R>, threads: usize) -> CliResult
where
    R: RandomAccess + AppendRows + Durability + Send + Sync,
{
    let mut requests: Vec<json::Request> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        requests.push(json::parse_request(&line));
    }

    // Execute in request order through the shared executor —
    // exactly the server's per-connection semantics (one code path,
    // tested byte-identical across both transports by the live
    // golden). Batch mode has no server context: `shutdown` answers
    // an error, `{"cmd":"metrics"}` the engine section only, and no
    // gauges ride `{"cmd":"stats"}`.
    let (responses, _shutdown_seen) = json::execute_requests(engine, requests, threads, None);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for response in responses {
        writeln!(out, "{}", response.encode()).map_err(|e| format!("writing stdout: {e}"))?;
    }
    Ok(())
}

/// The `serve` subcommand: bind a TCP listener and answer the NDJSON
/// protocol from one long-lived warm `SharedEngine` until a
/// `{"cmd":"shutdown"}` control frame arrives. Prints the bound
/// address first (so scripts can use `--addr host:0`), then blocks
/// until the graceful drain completes.
fn serve(path: &str, flags: &HashMap<&str, &str>) -> CliResult {
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7878");
    let cache = cache_from_flags(flags)?;
    let engine_config = config_from_flags(flags, 1)?;
    let server_config = server_config_from_flags(flags)?;
    let trace = trace_from_flags(flags)?;
    match durability_from_flags(flags)? {
        // Durable mode: recover base + segments + WAL tail, resume at
        // the recovered generation; the server's shutdown drain
        // checkpoints the tail.
        Some((dir, dconfig)) => {
            let (rel, generation) = recover_durable(path, &dir, dconfig)?;
            let engine = Arc::new(SharedEngine::from_arc_at(
                rel,
                generation,
                engine_config,
                cache,
            ));
            run_server(engine, addr, server_config, trace)
        }
        None => {
            let rel = FileRelation::open(path).map_err(|e| e.to_string())?;
            // Chunked over the file-backed base: `{"cmd":"append"}`
            // frames produce O(k) relation generations without copying
            // the file data.
            let engine = Arc::new(SharedEngine::with_cache(
                ChunkedRelation::new(rel),
                engine_config,
                cache,
            ));
            run_server(engine, addr, server_config, trace)
        }
    }
}

/// Binds, announces, and blocks on the server until a graceful
/// shutdown drains (which checkpoints a durable engine).
fn run_server<R>(
    engine: Arc<SharedEngine<R>>,
    addr: &str,
    config: ServerConfig,
    trace: Option<Arc<TraceSink>>,
) -> CliResult
where
    R: RandomAccess + AppendRows + Durability + Send + Sync + 'static,
{
    let handle = server::serve_traced(engine, addr, config, trace)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    // Parsed by scripts and tests; stdout is line-buffered, so this is
    // visible before the first connection.
    println!("listening on {}", handle.addr());
    handle.join();
    println!("server stopped");
    Ok(())
}

/// Builds the span sink behind `--trace-log PATH|stderr`. The
/// `--slow-query-ms N` threshold drops spans shorter than N
/// milliseconds (default 0: log everything); it is meaningless
/// without a destination, so alone it is a usage error.
fn trace_from_flags(flags: &HashMap<&str, &str>) -> Result<Option<Arc<TraceSink>>, String> {
    let slow_ms: u64 = flag_num(flags, "slow-query-ms", 0)?;
    let slow_ns = slow_ms.saturating_mul(1_000_000);
    match flags.get("trace-log").copied() {
        Some("stderr") => Ok(Some(Arc::new(TraceSink::stderr(slow_ns)))),
        Some(path) => Ok(Some(Arc::new(
            TraceSink::file(path, slow_ns).map_err(|e| format!("opening trace log {path}: {e}"))?,
        ))),
        None if flags.contains_key("slow-query-ms") => {
            Err("--slow-query-ms requires --trace-log (there is nowhere to log to)".into())
        }
        None => Ok(None),
    }
}

/// The TCP front-end flags shared by `serve` and `coord`.
fn server_config_from_flags(flags: &HashMap<&str, &str>) -> Result<ServerConfig, String> {
    let workers: usize = flag_num(flags, "workers", 4)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let max_inflight: usize = flag_num(flags, "max-inflight", workers)?;
    if max_inflight == 0 {
        return Err("--max-inflight must be at least 1".into());
    }
    let max_line_bytes: usize = flag_num(flags, "max-line-bytes", 1 << 20)?;
    if max_line_bytes == 0 {
        return Err("--max-line-bytes must be at least 1".into());
    }
    let write_timeout_secs: u64 = flag_num(flags, "write-timeout-secs", 30)?;
    if write_timeout_secs == 0 {
        return Err("--write-timeout-secs must be at least 1".into());
    }
    Ok(ServerConfig {
        workers,
        max_inflight_batches: max_inflight,
        max_line_bytes,
        batch_threads: flag_num(flags, "threads", 1)?,
        write_timeout: Some(std::time::Duration::from_secs(write_timeout_secs)),
        ..ServerConfig::default()
    })
}

/// The `coord` subcommand: a scatter-gather front end over a set of
/// `optrules serve` shards (see `optrules::coord`). It holds no rows —
/// it plans, caches, merges, and optimizes; the shards count. The
/// engine flags (`--buckets` etc.) set the same session defaults a
/// single-node server would, so answers stay byte-identical to one
/// `optrules serve` over the concatenated shard rows.
fn coord(flags: &HashMap<&str, &str>) -> CliResult {
    let shards_raw = *flags
        .get("shards")
        .ok_or("--shards is required (comma-separated host:port list)")?;
    let shard_addrs: Vec<String> = shards_raw
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shard_addrs.is_empty() {
        return Err("--shards expects at least one host:port".into());
    }
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7879");
    let net = CoordConfig {
        connect_timeout: std::time::Duration::from_millis(flag_num(
            flags,
            "connect-timeout-ms",
            2_000u64,
        )?),
        rpc_timeout: std::time::Duration::from_millis(flag_num(
            flags,
            "rpc-timeout-ms",
            30_000u64,
        )?),
        retries: flag_num(flags, "retries", 2u32)?,
        retry_backoff: std::time::Duration::from_millis(flag_num(
            flags,
            "retry-backoff-ms",
            50u64,
        )?),
    };
    let server_config = server_config_from_flags(flags)?;
    let coordinator = Coordinator::connect(
        &shard_addrs,
        config_from_flags(flags, 1)?,
        cache_from_flags(flags)?,
        net,
    )
    .map_err(|e| e.to_string())?
    .with_trace(trace_from_flags(flags)?);
    let handle = server::serve_service(Arc::new(coordinator), addr, server_config)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("listening on {}", handle.addr());
    handle.join();
    println!("server stopped");
    Ok(())
}

/// The `slice` subcommand: copies rows `start..end` of a relation file
/// into a new relation file with the same schema — how a deployment
/// cuts one relation into per-shard files whose concatenation is the
/// original.
fn slice(src: &str, dst: &str, flags: &HashMap<&str, &str>) -> CliResult {
    let rel = FileRelation::open(src).map_err(|e| e.to_string())?;
    let rows = rel.len();
    let start: u64 = flag_num(flags, "start", 0)?;
    let end: u64 = flag_num(flags, "end", rows)?;
    if start > end || end > rows {
        return Err(format!(
            "--start/--end must satisfy start <= end <= {rows}, got {start}..{end}"
        ));
    }
    let mut writer = FileRelationWriter::create(dst, rel.schema().clone())
        .map_err(|e| format!("creating {dst}: {e}"))?;
    let mut write_err: Result<(), String> = Ok(());
    rel.for_each_row_in(start..end, &mut |_, numeric, boolean| {
        if write_err.is_ok() {
            if let Err(e) = writer.push_row(numeric, boolean) {
                write_err = Err(format!("writing {dst}: {e}"));
            }
        }
    })
    .map_err(|e| e.to_string())?;
    write_err?;
    let out = writer.finish().map_err(|e| format!("writing {dst}: {e}"))?;
    println!(
        "wrote {} rows ({start}..{end} of {src}) to {dst}",
        out.len()
    );
    Ok(())
}

fn print_rules(rules: &RuleSet) {
    match rules.optimized_support() {
        Some(rule) => println!(
            "optimized-support    {}",
            rule.describe(&rules.attr_name, &rules.objective_desc)
        ),
        None => println!(
            "optimized-support    {} => {}: no confident range",
            rules.attr_name, rules.objective_desc
        ),
    }
    match rules.optimized_confidence() {
        Some(rule) => println!(
            "optimized-confidence {}",
            rule.describe(&rules.attr_name, &rules.objective_desc)
        ),
        None => println!(
            "optimized-confidence {} => {}: no ample range",
            rules.attr_name, rules.objective_desc
        ),
    }
}
