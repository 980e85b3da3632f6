//! Golden transcripts for the `{"cmd":"metrics"}` control frame: with
//! `OPTRULES_FROZEN_CLOCK=1` every duration pins to zero while the
//! histogram *counts* stay real, so the full metrics document is
//! byte-stable — against a single-node `optrules serve` and against a
//! coordinator over two shards, at `--workers 1` and `--workers 4`
//! alike (`--cache-shards 1` keeps cache placement deterministic).
//!
//! The client here is deliberately interactive — one request line,
//! one response line, repeat — so frame segmentation (and with it the
//! server's `batch_execute`/`response_write` counts) cannot depend on
//! socket timing the way a pipelined blast would.
//!
//! Regenerate the goldens after an intentional shape change with
//! `OPTRULES_BLESS=1 cargo test --test metrics_golden`.

mod common;

use common::{bin, shutdown, spawn_listening, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "optrules-metrics-golden-{}-{name}.rel",
        std::process::id()
    ))
}

fn data_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Spawns the binary with a frozen observability clock, so every
/// duration the metrics document reports is exactly zero.
fn spawn_frozen(args: &[&str]) -> Server {
    spawn_listening(bin().args(args).env("OPTRULES_FROZEN_CLOCK", "1"))
}

const FLAGS: [&str; 10] = [
    "--buckets",
    "100",
    "--min-support",
    "10",
    "--min-confidence",
    "60",
    "--seed",
    "7",
    "--cache-shards",
    "1",
];

fn spawn_serve(path: &str, workers: &str) -> Server {
    let mut args = vec!["serve", path, "--addr", "127.0.0.1:0", "--workers", workers];
    args.extend_from_slice(&FLAGS);
    spawn_frozen(&args)
}

/// One request line, one response line, strictly alternating, all on
/// one connection — each line becomes its own frame, so the per-frame
/// histograms count exactly `lines.len()` samples.
fn interactive(addr: &str, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        writeln!(stream, "{line}").expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(
            response.ends_with('\n'),
            "connection closed mid-transcript after {response:?}"
        );
        responses.push(response.trim_end().to_string());
    }
    drop(stream);
    responses
}

/// Runs the transcript plus a final `{"cmd":"metrics"}` and returns
/// that last response line.
fn metrics_after_transcript(addr: &str) -> String {
    let specs = std::fs::read_to_string(data_path("metrics_specs.ndjson")).expect("read specs");
    let mut lines: Vec<&str> = specs.lines().collect();
    lines.push("{\"cmd\":\"metrics\"}");
    let responses = interactive(addr, &lines);
    responses.last().expect("metrics answered").clone()
}

/// Byte-compares `actual` against the checked-in golden — or rewrites
/// the golden when `OPTRULES_BLESS` is set.
fn check_golden(actual: &str, name: &str) {
    let path = data_path(name);
    if std::env::var_os("OPTRULES_BLESS").is_some() {
        std::fs::write(&path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {} (bless with OPTRULES_BLESS=1): {e}", name));
    assert_eq!(
        actual,
        expected.trim_end(),
        "metrics document diverged from {name}"
    );
}

/// Cheap structural sanity on the document so a blessed golden cannot
/// silently pin nonsense: it parses, and every histogram object keeps
/// `p50 ≤ p90 ≤ p99 ≤ max` and a bucket total equal to `count`.
fn assert_wellformed(doc: &str) {
    use optrules::core::json::{Json, Num};
    fn as_u64(value: &Json) -> Option<u64> {
        match value {
            Json::Num(Num::UInt(n)) => Some(*n),
            _ => None,
        }
    }
    fn walk(value: &Json, histograms: &mut usize) {
        let Json::Obj(fields) = value else {
            if let Json::Arr(items) = value {
                for item in items {
                    walk(item, histograms);
                }
            }
            return;
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if let (Some(count), Some(p50), Some(p90), Some(p99), Some(max), Some(Json::Arr(buckets))) = (
            get("count").and_then(as_u64),
            get("p50_ns").and_then(as_u64),
            get("p90_ns").and_then(as_u64),
            get("p99_ns").and_then(as_u64),
            get("max_ns").and_then(as_u64),
            get("buckets"),
        ) {
            *histograms += 1;
            assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "quantile order");
            let total: u64 = buckets
                .iter()
                .map(|pair| match pair {
                    Json::Arr(lo_count) => as_u64(&lo_count[1]).expect("bucket count"),
                    other => panic!("bucket entry {other:?}"),
                })
                .sum();
            assert_eq!(total, count, "bucket totals must add up to count");
        }
        for (_, nested) in fields {
            walk(nested, histograms);
        }
    }
    let parsed = Json::parse(doc).expect("metrics document parses");
    let mut histograms = 0;
    walk(&parsed, &mut histograms);
    assert!(
        histograms >= 4,
        "expected several histograms, saw {histograms}"
    );
}

#[test]
fn single_node_metrics_document_is_byte_stable() {
    let path = tmp("single");
    let path_s = path.to_str().unwrap();
    let gen = bin()
        .args(["gen", "bank", path_s, "--rows", "20000", "--seed", "3"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success(), "{gen:?}");

    for workers in ["1", "4"] {
        let server = spawn_serve(path_s, workers);
        let doc = metrics_after_transcript(&server.addr);
        assert_wellformed(&doc);
        check_golden(&doc, "metrics_serve_expected.json");
        shutdown(server);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn coordinator_metrics_document_is_byte_stable() {
    let full = tmp("full");
    let full_s = full.to_str().unwrap();
    let gen = bin()
        .args(["gen", "bank", full_s, "--rows", "20000", "--seed", "3"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success(), "{gen:?}");

    let mut shard_paths = Vec::new();
    for (i, (start, end)) in [("0", "8000"), ("8000", "20000")].iter().enumerate() {
        let path = tmp(&format!("shard{i}"));
        let out = bin()
            .args([
                "slice",
                full_s,
                path.to_str().unwrap(),
                "--start",
                start,
                "--end",
                end,
            ])
            .output()
            .expect("slice runs");
        assert!(out.status.success(), "{out:?}");
        shard_paths.push(path);
    }

    for workers in ["1", "4"] {
        let shards: Vec<Server> = shard_paths
            .iter()
            .map(|p| spawn_serve(p.to_str().unwrap(), workers))
            .collect();
        let shard_list = shards
            .iter()
            .map(|s| s.addr.clone())
            .collect::<Vec<_>>()
            .join(",");
        let mut args = vec![
            "coord",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &shard_list,
            "--workers",
            workers,
        ];
        args.extend_from_slice(&FLAGS);
        let coord = spawn_frozen(&args);

        let doc = metrics_after_transcript(&coord.addr);
        assert_wellformed(&doc);
        check_golden(&doc, "metrics_coord_expected.json");

        shutdown(coord);
        for mut shard in shards {
            assert!(shard.child.wait().expect("shard exits").success());
        }
    }

    std::fs::remove_file(&full).unwrap();
    for path in shard_paths {
        std::fs::remove_file(path).unwrap();
    }
}

/// `--trace-log FILE` writes one NDJSON span per phase; on a
/// coordinator the per-shard RPC spans carry the same trace id as
/// their segment, so one slow request correlates across the fan-out.
#[test]
fn coordinator_trace_log_correlates_shard_spans() {
    let full = tmp("traced");
    let full_s = full.to_str().unwrap();
    let gen = bin()
        .args(["gen", "bank", full_s, "--rows", "4000", "--seed", "3"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success(), "{gen:?}");
    let shard_path = tmp("traced-shard");
    let out = bin()
        .args(["slice", full_s, shard_path.to_str().unwrap()])
        .output()
        .expect("slice runs");
    assert!(out.status.success(), "{out:?}");

    let log = std::env::temp_dir().join(format!(
        "optrules-metrics-golden-{}-trace.ndjson",
        std::process::id()
    ));
    let log_s = log.to_str().unwrap().to_string();
    let mut shard = spawn_serve(shard_path.to_str().unwrap(), "1");
    let mut args = vec![
        "coord",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shard.addr,
        "--trace-log",
        &log_s,
        "--slow-query-ms",
        "0",
    ];
    args.extend_from_slice(&FLAGS);
    let coord = spawn_frozen(&args);
    interactive(
        &coord.addr,
        &["{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}"],
    );
    shutdown(coord);
    assert!(shard.child.wait().expect("shard exits").success());

    let spans = std::fs::read_to_string(&log).expect("trace log written");
    let segment = spans
        .lines()
        .find(|l| l.contains("\"span\":\"segment\""))
        .unwrap_or_else(|| panic!("no segment span in {spans:?}"));
    let trace_id = segment
        .split("\"trace\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("segment span names its trace");
    for phase in ["rpc_values", "rpc_count"] {
        let needle = format!("\"trace\":\"{trace_id}\",\"span\":\"{phase}\",\"shard\":0");
        assert!(
            spans.lines().any(|l| l.contains(&needle)),
            "expected a {phase} span under trace {trace_id}: {spans:?}"
        );
    }

    std::fs::remove_file(&full).unwrap();
    std::fs::remove_file(&shard_path).unwrap();
    std::fs::remove_file(&log).unwrap();
}

/// Durable serving exposes the WAL-fsync and checkpoint histograms:
/// appends under `--wal-sync always` record one fsync each, and the
/// shutdown-drain checkpoint is not required — an explicit flush is.
#[test]
fn durable_serve_reports_wal_and_checkpoint_histograms() {
    let path = tmp("durable");
    let path_s = path.to_str().unwrap();
    let gen = bin()
        .args(["gen", "bank", path_s, "--rows", "2000", "--seed", "3"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success(), "{gen:?}");
    let dir = std::env::temp_dir().join(format!(
        "optrules-metrics-golden-{}-durable-dir",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let mut args = vec![
        "serve",
        path_s,
        "--addr",
        "127.0.0.1:0",
        "--data-dir",
        dir.to_str().unwrap(),
    ];
    args.extend_from_slice(&FLAGS);
    let server = spawn_frozen(&args);
    let lines = [
        "{\"cmd\":\"append\",\"rows\":[[4200,35,900,12000,true,false,true]]}",
        "{\"cmd\":\"append\",\"rows\":[[800,61,2500,3000,false,true,false]]}",
        "{\"cmd\":\"flush\"}",
        "{\"cmd\":\"metrics\"}",
    ];
    let responses = interactive(&server.addr, &lines);
    let doc = responses.last().unwrap();
    assert_wellformed(doc);
    assert!(
        doc.contains("\"durability\":{\"wal_fsync\":{\"count\":2,"),
        "two appends must record two WAL fsyncs: {doc}"
    );
    assert!(
        doc.contains("\"checkpoint\":{\"count\":1,"),
        "the explicit flush must record one checkpoint: {doc}"
    );
    shutdown(server);

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
