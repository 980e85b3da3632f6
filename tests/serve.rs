//! The TCP query server (`optrules::core::server`, `optrules serve`):
//! wire-level robustness, cross-connection cache persistence and
//! singleflight coalescing, graceful shutdown, and the shipped binary
//! speaking the batch golden protocol end to end.

mod common;

use optrules::core::json::{self, Json, Num};
use optrules::core::server::{serve, ServerConfig, ServerHandle};
use optrules::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig {
        buckets: 60,
        seed: 7,
        min_support: Ratio::percent(10),
        min_confidence: Ratio::percent(60),
        ..EngineConfig::default()
    }
}

fn engine(rows: u64, seed: u64) -> SharedEngine<Relation> {
    SharedEngine::with_config(BankGenerator::default().to_relation(rows, seed), config())
}

fn start(engine: SharedEngine<Relation>, config: ServerConfig) -> ServerHandle {
    serve(Arc::new(engine), "127.0.0.1:0", config).expect("bind loopback")
}

fn connect(handle: &ServerHandle) -> TcpStream {
    TcpStream::connect(handle.addr()).expect("connect to server")
}

/// One-shot client: write `input`, half-close, read every response
/// line to EOF — also exercising the half-closed-socket path on every
/// call.
fn roundtrip(handle: &ServerHandle, input: &str) -> Vec<String> {
    let mut stream = connect(handle);
    stream.write_all(input.as_bytes()).expect("send requests");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| line.expect("read response"))
        .collect()
}

/// Reads exactly one response line from an interactive connection.
fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "truncated response {line:?}");
    line.trim_end().to_string()
}

/// Pulls a `u64` field out of a `{"ok": {...}}` stats response line.
fn stats_field(line: &str, field: &str) -> u64 {
    let Ok(Json::Obj(envelope)) = Json::parse(line) else {
        panic!("unparseable stats response {line:?}");
    };
    let Some((_, Json::Obj(stats))) = envelope.iter().find(|(key, _)| key == "ok") else {
        panic!("stats response is not ok: {line:?}");
    };
    match stats.iter().find(|(key, _)| key == field) {
        Some((_, Json::Num(Num::UInt(value)))) => *value,
        other => panic!("stats field {field:?} missing or non-integer: {other:?}"),
    }
}

fn stats_line(handle: &ServerHandle) -> String {
    let lines = roundtrip(handle, "{\"cmd\":\"stats\"}\n");
    assert_eq!(lines.len(), 1);
    lines[0].clone()
}

/// The acceptance end-to-end: a warm second connection's identical
/// batch is answered byte-identically, entirely from cache (stats show
/// hits and zero new scans), and every response matches what
/// `run_spec` + the batch envelope produce for the same specs.
#[test]
fn cache_persists_across_connections_and_matches_run_spec() {
    let mut requests = String::new();
    let mut specs = Vec::new();
    for target in ["CardLoan", "AutoWithdraw", "OnlineBanking"] {
        specs.push(QuerySpec::boolean("Balance", target));
    }
    let mut avg = QuerySpec::average("CheckingAccount", "SavingAccount");
    avg.min_average = Some(Real(14_000.0));
    specs.push(avg);
    specs.push(QuerySpec::boolean("NoSuchAttr", "CardLoan"));
    for spec in &specs {
        requests.push_str(&json::encode_spec(spec));
        requests.push('\n');
    }

    // The protocol's promise, computed independently: each spec run
    // alone on a fresh engine, wrapped in the ok/error envelope.
    let reference: Vec<String> = {
        let engine = engine(8_000, 23);
        specs
            .iter()
            .map(|spec| match engine.run_spec(spec) {
                Ok(rules) => json::ok_envelope(json::rule_set_to_value(&rules)).encode(),
                Err(e) => json::error_envelope(e.to_string()).encode(),
            })
            .collect()
    };

    let handle = start(engine(8_000, 23), ServerConfig::default());
    let cold = roundtrip(&handle, &requests);
    assert_eq!(cold, reference, "cold TCP responses == run_spec");

    let after_cold = stats_line(&handle);
    let cold_scans = stats_field(&after_cold, "scans");
    let cold_bucketizations = stats_field(&after_cold, "bucketizations");
    assert!(cold_scans >= 1);

    // Second connection, same batch: byte-identical, served warm.
    let warm = roundtrip(&handle, &requests);
    assert_eq!(warm, cold, "warm responses byte-identical");
    let after_warm = stats_line(&handle);
    assert_eq!(
        stats_field(&after_warm, "scans"),
        cold_scans,
        "zero new scans for the warm connection"
    );
    assert_eq!(
        stats_field(&after_warm, "bucketizations"),
        cold_bucketizations,
        "zero new bucketizations for the warm connection"
    );
    assert!(
        stats_field(&after_warm, "scan_cache_hits") > stats_field(&after_cold, "scan_cache_hits"),
        "the warm connection registered cache hits"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_json_gets_an_error_and_the_connection_lives_on() {
    let handle = start(engine(2_000, 5), ServerConfig::default());
    let mut stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream.write_all(b"this is not json\n").expect("send");
    let response = read_line(&mut reader);
    assert!(
        response.starts_with("{\"error\":\"bad request"),
        "{response}"
    );

    // Unknown keys and bad control frames are errors too, same conn.
    stream
        .write_all(b"{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"},\"bogus\":1}\n")
        .expect("send");
    let response = read_line(&mut reader);
    assert!(response.contains("unknown key"), "{response}");
    stream.write_all(b"{\"cmd\":\"reboot\"}\n").expect("send");
    let response = read_line(&mut reader);
    assert!(response.contains("unknown cmd"), "{response}");

    // The connection still answers real queries afterwards.
    stream
        .write_all(b"{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n")
        .expect("send");
    let response = read_line(&mut reader);
    assert!(response.starts_with("{\"ok\":"), "{response}");

    handle.shutdown();
    handle.join();
}

/// One request line must not be able to abort the server: thread,
/// bucket, sample and grid-cell counts far past the documented limits
/// (each used to end the process with SIGABRT, an allocation failure,
/// or a scan that never returns), and a spec carrying 60 000 junk keys
/// (just under the 1 MiB line cap; the duplicate-key check used to be
/// quadratic), are each answered
/// with an error envelope at once — and the same connection then
/// answers a real query exactly as `run_spec` does.
#[test]
fn hostile_lines_get_error_envelopes_and_the_connection_answers_on() {
    let handle = start(engine(2_000, 5), ServerConfig::default());
    let mut stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let junk: String = (0..60_000).map(|i| format!(",\"k{i}\":{i}")).collect();
    let hostile = [
        (
            r#"{"attr":"Balance","objective":{"bool":"CardLoan"},"threads":300000}"#.to_string(),
            "\\\"threads\\\" 300000 exceeds the limit of 256",
        ),
        (
            r#"{"attr":"Balance","objective":{"bool":"CardLoan"},"buckets":100000000000}"#.into(),
            "\\\"buckets\\\" 100000000000 exceeds the limit of 1048576",
        ),
        (
            r#"{"attr":"Balance","objective":{"bool":"CardLoan"},"samples_per_bucket":10000000000000}"#
                .into(),
            "\\\"samples_per_bucket\\\" 600000000000000 exceeds the limit of 67108864",
        ),
        (
            r#"{"attr":"Balance","attr2":"Age","objective":{"bool":"CardLoan"},"buckets":200000}"#
                .into(),
            "40000000000 exceeds the limit of 262144",
        ),
        (
            r#"{"cmd":"count","attr":"Balance","cuts":[1],"threads":300000,"all_booleans":true}"#
                .into(),
            "\\\"threads\\\" 300000 exceeds the limit of 256",
        ),
        (
            format!(r#"{{"attr":"Balance","objective":{{"bool":"CardLoan"}}{junk}}}"#),
            "unknown key \\\"k0\\\" in a query spec",
        ),
    ];
    for (line, needle) in &hostile {
        let sent = std::time::Instant::now();
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let response = read_line(&mut reader);
        assert!(
            response.starts_with("{\"error\":\"bad request: ") && response.contains(needle),
            "{response}"
        );
        assert!(
            sent.elapsed() < std::time::Duration::from_secs(1),
            "rejection took {:?}",
            sent.elapsed()
        );
    }

    let spec = QuerySpec::boolean("Balance", "CardLoan");
    stream
        .write_all((json::encode_spec(&spec) + "\n").as_bytes())
        .expect("send");
    let expected = engine(2_000, 5).run_spec(&spec).expect("reference run");
    assert_eq!(
        read_line(&mut reader),
        json::ok_envelope(json::rule_set_to_value(&expected)).encode()
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_line_errors_then_disconnects_without_wedging_the_server() {
    let handle = start(
        engine(2_000, 5),
        ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        },
    );
    let mut stream = connect(&handle);
    let long_line = format!("{}\n", "x".repeat(4096));
    stream.write_all(long_line.as_bytes()).expect("send");
    let lines: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|line| line.expect("read response"))
        .collect();
    // Exactly one error response, then a clean disconnect (EOF).
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("request line exceeds 256 bytes"),
        "{lines:?}"
    );

    // The worker is not wedged: a fresh connection is served.
    let ok = roundtrip(
        &handle,
        "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n",
    );
    assert_eq!(ok.len(), 1);
    assert!(ok[0].starts_with("{\"ok\":"), "{ok:?}");

    handle.shutdown();
    handle.join();
}

#[test]
fn interleaved_pipelined_requests_answer_in_order() {
    let handle = start(engine(3_000, 9), ServerConfig::default());
    // Specs, garbage, a control frame, and a failing spec interleaved
    // in one write: one response per non-blank line, in request order.
    let input = concat!(
        "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n",
        "garbage\n",
        "\n", // blank: skipped, not answered
        "{\"cmd\":\"stats\"}\n",
        "{\"attr\":\"NoSuchAttr\",\"objective\":{\"bool\":\"CardLoan\"}}\n",
        "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"AutoWithdraw\"}}\n",
    );
    let lines = roundtrip(&handle, input);
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert!(
        lines[0].starts_with("{\"ok\":{\"attr\":\"Balance\""),
        "{lines:?}"
    );
    assert!(
        lines[1].starts_with("{\"error\":\"bad request"),
        "{lines:?}"
    );
    assert!(lines[2].starts_with("{\"ok\":{\"generation\""), "{lines:?}");
    assert!(lines[3].starts_with("{\"error\":"), "{lines:?}");
    assert!(
        lines[4].starts_with("{\"ok\":{\"attr\":\"Balance\""),
        "{lines:?}"
    );

    handle.shutdown();
    handle.join();
}

/// Cross-connection coalescing: concurrent clients issuing the same
/// cold spec are served by exactly one bucketization and one counting
/// scan — the singleflight barrier tests of `tests/concurrent_engine.rs`
/// extended to the TCP path. Deterministic regardless of timing:
/// concurrent misses coalesce on the in-flight computation and late
/// arrivals hit the cache.
#[test]
fn concurrent_identical_cold_specs_share_one_scan() {
    let handle = start(
        engine(30_000, 17),
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    );
    let request = "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n";
    let barrier = std::sync::Barrier::new(4);
    let first = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    roundtrip(&handle, request)
                })
            })
            .collect();
        let responses: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for response in &responses {
            assert_eq!(response, &responses[0], "all clients see the same answer");
        }
        responses.into_iter().next().unwrap()
    });
    assert!(first[0].starts_with("{\"ok\":"), "{first:?}");

    let stats = stats_line(&handle);
    assert_eq!(stats_field(&stats, "scans"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "bucketizations"), 1, "{stats}");

    handle.shutdown();
    handle.join();
}

/// Live appends over TCP: within one pipelined connection, order is
/// program order (a spec before the append mines the old generation,
/// a spec after it the new one, and the stats frame reflects exactly
/// what preceded it); other connections then see the new generation;
/// malformed rows error without appending anything.
#[test]
fn append_frames_apply_in_order_and_survive_connections() {
    let handle = start(engine(3_000, 9), ServerConfig::default());
    let row = "[3100.5,41,1200,15000,true,false,true]";
    let input = format!(
        concat!(
            "{{\"attr\":\"Balance\",\"objective\":{{\"bool\":\"CardLoan\"}}}}\n",
            "{{\"cmd\":\"append\",\"rows\":[{row},{row}]}}\n",
            "{{\"attr\":\"Balance\",\"objective\":{{\"bool\":\"CardLoan\"}}}}\n",
            "{{\"cmd\":\"append\",\"rows\":[[1,true]]}}\n",
            "{{\"cmd\":\"stats\"}}\n",
        ),
        row = row
    );
    let lines = roundtrip(&handle, &input);
    assert_eq!(lines.len(), 5, "{lines:?}");
    let total_rows = |line: &str| {
        let Ok(Json::Obj(envelope)) = Json::parse(line) else {
            panic!("unparseable response {line:?}");
        };
        let Some((_, Json::Obj(rules))) = envelope.iter().find(|(key, _)| key == "ok") else {
            panic!("response is not ok: {line:?}");
        };
        match rules.iter().find(|(key, _)| key == "total_rows") {
            Some((_, Json::Num(Num::UInt(rows)))) => *rows,
            other => panic!("total_rows missing: {other:?}"),
        }
    };
    assert_eq!(total_rows(&lines[0]), 3_000, "pre-append spec");
    assert_eq!(
        lines[1], "{\"ok\":{\"appended\":2,\"generation\":1,\"rows\":3002}}",
        "append ack bytes"
    );
    assert_eq!(total_rows(&lines[2]), 3_002, "post-append spec");
    assert!(
        lines[3].contains("row 0 has 2 cells"),
        "malformed row: {lines:?}"
    );
    assert_eq!(stats_field(&lines[4], "generation"), 1);
    assert_eq!(stats_field(&lines[4], "rows"), 3_002);

    // A fresh connection mines the new generation.
    let next = roundtrip(
        &handle,
        "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n",
    );
    assert_eq!(total_rows(&next[0]), 3_002);

    handle.shutdown();
    handle.join();
}

/// Appends from concurrent connections serialize into a total order:
/// every row lands exactly once and the final generation counts every
/// append frame.
#[test]
fn concurrent_appends_serialize_without_losing_rows() {
    let handle = start(
        engine(2_000, 5),
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    );
    const CLIENTS: usize = 4;
    const APPENDS_PER_CLIENT: usize = 5;
    let barrier = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let handle = &handle;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..APPENDS_PER_CLIENT {
                    let lines = roundtrip(
                        handle,
                        "{\"cmd\":\"append\",\"rows\":[[1,2,3,4,true,false,true]]}\n",
                    );
                    assert!(
                        lines[0].starts_with("{\"ok\":{\"appended\":1,"),
                        "{lines:?}"
                    );
                }
            });
        }
    });
    let stats = stats_line(&handle);
    assert_eq!(
        stats_field(&stats, "generation"),
        (CLIENTS * APPENDS_PER_CLIENT) as u64
    );
    assert_eq!(
        stats_field(&stats, "rows"),
        2_000 + (CLIENTS * APPENDS_PER_CLIENT) as u64
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_frame_drains_idle_connections_and_join_returns() {
    let handle = start(engine(2_000, 5), ServerConfig::default());
    let addr = handle.addr();

    // An idle connection that has sent nothing.
    let idle = connect(&handle);

    // Another connection pipelines a spec and the shutdown frame.
    let lines = roundtrip(
        &handle,
        concat!(
            "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n",
            "{\"cmd\":\"shutdown\"}\n",
        ),
    );
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":"), "{lines:?}");
    assert_eq!(lines[1], "{\"ok\":\"shutdown\"}");
    assert!(handle.is_shutting_down());

    // join returns: the idle connection was EOF'd, not waited on
    // forever, and the acceptor stopped.
    handle.join();
    let leftover: Vec<String> = BufReader::new(idle)
        .lines()
        .map(|line| line.expect("clean EOF"))
        .collect();
    assert!(leftover.is_empty(), "idle conn saw data: {leftover:?}");
    // The listener is gone; new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "listener still alive");
}

/// A shutdown frame from a client that vanishes without reading its
/// ack must still stop the server: the command is honored even when
/// writing the `{"ok":"shutdown"}` response fails.
#[test]
fn shutdown_survives_a_client_that_never_reads_the_ack() {
    let handle = start(engine(2_000, 5), ServerConfig::default());
    {
        let mut stream = connect(&handle);
        stream
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        // Drop both halves immediately: the server's ack write may hit
        // a closed socket.
    }
    // join returning is the proof; if the command were discarded on a
    // failed write this would hang (the test harness would time out).
    handle.join();
}

// ---------------------------------------------------------------------
// The shipped binary, end to end over TCP.
// ---------------------------------------------------------------------

mod binary {
    use super::*;
    use crate::common::{bin, roundtrip as tcp_roundtrip, shutdown, spawn_listening, Server};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("optrules-serve-{}-{name}.rel", std::process::id()))
    }

    /// Spawns `optrules serve` on an ephemeral port.
    fn spawn_server(path: &str, extra: &[&str]) -> Server {
        let flags = ["--addr", "127.0.0.1:0", "--buckets", "100"];
        let thresholds = [
            "--min-support",
            "10",
            "--min-confidence",
            "60",
            "--seed",
            "7",
        ];
        spawn_listening(
            bin()
                .args(["serve", path])
                .args(flags)
                .args(thresholds)
                .args(extra),
        )
    }

    /// Removes every `,"gauges":{…}` object from a response line. The
    /// gauges (uptime, live connections, in-flight batches) exist only
    /// when a server answers, so the batch-mode goldens lack them; the
    /// object holds no nested braces, so scanning to the first `}` is
    /// exact. The loop strips *all* occurrences — a coordinator stats
    /// line embeds one per shard plus its own.
    fn strip_gauges(line: &str) -> String {
        let mut out = line.to_string();
        while let Some(start) = out.find(",\"gauges\":{") {
            let close = out[start..].find('}').expect("gauges object closes");
            out.replace_range(start..start + close + 1, "");
        }
        out
    }

    /// The checked-in golden transcript over TCP: at any worker count,
    /// the server's responses to `tests/data/batch_specs.ndjson` are
    /// byte-identical to `optrules batch` (same golden file), the
    /// second connection is served warm, and the shutdown frame makes
    /// the process exit 0.
    #[test]
    fn serve_speaks_the_batch_golden_protocol_warm_and_exits_cleanly() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
        let specs = std::fs::read_to_string(dir.join("batch_specs.ndjson")).unwrap();
        let expected: Vec<String> = std::fs::read_to_string(dir.join("batch_expected.ndjson"))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let path = tmp("golden");
        let path_s = path.to_str().unwrap();
        let gen = bin()
            .args(["gen", "bank", path_s, "--rows", "20000", "--seed", "3"])
            .output()
            .expect("gen runs");
        assert!(gen.status.success());

        for workers in ["1", "4"] {
            let server = spawn_server(path_s, &["--workers", workers]);

            let cold = tcp_roundtrip(&server.addr, &specs);
            assert_eq!(cold, expected, "--workers {workers} diverged from golden");
            let warm = tcp_roundtrip(&server.addr, &specs);
            assert_eq!(warm, expected, "--workers {workers} warm run diverged");

            let stats = tcp_roundtrip(&server.addr, "{\"cmd\":\"stats\"}\n");
            assert_eq!(stats.len(), 1);
            assert!(
                stats_field(&stats[0], "scan_cache_hits") > 0,
                "warm run must hit the cache: {}",
                stats[0]
            );

            // Graceful shutdown must exit 0.
            shutdown(server);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The live golden pair over TCP: a fresh `optrules serve` process
    /// answers `tests/data/live_specs.ndjson` (specs + append/stats
    /// frames + malformed rows) byte-identically to `optrules batch`
    /// over the same relation — one wire contract, two transports.
    /// Also exercises `--write-timeout-secs` end to end as a valid
    /// flag.
    #[test]
    fn serve_speaks_the_live_golden_protocol() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
        let specs = std::fs::read_to_string(dir.join("live_specs.ndjson")).unwrap();
        let expected: Vec<String> = std::fs::read_to_string(dir.join("live_expected.ndjson"))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let path = tmp("live-golden");
        let path_s = path.to_str().unwrap();
        let gen = bin()
            .args(["gen", "bank", path_s, "--rows", "20000", "--seed", "3"])
            .output()
            .expect("gen runs");
        assert!(gen.status.success());

        let server = spawn_server(
            path_s,
            &["--cache-shards", "1", "--write-timeout-secs", "20"],
        );
        // Server stats answers carry a trailing `"gauges"` object
        // (uptime/connections/in-flight) that batch mode — the golden
        // — does not; strip it so the rest stays byte-compared.
        let lines: Vec<String> = tcp_roundtrip(&server.addr, &specs)
            .iter()
            .map(|line| strip_gauges(line))
            .collect();
        assert_eq!(lines, expected, "TCP live responses diverged from golden");

        shutdown(server);
        std::fs::remove_file(&path).unwrap();
    }
}
