//! The closed-loop client: each connection sends one NDJSON line,
//! waits for the reply, checks it, and only then sends the next
//! (depth 1 — the callers are analysts and dashboards that wait for
//! each answer). Reply checks run between requests, so they cost the
//! client think time, never measured latency.

use crate::stream::{OpKind, Stream, FRAME_ROWS};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Failure messages kept per connection (the count is always exact).
const KEPT_FAILURES: usize = 5;
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    reply: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
            out: Vec::new(),
            reply: String::new(),
        })
    }

    /// One request line out (a single write), one reply line back.
    /// Returns the round-trip time and the reply without its newline;
    /// a closed connection is an error, never an empty reply.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<(Duration, &str)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reply.clear();
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        let n = self.reader.read_line(&mut self.reply)?;
        let elapsed = start.elapsed();
        if n == 0 || !self.reply.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short read: connection closed mid-reply",
            ));
        }
        Ok((elapsed, self.reply.trim_end_matches('\n')))
    }
}

/// Nearest-rank percentile of sorted samples — `None` unless at least
/// ten samples lie beyond it, so a reported tail is never one outlier.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    let n = sorted.len();
    // Integer arithmetic in permille: 99.9 % of 20 000 is rank 19 980
    // exactly, where the float product rounds up past it.
    let permille = (pct * 10.0).round() as usize;
    let rank = (permille * n).div_ceil(1000);
    let idx = rank.max(1) - 1;
    if idx >= n || n - 1 - idx < 10 {
        return None;
    }
    Some(sorted[idx])
}

/// The highest percentile the sample supports, with its value.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find_map(|pct| percentile(sorted, pct).map(|v| (pct, v)))
}

/// `rows` out of an append ack `{"ok":{"appended":k,"generation":g,"rows":n}}`.
pub fn acked_rows(reply: &str) -> Option<u64> {
    let rest = reply.strip_prefix("{\"ok\":{\"appended\":")?;
    let digits = &rest[rest.find("\"rows\":")? + 7..];
    digits.strip_suffix("}}")?.parse().ok()
}

/// What one connection saw during the window.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub spec_ns: Vec<u64>,
    pub append_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(request line, reply)` of the first unpooled specs, for the oracle.
    pub kept: Vec<(String, String)>,
    /// `rows` of the last append ack.
    pub rows_acked: Option<u64>,
    pub elapsed: Duration,
}

impl ConnLog {
    /// Counts one failed operation and keeps the first few messages.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }
}

pub struct Window<'a> {
    pub stream: &'a Stream,
    pub addr: &'a str,
    pub seconds: f64,
    /// Keep sending past `seconds` until each connection holds this
    /// many spec samples, so `lat_p90_ms` always has ten beyond it…
    pub min_samples: usize,
    /// …but never past this many seconds.
    pub max_seconds: f64,
    /// Unpooled `(line, reply)` pairs to keep for the oracle.
    pub keep: usize,
    /// First answer of every pool slot (empty when unpooled): repeats
    /// must equal it byte for byte.
    pub expected: &'a [String],
    /// Rows the server holds when the window starts.
    pub rows_before: u64,
    /// Index of the first operation (the warm-up may have consumed some).
    pub first_op: usize,
}

fn shorten(text: &str) -> &str {
    let end = text.char_indices().nth(160).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

/// Drives every connection of the workload for the window and returns
/// one log per connection. Refuses more connections than cores: the
/// client must never be what the scheduler starves.
pub fn run_window(w: &Window<'_>) -> Result<Vec<ConnLog>, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = w.stream.connections;
    if conns > cores {
        return Err(format!(
            "{conns} connections on {cores} cores: the loader refuses to oversubscribe"
        ));
    }
    let mut sockets = Vec::new();
    for _ in 0..conns {
        sockets.push(Conn::connect(w.addr).map_err(|e| format!("connecting {}: {e}", w.addr))?);
    }
    let barrier = Barrier::new(conns);
    let logs: Vec<Result<ConnLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sockets
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let barrier = &barrier;
                scope.spawn(move || drive(w, c, conn, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    logs.into_iter().collect()
}

fn drive(w: &Window<'_>, c: usize, mut conn: Conn, barrier: &Barrier) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let mut rows = w.rows_before;
    let budget = Duration::from_secs_f64(w.seconds);
    let cap = Duration::from_secs_f64(w.max_seconds);
    barrier.wait();
    let start = Instant::now();
    let mut i = w.first_op;
    loop {
        let now = start.elapsed();
        let enough = log.spec_ns.len() >= w.min_samples
            && (!w.stream.appends_in_window() || log.append_ns.len() >= w.min_samples);
        if now >= cap || (now >= budget && enough) {
            break;
        }
        let op = w.stream.op(c, i);
        let think = w.stream.think(c, i);
        if !think.is_zero() {
            std::thread::sleep(think);
        }
        i += 1;
        log.attempted += 1;
        let (rtt, reply) = match conn.roundtrip(&op.line) {
            Ok(pair) => pair,
            Err(e) => {
                // The connection is gone: nothing further can succeed.
                log.fail(format!("op {i}: {e}"));
                break;
            }
        };
        let ns = rtt.as_nanos() as u64;
        match op.kind {
            OpKind::Spec(Some(slot)) => {
                log.spec_ns.push(ns);
                if reply != w.expected[slot] {
                    log.fail(format!(
                        "pool slot {slot} changed its answer: {}",
                        shorten(reply)
                    ));
                }
            }
            OpKind::Spec(None) => {
                log.spec_ns.push(ns);
                if !reply.starts_with("{\"ok\":{") {
                    log.fail(format!("op {i}: {}", shorten(reply)));
                } else if log.kept.len() < w.keep {
                    log.kept.push((op.line.to_string(), reply.to_string()));
                }
            }
            OpKind::Append => {
                log.append_ns.push(ns);
                rows += FRAME_ROWS;
                match acked_rows(reply) {
                    Some(n) if n == rows => log.rows_acked = Some(n),
                    _ => log.fail(format!("append acked {} not rows={rows}", shorten(reply))),
                }
            }
        }
    }
    log.elapsed = start.elapsed();
    Ok(log)
}

/// The post-window append probe: `frames` append frames on one
/// connection, depth 1, and their ack latencies; acks must count rows
/// up from `rows_before` by 100 per frame.
///
/// A lone sub-millisecond ping-pong on an otherwise idle box measures
/// mostly where the scheduler put its two ends: ≈ 9 µs per round trip
/// when client and worker share a core, ≈ 52 µs when a reply has to
/// wake an idle one, sticky within a run and flipping between runs. The
/// caller therefore confines both ends to one CPU first.
pub fn append_probe(
    conn: &mut Conn,
    stream: &Stream,
    frames: usize,
    rows_before: u64,
    log: &mut ConnLog,
) -> Vec<u64> {
    let mut ns = Vec::with_capacity(frames);
    let mut rows = rows_before;
    for k in 0..frames {
        log.attempted += 1;
        rows += FRAME_ROWS;
        match conn.roundtrip(stream.probe_frame(k)) {
            Ok((rtt, reply)) => {
                ns.push(rtt.as_nanos() as u64);
                if acked_rows(reply) != Some(rows) {
                    log.fail(format!(
                        "probe append acked {} not rows={rows}",
                        shorten(reply)
                    ));
                }
            }
            Err(e) => {
                log.fail(format!("probe append {k}: {e}"));
                break;
            }
        }
    }
    log.rows_acked = Some(rows);
    ns.sort_unstable();
    ns
}

/// Round trip of a malformed line: socket, framing and worker wake-up
/// with no engine work at all. Median of `n`, in nanoseconds.
pub fn rtt_floor(conn: &mut Conn, n: usize) -> Result<u64, String> {
    let mut ns = Vec::with_capacity(n);
    for _ in 0..n {
        let (rtt, reply) = conn.roundtrip("?").map_err(|e| format!("rtt probe: {e}"))?;
        if !reply.starts_with("{\"error\":") {
            return Err(format!(
                "rtt probe: a malformed line answered {}",
                shorten(reply)
            ));
        }
        ns.push(rtt.as_nanos() as u64);
    }
    Ok(crate::trace::median(&mut ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_core::server::{serve, ServerConfig};
    use optrules_core::{EngineConfig, Ratio, SharedEngine};
    use optrules_relation::gen::{BankGenerator, DataGenerator};
    use optrules_relation::ChunkedRelation;
    use std::sync::Arc;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 90.0), Some(90));
        assert_eq!(percentile(&sorted, 99.0), None);
        assert_eq!(
            percentile(&sorted[..99], 90.0),
            None,
            "99 samples leave 9 beyond p90"
        );
        assert_eq!(percentile(&sorted[..20], 50.0), Some(10));
        assert_eq!(percentile(&sorted[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(tail(&sorted), Some((90.0, 90)));
        let big: Vec<u64> = (1..=20_000).collect();
        assert_eq!(tail(&big), Some((99.9, 19_980)));
        assert_eq!(tail(&sorted[..5]), None);
    }

    #[test]
    fn append_acks_parse_strictly() {
        assert_eq!(
            acked_rows("{\"ok\":{\"appended\":100,\"generation\":3,\"rows\":200300}}"),
            Some(200_300)
        );
        assert_eq!(acked_rows("{\"error\":\"bad request\"}"), None);
        assert_eq!(
            acked_rows("{\"ok\":{\"appended\":100,\"generation\":3,\"rows\":12"),
            None
        );
    }

    /// The loader against an in-process `optrules_core::server::serve`:
    /// pooled repeats match their first answer, appends count rows up,
    /// malformed lines price the floor — no child process involved.
    #[test]
    fn loadgen_drives_an_in_process_server() {
        let rel = BankGenerator::default().to_relation(5_000, 7);
        let config = EngineConfig {
            buckets: 100,
            min_support: Ratio::percent(5),
            min_confidence: Ratio::percent(55),
            seed: 7,
            ..EngineConfig::default()
        };
        let engine = Arc::new(SharedEngine::with_config(ChunkedRelation::new(rel), config));
        let handle = serve(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = handle.addr().to_string();

        let stream = Stream::new("warm_serve", 9);
        let mut conn = Conn::connect(&addr).unwrap();
        let expected: Vec<String> = stream
            .warmup()
            .iter()
            .map(|op| conn.roundtrip(&op.line).unwrap().1.to_string())
            .collect();
        assert!(expected.iter().all(|r| r.starts_with("{\"ok\":{")));

        let window = Window {
            stream: &stream,
            addr: &addr,
            seconds: 0.2,
            min_samples: 50,
            max_seconds: 5.0,
            keep: 0,
            expected: &expected,
            rows_before: 5_000,
            first_op: 0,
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= stream.connections {
            let logs = run_window(&window).expect("window runs");
            assert_eq!(logs.len(), 2);
            for log in &logs {
                assert_eq!(log.failed, 0, "{:?}", log.failures);
                assert!(log.spec_ns.len() >= 50 && log.attempted == log.spec_ns.len() as u64);
            }
            // A wrong expectation is a counted failure, not a panic.
            let mut wrong = expected.clone();
            wrong[0].push(' ');
            let logs = run_window(&Window {
                expected: &wrong,
                min_samples: 250,
                ..window
            })
            .unwrap();
            assert!(logs.iter().map(|l| l.failed).sum::<u64>() >= 2);
        } else {
            assert!(run_window(&window).unwrap_err().contains("refuses"));
        }

        let mut log = ConnLog::default();
        let ns = append_probe(&mut conn, &stream, 3, 5_000, &mut log);
        assert_eq!((ns.len(), log.failed, log.rows_acked), (3, 0, Some(5_300)));
        let ns = append_probe(&mut conn, &stream, 1, 5_000, &mut log);
        assert_eq!(
            (ns.len(), log.failed),
            (1, 1),
            "a wrong row count is a failure"
        );
        assert!(rtt_floor(&mut conn, 20).unwrap() > 0);
        drop(conn);
        handle.shutdown();
        handle.join();
    }
}
