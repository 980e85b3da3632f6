//! Request streams: a pure function of `(workload, --seed)`. The
//! server only ever receives the generated lines.
//!
//! Three shapes cover the five workloads:
//!
//! * **pooled** (`warm_serve`, `rect2d`) — a fixed pool of distinct
//!   specs whose count nodes all fit the cache; the warm-up sends each
//!   once, the window replays the pool in a per-connection seeded
//!   order, so every request is a cache hit and the optimizers run.
//! * **cold** (`cold_scan`, `coord_cold`) — every request carries a
//!   never-repeated sampling `seed`, so bucketization *and* scan miss.
//!   Kinds rotate in a fixed 10-cycle (4 Boolean, 3 Boolean under a
//!   numeric `given`, 2 §5 average, 1 2-D rectangle): the shares are
//!   chosen so that neither the median nor the 90th percentile of the
//!   mix sits on the boundary between two kinds' cost clusters.
//!   `coord_cold` sends the same cycle at bucket counts of its own
//!   ([`COORD_BUCKETS`], [`COORD_GRID`]), which fix the byte size of
//!   every shard reply.
//! * **append/requery** (`append_requery`) — one 100-row append frame,
//!   then one fixed dashboard spec that is cold because the generation
//!   moved.

use optrules_core::json::{self, Json, Num};
use optrules_core::{CondSpec, QuerySpec, Ratio};
use optrules_relation::gen::{BankGenerator, DataGenerator};
use std::borrow::Cow;
use std::time::Duration;

/// Numeric attributes of the bank relation, in column order.
pub const ATTRS: [&str; 4] = ["Balance", "Age", "CheckingAccount", "SavingAccount"];
/// Boolean attributes of the bank relation, in column order.
pub const TARGETS: [&str; 3] = ["CardLoan", "AutoWithdraw", "OnlineBanking"];
/// Rows per append frame.
pub const FRAME_ROWS: u64 = 100;
/// Distinct append frames generated per seed; cycles reuse them.
const FRAMES: usize = 32;
/// Length of the cold kind rotation.
pub const COLD_CYCLE: usize = 10;
/// Buckets of `coord_cold`'s 1-D requests. A shard writes a reply of
/// 8 KiB or more as body, then `"\n"`, without `TCP_NODELAY`: Nagle
/// holds the newline until the coordinator's kernel acknowledges the
/// body, which it does at once when the body is larger than loopback's
/// 65 483-byte segment and after the 40 ms delayed-ACK timer when it
/// is smaller. At the session's M = 1000 two replies sit **on** that
/// edge (the last 8192-index `values` chunk, ≈ 66 KB, and the counts,
/// 44–51 KB, against the kernel's running estimate of the segment
/// size), and a coordinator spends its whole life in one of two
/// latency regimes 20 ms apart — one run in ten on one day, every
/// second run on another. At M = 384 the 40·M sample is one chunk per
/// shard (7680 ± 62 indices) whose reply is ≈ 140 KB, never held, or
/// ≈ 23 KB for whole-number `Age`, always held; the counts are
/// 11–21 KB, always held, or under 8 KiB for `Age`'s ≈ 60 distinct
/// cuts, one write. Every 1-D request waits for exactly one timer.
const COORD_BUCKETS: usize = 384;
/// Buckets per axis of `coord_cold`'s rectangles: both 320-value
/// samples (< 6 KB) and the 256-cell grid (≈ 2 KB) leave a shard in
/// one write, so a rectangle waits for no timer. (At the default 31
/// the grid reply is ≈ 7.6 KB, on the 8 KiB edge.)
const COORD_GRID: usize = 16;
/// Upper end of `coord_cold`'s think time. Its replies end on a
/// delayed-ACK timer, which fires on a tick of the kernel's timer
/// wheel; a client that sends the next request the moment a reply
/// arrives starts every request on a tick, so its latencies are whole
/// ticks apart (4 ms at 250 Hz) and the median jumps a whole tick when
/// the work before the timer crosses a tick edge. Pausing for a seeded
/// time drawn evenly from 0–20 ms (a whole number of ticks at 100, 250,
/// 300 and 1000 Hz) spreads the starts evenly over a tick, and the
/// median moves with the work.
const COORD_THINK_NS: u64 = 20_000_000;
/// Sampling seeds of warm-up requests start here, past any window index.
const WARMUP_SEED_OFFSET: u64 = 1 << 19;

/// SplitMix64: the stream's only source of randomness, frozen here so
/// a seed means the same requests on every commit.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What one operation is, for the client's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A query spec; `Some(i)` names its pool slot when pooled.
    Spec(Option<usize>),
    /// An append frame.
    Append,
}

/// One operation: the line to send and what it is.
pub struct Op<'a> {
    pub line: Cow<'a, str>,
    pub kind: OpKind,
}

enum Shape {
    Pooled {
        pool: Vec<String>,
        orders: Vec<Vec<usize>>,
    },
    Cold {
        base: u64,
        /// `coord_cold`: requests carry its own bucket counts.
        coord: bool,
    },
    AppendRequery {
        dashboard: String,
    },
}

/// The request stream of one workload at one seed.
pub struct Stream {
    shape: Shape,
    /// Connections the workload drives.
    pub connections: usize,
    /// 100-row append frames: the append/requery cycle's own, and the
    /// post-window append probe's everywhere else.
    frames: Vec<String>,
}

fn pct(p: u64) -> Option<Ratio> {
    Some(Ratio::percent(p))
}

fn warm_pool() -> Vec<String> {
    let supports = [3, 5, 10, 20];
    let confidences = [50, 55, 60, 70];
    let mut pool = Vec::new();
    for attr in ATTRS {
        for target in TARGETS {
            for s in supports {
                for c in confidences {
                    let mut spec = QuerySpec::boolean(attr, target);
                    spec.min_support = pct(s);
                    spec.min_confidence = pct(c);
                    pool.push(json::encode_spec(&spec));
                }
            }
        }
        for target in ATTRS.iter().filter(|t| **t != attr) {
            for s in supports {
                let mut spec = QuerySpec::average(attr, *target);
                spec.min_support = pct(s);
                pool.push(json::encode_spec(&spec));
            }
        }
    }
    pool
}

const RECT_PAIRS: [(&str, &str); 3] = [
    ("Balance", "Age"),
    ("CheckingAccount", "SavingAccount"),
    ("Age", "SavingAccount"),
];

fn rect_pool() -> Vec<String> {
    let thresholds = [
        (3, 50),
        (5, 55),
        (10, 60),
        (20, 70),
        (3, 70),
        (5, 60),
        (10, 55),
        (20, 50),
    ];
    let mut pool = Vec::new();
    for (x, y) in RECT_PAIRS {
        for target in TARGETS {
            for (s, c) in thresholds {
                let mut spec = QuerySpec::region2d(x, y, target);
                spec.buckets = Some(48);
                spec.min_support = pct(s);
                spec.min_confidence = pct(c);
                pool.push(json::encode_spec(&spec));
            }
        }
    }
    pool
}

/// The `i`-th cold request. §5 averages target `Age`, whose values are
/// whole numbers: their per-bucket sums are exact in `f64`, so a
/// 2-shard merge is byte-identical to one node (float sums of
/// arbitrary values are documented as not associative across shards).
fn cold_spec(i: usize, seed: u64, coord: bool) -> QuerySpec {
    const ONE_D: [&str; 3] = ["Balance", "CheckingAccount", "SavingAccount"];
    let round = i / COLD_CYCLE;
    let target = TARGETS[round % 3];
    let mut spec = match i % COLD_CYCLE {
        0 | 3 | 6 | 8 => QuerySpec::boolean(ATTRS[(i + round) % 4], target),
        1 | 4 | 7 => {
            let mut spec = QuerySpec::boolean(ONE_D[(i + round) % 3], target);
            spec.given = vec![CondSpec::NumInRange {
                attr: "Age".into(),
                lo: 30.0.into(),
                hi: 50.0.into(),
            }];
            spec
        }
        5 | 9 => QuerySpec::average(ONE_D[(i + round) % 3], "Age"),
        _ => {
            let (x, y) = RECT_PAIRS[round % 3];
            QuerySpec::region2d(x, y, target)
        }
    };
    if coord {
        spec.buckets = Some(if spec.attr2.is_some() {
            COORD_GRID
        } else {
            COORD_BUCKETS
        });
    }
    spec.seed = Some(seed);
    spec
}

fn append_frames(seed: u64) -> Vec<String> {
    let mut rows: Vec<Json> = Vec::new();
    BankGenerator::default().generate(FRAMES as u64 * FRAME_ROWS, seed, &mut |nums, bools| {
        let cells = nums
            .iter()
            .map(|&x| Json::Num(Num::Float(x)))
            .chain(bools.iter().map(|&b| Json::Bool(b)))
            .collect();
        rows.push(Json::Arr(cells));
    });
    rows.chunks(FRAME_ROWS as usize)
        .map(|frame| {
            Json::Obj(vec![
                ("cmd".into(), Json::Str("append".into())),
                ("rows".into(), Json::Arr(frame.to_vec())),
            ])
            .encode()
        })
        .collect()
}

impl Stream {
    /// Builds the stream of `workload` (a registry name) at `seed`.
    pub fn new(workload: &str, seed: u64) -> Stream {
        let mut state = seed ^ 0x6c65_6467_6572; // "ledger"
        let frames = append_frames(splitmix64(&mut state));
        let pooled = |pool: Vec<String>, state: &mut u64| {
            let orders = (0..2)
                .map(|_| shuffled(pool.len(), splitmix64(state)))
                .collect();
            Shape::Pooled { pool, orders }
        };
        let (shape, connections) = match workload {
            "warm_serve" => (pooled(warm_pool(), &mut state), 2),
            "rect2d" => (pooled(rect_pool(), &mut state), 2),
            "cold_scan" | "coord_cold" => {
                // 2^40 bases × 2^20 indices: seeds of different runs
                // never collide, and window and warm-up ranges are
                // disjoint within one.
                let base = (splitmix64(&mut state) >> 24) << 20;
                let coord = workload == "coord_cold";
                (Shape::Cold { base, coord }, 1)
            }
            "append_requery" => {
                let mut dashboard = QuerySpec::boolean("Balance", "CardLoan");
                dashboard.min_support = pct(10);
                dashboard.min_confidence = pct(60);
                let shape = Shape::AppendRequery {
                    dashboard: json::encode_spec(&dashboard),
                };
                (shape, 1)
            }
            other => panic!("no stream for workload {other:?}"),
        };
        Stream {
            shape,
            connections,
            frames,
        }
    }

    /// Lines sent before the window, in order (the loader splits them
    /// round-robin over the workload's connections).
    pub fn warmup(&self) -> Vec<Op<'_>> {
        match &self.shape {
            Shape::Pooled { pool, .. } => pool
                .iter()
                .enumerate()
                .map(|(i, line)| Op {
                    line: line.into(),
                    kind: OpKind::Spec(Some(i)),
                })
                .collect(),
            Shape::Cold { base, coord } => (0..4)
                .map(|j| {
                    let spec = cold_spec(j, base + WARMUP_SEED_OFFSET + j as u64, *coord);
                    Op {
                        line: json::encode_spec(&spec).into(),
                        kind: OpKind::Spec(None),
                    }
                })
                .collect(),
            Shape::AppendRequery { .. } => (0..6).map(|i| self.op(0, i)).collect(),
        }
    }

    /// Index of the window's first operation: the append/requery
    /// warm-up is the cycle's own first operations and the window
    /// continues it; every other window starts its stream at 0.
    pub fn first_window_op(&self) -> usize {
        match self.shape {
            Shape::AppendRequery { .. } => self.warmup().len(),
            _ => 0,
        }
    }

    /// The `i`-th operation of connection `conn`.
    pub fn op(&self, conn: usize, i: usize) -> Op<'_> {
        match &self.shape {
            Shape::Pooled { pool, orders } => {
                let slot = orders[conn][i % pool.len()];
                Op {
                    line: pool[slot].as_str().into(),
                    kind: OpKind::Spec(Some(slot)),
                }
            }
            Shape::Cold { base, coord } => {
                assert!((i as u64) < WARMUP_SEED_OFFSET, "cold stream exhausted");
                let spec = cold_spec(i, base + i as u64, *coord);
                Op {
                    line: json::encode_spec(&spec).into(),
                    kind: OpKind::Spec(None),
                }
            }
            Shape::AppendRequery { dashboard } => {
                // Even operations append, odd ones requery.
                if i & 1 == 0 {
                    Op {
                        line: self.probe_frame(i / 2).into(),
                        kind: OpKind::Append,
                    }
                } else {
                    Op {
                        line: dashboard.as_str().into(),
                        kind: OpKind::Spec(None),
                    }
                }
            }
        }
    }

    /// How long connection `conn` pauses before sending its `i`-th
    /// operation (not part of that operation's latency).
    pub fn think(&self, conn: usize, i: usize) -> Duration {
        match self.shape {
            Shape::Cold { base, coord: true } => {
                let mut state = base ^ ((conn as u64) << 32) ^ i as u64;
                Duration::from_nanos(splitmix64(&mut state) % COORD_THINK_NS)
            }
            _ => Duration::ZERO,
        }
    }

    /// Whether the window itself appends (else the loader probes append
    /// latency after the window).
    pub fn appends_in_window(&self) -> bool {
        matches!(self.shape, Shape::AppendRequery { .. })
    }

    /// The `k`-th frame of the post-window append probe.
    pub fn probe_frame(&self, k: usize) -> &str {
        &self.frames[k % self.frames.len()]
    }

    /// The `j`-th spare cold request: a seed neither the warm-up nor
    /// any window index uses, for in-process probes beside the window.
    pub fn spare_cold(&self, j: usize) -> Option<String> {
        match self.shape {
            Shape::Cold { base, coord } => {
                let spec = cold_spec(j, base + WARMUP_SEED_OFFSET + 4096 + j as u64, coord);
                Some(json::encode_spec(&spec))
            }
            _ => None,
        }
    }

    /// Distinct pooled specs (empty for unpooled workloads).
    pub fn pool(&self) -> &[String] {
        match &self.shape {
            Shape::Pooled { pool, .. } => pool,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_core::json::Request;
    use optrules_core::{plan, EngineConfig, ObjectiveSpec};
    use std::collections::HashSet;

    fn lines(stream: &Stream, conn: usize, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| stream.op(conn, i).line.into_owned())
            .collect()
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for w in [
            "warm_serve",
            "cold_scan",
            "append_requery",
            "rect2d",
            "coord_cold",
        ] {
            let a = Stream::new(w, 11);
            let b = Stream::new(w, 11);
            let c = Stream::new(w, 12);
            for conn in 0..a.connections {
                assert_eq!(lines(&a, conn, 300), lines(&b, conn, 300), "{w}");
            }
            assert_ne!(lines(&a, 0, 300), lines(&c, 0, 300), "{w}");
            let warm = |s: &Stream| -> Vec<String> {
                s.warmup()
                    .into_iter()
                    .map(|op| op.line.into_owned())
                    .collect()
            };
            assert_eq!(warm(&a), warm(&b), "{w}");
        }
    }

    #[test]
    fn pools_have_the_advertised_sizes_and_parse_as_specs() {
        let warm = Stream::new("warm_serve", 1);
        assert_eq!(warm.pool().len(), 240);
        let rect = Stream::new("rect2d", 1);
        assert_eq!(rect.pool().len(), 72);
        for line in warm.pool().iter().chain(rect.pool()) {
            assert!(
                matches!(json::parse_request(line), Request::Spec(_)),
                "{line}"
            );
        }
        let distinct: HashSet<&String> = warm.pool().iter().collect();
        assert_eq!(distinct.len(), 240);
        // Every pool slot is visited once per lap, on each connection.
        for conn in 0..2 {
            let lap: HashSet<String> = lines(&warm, conn, 240).into_iter().collect();
            assert_eq!(lap.len(), 240);
        }
    }

    #[test]
    fn every_cold_request_has_a_distinct_cache_key() {
        let schema = BankGenerator::default().schema();
        let config = EngineConfig::default();
        let stream = Stream::new("cold_scan", 5);
        let mut keys = HashSet::new();
        let mut kinds = [0usize; 4];
        let ops: Vec<Op<'_>> = stream
            .warmup()
            .into_iter()
            .chain((0..500).map(|i| stream.op(0, i)))
            .collect();
        for op in &ops {
            let Request::Spec(spec) = json::parse_request(&op.line) else {
                panic!("cold op is not a spec: {}", op.line);
            };
            let resolved = plan::resolve(&schema, &config, 0, &spec).expect("cold spec resolves");
            assert!(
                keys.insert(resolved.key),
                "repeated bucket key: {}",
                op.line
            );
            if let Some(part) = &resolved.grid {
                assert!(keys.insert(part.y_key), "repeated y key: {}", op.line);
                kinds[3] += 1;
            } else if !spec.given.is_empty() {
                kinds[1] += 1;
            } else if matches!(spec.objective, ObjectiveSpec::Average { .. }) {
                kinds[2] += 1;
            } else {
                kinds[0] += 1;
            }
        }
        // 4 warm-up requests (kinds 0,1,3,0 of the cycle) + 50 cycles.
        assert_eq!(kinds, [202, 151, 100, 51]);
    }

    #[test]
    fn coord_cold_sizes_its_requests_and_thinks_by_the_seed() {
        let stream = Stream::new("coord_cold", 5);
        let ops = stream
            .warmup()
            .into_iter()
            .chain((0..40).map(|i| stream.op(0, i)))
            .chain((0..10).map(|j| Op {
                line: stream.spare_cold(j).expect("cold stream").into(),
                kind: OpKind::Spec(None),
            }));
        for op in ops {
            let Request::Spec(spec) = json::parse_request(&op.line) else {
                panic!("cold op is not a spec: {}", op.line);
            };
            let expected = if spec.attr2.is_some() { 16 } else { 384 };
            assert_eq!(spec.buckets, Some(expected), "{}", op.line);
        }
        // One `values` chunk per shard: half the 40·M sample, eight
        // binomial deviations up, stays under the 8192-index chunk.
        let sample = 40.0 * COORD_BUCKETS as f64;
        assert!(sample / 2.0 + 8.0 * (sample / 4.0).sqrt() < 8192.0);

        let thinks = |s: &Stream| -> Vec<Duration> { (0..200).map(|i| s.think(0, i)).collect() };
        let a = thinks(&stream);
        assert_eq!(a, thinks(&Stream::new("coord_cold", 5)));
        assert_ne!(a, thinks(&Stream::new("coord_cold", 6)));
        assert!(a.iter().all(|t| t.as_nanos() < u128::from(COORD_THINK_NS)));
        let mean = a.iter().sum::<Duration>().as_secs_f64() / a.len() as f64;
        assert!((0.008..0.012).contains(&mean), "mean think {mean}");
        // Nobody else pauses or carries bucket counts of its own.
        let plain = Stream::new("cold_scan", 5);
        assert!((0..200).all(|i| plain.think(0, i).is_zero()));
        assert!(!plain.op(0, 0).line.contains("\"buckets\""));
    }

    #[test]
    fn append_requery_alternates_and_frames_hold_100_valid_rows() {
        let schema = BankGenerator::default().schema();
        let stream = Stream::new("append_requery", 3);
        for i in 0..80 {
            let op = stream.op(0, i);
            match (i % 2, json::parse_request(&op.line)) {
                (0, Request::Append(rows)) => {
                    assert_eq!(op.kind, OpKind::Append);
                    let rows = json::rows_from_value(&rows, &schema).expect("rows decode");
                    assert_eq!(rows.len() as u64, FRAME_ROWS);
                }
                (1, Request::Spec(_)) => assert_eq!(op.kind, OpKind::Spec(None)),
                (_, other) => panic!("op {i} is {other:?}"),
            }
        }
        // The warm-up is the cycle's own first operations: the window continues it.
        assert_eq!((stream.warmup().len(), stream.first_window_op()), (6, 6));
    }
}
