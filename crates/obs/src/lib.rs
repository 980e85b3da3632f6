//! Dependency-free latency observability: lock-free log-bucketed
//! histograms, phase timers, and NDJSON trace spans.
//!
//! Everything in the serving stack that wants a latency number records
//! it here. The design constraints come from the rest of the system:
//!
//! * **Lock-free recording.** [`Histogram::record`] is a handful of
//!   relaxed atomic adds — cheap enough to leave on in production,
//!   which is the acceptance bar for the serve hot path.
//! * **Merge-associative.** Every histogram shares one *fixed* bucket
//!   layout ([`BUCKET_COUNT`] log-spaced buckets), so per-shard
//!   snapshots merge exactly like the engine's per-thread
//!   `BucketCounts` partials do: bucket-wise addition, in any order,
//!   with the same result as recording into a single histogram.
//! * **Deterministic when asked.** With `OPTRULES_FROZEN_CLOCK=1` in
//!   the environment, [`now_ns`] pins to zero: every duration becomes
//!   0, every quantile 0, while *counts* keep their real values. That
//!   is what makes the `{"cmd":"metrics"}` golden transcripts
//!   byte-stable without giving up real measurements in production.
//! * **Always on.** There is no off switch: PR 9 measured the
//!   overhead at noise level, and the perf ledger (`bench/`) reads
//!   these same histograms.
//!
//! # Bucket layout
//!
//! Values below 16 ns get exact buckets; from 16 up, each power of two
//! is split into 4 sub-buckets (≈19 % relative error bound), covering
//! the full `u64` range in exactly 256 buckets. Quantiles report the
//! *inclusive upper edge* of the rank's bucket, clamped to the true
//! recorded maximum — so estimates are always bounded by bucket edges
//! and `p50 ≤ p90 ≤ p99 ≤ max` holds by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets. Fixed for every histogram in the
/// process so snapshots merge bucket-wise.
pub const BUCKET_COUNT: usize = 256;

/// Maps a recorded value (nanoseconds) to its bucket index: values
/// `< 16` are exact; above that, 4 sub-buckets per power of two.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 16 {
        value as usize
    } else {
        let e = 63 - value.leading_zeros() as usize; // 4..=63
        16 + (e - 4) * 4 + ((value >> (e - 2)) & 3) as usize
    }
}

/// Inclusive `(lo, hi)` value bounds of bucket `index`. The top bucket
/// ends at `u64::MAX`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    if index < 16 {
        (index as u64, index as u64)
    } else {
        let e = (index - 16) / 4 + 4;
        let sub = ((index - 16) % 4) as u64;
        let width = 1u64 << (e - 2);
        let lo = (1u64 << e) + sub * width;
        (lo, lo + (width - 1))
    }
}

/// An atomically-updated latency histogram with the fixed log-bucket
/// layout, plus exact count / sum / max. Recording is lock-free;
/// [`snapshot`](Histogram::snapshot) gives a consistent-enough copy
/// for reporting (relaxed reads — counters may be mid-update, which is
/// fine for monitoring).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one value (nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (nanoseconds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current state for reporting or merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Zeroes every counter (used when the engine's stats are reset).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: mergeable (bucket-wise
/// addition — associative and commutative like the engine's partial
/// bucket counts) and queryable for bounded quantile estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds).
    pub sum: u64,
    /// Largest recorded value (nanoseconds).
    pub max: u64,
    /// Per-bucket counts, `BUCKET_COUNT` entries in layout order.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (merge identity).
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// Folds `other` into `self` bucket-wise. Because the layout is
    /// fixed, merging per-shard snapshots in any order equals recording
    /// every value into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        // Wrapping, to stay identical to the histogram's atomic adds
        // even for pathological sums.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`: the inclusive upper edge
    /// of the bucket holding the rank-`⌈q·count⌉` value, clamped to the
    /// recorded maximum. Returns 0 on an empty snapshot. The estimate
    /// is always within the true value's bucket bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }
}

/// Monotonic nanoseconds since process start — or always 0 when
/// `OPTRULES_FROZEN_CLOCK=1` is set, which makes every derived
/// duration (and therefore the metrics document) deterministic.
pub fn now_ns() -> u64 {
    struct Clock {
        start: Instant,
        frozen: bool,
    }
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    let clock = CLOCK.get_or_init(|| Clock {
        start: Instant::now(),
        frozen: std::env::var_os("OPTRULES_FROZEN_CLOCK").is_some_and(|v| v == "1"),
    });
    if clock.frozen {
        0
    } else {
        clock.start.elapsed().as_nanos() as u64
    }
}

/// A started phase timer.
#[derive(Debug, Clone, Copy)]
pub struct Timer(u64);

impl Timer {
    /// Reads the clock.
    #[inline]
    pub fn start() -> Timer {
        Timer(now_ns())
    }

    /// The start timestamp.
    pub fn start_ns(&self) -> u64 {
        self.0
    }

    /// Nanoseconds since start, without recording.
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.0)
    }

    /// Records the elapsed time into `histogram` and returns it.
    #[inline]
    pub fn stop(self, histogram: &Histogram) -> u64 {
        let elapsed = self.elapsed_ns();
        histogram.record(elapsed);
        elapsed
    }
}

/// The server-lifecycle histograms every TCP front end (single-node
/// and coordinator alike) maintains pool-wide.
#[derive(Debug, Default)]
pub struct ServiceObs {
    /// Accepted-to-picked-up wait in the bounded connection queue.
    pub queue_wait: Histogram,
    /// One framing batch through [`Service::execute`] (engine or
    /// coordinator work, gate wait included).
    pub batch_execute: Histogram,
    /// Writing (and flushing) one frame's responses to the socket.
    pub response_write: Histogram,
}

impl ServiceObs {
    /// Snapshots all three histograms.
    pub fn snapshot(&self) -> ServiceMetrics {
        ServiceMetrics {
            queue_wait: self.queue_wait.snapshot(),
            batch_execute: self.batch_execute.snapshot(),
            response_write: self.response_write.snapshot(),
        }
    }
}

/// Snapshot of [`ServiceObs`].
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Snapshot of [`ServiceObs::queue_wait`].
    pub queue_wait: HistogramSnapshot,
    /// Snapshot of [`ServiceObs::batch_execute`].
    pub batch_execute: HistogramSnapshot,
    /// Snapshot of [`ServiceObs::response_write`].
    pub response_write: HistogramSnapshot,
}

/// Point-in-time server gauges, reported in `{"cmd":"stats"}` and
/// `{"cmd":"metrics"}` when serving over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauges {
    /// Nanoseconds since the server started (0 under the frozen clock).
    pub uptime_ns: u64,
    /// Currently registered client connections.
    pub connections: u64,
    /// Batches currently holding an in-flight gate permit.
    pub inflight_batches: u64,
}

/// One phase of one traced request — a single NDJSON record in the
/// trace log.
#[derive(Debug, Clone)]
pub struct Span<'a> {
    /// Trace id correlating every phase of one request; the
    /// coordinator stamps it onto internal `values`/`count` frames so
    /// shard-side spans carry the same id.
    pub trace: &'a str,
    /// Phase name (`bucketize`, `count`, `merge`, `optimize`, …).
    pub span: &'a str,
    /// Which shard the phase ran against, if any.
    pub shard: Option<usize>,
    /// Start offset, nanoseconds since process start.
    pub start_ns: u64,
    /// Phase duration in nanoseconds.
    pub dur_ns: u64,
}

/// Escapes `s` for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Where a trace sink writes.
enum TraceOut {
    Stderr,
    File(std::fs::File),
}

/// An NDJSON span writer with a slow-query threshold: spans shorter
/// than `slow_ns` are dropped, so `--slow-query-ms` logs only
/// outliers (the default threshold 0 logs everything).
pub struct TraceSink {
    out: Mutex<TraceOut>,
    slow_ns: u64,
    next_trace: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("slow_ns", &self.slow_ns)
            .finish()
    }
}

impl TraceSink {
    /// A sink writing spans to stderr.
    pub fn stderr(slow_ns: u64) -> TraceSink {
        TraceSink {
            out: Mutex::new(TraceOut::Stderr),
            slow_ns,
            next_trace: AtomicU64::new(1),
        }
    }

    /// A sink appending spans to `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened for appending.
    pub fn file(path: &str, slow_ns: u64) -> io::Result<TraceSink> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(TraceSink {
            out: Mutex::new(TraceOut::File(file)),
            slow_ns,
            next_trace: AtomicU64::new(1),
        })
    }

    /// Allocates the next trace id (`t1`, `t2`, …).
    pub fn next_trace_id(&self) -> String {
        format!("t{}", self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_ns(&self) -> u64 {
        self.slow_ns
    }

    /// Writes `span` if it clears the slow-query threshold.
    pub fn emit(&self, span: &Span<'_>) {
        if span.dur_ns < self.slow_ns {
            return;
        }
        let shard = match span.shard {
            Some(i) => format!(",\"shard\":{i}"),
            None => String::new(),
        };
        let line = format!(
            "{{\"event\":\"span\",\"trace\":\"{}\",\"span\":\"{}\"{shard},\"start_ns\":{},\"dur_ns\":{}}}\n",
            json_escape(span.trace),
            json_escape(span.span),
            span.start_ns,
            span.dur_ns,
        );
        let mut out = self.out.lock().expect("trace sink poisoned");
        let _ = match &mut *out {
            TraceOut::Stderr => io::stderr().write_all(line.as_bytes()),
            TraceOut::File(file) => file.write_all(line.as_bytes()),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_layout_tiles_the_u64_range() {
        // Consecutive buckets abut exactly; the last ends at u64::MAX.
        for index in 0..BUCKET_COUNT - 1 {
            let (_, hi) = bucket_bounds(index);
            let (next_lo, _) = bucket_bounds(index + 1);
            assert_eq!(hi + 1, next_lo, "gap or overlap after bucket {index}");
        }
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(BUCKET_COUNT - 1).1, u64::MAX);
    }

    #[test]
    fn extremes_map_in_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        let (lo, hi) = bucket_bounds(bucket_index(u64::MAX));
        assert!(lo <= hi);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for v in [3u64, 3, 17, 1000, 65_536, 12] {
            h.record(v);
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile(0.50), s.quantile(0.90), s.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max);
        assert_eq!(s.max, 65_536);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 3 + 3 + 17 + 1000 + 65_536 + 12);
    }

    #[test]
    fn empty_snapshot_quantile_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn merge_equals_single_recording() {
        let (a, b, whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for (i, v) in [1u64, 99, 4096, 77, 12, 1 << 40].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v)
            } else {
                b.record(*v)
            }
            whole.record(*v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let h = Histogram::new();
        h.record(12345);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
    }

    #[test]
    fn timer_records_when_enabled() {
        let h = Histogram::new();
        let t = Timer::start();
        t.stop(&h);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
