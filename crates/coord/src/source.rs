//! The shard-set [`CountSource`]: the data pass of one coordinator
//! segment, with the rows living on `optrules serve` shards.
//!
//! Three steps, mirroring the local source of a single-node engine:
//! bucketize by reproducing the sampling index stream centrally and
//! fetching the drawn values (`values` frames), count by fanning one
//! `count` frame out and merging the raw partials in shard order, and
//! likewise `count2d` for §1.4 grids. Every reply is verified against
//! the segment's pinned generation vector before it is used.

use crate::{parse_ok, CoordError, Coordinator, Result, RpcKind, ShardView};
use optrules_bucketing::{
    cuts_from_sample, sample_indices, BucketCounts, BucketSpec, BucketingError, CountSpec,
};
use optrules_core::json::{self, Json, JsonResult};
use optrules_core::shared::{attr_seed, BucketKey};
use optrules_core::{CoreError, CountSource, GridCounts};
use optrules_obs::{Span, Timer};
use optrules_relation::{Condition, NumAttr};
use std::sync::atomic::Ordering;

/// Row indices per `{"cmd":"values"}` frame: keeps each request line
/// comfortably under the shards' line-length limit while still
/// amortizing round trips (all chunks for one shard are pipelined in a
/// single write).
const VALUES_CHUNK: usize = 8192;

/// A per-shard partial artifact the [`ShardSource::gather`] loop can
/// decode, verify against the pin, and merge.
trait Partial: Sized {
    /// Reply kind, for error messages.
    const KIND: &'static str;
    /// What [`shape`](Self::shape) measures, for error messages.
    const SHAPE: &'static str;
    /// Trace span name of the per-shard RPC.
    const SPAN: &'static str;
    /// Decodes a reply payload into `(partial, generation served)`.
    fn decode(payload: &Json) -> JsonResult<(Self, u64)>;
    /// Rows the shard scanned.
    fn total_rows(&self) -> u64;
    /// Bucket (or per-axis bucket) counts — must match the cuts sent.
    fn shape(&self) -> (usize, usize);
    /// Folds `other` in; shards merge in concatenation order.
    fn merge_from(&mut self, other: &Self);
}

impl Partial for BucketCounts {
    const KIND: &'static str = "count";
    const SHAPE: &'static str = "bucket count";
    const SPAN: &'static str = "rpc_count";
    fn decode(payload: &Json) -> JsonResult<(Self, u64)> {
        json::counts_from_value(payload)
    }
    fn total_rows(&self) -> u64 {
        self.total_rows
    }
    fn shape(&self) -> (usize, usize) {
        (self.bucket_count(), 1)
    }
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Partial for GridCounts {
    const KIND: &'static str = "grid";
    const SHAPE: &'static str = "grid dimensions";
    const SPAN: &'static str = "rpc_count2d";
    fn decode(payload: &Json) -> JsonResult<(Self, u64)> {
        json::grid_from_value(payload)
    }
    fn total_rows(&self) -> u64 {
        self.total_rows
    }
    fn shape(&self) -> (usize, usize) {
        (self.nx(), self.ny())
    }
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// The shard-set [`CountSource`]: the data pass of one segment, over
/// the generation vector it pinned.
pub(crate) struct ShardSource<'a> {
    pub(crate) coord: &'a Coordinator,
    pub(crate) pin: &'a ShardView,
    pub(crate) trace: Option<&'a str>,
}

impl ShardSource<'_> {
    /// A shard answered from a different snapshot than the pinned one:
    /// fails the current query and kicks off a resync so the next
    /// segment pins the new state. `what` names the part of the pin
    /// that moved.
    fn stale_pin(&self, shard: usize, what: &str, pinned: u64, observed: u64) -> CoordError {
        self.coord.resync(shard);
        CoordError::shard(
            shard,
            format!("{what} changed under the pinned snapshot (pinned {pinned}, now {observed})"),
        )
    }

    /// Emits one span per non-`skip`ped shard of a timed fan-out,
    /// under the segment's trace id.
    fn emit_shard_spans(
        &self,
        name: &'static str,
        timed: &[(Result<Vec<String>>, u64, u64)],
        skip: impl Fn(usize) -> bool,
    ) {
        if let (Some(sink), Some(trace)) = (self.coord.trace.as_deref(), self.trace) {
            for (shard, &(_, start_ns, dur_ns)) in timed.iter().enumerate() {
                if skip(shard) {
                    continue;
                }
                sink.emit(&Span {
                    trace,
                    span: name,
                    shard: Some(shard),
                    start_ns,
                    dur_ns,
                });
            }
        }
    }

    /// One scatter-gather round for a scan or grid node: broadcast
    /// `frame` to every non-empty shard, verify each **raw** partial
    /// against the pin (generation, row count, shape), and merge **in
    /// shard order** — the concatenation order, so the result is what
    /// a single node scanning the concatenated rows would produce.
    fn gather<T: Partial>(&self, frame: &Json, shape: (usize, usize)) -> Result<T> {
        let pin = self.pin;
        // An empty shard's partial is all zeros — skip the RPC (and the
        // EmptyRelation error its scan would raise).
        let skipped = |shard: usize| pin.rows[shard] == 0;
        let line = frame.encode();
        let results = self.coord.shards.fan_timed(
            |shard| (!skipped(shard)).then(|| vec![line.clone()]),
            true,
            RpcKind::Count,
        );
        self.emit_shard_spans(T::SPAN, &results, skipped);
        let merge_timer = Timer::start();
        let mut merged: Option<T> = None;
        let mut counted = 0u64;
        for (shard, (result, _, _)) in results.into_iter().enumerate() {
            if skipped(shard) {
                continue;
            }
            let payload = parse_ok(shard, &result?[0])?;
            let (partial, generation) = T::decode(&payload)
                .map_err(|e| CoordError::shard(shard, format!("bad {} reply: {e}", T::KIND)))?;
            if generation != pin.gens[shard] {
                return Err(self.stale_pin(shard, "generation", pin.gens[shard], generation));
            }
            if partial.total_rows() != pin.rows[shard] {
                let observed = partial.total_rows();
                return Err(self.stale_pin(shard, "row count", pin.rows[shard], observed));
            }
            if partial.shape() != shape {
                return Err(CoordError::shard(
                    shard,
                    format!("{} reply disagrees on {}", T::KIND, T::SHAPE),
                ));
            }
            counted += 1;
            match &mut merged {
                None => merged = Some(partial),
                Some(m) => m.merge_from(&partial),
            }
        }
        self.coord
            .merged_nodes
            .fetch_add(counted, Ordering::Relaxed);
        merge_timer.stop(&self.coord.merge);
        // Bucketization runs first and rejects an empty relation.
        Ok(merged.expect("a non-empty relation has a non-empty shard"))
    }
}

impl CountSource for ShardSource<'_> {
    type Error = CoordError;

    /// Step 1–3 of Algorithm 3.1 with the rows living on shards:
    /// reproduce the single-node sampling index stream, fetch each
    /// drawn value from the shard that holds its row, and cut the
    /// reassembled sample centrally.
    fn bucketize(&self, key: BucketKey) -> Result<BucketSpec> {
        let (pin, trace, shards) = (self.pin, self.trace, &self.coord.shards);
        let total = pin.total_rows();
        if total == 0 {
            // Checked before index generation, exactly where the
            // single-node sampler rejects an empty relation.
            return Err(CoreError::from(BucketingError::EmptyRelation).into());
        }
        let s = key.samples_per_bucket * key.buckets as u64;
        let indices = sample_indices(total, s, attr_seed(key.seed, key.attr));
        let offsets = pin.offsets();
        // Group draws by owning shard, remembering each draw's position
        // in the stream so the sample reassembles in draw order.
        let mut per_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); shards.len()];
        for (draw, &global) in indices.iter().enumerate() {
            let shard = offsets.partition_point(|&o| o <= global) - 1;
            per_shard[shard].push((draw, global - offsets[shard]));
        }
        let attr_name = self.coord.schema.numeric_name(key.attr);
        let lines_per_shard: Vec<Vec<String>> = per_shard
            .iter()
            .map(|draws| {
                draws
                    .chunks(VALUES_CHUNK)
                    .map(|chunk| {
                        let locals: Vec<u64> = chunk.iter().map(|&(_, local)| local).collect();
                        json::values_frame_to_value(attr_name, &locals, trace).encode()
                    })
                    .collect()
            })
            .collect();
        let results = shards.fan_timed(
            |i| {
                if lines_per_shard[i].is_empty() {
                    None
                } else {
                    Some(lines_per_shard[i].clone())
                }
            },
            true,
            RpcKind::Values,
        );
        self.emit_shard_spans("rpc_values", &results, |shard| per_shard[shard].is_empty());
        let mut sample = vec![0.0f64; indices.len()];
        for (shard, (result, _, _)) in results.into_iter().enumerate() {
            if per_shard[shard].is_empty() {
                continue;
            }
            let lines = result?;
            let mut draws = per_shard[shard].iter();
            for line in &lines {
                let payload = parse_ok(shard, line)?;
                let (values, generation) = json::values_reply_from_value(&payload)
                    .map_err(|e| CoordError::shard(shard, format!("bad values reply: {e}")))?;
                if generation != pin.gens[shard] {
                    return Err(self.stale_pin(shard, "generation", pin.gens[shard], generation));
                }
                for value in values {
                    let &(draw, _) = draws.next().ok_or_else(|| {
                        CoordError::shard(shard, "values reply returned too many values")
                    })?;
                    sample[draw] = value;
                }
            }
            if draws.next().is_some() {
                return Err(CoordError::shard(
                    shard,
                    "values reply returned too few values",
                ));
            }
        }
        cuts_from_sample(&mut sample, key.buckets).map_err(|e| CoreError::from(e).into())
    }

    fn count(
        &self,
        attr: NumAttr,
        cuts: &BucketSpec,
        what: Option<&CountSpec>,
        threads: usize,
    ) -> Result<BucketCounts> {
        let schema = &self.coord.schema;
        let frame = json::count_frame_to_value(schema, attr, cuts, what, threads, self.trace);
        self.gather(&frame, (cuts.bucket_count(), 1))
    }

    /// Every grid field is an integer sum or a min/max fold, so the
    /// merged grid is partition-independent. Shards never optimize —
    /// rectangle sweeps happen centrally, over the merged grid only.
    fn count_grid(
        &self,
        x_attr: NumAttr,
        y_attr: NumAttr,
        x_cuts: &BucketSpec,
        y_cuts: &BucketSpec,
        presumptive: &Condition,
        objective: &Condition,
    ) -> Result<GridCounts> {
        let frame = json::count2d_frame_to_value(
            &self.coord.schema,
            x_attr,
            y_attr,
            x_cuts,
            y_cuts,
            presumptive,
            objective,
            self.trace,
        );
        self.gather(&frame, (x_cuts.bucket_count(), y_cuts.bucket_count()))
    }
}
