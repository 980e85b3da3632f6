//! Durable live relations: a write-ahead log plus segment spill over
//! [`ChunkedRelation`], so appended rows survive crashes and restarts.
//!
//! PR 5's chunked store made appends cheap but volatile: every appended
//! row lives in memory only, and a restart falls back to the base file.
//! [`DurableRelation`] closes that gap with the classic WAL +
//! checkpoint pair:
//!
//! * every append is first written to a checksummed **write-ahead log**
//!   frame ([`wal`]) — with [`WalSync::Always`], fsync'd before the
//!   append returns, so an acknowledged row can never be lost to a
//!   crash;
//! * when the in-memory tail reaches [`DurabilityConfig::spill_rows`],
//!   a **checkpoint** spills the tail to a `seg-NNNNNN.rel` file
//!   ([`spill`]), records it in the `MANIFEST`, and truncates the WAL —
//!   so memory and log stay bounded no matter how long the process
//!   appends. The checkpointed version holds the same rows with the
//!   segment as one more base part of its `ChunkedRelation`;
//! * [`DurableRelation::open`] ([`recovery`]) rebuilds the relation
//!   from base + segments + WAL tail, tolerating a torn final frame,
//!   and reports the generation to resume at.
//!
//! A data directory holds:
//!
//! ```text
//! <dir>/MANIFEST          checkpoint record (text, atomically replaced)
//! <dir>/wal.log           append frames since the last checkpoint
//! <dir>/seg-000000.rel    spilled segments ("OPTR" format, same as the
//! <dir>/seg-000001.rel     base relation file)
//! ```
//!
//! The base relation file itself lives wherever the caller keeps it and
//! is never modified.
//!
//! Crash-consistency ordering at a checkpoint: segment tmp + fsync +
//! rename, then manifest tmp + fsync + rename, then WAL truncate. A
//! crash between the last two replays WAL frames already covered by the
//! manifest — [`wal`]'s replay skips those by row number, so recovery
//! is idempotent.

use crate::chunked::{AppendRows, ChunkedRelation, RowFrame};
use crate::columnar::ColumnarScan;
use crate::encoding::RecordLayout;
use crate::error::Result;
use crate::file::FileRelation;
use crate::memory::Relation;
use crate::scan::{RandomAccess, RowVisitor, TupleScan};
use crate::schema::{NumAttr, Schema};
use optrules_obs::{Histogram, HistogramSnapshot, Timer};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub(crate) mod recovery;
pub(crate) mod spill;
pub(crate) mod wal;

pub use recovery::Recovery;

use spill::{write_manifest, Manifest};
use wal::WalWriter;

/// When the write-ahead log is fsync'd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// Fsync before every append acknowledgment: an acked row survives
    /// even power loss. The safe (and slow) default.
    #[default]
    Always,
    /// Write WAL frames to the OS page cache without fsync: acked rows
    /// survive a process kill (`kill -9`) but not a power failure. The
    /// log is synced at every checkpoint and on graceful shutdown.
    Batch,
    /// No write-ahead log at all: rows become durable only at a
    /// checkpoint (spill or explicit flush). A crash loses the
    /// un-spilled tail.
    Off,
}

/// Tuning for a [`DurableRelation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Checkpoint (spill the in-memory tail to a segment file and
    /// truncate the WAL) once the tail reaches this many rows.
    pub spill_rows: u64,
    /// WAL fsync policy.
    pub sync: WalSync,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            spill_rows: 65_536,
            sync: WalSync::Always,
        }
    }
}

/// A point-in-time view of a [`DurableRelation`]'s durability state —
/// the `durability` object of the server's `{"cmd":"stats"}` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current size of the write-ahead log in bytes (header included).
    pub wal_bytes: u64,
    /// Rows not yet covered by a checkpoint (in memory + WAL only).
    pub unflushed_rows: u64,
    /// Segment files spilled so far in this data directory.
    pub segments_spilled: u64,
    /// Generation recorded by the most recent checkpoint.
    pub last_checkpoint_generation: u64,
}

/// Latency histograms for the durability hot path — the `durability`
/// object of the server's `{"cmd":"metrics"}` reply.
#[derive(Debug, Clone)]
pub struct DurabilityMetrics {
    /// Latency of one WAL append (including the fsync under
    /// [`WalSync::Always`]) — the cost every acked durable append pays.
    pub wal_fsync: HistogramSnapshot,
    /// Latency of one spill checkpoint (segment write + manifest +
    /// WAL truncate).
    pub checkpoint: HistogramSnapshot,
}

/// Optional durability hooks a relation store may provide. The default
/// implementations report "not durable" and make flush a no-op, so
/// engine and server code can be generic over both plain in-memory
/// stores and [`DurableRelation`] without specialization.
pub trait Durability: Sized {
    /// Durability counters, or `None` for stores with no backing log.
    fn durability_stats(&self) -> Option<DurabilityStats> {
        None
    }

    /// Durability latency histograms, or `None` for stores with no
    /// backing log.
    fn durability_metrics(&self) -> Option<DurabilityMetrics> {
        None
    }

    /// Forces a checkpoint, returning the checkpointed version to swap
    /// in — or `None` when there is nothing to do (no durability, or
    /// already checkpointed). Must only be called on the **latest**
    /// version, with appends excluded (the engine holds its writer
    /// mutex).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the spill or manifest write.
    fn checkpointed(&self) -> Result<Option<Self>> {
        Ok(None)
    }
}

impl Durability for Relation {}
impl Durability for FileRelation {}
impl<B> Durability for ChunkedRelation<B> {}

impl<T: Durability> Durability for &T {
    fn durability_stats(&self) -> Option<DurabilityStats> {
        (**self).durability_stats()
    }
    fn durability_metrics(&self) -> Option<DurabilityMetrics> {
        (**self).durability_metrics()
    }
    // `checkpointed` keeps the no-op default: a shared reference cannot
    // produce a new owned version to swap in.
}

/// State shared by every version of one durable relation: the WAL
/// writer and the checkpoint bookkeeping. One lock serializes all
/// durability mutation; the engine's writer mutex already serializes
/// appends, so this lock is uncontended in practice.
#[derive(Debug)]
struct StoreState {
    /// `None` when [`WalSync::Off`].
    wal: Option<WalWriter>,
    /// Rows durable in base + segments.
    durable_rows: u64,
    /// Generation of the latest version (mirrors the engine's counter:
    /// +1 per non-empty append).
    generation: u64,
    last_checkpoint_generation: u64,
    /// Spilled segment file names, oldest first.
    segments: Vec<String>,
    next_segment_id: u64,
    /// Rows in the original base file (recorded in the manifest).
    base_rows: u64,
}

#[derive(Debug)]
struct DurableStore {
    dir: PathBuf,
    schema: Schema,
    layout: RecordLayout,
    config: DurabilityConfig,
    state: Mutex<StoreState>,
    /// WAL-append latency (fsync included under [`WalSync::Always`]).
    wal_fsync: Histogram,
    /// Spill-checkpoint latency (segment + manifest + WAL truncate).
    checkpoint: Histogram,
}

/// A crash-safe live relation: a [`ChunkedRelation`] whose base parts
/// are the base file and the spilled segment files, with every append
/// logged to a WAL before it is applied and the in-memory tail
/// periodically spilled back to disk as one more base part. See the
/// [module docs](self) for the file layout and guarantees.
///
/// Scans and random access behave exactly like the equivalent flat
/// relation; versions returned by [`AppendRows::with_rows`] are
/// copy-on-write snapshots just like `ChunkedRelation`'s. Appends must
/// go through the latest version only (the engine's writer mutex
/// guarantees this).
#[derive(Debug)]
pub struct DurableRelation {
    inner: ChunkedRelation<FileRelation>,
    store: Arc<DurableStore>,
}

// Manual impl: `Arc` clones regardless of the store's contents.
impl Clone for DurableRelation {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            store: Arc::clone(&self.store),
        }
    }
}

impl DurableRelation {
    /// Opens (or initializes) the data directory `dir` over the base
    /// relation file at `base`, replaying any WAL tail. See
    /// [`Recovery`] for what is reported back.
    ///
    /// # Errors
    ///
    /// Fails when the base or a segment file is missing or malformed,
    /// when the manifest disagrees with the files on disk, or on I/O
    /// errors.
    pub fn open(
        base: impl AsRef<std::path::Path>,
        dir: impl AsRef<std::path::Path>,
        config: DurabilityConfig,
    ) -> Result<Recovery> {
        recovery::recover(base.as_ref(), dir.as_ref(), config)
    }

    /// Rows appended since the last checkpoint (the in-memory tail).
    pub fn tail_rows(&self) -> u64 {
        self.inner.appended_rows()
    }

    fn from_parts(inner: ChunkedRelation<FileRelation>, store: Arc<DurableStore>) -> Self {
        Self { inner, store }
    }

    /// Spills this version's tail (if any), updates the manifest, and
    /// truncates the WAL. The caller holds the state lock and `self`
    /// must be the latest version.
    fn checkpoint_locked(&self, state: &mut StoreState) -> Result<Self> {
        let timer = Timer::start();
        let len = self.inner.len();
        let tail = self.inner.appended_rows();
        let next = if tail > 0 {
            let name = format!("seg-{:06}.rel", state.next_segment_id);
            let part = spill::spill_segment(
                &self.store.dir,
                &name,
                &self.store.schema,
                &self.inner,
                len - tail..len,
            )?;
            state.next_segment_id += 1;
            state.segments.push(name);
            state.durable_rows = len;
            Self::from_parts(self.inner.with_tail_replaced(part), Arc::clone(&self.store))
        } else {
            self.clone()
        };
        state.last_checkpoint_generation = state.generation;
        write_manifest(
            &self.store.dir,
            &Manifest {
                base_rows: state.base_rows,
                numeric_count: self.store.layout.numeric_count,
                boolean_count: self.store.layout.boolean_count,
                generation: state.generation,
                durable_rows: state.durable_rows,
                segments: state.segments.clone(),
            },
        )?;
        if let Some(wal) = state.wal.as_mut() {
            wal.truncate()?;
        }
        timer.stop(&self.store.checkpoint);
        Ok(next)
    }

    /// Checkpoints unconditionally (used by recovery's
    /// [`WalSync::Off`] path).
    pub(crate) fn force_checkpoint(&self) -> Result<Self> {
        let mut state = self.store.state.lock().expect("durable state poisoned");
        self.checkpoint_locked(&mut state)
    }
}

impl TupleScan for DurableRelation {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
        self.inner.for_each_row_in(range, f)
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        self.inner.as_columnar()
    }
}

impl RandomAccess for DurableRelation {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        self.inner.numeric_at(attr, row)
    }

    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        self.inner.numeric_at_many(attr, rows, out)
    }
}

impl AppendRows for DurableRelation {
    /// Logs `rows` to the WAL (fsync'd first under [`WalSync::Always`]),
    /// then produces the next in-memory version; reaching the spill
    /// budget checkpoints before returning. WAL frame and relation
    /// version fail atomically together on a schema mismatch: the frame
    /// is encoded (arity-checked) in full before any byte is written.
    fn with_rows(&self, rows: &[RowFrame]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(self.clone());
        }
        let mut state = self.store.state.lock().expect("durable state poisoned");
        if let Some(wal) = state.wal.as_mut() {
            let timer = Timer::start();
            wal.append(
                self.inner.len(),
                rows,
                self.store.config.sync == WalSync::Always,
            )?;
            timer.stop(&self.store.wal_fsync);
        }
        let inner = self.inner.with_rows(rows)?;
        state.generation += 1;
        let next = Self::from_parts(inner, Arc::clone(&self.store));
        if next.inner.appended_rows() >= self.store.config.spill_rows {
            return next.checkpoint_locked(&mut state);
        }
        Ok(next)
    }
}

impl Durability for DurableRelation {
    fn durability_stats(&self) -> Option<DurabilityStats> {
        let state = self.store.state.lock().expect("durable state poisoned");
        Some(DurabilityStats {
            wal_bytes: state.wal.as_ref().map_or(0, |w| w.bytes()),
            // Saturating: an *old pinned version* may predate the last
            // checkpoint's durable_rows.
            unflushed_rows: self.inner.len().saturating_sub(state.durable_rows),
            segments_spilled: state.segments.len() as u64,
            last_checkpoint_generation: state.last_checkpoint_generation,
        })
    }

    fn durability_metrics(&self) -> Option<DurabilityMetrics> {
        Some(DurabilityMetrics {
            wal_fsync: self.store.wal_fsync.snapshot(),
            checkpoint: self.store.checkpoint.snapshot(),
        })
    }

    fn checkpointed(&self) -> Result<Option<Self>> {
        let mut state = self.store.state.lock().expect("durable state poisoned");
        if self.inner.appended_rows() == 0 && state.last_checkpoint_generation == state.generation {
            return Ok(None);
        }
        self.checkpoint_locked(&mut state).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileRelationWriter;
    use std::path::{Path, PathBuf};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "optrules-durable-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_file(dir: &Path, rows: u64) -> PathBuf {
        let path = dir.join("base.rel");
        let mut w = FileRelationWriter::create(&path, schema()).unwrap();
        for i in 0..rows {
            w.push_row(&[i as f64, (i * 2) as f64], &[i % 3 == 0])
                .unwrap();
        }
        w.finish().unwrap();
        path
    }

    fn frame(tag: f64, rows: usize) -> Vec<RowFrame> {
        (0..rows)
            .map(|i| RowFrame {
                numeric: vec![tag, i as f64],
                boolean: vec![i % 2 == 0],
            })
            .collect()
    }

    /// Flat oracle scan of any TupleScan.
    fn rows_of(rel: &dyn TupleScan) -> Vec<(u64, Vec<f64>, Vec<bool>)> {
        let mut out = Vec::new();
        rel.for_each_row(&mut |row, nums, bools| out.push((row, nums.to_vec(), bools.to_vec())))
            .unwrap();
        out
    }

    #[test]
    fn appends_reach_the_wal_before_the_version() {
        let dir = tmp_dir("wal-first");
        let base = base_file(&dir, 10);
        let data = dir.join("data");
        let rec = DurableRelation::open(&base, &data, DurabilityConfig::default()).unwrap();
        let rel = rec.relation;
        assert_eq!(rel.len(), 10);
        let v1 = rel.with_rows(&frame(100.0, 3)).unwrap();
        assert_eq!(v1.len(), 13);
        // The WAL holds the frame even though no checkpoint ran.
        let stats = v1.durability_stats().unwrap();
        assert_eq!(stats.unflushed_rows, 3);
        assert_eq!(stats.segments_spilled, 0);
        assert!(stats.wal_bytes > 8);
        // Old version still scans its snapshot.
        assert_eq!(rel.len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_budget_bounds_the_tail_and_truncates_the_wal() {
        let dir = tmp_dir("spill");
        let base = base_file(&dir, 10);
        let data = dir.join("data");
        let config = DurabilityConfig {
            spill_rows: 8,
            sync: WalSync::Always,
        };
        let mut rel = DurableRelation::open(&base, &data, config)
            .unwrap()
            .relation;
        for batch in 0..10 {
            rel = rel.with_rows(&frame(batch as f64, 3)).unwrap();
            assert!(
                rel.tail_rows() < 8,
                "tail {} after batch {batch}",
                rel.tail_rows()
            );
        }
        assert_eq!(rel.len(), 40);
        let stats = rel.durability_stats().unwrap();
        assert!(stats.segments_spilled >= 3);
        // The WAL holds at most the unflushed tail (3 rows here), never
        // the full append history: each checkpoint truncated it.
        assert!(stats.wal_bytes < 200, "wal_bytes {}", stats.wal_bytes);
        assert!(stats.unflushed_rows < 8);
        // An explicit flush empties it down to the 8-byte header.
        let rel = rel.checkpointed().unwrap().expect("tail to flush");
        assert_eq!(rel.durability_stats().unwrap().wal_bytes, 8);
        // The spilled relation still scans like the flat concatenation.
        let reopened = DurableRelation::open(&base, &data, config).unwrap();
        assert_eq!(rows_of(&reopened.relation), rows_of(&rel));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_spills_the_tail_once() {
        let dir = tmp_dir("flush");
        let base = base_file(&dir, 5);
        let data = dir.join("data");
        let rel = DurableRelation::open(&base, &data, DurabilityConfig::default())
            .unwrap()
            .relation;
        // Nothing to flush on a fresh open.
        assert!(rel.checkpointed().unwrap().is_none());
        let v1 = rel.with_rows(&frame(1.0, 4)).unwrap();
        let flushed = v1.checkpointed().unwrap().expect("tail must flush");
        assert_eq!(flushed.len(), 9);
        assert_eq!(flushed.tail_rows(), 0);
        let stats = flushed.durability_stats().unwrap();
        assert_eq!(stats.unflushed_rows, 0);
        assert_eq!(stats.segments_spilled, 1);
        assert_eq!(stats.last_checkpoint_generation, 1);
        assert_eq!(stats.wal_bytes, 8);
        // Same rows, same order — and idempotent.
        assert_eq!(rows_of(&flushed), rows_of(&v1));
        assert!(flushed.checkpointed().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_mismatch_leaves_wal_and_version_untouched() {
        let dir = tmp_dir("mismatch");
        let base = base_file(&dir, 5);
        let data = dir.join("data");
        let rel = DurableRelation::open(&base, &data, DurabilityConfig::default())
            .unwrap()
            .relation;
        let before = rel.durability_stats().unwrap();
        let bad = RowFrame {
            numeric: vec![1.0],
            boolean: vec![true],
        };
        assert!(rel.with_rows(&[bad]).is_err());
        assert_eq!(rel.durability_stats().unwrap(), before);
        // The WAL gained no frame: reopening finds exactly the base.
        let reopened = DurableRelation::open(&base, &data, DurabilityConfig::default()).unwrap();
        assert_eq!(reopened.relation.len(), 5);
        assert_eq!(reopened.generation, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_blocks_match_visitor_over_spilled_base_and_tail() {
        let dir = tmp_dir("columnar");
        let base = base_file(&dir, 20);
        let data = dir.join("data");
        let config = DurabilityConfig {
            spill_rows: 8,
            sync: WalSync::Always,
        };
        let mut rel = DurableRelation::open(&base, &data, config)
            .unwrap()
            .relation;
        for batch in 0..7 {
            rel = rel.with_rows(&frame(batch as f64, 5)).unwrap();
        }
        // Spilled segments and an in-memory tail both present.
        let stats = rel.durability_stats().unwrap();
        assert!(stats.segments_spilled >= 1);
        assert!(rel.tail_rows() > 0);
        let n = rel.len();
        crate::columnar::tests::assert_blocks_match_visitor(&rel, 0..n);
        crate::columnar::tests::assert_blocks_match_visitor(&rel, 7..(n - 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_append_rejected_before_the_wal() {
        let dir = tmp_dir("nonfinite");
        let base = base_file(&dir, 5);
        let data = dir.join("data");
        let rel = DurableRelation::open(&base, &data, DurabilityConfig::default())
            .unwrap()
            .relation;
        let before = rel.durability_stats().unwrap();
        let bad = RowFrame {
            numeric: vec![f64::NAN, 1.0],
            boolean: vec![true],
        };
        match rel.with_rows(&[bad]) {
            Err(crate::error::RelationError::NonFiniteValue { column: 0, .. }) => {}
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        assert_eq!(rel.durability_stats().unwrap(), before);
        // The WAL gained no frame: reopening replays nothing.
        let reopened = DurableRelation::open(&base, &data, DurabilityConfig::default()).unwrap();
        assert_eq!(reopened.relation.len(), 5);
        assert_eq!(reopened.generation, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plain_stores_report_no_durability() {
        let rel = Relation::new(schema());
        assert!(rel.durability_stats().is_none());
        assert!(rel.checkpointed().unwrap().is_none());
        let chunked = ChunkedRelation::new(rel);
        assert!(chunked.durability_stats().is_none());
        assert!(chunked.checkpointed().unwrap().is_none());
    }
}
