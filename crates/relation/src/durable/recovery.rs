//! Crash recovery: rebuilding a [`DurableRelation`] from base file +
//! manifest + spilled segments + WAL tail.
//!
//! Recovery is a pure function of the data directory:
//!
//! 1. open the base relation file and the `MANIFEST` (a missing
//!    manifest means a fresh directory — one is initialized);
//! 2. validate the manifest against the files (base row count, schema
//!    arity, segment row totals) — disagreement is corruption and an
//!    error, never a silent truncation;
//! 3. stack base + segments as the base parts of one
//!    [`ChunkedRelation`] (whose constructor rejects a segment with a
//!    different schema) and replay the WAL tail on top as its
//!    in-memory tail, tolerating a torn final frame and skipping frames
//!    a checkpoint already covered (a crash can land between the
//!    manifest rename and the WAL truncation);
//! 4. resume the generation counter at `manifest.generation` plus one
//!    per replayed frame — each logged append was exactly one engine
//!    generation.

use super::spill::{read_manifest, write_manifest, Manifest};
use super::wal::{self, WalWriter, WAL_FILE};
use super::{DurabilityConfig, DurableRelation, DurableStore, StoreState, WalSync};
use crate::chunked::ChunkedRelation;
use crate::error::{RelationError, Result};
use crate::file::FileRelation;
use crate::scan::TupleScan;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The outcome of opening a data directory: the recovered relation plus
/// what recovery had to do to produce it.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered, append-ready relation.
    pub relation: DurableRelation,
    /// Generation to resume the engine at (checkpointed generation plus
    /// one per replayed WAL frame).
    pub generation: u64,
    /// WAL frames replayed on top of the checkpointed state.
    pub replayed_frames: u64,
    /// Rows those frames held.
    pub replayed_rows: u64,
}

pub(crate) fn recover(base: &Path, dir: &Path, config: DurabilityConfig) -> Result<Recovery> {
    std::fs::create_dir_all(dir)?;
    let base_rel = Arc::new(FileRelation::open(base)?);
    let schema = base_rel.schema().clone();
    let layout = base_rel.layout();
    let bad = |msg: String| RelationError::BadHeader(format!("{}: {msg}", dir.display()));

    let (manifest, parts) = match read_manifest(dir)? {
        None => {
            // Fresh directory: record the starting state so a later
            // open can validate against a swapped base file.
            let manifest = Manifest {
                base_rows: base_rel.len(),
                numeric_count: layout.numeric_count,
                boolean_count: layout.boolean_count,
                generation: 0,
                durable_rows: base_rel.len(),
                segments: Vec::new(),
            };
            write_manifest(dir, &manifest)?;
            (manifest, vec![Arc::clone(&base_rel)])
        }
        Some(manifest) => {
            if manifest.base_rows != base_rel.len() {
                return Err(bad(format!(
                    "manifest expects a base of {} rows but {} has {}",
                    manifest.base_rows,
                    base.display(),
                    base_rel.len()
                )));
            }
            if manifest.numeric_count != layout.numeric_count
                || manifest.boolean_count != layout.boolean_count
            {
                return Err(bad(format!(
                    "manifest schema arity {}+{} does not match the base file's {}+{}",
                    manifest.numeric_count,
                    manifest.boolean_count,
                    layout.numeric_count,
                    layout.boolean_count
                )));
            }
            let mut parts = vec![Arc::clone(&base_rel)];
            for name in &manifest.segments {
                parts.push(Arc::new(FileRelation::open(dir.join(name))?));
            }
            let total: u64 = parts.iter().map(|p| p.len()).sum();
            if total != manifest.durable_rows {
                return Err(bad(format!(
                    "manifest records {} durable rows but base + segments hold {total}",
                    manifest.durable_rows
                )));
            }
            (manifest, parts)
        }
    };

    let next_segment_id = manifest
        .segments
        .iter()
        .filter_map(|n| {
            n.strip_prefix("seg-")?
                .strip_suffix(".rel")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(manifest.segments.len() as u64, |id| id + 1);

    let mut inner = ChunkedRelation::from_parts(parts)?;

    // Replay the WAL tail regardless of the *new* sync mode: a previous
    // run may have logged rows this run must not drop.
    let wal_path = dir.join(WAL_FILE);
    let replayed = wal::replay(&wal_path, layout, manifest.durable_rows)?;
    let mut replayed_rows = 0u64;
    for rows in &replayed.frames {
        inner = inner.append(rows)?;
        replayed_rows += rows.len() as u64;
    }
    let replayed_frames = replayed.frames.len() as u64;
    let generation = manifest.generation + replayed_frames;

    let wal_writer = if config.sync == WalSync::Off {
        None
    } else {
        Some(WalWriter::open(&wal_path, layout, replayed.valid_len)?)
    };

    let store = Arc::new(DurableStore {
        dir: dir.to_path_buf(),
        schema,
        layout,
        config,
        state: Mutex::new(StoreState {
            wal: wal_writer,
            durable_rows: manifest.durable_rows,
            generation,
            last_checkpoint_generation: manifest.generation,
            segments: manifest.segments,
            next_segment_id,
            base_rows: base_rel.len(),
        }),
        wal_fsync: optrules_obs::Histogram::new(),
        checkpoint: optrules_obs::Histogram::new(),
    });
    let mut relation = DurableRelation::from_parts(inner, store);

    if config.sync == WalSync::Off {
        // No WAL going forward: make the replayed rows durable now,
        // then drop the stale log.
        if replayed_rows > 0 {
            relation = relation.force_checkpoint()?;
        }
        let _ = std::fs::remove_file(&wal_path);
    }

    Ok(Recovery {
        relation,
        generation,
        replayed_frames,
        replayed_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{AppendRows, RowFrame};
    use crate::durable::Durability;
    use crate::file::FileRelationWriter;
    use crate::memory::Relation;
    use crate::scan::TupleScan;
    use crate::schema::Schema;
    use std::path::PathBuf;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "optrules-recovery-test-{}-{name}",
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

    fn rows_of(rel: &dyn TupleScan) -> Vec<(u64, Vec<f64>, Vec<bool>)> {
        let mut out = Vec::new();
        rel.for_each_row(&mut |row, nums, bools| out.push((row, nums.to_vec(), bools.to_vec())))
            .unwrap();
        out
    }

    /// Flat in-memory oracle: base rows then frames, in order.
    fn oracle(base_rows: u64, frames: &[Vec<RowFrame>]) -> Relation {
        let mut rel = Relation::new(schema());
        for i in 0..base_rows {
            rel.push_row(&[i as f64, (i * 2) as f64], &[i % 3 == 0])
                .unwrap();
        }
        for rows in frames {
            for row in rows {
                rel.push_row(&row.numeric, &row.boolean).unwrap();
            }
        }
        rel
    }

    #[test]
    fn reopen_recovers_wal_rows_and_generation() {
        let dir = tmp_dir("reopen");
        let base = base_file(&dir, 10);
        let data = dir.join("data");
        let config = DurabilityConfig::default();
        let frames = vec![frame(1.0, 3), frame(2.0, 2), frame(3.0, 4)];
        {
            let mut rel = DurableRelation::open(&base, &data, config)
                .unwrap()
                .relation;
            for rows in &frames {
                rel = rel.with_rows(rows).unwrap();
            }
            // Dropped without any checkpoint: rows live only in the WAL.
        }
        let rec = DurableRelation::open(&base, &data, config).unwrap();
        assert_eq!(rec.generation, 3);
        assert_eq!(rec.replayed_frames, 3);
        assert_eq!(rec.replayed_rows, 9);
        assert_eq!(rec.relation.len(), 19);
        assert_eq!(rows_of(&rec.relation), rows_of(&oracle(10, &frames)));
        // Idempotent: a second recovery sees the same state.
        let again = DurableRelation::open(&base, &data, config).unwrap();
        assert_eq!(again.generation, 3);
        assert_eq!(rows_of(&again.relation), rows_of(&rec.relation));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_spans_checkpoints_and_restarts() {
        let dir = tmp_dir("generation");
        let base = base_file(&dir, 5);
        let data = dir.join("data");
        let config = DurabilityConfig::default();
        {
            let mut rel = DurableRelation::open(&base, &data, config)
                .unwrap()
                .relation;
            for i in 0..3 {
                rel = rel.with_rows(&frame(i as f64, 2)).unwrap();
            }
            rel = rel.checkpointed().unwrap().unwrap();
            rel = rel.with_rows(&frame(9.0, 1)).unwrap();
            let _ = rel;
        }
        // 3 checkpointed generations + 1 replayed frame.
        let rec = DurableRelation::open(&base, &data, config).unwrap();
        assert_eq!(rec.generation, 4);
        assert_eq!(rec.replayed_frames, 1);
        assert_eq!(rec.relation.len(), 12);
        let stats = rec.relation.durability_stats().unwrap();
        assert_eq!(stats.last_checkpoint_generation, 3);
        assert_eq!(stats.unflushed_rows, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash between the manifest rename and the WAL truncation must
    /// not double-apply the spilled rows.
    #[test]
    fn interrupted_wal_truncation_skips_covered_frames() {
        let dir = tmp_dir("covered");
        let base = base_file(&dir, 4);
        let data = dir.join("data");
        let config = DurabilityConfig::default();
        let frames = vec![frame(1.0, 2), frame(2.0, 3)];
        {
            let mut rel = DurableRelation::open(&base, &data, config)
                .unwrap()
                .relation;
            for rows in &frames {
                rel = rel.with_rows(rows).unwrap();
            }
            // Snapshot the WAL as of "before the checkpoint truncated
            // it", checkpoint, then put the stale WAL back — exactly the
            // on-disk state a crash between the two steps leaves.
            let wal_bytes = std::fs::read(data.join(WAL_FILE)).unwrap();
            let rel = rel.checkpointed().unwrap().unwrap();
            drop(rel);
            std::fs::write(data.join(WAL_FILE), wal_bytes).unwrap();
        }
        let rec = DurableRelation::open(&base, &data, config).unwrap();
        assert_eq!(rec.replayed_frames, 0, "both frames were checkpointed");
        assert_eq!(rec.generation, 2);
        assert_eq!(rec.relation.len(), 9);
        assert_eq!(rows_of(&rec.relation), rows_of(&oracle(4, &frames)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_off_checkpoints_a_stale_wal_then_drops_it() {
        let dir = tmp_dir("off-migrate");
        let base = base_file(&dir, 4);
        let data = dir.join("data");
        {
            let rel = DurableRelation::open(&base, &data, DurabilityConfig::default())
                .unwrap()
                .relation;
            let _ = rel.with_rows(&frame(1.0, 3)).unwrap();
        }
        let off = DurabilityConfig {
            sync: WalSync::Off,
            ..DurabilityConfig::default()
        };
        let rec = DurableRelation::open(&base, &data, off).unwrap();
        assert_eq!(rec.replayed_rows, 3, "the Always-mode rows survive");
        assert_eq!(rec.relation.len(), 7);
        assert_eq!(rec.relation.tail_rows(), 0, "replayed rows were spilled");
        assert!(!data.join(WAL_FILE).exists(), "stale WAL removed");
        // Off-mode appends are volatile until a flush…
        let v1 = rec.relation.with_rows(&frame(2.0, 2)).unwrap();
        assert_eq!(v1.durability_stats().unwrap().wal_bytes, 0);
        drop(v1);
        let rec = DurableRelation::open(&base, &data, off).unwrap();
        assert_eq!(rec.relation.len(), 7, "unflushed Off-mode tail is lost");
        // …and durable after one.
        let v1 = rec.relation.with_rows(&frame(3.0, 2)).unwrap();
        let flushed = v1.checkpointed().unwrap().unwrap();
        drop(flushed);
        let rec = DurableRelation::open(&base, &data, off).unwrap();
        assert_eq!(rec.relation.len(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_file_disagreements_are_errors() {
        let dir = tmp_dir("disagree");
        let base = base_file(&dir, 6);
        let data = dir.join("data");
        let config = DurabilityConfig::default();
        {
            let rel = DurableRelation::open(&base, &data, config)
                .unwrap()
                .relation;
            let v1 = rel.with_rows(&frame(1.0, 2)).unwrap();
            let _ = v1.checkpointed().unwrap().unwrap();
        }
        // Swapped base file (different row count).
        let other = dir.join("other.rel");
        let mut w = FileRelationWriter::create(&other, schema()).unwrap();
        w.push_row(&[0.0, 0.0], &[false]).unwrap();
        w.finish().unwrap();
        assert!(matches!(
            DurableRelation::open(&other, &data, config),
            Err(RelationError::BadHeader(_))
        ));
        // Missing segment file.
        std::fs::remove_file(data.join("seg-000000.rel")).unwrap();
        assert!(DurableRelation::open(&base, &data, config).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_ids_resume_past_existing_files() {
        let dir = tmp_dir("segids");
        let base = base_file(&dir, 3);
        let data = dir.join("data");
        let config = DurabilityConfig::default();
        {
            let rel = DurableRelation::open(&base, &data, config)
                .unwrap()
                .relation;
            let v = rel.with_rows(&frame(1.0, 2)).unwrap();
            let v = v.checkpointed().unwrap().unwrap();
            let v = v.with_rows(&frame(2.0, 2)).unwrap();
            let _ = v.checkpointed().unwrap().unwrap();
        }
        let rec = DurableRelation::open(&base, &data, config).unwrap();
        let v = rec.relation.with_rows(&frame(3.0, 2)).unwrap();
        let _ = v.checkpointed().unwrap().unwrap();
        // Three distinct segment files, never overwritten.
        for id in 0..3 {
            assert!(data.join(format!("seg-{id:06}.rel")).exists(), "seg {id}");
        }
        let rec = DurableRelation::open(&base, &data, config).unwrap();
        assert_eq!(rec.relation.len(), 9);
        assert_eq!(rec.relation.durability_stats().unwrap().segments_spilled, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
