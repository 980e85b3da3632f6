//! Segment spill: writing frozen in-memory tail rows back to disk as
//! relation files, and stacking the resulting file segments into one
//! scannable base.
//!
//! A checkpoint turns the in-memory tail of a
//! [`ChunkedRelation`](crate::chunked::ChunkedRelation) into a
//! `seg-NNNNNN.rel` file (same "OPTR" format as the original base, via
//! [`FileRelationWriter`]), then records the new segment list in a
//! `MANIFEST`. Both writes are crash-atomic: data goes to a `.tmp`
//! path, is fsync'd, and is renamed into place — a crash leaves either
//! the old state or the new state, never a half-written file that the
//! next open would trust.

use crate::columnar::{BlockVisitor, ColumnarScan, Projection};
use crate::error::{RelationError, Result};
use crate::file::{FileRelation, FileRelationWriter};
use crate::scan::{fetch_by_part, RandomAccess, RowVisitor, TupleScan};
use crate::schema::{NumAttr, Schema};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// File name of the manifest inside a data directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "optrules-manifest v1";

/// A read-only base made of stacked file segments: the original base
/// relation followed by spilled segments, scanned in order as one
/// relation. Always holds at least one part.
#[derive(Debug)]
pub(crate) struct BaseStack {
    parts: Vec<Arc<FileRelation>>,
    /// Global start row of each part (parallel to `parts`).
    starts: Vec<u64>,
    rows: u64,
}

impl BaseStack {
    /// Stacks `parts` in order. Must be non-empty; every part must share
    /// the first part's schema (the caller validates names; arity
    /// mismatches would corrupt scans, so they are checked here).
    pub fn new(parts: Vec<Arc<FileRelation>>) -> Result<Self> {
        let first = parts.first().expect("BaseStack needs at least one part");
        let schema = first.schema().clone();
        let mut starts = Vec::with_capacity(parts.len());
        let mut rows = 0u64;
        for part in &parts {
            if part.schema() != &schema {
                return Err(RelationError::SchemaMismatch {
                    expected: format!("{schema:?}"),
                    got: format!("{:?} (segment {})", part.schema(), part.path().display()),
                });
            }
            starts.push(rows);
            rows += part.len();
        }
        Ok(Self {
            parts,
            starts,
            rows,
        })
    }

    /// A new stack with one more part appended.
    pub fn with_part(&self, part: Arc<FileRelation>) -> Self {
        let mut parts = self.parts.clone();
        let mut starts = self.starts.clone();
        starts.push(self.rows);
        let rows = self.rows + part.len();
        parts.push(part);
        Self {
            parts,
            starts,
            rows,
        }
    }
}

impl TupleScan for BaseStack {
    fn schema(&self) -> &Schema {
        self.parts[0].schema()
    }

    fn len(&self) -> u64 {
        self.rows
    }

    fn for_each_row_in(&self, range: Range<u64>, f: RowVisitor<'_>) -> Result<()> {
        let start = range.start;
        let end = range.end.min(self.rows);
        if start >= end {
            return Ok(());
        }
        for (part, &part_start) in self.parts.iter().zip(&self.starts) {
            if end <= part_start {
                break;
            }
            let part_end = part_start + part.len();
            if start >= part_end {
                continue;
            }
            let lo = start.max(part_start) - part_start;
            let hi = end.min(part_end) - part_start;
            part.for_each_row_in(lo..hi, &mut |row, nums, bools| {
                f(part_start + row, nums, bools);
            })?;
        }
        Ok(())
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        Some(self)
    }
}

impl ColumnarScan for BaseStack {
    /// Forwards to each overlapping [`FileRelation`] part in row order,
    /// rebasing part-local blocks into the stack's global row space.
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()> {
        let start = range.start;
        let end = range.end.min(self.rows);
        if start >= end {
            return Ok(());
        }
        for (part, &part_start) in self.parts.iter().zip(&self.starts) {
            if end <= part_start {
                break;
            }
            let part_end = part_start + part.len();
            if start >= part_end {
                continue;
            }
            let lo = start.max(part_start) - part_start;
            let hi = end.min(part_end) - part_start;
            part.for_each_block_projected(lo..hi, cols, &mut |block| {
                f(&block.rebased(part_start + block.start));
            })?;
        }
        Ok(())
    }
}

impl RandomAccess for BaseStack {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        if row >= self.rows {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        let i = self.starts.partition_point(|&s| s <= row) - 1;
        self.parts[i].numeric_at(attr, row - self.starts[i])
    }

    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        fetch_by_part(&self.starts, self.rows, rows, out, |part, rows, out| {
            self.parts[part].numeric_at_many(attr, rows, out)
        })
    }
}

/// The durable state a data directory records between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Rows in the original base relation file when the directory was
    /// initialized (a safety check against swapping the base file).
    pub base_rows: u64,
    /// Numeric attribute count (schema arity check).
    pub numeric_count: usize,
    /// Boolean attribute count (schema arity check).
    pub boolean_count: usize,
    /// Engine generation as of the last checkpoint.
    pub generation: u64,
    /// Total rows durable in base + segments (rows past this live in
    /// the WAL).
    pub durable_rows: u64,
    /// Spilled segment file names, oldest first.
    pub segments: Vec<String>,
}

/// Atomically writes `manifest` into `dir` (tmp + fsync + rename + best
/// effort directory fsync).
pub(crate) fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<()> {
    let mut text = format!(
        "{MANIFEST_HEADER}\nbase_rows {}\nnumeric {}\nboolean {}\ngeneration {}\ndurable_rows {}\n",
        manifest.base_rows,
        manifest.numeric_count,
        manifest.boolean_count,
        manifest.generation,
        manifest.durable_rows,
    );
    for name in &manifest.segments {
        text.push_str("segment ");
        text.push_str(name);
        text.push('\n');
    }
    let tmp = dir.join("MANIFEST.tmp");
    let final_path = dir.join(MANIFEST_FILE);
    {
        let mut file = std::fs::File::create(&tmp)?;
        use std::io::Write;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, &final_path)?;
    sync_dir(dir);
    Ok(())
}

/// Reads the manifest in `dir`; `Ok(None)` when the directory has never
/// been checkpointed (fresh data dir).
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let bad = |msg: String| RelationError::BadHeader(format!("{}: {msg}", path.display()));
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(bad(format!("expected {MANIFEST_HEADER:?} header")));
    }
    let mut fields = [None::<u64>; 5];
    const KEYS: [&str; 5] = [
        "base_rows",
        "numeric",
        "boolean",
        "generation",
        "durable_rows",
    ];
    let mut segments = Vec::new();
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else {
            return Err(bad(format!("malformed line {line:?}")));
        };
        if key == "segment" {
            segments.push(value.to_string());
            continue;
        }
        let Some(slot) = KEYS.iter().position(|&k| k == key) else {
            return Err(bad(format!("unknown key {key:?}")));
        };
        let parsed = value
            .parse::<u64>()
            .map_err(|_| bad(format!("{key} is not a number: {value:?}")))?;
        fields[slot] = Some(parsed);
    }
    let field = |i: usize| fields[i].ok_or_else(|| bad(format!("missing {}", KEYS[i])));
    Ok(Some(Manifest {
        base_rows: field(0)?,
        numeric_count: field(1)? as usize,
        boolean_count: field(2)? as usize,
        generation: field(3)?,
        durable_rows: field(4)?,
        segments,
    }))
}

/// Spills `source`'s rows in `range` into `dir/name` as an "OPTR"
/// relation file, crash-atomically, and opens the result.
pub(crate) fn spill_segment(
    dir: &Path,
    name: &str,
    schema: &Schema,
    source: &dyn TupleScan,
    range: Range<u64>,
) -> Result<Arc<FileRelation>> {
    let tmp = dir.join(format!("{name}.tmp"));
    let final_path = dir.join(name);
    let mut writer = FileRelationWriter::create(&tmp, schema.clone())?;
    // The visitor can't return an error, so capture the first failure
    // and re-raise it after the scan.
    let mut write_err: Option<RelationError> = None;
    source.for_each_row_in(range, &mut |_, nums, bools| {
        if write_err.is_none() {
            if let Err(e) = writer.push_row(nums, bools) {
                write_err = Some(e);
            }
        }
    })?;
    if let Some(e) = write_err {
        return Err(e);
    }
    // finish() syncs and reopens at the tmp path; drop that handle and
    // rename before the real open, because FileRelation re-opens its
    // own path on every sequential scan.
    drop(writer.finish()?);
    std::fs::rename(&tmp, &final_path)?;
    sync_dir(dir);
    Ok(Arc::new(FileRelation::open(&final_path)?))
}

/// Best-effort directory fsync so renames survive power loss; ignored on
/// platforms where opening a directory for sync is not supported.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = std::fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Relation;
    use std::path::PathBuf;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .build()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("optrules-spill-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mem(rows: Range<u64>) -> Relation {
        let mut rel = Relation::new(schema());
        for i in rows {
            rel.push_row(&[i as f64, (i * 2) as f64], &[i % 3 == 0])
                .unwrap();
        }
        rel
    }

    #[test]
    fn manifest_roundtrips() {
        let dir = tmp_dir("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let manifest = Manifest {
            base_rows: 100,
            numeric_count: 2,
            boolean_count: 1,
            generation: 7,
            durable_rows: 140,
            segments: vec!["seg-000000.rel".into(), "seg-000001.rel".into()],
        };
        write_manifest(&dir, &manifest).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(manifest.clone()));
        // Overwrite is atomic and replaces the old contents entirely.
        let newer = Manifest {
            generation: 9,
            segments: Vec::new(),
            ..manifest
        };
        write_manifest(&dir, &newer).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(newer));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_manifests_are_errors() {
        let dir = tmp_dir("badmanifest");
        for text in [
            "not a manifest\n",
            "optrules-manifest v1\nbase_rows ten\n",
            "optrules-manifest v1\nmystery 4\n",
            "optrules-manifest v1\nbase_rows 1\n", // missing fields
        ] {
            std::fs::write(dir.join(MANIFEST_FILE), text).unwrap();
            assert!(
                matches!(read_manifest(&dir), Err(RelationError::BadHeader(_))),
                "accepted {text:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_segment_holds_exactly_the_range() {
        let dir = tmp_dir("spill");
        let source = mem(0..50);
        let seg = spill_segment(&dir, "seg-000000.rel", &schema(), &source, 10..30).unwrap();
        assert_eq!(seg.len(), 20);
        let mut rows = Vec::new();
        seg.for_each_row(&mut |row, nums, bools| rows.push((row, nums[0], bools[0])))
            .unwrap();
        assert_eq!(rows[0], (0, 10.0, false));
        assert_eq!(rows[19], (19, 29.0, false));
        assert!(!dir.join("seg-000000.rel.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn base_stack_scans_like_the_concatenation() {
        let dir = tmp_dir("stack");
        let a = spill_segment(&dir, "a.rel", &schema(), &mem(0..10), 0..10).unwrap();
        let b = spill_segment(&dir, "b.rel", &schema(), &mem(10..25), 0..15).unwrap();
        let stack = BaseStack::new(vec![a, b]).unwrap();
        assert_eq!(stack.len(), 25);
        let flat = mem(0..25);
        let mut seen = Vec::new();
        stack
            .for_each_row(&mut |row, nums, bools| seen.push((row, nums.to_vec(), bools.to_vec())))
            .unwrap();
        let mut want = Vec::new();
        flat.for_each_row(&mut |row, nums, bools| want.push((row, nums.to_vec(), bools.to_vec())))
            .unwrap();
        assert_eq!(seen, want);
        // Partial range across the part boundary.
        let mut xs = Vec::new();
        stack
            .for_each_row_in(8..12, &mut |row, nums, _| xs.push((row, nums[0])))
            .unwrap();
        assert_eq!(xs, vec![(8, 8.0), (9, 9.0), (10, 10.0), (11, 11.0)]);
        // Random access spans parts; out of bounds errors.
        for row in [0u64, 9, 10, 24] {
            assert_eq!(stack.numeric_at(NumAttr(0), row).unwrap(), row as f64);
        }
        assert!(stack.numeric_at(NumAttr(0), 25).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn base_stack_rejects_mismatched_schemas() {
        let dir = tmp_dir("mismatch");
        let a = spill_segment(&dir, "a.rel", &schema(), &mem(0..5), 0..5).unwrap();
        let other = Schema::builder().numeric("Z").build();
        let mut rel = Relation::new(other.clone());
        rel.push_row(&[1.0], &[]).unwrap();
        let b = spill_segment(&dir, "b.rel", &other, &rel, 0..1).unwrap();
        assert!(matches!(
            BaseStack::new(vec![a, b]),
            Err(RelationError::SchemaMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
