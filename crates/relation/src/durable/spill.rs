//! Segment spill: writing frozen in-memory tail rows back to disk as
//! relation files, and the `MANIFEST` that lists them. The segments are
//! read back as base parts of a
//! [`ChunkedRelation`](crate::chunked::ChunkedRelation), after the
//! original base file.
//!
//! A checkpoint turns the in-memory tail of a
//! [`ChunkedRelation`](crate::chunked::ChunkedRelation) into a
//! `seg-NNNNNN.rel` file (same "OPTR" format as the original base, via
//! [`FileRelationWriter`]), then records the new segment list in a
//! `MANIFEST`. Both writes are crash-atomic: data goes to a `.tmp`
//! path, is fsync'd, and is renamed into place — a crash leaves either
//! the old state or the new state, never a half-written file that the
//! next open would trust.

use crate::error::{RelationError, Result};
use crate::file::{FileRelation, FileRelationWriter};
use crate::scan::TupleScan;
use crate::schema::Schema;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// File name of the manifest inside a data directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "optrules-manifest v1";

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
}
