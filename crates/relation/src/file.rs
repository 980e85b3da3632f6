//! File-backed fixed-width row store.
//!
//! The paper's §6.1 experiments keep the relation in the file system
//! ("The test data resided in the AIX file system on a 3.5″ 1.2-GB IDE
//! drive") and all bucketing algorithms are judged by how they access
//! it: Algorithm 3.1 wins precisely because it replaces per-attribute
//! sorts of the file with one sequential counting scan plus a small
//! in-memory sample sort. This module reproduces that setting with a
//! seekable fixed-width record file:
//!
//! ```text
//! [magic "OPTR"][version u32][n_num u32][n_bool u32][rows u64]
//! [attribute names: u32 length + UTF-8, numerics then Booleans]
//! [record 0][record 1]…      (each 8·n_num + n_bool bytes)
//! ```
//!
//! Sequential scans go through `BufReader`; random access (needed by
//! with-replacement sampling) seeks directly to
//! `data_start + row · record_size`, and a whole sample is fetched in
//! one batch that coalesces neighbouring indices into shared reads.

use crate::bitcol::BitSpan;
use crate::columnar::{BlockVisitor, ColumnBlock, ColumnarScan, Projection, NO_ZONE};
use crate::encoding::RecordLayout;
use crate::error::{RelationError, Result};
use crate::scan::{RandomAccess, TupleScan};
use crate::schema::{NumAttr, Schema};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

const MAGIC: &[u8; 4] = b"OPTR";
const VERSION: u32 = 1;
/// Byte offset of the row-count field (fixed so `finish` can patch it).
const ROWS_OFFSET: u64 = 16;
/// Bytes per `write` of [`FileRelationWriter`], each starting on a
/// multiple of this offset. The page cache keeps a file in the pieces
/// it was written in: small writes at drifting offsets leave single
/// pages scattered over memory, and every later pass over the cached
/// file pays for each page separately — 3.7 to 6.6 ms per pass over a
/// 35 MB file, a different figure for every file written. Aligned
/// 256 KiB writes leave large contiguous runs that read at 3.4–3.5 ms
/// every time; larger chunks measured no better.
const WRITE_CHUNK_BYTES: usize = 256 << 10;

/// Streaming writer that creates a relation file.
#[derive(Debug)]
pub struct FileRelationWriter {
    path: PathBuf,
    file: File,
    schema: Schema,
    layout: RecordLayout,
    rows: u64,
    /// Encoded bytes not yet written: the header, then rows, drained
    /// one whole [`WRITE_CHUNK_BYTES`] chunk at a time.
    pending: Vec<u8>,
}

impl FileRelationWriter {
    /// Creates (truncating) a relation file at `path` with the given
    /// schema and queues its header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation.
    pub fn create(path: impl AsRef<Path>, schema: Schema) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let layout = RecordLayout::new(schema.numeric_count(), schema.boolean_count());
        let mut pending = Vec::with_capacity(WRITE_CHUNK_BYTES + layout.record_size());
        pending.extend_from_slice(MAGIC);
        pending.extend_from_slice(&VERSION.to_le_bytes());
        pending.extend_from_slice(&(schema.numeric_count() as u32).to_le_bytes());
        pending.extend_from_slice(&(schema.boolean_count() as u32).to_le_bytes());
        pending.extend_from_slice(&0u64.to_le_bytes()); // row count, patched in finish()
        for name in schema.numeric_names().iter().chain(schema.boolean_names()) {
            pending.extend_from_slice(&(name.len() as u32).to_le_bytes());
            pending.extend_from_slice(name.as_bytes());
        }
        Ok(Self {
            path,
            file,
            schema,
            layout,
            rows: 0,
            pending,
        })
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns a schema mismatch for wrong arities, or an I/O error.
    pub fn push_row(&mut self, numeric: &[f64], boolean: &[bool]) -> Result<()> {
        self.layout
            .encode_row(numeric, boolean, &mut self.pending)?;
        self.rows += 1;
        while self.pending.len() >= WRITE_CHUNK_BYTES {
            self.file.write_all(&self.pending[..WRITE_CHUNK_BYTES])?;
            self.pending.drain(..WRITE_CHUNK_BYTES);
        }
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The schema this writer encodes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Writes what is pending, patches the row count into the header,
    /// and reopens the file as a readable [`FileRelation`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(self) -> Result<FileRelation> {
        let mut file = self.file;
        file.write_all(&self.pending)?;
        file.seek(SeekFrom::Start(ROWS_OFFSET))?;
        file.write_all(&self.rows.to_le_bytes())?;
        file.sync_all()?;
        drop(file);
        FileRelation::open(&self.path)
    }
}

/// A read-only file-backed relation.
#[derive(Debug)]
pub struct FileRelation {
    path: PathBuf,
    schema: Schema,
    layout: RecordLayout,
    rows: u64,
    data_start: u64,
    /// Cached handle for random access reads; sequential scans open
    /// their own handles so concurrent partitioned scans never contend.
    ra_handle: Mutex<File>,
}

impl FileRelation {
    /// Opens an existing relation file and validates its header.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::BadHeader`] on malformed files and
    /// propagates I/O errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut reader = BufReader::new(File::open(&path)?);
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(RelationError::BadHeader(format!(
                "bad magic {magic:?}, expected {MAGIC:?}"
            )));
        }
        let version = read_u32(&mut reader)?;
        if version != VERSION {
            return Err(RelationError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let n_num = read_u32(&mut reader)? as usize;
        let n_bool = read_u32(&mut reader)? as usize;
        let rows = read_u64(&mut reader)?;
        let mut builder = Schema::builder();
        for i in 0..n_num + n_bool {
            let len = read_u32(&mut reader)? as usize;
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            let name = String::from_utf8(buf)
                .map_err(|e| RelationError::BadHeader(format!("attribute name not UTF-8: {e}")))?;
            builder = if i < n_num {
                builder.numeric(name)
            } else {
                builder.boolean(name)
            };
        }
        let schema = builder.build();
        let data_start = reader.stream_position()?;
        let layout = RecordLayout::new(n_num, n_bool);
        let ra_handle = Mutex::new(File::open(&path)?);
        Ok(Self {
            path,
            schema,
            layout,
            rows,
            data_start,
            ra_handle,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The record layout (useful for size accounting in benchmarks).
    pub fn layout(&self) -> RecordLayout {
        self.layout
    }

    /// Total bytes occupied by tuple data.
    pub fn data_bytes(&self) -> u64 {
        self.rows * self.layout.record_size() as u64
    }
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

impl TupleScan for FileRelation {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> u64 {
        self.rows
    }

    fn for_each_row_in(
        &self,
        range: Range<u64>,
        f: &mut dyn FnMut(u64, &[f64], &[bool]),
    ) -> Result<()> {
        let end = range.end.min(self.rows);
        if range.start >= end {
            return Ok(());
        }
        let record_size = self.layout.record_size();
        // A fresh handle per scan keeps concurrent partitioned scans
        // (Algorithm 3.2) independent.
        let mut reader = BufReader::with_capacity(1 << 18, File::open(&self.path)?);
        reader.seek(SeekFrom::Start(
            self.data_start + range.start * record_size as u64,
        ))?;
        let mut record = vec![0u8; record_size];
        let mut nums = vec![0.0_f64; self.layout.numeric_count];
        let mut bools = vec![false; self.layout.boolean_count];
        for row in range.start..end {
            reader.read_exact(&mut record)?;
            self.layout.decode_row(&record, &mut nums, &mut bools)?;
            f(row, &nums, &bools);
        }
        Ok(())
    }

    fn as_columnar(&self) -> Option<&dyn ColumnarScan> {
        Some(self)
    }
}

/// Rows decoded per [`ColumnarScan`] block: one bulk `read_exact` and
/// one column-buffer transpose per block. At the paper's 72-byte
/// tuples a block is ~576 KiB of file data — large enough to amortize
/// the syscall, small enough to stay cache-resident while kernels
/// re-walk the decoded columns.
const COLUMNAR_BLOCK_ROWS: usize = 8192;

/// Exponent bits of an IEEE-754 double: all set exactly when the value
/// is NaN or infinite, so a raw little-endian word is checked for
/// finiteness without decoding it.
const EXPONENT_BITS: u64 = 0x7FF0_0000_0000_0000;

impl FileRelation {
    /// The first non-finite cell of a raw block in row-major order —
    /// the cell the row path would have failed on. Only called once
    /// the column-wise pass saw one somewhere in `raw`.
    fn first_non_finite(&self, raw: &[u8]) -> RelationError {
        for record in raw.chunks_exact(self.layout.record_size()) {
            for column in 0..self.layout.numeric_count {
                let value = self.layout.decode_numeric(record, column);
                if !value.is_finite() {
                    return RelationError::NonFiniteValue { column, value };
                }
            }
        }
        unreachable!("a non-finite word was seen in this block")
    }

    /// Byte offset in the file of `attr`'s value at `row`.
    fn value_offset(&self, attr: NumAttr, row: u64) -> u64 {
        self.data_start
            + row * self.layout.record_size() as u64
            + self.layout.numeric_offset(attr.0) as u64
    }

    /// The shared random-access handle. Every read seeks first, so the
    /// handle carries no state a panicking holder could have left
    /// half-updated: a poisoned lock is recovered, not propagated.
    fn random_access_handle(&self) -> MutexGuard<'_, File> {
        self.ra_handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl ColumnarScan for FileRelation {
    /// Decodes the range block by block (≤ [`COLUMNAR_BLOCK_ROWS`] rows
    /// each): one bulk read per block, then one pass over the raw
    /// records **per column**. A projected column is transposed into
    /// its buffer with its zone computed on the way; an unprojected
    /// one is only checked for finiteness on the raw words, so every
    /// numeric cell read still fails the scan just like
    /// [`RecordLayout::decode_row`] would on the row path — same error,
    /// first offender in row-major order.
    fn for_each_block_projected(
        &self,
        range: Range<u64>,
        cols: &Projection,
        f: BlockVisitor<'_>,
    ) -> Result<()> {
        let end = range.end.min(self.rows);
        if range.start >= end {
            return Ok(());
        }
        let record_size = self.layout.record_size();
        let n_num = self.layout.numeric_count;
        let n_bool = self.layout.boolean_count;
        // A fresh handle per scan, as in the row path, so concurrent
        // partitioned scans never contend.
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(
            self.data_start + range.start * record_size as u64,
        ))?;
        let mut raw = Vec::new();
        let mut num_bufs: Vec<Vec<f64>> = vec![Vec::new(); n_num];
        let mut bit_bufs: Vec<Vec<u64>> = vec![Vec::new(); n_bool];
        let mut start = range.start;
        while start < end {
            let rows = ((end - start) as usize).min(COLUMNAR_BLOCK_ROWS);
            raw.resize(rows * record_size, 0);
            file.read_exact(&mut raw)?;
            let mut zones = vec![NO_ZONE; n_num];
            let mut non_finite = false;
            for (col, buf) in num_bufs.iter_mut().enumerate() {
                let off = self.layout.numeric_offset(col);
                let words = raw.chunks_exact(record_size).map(|record| {
                    let bytes: [u8; 8] = record[off..off + 8].try_into().expect("8-byte slice");
                    u64::from_le_bytes(bytes)
                });
                if !cols.has_numeric(col) {
                    for word in words {
                        non_finite |= word & EXPONENT_BITS == EXPONENT_BITS;
                    }
                    continue;
                }
                buf.clear();
                buf.reserve_exact(rows);
                let (mut lo, mut hi) = NO_ZONE;
                for word in words {
                    non_finite |= word & EXPONENT_BITS == EXPONENT_BITS;
                    let v = f64::from_bits(word);
                    buf.push(v);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                zones[col] = (lo, hi);
            }
            if non_finite {
                return Err(self.first_non_finite(&raw));
            }
            for (col, buf) in bit_bufs.iter_mut().enumerate() {
                if !cols.has_boolean(col) {
                    continue;
                }
                let off = self.layout.boolean_offset(col);
                buf.clear();
                for group in raw.chunks(64 * record_size) {
                    let mut word = 0u64;
                    for (bit, record) in group.chunks_exact(record_size).enumerate() {
                        word |= u64::from(record[off] != 0) << bit;
                    }
                    buf.push(word);
                }
            }
            let block = ColumnBlock {
                start,
                rows,
                numeric: (num_bufs.iter().enumerate())
                    .map(|(col, b)| if cols.has_numeric(col) { &b[..] } else { &[] })
                    .collect(),
                bits: (bit_bufs.iter().enumerate())
                    .map(|(col, b)| {
                        if cols.has_boolean(col) {
                            BitSpan::from_words(b, rows)
                        } else {
                            BitSpan::default()
                        }
                    })
                    .collect(),
                zones,
            };
            f(&block);
            start += rows as u64;
        }
        Ok(())
    }
}

/// Sorted sample indices whose bytes lie at most this far apart are
/// fetched by one read: skipping a gap costs a page-cache copy of the
/// gap, a separate read costs a syscall, and the two break even at
/// about 2–4 KiB (≈ 230 ns either way).
pub const COALESCE_GAP_BYTES: u64 = 4 << 10;

/// Upper bound on one coalesced read — the size of the batched fetch's
/// only buffer.
pub const COALESCE_SPAN_BYTES: u64 = 64 << 10;

impl RandomAccess for FileRelation {
    fn numeric_at(&self, attr: NumAttr, row: u64) -> Result<f64> {
        if row >= self.rows {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        let mut file = self.random_access_handle();
        file.seek(SeekFrom::Start(self.value_offset(attr, row)))?;
        let mut buf = [0u8; 8];
        file.read_exact(&mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }

    /// Sorts a permutation of the draw by row, reads neighbours closer
    /// than [`COALESCE_GAP_BYTES`] in one span of at most
    /// [`COALESCE_SPAN_BYTES`], and scatters the values back into
    /// request order. One mechanism for both regimes: a sample that
    /// touches every page of the file becomes a few hundred sequential
    /// reads, a sample far sparser than that stays one 8-byte read per
    /// index. Scratch is the `u32` permutation plus the span buffer.
    fn numeric_at_many(&self, attr: NumAttr, rows: &[u64], out: &mut [f64]) -> Result<()> {
        assert_eq!(rows.len(), out.len(), "one output slot per requested row");
        if let Some(&row) = rows.iter().find(|&&row| row >= self.rows) {
            return Err(RelationError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        let offset_of = |row: u64| self.value_offset(attr, row);
        let mut file = self.random_access_handle();
        // The permutation holds `u32`s; a draw longer than that goes in
        // slices.
        for (rows, out) in (rows.chunks(u32::MAX as usize)).zip(out.chunks_mut(u32::MAX as usize)) {
            let mut order: Vec<u32> = (0..rows.len() as u32).collect();
            order.sort_unstable_by_key(|&i| rows[i as usize]);
            let (first, last) = (order[0] as usize, order[order.len() - 1] as usize);
            let reach = offset_of(rows[last]) + 8 - offset_of(rows[first]);
            let mut buf = vec![0u8; reach.min(COALESCE_SPAN_BYTES) as usize];
            let mut at = 0;
            while at < order.len() {
                let span_start = offset_of(rows[order[at] as usize]);
                let mut span_end = span_start + 8;
                let mut next = at + 1;
                while next < order.len() {
                    let value_end = offset_of(rows[order[next] as usize]) + 8;
                    if value_end - span_end > COALESCE_GAP_BYTES + 8
                        || value_end - span_start > COALESCE_SPAN_BYTES
                    {
                        break;
                    }
                    span_end = value_end;
                    next += 1;
                }
                let span = &mut buf[..(span_end - span_start) as usize];
                file.seek(SeekFrom::Start(span_start))?;
                file.read_exact(span)?;
                for &i in &order[at..next] {
                    let off = (offset_of(rows[i as usize]) - span_start) as usize;
                    let bytes: [u8; 8] = span[off..off + 8].try_into().expect("8-byte slice");
                    out[i as usize] = f64::from_le_bytes(bytes);
                }
                at = next;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_schema;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("optrules-file-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_small() {
        let path = tmp("roundtrip");
        let schema = Schema::builder()
            .numeric("Balance")
            .boolean("CardLoan")
            .build();
        let mut w = FileRelationWriter::create(&path, schema.clone()).unwrap();
        for i in 0..100 {
            w.push_row(&[i as f64 * 1.5], &[i % 3 == 0]).unwrap();
        }
        assert_eq!(w.rows(), 100);
        let rel = w.finish().unwrap();
        assert_eq!(rel.len(), 100);
        assert_eq!(rel.schema(), &schema);

        let mut seen = 0u64;
        rel.for_each_row(&mut |idx, nums, bools| {
            assert_eq!(nums[0], idx as f64 * 1.5);
            assert_eq!(bools[0], idx % 3 == 0);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 100);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrip_across_write_chunks() {
        let path = tmp("chunks");
        let schema = Schema::builder().numeric("X").numeric("Y").boolean("B");
        let mut w = FileRelationWriter::create(&path, schema.build()).unwrap();
        // 17-byte records: no chunk boundary falls on a record boundary.
        let n = 3 * WRITE_CHUNK_BYTES as u64 / 17 + 1000;
        for i in 0..n {
            w.push_row(&[i as f64, -(i as f64)], &[i % 7 == 0]).unwrap();
        }
        let rel = w.finish().unwrap();
        assert_eq!(rel.len(), n);
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk, rel.data_start + rel.data_bytes());
        let mut seen = 0u64;
        rel.for_each_row(&mut |idx, nums, bools| {
            assert_eq!(nums, [idx as f64, -(idx as f64)]);
            assert_eq!(bools, [idx % 7 == 0]);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, n);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_range_scan() {
        let path = tmp("range");
        let schema = Schema::builder().numeric("X").build();
        let mut w = FileRelationWriter::create(&path, schema).unwrap();
        for i in 0..50 {
            w.push_row(&[i as f64], &[]).unwrap();
        }
        let rel = w.finish().unwrap();
        let mut rows = Vec::new();
        rel.for_each_row_in(10..20, &mut |idx, nums, _| rows.push((idx, nums[0])))
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0], (10, 10.0));
        assert_eq!(rows[9], (19, 19.0));
        // Out-of-bounds end clamps.
        let mut count = 0;
        rel.for_each_row_in(45..1000, &mut |_, _, _| count += 1)
            .unwrap();
        assert_eq!(count, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn random_access_reads() {
        let path = tmp("ra");
        let schema = Schema::builder().numeric("A").numeric("B").build();
        let mut w = FileRelationWriter::create(&path, schema).unwrap();
        for i in 0..20 {
            w.push_row(&[i as f64, 100.0 + i as f64], &[]).unwrap();
        }
        let rel = w.finish().unwrap();
        assert_eq!(rel.numeric_at(NumAttr(0), 7).unwrap(), 7.0);
        assert_eq!(rel.numeric_at(NumAttr(1), 7).unwrap(), 107.0);
        assert!(rel.numeric_at(NumAttr(0), 20).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn paper_layout_file_size() {
        let path = tmp("size");
        let mut w = FileRelationWriter::create(&path, paper_schema()).unwrap();
        let nums = [0.0; 8];
        let bools = [false; 8];
        for _ in 0..1000 {
            w.push_row(&nums, &bools).unwrap();
        }
        let rel = w.finish().unwrap();
        // 72 bytes per tuple, as in the paper.
        assert_eq!(rel.data_bytes(), 72_000);
        let on_disk = std::fs::metadata(rel.path()).unwrap().len();
        // 24-byte fixed header + 16 names of the form "N0"/"B0" (4-byte
        // length prefix + 2 bytes each).
        assert_eq!(on_disk, rel.data_bytes() + 24 + 16 * (4 + 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOPExxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        match FileRelation::open(&path) {
            Err(RelationError::BadHeader(_)) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn columnar_blocks_match_visitor_across_block_boundaries() {
        let path = tmp("columnar");
        let schema = Schema::builder()
            .numeric("X")
            .numeric("Y")
            .boolean("B")
            .boolean("C")
            .build();
        let mut w = FileRelationWriter::create(&path, schema).unwrap();
        // Cross the 8192-row block boundary so multi-block emission and
        // per-block zones are both exercised.
        let n = COLUMNAR_BLOCK_ROWS as u64 * 2 + 100;
        for i in 0..n {
            w.push_row(&[i as f64, (i % 97) as f64], &[i % 2 == 0, i % 5 == 0])
                .unwrap();
        }
        let rel = w.finish().unwrap();
        crate::columnar::tests::assert_blocks_match_visitor(&rel, 0..n);
        crate::columnar::tests::assert_blocks_match_visitor(&rel, 5000..15000);
        crate::columnar::tests::assert_blocks_match_visitor(&rel, (n - 10)..(n + 500));
        crate::columnar::tests::assert_blocks_match_visitor(&rel, n..n + 5);
        let mut block_count = 0;
        rel.for_each_block_in(0..n, &mut |_| block_count += 1)
            .unwrap();
        assert_eq!(block_count, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn columnar_scan_rejects_foreign_nan_bytes() {
        let path = tmp("columnar-nan");
        let schema = Schema::builder().numeric("X").build();
        let mut w = FileRelationWriter::create(&path, schema).unwrap();
        for i in 0..10 {
            w.push_row(&[i as f64], &[]).unwrap();
        }
        let rel = w.finish().unwrap();
        // Corrupt row 4 in place with NaN bytes, as a foreign writer might.
        let header = std::fs::metadata(&path).unwrap().len() - 10 * 8;
        let mut bytes = std::fs::read(&path).unwrap();
        let off = header as usize + 4 * 8;
        bytes[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rel2 = FileRelation::open(rel.path()).unwrap();
        let err = rel2
            .for_each_block_in(0..10, &mut |_| panic!("block must not be emitted"))
            .unwrap_err();
        match err {
            RelationError::NonFiniteValue { column: 0, .. } => {}
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_partitioned_scans() {
        let path = tmp("concurrent");
        let schema = Schema::builder().numeric("X").boolean("B").build();
        let mut w = FileRelationWriter::create(&path, schema).unwrap();
        for i in 0..1000 {
            w.push_row(&[i as f64], &[i % 2 == 0]).unwrap();
        }
        let rel = w.finish().unwrap();
        let total: u64 = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for part in 0..4u64 {
                let rel = &rel;
                handles.push(s.spawn(move || {
                    let mut sum = 0u64;
                    rel.for_each_row_in(part * 250..(part + 1) * 250, &mut |_, nums, _| {
                        sum += nums[0] as u64;
                    })
                    .unwrap();
                    sum
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 999 * 1000 / 2);
        std::fs::remove_file(&path).unwrap();
    }
}
