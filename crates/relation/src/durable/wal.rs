//! The write-ahead log: length-prefixed, CRC32-checksummed append
//! frames with torn-tail-tolerant replay.
//!
//! File layout:
//!
//! ```text
//! [magic "OPTWAL01"]
//! [frame 0][frame 1]…
//! ```
//!
//! Each frame is `[payload_len u32][crc32 u32][payload]`, all
//! little-endian, where the payload is
//! `[start_row u64][row_count u32][row_count fixed-width records]`
//! encoded with the same [`RecordLayout`] as the relation file itself.
//! The CRC covers the payload only, so a frame whose length field was
//! torn mid-write fails the payload-length check and a frame whose
//! payload was torn fails the checksum — either way replay stops at
//! the last fully-written frame and truncates the tail, which is
//! exactly the set of rows that were never acknowledged (the writer
//! syncs *before* the append ack goes out).
//!
//! The checksum is the standard reflected CRC-32 (IEEE 802.3,
//! polynomial `0xEDB88320`), hand-rolled as a compile-time table so
//! the crate stays dependency-free.

use crate::chunked::RowFrame;
use crate::encoding::RecordLayout;
use crate::error::{RelationError, Result};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// File name of the WAL inside a data directory.
pub(crate) const WAL_FILE: &str = "wal.log";

const MAGIC: &[u8; 8] = b"OPTWAL01";
/// Bytes of the per-frame header: payload length + CRC32.
const FRAME_HEADER: usize = 8;
/// Sanity cap on a frame payload; anything larger is treated as a torn
/// or corrupt length field. Generous next to the protocol's 1024-row
/// append cap.
const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// Reflected CRC-32 (IEEE) lookup table, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// The standard reflected CRC-32 over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Result of replaying a WAL on open.
pub(crate) struct Replay {
    /// Append frames holding rows past the checkpoint, oldest first.
    /// Each inner vec was one logged append (= one relation
    /// generation).
    pub frames: Vec<Vec<RowFrame>>,
    /// Byte length of the valid prefix (any torn tail starts here).
    pub valid_len: u64,
}

/// Replays the WAL at `path`, tolerating a torn tail.
///
/// Frames wholly covered by `durable_rows` (already spilled to a
/// segment before the last checkpoint's WAL truncation was interrupted)
/// are skipped; rows past `durable_rows` are returned in order. Replay
/// stops — and reports the truncation point — at the first frame that
/// is short, oversized, fails its checksum, or is discontiguous with
/// its predecessor.
pub(crate) fn replay(path: &Path, layout: RecordLayout, durable_rows: u64) -> Result<Replay> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                frames: Vec::new(),
                valid_len: 0,
            })
        }
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < MAGIC.len() {
        // A crash before the header finished: nothing was ever logged.
        return Ok(Replay {
            frames: Vec::new(),
            valid_len: 0,
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        // Refuse to silently wipe a file that isn't ours.
        return Err(RelationError::BadHeader(format!(
            "{} is not an optrules WAL (bad magic)",
            path.display()
        )));
    }

    let record_size = layout.record_size();
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    let mut expected_next: Option<u64> = None;
    let mut nums = vec![0.0_f64; layout.numeric_count];
    let mut bools = vec![false; layout.boolean_count];
    // A short header means a torn tail: stop replaying there.
    while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
        let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if payload_len < 12 || payload_len as u32 > MAX_FRAME_PAYLOAD {
            break; // torn or corrupt length field
        }
        let Some(payload) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + payload_len) else {
            break; // short payload: torn tail
        };
        if crc32(payload) != crc {
            break; // payload torn mid-write or bit-rotted
        }
        let start_row = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
        if payload_len != 12 + count * record_size {
            break; // internally inconsistent: treat as corruption
        }
        if let Some(expected) = expected_next {
            if start_row != expected {
                break; // discontiguous: everything past here is suspect
            }
        } else if start_row > durable_rows {
            // A gap between the checkpointed rows and the first frame
            // would mean acknowledged rows are simply missing — that is
            // a mismatched manifest/WAL pair, not a torn tail.
            return Err(RelationError::BadHeader(format!(
                "WAL starts at row {start_row} but the checkpoint covers only {durable_rows} \
                 rows ({} does not match its manifest)",
                path.display()
            )));
        }
        expected_next = Some(start_row + count as u64);
        // Keep only rows past the checkpoint; a whole frame at or below
        // `durable_rows` was already spilled (its generation is part of
        // the manifest's), so it must not count as a replayed frame.
        let skip = durable_rows.saturating_sub(start_row).min(count as u64) as usize;
        if skip < count {
            let mut rows = Vec::with_capacity(count - skip);
            for i in skip..count {
                let record = &payload[12 + i * record_size..12 + (i + 1) * record_size];
                layout.decode_row(record, &mut nums, &mut bools)?;
                rows.push(RowFrame {
                    numeric: nums.clone(),
                    boolean: bools.clone(),
                });
            }
            frames.push(rows);
        }
        pos += FRAME_HEADER + payload_len;
    }
    Ok(Replay {
        frames,
        valid_len: pos as u64,
    })
}

/// Appending side of the WAL. Opened at the valid length reported by
/// [`replay`] (any torn tail is cut off first).
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: std::fs::File,
    bytes: u64,
    layout: RecordLayout,
    /// Fault-injection knob (`OPTRULES_WAL_CHUNK`): write frames in
    /// chunks of this many bytes so a `kill -9` can land between the
    /// syscalls of one frame — the torn-tail window the crash-recovery
    /// harness widens on purpose. `None` in production.
    chunk: Option<usize>,
    buf: Vec<u8>,
    /// Set when a failed append could not be rolled back: the log may
    /// end in bytes that replay would stop at, so no later frame may be
    /// acknowledged on top of them.
    broken: bool,
}

impl WalWriter {
    /// Opens (creating if needed) the WAL at `path`, truncating
    /// anything past `valid_len`, honoring the `OPTRULES_WAL_CHUNK`
    /// fault knob.
    pub fn open(path: &Path, layout: RecordLayout, valid_len: u64) -> Result<Self> {
        let chunk = std::env::var("OPTRULES_WAL_CHUNK")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0);
        Self::open_with_chunk(path, layout, valid_len, chunk)
    }

    /// [`open`](Self::open) with an explicit fault-injection chunk size
    /// (tests inject it directly; the env var is racy across parallel
    /// tests).
    pub fn open_with_chunk(
        path: &Path,
        layout: RecordLayout,
        valid_len: u64,
        chunk: Option<usize>,
    ) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let bytes = if valid_len < MAGIC.len() as u64 {
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.sync_data()?;
            MAGIC.len() as u64
        } else {
            // Cut off the torn tail so new frames start on a boundary.
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
            valid_len
        };
        Ok(Self {
            file,
            bytes,
            layout,
            chunk,
            buf: Vec::new(),
            broken: false,
        })
    }

    /// Current file length (header + frames) — the `wal_bytes` stat.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one frame for `rows` starting at relation row
    /// `start_row`; when `sync`, fsyncs before returning so the caller
    /// may acknowledge the append.
    ///
    /// A failed write or fsync leaves the log exactly as long as before
    /// the call (see [`discard_unacked`](Self::discard_unacked)), so the
    /// caller's retry of the same rows lands where replay expects them.
    pub fn append(&mut self, start_row: u64, rows: &[RowFrame], sync: bool) -> Result<()> {
        if self.broken {
            return Err(std::io::Error::other(
                "write-ahead log unusable: a failed append could not be rolled back",
            )
            .into());
        }
        self.buf.clear();
        self.buf.extend_from_slice(&[0u8; FRAME_HEADER]);
        self.buf.extend_from_slice(&start_row.to_le_bytes());
        self.buf
            .extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for row in rows {
            self.layout
                .encode_row(&row.numeric, &row.boolean, &mut self.buf)?;
        }
        let payload_len = (self.buf.len() - FRAME_HEADER) as u32;
        let crc = crc32(&self.buf[FRAME_HEADER..]);
        self.buf[0..4].copy_from_slice(&payload_len.to_le_bytes());
        self.buf[4..8].copy_from_slice(&crc.to_le_bytes());
        if let Err(e) = self.write_frame(sync) {
            self.discard_unacked();
            return Err(e.into());
        }
        self.bytes += self.buf.len() as u64;
        Ok(())
    }

    /// Writes the encoded frame in `buf` at the end of the log.
    fn write_frame(&mut self, sync: bool) -> std::io::Result<()> {
        match self.chunk {
            None => self.file.write_all(&self.buf)?,
            Some(n) => {
                for piece in self.buf.chunks(n) {
                    self.file.write_all(piece)?;
                }
            }
        }
        if sync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// The error path of [`append`](Self::append): cuts the log back
    /// to its last acknowledged frame, dropping the half frame a failed
    /// write leaves or the whole frame a failed fsync leaves, and syncs
    /// the cut so the unacknowledged frame cannot come back after a
    /// crash. If the cut itself fails, the writer refuses every later
    /// append.
    fn discard_unacked(&mut self) {
        let good = self.bytes;
        let cut = (self.file.set_len(good))
            .and_then(|()| self.file.seek(SeekFrom::Start(good)))
            .and_then(|_| self.file.sync_data());
        self.broken = cut.is_err();
    }

    /// Truncates the log back to its empty (header-only) state — called
    /// after a checkpoint has made every logged row durable elsewhere.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
        self.file.sync_data()?;
        self.bytes = MAGIC.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn layout() -> RecordLayout {
        RecordLayout::new(2, 1)
    }

    fn frame(tag: f64, rows: usize) -> Vec<RowFrame> {
        (0..rows)
            .map(|i| RowFrame {
                numeric: vec![tag, i as f64],
                boolean: vec![i % 2 == 0],
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "optrules-wal-test-{}-{name}.log",
            std::process::id()
        ))
    }

    /// Writes `frames` to a fresh WAL at `path` and returns the raw
    /// bytes.
    fn write_wal(path: &Path, frames: &[Vec<RowFrame>], chunk: Option<usize>) -> Vec<u8> {
        let _ = std::fs::remove_file(path);
        let mut writer = WalWriter::open_with_chunk(path, layout(), 0, chunk).unwrap();
        let mut start = 0u64;
        for rows in frames {
            writer.append(start, rows, true).unwrap();
            start += rows.len() as u64;
        }
        std::fs::read(path).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_frames_and_rows() {
        let path = tmp("roundtrip");
        let frames = vec![frame(1.0, 3), frame(2.0, 1), frame(3.0, 5)];
        let bytes = write_wal(&path, &frames, None);
        let replayed = replay(&path, layout(), 0).unwrap();
        assert_eq!(replayed.frames, frames);
        assert_eq!(replayed.valid_len, bytes.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_writes_are_byte_identical() {
        let a = tmp("chunk-a");
        let b = tmp("chunk-b");
        let frames = vec![frame(1.0, 4), frame(2.0, 2)];
        let plain = write_wal(&a, &frames, None);
        let chunked = write_wal(&b, &frames, Some(3));
        assert_eq!(plain, chunked);
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    /// The torn-tail guarantee: truncate the file at *every* byte
    /// offset; replay always recovers exactly the frames fully written
    /// before the cut and reports a valid length on a frame boundary.
    #[test]
    fn truncation_at_any_offset_recovers_the_frame_prefix() {
        let path = tmp("torn");
        let frames = vec![frame(1.0, 2), frame(2.0, 3), frame(3.0, 1)];
        let bytes = write_wal(&path, &frames, None);
        // Frame boundaries in the file.
        let mut boundaries = vec![MAGIC.len()];
        let mut pos = MAGIC.len();
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += FRAME_HEADER + len;
            boundaries.push(pos);
        }
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let replayed = replay(&path, layout(), 0).unwrap();
            if cut < MAGIC.len() {
                // Not even a header: treated as a never-used log.
                assert!(replayed.frames.is_empty(), "cut at byte {cut}");
                assert_eq!(replayed.valid_len, 0, "cut {cut}");
                continue;
            }
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replayed.frames, frames[..whole], "cut at byte {cut}");
            assert_eq!(replayed.valid_len, boundaries[whole] as u64, "cut {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_byte_truncates_from_that_frame() {
        let path = tmp("corrupt");
        let frames = vec![frame(1.0, 2), frame(2.0, 2)];
        let mut bytes = write_wal(&path, &frames, None);
        // Flip a byte inside the second frame's payload.
        let first_len =
            u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap()) as usize;
        let second = MAGIC.len() + FRAME_HEADER + first_len;
        bytes[second + FRAME_HEADER + 4] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path, layout(), 0).unwrap();
        assert_eq!(replayed.frames, frames[..1]);
        assert_eq!(replayed.valid_len, second as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frames_covered_by_the_checkpoint_are_skipped() {
        let path = tmp("skip");
        let frames = vec![frame(1.0, 2), frame(2.0, 3), frame(3.0, 1)];
        write_wal(&path, &frames, None);
        // The checkpoint covered the first two frames (5 rows): an
        // interrupted WAL truncation must not replay them again.
        let replayed = replay(&path, layout(), 5).unwrap();
        assert_eq!(replayed.frames, frames[2..]);
        // Covering everything replays nothing.
        assert!(replay(&path, layout(), 6).unwrap().frames.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_and_short_header_are_empty() {
        let path = tmp("absent");
        let _ = std::fs::remove_file(&path);
        assert!(replay(&path, layout(), 0).unwrap().frames.is_empty());
        std::fs::write(&path, b"OPT").unwrap();
        let replayed = replay(&path, layout(), 0).unwrap();
        assert!(replayed.frames.is_empty());
        assert_eq!(replayed.valid_len, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_magic_is_an_error_not_a_wipe() {
        let path = tmp("foreign");
        std::fs::write(&path, b"NOTAWAL0 and then some").unwrap();
        assert!(matches!(
            replay(&path, layout(), 0),
            Err(RelationError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn row_gap_against_the_manifest_is_an_error() {
        let path = tmp("gap");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_with_chunk(&path, layout(), 0, None).unwrap();
        writer.append(10, &frame(1.0, 2), true).unwrap();
        // Checkpoint says 4 durable rows, the WAL starts at row 10:
        // rows 4..10 are gone — corruption, not a torn tail.
        assert!(matches!(
            replay(&path, layout(), 4),
            Err(RelationError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_then_append_reuses_the_file() {
        let path = tmp("truncate");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_with_chunk(&path, layout(), 0, None).unwrap();
        writer.append(0, &frame(1.0, 4), true).unwrap();
        writer.truncate().unwrap();
        assert_eq!(writer.bytes(), MAGIC.len() as u64);
        writer.append(4, &frame(2.0, 2), true).unwrap();
        let replayed = replay(&path, layout(), 4).unwrap();
        assert_eq!(replayed.frames, vec![frame(2.0, 2)]);
        std::fs::remove_file(&path).unwrap();
    }

    /// A failed append leaves (i) half a frame, as a failed write does,
    /// or (ii) a whole frame never acknowledged, as a failed fsync
    /// does. Its error path cuts either back, so the retry lands on
    /// the last good length and replay returns every acknowledged frame
    /// and nothing else.
    #[test]
    fn failed_append_is_rolled_back_before_the_next_one() {
        let path = tmp("rollback");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_with_chunk(&path, layout(), 0, None).unwrap();
        writer.append(0, &frame(1.0, 2), true).unwrap();
        let good = writer.bytes();
        // The bytes a frame for rows 2..5 would put in the log.
        let other = tmp("rollback-frame");
        let unacked =
            write_wal(&other, &[frame(0.0, 2), frame(7.0, 3)], None)[good as usize..].to_vec();
        std::fs::remove_file(&other).unwrap();
        for junk in [&unacked[..unacked.len() / 2], &unacked[..]] {
            writer.file.write_all(junk).unwrap();
            writer.discard_unacked();
            assert!(!writer.broken);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        }
        writer.append(2, &frame(2.0, 3), true).unwrap();
        let replayed = replay(&path, layout(), 0).unwrap();
        assert_eq!(replayed.frames, vec![frame(1.0, 2), frame(2.0, 3)]);
        assert_eq!(replayed.valid_len, writer.bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn broken_writer_refuses_every_later_append() {
        let path = tmp("broken");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_with_chunk(&path, layout(), 0, None).unwrap();
        writer.append(0, &frame(1.0, 2), true).unwrap();
        writer.broken = true;
        assert!(writer.append(2, &frame(2.0, 1), true).is_err());
        assert_eq!(
            replay(&path, layout(), 0).unwrap().frames,
            vec![frame(1.0, 2)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_after_torn_tail_appends_on_the_boundary() {
        let path = tmp("reopen");
        let frames = vec![frame(1.0, 2), frame(2.0, 2)];
        let bytes = write_wal(&path, &frames, None);
        // Tear the second frame.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replayed = replay(&path, layout(), 0).unwrap();
        assert_eq!(replayed.frames, frames[..1]);
        let mut writer =
            WalWriter::open_with_chunk(&path, layout(), replayed.valid_len, None).unwrap();
        writer.append(2, &frame(9.0, 1), true).unwrap();
        let again = replay(&path, layout(), 0).unwrap();
        assert_eq!(again.frames, vec![frame(1.0, 2), frame(9.0, 1)]);
        std::fs::remove_file(&path).unwrap();
    }
}
