//! Bit-packed Boolean column.
//!
//! The in-memory [`crate::memory::Relation`] stores each Boolean
//! attribute as one bit per row. With the paper's workloads (millions of
//! rows × 8 Boolean attributes) this is an 8× space saving over `Vec<bool>`
//! and keeps the counting scans cache-friendly.

/// A growable bit vector specialized for append + random read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitColumn {
    words: Vec<u64>,
    len: usize,
}

impl BitColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty column with capacity for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Reads the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "bit index {idx} out of bounds ({})",
            self.len
        );
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The backing 64-bit words (bit `i` lives at
    /// `words()[i / 64] >> (i % 64)`); bits past `len()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Removes all bits, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// A borrowed view of the bits in `range`, supporting word-wise
    /// counting — the unit Boolean columns travel as in columnar scan
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing.
    pub fn span(&self, range: std::ops::Range<usize>) -> BitSpan<'_> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "bit range {range:?} out of bounds ({})",
            self.len
        );
        BitSpan {
            words: &self.words,
            start: range.start,
            len: range.end - range.start,
        }
    }
}

/// A borrowed range of bits inside a [`BitColumn`], addressed by a bit
/// offset into the shared word array. Supports O(words) masked
/// popcounts (`u64::count_ones` per word) so counting kernels never
/// touch bits one at a time.
///
/// The default span is empty — what an unprojected Boolean column of a
/// [`ColumnBlock`](crate::columnar::ColumnBlock) holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitSpan<'a> {
    words: &'a [u64],
    /// Bit offset of the span's first bit within `words`.
    start: usize,
    len: usize,
}

impl<'a> BitSpan<'a> {
    /// The first `len` bits of `words` (bit `i` at
    /// `words[i / 64] >> (i % 64)`) — how a store that packs its own
    /// words per block hands them out.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(words: &'a [u64], len: usize) -> Self {
        assert!(
            len <= words.len() * 64,
            "{len} bits do not fit {} words",
            words.len()
        );
        BitSpan {
            words,
            start: 0,
            len,
        }
    }

    /// The bits `range` of this span (0-based within the span), as a
    /// span of their own — how a kernel walks a large block in
    /// cache-sized chunks.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing.
    pub fn subspan(&self, range: std::ops::Range<usize>) -> BitSpan<'a> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "bit range {range:?} out of bounds ({})",
            self.len
        );
        BitSpan {
            words: self.words,
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Number of bits in the span.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the span holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `idx` of the span (0-based within the span).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "bit index {idx} out of bounds ({})",
            self.len
        );
        let bit = self.start + idx;
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Repacks the span into offset-0 words in `out` (bit `i` of the
    /// span readable as `out[i / 64] >> (i % 64) & 1`), reusing the
    /// allocation; bits of the last word at positions `len()..` are
    /// zero. Counting kernels repack once per block so the per-row bit
    /// read is one shift off a local slice instead of offset
    /// arithmetic through the span.
    pub fn repack_into(&self, out: &mut Vec<u64>) {
        out.clear();
        if self.len == 0 {
            return;
        }
        let nwords = self.len.div_ceil(64);
        let first = self.start / 64;
        let shift = self.start % 64;
        if shift == 0 {
            out.extend_from_slice(&self.words[first..first + nwords]);
        } else {
            out.reserve(nwords);
            for k in 0..nwords {
                let lo = self.words[first + k] >> shift;
                let hi = match self.words.get(first + k + 1) {
                    Some(&w) => w << (64 - shift),
                    None => 0,
                };
                out.push(lo | hi);
            }
        }
        let tail = self.len % 64;
        if tail != 0 {
            let last = out.len() - 1;
            out[last] &= (1u64 << tail) - 1;
        }
    }

    /// Number of set bits, via masked word-wise `u64::count_ones`: the
    /// partial head and tail words are masked, every full word in
    /// between is popcounted whole.
    pub fn count_ones(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let lo = self.start;
        let hi = self.start + self.len; // exclusive
        let first = lo / 64;
        let last = (hi - 1) / 64;
        if first == last {
            // Mask bit positions lo%64 .. lo%64 + len within one word.
            let bits = self.words[first] >> (lo % 64);
            let masked = if self.len == 64 {
                bits
            } else {
                bits & ((1u64 << self.len) - 1)
            };
            return masked.count_ones() as usize;
        }
        let mut total = (self.words[first] >> (lo % 64)).count_ones() as usize;
        for w in &self.words[first + 1..last] {
            total += w.count_ones() as usize;
        }
        let tail_bits = hi - last * 64; // 1..=64
        let tail_mask = if tail_bits == 64 {
            !0u64
        } else {
            (1u64 << tail_bits) - 1
        };
        total + (self.words[last] & tail_mask).count_ones() as usize
    }
}

impl FromIterator<bool> for BitColumn {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut col = Self::new();
        for b in iter {
            col.push(b);
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let col: BitColumn = pattern.iter().copied().collect();
        assert_eq!(col.len(), 200);
        for (i, &want) in pattern.iter().enumerate() {
            assert_eq!(col.get(i), want, "bit {i}");
        }
    }

    #[test]
    fn count_ones_matches_iter() {
        let col: BitColumn = (0..1000).map(|i| i % 5 == 0).collect();
        assert_eq!(col.count_ones(), 200);
        assert_eq!(col.iter().filter(|&b| b).count(), 200);
    }

    #[test]
    fn word_boundaries() {
        // Exactly 64 and 65 bits exercise the word-spill path.
        let mut col = BitColumn::new();
        for _ in 0..64 {
            col.push(true);
        }
        assert_eq!(col.count_ones(), 64);
        col.push(false);
        col.push(true);
        assert_eq!(col.len(), 66);
        assert!(!col.get(64));
        assert!(col.get(65));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let col = BitColumn::new();
        let _ = col.get(0);
    }

    #[test]
    fn empty() {
        let col = BitColumn::new();
        assert!(col.is_empty());
        assert_eq!(col.count_ones(), 0);
        assert_eq!(col.iter().count(), 0);
    }

    #[test]
    fn span_count_matches_bitwise_oracle_at_every_offset() {
        // 200 bits cross three words; try every (start, len) pair so
        // head/tail masks, single-word, and full-word paths all fire.
        let pattern: Vec<bool> = (0..200).map(|i| (i * 7 + i / 13) % 3 == 0).collect();
        let col: BitColumn = pattern.iter().copied().collect();
        for start in (0..200).step_by(7) {
            for end in (start..=200).step_by(11) {
                let want = pattern[start..end].iter().filter(|&&b| b).count();
                let span = col.span(start..end);
                assert_eq!(span.count_ones(), want, "span {start}..{end}");
                assert_eq!(span.len(), end - start);
                for (i, &bit) in pattern[start..end].iter().enumerate() {
                    assert_eq!(span.get(i), bit, "span {start}..{end} bit {i}");
                }
            }
        }
    }

    #[test]
    fn repack_matches_get_at_every_offset() {
        // Spans at every shift cross the aligned fast path, the
        // shift-combine path, and the tail mask.
        let pattern: Vec<bool> = (0..200).map(|i| (i * 11 + i / 7) % 3 == 0).collect();
        let col: BitColumn = pattern.iter().copied().collect();
        let mut out = Vec::new();
        for start in (0..200).step_by(3) {
            for end in (start..=200).step_by(13) {
                let span = col.span(start..end);
                span.repack_into(&mut out);
                assert_eq!(out.len(), (end - start).div_ceil(64), "span {start}..{end}");
                for (i, &bit) in pattern[start..end].iter().enumerate() {
                    assert_eq!(
                        (out[i / 64] >> (i % 64)) & 1 == 1,
                        bit,
                        "span {start}..{end} bit {i}"
                    );
                }
                if let Some(&last) = out.last() {
                    let tail = (end - start) % 64;
                    if tail != 0 {
                        assert_eq!(last >> tail, 0, "span {start}..{end}: tail not zeroed");
                    }
                }
            }
        }
    }

    #[test]
    fn span_word_aligned_edges() {
        let col: BitColumn = (0..192).map(|_| true).collect();
        assert_eq!(col.span(0..64).count_ones(), 64);
        assert_eq!(col.span(64..128).count_ones(), 64);
        assert_eq!(col.span(0..192).count_ones(), 192);
        assert_eq!(col.span(63..65).count_ones(), 2);
        assert!(col.span(5..5).is_empty());
        assert_eq!(col.span(5..5).count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn span_out_of_bounds_panics() {
        let col: BitColumn = (0..10).map(|_| false).collect();
        let _ = col.span(5..11);
    }

    #[test]
    fn clear_resets_and_keeps_working() {
        let mut col: BitColumn = (0..100).map(|i| i % 2 == 0).collect();
        col.clear();
        assert!(col.is_empty());
        assert_eq!(col.words().len(), 0);
        col.push(true);
        assert_eq!(col.count_ones(), 1);
    }
}
