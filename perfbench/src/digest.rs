//! Output digests, and a writer that counts and digests what a trace
//! recorder streams into it.
//!
//! The digest consumes little-endian 8-byte words (a multiply-rotate mix
//! in the style of FxHash, finished with the length and MurmurHash3's
//! `fmix64`), so digesting the 112 MB EXP-2C trace costs about a tenth of
//! what byte-wise FNV-1a would and stays out of the trace layer's timing.
//! It detects changed output; it is not a cryptographic hash.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental 64-bit digest; chunk boundaries do not change the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest64 {
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

impl Default for Digest64 {
    fn default() -> Self {
        Digest64 {
            state: SEED,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }
}

impl Digest64 {
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(23) ^ word).wrapping_mul(K);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn value(&self) -> u64 {
        let mut d = *self;
        if d.tail_len > 0 {
            d.tail[d.tail_len..].fill(0);
            d.mix(u64::from_le_bytes(d.tail));
        }
        d.mix(d.len);
        let mut h = d.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest64::default();
    d.update(bytes);
    d.value()
}

/// What a [`DigestWriter`] has seen so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest {
    pub bytes: u64,
    pub lines: u64,
    pub digest: Digest64,
}

/// A byte sink that keeps only the length, line count and digest of what
/// it was given. Clones share one [`StreamDigest`], so the caller can read
/// it after handing a clone to a recorder that owns its writer.
#[derive(Debug, Clone, Default)]
pub struct DigestWriter(Rc<RefCell<StreamDigest>>);

impl DigestWriter {
    pub fn stream(&self) -> StreamDigest {
        *self.0.borrow()
    }
}

impl Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut d = self.0.borrow_mut();
        d.bytes += buf.len() as u64;
        d.lines += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        d.digest.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values() {
        // Pinned so an accidental change of the mix shows here before it
        // invalidates every pinned output.
        assert_eq!(digest(b""), 0xc39b_a6ce_0c13_aa3f);
        assert_eq!(digest(b"foobar"), 0xa560_3e22_6d3d_afeb);
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let text: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = digest(&text);
        for step in [1, 3, 7, 8, 9, 64, 999] {
            let mut d = Digest64::default();
            for chunk in text.chunks(step) {
                d.update(chunk);
            }
            assert_eq!(d.value(), whole, "chunks of {step}");
        }
    }

    #[test]
    fn distinguishes_content_and_length() {
        assert_ne!(digest(b"a"), digest(b"a\0"));
        assert_ne!(digest(b"abcdefgh"), digest(b"abcdefgi"));
        assert_ne!(digest(b"\x80abcdefg"), digest(b"\x00abcdefg"));
        assert_ne!(digest(b""), digest(b"\0"));
    }

    #[test]
    fn writer_counts_bytes_and_lines_across_clones() {
        let w = DigestWriter::default();
        let mut sink = w.clone();
        sink.write_all(b"one\ntw").unwrap();
        sink.write_all(b"o\n").unwrap();
        let d = w.stream();
        assert_eq!(d.bytes, 8);
        assert_eq!(d.lines, 2);
        assert_eq!(d.digest.value(), digest(b"one\ntwo\n"));
    }
}
