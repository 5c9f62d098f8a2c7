//! Seeded data: every byte of every file or blob is a function of
//! `(seed, stream, offset)`, so any window of any read can be checked
//! without keeping a copy of what was written.

/// SplitMix64's output function: a cheap bijective scrambler.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One data stream (a file, a blob, one client's records) under a seed.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    key: u64,
}

impl Stream {
    pub fn new(seed: u64, stream: u64) -> Self {
        Stream {
            key: mix64(seed ^ mix64(stream.wrapping_mul(0xd6e8_feb8_6659_fd93))),
        }
    }

    fn word(&self, index: u64) -> [u8; 8] {
        mix64(self.key ^ index).to_le_bytes()
    }

    /// Fill `buf` with the stream's bytes starting at byte `offset`.
    pub fn fill(&self, offset: u64, buf: &mut [u8]) {
        let mut at = 0usize;
        let mut pos = offset;
        while at < buf.len() {
            let word = self.word(pos / 8);
            let skip = (pos % 8) as usize;
            let n = (8 - skip).min(buf.len() - at);
            buf[at..at + n].copy_from_slice(&word[skip..skip + n]);
            at += n;
            pos += n as u64;
        }
    }

    /// The stream's bytes `[offset, offset + len)`.
    pub fn bytes(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.fill(offset, &mut buf);
        buf
    }

    /// Does `data` equal the stream's bytes starting at `offset`?
    pub fn matches(&self, offset: u64, data: &[u8]) -> bool {
        let mut at = 0usize;
        let mut pos = offset;
        while at < data.len() {
            let word = self.word(pos / 8);
            let skip = (pos % 8) as usize;
            let n = (8 - skip).min(data.len() - at);
            if data[at..at + n] != word[skip..skip + n] {
                return false;
            }
            at += n;
            pos += n as u64;
        }
        true
    }
}

/// A small deterministic generator for offsets and choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(!stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero. The modulo bias is
    /// below 2^-40 for every bound this benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// FNV-1a over a byte stream, for order-sensitive output fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_position_independent() {
        let s = Stream::new(7, 3);
        let whole = s.bytes(0, 200);
        for (offset, len) in [(0u64, 200usize), (1, 64), (13, 100), (64, 64), (199, 1)] {
            assert_eq!(
                s.bytes(offset, len),
                whole[offset as usize..offset as usize + len]
            );
            assert!(s.matches(offset, &whole[offset as usize..offset as usize + len]));
        }
    }

    #[test]
    fn a_flipped_byte_or_another_stream_does_not_match() {
        let s = Stream::new(7, 3);
        let mut data = s.bytes(40, 64);
        assert!(s.matches(40, &data));
        assert!(!s.matches(41, &data));
        assert!(!Stream::new(7, 4).matches(40, &data));
        assert!(!Stream::new(8, 3).matches(40, &data));
        data[63] ^= 1;
        assert!(!s.matches(40, &data));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1, 0);
            (0..4).map(|_| r.below(1000)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(1, 0);
            (0..4).map(|_| r.below(1000)).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(2, 0);
        assert_ne!(a, (0..4).map(|_| other.below(1000)).collect::<Vec<_>>());
    }
}
