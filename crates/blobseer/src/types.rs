//! Core identifiers and byte/page arithmetic shared across BlobSeer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a blob within a BlobSeer deployment. Assigned by the version
/// manager at creation time (paper: "uniquely identified by a key assigned by
/// the BlobSeer system").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlobId(pub u64);

impl fmt::Display for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blob-{}", self.0)
    }
}

/// A snapshot version of a blob. Version 0 is the empty blob created by
/// `create`; every write or append produces the next version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Version(pub u64);

impl Version {
    /// The initial, empty version of every blob.
    pub const ZERO: Version = Version(0);

    /// The next version number.
    pub fn next(&self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifies a data provider (page storage node). Provider `i` serves the
/// pages of machine `i`, whose metadata map is DHT ring member `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProviderId(pub u32);

impl From<ProviderId> for dht::DhtNodeId {
    /// The machine a provider serves.
    fn from(id: ProviderId) -> Self {
        dht::DhtNodeId(u64::from(id.0))
    }
}

impl From<dht::DhtNodeId> for ProviderId {
    /// The provider that serves a machine's pages.
    fn from(id: dht::DhtNodeId) -> Self {
        ProviderId(id.0 as u32)
    }
}

impl fmt::Display for ProviderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "provider-{}", self.0)
    }
}

/// A half-open byte range `[offset, offset + len)` within a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ByteRange {
    /// First byte of the range.
    pub offset: u64,
    /// Number of bytes.
    pub len: u64,
}

impl ByteRange {
    /// Construct a range.
    pub fn new(offset: u64, len: u64) -> Self {
        ByteRange { offset, len }
    }

    /// Exclusive end of the range. Saturating: a range whose nominal end
    /// would overflow `u64` (callers validate against blob sizes long before
    /// that, but arithmetic here must not wrap in release builds) reports
    /// `u64::MAX`.
    pub fn end(&self) -> u64 {
        self.offset.saturating_add(self.len)
    }

    /// True when the range contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Do two ranges share at least one byte?
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.offset < other.end()
            && other.offset < self.end()
    }

    /// The intersection of two ranges, if non-empty.
    pub fn intersection(&self, other: &ByteRange) -> Option<ByteRange> {
        let start = self.offset.max(other.offset);
        let end = self.end().min(other.end());
        if start < end {
            Some(ByteRange::new(start, end - start))
        } else {
            None
        }
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

/// Page-granularity arithmetic for a blob with a fixed page size.
///
/// BlobSeer splits every blob "into even-sized blocks, called pages; the page
/// is the data-management unit" (paper §III-A). All metadata (segment-tree
/// leaves, provider assignments) is expressed in pages; this helper keeps the
/// offset/page conversions in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageMath {
    page_size: u64,
}

impl PageMath {
    /// Create a helper for the given page size (must be non-zero).
    pub fn new(page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        PageMath { page_size }
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Index of the page containing byte `offset`.
    pub fn page_of(&self, offset: u64) -> u64 {
        offset / self.page_size
    }

    /// Byte offset at which page `index` starts. Saturating, for the same
    /// reason as [`ByteRange::end`]: a page index near `u64::MAX` (only
    /// reachable through an already-rejected request) must not wrap.
    pub fn page_start(&self, index: u64) -> u64 {
        index.saturating_mul(self.page_size)
    }

    /// Number of pages needed to hold `size` bytes.
    pub fn pages_for(&self, size: u64) -> u64 {
        size.div_ceil(self.page_size)
    }

    /// The inclusive range of page indices touched by a byte range, or `None`
    /// for an empty range.
    pub fn pages_touched(&self, range: ByteRange) -> Option<(u64, u64)> {
        if range.is_empty() {
            return None;
        }
        Some((self.page_of(range.offset), self.page_of(range.end() - 1)))
    }

    /// Is the byte range aligned to page boundaries on both ends? (The end may
    /// also be unaligned if it coincides with `blob_size`, which callers check
    /// separately; this predicate is purely geometric.)
    pub fn is_aligned(&self, range: ByteRange) -> bool {
        range.offset.is_multiple_of(self.page_size) && range.end().is_multiple_of(self.page_size)
    }

    /// The byte range covered by page `index`.
    pub fn page_range(&self, index: u64) -> ByteRange {
        ByteRange::new(self.page_start(index), self.page_size)
    }
}

/// Round `n` up to the next power of two (minimum 1).
pub fn next_power_of_two(n: u64) -> u64 {
    n.max(1).next_power_of_two()
}

/// A storage key built in place: a tag byte naming what the key is for,
/// then the LEB128 varints of up to four integers. At most
/// [`InlineKey::CAPACITY`] bytes and no allocation.
///
/// A varint ends at its first byte without the high bit, so a tag and its
/// fields are prefix-free: two keys are equal exactly when their tags and
/// fields are, and keys with different tags never collide.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InlineKey {
    len: u8,
    bytes: [u8; InlineKey::CAPACITY],
}

impl InlineKey {
    /// The longest key: a tag byte and four ten-byte varints.
    pub const CAPACITY: usize = 1 + 4 * 10;

    /// Encode `tag` and `fields` (at most four).
    pub(crate) fn new(tag: u8, fields: &[u64]) -> Self {
        debug_assert!(fields.len() <= 4, "an inline key holds four fields");
        let mut key = InlineKey {
            len: 1,
            bytes: [0; Self::CAPACITY],
        };
        key.bytes[0] = tag;
        for &field in fields {
            put_varint(field, |byte| {
                key.bytes[key.len as usize] = byte;
                key.len += 1;
            });
        }
        key
    }

    /// The encoded key.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// Emit the LEB128 varint of `value`, low seven bits first, one byte at a
/// time: the high bit of every byte but the last is set.
pub(crate) fn put_varint(value: u64, mut emit: impl FnMut(u8)) {
    let mut v = value;
    while v >= 0x80 {
        emit(v as u8 | 0x80);
        v >>= 7;
    }
    emit(v as u8);
}

/// Take one LEB128 varint off the front of `data`: `None` if it ends first
/// or runs past 64 bits' worth of bytes.
pub(crate) fn take_varint(data: &mut &[u8]) -> Option<u64> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = data.split_first()?;
        *data = rest;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

impl AsRef<[u8]> for InlineKey {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for InlineKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InlineKey(\"{}\")", self.as_bytes().escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_sequencing() {
        assert_eq!(Version::ZERO.next(), Version(1));
        assert_eq!(Version(5).next(), Version(6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlobId(3).to_string(), "blob-3");
        assert_eq!(Version(7).to_string(), "v7");
        assert_eq!(ProviderId(1).to_string(), "provider-1");
        assert_eq!(ByteRange::new(10, 5).to_string(), "[10, 15)");
    }

    #[test]
    fn byte_range_geometry() {
        let a = ByteRange::new(0, 100);
        let b = ByteRange::new(50, 100);
        let c = ByteRange::new(100, 10);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(
            !a.overlaps(&c),
            "half-open ranges: [0,100) and [100,110) do not overlap"
        );
        assert_eq!(a.intersection(&b), Some(ByteRange::new(50, 50)));
        assert_eq!(a.intersection(&c), None);
        assert!(!ByteRange::new(5, 0).overlaps(&a));
        assert!(ByteRange::new(5, 0).is_empty());
        assert_eq!(a.end(), 100);
    }

    #[test]
    fn page_math_basics() {
        let pm = PageMath::new(4096);
        assert_eq!(pm.page_size(), 4096);
        assert_eq!(pm.page_of(0), 0);
        assert_eq!(pm.page_of(4095), 0);
        assert_eq!(pm.page_of(4096), 1);
        assert_eq!(pm.page_start(3), 12288);
        assert_eq!(pm.pages_for(0), 0);
        assert_eq!(pm.pages_for(1), 1);
        assert_eq!(pm.pages_for(4096), 1);
        assert_eq!(pm.pages_for(4097), 2);
    }

    #[test]
    fn pages_touched_by_ranges() {
        let pm = PageMath::new(100);
        assert_eq!(pm.pages_touched(ByteRange::new(0, 100)), Some((0, 0)));
        assert_eq!(pm.pages_touched(ByteRange::new(0, 101)), Some((0, 1)));
        assert_eq!(pm.pages_touched(ByteRange::new(250, 100)), Some((2, 3)));
        assert_eq!(pm.pages_touched(ByteRange::new(50, 0)), None);
    }

    #[test]
    fn alignment_predicate() {
        let pm = PageMath::new(64);
        assert!(pm.is_aligned(ByteRange::new(0, 128)));
        assert!(pm.is_aligned(ByteRange::new(64, 64)));
        assert!(!pm.is_aligned(ByteRange::new(1, 64)));
        assert!(!pm.is_aligned(ByteRange::new(0, 65)));
        assert_eq!(pm.page_range(2), ByteRange::new(128, 64));
    }

    #[test]
    fn near_overflow_arithmetic_saturates_instead_of_wrapping() {
        // A range ending past u64::MAX reports a saturated end, so bounds
        // checks against real sizes still reject it.
        let r = ByteRange::new(u64::MAX - 1, 2);
        assert_eq!(r.end(), u64::MAX);
        let r = ByteRange::new(u64::MAX - 1, 100);
        assert_eq!(r.end(), u64::MAX, "end must saturate, not wrap");
        assert!(!r.is_empty());
        // Page arithmetic near the top of the address space saturates too.
        let pm = PageMath::new(4096);
        assert_eq!(pm.page_start(u64::MAX), u64::MAX);
        let (first, last) = pm.pages_touched(ByteRange::new(u64::MAX - 1, 2)).unwrap();
        assert!(first <= last);
    }

    #[test]
    fn inline_keys_are_tagged_varints() {
        assert_eq!(InlineKey::new(b'x', &[]).as_bytes(), b"x");
        assert_eq!(InlineKey::new(b'x', &[0, 127]).as_bytes(), b"x\x00\x7f");
        assert_eq!(
            InlineKey::new(b'x', &[128, 300]).as_bytes(),
            b"x\x80\x01\xac\x02"
        );
        let max = InlineKey::new(b'x', &[u64::MAX; 4]);
        assert_eq!(max.as_bytes().len(), InlineKey::CAPACITY);
        assert_eq!(
            &max.as_bytes()[1..11],
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"
        );
        assert_eq!(
            format!("{:?}", InlineKey::new(b'm', &[1, 200])),
            r#"InlineKey("m\x01\xc8\x01")"#
        );
    }

    #[test]
    fn next_power_of_two_values() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1000), 1024);
    }
}
