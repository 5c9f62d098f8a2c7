//! Offline shim for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The container registry is unreachable from the build environment, so the
//! workspace vendors a minimal, API-compatible subset of `bytes` good enough
//! for this codebase: an immutable, cheaply cloneable byte buffer with
//! zero-copy `clone` and `slice`. As in the real crate, `From<Vec<u8>>` (and
//! so `From<String>` and `From<Box<[u8]>>`) moves the vector's allocation
//! into the `Bytes` instead of copying it, after shrinking it to its length,
//! so a buffer built once — a read's result, a flushed block, a page image —
//! is never copied again on its way to its consumers. Anything the real
//! crate offers beyond what the workspace uses (e.g. `BytesMut`,
//! `Buf`/`BufMut`) is intentionally absent.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes backed by a shared
/// allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The buffer a `Vec` was moved out of: its allocation, shrunk to its
    /// length, behind one reference-counted header.
    data: Arc<Box<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates `Bytes` from a static slice. The shim copies the data once;
    /// the real crate borrows it, but the observable behaviour is identical.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Creates `Bytes` by copying the given slice.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy sub-slice of this view.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not be greater than end");
        assert!(end <= len, "range end out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's allocation: no byte is copied. Spare capacity is
    /// released first (a no-op for a vector sized exactly), so a stored
    /// buffer never keeps a writer's slack alive.
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(v.into_boxed_slice())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        let end = b.len();
        Bytes {
            data: Arc::new(b),
            start: 0,
            end,
        }
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_ref()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_ref()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_view() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        assert_eq!(s.slice(1..).as_ref(), &[3, 4]);
    }

    #[test]
    fn from_vec_moves_the_allocation_and_views_share_it() {
        let v = vec![7u8; 1000];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "the vec's allocation, not a copy");
        assert_eq!(b.clone().as_ptr(), ptr);
        assert_eq!(b.slice(10..20).as_ptr(), ptr.wrapping_add(10));

        // Spare capacity is released: the stored buffer holds its bytes.
        let mut roomy = Vec::with_capacity(4096);
        roomy.extend_from_slice(b"abc");
        let b = Bytes::from(roomy);
        assert_eq!(b.data.len(), 3);
        assert_eq!(b, *b"abc");
    }

    #[test]
    fn equality_against_slices_and_vecs() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b, *b"abc");
        assert_eq!(b.to_vec(), b"abc".to_vec());
        assert!(b.slice(0..0).is_empty());
    }
}
