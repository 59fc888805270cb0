//! Offline stand-in for the `bytes` crate: the subset of the `Bytes`
//! API this workspace uses, backed by an `Arc<[u8]>` plus a window.
//!
//! The container's build environment has no registry access, so the
//! real crate cannot be fetched; this shim is dependency-free and keeps
//! the same semantics for the operations Fix relies on: O(1) clone,
//! O(1) sub-slicing that shares the allocation, and `Deref<[u8]>`.

#![forbid(unsafe_code)]

use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable region of bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty region.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copies `data` into a fresh shared allocation (one allocation:
    /// the `Arc<[u8]>` is built from the slice, with no `Vec` between).
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let data: Arc<[u8]> = Arc::from(data);
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Creates a region from a static slice (copies; the real crate
    /// borrows, but nothing here depends on that distinction).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// The number of bytes in the region.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-region sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The bytes as a plain slice (named to match the real crate's
    /// inherent method, which shadows the trait).
    #[allow(clippy::should_implement_trait)]
    pub fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the region out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_and_windows() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn equality_and_clone() {
        let a = Bytes::copy_from_slice(b"hello");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(a == b"hello".to_vec());
    }
}
