//! Workspace-local stand-in for the `bytes` crate.
//!
//! Implements the slice of the `bytes 1.x` API this workspace uses:
//! [`Bytes`] (cheaply clonable, immutable byte string) and the [`Buf`]
//! read cursor for little-endian framing. `Bytes` is an `Arc<[u8]>`, so clones are
//! reference-counted — the property the protocol code relies on when it
//! fans a value out to many messages.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable byte string.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// The empty byte string.
    pub fn new() -> Self {
        Bytes(Arc::from(&[][..]))
    }

    /// Wraps a static slice (copied; the shim does not track lifetimes).
    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes(Arc::from(b))
    }

    /// Copies a slice into a new `Bytes`.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes(Arc::from(b))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Owned copy of the contents.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v.into_boxed_slice()))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(b: &[u8]) -> Self {
        Bytes::copy_from_slice(b)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(b: &[u8; N]) -> Self {
        Bytes::copy_from_slice(b)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_ref() == other.as_bytes()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// Read cursor over a byte source (implemented for `&[u8]`).
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;
    /// Advances the cursor by `n`.
    fn advance(&mut self, n: usize);
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.advance(1);
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_framing() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(b"xyz");
        let frozen = Bytes::from(buf);
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le(), 42);
        assert_eq!(cur.remaining(), 3);
        assert_eq!(cur, b"xyz");
    }

    #[test]
    fn bytes_ordering_matches_slices() {
        let a = Bytes::from("abc");
        let b = Bytes::from("abd");
        assert!(a < b);
        assert!(a.starts_with(b"ab"));
        let mut m = std::collections::BTreeMap::new();
        m.insert(a.clone(), 1);
        assert_eq!(m.get(b"abc".as_slice()), Some(&1));
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }
}
