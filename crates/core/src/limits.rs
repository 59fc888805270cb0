//! Resource limits: the first slot of every application tree.
//!
//! Each Application Thunk carries explicit limits on the hardware resources
//! its execution may consume (paper §3.3). Limits are serialized as a
//! 24-byte little-endian blob, which conveniently fits in a literal Handle,
//! so resource limits never touch storage.

use crate::data::Blob;
use crate::error::{Error, Result};
use crate::handle::{DataType, Handle, Kind};

/// Resource limits for one function invocation.
///
/// # Examples
///
/// ```
/// use fix_core::limits::ResourceLimits;
///
/// let limits = ResourceLimits::new(1 << 20, 1_000_000);
/// let blob = limits.to_blob();
/// assert!(blob.handle().is_literal());
/// assert_eq!(ResourceLimits::from_blob(&blob).unwrap(), limits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum guest memory, in bytes.
    pub memory_bytes: u64,
    /// Maximum guest fuel (abstract instruction budget).
    pub fuel: u64,
    /// Optional hint of the invocation's output size, in bytes.
    ///
    /// The scheduler includes this in its data-movement cost when choosing
    /// an execution location (paper §4.2.2). Zero means "no hint".
    pub output_size_hint: u64,
}

impl ResourceLimits {
    /// Serialized length in bytes.
    const ENCODED_LEN: usize = 24;

    /// Creates limits with the given memory and fuel budgets and no
    /// output-size hint.
    pub fn new(memory_bytes: u64, fuel: u64) -> Self {
        ResourceLimits {
            memory_bytes,
            fuel,
            output_size_hint: 0,
        }
    }

    /// Returns a copy carrying an output-size hint for the scheduler.
    pub fn with_output_hint(mut self, bytes: u64) -> Self {
        self.output_size_hint = bytes;
        self
    }

    /// Generous default limits for tests and examples: 64 MiB of memory
    /// and 2^32 fuel.
    pub fn default_limits() -> Self {
        ResourceLimits::new(64 << 20, 1 << 32)
    }

    /// The canonical 24 bytes.
    fn to_bytes(self) -> [u8; Self::ENCODED_LEN] {
        let mut buf = [0u8; Self::ENCODED_LEN];
        buf[0..8].copy_from_slice(&self.memory_bytes.to_le_bytes());
        buf[8..16].copy_from_slice(&self.fuel.to_le_bytes());
        buf[16..24].copy_from_slice(&self.output_size_hint.to_le_bytes());
        buf
    }

    /// Serializes to the canonical 24-byte blob.
    pub fn to_blob(&self) -> Blob {
        Blob::from_slice(&self.to_bytes())
    }

    /// The literal Handle of the serialized limits, built from the bytes
    /// on the stack (no blob is allocated).
    pub fn handle(&self) -> Handle {
        // invariant: ENCODED_LEN (24) ≤ MAX_LITERAL (30), so this is Some.
        Handle::literal(&self.to_bytes()).expect("24 bytes fit in a literal")
    }

    /// Parses limits back from a blob.
    pub fn from_blob(blob: &Blob) -> Result<Self> {
        Self::parse(blob.as_slice(), || blob.handle())
    }

    /// Parses limits directly from a literal handle, in place: nothing
    /// is allocated.
    pub fn from_handle(handle: Handle) -> Result<Self> {
        let literal = match handle.kind() {
            Kind::Object(DataType::Blob) | Kind::Ref(DataType::Blob) => handle.literal_content(),
            _ => None,
        };
        match literal {
            Some(data) => Self::parse(data, || handle),
            None => Err(Error::TypeMismatch {
                handle,
                expected: "literal resource-limits blob",
            }),
        }
    }

    /// Parses the canonical 24 bytes; `handle` names them in an error.
    fn parse(data: &[u8], handle: impl FnOnce() -> Handle) -> Result<Self> {
        if data.len() != Self::ENCODED_LEN {
            return Err(Error::MalformedTree {
                handle: handle(),
                reason: format!(
                    "resource limits must be {} bytes, got {}",
                    Self::ENCODED_LEN,
                    data.len()
                ),
            });
        }
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[i..i + 8]);
            u64::from_le_bytes(b)
        };
        Ok(ResourceLimits {
            memory_bytes: word(0),
            fuel: word(8),
            output_size_hint: word(16),
        })
    }
}

impl Default for ResourceLimits {
    fn default() -> Self {
        Self::default_limits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let l = ResourceLimits::new(123, 456).with_output_hint(789);
        assert_eq!(ResourceLimits::from_blob(&l.to_blob()).unwrap(), l);
        assert_eq!(ResourceLimits::from_handle(l.handle()).unwrap(), l);
    }

    #[test]
    fn wrong_length_rejected() {
        let blob = Blob::from_slice(&[0u8; 23]);
        assert!(ResourceLimits::from_blob(&blob).is_err());
    }

    #[test]
    fn limits_fit_in_a_literal() {
        let l = ResourceLimits::new(u64::MAX, u64::MAX).with_output_hint(u64::MAX);
        assert!(l.handle().is_literal());
        assert_eq!(l.handle().size(), ResourceLimits::ENCODED_LEN as u64);
    }
}
