//! Inline completion payloads.
//!
//! Small results — pushdown aggregates (32 B), short KVS values, stat
//! words — do not justify a BufferPool round trip: allocating a handle,
//! copying the bytes in, shipping the handle, and copying back out costs
//! more than the payload itself. Results of at most `INLINE_MAX` bytes
//! instead ride *inside* the response envelope, exactly like NVMe's
//! in-CQE small completions. The 64-byte threshold is one cache line —
//! the unit the IPC cost model already charges per envelope transfer —
//! so an inline payload is IPC-free beyond the envelope itself and
//! counts **zero** payload copies.

/// Maximum inline payload size in bytes (one cache line).
pub(crate) const INLINE_MAX: usize = 64;

/// A small payload stored by value in the response envelope.
#[derive(Clone, Copy)]
pub struct InlineData {
    len: u8,
    bytes: [u8; INLINE_MAX],
}

impl InlineData {
    /// Wrap `data` if it fits; `None` above `INLINE_MAX` bytes (the
    /// caller falls back to the BufferPool path).
    pub fn from_slice(data: &[u8]) -> Option<InlineData> {
        if data.len() > INLINE_MAX {
            return None;
        }
        let mut bytes = [0u8; INLINE_MAX];
        // Copying into the by-value envelope replaces the pool round
        // trip entirely; it is the inline fast path, not a payload copy.
        bytes.get_mut(..data.len())?.copy_from_slice(data); // copy-ok: inline envelope fill <= 64 B
        Some(InlineData {
            len: data.len() as u8,
            bytes,
        })
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.bytes.get(..self.len as usize).unwrap_or(&[])
    }

    /// Payload length in bytes.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the payload is empty.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy the payload out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec() // copy-ok: client-side copy-out of an inline result
    }
}

impl std::fmt::Debug for InlineData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineData")
            .field("len", &self.len)
            .field("bytes", &self.as_slice())
            .finish()
    }
}

impl PartialEq for InlineData {
    fn eq(&self, other: &InlineData) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for InlineData {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the threshold: exactly 64 B rides inline, 65 B falls back
    /// to the BufferPool path.
    #[test]
    fn threshold_is_sixty_four_bytes() {
        let at = vec![0xabu8; INLINE_MAX];
        let d = InlineData::from_slice(&at).expect("64 B fits inline");
        assert_eq!(d.len(), INLINE_MAX);
        assert_eq!(d.as_slice(), &at[..]);

        let over = vec![0xabu8; INLINE_MAX + 1];
        assert!(
            InlineData::from_slice(&over).is_none(),
            "65 B must not inline"
        );
    }

    #[test]
    fn roundtrip_and_empty() {
        let d = InlineData::from_slice(b"hello").expect("fits");
        assert_eq!(d.to_vec(), b"hello");
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());

        let e = InlineData::from_slice(&[]).expect("empty fits");
        assert!(e.is_empty());
        assert_eq!(e.as_slice(), &[] as &[u8]);
    }

    #[test]
    fn inlining_counts_no_payload_copies() {
        let before = crate::buf::thread_payload_copies();
        let d = InlineData::from_slice(&[7u8; 32]).expect("fits");
        assert_eq!(d.len(), 32);
        assert_eq!(crate::buf::thread_payload_copies(), before);
    }
}
