//! FNV-1a 64-bit hashing — the content-hash primitive shared by the
//! coordinator's shard verification, its sweep identity, and the record
//! codec's checksums.
//!
//! FNV-1a is deliberately simple: a fixed offset basis folded with a fixed
//! prime, byte by byte, with no seeds and no platform dependence — the same
//! bytes hash to the same value on every machine, which is exactly the
//! property a cross-worker content audit needs. It is *not* adversarial
//! collision resistance; the coordinator's threat model is lost and
//! corrupted bytes (crashes, truncation, transport bugs), not a malicious
//! worker forging preimages.

/// Streaming FNV-1a 64 hasher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Fold raw bytes into the state.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a `u64` in little-endian byte order.
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot hash of a byte slice.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv1a::new();
        w.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            w.finish(),
            fnv1a(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }
}
