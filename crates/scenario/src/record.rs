//! The one checksummed record codec. Worker-protocol frames
//! ([`crate::transport`]) and checkpoint files ([`crate::checkpoint`]) are
//! both sequences of these records.
//!
//! # Layout
//!
//! ```text
//! "MLFW" | version u16 | type u8 | payload len u32 | fnv1a(bytes 0..11) u64 | payload | fnv1a(all before) u64
//! ```
//!
//! Everything is little-endian. The header carries its own checksum, so
//! the type and the length field are verified before the payload is read
//! or allocated; the trailing checksum covers header and payload. The
//! type byte is one namespace: frames use 1–5, checkpoint records 16–17.
//!
//! # Torn tail vs corrupt
//!
//! [`read`] classifies every failure. EOF inside a record whose present
//! bytes still agree with a valid record (magic and version match, and
//! the header checksum verifies once the header is complete) is
//! [`TransportError::Truncated`]: a strict prefix of a valid record, which
//! on disk means a torn append. Anything else is damage inside the
//! record: bad magic, version skew, a header checksum failure (which is
//! how a flipped length byte shows up), an oversized length, or a payload
//! checksum mismatch. The header checksum is what tells the two apart:
//! without it, an interior record whose length field grew would look like
//! a record running off the end of the file.

use crate::hash::{fnv1a, Fnv1a};
use crate::transport::{TransportError, MAGIC, PROTOCOL_VERSION};
use std::io::Read;

/// Header bytes: magic (4) + version (2) + type (1) + payload length (4)
/// + header checksum (8).
pub(crate) const HEADER_BYTES: usize = 19;

/// Upper bound on a payload; a longer length field is rejected before
/// anything is allocated.
pub(crate) const MAX_PAYLOAD: usize = 64 << 20;

/// One verified record.
#[derive(Debug)]
pub(crate) struct Record {
    /// The record type byte.
    pub(crate) kind: u8,
    /// The payload, checksum verified.
    pub(crate) payload: Vec<u8>,
}

/// Serialize one record: header, header checksum, payload, checksum.
pub(crate) fn encode(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let header_check = fnv1a(&out);
    out.extend_from_slice(&header_check.to_le_bytes());
    out.extend_from_slice(payload);
    let check = fnv1a(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TransportError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(TransportError::Io {
                    op: "read",
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(got)
}

/// Read one record. `Ok(None)` is a clean end of input (EOF on a record
/// boundary). See the [module docs](self) for how failures are
/// classified. A payload checksum mismatch consumes the whole record, so
/// a [resyncable](TransportError::resyncable) error leaves the reader on
/// the next record boundary.
pub(crate) fn read<R: Read>(r: &mut R) -> Result<Option<Record>, TransportError> {
    let mut header = [0u8; HEADER_BYTES];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    // Whatever part of the header arrived must already agree with a valid
    // record; only then is a short read a torn tail.
    let n = got.min(MAGIC.len());
    if header[..n] != MAGIC[..n] {
        return Err(TransportError::BadMagic {
            got: [header[0], header[1], header[2], header[3]],
        });
    }
    if got >= 6 {
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != PROTOCOL_VERSION {
            return Err(TransportError::VersionSkew {
                wire: version,
                supported: PROTOCOL_VERSION,
            });
        }
    }
    if got < HEADER_BYTES {
        return Err(TransportError::Truncated {
            expected: HEADER_BYTES,
            got,
        });
    }
    let stored = le_u64(&header[11..]);
    let computed = fnv1a(&header[..11]);
    if stored != computed {
        return Err(TransportError::BadHeader {
            reason: format!(
                "header checksum mismatch: stored 0x{stored:016x}, computed 0x{computed:016x}"
            ),
        });
    }
    let kind = header[6];
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(TransportError::BadHeader {
            reason: format!("payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"),
        });
    }
    let mut rest = vec![0u8; len + 8];
    let got_rest = read_full(r, &mut rest)?;
    if got_rest < rest.len() {
        return Err(TransportError::Truncated {
            expected: HEADER_BYTES + len + 8,
            got: HEADER_BYTES + got_rest,
        });
    }
    let mut h = Fnv1a::new();
    h.write(&header);
    h.write(&rest[..len]);
    let computed = h.finish();
    let stored = le_u64(&rest[len..]);
    if stored != computed {
        return Err(TransportError::ChecksumMismatch { stored, computed });
    }
    rest.truncate(len);
    Ok(Some(Record {
        kind,
        payload: rest,
    }))
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Little-endian payload builder.
pub(crate) struct Enc(Vec<u8>);

impl Enc {
    pub(crate) fn new() -> Self {
        Enc(Vec::new())
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    pub(crate) fn done(self) -> Vec<u8> {
        self.0
    }
}

/// Little-endian payload reader. Every read is bounds-checked, and
/// element counts are checked against the bytes left, so no decode
/// allocates more than its payload could hold.
pub(crate) struct Dec<'a>(pub(crate) &'a [u8]);

impl<'a> Dec<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err(format!(
                "payload needs {n} more bytes, has {}",
                self.0.len()
            ));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(le_u64(self.take(8)?))
    }
    pub(crate) fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }
    /// A `u32` element count, rejected when that many elements of at
    /// least `unit` bytes each cannot fit in the rest of the payload.
    pub(crate) fn count(&mut self, unit: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(unit) > self.0.len() {
            return Err(format!(
                "count {n} of {unit}-byte elements overruns the {} bytes left",
                self.0.len()
            ));
        }
        Ok(n)
    }
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing payload bytes", self.0.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_round_trip_and_end_cleanly() {
        let mut wire = encode(7, b"payload");
        wire.extend(encode(9, &[]));
        let mut cursor = &wire[..];
        let a = read(&mut cursor).unwrap().expect("first record");
        assert_eq!((a.kind, &a.payload[..]), (7, &b"payload"[..]));
        let b = read(&mut cursor).unwrap().expect("second record");
        assert_eq!((b.kind, b.payload.len()), (9, 0));
        assert!(read(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn every_strict_prefix_is_torn_and_every_flip_is_damage() {
        let good = encode(3, b"some payload bytes");
        for cut in 1..good.len() {
            let err = read(&mut &good[..cut]).unwrap_err();
            assert!(
                matches!(err, TransportError::Truncated { .. }),
                "prefix of {cut} bytes: {err}"
            );
        }
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[i] ^= 1 << bit;
                let err = read(&mut &flipped[..]).unwrap_err();
                assert!(
                    !matches!(err, TransportError::Truncated { .. }),
                    "flip at byte {i} bit {bit} read as a torn tail: {err}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_is_refused_before_allocating() {
        // A header that verifies but claims one byte past the cap.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        header.push(1);
        header.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let check = fnv1a(&header);
        header.extend_from_slice(&check.to_le_bytes());
        let err = read(&mut &header[..]).unwrap_err();
        assert!(matches!(err, TransportError::BadHeader { .. }), "{err}");
    }

    #[test]
    fn counts_are_bounded_by_the_payload() {
        let mut e = Enc::new();
        e.u32(u32::MAX);
        e.u64(1);
        let payload = e.done();
        assert!(Dec(&payload).count(8).is_err(), "4G elements in 8 bytes");
        let mut d = Dec(&payload[4..]);
        assert_eq!(d.u64(), Ok(1));
        assert!(d.finish().is_ok());
    }

    /// Drain `input` record by record. Returns how many records verified
    /// and the error that stopped the drain, if any. Every accepted record
    /// must re-encode to exactly the bytes it was read from, which is what
    /// "its checksums verified" means.
    fn drain(input: &[u8]) -> (usize, Option<TransportError>) {
        let mut rest = input;
        let mut count = 0;
        loop {
            let before = rest;
            match read(&mut rest) {
                Ok(Some(rec)) => {
                    let used = before.len() - rest.len();
                    assert_eq!(encode(rec.kind, &rec.payload), before[..used]);
                    count += 1;
                }
                Ok(None) => return (count, None),
                Err(e) => return (count, Some(e)),
            }
        }
    }

    fn stream(payloads: &[Vec<u8>]) -> Vec<u8> {
        payloads
            .iter()
            .enumerate()
            .flat_map(|(i, p)| encode(i as u8, p))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, with and without a valid magic prefix, never
        /// panic the reader and never yield an unverified record.
        #[test]
        fn fuzz_random_bytes_never_yield_unverified_records(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            magic in any::<bool>(),
        ) {
            let mut input = Vec::new();
            if magic {
                input.extend_from_slice(&MAGIC);
                input.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            }
            input.extend_from_slice(&bytes);
            drain(&input);
        }

        /// A stream cut anywhere reads every record that ends before the
        /// cut, then reports a torn tail (or a clean end on a boundary).
        #[test]
        fn fuzz_truncated_streams_recover_their_complete_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..5),
            cut in any::<usize>(),
        ) {
            let wire = stream(&payloads);
            let cut = cut % (wire.len() + 1);
            let ends: Vec<usize> = payloads
                .iter()
                .scan(0, |end, p| {
                    *end += HEADER_BYTES + p.len() + 8;
                    Some(*end)
                })
                .collect();
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let (count, err) = drain(&wire[..cut]);
            prop_assert_eq!(count, complete);
            if cut == 0 || ends.contains(&cut) {
                prop_assert!(err.is_none());
            } else {
                let torn = matches!(err, Some(TransportError::Truncated { .. }));
                prop_assert!(torn);
            }
        }

        /// One flipped bit is caught inside the record it lands in: the
        /// records before it verify, the damaged one never does, and it is
        /// never mistaken for a torn tail.
        #[test]
        fn fuzz_bit_flips_are_damage_never_records(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..5),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut wire = stream(&payloads);
            let at = at % wire.len();
            wire[at] ^= 1 << bit;
            let mut start = 0;
            let mut hit = 0;
            for p in &payloads {
                let end = start + HEADER_BYTES + p.len() + 8;
                if at < end {
                    break;
                }
                start = end;
                hit += 1;
            }
            let (count, err) = drain(&wire);
            prop_assert_eq!(count, hit);
            prop_assert!(err.is_some());
            let torn = matches!(err, Some(TransportError::Truncated { .. }));
            prop_assert!(!torn);
        }
    }
}
