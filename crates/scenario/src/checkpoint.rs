//! Append-only sweep checkpoints: the durability half of the
//! [`coordinator`](crate::coordinator).
//!
//! A checkpoint file records every shard a coordinated sweep has accepted,
//! one record per shard, so a killed run resumes from disk instead of
//! recomputing — and provably produces the same bytes, because each record
//! carries the shard's canonical point encodings plus two independent
//! digests (the record checksum and the shard content hash the workers
//! originally reported).
//!
//! # Format (v2)
//!
//! A sequence of records in the crate's one checksummed record codec
//! (`crate::record`, the same framing the worker protocol speaks:
//! magic, version, type, header-checksummed length, payload, FNV-1a):
//!
//! ```text
//! header (type 16): sweep u64 | shards u64 | shard_size u64
//! shard  (type 17): shard u64 | start u64 | content hash u64 | count u32 | count × 66-byte point
//! ```
//!
//! * The **header** binds the file to one sweep: `sweep` is the
//!   coordinator's sweep-identity digest (label, allocator signature,
//!   audit switch, source parameters, and the full job list), `shards` and
//!   `shard_size` pin the shard geometry. A checkpoint can never resume a
//!   *different* sweep — mismatches are [`CheckpointError::HeaderMismatch`].
//! * Each **shard record** stores the shard's points in the canonical
//!   66-byte encoding ([`encode_point`]) plus the FNV-1a content hash
//!   ([`shard_content_hash`]) the shard was verified under; the loader
//!   recomputes it.
//!
//! # Torn tail vs corrupt
//!
//! A crash can only damage the **tail** of an append-only file: the writer
//! fsyncs record by record, so every earlier record is complete. On load,
//! a strict prefix of the final record is a torn append: it is dropped
//! ([`LoadedCheckpoint::dropped_tail`]) and the resumed writer truncates
//! to [`LoadedCheckpoint::valid_len`] and continues. Damage inside any
//! complete record — payload, checksum or length field, caught by the
//! record's two checksums — or a content hash that does not verify is a
//! hard [`CheckpointError::Corrupt`]: a bad shard is never merged. A file
//! in the retired v1 JSON-lines format gets
//! [`CheckpointError::LegacyFormat`] and is never overwritten.

use crate::hash::Fnv1a;
use crate::record::{self, Dec, Enc};
use crate::transport::TransportError;
use crate::{ScenarioMetrics, SweepPoint};
use mlf_core::LinkRateModel;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Bytes of one encoded sweep point (see [`encode_point`]).
pub const POINT_BYTES: usize = 66;

/// Record type of the checkpoint header.
const RECORD_HEADER: u8 = 16;
/// Record type of one accepted shard.
const RECORD_SHARD: u8 = 17;
/// How every file in the retired v1 JSON-lines format begins.
const V1_PREFIX: &[u8] = b"{\"format\":\"mlf-sweep-checkpoint-v1\"";

/// Why a checkpoint could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An OS-level file operation failed.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The operation that failed (`"open"`, `"read"`, `"write"`, …).
        op: &'static str,
        /// The OS error, stringified.
        message: String,
    },
    /// The file is empty: not even a torn header.
    MissingHeader {
        /// The checkpoint path.
        path: PathBuf,
    },
    /// The header belongs to a different sweep or geometry.
    HeaderMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value the resuming sweep expected.
        expected: String,
        /// The value stored in the file.
        got: String,
    },
    /// A complete record failed a checksum, failed to decode, or failed
    /// its content hash. Never merged, never recovered.
    Corrupt {
        /// 1-based record number.
        record: usize,
        /// What was wrong.
        reason: String,
    },
    /// The file is a v1 JSON-lines checkpoint, which this build no longer
    /// reads. It is left untouched.
    LegacyFormat {
        /// The checkpoint path.
        path: PathBuf,
    },
    /// A shard record names a shard index outside the header's geometry.
    ShardOutOfRange {
        /// The stored shard index.
        shard: u64,
        /// The header's shard count.
        shards: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, op, message } => {
                write!(
                    f,
                    "checkpoint {op} failed for {}: {message}",
                    path.display()
                )
            }
            CheckpointError::MissingHeader { path } => {
                write!(f, "checkpoint {} has no header", path.display())
            }
            CheckpointError::HeaderMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "checkpoint belongs to a different sweep: {field} is {got}, expected {expected}"
            ),
            CheckpointError::Corrupt { record, reason } => {
                write!(f, "checkpoint record {record} is corrupt: {reason}")
            }
            CheckpointError::LegacyFormat { path } => write!(
                f,
                "checkpoint {} is in the retired v1 JSON format; delete it to start over",
                path.display()
            ),
            CheckpointError::ShardOutOfRange { shard, shards } => {
                write!(f, "checkpoint shard {shard} out of range ({shards} shards)")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The sweep identity a checkpoint is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The coordinator's sweep-identity digest.
    pub sweep: u64,
    /// Total shard count of the sweep.
    pub shards: u64,
    /// Configured jobs per shard.
    pub shard_size: u64,
}

/// One accepted shard as stored on (or loaded from) disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Shard index within the sweep.
    pub shard: u64,
    /// Index of the shard's first job in the canonical job list.
    pub start: u64,
    /// The shard's points, in job order.
    pub points: Vec<SweepPoint>,
    /// The FNV-1a content hash the shard was verified under.
    pub hash: u64,
}

/// The result of [`load_checkpoint`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Every intact shard record, in file order.
    pub shards: Vec<ShardRecord>,
    /// Byte length of the intact prefix (what a resumed writer keeps).
    pub valid_len: u64,
    /// Whether a torn final record was discarded.
    pub dropped_tail: bool,
    /// Whether the intact prefix includes the header record.
    pub has_header: bool,
}

// ---------------------------------------------------------------------------
// Canonical point encoding
// ---------------------------------------------------------------------------

/// The wire code of an optional uniform link-rate model: a tag byte plus
/// the model's parameter bits.
pub(crate) fn model_code(model: Option<LinkRateModel>) -> (u8, u64) {
    match model {
        None => (0, 0),
        Some(LinkRateModel::Efficient) => (1, 0),
        Some(LinkRateModel::Scaled(v)) => (2, v.to_bits()),
        Some(LinkRateModel::Sum) => (3, 0),
        Some(LinkRateModel::RandomJoin { sigma }) => (4, sigma.to_bits()),
    }
}

/// Inverse of [`model_code`] (shared with the transport frame codec).
pub(crate) fn model_from_code(tag: u8, bits: u64) -> Result<Option<LinkRateModel>, String> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(LinkRateModel::Efficient)),
        2 => Ok(Some(LinkRateModel::Scaled(f64::from_bits(bits)))),
        3 => Ok(Some(LinkRateModel::Sum)),
        4 => Ok(Some(LinkRateModel::RandomJoin {
            sigma: f64::from_bits(bits),
        })),
        t => Err(format!("unknown model tag {t}")),
    }
}

/// Encode one sweep point into its canonical 66-byte little-endian form.
///
/// The encoding is **total and injective on bit patterns**: every `f64` is
/// stored by `to_bits`, so NaNs and signed zeros round-trip exactly and
/// two points are bitwise equal iff their encodings are equal — which is
/// why the coordinator's shard hashes, spot-check comparisons, and the
/// checkpoint file all speak this encoding rather than `PartialEq`.
pub fn encode_point(p: &SweepPoint) -> [u8; POINT_BYTES] {
    let mut out = [0u8; POINT_BYTES];
    out[0..8].copy_from_slice(&p.seed.to_le_bytes());
    let (tag, bits) = model_code(p.model);
    out[8] = tag;
    out[9..17].copy_from_slice(&bits.to_le_bytes());
    out[17..25].copy_from_slice(&p.metrics.jain_index.to_bits().to_le_bytes());
    out[25..33].copy_from_slice(&p.metrics.min_rate.to_bits().to_le_bytes());
    out[33..41].copy_from_slice(&p.metrics.total_rate.to_bits().to_le_bytes());
    out[41..49].copy_from_slice(&p.metrics.satisfaction.to_bits().to_le_bytes());
    out[49..57].copy_from_slice(&(p.metrics.iterations as u64).to_le_bytes());
    let (ptag, pval) = match p.properties_holding {
        None => (0u8, 0u64),
        Some(n) => (1, n as u64),
    };
    out[57] = ptag;
    out[58..66].copy_from_slice(&pval.to_le_bytes());
    out
}

/// Decode a canonical 66-byte point encoding (inverse of [`encode_point`]).
/// Bytes [`encode_point`] never writes are an error, so every decoded
/// point re-encodes to exactly its input: parameter bits on a model
/// without a parameter, or a count after an absent-properties tag.
pub fn decode_point(bytes: &[u8]) -> Result<SweepPoint, String> {
    if bytes.len() != POINT_BYTES {
        return Err(format!(
            "encoded point is {} bytes, expected {POINT_BYTES}",
            bytes.len()
        ));
    }
    let u64_at = |off: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let model = model_from_code(bytes[8], u64_at(9))?;
    if model_code(model).1 != u64_at(9) {
        return Err(format!("model tag {} carries no parameter", bytes[8]));
    }
    let properties_holding = match bytes[57] {
        0 if u64_at(58) != 0 => Err("a count after the no-properties tag".to_string())?,
        0 => None,
        1 => Some(u64_at(58) as usize),
        t => Err(format!("unknown properties tag {t}"))?,
    };
    Ok(SweepPoint {
        seed: u64_at(0),
        model,
        metrics: ScenarioMetrics {
            jain_index: f64::from_bits(u64_at(17)),
            min_rate: f64::from_bits(u64_at(25)),
            total_rate: f64::from_bits(u64_at(33)),
            satisfaction: f64::from_bits(u64_at(41)),
            iterations: u64_at(49) as usize,
        },
        properties_holding,
    })
}

/// The deterministic content hash of one shard: FNV-1a over the shard
/// index, its job offset, its length, and every point's canonical
/// encoding. Workers tag their deliveries with this; the coordinator
/// recomputes it before accepting, and the checkpoint stores it.
pub fn shard_content_hash(shard: u64, start: u64, points: &[SweepPoint]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(shard);
    h.write_u64(start);
    h.write_u64(points.len() as u64);
    for p in points {
        h.write(&encode_point(p));
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

fn header_record(meta: &CheckpointMeta) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(meta.sweep);
    e.u64(meta.shards);
    e.u64(meta.shard_size);
    record::encode(RECORD_HEADER, &e.done())
}

fn shard_record(rec: &ShardRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(rec.shard);
    e.u64(rec.start);
    e.u64(rec.hash);
    e.u32(rec.points.len() as u32);
    for p in &rec.points {
        e.bytes(&encode_point(p));
    }
    record::encode(RECORD_SHARD, &e.done())
}

fn decode_header(payload: &[u8]) -> Result<CheckpointMeta, String> {
    let mut d = Dec(payload);
    let meta = CheckpointMeta {
        sweep: d.u64()?,
        shards: d.u64()?,
        shard_size: d.u64()?,
    };
    d.finish()?;
    Ok(meta)
}

fn decode_shard(payload: &[u8]) -> Result<ShardRecord, String> {
    let mut d = Dec(payload);
    let (shard, start, hash) = (d.u64()?, d.u64()?, d.u64()?);
    let n = d.count(POINT_BYTES)?;
    let points = (0..n)
        .map(|_| d.take(POINT_BYTES).and_then(decode_point))
        .collect::<Result<Vec<_>, _>>()?;
    d.finish()?;
    let actual = shard_content_hash(shard, start, &points);
    if actual != hash {
        return Err(format!(
            "content hash mismatch: stored 0x{hash:016x}, computed 0x{actual:016x}"
        ));
    }
    Ok(ShardRecord {
        shard,
        start,
        points,
        hash,
    })
}

// ---------------------------------------------------------------------------
// File IO
// ---------------------------------------------------------------------------

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        op,
        message: e.to_string(),
    }
}

/// The append-only writer side of a checkpoint file. Every accepted shard
/// becomes one synced record, so the on-disk prefix is always a valid
/// checkpoint of everything accepted so far.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Create (or truncate) a checkpoint and write its header record.
    pub fn create(path: &Path, meta: &CheckpointMeta) -> Result<Self, CheckpointError> {
        let file = File::create(path).map_err(|e| io_err(path, "create", e))?;
        let mut w = CheckpointWriter {
            file,
            path: path.to_path_buf(),
        };
        w.write_record(&header_record(meta))?;
        Ok(w)
    }

    /// Reopen an existing checkpoint after [`load_checkpoint`]: the file is
    /// truncated to the loaded `valid_len` (discarding any recovered torn
    /// tail) and appending resumes there. Writes a fresh header if the
    /// intact prefix lost it.
    pub fn resume(
        path: &Path,
        meta: &CheckpointMeta,
        loaded: &LoadedCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        file.set_len(loaded.valid_len)
            .map_err(|e| io_err(path, "truncate", e))?;
        let mut w = CheckpointWriter {
            file,
            path: path.to_path_buf(),
        };
        w.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&w.path, "seek", e))?;
        if !loaded.has_header {
            w.write_record(&header_record(meta))?;
        }
        Ok(w)
    }

    /// Append one accepted shard, flush it, and **fsync** it — the shard
    /// is durably on disk before the coordinator treats it as accepted,
    /// so a coordinator killed between accept and merge (even by power
    /// loss, not just SIGKILL) never loses an accepted shard record.
    pub fn append_shard(&mut self, rec: &ShardRecord) -> Result<(), CheckpointError> {
        self.write_record(&shard_record(rec))
    }

    fn write_record(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, "write", e))?;
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "sync", e))
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        // Belt and braces: every record is already flushed and synced as
        // it is written, but a final best-effort sync on any exit path
        // costs nothing and covers future buffered-writer refactors.
        let _ = self.file.flush();
        let _ = self.file.sync_data();
    }
}

/// Load a checkpoint, verifying every record checksum, every shard content
/// hash, and the header against `expected`. A torn final record is
/// dropped; every other anomaly is an error (see the module docs).
pub fn load_checkpoint(
    path: &Path,
    expected: &CheckpointMeta,
) -> Result<LoadedCheckpoint, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", e))?;
    if bytes.starts_with(V1_PREFIX) {
        return Err(CheckpointError::LegacyFormat {
            path: path.to_path_buf(),
        });
    }
    let mut loaded = LoadedCheckpoint {
        shards: Vec::new(),
        valid_len: 0,
        dropped_tail: false,
        has_header: false,
    };
    let mut rest = &bytes[..];
    for n in 1.. {
        let corrupt = |reason: String| CheckpointError::Corrupt { record: n, reason };
        let rec = match record::read(&mut rest) {
            Ok(Some(rec)) => rec,
            Ok(None) => break,
            // The one anomaly an append-only crash can produce.
            Err(TransportError::Truncated { .. }) => {
                loaded.dropped_tail = true;
                break;
            }
            Err(e) => return Err(corrupt(e.to_string())),
        };
        match (n, rec.kind) {
            (1, RECORD_HEADER) => {
                check_header(&decode_header(&rec.payload).map_err(corrupt)?, expected)?;
                loaded.has_header = true;
            }
            (2.., RECORD_SHARD) => {
                let shard = decode_shard(&rec.payload).map_err(corrupt)?;
                if shard.shard >= expected.shards {
                    return Err(CheckpointError::ShardOutOfRange {
                        shard: shard.shard,
                        shards: expected.shards,
                    });
                }
                loaded.shards.push(shard);
            }
            (_, kind) => return Err(corrupt(format!("unexpected record type {kind}"))),
        }
        loaded.valid_len = (bytes.len() - rest.len()) as u64;
    }
    if !loaded.has_header && !loaded.dropped_tail {
        return Err(CheckpointError::MissingHeader {
            path: path.to_path_buf(),
        });
    }
    Ok(loaded)
}

fn check_header(got: &CheckpointMeta, expected: &CheckpointMeta) -> Result<(), CheckpointError> {
    let fields = [
        ("sweep", got.sweep, expected.sweep),
        ("shards", got.shards, expected.shards),
        ("shard_size", got.shard_size, expected.shard_size),
    ];
    match fields.into_iter().find(|(_, g, e)| g != e) {
        Some((field, got, expected)) => Err(CheckpointError::HeaderMismatch {
            field,
            expected: format!("{expected:#x}"),
            got: format!("{got:#x}"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(seed: u64, model: Option<LinkRateModel>) -> SweepPoint {
        SweepPoint {
            seed,
            model,
            metrics: ScenarioMetrics {
                jain_index: 0.5 + seed as f64,
                min_rate: -0.0,
                total_rate: f64::NAN,
                satisfaction: f64::INFINITY,
                iterations: 7,
            },
            properties_holding: (seed % 2 == 0).then_some(4),
        }
    }

    #[test]
    fn point_encoding_round_trips_exotic_bit_patterns() {
        for (seed, model) in [
            (0, None),
            (1, Some(LinkRateModel::Efficient)),
            (2, Some(LinkRateModel::Scaled(f64::NAN))),
            (3, Some(LinkRateModel::Sum)),
            (4, Some(LinkRateModel::RandomJoin { sigma: -0.0 })),
        ] {
            let p = point(seed, model);
            let enc = encode_point(&p);
            let back = decode_point(&enc).unwrap();
            // Bitwise comparison via re-encoding: NaN != NaN under
            // PartialEq, but the encodings must agree exactly.
            assert_eq!(enc, encode_point(&back));
        }
        assert!(decode_point(&[0u8; 65]).is_err());
        let mut bad = encode_point(&point(0, None));
        bad[8] = 9; // unknown model tag
        assert!(decode_point(&bad).is_err());
        // Bytes encode_point never writes: parameter bits on `Efficient`,
        // and a count after the no-properties tag of an odd seed.
        let mut bad = encode_point(&point(1, Some(LinkRateModel::Efficient)));
        bad[9] = 1;
        assert!(decode_point(&bad).is_err());
        let mut bad = encode_point(&point(1, None));
        bad[58] = 1;
        assert!(decode_point(&bad).is_err());
    }

    #[test]
    fn file_round_trip_and_header_binding() {
        let dir = std::env::temp_dir().join("mlf-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.ckpt");
        let meta = CheckpointMeta {
            sweep: 0xabcd,
            shards: 3,
            shard_size: 2,
        };
        let recs: Vec<ShardRecord> = (0..2u64)
            .map(|i| {
                let pts = vec![point(i * 2, None), point(i * 2 + 1, None)];
                ShardRecord {
                    shard: i,
                    start: i * 2,
                    hash: shard_content_hash(i, i * 2, &pts),
                    points: pts,
                }
            })
            .collect();
        let mut w = CheckpointWriter::create(&path, &meta).unwrap();
        for r in &recs {
            w.append_shard(r).unwrap();
        }
        let loaded = load_checkpoint(&path, &meta).unwrap();
        assert_eq!(loaded.shards.len(), 2);
        assert!(!loaded.dropped_tail);
        for (a, b) in loaded.shards.iter().zip(&recs) {
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.hash, b.hash);
            let enc_a: Vec<_> = a.points.iter().map(encode_point).collect();
            let enc_b: Vec<_> = b.points.iter().map(encode_point).collect();
            assert_eq!(enc_a, enc_b);
        }
        // A different sweep identity refuses to resume.
        let other = CheckpointMeta {
            sweep: 0xbeef,
            ..meta
        };
        assert!(matches!(
            load_checkpoint(&path, &other),
            Err(CheckpointError::HeaderMismatch { field: "sweep", .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_corrupt_tails_are_told_apart() {
        let dir = std::env::temp_dir().join("mlf-ckpt-tails");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tails.ckpt");
        let meta = CheckpointMeta {
            sweep: 7,
            shards: 2,
            shard_size: 1,
        };
        let pts = vec![point(0, None)];
        let rec = ShardRecord {
            shard: 0,
            start: 0,
            hash: shard_content_hash(0, 0, &pts),
            points: pts,
        };
        let mut w = CheckpointWriter::create(&path, &meta).unwrap();
        w.append_shard(&rec).unwrap();
        let intact = std::fs::read(&path).unwrap();

        // Torn tail: the final record lost its last few bytes.
        std::fs::write(&path, &intact[..intact.len() - 5]).unwrap();
        let rec_loaded = load_checkpoint(&path, &meta).unwrap();
        assert!(rec_loaded.dropped_tail);
        assert_eq!(rec_loaded.shards.len(), 0);
        assert!(rec_loaded.has_header);

        // A complete but bit-flipped record is a hard error — never merged.
        let mut flipped = intact.clone();
        let mid = flipped.len() - 20;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            load_checkpoint(&path, &meta),
            Err(CheckpointError::Corrupt { record: 2, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
