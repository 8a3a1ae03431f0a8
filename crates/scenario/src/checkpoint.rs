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
//! shard  (type 17): shard u64 | start u64 | content hash u64 | count u32 | count × record
//! ```
//!
//! A record is the sweep's canonical encoding of one job's output: the
//! 66-byte [`encode_point`] for Figure-5 sweeps, the protocol point codec
//! for Figure-8 sweeps.
//!
//! * The **header** binds the file to one sweep: `sweep` is the
//!   coordinator's sweep-identity digest (label, allocator signature,
//!   audit switch, source parameters, and the full job list), `shards` and
//!   `shard_size` pin the shard geometry. A checkpoint can never resume a
//!   *different* sweep — mismatches are [`CheckpointError::HeaderMismatch`].
//! * Each **shard record** stores the shard's records in their canonical
//!   encoding plus the FNV-1a content hash ([`shard_content_hash`]) the
//!   shard was verified under; the loader recomputes it.
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

use crate::coordinator::{encode_records, Sweep};
use crate::hash::Fnv1a;
use crate::record::{self, Dec, Enc};
use crate::transport::TransportError;
use crate::SweepPoint;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

pub use crate::point::{
    decode_point, encode_point, load_checkpoint, shard_content_hash, POINT_BYTES,
};

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
pub struct ShardRecord<R = SweepPoint> {
    /// Shard index within the sweep.
    pub shard: u64,
    /// Index of the shard's first job in the canonical job list.
    pub start: u64,
    /// The shard's records, in job order.
    pub points: Vec<R>,
    /// The FNV-1a content hash the shard was verified under.
    pub hash: u64,
}

/// The result of [`load_checkpoint`].
#[derive(Debug)]
pub struct LoadedCheckpoint<R = SweepPoint> {
    /// Every intact shard record, in file order.
    pub shards: Vec<ShardRecord<R>>,
    /// Byte length of the intact prefix (what a resumed writer keeps).
    pub valid_len: u64,
    /// Whether a torn final record was discarded.
    pub dropped_tail: bool,
    /// Whether the intact prefix includes the header record.
    pub has_header: bool,
}

/// The deterministic content hash of one shard: FNV-1a over the shard
/// index, its job offset, its length, and every record's canonical
/// encoding. Workers tag their deliveries with this; the coordinator
/// recomputes it before accepting, and the checkpoint stores it.
pub(crate) fn shard_hash<S: Sweep>(shard: u64, start: u64, records: &[S::Record]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(shard);
    h.write_u64(start);
    h.write_u64(records.len() as u64);
    h.write(&encode_records::<S>(records));
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

fn shard_record<S: Sweep>(rec: &ShardRecord<S::Record>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(rec.shard);
    e.u64(rec.start);
    e.u64(rec.hash);
    e.u32(rec.points.len() as u32);
    for p in &rec.points {
        S::encode_record(p, &mut e);
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

fn decode_shard<S: Sweep>(payload: &[u8]) -> Result<ShardRecord<S::Record>, String> {
    let mut d = Dec(payload);
    let (shard, start, hash) = (d.u64()?, d.u64()?, d.u64()?);
    let n = d.count(S::RECORD_BYTES)?;
    let points = (0..n)
        .map(|_| S::decode_record(&mut d))
        .collect::<Result<Vec<_>, _>>()?;
    d.finish()?;
    let actual = shard_hash::<S>(shard, start, &points);
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
    pub fn resume<R>(
        path: &Path,
        meta: &CheckpointMeta,
        loaded: &LoadedCheckpoint<R>,
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
    pub(crate) fn append<S: Sweep>(
        &mut self,
        rec: &ShardRecord<S::Record>,
    ) -> Result<(), CheckpointError> {
        self.write_record(&shard_record::<S>(rec))
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

/// Load a checkpoint of `S` records, verifying every record checksum,
/// every shard content hash, and the header against `expected`. A torn
/// final record is dropped; every other anomaly is an error (see the
/// module docs).
pub(crate) fn load<S: Sweep>(
    path: &Path,
    expected: &CheckpointMeta,
) -> Result<LoadedCheckpoint<S::Record>, CheckpointError> {
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
                let shard = decode_shard::<S>(&rec.payload).map_err(corrupt)?;
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
