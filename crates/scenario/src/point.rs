//! Figure-5 sweep points through the coordinator: the [`Scenario`] impl
//! of the crate's `Sweep` trait, the canonical 66-byte point codec its
//! records cross frames and checkpoints in, and the shipped spec a
//! worker process rebuilds the scenario from.

use crate::checkpoint::{
    load, shard_hash, CheckpointError, CheckpointMeta, CheckpointWriter, LoadedCheckpoint,
    ShardRecord,
};
use crate::coordinator::Sweep;
use crate::hash::Fnv1a;
use crate::record::{Dec, Enc};
use crate::transport::{allocator_code, ALLOCATORS, FRAME_INIT};
use crate::{LinkRates, NetworkSource, Scenario, ScenarioMetrics, SweepPoint};
use mlf_core::allocator::SolverWorkspace;
use mlf_core::LinkRateModel;
use mlf_net::TopologyFamily;
use std::path::Path;

/// One `(model override, seed)` Figure-5 sweep job.
pub(crate) type Job = (Option<LinkRateModel>, u64);

/// Bytes of one encoded sweep point (see [`encode_point`]).
pub const POINT_BYTES: usize = 66;

/// The wire code of an optional uniform link-rate model: a tag byte plus
/// the model's parameter bits.
fn model_code(model: Option<LinkRateModel>) -> (u8, u64) {
    match model {
        None => (0, 0),
        Some(LinkRateModel::Efficient) => (1, 0),
        Some(LinkRateModel::Scaled(v)) => (2, v.to_bits()),
        Some(LinkRateModel::Sum) => (3, 0),
        Some(LinkRateModel::RandomJoin { sigma }) => (4, sigma.to_bits()),
    }
}

/// Inverse of [`model_code`].
fn model_from_code(tag: u8, bits: u64) -> Result<Option<LinkRateModel>, String> {
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

/// The content hash of a shard of Figure-5 points: FNV-1a over the shard
/// index, its job offset, its length, and every point's [`encode_point`].
pub fn shard_content_hash(shard: u64, start: u64, points: &[SweepPoint]) -> u64 {
    shard_hash::<Scenario>(shard, start, points)
}

/// Load a checkpoint of Figure-5 points, verifying every checksum, every
/// content hash and the header (see the [checkpoint](crate::checkpoint)
/// module docs for what is torn and what is corrupt).
pub fn load_checkpoint(
    path: &Path,
    expected: &CheckpointMeta,
) -> Result<LoadedCheckpoint, CheckpointError> {
    load::<Scenario>(path, expected)
}

impl CheckpointWriter {
    /// Append one accepted shard of Figure-5 points, flushed and synced.
    pub fn append_shard(&mut self, rec: &ShardRecord) -> Result<(), CheckpointError> {
        self.append::<Scenario>(rec)
    }
}

impl Sweep for Scenario {
    type Job = Job;
    type Record = SweepPoint;
    type Worker = SolverWorkspace;
    const INIT_FRAME: u8 = FRAME_INIT;
    // Model tag u8 + model bits u64 + seed u64.
    const JOB_BYTES: usize = 17;
    const RECORD_BYTES: usize = POINT_BYTES;

    fn encode_job(&(model, seed): &Job, e: &mut Enc) {
        let (tag, bits) = model_code(model);
        e.u8(tag);
        e.u64(bits);
        e.u64(seed);
    }

    fn decode_job(d: &mut Dec<'_>) -> Result<Job, String> {
        let (tag, bits, seed) = (d.u8()?, d.u64()?, d.u64()?);
        Ok((model_from_code(tag, bits)?, seed))
    }

    fn encode_record(point: &SweepPoint, e: &mut Enc) {
        e.bytes(&encode_point(point));
    }

    fn decode_record(d: &mut Dec<'_>) -> Result<SweepPoint, String> {
        decode_point(d.take(POINT_BYTES)?)
    }

    fn worker(&self) -> Self::Worker {
        SolverWorkspace::new()
    }

    fn solve(&self, ws: &mut Self::Worker, &(model, seed): &Job) -> SweepPoint {
        self.point_for(&self.network_for(seed), seed, model, ws)
    }

    /// Label, allocator identity, audit switch, network source (a fixed
    /// network by its content: every link, every session, every route)
    /// and link rates.
    fn identity(&self, h: &mut Fnv1a) {
        h.write(self.label.as_bytes());
        h.write(self.allocator.name().as_bytes());
        h.write(self.allocator.signature().as_bytes());
        h.write_u64(u64::from(self.check_properties));
        match &self.source {
            NetworkSource::Fixed(net) => {
                h.write(b"fixed");
                h.write_u64(net.session_count() as u64);
                for (_, link) in net.graph().links() {
                    h.write_u64(link.a.0 as u64);
                    h.write_u64(link.b.0 as u64);
                    h.write_u64(link.capacity.to_bits());
                }
                for s in net.sessions() {
                    h.write_u64(s.sender.0 as u64);
                    h.write_u64(s.receivers.len() as u64);
                    for r in &s.receivers {
                        h.write_u64(r.0 as u64);
                    }
                    h.write_u64(u64::from(s.kind.is_single_rate()));
                    h.write_u64(s.max_rate.to_bits());
                }
                // Routes too: `Network::with_routes` may pick other paths.
                for r in net.receivers() {
                    let route = net.route(r);
                    h.write_u64(route.len() as u64);
                    for link in route {
                        h.write_u64(link.0 as u64);
                    }
                }
            }
            NetworkSource::Random {
                family,
                nodes,
                sessions,
                max_receivers,
            } => {
                h.write(b"random");
                h.write(family.label().as_bytes());
                h.write_u64(*nodes as u64);
                h.write_u64(*sessions as u64);
                h.write_u64(*max_receivers as u64);
            }
        }
        match &self.link_rates {
            LinkRates::Efficient => h.write(b"eff"),
            LinkRates::Uniform(m) => {
                h.write(b"uniform");
                let (tag, bits) = model_code(Some(*m));
                h.write(&[tag]);
                h.write_u64(bits);
            }
            LinkRates::Explicit(cfg) => {
                h.write(b"explicit");
                for i in 0..cfg.len() {
                    let (tag, bits) = model_code(Some(*cfg.model(i)));
                    h.write(&[tag]);
                    h.write_u64(bits);
                }
            }
        }
    }

    /// Only scenarios whose every solve-relevant knob round-trips ship —
    /// anything else would silently break the bitwise differential.
    /// (Layering and reporting knobs never reach a point's bytes.)
    fn process_spec(&self, e: &mut Enc) -> Result<(), String> {
        let NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        } = &self.source
        else {
            return Err(
                "process transport needs a random-network scenario; a fixed network \
                 cannot be shipped to a worker process"
                    .to_string(),
            );
        };
        let link_model = match &self.link_rates {
            LinkRates::Efficient => None,
            LinkRates::Uniform(m) => Some(*m),
            LinkRates::Explicit(_) => {
                return Err(
                    "explicit per-session link-rate configs cannot be shipped to a \
                     worker process"
                        .to_string(),
                )
            }
        };
        let allocator = allocator_code(self.allocator.as_ref()).ok_or_else(|| {
            format!(
                "allocator {:?} is not in the process-transport registry \
                 (no registry entry states its cache signature)",
                self.allocator.name()
            )
        })?;
        e.str(&self.label);
        let (ftag, fparam): (u8, u64) = match *family {
            TopologyFamily::FlatTree => (0, 0),
            TopologyFamily::KaryTree { arity } => (1, arity as u64),
            TopologyFamily::TransitStub { transit } => (2, transit as u64),
            TopologyFamily::Dumbbell => (3, 0),
        };
        e.u8(ftag);
        e.u64(fparam);
        e.u64(*nodes as u64);
        e.u64(*sessions as u64);
        e.u64(*max_receivers as u64);
        let (mtag, mbits) = model_code(link_model);
        e.u8(mtag);
        e.u64(mbits);
        e.u8(allocator);
        e.u8(u8::from(self.check_properties));
        Ok(())
    }

    fn from_spec(d: &mut Dec<'_>) -> Result<Self, String> {
        let label = d.str()?;
        let (ftag, fparam) = (d.u8()?, d.u64()?);
        let family = match ftag {
            0 => TopologyFamily::FlatTree,
            1 => TopologyFamily::KaryTree {
                arity: fparam as usize,
            },
            2 => TopologyFamily::TransitStub {
                transit: fparam as usize,
            },
            3 => TopologyFamily::Dumbbell,
            t => return Err(format!("unknown family tag {t}")),
        };
        let (nodes, sessions, max_receivers) = (d.u64()?, d.u64()?, d.u64()?);
        let (mtag, mbits) = (d.u8()?, d.u64()?);
        let link_rates = match model_from_code(mtag, mbits)? {
            None => LinkRates::Efficient,
            Some(m) => LinkRates::Uniform(m),
        };
        let code = d.u8()? as usize;
        let make = ALLOCATORS
            .get(code)
            .ok_or_else(|| format!("unknown allocator code {code}"))?;
        let check_properties = d.u8()? != 0;
        let mut builder = Scenario::builder()
            .label(label)
            .random_networks_with(
                family,
                nodes as usize,
                sessions as usize,
                max_receivers as usize,
            )
            .link_rates(link_rates)
            .check_properties(check_properties);
        builder.allocator = make();
        builder.build().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::load_checkpoint;

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
