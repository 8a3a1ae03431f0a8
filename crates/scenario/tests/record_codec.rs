//! Adversarial bytes against the checkpoint loader, which reads disk
//! through the crate's one record codec. Random, truncated and bit-flipped
//! files must never panic it and never yield a shard whose content hash
//! fails; a torn final record recovers to the record before it, damage in
//! any complete record is `Corrupt`, and a v1 JSON file gets a typed
//! rejection and is left untouched. (The codec's own reader is fuzzed by
//! the `record` unit tests.) The 66-byte point decoder and the 282-byte
//! Figure-8 point decoder are fuzzed on their own too: each must answer
//! any image with a typed error or a point that re-encodes to exactly
//! that image. Figure-8 checkpoints, cut or bit-flipped, resume as torn
//! or are refused as corrupt.

use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_protocols::{ExperimentParams, ProtocolKind};
use mlf_scenario::checkpoint::{
    decode_point, encode_point, load_checkpoint, shard_content_hash, CheckpointError,
    CheckpointMeta, CheckpointWriter, LoadedCheckpoint, ShardRecord, POINT_BYTES,
};
use mlf_scenario::{
    CoordinatorConfig, CoordinatorError, CoordinatorReport, ProtocolScenario, ProtocolSweepGrid,
    ProtocolSweepPoint, ProtocolSweepReport, Scenario, ScenarioMetrics, SweepPoint,
};
use mlf_sim::RunningStats;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

fn tmp(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mlf-record-codec-{}-{tag}-{n}.ckpt",
        std::process::id()
    ))
}

const META: CheckpointMeta = CheckpointMeta {
    sweep: 0x5eed,
    shards: 4,
    shard_size: 2,
};

fn shard(i: u64) -> ShardRecord {
    let points: Vec<SweepPoint> = (0..2)
        .map(|k| SweepPoint {
            seed: 2 * i + k,
            model: None,
            metrics: ScenarioMetrics {
                jain_index: 0.25 * i as f64,
                min_rate: 1.0 + k as f64,
                total_rate: 3.0,
                satisfaction: 0.5,
                iterations: 4,
            },
            properties_holding: Some(4),
        })
        .collect();
    ShardRecord {
        shard: i,
        start: 2 * i,
        hash: shard_content_hash(i, 2 * i, &points),
        points,
    }
}

/// A complete checkpoint of `n` shards, and the byte offset where each
/// record starts (the header first).
fn checkpoint_bytes(n: u64) -> (Vec<u8>, Vec<usize>) {
    let path = tmp("build");
    let mut starts = Vec::new();
    {
        let mut w = CheckpointWriter::create(&path, &META).expect("create");
        starts.push(0);
        for i in 0..n {
            starts.push(std::fs::metadata(&path).expect("stat").len() as usize);
            w.append_shard(&shard(i)).expect("append");
        }
    }
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    (bytes, starts)
}

fn load_bytes(bytes: &[u8]) -> Result<LoadedCheckpoint, CheckpointError> {
    let path = tmp("load");
    std::fs::write(&path, bytes).expect("write");
    let out = load_checkpoint(&path, &META);
    std::fs::remove_file(&path).ok();
    out
}

/// What every successful load must satisfy, whatever the input was:
/// in-range shards whose content hashes verify, inside the file.
fn assert_trustworthy(loaded: &LoadedCheckpoint, len: usize) {
    assert!(loaded.valid_len as usize <= len);
    for s in &loaded.shards {
        assert!(s.shard < META.shards);
        assert_eq!(s.hash, shard_content_hash(s.shard, s.start, &s.points));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bytes, bare or behind a valid prefix, never panic the loader
    /// and never produce an unverified shard.
    #[test]
    fn fuzz_random_bytes_are_rejected_or_verified(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        keep in 0usize..3,
    ) {
        let (bytes, starts) = checkpoint_bytes(2);
        let mut input = bytes[..starts[keep]].to_vec();
        input.extend_from_slice(&noise);
        if let Ok(loaded) = load_bytes(&input) {
            assert_trustworthy(&loaded, input.len());
        }
    }

    /// A file cut anywhere loads exactly the records that end before the
    /// cut; only a cut inside a record is a dropped tail.
    #[test]
    fn fuzz_truncated_files_recover_their_complete_prefix(cut in any::<usize>()) {
        let (bytes, starts) = checkpoint_bytes(3);
        let cut = 1 + cut % bytes.len();
        let loaded = load_bytes(&bytes[..cut]).expect("a prefix always loads");
        assert_trustworthy(&loaded, cut);
        let complete = starts[1..]
            .iter()
            .chain([&bytes.len()])
            .filter(|&&end| end <= cut)
            .count();
        prop_assert_eq!(loaded.has_header, complete >= 1);
        prop_assert_eq!(loaded.shards.len(), complete.saturating_sub(1));
        let on_boundary = starts.contains(&cut) || cut == bytes.len();
        prop_assert_eq!(loaded.dropped_tail, !on_boundary);
    }

    /// One flipped bit anywhere in a complete file is an error: the
    /// damaged record is never merged and never taken for a torn tail.
    #[test]
    fn fuzz_bit_flips_are_errors(at in any::<usize>(), bit in 0u8..8) {
        let (mut bytes, _) = checkpoint_bytes(3);
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        prop_assert!(load_bytes(&bytes).is_err());
    }
}

/// A point from raw field bits: any seed, any model tag with any
/// parameter bits, any float bit patterns, with or without a property
/// count.
fn point_from(
    seed: u64,
    (tag, param): (u8, u64),
    floats: [u64; 4],
    iterations: u64,
    properties: Option<u64>,
) -> SweepPoint {
    let param = f64::from_bits(param);
    let model = match tag % 5 {
        0 => None,
        1 => Some(LinkRateModel::Efficient),
        2 => Some(LinkRateModel::Scaled(param)),
        3 => Some(LinkRateModel::Sum),
        _ => Some(LinkRateModel::RandomJoin { sigma: param }),
    };
    SweepPoint {
        seed,
        model,
        metrics: ScenarioMetrics {
            jain_index: f64::from_bits(floats[0]),
            min_rate: f64::from_bits(floats[1]),
            total_rate: f64::from_bits(floats[2]),
            satisfaction: f64::from_bits(floats[3]),
            iterations: iterations as usize,
        },
        properties_holding: properties.map(|n| n as usize),
    }
}

/// `decode_point`'s contract on one input: a typed error, or a point
/// whose canonical encoding is the input itself.
fn assert_decodes_canonically(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(p) = decode_point(bytes) {
        prop_assert_eq!(encode_point(&p).to_vec(), bytes.to_vec());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random 66-byte images: rejected, or decoded exactly.
    #[test]
    fn fuzz_decode_point_random_images(bytes in proptest::collection::vec(any::<u8>(), POINT_BYTES)) {
        assert_decodes_canonically(&bytes)?;
    }

    /// Every encoded point round-trips, and every cut or extension of its
    /// image is a length error.
    #[test]
    fn fuzz_decode_point_truncated_images(
        seed in any::<u64>(),
        model in (any::<u8>(), any::<u64>()),
        floats in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        iterations in any::<u64>(),
        properties in (any::<bool>(), any::<u64>()),
        cut in 0usize..(2 * POINT_BYTES),
    ) {
        let (a, b, c, d) = floats;
        let p = point_from(seed, model, [a, b, c, d], iterations, properties.0.then_some(properties.1));
        let mut bytes = encode_point(&p).to_vec();
        assert_decodes_canonically(&bytes)?;
        prop_assert!(decode_point(&bytes).is_ok());
        bytes.resize(cut, 0);
        prop_assert_eq!(decode_point(&bytes).is_ok(), cut == POINT_BYTES);
        assert_decodes_canonically(&bytes)?;
    }

    /// One flipped bit in a valid image: rejected, or decoded exactly.
    #[test]
    fn fuzz_decode_point_bit_flips(
        seed in any::<u64>(),
        model in (any::<u8>(), any::<u64>()),
        floats in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        properties in (any::<bool>(), any::<u64>()),
        at in 0usize..POINT_BYTES,
        bit in 0u8..8,
    ) {
        let (a, b, c, d) = floats;
        let p = point_from(seed, model, [a, b, c, d], 7, properties.0.then_some(properties.1));
        let mut bytes = encode_point(&p);
        bytes[at] ^= 1 << bit;
        assert_decodes_canonically(&bytes)?;
    }
}

#[test]
fn flipped_length_byte_in_an_interior_record_is_corrupt() {
    let (bytes, starts) = checkpoint_bytes(3);
    for (k, &start) in starts[..3].iter().enumerate() {
        for byte in 7..11 {
            let mut flipped = bytes.clone();
            flipped[start + byte] ^= 0x01;
            match load_bytes(&flipped) {
                Err(CheckpointError::Corrupt { record, .. }) => assert_eq!(record, k + 1),
                other => panic!("length byte {byte} of record {}: {other:?}", k + 1),
            }
        }
    }
}

#[test]
fn every_cut_inside_the_last_record_recovers_to_the_previous_one() {
    let (bytes, starts) = checkpoint_bytes(3);
    let last = starts[3];
    for cut in last + 1..bytes.len() {
        let loaded = load_bytes(&bytes[..cut]).expect("torn tail recovers");
        assert!(loaded.dropped_tail, "cut at {cut}");
        assert!(loaded.has_header);
        assert_eq!(loaded.valid_len as usize, last, "cut at {cut}");
        assert_eq!(loaded.shards, vec![shard(0), shard(1)], "cut at {cut}");
    }
    let whole = load_bytes(&bytes).expect("complete file");
    assert!(!whole.dropped_tail);
    assert_eq!(whole.shards.len(), 3);
}

#[test]
fn v1_json_checkpoint_gets_a_typed_rejection_and_is_never_overwritten() {
    let v1 = b"{\"format\":\"mlf-sweep-checkpoint-v1\",\"sweep\":\"0x0000000000005eed\",\
               \"shards\":4,\"shard_size\":2,\"check\":\"0x0123456789abcdef\"}\n";
    let path = tmp("v1");
    std::fs::write(&path, v1).expect("write");
    assert!(matches!(
        load_checkpoint(&path, &META),
        Err(CheckpointError::LegacyFormat { .. })
    ));
    // A coordinated sweep pointed at it refuses too, and leaves it alone.
    let scenario = Scenario::builder()
        .random_networks(10, 3, 3)
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario");
    let cfg = CoordinatorConfig {
        checkpoint: Some(path.clone()),
        ..CoordinatorConfig::default()
    };
    assert!(matches!(
        scenario.coordinate(0..4, &cfg),
        Err(CoordinatorError::Checkpoint(
            CheckpointError::LegacyFormat { .. }
        ))
    ));
    assert_eq!(std::fs::read(&path).expect("still there"), v1);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// The Figure-8 point codec
// ---------------------------------------------------------------------------

/// Bytes of one encoded protocol point.
const PROTOCOL_POINT_BYTES: usize = 282;

fn protocol_scenario() -> ProtocolScenario {
    ProtocolScenario::builder()
        .label("record-codec/figure8")
        .template(ExperimentParams {
            receivers: 4,
            packets: 1_000,
            trials: 1,
            ..ExperimentParams::quick(0.0001, 0.0).expect("valid losses")
        })
        .build()
        .expect("valid protocol scenario")
}

fn protocol_grid() -> ProtocolSweepGrid {
    ProtocolSweepGrid::independent_losses([0.0, 0.05]).with_latencies([(0, 0), (3, 9)])
}

/// A real protocol point, the template the property tests perturb.
fn real_protocol_point() -> ProtocolSweepPoint {
    protocol_scenario().run_point(ProtocolKind::Coordinated, 0.05, 9)
}

/// `ProtocolSweepPoint::decode`'s contract on one input: a typed error,
/// or a point whose canonical encoding is the input itself.
fn assert_protocol_decodes_canonically(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(p) = ProtocolSweepPoint::decode(bytes) {
        prop_assert_eq!(p.encode(), bytes.to_vec());
    }
    Ok(())
}

/// A complete checkpoint of a two-worker thread sweep of the protocol
/// grid (six two-point shards), and its serial records.
fn protocol_checkpoint() -> &'static (Vec<u8>, Vec<Vec<u8>>) {
    static BUILT: OnceLock<(Vec<u8>, Vec<Vec<u8>>)> = OnceLock::new();
    BUILT.get_or_init(|| {
        let path = tmp("figure8-build");
        let cfg = protocol_cfg(&path);
        let s = protocol_scenario();
        s.coordinate(&protocol_grid(), &cfg)
            .expect("checkpointed sweep");
        let bytes = std::fs::read(&path).expect("checkpoint written");
        std::fs::remove_file(&path).ok();
        let serial = s.sweep(&protocol_grid());
        (bytes, serial.points.iter().map(|p| p.encode()).collect())
    })
}

fn protocol_cfg(path: &std::path::Path) -> CoordinatorConfig {
    CoordinatorConfig {
        checkpoint: Some(path.to_path_buf()),
        shard_size: 2,
        ..CoordinatorConfig::threads(2)
    }
}

/// Resume the protocol sweep from `bytes` on disk.
fn resume_protocol_from(
    bytes: &[u8],
) -> Result<CoordinatorReport<ProtocolSweepReport>, CoordinatorError> {
    let path = tmp("figure8-resume");
    std::fs::write(&path, bytes).expect("write");
    let out = protocol_scenario().coordinate(&protocol_grid(), &protocol_cfg(&path));
    std::fs::remove_file(&path).ok();
    out
}

/// Exotic `f64` bit patterns: NaN payloads, −0.0, subnormals, ±∞.
fn exotic_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::from_bits(0x7ff8_0000_dead_beef)),
        Just(f64::from_bits(0xfff0_0000_0000_0001)),
        Just(-0.0),
        Just(f64::from_bits(1)),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn exotic_stats() -> impl Strategy<Value = RunningStats> {
    (
        any::<u64>(),
        exotic_f64(),
        exotic_f64(),
        exotic_f64(),
        exotic_f64(),
    )
        .prop_map(|(n, mean, m2, min, max)| RunningStats::from_raw_parts(n, mean, m2, min, max))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary images, of the record's width or not: rejected, or
    /// decoded to a point that re-encodes to exactly that image.
    #[test]
    fn fuzz_protocol_point_random_images(
        bytes in proptest::collection::vec(any::<u8>(), 0..(PROTOCOL_POINT_BYTES + 8)),
        width in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if width {
            bytes.resize(PROTOCOL_POINT_BYTES, 0);
            // Valid kind bytes, so the image gets past the tags.
            bytes[0] %= 3;
            bytes[41] %= 3;
        }
        assert_protocol_decodes_canonically(&bytes)?;
    }

    /// Points with exotic `f64` bits everywhere round-trip bit for bit,
    /// and every strict prefix or one-bit flip of their image is rejected
    /// or decodes canonically.
    #[test]
    fn fuzz_protocol_point_exotic_bits_round_trip(
        losses in (exotic_f64(), exotic_f64()),
        fields in (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..3, 0u8..3),
        stats in proptest::collection::vec(exotic_stats(), 6),
        cut in 0usize..PROTOCOL_POINT_BYTES,
        (at, bit) in (0usize..PROTOCOL_POINT_BYTES, 0u8..8),
    ) {
        let mut p = real_protocol_point();
        (p.shared_loss, p.independent_loss) = losses;
        (p.seed, p.join_latency, p.leave_latency) = (fields.0, fields.1, fields.2);
        p.kind = ProtocolKind::ALL[usize::from(fields.3)];
        p.outcome.kind = ProtocolKind::ALL[usize::from(fields.4)];
        let o = &mut p.outcome;
        for (slot, s) in [
            &mut o.redundancy,
            &mut o.mean_level,
            &mut o.goodput,
            &mut o.observed_loss,
            &mut o.receiver_goodput,
            &mut o.receiver_mean_level,
        ]
        .into_iter()
        .zip(stats)
        {
            *slot = s;
        }
        let bytes = p.encode();
        prop_assert_eq!(bytes.len(), PROTOCOL_POINT_BYTES);
        let back = ProtocolSweepPoint::decode(&bytes).expect("an encoding decodes");
        prop_assert_eq!(back.encode(), bytes.clone());
        prop_assert!(ProtocolSweepPoint::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes;
        flipped[at] ^= 1 << bit;
        assert_protocol_decodes_canonically(&flipped)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A protocol checkpoint cut anywhere resumes to the serial records:
    /// a torn final record is dropped and recomputed, every complete
    /// record is restored.
    #[test]
    fn fuzz_truncated_protocol_checkpoints_resume_to_identical_records(cut in any::<usize>()) {
        let (bytes, want) = protocol_checkpoint();
        let cut = 1 + cut % bytes.len();
        let out = resume_protocol_from(&bytes[..cut]).expect("a prefix resumes");
        let got: Vec<Vec<u8>> = out.report.points.iter().map(|p| p.encode()).collect();
        prop_assert_eq!(&got, want);
        prop_assert!(out.stats.shards_from_checkpoint <= 6);
        if cut == bytes.len() {
            prop_assert_eq!(out.stats.shards_from_checkpoint, 6);
        }
    }

    /// One flipped bit anywhere in a complete protocol checkpoint is
    /// refused as corrupt before any shard is merged.
    #[test]
    fn fuzz_bit_flipped_protocol_checkpoints_are_corrupt(at in any::<usize>(), bit in 0u8..8) {
        let (bytes, _) = protocol_checkpoint();
        let mut flipped = bytes.clone();
        let at = at % flipped.len();
        flipped[at] ^= 1 << bit;
        let refused = matches!(
            resume_protocol_from(&flipped),
            Err(CoordinatorError::Checkpoint(CheckpointError::Corrupt { .. }))
        );
        prop_assert!(refused);
    }
}

/// A Figure-5 checkpoint offered to a Figure-8 sweep is refused.
#[test]
fn a_point_checkpoint_never_resumes_a_protocol_sweep() {
    let (bytes, _) = checkpoint_bytes(2);
    assert!(matches!(
        resume_protocol_from(&bytes),
        Err(CoordinatorError::Checkpoint(
            CheckpointError::HeaderMismatch { .. }
        ))
    ));
}
