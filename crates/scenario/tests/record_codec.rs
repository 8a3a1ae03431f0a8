//! Adversarial bytes against the checkpoint loader, which reads disk
//! through the crate's one record codec. Random, truncated and bit-flipped
//! files must never panic it and never yield a shard whose content hash
//! fails; a torn final record recovers to the record before it, damage in
//! any complete record is `Corrupt`, and a v1 JSON file gets a typed
//! rejection and is left untouched. (The codec's own reader is fuzzed by
//! the `record` unit tests.) The 66-byte point decoder is fuzzed on its
//! own too: it must answer any image with a typed error or a point that
//! re-encodes to exactly that image.

use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_scenario::checkpoint::{
    decode_point, encode_point, load_checkpoint, shard_content_hash, CheckpointError,
    CheckpointMeta, CheckpointWriter, LoadedCheckpoint, ShardRecord, POINT_BYTES,
};
use mlf_scenario::{CoordinatorConfig, CoordinatorError, Scenario, ScenarioMetrics, SweepPoint};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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
