//! Checkpoint durability: the on-disk format round-trips every `f64` bit
//! pattern exactly, torn tails are recovered while damaged complete
//! records are hard errors (a bad shard is never merged), and a sweep
//! killed at *every* shard boundary resumes to bytes identical to the
//! serial sweep.

use mlf_core::allocator::{MultiRate, Weighted};
use mlf_core::{LinkRateModel, Weights};
use mlf_scenario::checkpoint::{
    decode_point, encode_point, load_checkpoint, shard_content_hash, CheckpointError,
    CheckpointMeta, CheckpointWriter, LoadedCheckpoint, ShardRecord, POINT_BYTES,
};
use mlf_scenario::transport::MAGIC;
use mlf_scenario::{CoordinatorConfig, CoordinatorError, Scenario, ScenarioMetrics, SweepPoint};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const SEEDS: std::ops::Range<u64> = 0..20;

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// A fresh path under the system temp dir, unique per test process and
/// call (tests run concurrently in one binary).
fn tmp(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mlf-coordinator-ckpt-{}-{tag}-{n}.ckpt",
        std::process::id()
    ))
}

fn scenario() -> Scenario {
    Scenario::builder()
        .label("coordinator-checkpoint")
        .random_networks(14, 4, 4)
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario spec")
}

fn fast_cfg(path: &Path) -> CoordinatorConfig {
    CoordinatorConfig {
        workers: 2,
        shard_size: 3,
        spot_check: 1,
        shard_timeout: Duration::from_millis(100),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        checkpoint: Some(path.to_path_buf()),
        ..CoordinatorConfig::default()
    }
}

fn assert_bitwise(got: &[SweepPoint], want: &[SweepPoint]) {
    assert_eq!(got.len(), want.len(), "point count differs");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            encode_point(g),
            encode_point(w),
            "point {i} differs bitwise"
        );
    }
}

/// The type byte of every complete record in a checkpoint file, walking
/// the documented layout (`magic | version u16 | type u8 | len u32 |
/// header check u64 | payload | check u64`). Panics on a torn record.
fn record_types(bytes: &[u8]) -> Vec<u8> {
    let mut types = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        assert_eq!(bytes[off..off + 4], MAGIC, "record at {off}");
        let len = u32::from_le_bytes(bytes[off + 7..off + 11].try_into().unwrap()) as usize;
        types.push(bytes[off + 6]);
        off += 19 + len + 8;
        assert!(off <= bytes.len(), "torn record ends past the file");
    }
    types
}

// ---------------------------------------------------------------------------
// Round-trip over arbitrary bit patterns
// ---------------------------------------------------------------------------

/// `f64`s drawn directly from bit patterns, with the exotic corners that
/// break naive float serialisation drawn often.
fn any_f64_bits() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE / 2.0), // subnormal
    ]
}

fn any_model() -> impl Strategy<Value = Option<LinkRateModel>> {
    prop_oneof![
        Just(None),
        Just(Some(LinkRateModel::Efficient)),
        Just(Some(LinkRateModel::Sum)),
        any_f64_bits().prop_map(|f| Some(LinkRateModel::Scaled(f))),
        any_f64_bits().prop_map(|sigma| Some(LinkRateModel::RandomJoin { sigma })),
    ]
}

fn any_point() -> impl Strategy<Value = SweepPoint> {
    (
        any::<u64>(),
        any_model(),
        (
            any_f64_bits(),
            any_f64_bits(),
            any_f64_bits(),
            any_f64_bits(),
        ),
        any::<usize>(),
        prop_oneof![Just(None), (0usize..5).prop_map(Some)],
    )
        .prop_map(
            |(seed, model, (jain, min, total, sat), iterations, props)| SweepPoint {
                seed,
                model,
                metrics: ScenarioMetrics {
                    jain_index: jain,
                    min_rate: min,
                    total_rate: total,
                    satisfaction: sat,
                    iterations,
                },
                properties_holding: props,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → load round-trips every point bitwise, through the real
    /// file, with nothing torn.
    #[test]
    fn checkpoint_file_round_trips_any_bit_pattern(
        points in proptest::collection::vec(any_point(), 1..12),
    ) {
        let path = tmp("roundtrip");
        let meta = CheckpointMeta {
            sweep: 0x005e_ed1d,
            shards: 1,
            shard_size: points.len() as u64,
        };
        let rec = ShardRecord {
            shard: 0,
            start: 0,
            hash: shard_content_hash(0, 0, &points),
            points: points.clone(),
        };
        {
            let mut w = CheckpointWriter::create(&path, &meta).expect("create");
            w.append_shard(&rec).expect("append");
        }
        let loaded = load_checkpoint(&path, &meta).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.shards.len(), 1);
        prop_assert!(!loaded.dropped_tail);
        let got = &loaded.shards[0];
        prop_assert_eq!(got.shard, 0);
        prop_assert_eq!(got.start, 0);
        prop_assert_eq!(got.points.len(), points.len());
        for (g, w) in got.points.iter().zip(&points) {
            prop_assert_eq!(encode_point(g), encode_point(w));
        }
    }

    /// The canonical point encoding is exactly [`POINT_BYTES`] wide and
    /// `decode_point` inverts it bit for bit — NaN payloads, −0.0,
    /// infinities and subnormals included.
    #[test]
    fn point_encoding_decodes_to_identical_bits(point in any_point()) {
        let enc = encode_point(&point);
        prop_assert_eq!(enc.len(), POINT_BYTES);
        let dec = decode_point(&enc).expect("well-formed encoding decodes");
        prop_assert_eq!(encode_point(&dec), enc);
    }
}

#[test]
fn writer_resume_appends_after_the_intact_prefix() {
    // Interrupted-writer lifecycle, driven directly: create, append one
    // shard, reopen via `resume` from the loaded intact prefix, append the
    // second shard, and load the whole file back with nothing torn.
    let path = tmp("resume-writer");
    let mk_points = |seed: u64| {
        vec![SweepPoint {
            seed,
            model: None,
            metrics: ScenarioMetrics {
                jain_index: 1.0,
                min_rate: 0.5,
                total_rate: 2.0,
                satisfaction: 0.75,
                iterations: 3,
            },
            properties_holding: Some(4),
        }]
    };
    let meta = CheckpointMeta {
        sweep: 0xab1e_cafe,
        shards: 2,
        shard_size: 1,
    };
    let rec = |shard: u64| ShardRecord {
        shard,
        start: shard,
        hash: shard_content_hash(shard, shard, &mk_points(shard)),
        points: mk_points(shard),
    };
    {
        let mut w = CheckpointWriter::create(&path, &meta).expect("create");
        w.append_shard(&rec(0)).expect("append shard 0");
    }
    let bytes = std::fs::read(&path).expect("readable checkpoint");
    assert!(
        bytes.starts_with(&MAGIC),
        "the header record must carry the record magic"
    );
    let loaded: LoadedCheckpoint = load_checkpoint(&path, &meta).expect("intact prefix");
    assert!(!loaded.dropped_tail);
    assert_eq!(loaded.shards.len(), 1);
    assert_eq!(
        loaded.valid_len,
        std::fs::metadata(&path).expect("stat").len()
    );
    {
        let mut w = CheckpointWriter::resume(&path, &meta, &loaded).expect("resume");
        w.append_shard(&rec(1)).expect("append shard 1");
    }
    let full = load_checkpoint(&path, &meta).expect("full file");
    std::fs::remove_file(&path).ok();
    assert!(!full.dropped_tail);
    assert_eq!(full.shards.len(), 2);
    for (i, s) in full.shards.iter().enumerate() {
        assert_eq!(s.shard, i as u64);
        assert_eq!(
            encode_point(&s.points[0]),
            encode_point(&mk_points(i as u64)[0])
        );
    }
}

// ---------------------------------------------------------------------------
// Tail surgery
// ---------------------------------------------------------------------------

/// Run one full checkpointed sweep and return (serial points, file bytes).
fn checkpointed_run(path: &PathBuf) -> (Vec<SweepPoint>, Vec<u8>) {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let out = s
        .coordinate(SEEDS, &fast_cfg(path))
        .expect("clean checkpointed run");
    assert_bitwise(&out.report.points, &serial.points);
    let bytes = std::fs::read(path).expect("checkpoint exists");
    (serial.points, bytes)
}

#[test]
fn torn_tail_is_recovered_and_recomputed() {
    let path = tmp("torn");
    let (serial, bytes) = checkpointed_run(&path);
    // Tear the final record: an interrupted append, not corruption.
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
    let s = scenario();
    let out = s
        .coordinate(SEEDS, &fast_cfg(&path))
        .expect("torn tail resumes");
    assert_bitwise(&out.report.points, &serial);
    let shards = out.stats.shards;
    assert!(
        out.stats.shards_from_checkpoint < shards,
        "the torn shard must be recomputed, not trusted"
    );
    assert!(
        out.stats.shards_from_checkpoint > 0,
        "intact prefix is kept"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn terminated_corrupt_line_is_a_hard_error_never_merged() {
    let path = tmp("corrupt");
    let (_serial, bytes) = checkpointed_run(&path);
    // Flip one byte in a *complete* interior record: silent disk
    // corruption, not a torn append. Must refuse.
    let mut corrupt = bytes.clone();
    let target = corrupt
        .iter()
        .position(|&b| b == b'"')
        .map(|_| corrupt.len() / 2)
        .expect("nonempty checkpoint");
    corrupt[target] ^= 0x01;
    std::fs::write(&path, &corrupt).expect("rewrite");
    let s = scenario();
    let err = s
        .coordinate(SEEDS, &fast_cfg(&path))
        .expect_err("corrupt record must not be merged");
    match err {
        CoordinatorError::Checkpoint(
            CheckpointError::Corrupt { .. } | CheckpointError::HeaderMismatch { .. },
        ) => {}
        other => panic!("expected a checkpoint corruption error, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_is_bound_to_its_sweep() {
    let path = tmp("binding");
    let (_serial, _bytes) = checkpointed_run(&path);
    // The same file offered to a different sweep (two more seeds) must be
    // rejected up front, not half-merged.
    let s = scenario();
    let err = s
        .coordinate(0..26, &fast_cfg(&path))
        .expect_err("foreign checkpoint must be rejected");
    match err {
        CoordinatorError::Checkpoint(CheckpointError::HeaderMismatch { .. }) => {}
        other => panic!("expected HeaderMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Kill/resume
// ---------------------------------------------------------------------------

#[test]
fn killed_at_every_shard_boundary_resumes_to_identical_bytes() {
    let path = tmp("kill-every");
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    // Accept exactly one new shard per run, then die — the worst-case
    // kill schedule: a kill at every shard boundary.
    let mut kills = 0u32;
    let out = loop {
        let cfg = CoordinatorConfig {
            max_new_shards: Some(1),
            ..fast_cfg(&path)
        };
        match s.coordinate(SEEDS, &cfg) {
            Ok(out) => break out,
            Err(CoordinatorError::Interrupted { .. }) => {
                kills += 1;
                assert!(kills < 100, "resume loop failed to converge");
            }
            Err(other) => panic!("unexpected failure mid-resume: {other:?}"),
        }
    };
    assert!(kills >= 5, "the cap must actually interrupt runs");
    assert_bitwise(&out.report.points, &serial.points);
    assert!(
        out.stats.shards_from_checkpoint > 0,
        "the final run must resume from disk, not recompute"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn accepted_shard_is_on_disk_before_the_coordinator_can_die() {
    // Regression for the accept-vs-merge durability window: a coordinator
    // killed after accepting a shard but before merging the sweep must
    // find that shard on disk at the next resume. `max_new_shards: 1`
    // models the kill at the worst instant, right after the accept; the
    // writer's flush+fsync on append (and on drop) is what makes the
    // record survive.
    let path = tmp("durable-accept");
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let cfg = CoordinatorConfig {
        max_new_shards: Some(1),
        ..fast_cfg(&path)
    };
    let err = s
        .coordinate(SEEDS, &cfg)
        .expect_err("the one-shard cap interrupts the first run");
    assert!(
        matches!(err, CoordinatorError::Interrupted { .. }),
        "expected Interrupted, got {err:?}"
    );
    let bytes = std::fs::read(&path).expect("checkpoint survives the interrupt");
    assert_eq!(
        record_types(&bytes),
        [16, 17],
        "header plus exactly the one accepted shard record, both complete \
         — a torn record would be recomputed, i.e. lost"
    );
    let out = s
        .coordinate(SEEDS, &fast_cfg(&path))
        .expect("resume completes the sweep");
    assert!(
        out.stats.shards_from_checkpoint >= 1,
        "the accepted shard is trusted from disk, not recomputed"
    );
    assert_bitwise(&out.report.points, &serial.points);
    std::fs::remove_file(&path).ok();
}

#[test]
fn fully_checkpointed_sweep_resumes_without_computing_anything() {
    let path = tmp("warm");
    let (serial, _bytes) = checkpointed_run(&path);
    let s = scenario();
    // workers: 0 would autodetect; keep the fleet tiny — it should never
    // even be asked to solve.
    let out = s
        .coordinate(SEEDS, &fast_cfg(&path))
        .expect("warm resume succeeds");
    assert_bitwise(&out.report.points, &serial);
    assert_eq!(out.stats.shards_from_checkpoint, out.stats.shards);
    std::fs::remove_file(&path).ok();
}

/// Two fixed networks that differ only in one link capacity, under the
/// same default label, allocator and session count: a checkpoint of one
/// must never resume as the other.
#[test]
fn checkpoint_is_bound_to_its_fixed_network_content() {
    let scenario = |net: mlf_net::Network| {
        Scenario::builder()
            .network(net)
            .allocator(MultiRate::new())
            .build()
            .expect("valid fixed scenario")
    };
    let fixed = |capacity: f64| {
        let mut g = mlf_net::Graph::new();
        let (src, hub) = (g.add_node(), g.add_node());
        let (a, b) = (g.add_node(), g.add_node());
        g.add_link(src, hub, 10.0).unwrap();
        g.add_link(hub, a, capacity).unwrap();
        g.add_link(hub, b, 6.0).unwrap();
        let sessions = vec![
            mlf_net::Session::multi_rate(src, vec![a, b]),
            mlf_net::Session::unicast(src, b),
        ];
        scenario(mlf_net::Network::new(g, sessions).unwrap())
    };
    // One graph and one session on a triangle; receiver `a` is routed
    // either over the direct link or the long way round through `b`.
    let routed = |long_way: bool| {
        let mut g = mlf_net::Graph::new();
        let (src, a, b) = (g.add_node(), g.add_node(), g.add_node());
        let direct = g.add_link(src, a, 4.0).unwrap();
        let to_b = g.add_link(src, b, 5.0).unwrap();
        let b_to_a = g.add_link(b, a, 3.0).unwrap();
        let to_a = if long_way {
            vec![to_b, b_to_a]
        } else {
            vec![direct]
        };
        let sessions = vec![mlf_net::Session::multi_rate(src, vec![a, b])];
        let routes = vec![vec![to_a, vec![to_b]]];
        scenario(mlf_net::Network::with_routes(g, sessions, routes).unwrap())
    };
    assert_ne!(
        routed(false).sweep(0..1),
        routed(true).sweep(0..1),
        "the two routings must solve differently"
    );
    for (label, a, b) in [
        ("capacity", fixed(2.0), fixed(3.0)),
        ("route", routed(false), routed(true)),
    ] {
        let path = tmp(&format!("fixed-network-{label}"));
        let cfg = CoordinatorConfig {
            shard_size: 1,
            ..fast_cfg(&path)
        };
        let interrupted = a.coordinate(
            0..6,
            &CoordinatorConfig {
                max_new_shards: Some(2),
                ..cfg.clone()
            },
        );
        assert!(matches!(
            interrupted,
            Err(CoordinatorError::Interrupted { accepted: 2 })
        ));
        match b.coordinate(0..6, &cfg) {
            Err(CoordinatorError::Checkpoint(CheckpointError::HeaderMismatch {
                field, ..
            })) => {
                assert_eq!(field, "sweep", "{label}");
            }
            other => panic!("{label}: network B resumed network A's checkpoint: {other:?}"),
        }
        // The same network resumes its own checkpoint.
        let resumed = a.coordinate(0..6, &cfg).expect("resumes");
        assert_eq!(resumed.stats.shards_from_checkpoint, 2, "{label}");
        std::fs::remove_file(&path).ok();
    }
}

/// Explicit per-receiver weights are part of the sweep's identity: a
/// checkpoint of one weighting must never resume as another on the same
/// network.
#[test]
fn resuming_with_other_explicit_weights_is_refused() {
    let weighted = |w: f64| {
        let mut g = mlf_net::Graph::new();
        let (src, hub) = (g.add_node(), g.add_node());
        let (a, b) = (g.add_node(), g.add_node());
        g.add_link(src, hub, 10.0).unwrap();
        g.add_link(hub, a, 8.0).unwrap();
        g.add_link(hub, b, 6.0).unwrap();
        let sessions = vec![
            mlf_net::Session::multi_rate(src, vec![a, b]),
            mlf_net::Session::unicast(src, b),
        ];
        let weights = Weights::from_values(vec![vec![1.0, w], vec![1.0]]);
        Scenario::builder()
            .network(mlf_net::Network::new(g, sessions).unwrap())
            .allocator(Weighted::new(weights))
            .build()
            .expect("valid weighted scenario")
    };
    let (mut w1, mut w2) = (weighted(1.0), weighted(3.0));
    assert_ne!(
        w1.sweep(0..1),
        w2.sweep(0..1),
        "the two weightings must solve differently"
    );
    let path = tmp("explicit-weights");
    let cfg = CoordinatorConfig {
        shard_size: 1,
        ..fast_cfg(&path)
    };
    let checkpointed = w1.coordinate(0..4, &cfg).expect("w1 sweep checkpoints");
    assert_eq!(checkpointed.stats.shards_from_checkpoint, 0);
    match w2.coordinate(0..4, &cfg) {
        Err(CoordinatorError::Checkpoint(CheckpointError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "sweep");
        }
        other => panic!("the w2 sweep resumed the w1 checkpoint: {other:?}"),
    }
    // The same weighting resumes its own checkpoint.
    let resumed = w1.coordinate(0..4, &cfg).expect("w1 resumes");
    assert_eq!(resumed.stats.shards_from_checkpoint, 4);
    std::fs::remove_file(&path).ok();
}
