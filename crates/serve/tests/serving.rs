//! Integration tests of the serving engine: bitwise batch-invariance,
//! caching, hot reload, and the heap-vs-sort top-K property.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use isrec_core::{snapshot, CheckpointManager, FaultPlan, Isrec, IsrecConfig};
use ist_data::{IntentWorld, SequentialDataset, WorldConfig};
use ist_nn::Module as _;
use ist_serve::{
    merge_top_k, top_k, top_k_range, ModelSource, ModelSpec, Recommendation, ScoreEngine,
    ServeConfig,
};
use proptest::prelude::*;

fn tiny_dataset() -> SequentialDataset {
    IntentWorld::new(WorldConfig::beauty_like().scaled(0.1)).generate(5)
}

fn tiny_config() -> IsrecConfig {
    IsrecConfig {
        d: 16,
        d_prime: 4,
        lambda: 4,
        max_len: 8,
        layers: 1,
        heads: 2,
        gcn_layers: 1,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ist-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a model, snapshots it to `dir`, and returns a spec serving it.
fn snapshot_spec(dir: &Path, seed: u64) -> ModelSpec {
    let ds = tiny_dataset();
    let model = Isrec::new(&ds, tiny_config(), seed);
    let path = dir.join("model.bin");
    std::fs::write(&path, snapshot::save(&model.params()).unwrap()).unwrap();
    ModelSpec {
        dataset: ds,
        config: tiny_config(),
        seed,
        source: ModelSource::Snapshot(path),
    }
}

fn histories(ds: &SequentialDataset, n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| {
            let seq = &ds.sequences[i % ds.sequences.len()];
            seq[..seq.len().min(6)].to_vec()
        })
        .collect()
}

#[test]
fn batched_scores_are_bitwise_identical_to_unbatched() {
    let dir = tmpdir("batch-invariance");
    let serial = ScoreEngine::start(
        snapshot_spec(&dir, 7),
        ServeConfig {
            max_batch: 1,
            batch_timeout: std::time::Duration::ZERO,
            cache_entries: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let batched = ScoreEngine::start(
        snapshot_spec(&dir, 7),
        ServeConfig {
            max_batch: 32,
            batch_timeout: std::time::Duration::from_millis(100),
            cache_entries: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let ds = tiny_dataset();
    let hists = histories(&ds, 8);
    let want: Vec<Vec<Recommendation>> = hists
        .iter()
        .map(|h| serial.recommend(h, 10).unwrap().items)
        .collect();

    // Release every client at once so the micro-batcher actually coalesces.
    let barrier = Barrier::new(hists.len());
    let got: Vec<Vec<Recommendation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = hists
            .iter()
            .map(|h| {
                scope.spawn(|| {
                    barrier.wait();
                    let resp = batched.recommend(h, 10).unwrap();
                    assert!(!resp.degraded, "healthy engine must not degrade");
                    resp.items
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (want_row, got_row)) in want.iter().zip(&got).enumerate() {
        assert_eq!(want_row.len(), got_row.len());
        for (w, g) in want_row.iter().zip(got_row) {
            assert_eq!(w.item, g.item, "request {i}: item order differs");
            assert_eq!(
                w.score.to_bits(),
                g.score.to_bits(),
                "request {i}: scores are not bitwise identical"
            );
        }
    }
    let stats = batched.stats();
    assert!(
        stats.max_batch > 1,
        "micro-batcher never coalesced: {stats:?}"
    );
    assert_eq!(stats.requests, hists.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve CI gate's CRC identity across batch caps, in-process: every
/// `max_batch` must produce bitwise-identical rankings under the pool's
/// column-block fan-out. The block count follows the pool size, which is
/// fixed per process; the cross-block sweep lives in `ist_serve::shard`'s
/// unit tests and in the CI serve stage's `IST_THREADS=1/2/3/4` runs.
#[test]
fn shard_count_does_not_change_scores() {
    let dir = tmpdir("shard-invariance");
    let ds = tiny_dataset();
    let hists = histories(&ds, 8);

    let mut fingerprints: Vec<(usize, Vec<Vec<Recommendation>>)> = Vec::new();
    for max_batch in [1usize, 32] {
        let engine = ScoreEngine::start(
            snapshot_spec(&dir, 7),
            ServeConfig {
                max_batch,
                batch_timeout: std::time::Duration::ZERO,
                cache_entries: 0,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let got: Vec<Vec<Recommendation>> = hists
            .iter()
            .map(|h| engine.recommend(h, 10).unwrap().items)
            .collect();
        fingerprints.push((max_batch, got));
    }

    let (_, want) = &fingerprints[0];
    for (max_batch, got) in &fingerprints[1..] {
        for (i, (want_row, got_row)) in want.iter().zip(got).enumerate() {
            assert_eq!(want_row.len(), got_row.len());
            for (w, g) in want_row.iter().zip(got_row) {
                assert_eq!(
                    w.item, g.item,
                    "batch={max_batch} request {i}: item order differs"
                );
                assert_eq!(
                    w.score.to_bits(),
                    g.score.to_bits(),
                    "batch={max_batch} request {i}: scores differ"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hits_return_identical_scores() {
    let dir = tmpdir("cache-hits");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), ServeConfig::default()).unwrap();
    let ds = tiny_dataset();
    let hist = &ds.sequences[0][..4];
    let cold = engine.recommend(hist, 5).unwrap();
    let warm = engine.recommend(hist, 5).unwrap();
    assert_eq!(cold, warm, "cached answer must be bitwise identical");
    let stats = engine.stats();
    assert!(
        stats.cache_hits >= 1,
        "second request should hit: {stats:?}"
    );
    assert!(stats.hit_rate() > 0.0);
    // Only the last max_len items are the cache key: a longer history with
    // the same effective suffix hits too.
    let long: Vec<usize> = ds.sequences[1]
        .iter()
        .take(5)
        .chain(hist.iter())
        .copied()
        .collect();
    assert!(long.len() > 8, "test needs an over-length history");
    let hits_before = engine.stats().cache_hits;
    let via_suffix = engine.recommend(&long[long.len() - 8..], 5).unwrap();
    let via_long = engine.recommend(&long, 5).unwrap();
    assert_eq!(via_suffix, via_long);
    assert!(engine.stats().cache_hits > hits_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_history_is_rejected() {
    let dir = tmpdir("empty-history");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), ServeConfig::default()).unwrap();
    assert!(engine.recommend(&[], 5).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn k_larger_than_catalog_returns_the_whole_catalog() {
    let dir = tmpdir("k-overflow");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), ServeConfig::default()).unwrap();
    let ds = tiny_dataset();
    let got = engine.recommend(&ds.sequences[0][..3], usize::MAX).unwrap();
    assert_eq!(got.items.len(), ds.num_items);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_fails_cleanly_on_missing_or_invalid_sources() {
    let dir = tmpdir("bad-sources");
    let mut spec = snapshot_spec(&dir, 7);
    spec.source = ModelSource::Snapshot(dir.join("does-not-exist.bin"));
    assert!(ScoreEngine::start(spec, ServeConfig::default()).is_err());

    let mut spec = snapshot_spec(&dir, 7);
    let empty = dir.join("no-checkpoints");
    spec.source = ModelSource::CheckpointDir(empty);
    assert!(ScoreEngine::start(spec, ServeConfig::default()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_skips_corrupt_newer_and_applies_valid_newer() {
    let dir = tmpdir("hot-reload");
    let ckpt_dir = dir.join("ckpts");
    let ds = tiny_dataset();
    let model = Isrec::new(&ds, tiny_config(), 7);
    let mut mgr = CheckpointManager::new(&ckpt_dir, 10).unwrap();
    mgr.save(
        0,
        snapshot::save(&model.params()).unwrap().as_ref(),
        &mut FaultPlan::default(),
    )
    .unwrap();

    let engine = ScoreEngine::start(
        ModelSpec {
            dataset: ds.clone(),
            config: tiny_config(),
            seed: 7,
            source: ModelSource::CheckpointDir(ckpt_dir.clone()),
        },
        ServeConfig::default(),
    )
    .unwrap();
    assert_eq!(engine.stats().epoch, Some(0));
    let hist = &ds.sequences[0][..4];
    let baseline = engine.recommend(hist, 10).unwrap();

    // A torn/corrupt *newer* checkpoint must be skipped: the engine keeps
    // serving the old weights, bit for bit.
    std::fs::write(ckpt_dir.join("ckpt-00000001.ist"), b"torn garbage").unwrap();
    assert_eq!(engine.reload().unwrap(), None);
    assert_eq!(engine.stats().epoch, Some(0));
    assert_eq!(engine.recommend(hist, 10).unwrap(), baseline);

    // Nothing newer at all → also a no-op.
    assert_eq!(engine.reload().unwrap(), None);

    // A valid strictly newer checkpoint (different weights) swaps in.
    let newer = Isrec::new(&ds, tiny_config(), 99);
    mgr.save(
        2,
        snapshot::save(&newer.params()).unwrap().as_ref(),
        &mut FaultPlan::default(),
    )
    .unwrap();
    assert_eq!(engine.reload().unwrap(), Some(2));
    assert_eq!(engine.stats().epoch, Some(2));
    assert!(engine.stats().reloads >= 1);
    let after = engine.recommend(hist, 10).unwrap();
    assert_ne!(after, baseline, "different weights must change the ranking");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn heap_top_k_equals_full_sort(
        scores in prop::collection::vec(-1000.0f32..1000.0, 0..200),
        k in 0usize..250,
    ) {
        // Duplicate some scores so tie-breaking is actually exercised.
        let mut scores = scores;
        let n = scores.len();
        if n >= 4 {
            scores[n - 1] = scores[0];
            scores[n / 2] = scores[0];
        }
        let got = top_k(&scores, k).unwrap();
        let mut all: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        prop_assert_eq!(got.len(), all.len());
        for (g, (item, score)) in got.iter().zip(&all) {
            prop_assert_eq!(g.item, *item);
            prop_assert_eq!(g.score.to_bits(), score.to_bits());
        }
    }

    #[test]
    fn sharded_top_k_equals_unsharded(
        scores in prop::collection::vec(-100.0f32..100.0, 1..300),
        k in 0usize..400, // regularly exceeds the catalog
        which in 0usize..4,
    ) {
        // Duplicate scores so the cross-shard tie-break is exercised.
        let mut scores = scores;
        let n = scores.len();
        if n >= 4 {
            scores[n - 1] = scores[0];
            scores[n / 2] = scores[0];
        }
        // Block counts: trivial, small, the pool default, and more blocks
        // than items (clamped to one item per block).
        let blocks = [1, 3, ist_tensor::pool::global().threads(), n + 1][which].min(n);
        let unsharded = top_k(&scores, k).unwrap();
        let lists: Vec<Vec<Recommendation>> = (0..blocks)
            .map(|b| {
                let (b0, b1) = (b * n / blocks, (b + 1) * n / blocks);
                top_k_range(&scores[b0..b1], b0, k).unwrap()
            })
            .collect();
        let merged = merge_top_k(&lists, k);
        prop_assert_eq!(merged.len(), unsharded.len());
        for (m, u) in merged.iter().zip(&unsharded) {
            prop_assert_eq!(m.item, u.item);
            prop_assert_eq!(m.score.to_bits(), u.score.to_bits());
        }
    }

    #[test]
    fn a_nan_anywhere_rejects_the_whole_vector(
        scores in prop::collection::vec(-10.0f32..10.0, 1..50),
        at in 0usize..50,
        k in 1usize..10,
    ) {
        let mut scores = scores;
        let at = at % scores.len();
        scores[at] = f32::NAN;
        prop_assert!(top_k(&scores, k).is_err());
    }
}
