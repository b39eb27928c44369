//! Integration tests of the compiled-scenario cache and the persistent
//! sampler worker pool: invalidation semantics, cross-call reuse, and
//! pooled batches against the independent per-index oracle.

use scenic::core::sampler::SamplerStats;
use scenic::core::Scenario;
use scenic::gta::{scenarios, MapConfig, World};
use scenic::prelude::*;
use std::sync::Arc;

/// FNV-1a (64-bit) over a batch's concatenated canonical JSON — the
/// same digest family `tests/determinism.rs` pins.
fn batch_digest(scenes: &[Scene]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for scene in scenes {
        for byte in scene.to_json().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// The per-index oracle a batch rooted at `root` must reproduce: scene
/// `i` drawn alone by a fresh sampler from `derive_scene_seed(root, i)`,
/// with that draw's statistics.
fn oracle(
    scenario: &Scenario,
    config: SamplerConfig,
    root: u64,
    index: usize,
) -> (Result<Scene, ScenicError>, SamplerStats) {
    let mut sampler = Sampler::new(scenario).with_config(config);
    let result = sampler.sample_seeded(derive_scene_seed(root, index as u64));
    (result, sampler.stats())
}

#[test]
fn cache_shares_one_compilation_per_content() {
    let cache = ScenarioCache::new();
    let world = World::generate(MapConfig::default());
    let a = cache
        .get_or_compile("gta", scenarios::SIMPLEST, world.core())
        .unwrap();
    let b = cache
        .get_or_compile("gta", scenarios::SIMPLEST, world.core())
        .unwrap();
    assert!(Arc::ptr_eq(&a, &b), "same content compiled twice");
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
}

#[test]
fn cache_recompiles_edited_source() {
    let cache = ScenarioCache::new();
    let world = World::generate(MapConfig::default());
    let original = scenarios::SIMPLEST;
    let edited = format!("{original}Car\n");
    let a = cache.get_or_compile("gta", original, world.core()).unwrap();
    let b = cache.get_or_compile("gta", &edited, world.core()).unwrap();
    assert!(!Arc::ptr_eq(&a, &b), "edited source must recompile");
    assert_ne!(source_hash(original), source_hash(&edited));
    assert_eq!((cache.misses(), cache.hits()), (2, 0));
}

#[test]
fn cached_scenario_samples_identically_to_fresh_compile() {
    let cache = ScenarioCache::new();
    let world = World::generate(MapConfig::default());
    let cached = cache
        .get_or_compile("gta", scenarios::SIMPLEST, world.core())
        .unwrap();
    let fresh = compile_with_world(scenarios::SIMPLEST, world.core()).unwrap();
    let a = Sampler::new(&cached)
        .with_seed(11)
        .sample_batch(3, 2)
        .unwrap();
    let b = Sampler::new(&fresh)
        .with_seed(11)
        .sample_batch(3, 2)
        .unwrap();
    assert_eq!(batch_digest(&a), batch_digest(&b));
}

#[test]
fn pool_reuse_matches_per_index_oracle_digest_for_digest() {
    let world = World::generate(MapConfig::default());
    let scenario = compile_with_world(scenarios::SIMPLEST, world.core()).unwrap();
    let expected = |root: u64| {
        let scenes: Vec<Scene> = (0..4)
            .map(|i| {
                oracle(&scenario, SamplerConfig::default(), root, i)
                    .0
                    .unwrap()
            })
            .collect();
        batch_digest(&scenes)
    };
    for jobs in [1, 4] {
        // Two batches back-to-back on the persistent pool: the second
        // call reuses the threads the first one needed. No test in this
        // file asks for more than 4 jobs, so nothing else grows the
        // global pool in between.
        let first = Sampler::new(&scenario)
            .with_seed(3)
            .sample_batch(4, jobs)
            .unwrap();
        let workers = WorkerPool::global().workers();
        assert!(workers >= jobs - 1, "pool did not grow for jobs={jobs}");
        let second = Sampler::new(&scenario)
            .with_seed(9)
            .sample_batch(4, jobs)
            .unwrap();
        assert_eq!(
            WorkerPool::global().workers(),
            workers,
            "second call respawned"
        );
        assert_eq!(batch_digest(&first), expected(3), "jobs={jobs}");
        assert_eq!(batch_digest(&second), expected(9), "jobs={jobs}");
        assert_ne!(batch_digest(&first), batch_digest(&second));
    }
}

#[test]
fn pool_reports_match_per_index_oracle() {
    let scenario = compile("ego = Object at 0 @ 0\nObject at 0 @ (4, 9)\n").unwrap();
    let config = SamplerConfig::default();
    let (scenes, per_scene): (Vec<Scene>, Vec<SamplerStats>) = (0..5)
        .map(|i| {
            let (scene, stats) = oracle(&scenario, config, 5, i);
            (scene.unwrap(), stats)
        })
        .unzip();
    let mut oracle_total = SamplerStats::default();
    for stats in &per_scene {
        oracle_total.merge(stats);
    }
    for jobs in [1, 4] {
        let mut sampler = Sampler::new(&scenario).with_seed(5);
        for _ in 0..2 {
            let report = sampler.sample_batch_report(5, jobs).unwrap();
            assert_eq!(
                batch_digest(&report.scenes),
                batch_digest(&scenes),
                "jobs={jobs}"
            );
            assert_eq!(report.per_scene, per_scene, "jobs={jobs}");
        }
        let mut twice = oracle_total;
        twice.merge(&oracle_total);
        assert_eq!(sampler.stats(), twice, "jobs={jobs}");
    }
}

#[test]
fn concurrent_clients_share_exactly_one_compilation() {
    // The daemon shares one ScenarioCache across all connection
    // handlers, so this is the serving layer's hot path: many clients
    // requesting the same scenario at once must end up with the very
    // same compiled Arc, after exactly one compilation entering the
    // cache. A barrier releases all threads into get_or_compile at the
    // same instant to make the race real.
    const THREADS: usize = 8;
    let cache = Arc::new(ScenarioCache::new());
    let world = Arc::new(World::generate(MapConfig::default()).core().clone());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let world = Arc::clone(&world);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut entries = Vec::new();
                for _ in 0..16 {
                    entries.push(
                        cache
                            .get_or_compile("gta", scenarios::SIMPLEST, &world)
                            .expect("compiles"),
                    );
                }
                entries
            })
        })
        .collect();
    let all: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("hammer thread"))
        .collect();
    let first = &all[0];
    for (i, entry) in all.iter().enumerate() {
        assert!(
            Arc::ptr_eq(first, entry),
            "entry {i} is a different compilation: racing compiles must \
             converge on one shared Arc"
        );
    }
    assert_eq!(
        cache.misses(),
        1,
        "racing compiles of one key must count exactly one miss \
         (= one entry ever cached)"
    );
    assert_eq!(cache.len(), 1);
    // Each call is a hit, the one counted miss, or a racing compile
    // that lost the insert (counts neither; at most one per thread,
    // since after the first insert every lookup hits).
    assert!(
        cache.hits() >= THREADS * 16 - THREADS && cache.hits() < THREADS * 16,
        "hit count {} out of range for {} calls",
        cache.hits(),
        THREADS * 16
    );
}

#[test]
fn pooled_batch_error_matches_per_index_oracle() {
    // The second object collides with the ego about half the time, and
    // a one-iteration budget turns every collision into a failed scene.
    let scenario = compile("ego = Object at 0 @ 0\nObject at 0 @ (0, 2)\n").unwrap();
    let config = SamplerConfig { max_iterations: 1 };
    const N: usize = 8;
    // First root whose lowest failing index is past 0, so the batch
    // has accepted scenes before its error.
    let (root, error, stats) = (0u64..)
        .find_map(|root| {
            let mut total = SamplerStats::default();
            for i in 0..N {
                let (result, stats) = oracle(&scenario, config, root, i);
                total.merge(&stats);
                if let Err(error) = result {
                    return (i > 0).then_some((root, error, total));
                }
            }
            None
        })
        .unwrap();
    for jobs in [1, 4] {
        let mut sampler = Sampler::new(&scenario).with_seed(root).with_config(config);
        let err = sampler.sample_batch(N, jobs).unwrap_err();
        assert_eq!(err, error, "jobs={jobs}: not the lowest-index error");
        assert_eq!(
            sampler.stats(),
            stats,
            "jobs={jobs}: cancellation statistics drifted from the oracle"
        );
    }
}

#[test]
fn concurrent_clients_share_the_disk_tier_too() {
    // Same hammer, with a store underneath: the racing threads must
    // still converge on one compile, one entry file, and a warm cache
    // over the same directory must then serve everything from disk.
    const THREADS: usize = 8;
    let dir = std::env::temp_dir().join(format!("scenic-cache-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let world = Arc::new(World::generate(MapConfig::default()).core().clone());
    let digest = {
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let cache = Arc::new(ScenarioCache::with_store(store));
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let world = Arc::clone(&world);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_compile("gta", scenarios::SIMPLEST, &world)
                        .expect("compiles")
                })
            })
            .collect();
        let all: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for entry in &all {
            assert!(Arc::ptr_eq(&all[0], entry));
        }
        assert_eq!(cache.misses(), 1, "one compile despite the store race");
        assert_eq!(cache.store().unwrap().entry_count(), 1);
        let scenes = Sampler::new(&all[0])
            .with_seed(5)
            .sample_batch(2, 2)
            .unwrap();
        batch_digest(&scenes)
    };
    // Warm process (simulated by a fresh cache + store over the same
    // directory): disk hit, zero compiles, identical scenes.
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let cache = ScenarioCache::with_store(Arc::clone(&store));
    let scenario = cache
        .get_or_compile("gta", scenarios::SIMPLEST, &world)
        .unwrap();
    assert_eq!(cache.misses(), 0, "warm lookup must not compile");
    assert_eq!(store.disk_hits(), 1);
    let scenes = Sampler::new(&scenario)
        .with_seed(5)
        .sample_batch(2, 2)
        .unwrap();
    assert_eq!(
        batch_digest(&scenes),
        digest,
        "disk tier changed the scenes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
