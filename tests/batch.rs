//! Property-based tests (proptest) of the batch-sampling seed
//! derivation and its equivalence with per-seed draws.

use proptest::prelude::*;
use scenic::prelude::*;
use std::collections::HashSet;

/// The deterministic heart of the contract: over a full 10k-index
/// window, no two scene indices may ever share a child stream (the
/// SplitMix64 split is injective per root, so a single collision means
/// the derivation broke).
#[test]
fn derived_seeds_never_collide_over_10k_indices() {
    for root in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
        let mut seen = HashSet::with_capacity(10_000);
        for index in 0..10_000u64 {
            let child = derive_scene_seed(root, index);
            assert!(
                seen.insert(child),
                "seed collision at root {root}, index {index}"
            );
        }
    }
}

proptest! {
    #[test]
    fn derived_seeds_distinct_for_random_index_pairs(
        root in proptest::num::u64::ANY,
        i in 0u64..10_000,
        j in 0u64..10_000,
    ) {
        if i != j {
            prop_assert_ne!(derive_scene_seed(root, i), derive_scene_seed(root, j));
        }
    }

    #[test]
    fn derived_seeds_differ_across_roots(
        a in proptest::num::u64::ANY,
        b in proptest::num::u64::ANY,
        index in 0u64..10_000,
    ) {
        // The derivation is also injective in the root for a fixed
        // index, so distinct samplers never alias streams.
        if a != b {
            prop_assert_ne!(derive_scene_seed(a, index), derive_scene_seed(b, index));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_of_one_job_equals_seeded_draws(root in 0u64..1000, n in 1usize..4) {
        // sample_batch(n, 1) ≡ n independent sample_seeded calls on the
        // derived child seeds.
        let scenario = compile(
            "ego = Object at 0 @ 0\nObject at (3, 12) @ (3, 12), facing (0, 360) deg\n",
        )
        .unwrap();
        let batch = Sampler::new(&scenario)
            .with_seed(root)
            .sample_batch(n, 1)
            .unwrap();
        prop_assert_eq!(batch.len(), n);
        for (i, scene) in batch.iter().enumerate() {
            let seed = derive_scene_seed(root, i as u64);
            let expected = Sampler::new(&scenario).sample_seeded(seed).unwrap();
            prop_assert_eq!(scene.to_json(), expected.to_json());
        }
    }

    #[test]
    fn batch_is_invariant_in_worker_count(root in 0u64..1000, jobs in 2usize..6) {
        let scenario = compile(
            "ego = Object at 0 @ 0\nObject at (3, 12) @ (3, 12), facing (0, 360) deg\n",
        )
        .unwrap();
        let serial = Sampler::new(&scenario)
            .with_seed(root)
            .sample_batch(4, 1)
            .unwrap();
        let parallel = Sampler::new(&scenario)
            .with_seed(root)
            .sample_batch(4, jobs)
            .unwrap();
        let a: Vec<String> = serial.iter().map(Scene::to_json).collect();
        let b: Vec<String> = parallel.iter().map(Scene::to_json).collect();
        prop_assert_eq!(a, b);
    }
}

/// A native function that panics while `armed` is set stands in for an
/// interpreter bug: every dispatch width must report it as
/// `ScenicError::WorkerPanic` rather than unwind through the caller,
/// and the same sampler must keep working once the bug is gone.
#[test]
fn worker_panic_is_an_error_for_every_jobs_value() {
    use scenic::core::value::NativeFn;
    use scenic::core::{Module, NativeValue, Value, World};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let armed = Arc::new(AtomicBool::new(true));
    let trigger = Arc::clone(&armed);
    let mut world = World::bare();
    world.add_auto_module(
        "lib",
        Module {
            natives: vec![(
                "boom".into(),
                NativeValue::Function(NativeFn {
                    name: "boom".into(),
                    imp: Arc::new(move |_, _, _| {
                        assert!(!trigger.load(Ordering::SeqCst), "boom went off");
                        Ok(Value::Number(1.0))
                    }),
                }),
            )],
            source: None,
        },
    );
    let scenario = compile_with_world("ego = Object at 0 @ 0\nx = boom()\n", &world).unwrap();
    for jobs in [1, 2] {
        armed.store(true, Ordering::SeqCst);
        let mut sampler = Sampler::new(&scenario).with_seed(4);
        match sampler.sample_batch_report(2, jobs) {
            Err(ScenicError::WorkerPanic { message }) => {
                assert!(message.contains("boom went off"), "jobs={jobs}: {message}");
            }
            other => panic!("jobs={jobs}: expected WorkerPanic, got {other:?}"),
        }
        armed.store(false, Ordering::SeqCst);
        let report = sampler.sample_batch_report(2, jobs).unwrap();
        assert_eq!(report.scenes.len(), 2, "jobs={jobs}");
    }
}
