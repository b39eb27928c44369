//! # scenic-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6, Appendix D) for `scenic exp`, comparing
//! against the paper's reported numbers. Throughput is measured by the
//! separate `perfbench/` benchmark, not here.
//!
//! Scale: the paper trained a real CNN on thousands of GTAV renders;
//! our substrate is cheap enough to rerun end-to-end, but dataset sizes
//! are scaled down by default (`scenic exp --scale S`, 1.0 =
//! paper-proportional counts scaled by 1/4).

pub mod experiments;
pub mod harness;
pub mod report;
pub mod seed_case;

use scenic_core::cache::ScenarioCache;
use scenic_core::{ArtifactStore, RunResult, Scenario};
use scenic_gta::{MapConfig, World};
use std::sync::{Arc, Mutex, OnceLock};

/// The standard world every experiment runs against.
pub fn standard_world() -> World {
    World::generate(MapConfig::default())
}

static EXP_CACHE: OnceLock<ScenarioCache> = OnceLock::new();
static PENDING_STORE: Mutex<Option<Arc<ArtifactStore>>> = Mutex::new(None);

/// Installs an on-disk [`ArtifactStore`] under the harness's shared
/// compile cache, so experiment scenarios persist across processes.
///
/// Must be called before the first experiment compiles anything (the
/// `scenic exp` CLI does this while parsing flags). Returns `false` —
/// and leaves the already-running cache untouched — if compilation has
/// started; the store cannot be swapped mid-run.
pub fn install_store(store: Arc<ArtifactStore>) -> bool {
    if EXP_CACHE.get().is_some() {
        return false;
    }
    *PENDING_STORE.lock().expect("pending store poisoned") = Some(store);
    EXP_CACHE.get().is_none()
}

/// The process-wide compile cache every experiment shares. Scenarios
/// reused across experiments (`TWO_CARS` alone appears in five of
/// them) compile once per process — and when [`install_store`] gave
/// the cache a disk tier, at most once per store.
pub(crate) fn exp_compile(
    world_name: &str,
    source: &str,
    world: &scenic_core::World,
) -> RunResult<Arc<Scenario>> {
    exp_cache().get_or_compile(world_name, source, world)
}

/// The shared experiment compile cache, for callers that want its hit
/// and disk-tier counters (the `scenic exp --stats` report).
pub fn exp_cache() -> &'static ScenarioCache {
    EXP_CACHE.get_or_init(
        || match PENDING_STORE.lock().expect("pending store poisoned").take() {
            Some(store) => ScenarioCache::with_store(store),
            None => ScenarioCache::new(),
        },
    )
}

/// Scales a base count.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(4)
}
