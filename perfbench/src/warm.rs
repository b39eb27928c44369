//! The `warm_start` workload: each operation is one start-up against a
//! store warmed during set-up — fresh worlds, store open, disk-tier
//! compile, lowering, and one rendered scene per cheap scenario.

use crate::common::{build_worlds, fnv, mix, ms, timed_window, Ctx, Outcome, CHEAP};
use crate::trace::{self, Batch};
use scenic_core::{ArtifactStore, Sampler, Scenario, ScenarioCache};
use scenic_serve::format::render_scene;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Untimed start-ups before the window; their counts are the
/// exact-repeat counters.
const WARMUP: u64 = 3;

/// Window start-ups after which `peak_rss_mb` is read.
const RSS_OPS: u64 = 200;

/// Reference units run between start-ups: about a tenth of one.
const REFERENCE_UNITS: usize = 6;

/// Scenes per scenario in the traced pool probe (a start-up samples
/// one, which the pool would not split).
const POOL_PROBE_SCENES: usize = 16;

pub struct State {
    store_dir: PathBuf,
    /// The scenarios as compiled from source at set-up: the cold
    /// reference every start-up's scenes are checked against.
    cold: Vec<Arc<Scenario>>,
}

/// World build, then a cold compile of every scenario written through
/// to a fresh store, with lowering and prune plans.
pub fn setup(ctx: &Ctx) -> Result<State, String> {
    let worlds = build_worlds(&CHEAP);
    let store_dir = ctx.fresh_dir("store");
    let store = ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?;
    let cache = ScenarioCache::with_store(Arc::new(store));
    let cold = CHEAP
        .iter()
        .map(|s| {
            let sc = cache
                .get_or_compile(s.world, s.source, &worlds[s.world])
                .map_err(|e| format!("{}: {e}", s.name))?;
            sc.compiled();
            sc.prune_plan();
            Ok(sc)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let writes = cache.store().map_or(0, |s| s.writes());
    if writes != CHEAP.len() {
        return Err(format!(
            "store warm-up wrote {writes} of {} entries",
            CHEAP.len()
        ));
    }
    Ok(State { store_dir, cold })
}

/// Seed of scenario `i` in start-up `k`.
fn seed_of(seed: u64, k: u64, i: usize) -> u64 {
    mix(seed, k * CHEAP.len() as u64 + i as u64)
}

/// One executed start-up.
struct Op {
    k: u64,
    digests: Vec<u64>,
    candidates: Vec<usize>,
    disk_hits: usize,
    total_ms: f64,
}

fn start_up(st: &State, ctx: &Ctx, k: u64) -> Result<Op, String> {
    let started = Instant::now();
    let worlds = build_worlds(&CHEAP);
    let store = ArtifactStore::open(&st.store_dir).map_err(|e| e.to_string())?;
    let cache = ScenarioCache::with_store(Arc::new(store));
    let mut texts = Vec::with_capacity(CHEAP.len());
    let mut candidates = Vec::with_capacity(CHEAP.len());
    for (i, s) in CHEAP.iter().enumerate() {
        let scenario = cache
            .get_or_compile(s.world, s.source, &worlds[s.world])
            .map_err(|e| format!("{}: {e}", s.name))?;
        scenario.compiled();
        let report = Sampler::new(&scenario)
            .with_seed(seed_of(ctx.seed, k, i))
            .with_pruning()
            .sample_batch_report(1, 1)
            .map_err(|e| format!("{}: {e}", s.name))?;
        texts.push(render_scene(&report.scenes[0], "json"));
        candidates.push(report.total_stats().iterations);
    }
    let total_ms = ms(started, Instant::now());
    Ok(Op {
        k,
        digests: texts.iter().map(|t| fnv(&[t.as_bytes()])).collect(),
        candidates,
        disk_hits: cache.store().map_or(0, |s| s.disk_hits()),
        total_ms,
    })
}

/// The batches a start-up samples, for the replay: scene 0 of each
/// scenario at that start-up's seeds, on the cold-compiled scenarios.
fn batches(st: &State, ctx: &Ctx, ops: &[Op]) -> Vec<Batch> {
    ops.iter()
        .flat_map(|op| {
            st.cold.iter().enumerate().map(move |(i, sc)| Batch {
                scenario: Arc::clone(sc),
                root: seed_of(ctx.seed, op.k, i),
                count: 1,
            })
        })
        .collect()
}

/// Checks each start-up's scenes and candidate counts against the
/// replay on the cold-compiled scenarios.
fn check(out: &mut Outcome, ops: &[Op], replay: &trace::Replay) {
    for (j, op) in ops.iter().enumerate() {
        for (i, s) in CHEAP.iter().enumerate() {
            let b = j * CHEAP.len() + i;
            if replay.digests[b] != [op.digests[i]] || replay.candidates[b] != op.candidates[i] {
                out.fail(format!(
                    "start-up {} scene of {} differs from a cold compile",
                    op.k, s.name
                ));
            }
        }
        if op.disk_hits != CHEAP.len() {
            out.fail(format!(
                "start-up {} loaded {} of {} entries from disk",
                op.k,
                op.disk_hits,
                CHEAP.len()
            ));
        }
    }
}

pub fn run(ctx: &Ctx, trace_on: bool) -> Result<Outcome, String> {
    let st = setup(ctx)?;
    let mut out = Outcome::default();
    let names: Vec<&str> = CHEAP.iter().map(|s| s.name).collect();
    out.config.insert("scenarios".into(), names.join(","));
    out.config.insert("n".into(), "1".into());
    out.config.insert("engine".into(), "compiled".into());
    out.config.insert("prune".into(), "on".into());

    let warm: Vec<Op> = (0..WARMUP)
        .map(|k| start_up(&st, ctx, k))
        .collect::<Result<_, _>>()?;
    let replay = trace::replay(&batches(&st, ctx, &warm))?;
    check(&mut out, &warm, &replay);
    replay.tally.record_counters(&mut out.counters);
    out.counters.insert(
        "store.disk_hits".into(),
        warm.iter().map(|op| op.disk_hits as u64).sum(),
    );

    let ops = timed_window(&mut out, ctx, WARMUP, REFERENCE_UNITS, RSS_OPS, |k| {
        start_up(&st, ctx, k).map_err(|err| format!("start-up {k}: {err}"))
    })?;
    out.scenes = ops.len() * CHEAP.len();
    out.busy_s = ops.iter().map(|op| op.total_ms).sum::<f64>() / 1e3;
    out.latencies_ms = ops.iter().map(|op| op.total_ms).collect();

    // Every start-up is checked against the cold compile; the same
    // replay gives the traced run its sampler and format numbers.
    let replay = trace::replay(&batches(&st, ctx, &ops))?;
    check(&mut out, &ops, &replay);

    if trace_on {
        let scenes_per_s = out.scenes as f64 / out.busy_s;
        trace::sampler_layers(&mut out, &replay, scenes_per_s);
        let probe: Vec<Batch> = st
            .cold
            .iter()
            .enumerate()
            .map(|(i, sc)| Batch {
                scenario: Arc::clone(sc),
                root: seed_of(ctx.seed, 0, i),
                count: POOL_PROBE_SCENES,
            })
            .collect();
        trace::pool_probe(&mut out, &probe, ctx.nproc);
        trace::setup_layers(&mut out, &CHEAP, &ctx.fresh_dir("layers"));
        let requests: Vec<_> = CHEAP
            .iter()
            .enumerate()
            .map(|(i, s)| trace::request(s, seed_of(ctx.seed, 0, i), 1))
            .collect();
        trace::serve_probe(&mut out, &requests);
        let hits: u64 = ops.iter().map(|op| op.disk_hits as u64).sum();
        out.set("store.disk_hits", hits as f64, "count");
        let lookups = (ops.len() * CHEAP.len()) as f64;
        out.set("cache.hit_ratio", hits as f64 / lookups, "share");
    }
    Ok(out)
}
