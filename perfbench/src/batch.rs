//! The in-process batch workloads, `bottleneck` and `gta_dataset`: each
//! operation samples one batch of every scenario of the workload with
//! `Sampler::sample_batch_report` on one thread, optionally rendering
//! every scene to JSON.

use crate::common::{
    build_worlds, fnv, mix, ms, timed_window, Ctx, Outcome, Scen, BADLY_PARKED, GTA_INTERSECTION,
    GTA_ONCOMING, JOBS, MARS_BOTTLENECK, MARS_FORMATION, TWO_CARS,
};
use crate::trace::{self, Batch};
use scenic_core::{scene_digest, Engine, Sampler, Scenario, ScenarioCache, World};
use scenic_serve::format::render_scene;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// How a batch workload chooses its operations.
pub struct Spec {
    pub scens: &'static [Scen],
    /// Scenes per batch.
    pub n: usize,
    /// Whether each operation also renders its scenes to JSON.
    pub render: bool,
    /// Untimed operations before the window; their counts are the
    /// exact-repeat counters.
    pub warmup_ops: u64,
    /// Window operations after which `peak_rss_mb` is read.
    pub rss_ops: u64,
    /// Window operations whose batches are checked against the AST
    /// engine over their first `ast_prefix` scenes.
    pub ast_ops: usize,
    pub ast_prefix: usize,
    /// Root of scenario `i`'s batch in operation `k`.
    pub root: fn(seed: u64, k: u64, i: usize) -> u64,
    /// Reference units run between operations: about a tenth of one.
    pub reference_units: usize,
    /// Distinct window batches the traced pool probe samples.
    pub pool_probe_batches: usize,
}

/// mars_bottleneck takes ~800-1,800 candidates per scene, one geometric
/// draw per scene, so even a 30 s run holds too few scenes for their
/// candidate total to repeat from seed to seed (±5% on luck alone).
/// Every operation therefore samples the same pinned batch (root 0,
/// 4 scenes), and the metrics time fixed work.
pub const BOTTLENECK: Spec = Spec {
    scens: &[MARS_BOTTLENECK],
    n: 4,
    render: false,
    warmup_ops: 1,
    rss_ops: 30,
    ast_ops: 1,
    ast_prefix: 2,
    root: |_, _, _| 0,
    reference_units: 40,
    pool_probe_batches: 1,
};

/// Dataset generation over the scenarios with 1.1-8 candidates per
/// scene. One operation is a batch of each, so every operation carries
/// the same mix and its latency tail is not one scenario's tail; 32
/// scenes a batch keep the pool's per-batch wake-ups a small share.
pub const GTA_DATASET: Spec = Spec {
    scens: &[
        TWO_CARS,
        BADLY_PARKED,
        GTA_INTERSECTION,
        GTA_ONCOMING,
        MARS_FORMATION,
    ],
    n: 32,
    render: true,
    warmup_ops: 2,
    rss_ops: 400,
    ast_ops: 1,
    ast_prefix: 8,
    root: |seed, k, i| mix(seed, k * 5 + i as u64),
    reference_units: 5,
    pool_probe_batches: 20,
};

/// Everything built before the first timed operation.
pub struct State {
    worlds: BTreeMap<&'static str, World>,
    cache: ScenarioCache,
}

/// World build, compile, lowering and prune plan of every scenario.
pub fn setup(spec: &Spec) -> Result<State, String> {
    let worlds = build_worlds(spec.scens);
    let cache = ScenarioCache::new();
    for s in spec.scens {
        let sc = cache
            .get_or_compile(s.world, s.source, &worlds[s.world])
            .map_err(|e| format!("{}: {e}", s.name))?;
        sc.compiled();
        sc.prune_plan();
    }
    Ok(State { worlds, cache })
}

/// One sampled batch of an operation.
struct Sampled {
    scen: usize,
    root: u64,
    scenario: Arc<Scenario>,
    digests: Vec<u64>,
    candidates: usize,
}

/// One executed operation: a batch of every scenario, and its latency.
struct Op {
    batches: Vec<Sampled>,
    total_ms: f64,
}

fn run_op(spec: &Spec, st: &State, ctx: &Ctx, k: u64) -> Result<Op, String> {
    let started = Instant::now();
    let mut sampled = Vec::with_capacity(spec.scens.len());
    let mut texts: Vec<Vec<String>> = Vec::new();
    for (scen, s) in spec.scens.iter().enumerate() {
        let root = (spec.root)(ctx.seed, k, scen);
        let scenario = st
            .cache
            .get_or_compile(s.world, s.source, &st.worlds[s.world])
            .map_err(|e| e.to_string())?;
        let report = Sampler::new(&scenario)
            .with_seed(root)
            .with_pruning()
            .sample_batch_report(spec.n, JOBS)
            .map_err(|e| format!("{} root {root}: {e}", s.name))?;
        if spec.render {
            texts.push(
                report
                    .scenes
                    .iter()
                    .map(|sc| render_scene(sc, "json"))
                    .collect(),
            );
        }
        sampled.push((scen, root, scenario, report));
    }
    let total_ms = ms(started, Instant::now());
    let batches = sampled
        .into_iter()
        .enumerate()
        .map(|(b, (scen, root, scenario, report))| Sampled {
            scen,
            root,
            scenario,
            digests: match texts.get(b) {
                Some(texts) => texts.iter().map(|t| fnv(&[t.as_bytes()])).collect(),
                None => report.scenes.iter().map(scene_digest).collect(),
            },
            candidates: report.total_stats().iterations,
        })
        .collect();
    Ok(Op { batches, total_ms })
}

/// Replays `sampled` and fails the run unless every scene digest and
/// candidate count matches.
fn checked_replay(
    out: &mut Outcome,
    spec: &Spec,
    sampled: &[&Sampled],
) -> Result<trace::Replay, String> {
    let batches: Vec<Batch> = sampled
        .iter()
        .map(|b| Batch {
            scenario: Arc::clone(&b.scenario),
            root: b.root,
            count: spec.n,
        })
        .collect();
    let replay = trace::replay(&batches)?;
    for (i, b) in sampled.iter().enumerate() {
        if replay.digests[i] != b.digests || replay.candidates[i] != b.candidates {
            out.fail(format!(
                "replay of {} root {} differs from the untraced batch",
                spec.scens[b.scen].name, b.root
            ));
        }
    }
    Ok(replay)
}

pub fn run(spec: &Spec, ctx: &Ctx, trace_on: bool) -> Result<Outcome, String> {
    let st = setup(spec)?;
    let mut out = Outcome::default();
    let names: Vec<&str> = spec.scens.iter().map(|s| s.name).collect();
    out.config.insert("scenarios".into(), names.join(","));
    out.config.insert("n".into(), spec.n.to_string());
    out.config.insert("engine".into(), "compiled".into());
    out.config.insert("prune".into(), "on".into());

    let warm: Vec<Op> = (0..spec.warmup_ops)
        .map(|k| run_op(spec, &st, ctx, k))
        .collect::<Result<_, _>>()?;
    let warm_batches: Vec<&Sampled> = warm.iter().flat_map(|op| &op.batches).collect();
    let replay = checked_replay(&mut out, spec, &warm_batches)?;
    replay.tally.record_counters(&mut out.counters);
    out.counters
        .insert("cache.hits".into(), st.cache.hits() as u64);
    out.counters
        .insert("cache.misses".into(), st.cache.misses() as u64);

    let ops = timed_window(
        &mut out,
        ctx,
        spec.warmup_ops,
        spec.reference_units,
        spec.rss_ops,
        |k| run_op(spec, &st, ctx, k),
    )?;
    let window: Vec<&Sampled> = ops.iter().flat_map(|op| &op.batches).collect();
    out.scenes = window.iter().map(|b| b.digests.len()).sum();
    out.busy_s = ops.iter().map(|op| op.total_ms).sum::<f64>() / 1e3;
    out.latencies_ms = ops.iter().map(|op| op.total_ms).collect();

    // A batch that recurs must repeat its scenes and candidate count.
    let mut first: BTreeMap<(usize, u64), &Sampled> = warm_batches
        .iter()
        .map(|b| ((b.scen, b.root), *b))
        .collect();
    let mut seen_in_window = BTreeSet::new();
    let mut distinct: Vec<&Sampled> = Vec::new();
    for &b in &window {
        let seen = first.entry((b.scen, b.root)).or_insert(b);
        if (&seen.digests, seen.candidates) != (&b.digests, b.candidates) {
            out.fail(format!(
                "repeat of {} root {} differs",
                spec.scens[b.scen].name, b.root
            ));
        }
        if seen_in_window.insert((b.scen, b.root)) {
            distinct.push(b);
        }
    }

    // The AST engine must reproduce a prefix of the first window batches.
    for b in ops.iter().take(spec.ast_ops).flat_map(|op| &op.batches) {
        let ast = Sampler::new(&b.scenario)
            .with_seed(b.root)
            .with_pruning()
            .with_engine(Engine::Ast)
            .sample_batch_report_range(0, spec.ast_prefix, JOBS)
            .map_err(|e| e.to_string())?;
        let digests: Vec<u64> = ast.scenes.iter().map(scene_digest).collect();
        if digests[..] != b.digests[..spec.ast_prefix] {
            out.fail(format!(
                "AST engine disagrees on {} root {}",
                spec.scens[b.scen].name, b.root
            ));
        }
    }

    if trace_on {
        // Each distinct window batch is replayed once; its recurrences
        // were checked against it above.
        let replay = checked_replay(&mut out, spec, &distinct)?;
        let scenes_per_s = out.scenes as f64 / out.busy_s;
        trace::sampler_layers(&mut out, &replay, scenes_per_s);
        let probe: Vec<Batch> = distinct
            .iter()
            .take(spec.pool_probe_batches)
            .map(|b| Batch {
                scenario: Arc::clone(&b.scenario),
                root: b.root,
                count: spec.n,
            })
            .collect();
        trace::pool_probe(&mut out, &probe, ctx.nproc);
        trace::setup_layers(&mut out, spec.scens, &ctx.fresh_dir("layers"));
        let requests: Vec<_> = distinct
            .iter()
            .take(spec.scens.len())
            .map(|b| trace::request(&spec.scens[b.scen], b.root, spec.n.min(2)))
            .collect();
        trace::serve_probe(&mut out, &requests);
        out.set("store.disk_hits", 0.0, "count");
        let lookups = (st.cache.hits() + st.cache.misses()) as f64;
        out.set("cache.hit_ratio", st.cache.hits() as f64 / lookups, "share");
    }
    Ok(out)
}
