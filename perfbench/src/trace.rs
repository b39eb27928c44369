//! The traced side of the benchmark: a per-candidate replay of sampled
//! batches, and per-layer probes that time each layer's public entry
//! points from outside. Nothing here changes what the program computes;
//! the replay must reproduce the untraced batches exactly.

use crate::common::{build_worlds, file_len, fnv, mean, median, ms, Outcome, Scen, JOBS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenic_core::{
    compile_with_world, derive_scene_seed, scene_digest, source_hash, ArtifactStore, Engine,
    PrunePlan, Rejection, Sampler, SamplerConfig, Scenario, ScenicError,
};
use scenic_serve::format::render_scene;
use scenic_serve::proto::{write_response, SampleRequest};
use scenic_serve::{Client, Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Candidate outcomes, in the order the per-kind arrays use.
const KINDS: [&str; 7] = [
    "accepted",
    "requirement",
    "pruned",
    "collision",
    "containment",
    "visibility",
    "empty_region",
];

/// One batch to replay: scenes `0..count` of the batch rooted at `root`.
pub struct Batch {
    pub scenario: Arc<Scenario>,
    pub root: u64,
    pub count: usize,
}

/// Counts and times per candidate outcome, summed over a replay.
#[derive(Default)]
pub struct Tally {
    pub count: [u64; 7],
    pub nanos: [u64; 7],
    /// Requirement rejections by source line.
    pub lines: BTreeMap<u32, u64>,
    pub render_nanos: u64,
    pub render_bytes: u64,
}

impl Tally {
    pub fn candidates(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Exact-repeat counters: candidates, outcomes by kind and
    /// requirement rejections by line, and bytes emitted.
    pub fn record_counters(&self, counters: &mut BTreeMap<String, u64>) {
        counters.insert("candidates".into(), self.candidates());
        for (k, kind) in KINDS.iter().enumerate() {
            counters.insert(format!("outcome.{kind}"), self.count[k]);
        }
        for (line, n) in &self.lines {
            counters.insert(format!("requirement.line.{line}"), *n);
        }
        counters.insert("bytes_emitted".into(), self.render_bytes);
    }
}

/// A replay's per-batch fingerprints (scene digests and candidate
/// counts) plus its tally.
pub struct Replay {
    pub digests: Vec<Vec<u64>>,
    pub candidates: Vec<usize>,
    pub tally: Tally,
    pub wall_s: f64,
}

/// Replays every batch scene by scene on the calling thread, like the
/// timed operations, re-deriving each scene's stream with
/// `derive_scene_seed` and running every candidate through
/// `Scenario::generate_with`, exactly as the sampler does, with a timer
/// around each candidate and each render.
pub fn replay(batches: &[Batch]) -> Result<Replay, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut digests = Vec::with_capacity(batches.len());
    let mut candidates = Vec::with_capacity(batches.len());
    for batch in batches {
        let plan = batch.scenario.prune_plan();
        let plan = (!plan.is_empty()).then_some(&*plan);
        let mut batch_digests = Vec::with_capacity(batch.count);
        let mut batch_candidates = 0;
        for i in 0..batch.count {
            let (digest, cands) = replay_scene(batch, plan, i, &mut tally)?;
            batch_digests.push(digest);
            batch_candidates += cands;
        }
        digests.push(batch_digests);
        candidates.push(batch_candidates);
    }
    Ok(Replay {
        digests,
        candidates,
        tally,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn replay_scene(
    batch: &Batch,
    plan: Option<&PrunePlan>,
    index: usize,
    tally: &mut Tally,
) -> Result<(u64, usize), String> {
    let mut seeds = StdRng::seed_from_u64(derive_scene_seed(batch.root, index as u64));
    for candidates in 1..=SamplerConfig::default().max_iterations {
        let mut rng = StdRng::seed_from_u64(seeds.gen());
        let started = Instant::now();
        let result = batch
            .scenario
            .generate_with(&mut rng, plan, Engine::Compiled);
        let nanos = started.elapsed().as_nanos() as u64;
        let kind = match &result {
            Ok(_) => 0,
            Err(ScenicError::Rejected(rejection)) => match rejection {
                Rejection::Requirement { line } => {
                    *tally.lines.entry(*line).or_default() += 1;
                    1
                }
                Rejection::Pruned(_) => 2,
                Rejection::Collision => 3,
                Rejection::Containment => 4,
                Rejection::Visibility => 5,
                Rejection::EmptyRegion => 6,
            },
            Err(err) => return Err(format!("replay of scene {index}: {err}")),
        };
        tally.count[kind] += 1;
        tally.nanos[kind] += nanos;
        if let Ok(scene) = result {
            let started = Instant::now();
            let text = render_scene(&scene, "json");
            tally.render_nanos += started.elapsed().as_nanos() as u64;
            tally.render_bytes += text.len() as u64;
            return Ok((fnv(&[text.as_bytes()]), candidates));
        }
    }
    Err(format!(
        "replay of scene {index}: iteration budget exhausted"
    ))
}

/// Sampler, format and tracing-overhead metrics from a replay of the
/// window's batches. `untraced_scenes_per_s` is the untraced throughput.
pub fn sampler_layers(out: &mut Outcome, replay: &Replay, untraced_scenes_per_s: f64) {
    let t = &replay.tally;
    let candidates = t.candidates() as f64;
    let scenes = t.count[0] as f64;
    let total_nanos: u64 = t.nanos.iter().sum();
    let per = |k: usize| {
        if t.count[k] == 0 {
            0.0
        } else {
            t.nanos[k] as f64 / t.count[k] as f64 / 1e3
        }
    };
    out.set("sampler.candidates", candidates, "count");
    out.set("sampler.candidates_per_scene", candidates / scenes, "count");
    out.set(
        "sampler.candidate_us",
        total_nanos as f64 / candidates / 1e3,
        "us",
    );
    for (k, kind) in KINDS.iter().enumerate() {
        out.set(&format!("sampler.candidate_us.{kind}"), per(k), "us");
        out.set(
            &format!("sampler.time_share.{kind}"),
            t.nanos[k] as f64 / total_nanos as f64,
            "share",
        );
        if k > 0 {
            out.set(
                &format!("sampler.rejected.{kind}"),
                t.count[k] as f64,
                "count",
            );
        }
    }
    let (top_line, top_count) = t
        .lines
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map_or((0, 0), |(l, n)| (*l, *n));
    // A line number names a `require`; it is not a score, so it is a
    // label of the result rather than a metric.
    out.labels.insert(
        "sampler.rejected.requirement.top_line".into(),
        top_line.to_string(),
    );
    out.set(
        "sampler.rejected.requirement.top_line_share",
        if t.count[1] == 0 {
            0.0
        } else {
            top_count as f64 / t.count[1] as f64
        },
        "share",
    );
    out.set(
        "format.render_us",
        t.render_nanos as f64 / scenes / 1e3,
        "us",
    );
    out.set(
        "format.bytes_per_scene",
        t.render_bytes as f64 / scenes,
        "bytes",
    );
    out.set("trace.scenes_per_s", scenes / replay.wall_s, "1/s");
    out.set("trace.untraced_scenes_per_s", untraced_scenes_per_s, "1/s");
}

/// How often the pool probe samples each batch on each side; it keeps
/// the median.
const POOL_REPS: usize = 3;

/// The pool layer: samples each batch with `Sampler::sample_batch_report`
/// on one thread and on `nproc`, and sets `pool.efficiency` to the serial
/// time over `nproc` times the pooled time (1 when the pool splits the
/// work evenly at no cost). Both sides must give the same scenes.
pub fn pool_probe(out: &mut Outcome, batches: &[Batch], nproc: usize) {
    if let Err(err) = try_pool_probe(out, batches, nproc) {
        out.fail(format!("pool probe: {err}"));
    }
}

fn try_pool_probe(out: &mut Outcome, batches: &[Batch], nproc: usize) -> Result<(), String> {
    let (mut serial, mut pooled) = (0.0, 0.0);
    for b in batches {
        let mut times = [Vec::new(), Vec::new()];
        let mut digests = [Vec::new(), Vec::new()];
        for _ in 0..POOL_REPS {
            for (side, jobs) in [1, nproc].into_iter().enumerate() {
                let (report, t) = timed(|| {
                    Sampler::new(&b.scenario)
                        .with_seed(b.root)
                        .with_pruning()
                        .sample_batch_report(b.count, jobs)
                        .map_err(|e| e.to_string())
                })?;
                times[side].push(t);
                digests[side] = report.scenes.iter().map(scene_digest).collect();
            }
        }
        if digests[0] != digests[1] {
            out.fail(format!(
                "root {}: {nproc} jobs give other scenes than one",
                b.root
            ));
        }
        serial += median(&times[0]);
        pooled += median(&times[1]);
    }
    out.set("pool.efficiency", serial / (pooled * nproc as f64), "share");
    Ok(())
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = Instant::now();
    let value = f()?;
    Ok((value, ms(started, Instant::now())))
}

/// How often the set-up layers are timed; each metric is the median.
const LAYER_REPS: usize = 5;

/// Times the set-up layers for a workload's scenarios `LAYER_REPS`
/// times, and records the median of each layer's summed time: world
/// build, parse, compile (which includes the user-program parse),
/// lowering, prune plan, and a store save and load into a scratch store.
pub fn setup_layers(out: &mut Outcome, scens: &[Scen], dir: &Path) {
    if let Err(err) = try_setup_layers(out, scens, dir) {
        out.fail(format!("layer probe: {err}"));
    }
}

fn try_setup_layers(out: &mut Outcome, scens: &[Scen], dir: &Path) -> Result<(), String> {
    let mut cols: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut entry_bytes = 0;
    for rep in 0..LAYER_REPS {
        let (worlds, t) = timed(|| Ok(build_worlds(scens)))?;
        cols.entry("world.build_ms").or_default().push(t);
        let ((), t) = timed(|| {
            for s in scens {
                black_box(scenic_lang::parse(s.source).map_err(|e| e.to_string())?);
            }
            Ok(())
        })?;
        cols.entry("lang.parse_ms").or_default().push(t);
        let (compiled, t) = timed(|| {
            scens
                .iter()
                .map(|s| compile_with_world(s.source, &worlds[s.world]).map_err(|e| e.to_string()))
                .collect::<Result<Vec<Scenario>, String>>()
        })?;
        cols.entry("interp.compile_ms").or_default().push(t);
        let ((), t) = timed(|| {
            compiled
                .iter()
                .for_each(|sc| drop(black_box(sc.compiled())));
            Ok(())
        })?;
        cols.entry("compile.lower_ms").or_default().push(t);
        let ((), t) = timed(|| {
            compiled
                .iter()
                .for_each(|sc| drop(black_box(sc.prune_plan())));
            Ok(())
        })?;
        cols.entry("prune.plan_ms").or_default().push(t);
        let store =
            ArtifactStore::open(dir.join(format!("probe{rep}"))).map_err(|e| e.to_string())?;
        let ((), t) = timed(|| {
            for (s, sc) in scens.iter().zip(&compiled) {
                store
                    .save(s.world, s.source, sc)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        cols.entry("store.save_ms").or_default().push(t);
        entry_bytes = scens
            .iter()
            .map(|s| file_len(&store.entry_path(s.world, source_hash(s.source))))
            .sum::<u64>();
        let ((), t) = timed(|| {
            for s in scens {
                store
                    .load(s.world, s.source, &worlds[s.world])
                    .ok_or_else(|| format!("store entry for {} did not load", s.name))?;
            }
            Ok(())
        })?;
        cols.entry("store.load_ms").or_default().push(t);
    }
    for (name, values) in cols {
        out.set(name, median(&values), "ms");
    }
    out.set(
        "store.entry_bytes",
        entry_bytes as f64 / scens.len() as f64,
        "bytes",
    );
    Ok(())
}

/// One daemon request as the client saw it.
struct Served {
    /// When the request was sent and its last frame arrived.
    sent: Instant,
    done: Instant,
    /// Server-side time from the `Done` frame.
    server_ms: f64,
    texts: Vec<String>,
}

/// Sends one sample request and collects its frames.
fn serve_one(client: &mut Client, request: &SampleRequest) -> Result<Served, String> {
    let sent = Instant::now();
    let mut texts = Vec::with_capacity(request.n);
    let (_, _, server_ms) = client
        .sample(request, |_, text| texts.push(text.to_string()))
        .map_err(|e| e.to_string())?;
    Ok(Served {
        sent,
        done: Instant::now(),
        server_ms,
        texts,
    })
}

/// Serve-layer metrics: server time, transport time (client latency
/// minus server time) and scene-frame size.
fn serve_layers_from(out: &mut Outcome, served: &[Served]) {
    let server: Vec<f64> = served.iter().map(|s| s.server_ms).collect();
    let transport: Vec<f64> = served
        .iter()
        .map(|s| ms(s.sent, s.done) - s.server_ms)
        .collect();
    let mut frame = Vec::new();
    let mut frame_bytes = Vec::new();
    for s in served {
        for (index, text) in s.texts.iter().enumerate() {
            frame.clear();
            let scene = Response::Scene {
                index,
                text: text.clone(),
            };
            write_response(&mut frame, &scene).expect("writing to a Vec cannot fail");
            frame_bytes.push(frame.len() as f64);
        }
    }
    out.set("serve.server_ms", median(&server), "ms");
    out.set("serve.transport_ms", median(&transport), "ms");
    out.set("serve.frame_bytes", mean(&frame_bytes), "bytes");
}

/// Serves a workload's own requests through a fresh in-process daemon,
/// one at a time after a compile request per scenario, for the serve
/// layer metrics.
pub fn serve_probe(out: &mut Outcome, requests: &[SampleRequest]) {
    let result = (|| -> Result<Vec<Served>, String> {
        let server = Server::bind_with("127.0.0.1:0", ServerConfig::default())
            .and_then(Server::spawn)
            .map_err(|e| e.to_string())?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        for r in requests {
            client
                .request(&Request::Compile {
                    source: r.source.clone(),
                    world: r.world.clone(),
                })
                .map_err(|e| e.to_string())?;
        }
        let served = requests
            .iter()
            .map(|r| serve_one(&mut client, r))
            .collect::<Result<Vec<_>, _>>()?;
        drop(client);
        server.shutdown().map_err(|e| e.to_string())?;
        Ok(served)
    })();
    match result {
        Ok(served) => serve_layers_from(out, &served),
        Err(err) => out.fail(format!("serve probe: {err}")),
    }
}

/// A sample request in the daemon's wire form.
pub fn request(s: &Scen, seed: u64, n: usize) -> SampleRequest {
    SampleRequest {
        source: s.source.to_string(),
        world: s.world.to_string(),
        name: s.name.to_string(),
        n,
        seed,
        jobs: JOBS,
        prune: true,
        engine: "compiled".to_string(),
        format: "json".to_string(),
        timeout_ms: None,
    }
}
