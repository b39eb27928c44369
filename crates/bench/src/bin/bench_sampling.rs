//! End-to-end sampling throughput over the bundled scenarios.
//!
//! Compiles each of the repo's `scenarios/*.scenic` files against its
//! world and times one deterministic `sample_batch` call per engine,
//! reporting scenes/second and iterations/scene. `--json PATH`
//! additionally writes the numbers as a stable machine-readable
//! artifact (the committed `BENCH_sampling.json` at the repo root
//! tracks throughput across PRs).
//!
//! ```text
//! bench_sampling [-n N] [--seed S] [--jobs J] [--engine E] [--json PATH]
//! ```
//!
//! `--engine` takes `ast`, `compiled`, or `both` (the default): `both`
//! times the reference interpreter and the compiled draw path
//! back-to-back on each scenario, so one artifact captures the speedup.

use scenic_bench::{bench_args, flag_value};
use scenic_core::compile::Engine;
use scenic_core::sampler::{Sampler, SamplerConfig};
use scenic_core::{compile_with_world, World};
use std::path::PathBuf;

struct Args {
    n: usize,
    seed: u64,
    jobs: usize,
    engines: Vec<Engine>,
    json: Option<String>,
}

struct Run {
    scenario: &'static str,
    world: &'static str,
    engine: Engine,
    scenes: usize,
    elapsed_ms: f64,
    scenes_per_sec: f64,
    iterations_per_scene: f64,
}

const SCENARIOS: &[(&str, &str)] = &[
    ("badly_parked", "gta"),
    ("gta_intersection", "gta"),
    ("gta_oncoming", "gta"),
    ("mars_bottleneck", "mars"),
    ("mars_formation", "mars"),
    ("simplest", "gta"),
    ("two_cars", "gta"),
];

const USAGE: &str = "\
usage: bench_sampling [-n N] [--seed S] [--jobs J] [--engine ast|compiled|both]
                      [--json PATH]
  -n N          scenes per scenario (default 50)
  --seed S      root seed (default 0)
  --jobs J      worker threads (default: all cores)
  --engine E    engine(s) to time (default both)
  --json PATH   also write the scenic-bench-sampling/v2 artifact
";

fn parse_args(it: &mut dyn Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        n: 50,
        seed: 0,
        jobs: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        engines: vec![Engine::Ast, Engine::Compiled],
        json: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "-n" => args.n = flag_value(it, "-n")?,
            "--seed" => args.seed = flag_value(it, "--seed")?,
            "--jobs" => args.jobs = flag_value(it, "--jobs")?,
            "--engine" => {
                let raw: String = flag_value(it, "--engine")?;
                args.engines = match raw.as_str() {
                    "both" => vec![Engine::Ast, Engine::Compiled],
                    other => vec![other.parse().map_err(|e| format!("--engine: {e}"))?],
                };
            }
            "--json" => args.json = Some(flag_value(it, "--json")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(args))
}

fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.scenic"))
}

fn world_for(name: &str) -> World {
    match name {
        "gta" => scenic_bench::standard_world().core().clone(),
        _ => scenic_mars::world(),
    }
}

fn to_json(runs: &[Run], args: &Args) -> String {
    let mut out = String::from("{\n  \"schema\": \"scenic-bench-sampling/v2\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"n\": {}, \"seed\": {}, \"jobs\": {}}},\n  \"runs\": [",
        args.n, args.seed, args.jobs
    ));
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"scenario\": \"{}\", \"world\": \"{}\", \"engine\": \"{}\", \
             \"scenes\": {}, \"elapsed_ms\": {:.1}, \"scenes_per_sec\": {:.1}, \
             \"iterations_per_scene\": {:.2}}}",
            r.scenario,
            r.world,
            r.engine,
            r.scenes,
            r.elapsed_ms,
            r.scenes_per_sec,
            r.iterations_per_scene
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args = bench_args(USAGE, parse_args);
    let mut runs = Vec::new();
    println!(
        "sampling throughput: n={}, seed={}, jobs={}",
        args.n, args.seed, args.jobs
    );
    for &(name, world_name) in SCENARIOS {
        let source =
            std::fs::read_to_string(scenario_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let world = world_for(world_name);
        let scenario = compile_with_world(&source, &world)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        for &engine in &args.engines {
            let mut sampler = Sampler::new(&scenario)
                .with_seed(args.seed)
                .with_engine(engine)
                .with_config(SamplerConfig {
                    max_iterations: 100_000,
                })
                .with_pruning();
            // Warm-up: pay compilation-adjacent one-time costs (prune
            // plan, lowering, worker-pool spawn) outside the timed
            // region.
            sampler
                .sample_batch(1, args.jobs)
                .unwrap_or_else(|e| panic!("{name}: warm-up failed: {e}"));
            let start = std::time::Instant::now();
            sampler
                .sample_batch(args.n, args.jobs)
                .unwrap_or_else(|e| panic!("{name}: sampling failed: {e}"));
            let elapsed = start.elapsed().as_secs_f64();
            let stats = sampler.stats();
            let run = Run {
                scenario: name,
                world: world_name,
                engine,
                scenes: args.n,
                elapsed_ms: elapsed * 1000.0,
                scenes_per_sec: args.n as f64 / elapsed,
                iterations_per_scene: stats.iterations as f64 / stats.scenes.max(1) as f64,
            };
            println!(
                "  {:<18} ({}, {}):  {:>8.1} scenes/s, {:>6.2} iters/scene, {:>8.1} ms total",
                run.scenario,
                run.world,
                run.engine,
                run.scenes_per_sec,
                run.iterations_per_scene,
                run.elapsed_ms
            );
            runs.push(run);
        }
    }
    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&runs, &args)).unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("wrote {path}");
    }
}
