//! `scenic` — the command-line front end.
//!
//! Mirrors how the paper's tool flow (§2, Fig. 2) is driven in practice:
//! `.scenic` files go in, sampled scenes come out in a simulator's
//! input format.
//!
//! ```text
//! scenic check  <file>... [--world gta|mars|bare]
//! scenic lint   <file>... [--world W] [--deny warnings] [--format text|json]
//! scenic print  <file>...
//! scenic sample <file>... [--world W] [-n N] [--seed S] [--jobs J]
//!               [--repeat R] [--format json|gta|wbt|summary]
//!               [--out DIR] [--stats]
//! scenic exp    <name>... [--scale S] [--seed N] [--jobs J]
//!               [--json PATH] [--md PATH]
//! scenic serve  [--host H] [--port P]
//! scenic client <action> [<file>...] [--addr HOST:PORT] [sample options]
//! ```
//!
//! `check` parses, compiles, and runs the static analyzer (reporting
//! every diagnostic with rustc-style carets; analysis errors fail the
//! check), `lint` runs the same pass with lint-style exit codes (2 on
//! errors, 1 when `--deny warnings` and any warning fired, 0 otherwise)
//! and machine-readable `--format json`,
//! `print` re-emits the canonical pretty-printed source, and
//! `sample` draws `N` scenes by deterministic parallel rejection
//! sampling (`--jobs` workers on the persistent process pool; every
//! scene's RNG stream derives from `--seed` and the scene index, so the
//! output is byte-identical for any worker count) and writes them to
//! stdout (or one file per scene under `--out`).
//!
//! Repeated and multi-scenario runs compile each source once: all
//! compilations go through a [`ScenarioCache`] keyed by source content
//! and world, so `--repeat R` pays one compile for `R` sampling rounds
//! (round `r` re-roots the seed at `S + r`), and the same file listed
//! twice — or reached via two paths — is compiled once.
//!
//! `exp` reproduces the paper's evaluation: each named experiment (or
//! `all`) drives the full sample → render → train → evaluate pipeline
//! through [`scenic::bench::harness`], prints the paper-vs-measured
//! tables, and reduces the paper's qualitative claims to shape-check
//! verdicts. Exit code 0 means every check HOLDS, 1 that one was
//! VIOLATED (or the pipeline failed), 2 a usage error. `--json` /
//! `--md` write the `scenic-exp/v1` artifact and a markdown report —
//! both byte-identical across runs and `--jobs` values (timings go to
//! stderr only).
//!
//! `serve` runs `scenicd`, the long-running scenario daemon: one shared
//! worker pool and compiled-scenario cache serve every client, and
//! sampled scenes stream back as they complete. `client` talks to it;
//! `scenic client sample` output is **byte-identical** to
//! `scenic sample` for the same scenario, seed, and format (both render
//! through [`scenic::serve::format`], and scene RNG streams depend only
//! on the seed and scene index).

use scenic::core::cache::source_hash;
use scenic::core::compile::Engine;
use scenic::core::diag::{render_json, render_line, render_text, Diagnostic, Severity};
use scenic::core::prune::{PruneDecision, PrunePlan};
use scenic::core::sampler::{Sampler, SamplerConfig, SamplerStats};
use scenic::core::{
    analyze, batch_digest, ArtifactStore, LedgerKey, PruneParams, ScenarioCache, ScenicError,
    StoreError, World,
};
use scenic::prelude::{Scene, Vec2};
use scenic::serve::format::{file_extension, render_scene};
use scenic::serve::proto::{Request, Response, SampleRequest};
use scenic::serve::{Client, ClientError, Server};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A run-time failure: scenic-language errors carry the file and source
/// so `main` can render them through the diagnostics renderer; anything
/// else (IO, bad values) stays a plain message.
enum CliError {
    Scenic {
        file: String,
        source: String,
        err: ScenicError,
    },
    Other(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Other(message)
    }
}

fn scenic_err(file: &str, source: &str, err: ScenicError) -> CliError {
    CliError::Scenic {
        file: file.to_string(),
        source: source.to_string(),
        err,
    }
}

const USAGE: &str = "\
usage:
  scenic check  <file>... [--world gta|mars|bare]
  scenic lint   <file>... [--world gta|mars|bare] [--deny warnings]
                [--format text|json]
  scenic print  <file>...
  scenic sample <file>... [--world gta|mars|bare] [-n N] [--seed S]
                [--jobs J] [--repeat R] [--prune[=off]]
                [--engine ast|compiled]
                [--format json|gta|wbt|summary] [--out DIR]
                [--stats] [--ppm]
  scenic prune-report <file>... [--world W] [-n N] [--seed S] [--jobs J]
                [--min-radius R] [--heading LO,HI] [--heading-tolerance D]
                [--max-distance M] [--min-width W]
  scenic exp    <name>... [--scale S] [--seed N] [--jobs J]
                [--json PATH] [--md PATH]
  scenic store  verify [--store DIR]
  scenic serve  [--host H] [--port P]
  scenic client <action> [<file>...] [--addr HOST:PORT]
                [sample/lint options]

options:
  --world W     world/library to compile against (default: gta)
  --store DIR   on-disk artifact store directory. Default: the
                SCENIC_STORE environment variable, else ~/.cache/scenic
                (SCENIC_STORE=off, an empty value, or --no-store
                disables the store)
  --no-store    compile in-memory only; never touch the artifact store
  --deny warnings
                (lint) exit 1 when any warning fires
  -n N          number of scenes to sample (default: 1)
  --seed S      RNG seed (default: 0)
  --jobs J      sampling worker threads (default: all cores; output is
                identical for every J)
  --repeat R    sampling rounds per scenario (default: 1); each source
                is compiled once and round r uses seed S + r
  --prune[=off] run the §5.2 prune guards (default: on). Guards derive
                automatically from the scenario and never change which
                scenes are sampled — only how early doomed candidate
                runs are abandoned; --prune=off disables them
  --engine E    candidate evaluation engine: compiled (default) runs the
                lowered draw path (constants folded, library prefix
                hoisted, construction staged); ast runs the reference
                tree-walking interpreter. Scenes are byte-identical
                either way
  --format F    output format: sample takes json|gta|wbt|summary (default
                summary); lint takes text|json (default text)
  --out DIR     write one file per scene instead of stdout
  --stats       print rejection-sampling, pruning, and compile-cache
                statistics, and the time spent sampling, to stderr
  --ppm         also write a top-down scene_NNNN.ppm (needs --out)
  --scale S     (exp) dataset scale factor, positive (default 1.0)
  --json PATH   (exp) write the scenic-exp/v1 JSON artifact
  --md PATH     (exp) write a markdown report

`prune-report` regenerates the paper's Appendix D pruning comparison
from one guarded batch per scenario: candidates whose draws land
outside the pruned regions are counted (and abandoned early), so the
unpruned and pruned iterations-per-scene columns come from a single
run. Pruner parameters start from the derived ones and are overridden
by --min-radius (m), --heading LO,HI (deg, relative-heading interval
enabling orientation pruning), --heading-tolerance (deg),
--max-distance (m), and --min-width (m, enabling size pruning).

`store verify` audits the artifact store's digest ledger: every
recorded sampling run is replayed from the stored compiled artifact
and its batch digest compared against the pinned one. Entries whose
artifact is missing (or whose world this binary cannot rebuild) are
skipped with a warning; a digest mismatch is reported as diagnostic
E301 (store-digest-divergence) and exits 1.

`exp` reproduces the paper's evaluation tables/figures end-to-end
(sample → render → train → evaluate the surrogate detector). <name> is
one of table6, table7, table8, table9, table10, fig36, conditions,
pruning, ablation, or all. --scale scales dataset sizes (default 1.0);
--seed overrides the per-experiment default seeds; --json/--md write
the scenic-exp/v1 artifact and a markdown report (byte-identical for
any --jobs). Exit 0 iff every shape check HOLDS, 1 on a VIOLATED
check, 2 on usage errors.

`serve` runs scenicd, the long-running scenario daemon (--host default
127.0.0.1, --port default 7907): all clients share one worker pool and
one compiled-scenario cache, and sampled scenes stream back as they
complete. `client` sends one action to a running daemon:
  scenic client sample <file>...   sample via the daemon; output is
                byte-identical to `scenic sample` for the same options
                (-n, --seed, --jobs, --repeat, --prune, --engine,
                --format all apply; --timeout-ms sets the daemon-side
                request deadline)
  scenic client compile <file>...  warm the daemon's scenario cache
  scenic client lint <file>...     lint via the daemon
  scenic client status             summary daemon statistics
  scenic client stats              statistics with per-scenario rows
  scenic client health             liveness probe
  scenic client shutdown           graceful daemon shutdown
";

struct Options {
    command: String,
    files: Vec<String>,
    world: String,
    n: usize,
    seed: u64,
    /// Whether `--seed` was given explicitly (`exp` distinguishes
    /// per-experiment default seeds from a user override).
    seed_given: bool,
    /// `None` until `--jobs` is given: local sampling defaults to all
    /// cores, `client` sends 0 and lets the daemon choose.
    jobs: Option<usize>,
    repeat: usize,
    format: String,
    out: Option<String>,
    stats: bool,
    ppm: bool,
    /// `lint --deny warnings`: warnings fail the exit status.
    deny_warnings: bool,
    /// §5.2 prune guards during `sample` (on by default; guards never
    /// change the sampled scenes, only how early doomed runs die).
    prune: bool,
    /// Candidate evaluation engine for `sample` (compiled by default;
    /// scenes are byte-identical under either engine).
    engine: Engine,
    /// `prune-report` parameter overrides (on top of the derived ones).
    min_radius: Option<f64>,
    heading: Option<(f64, f64)>,
    heading_tolerance: Option<f64>,
    max_distance: Option<f64>,
    min_width: Option<f64>,
    /// `serve` bind host.
    host: String,
    /// `serve` bind port.
    port: u16,
    /// `client` daemon address.
    addr: String,
    /// `client sample` daemon-side request deadline override.
    timeout_ms: Option<u64>,
    /// `exp` dataset scale factor.
    scale: f64,
    /// `exp` machine-readable artifact path (`scenic-exp/v1` JSON).
    json_out: Option<String>,
    /// `exp` markdown report path.
    md_out: Option<String>,
    /// `--store DIR`: explicit artifact store directory.
    store: Option<String>,
    /// `--no-store`: never touch the on-disk artifact store.
    no_store: bool,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses the arguments after the program name. `Ok(None)` means help
/// was asked for: `--help`, `-h` or `help` in any position.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let args: Vec<String> = args.collect();
    if args
        .iter()
        .any(|a| matches!(a.as_str(), "--help" | "-h" | "help"))
    {
        return Ok(None);
    }
    let mut args = args.into_iter();
    let command = args.next().ok_or("missing command")?;
    let mut options = Options {
        command,
        files: Vec::new(),
        world: "gta".into(),
        n: 1,
        seed: 0,
        seed_given: false,
        jobs: None,
        repeat: 1,
        format: "summary".into(),
        out: None,
        stats: false,
        ppm: false,
        deny_warnings: false,
        prune: true,
        engine: Engine::default(),
        min_radius: None,
        heading: None,
        heading_tolerance: None,
        max_distance: None,
        min_width: None,
        host: "127.0.0.1".into(),
        port: 7907,
        addr: "127.0.0.1:7907".into(),
        timeout_ms: None,
        scale: 1.0,
        json_out: None,
        md_out: None,
        store: None,
        no_store: false,
    };
    let mut format_given = false;
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--world" => options.world = take("--world")?,
            "-n" => {
                options.n = take("-n")?
                    .parse()
                    .map_err(|_| "-n needs a positive integer")?;
            }
            "--seed" => {
                options.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
                options.seed_given = true;
            }
            "--scale" => {
                options.scale = take("--scale")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--scale needs a positive number")?;
            }
            "--json" => options.json_out = Some(take("--json")?),
            "--md" => options.md_out = Some(take("--md")?),
            "--jobs" => {
                options.jobs = Some(
                    take("--jobs")?
                        .parse()
                        .ok()
                        .filter(|j| *j > 0)
                        .ok_or("--jobs needs a positive integer")?,
                );
            }
            "--repeat" => {
                options.repeat = take("--repeat")?
                    .parse()
                    .ok()
                    .filter(|r| *r > 0)
                    .ok_or("--repeat needs a positive integer")?;
            }
            "--format" => {
                options.format = take("--format")?;
                format_given = true;
            }
            "--deny" => {
                let what = take("--deny")?;
                if what != "warnings" {
                    return Err(format!("unknown --deny value `{what}` (expected warnings)"));
                }
                options.deny_warnings = true;
            }
            "--out" => options.out = Some(take("--out")?),
            "--store" => options.store = Some(take("--store")?),
            "--no-store" => options.no_store = true,
            "--stats" => options.stats = true,
            "--ppm" => options.ppm = true,
            "--prune" | "--prune=on" => options.prune = true,
            "--prune=off" => options.prune = false,
            "--engine" => options.engine = take("--engine")?.parse()?,
            other if other.starts_with("--prune=") => {
                return Err(format!(
                    "unknown --prune value `{other}` (expected on or off)"
                ));
            }
            "--min-radius" => {
                options.min_radius = Some(
                    take("--min-radius")?
                        .parse()
                        .map_err(|_| "--min-radius needs a number (meters)")?,
                );
            }
            "--heading" => {
                let raw = take("--heading")?;
                let (lo, hi) = raw
                    .split_once(',')
                    .and_then(|(lo, hi)| Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?)))
                    .ok_or("--heading needs LO,HI in degrees (e.g. 150,210)")?;
                options.heading = Some((lo, hi));
            }
            "--heading-tolerance" => {
                options.heading_tolerance = Some(
                    take("--heading-tolerance")?
                        .parse()
                        .map_err(|_| "--heading-tolerance needs a number (degrees)")?,
                );
            }
            "--max-distance" => {
                options.max_distance = Some(
                    take("--max-distance")?
                        .parse()
                        .map_err(|_| "--max-distance needs a number (meters)")?,
                );
            }
            "--min-width" => {
                options.min_width = Some(
                    take("--min-width")?
                        .parse()
                        .map_err(|_| "--min-width needs a number (meters)")?,
                );
            }
            "--host" => options.host = take("--host")?,
            "--port" => {
                options.port = take("--port")?
                    .parse()
                    .map_err(|_| "--port needs a port number")?;
            }
            "--addr" => options.addr = take("--addr")?,
            "--timeout-ms" => {
                options.timeout_ms = Some(
                    take("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms needs a number (milliseconds)")?,
                );
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            _ => options.files.push(arg),
        }
    }
    if options.files.is_empty() && options.command != "serve" {
        return Err(match options.command.as_str() {
            "client" => {
                "client needs an action (sample, compile, lint, status, stats, health, shutdown)"
                    .into()
            }
            "store" => "store needs an action (verify)".into(),
            "exp" => format!(
                "exp needs an experiment name ({}, or all)",
                scenic::bench::harness::EXPERIMENT_IDS.join(", ")
            ),
            _ => "missing input file".into(),
        });
    }
    if options.command == "exp" {
        for name in &options.files {
            // Resolve names at parse time so typos exit 2 with usage.
            scenic::bench::harness::expand(name).map_err(|e| e.to_string())?;
        }
    }
    if !matches!(options.world.as_str(), "gta" | "mars" | "bare") {
        return Err(format!(
            "unknown world `{}` (expected gta, mars, or bare)",
            options.world
        ));
    }
    if options.ppm && options.out.is_none() {
        return Err("--ppm needs --out DIR".into());
    }
    if options.command == "lint" {
        if !format_given {
            options.format = "text".into();
        }
        if !matches!(options.format.as_str(), "text" | "json") {
            return Err(format!(
                "unknown lint format `{}` (expected text or json)",
                options.format
            ));
        }
    } else if !matches!(options.format.as_str(), "json" | "gta" | "wbt" | "summary") {
        return Err(format!(
            "unknown format `{}` (expected json, gta, wbt, or summary)",
            options.format
        ));
    }
    Ok(Some(options))
}

/// The compiled world plus whatever background polygons a top-down
/// rendering should show (the gta world's roads; nothing elsewhere).
struct LoadedWorld {
    core: World,
    background: Vec<scenic::geom::Polygon>,
}

fn build_world(name: &str) -> LoadedWorld {
    match name {
        "gta" => {
            let world = scenic::gta::World::generate(scenic::gta::MapConfig::default());
            LoadedWorld {
                core: world.core().clone(),
                background: world.map.road_polygons(),
            }
        }
        "mars" => LoadedWorld {
            core: scenic::mars::world(),
            background: Vec::new(),
        },
        _ => LoadedWorld {
            core: World::bare(),
            background: Vec::new(),
        },
    }
}

/// Resolves the on-disk artifact store for this invocation:
/// `--no-store` wins, then `--store DIR`, then the `SCENIC_STORE`
/// environment variable (`off` or an empty value disables), then the
/// default `~/.cache/scenic`. An explicitly requested directory that
/// cannot be opened is a hard error; the implicit default failing (no
/// home directory, unwritable cache) silently runs store-less — the
/// store is an optimization, not a dependency.
fn resolve_store(options: &Options) -> Result<Option<Arc<ArtifactStore>>, CliError> {
    if options.no_store {
        return Ok(None);
    }
    let explicit = options
        .store
        .clone()
        .or_else(|| std::env::var("SCENIC_STORE").ok());
    match explicit {
        Some(dir) if dir.is_empty() || dir == "off" => Ok(None),
        Some(dir) => ArtifactStore::open(&dir)
            .map(|store| Some(Arc::new(store)))
            .map_err(|e| CliError::Other(format!("store {dir}: {e}"))),
        None => Ok(ArtifactStore::default_dir()
            .and_then(|dir| ArtifactStore::open(dir).ok())
            .map(Arc::new)),
    }
}

/// A [`ScenarioCache`] layered over the resolved store (when any).
fn resolve_cache(options: &Options) -> Result<ScenarioCache, CliError> {
    Ok(match resolve_store(options)? {
        Some(store) => ScenarioCache::with_store(store),
        None => ScenarioCache::new(),
    })
}

/// Renders a 60 m top-down view centered on the ego.
fn write_ppm(
    scene: &Scene,
    background: &[scenic::geom::Polygon],
    path: &std::path::Path,
) -> Result<(), String> {
    let center = scene.ego().position_vec();
    let bounds = scenic::geom::Aabb::new(
        center - Vec2::new(30.0, 30.0),
        center + Vec2::new(30.0, 30.0),
    );
    let raster = scenic::sim::top_down(scene, background, bounds, 480, 480);
    raster
        .save_ppm(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_source(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))
}

/// The file-name stem a scenario's output files are prefixed with when
/// several scenarios share one `--out` directory.
fn file_stem(file: &str) -> String {
    std::path::Path::new(file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".into())
}

/// One output-name stem per input file, disambiguated so two files with
/// the same stem in different directories (`city/crossing.scenic`,
/// `rural/crossing.scenic`) never overwrite each other's scenes in a
/// shared `--out` directory: repeated stems get a positional suffix
/// (`crossing1`, `crossing2`, …).
fn unique_stems(files: &[String]) -> Vec<String> {
    let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for file in files {
        *counts.entry(file_stem(file)).or_default() += 1;
    }
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    files
        .iter()
        .map(|file| {
            let stem = file_stem(file);
            if counts[&stem] > 1 {
                let k = seen.entry(stem.clone()).or_default();
                *k += 1;
                format!("{stem}{k}")
            } else {
                stem
            }
        })
        .collect()
}

/// One sampling round of one scenario: draw `n` scenes, write them
/// out, and return the batch digest (for the store's audit ledger).
/// `total` gains the round's sampler statistics and `sampling` the
/// wall-clock time of the `sample_batch` call alone.
#[allow(clippy::too_many_arguments)]
fn sample_round(
    options: &Options,
    world: &LoadedWorld,
    scenario: &scenic::core::Scenario,
    file: &str,
    source: &str,
    stem: &str,
    rep: usize,
    jobs: usize,
    total: &mut SamplerStats,
    sampling: &mut Duration,
) -> Result<u64, CliError> {
    let seed = options.seed.wrapping_add(rep as u64);
    let mut sampler = Sampler::new(scenario)
        .with_seed(seed)
        .with_engine(options.engine);
    if options.prune {
        sampler = sampler.with_pruning();
    }
    let start = Instant::now();
    let scenes = sampler
        .sample_batch(options.n, jobs)
        .map_err(|e| scenic_err(file, source, e))?;
    *sampling += start.elapsed();
    let digest = batch_digest(&scenes);
    // Per-scene output names must stay unique across scenarios and
    // rounds sharing one --out directory.
    let multi_file = options.files.len() > 1;
    let prefix = match (multi_file, options.repeat > 1) {
        (false, false) => String::new(),
        (false, true) => format!("r{rep:02}_"),
        (true, false) => format!("{stem}_"),
        (true, true) => format!("{stem}_r{rep:02}_"),
    };
    if options.out.is_none() && options.format == "summary" && (multi_file || options.repeat > 1) {
        println!("=== {file} (round {rep}, seed {seed}) ===");
    }
    for (i, scene) in scenes.iter().enumerate() {
        let text = render_scene(scene, &options.format);
        match &options.out {
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!(
                    "{prefix}scene_{i:04}.{}",
                    file_extension(&options.format)
                ));
                std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
                if options.ppm {
                    let ppm_path =
                        std::path::Path::new(dir).join(format!("{prefix}scene_{i:04}.ppm"));
                    write_ppm(scene, &world.background, &ppm_path)?;
                    eprintln!("wrote {}", ppm_path.display());
                }
            }
            None => {
                if options.n > 1 && options.format == "summary" {
                    println!("--- scene {i} ---");
                }
                print!("{text}");
            }
        }
    }
    total.merge(&sampler.stats());
    Ok(digest)
}

/// Pins one sampling round's batch digest in the store's audit ledger.
/// Divergence from an already-pinned digest is the loud, typed E301
/// failure; any other ledger trouble (unwritable directory, malformed
/// ledger file) degrades to a warning — sampling already succeeded.
fn record_round(
    store: &ArtifactStore,
    options: &Options,
    source: &str,
    rep: usize,
    jobs: usize,
    digest: u64,
) -> Result<(), CliError> {
    let key = LedgerKey {
        scenario: source_hash(source),
        world: options.world.clone(),
        seed: options.seed.wrapping_add(rep as u64),
        jobs,
        n: options.n,
        engine: options.engine.to_string(),
    };
    match store.record(&key, digest) {
        Ok(_) => Ok(()),
        Err(err @ StoreError::Divergence { .. }) => {
            let d = Diagnostic::global(scenic::core::Code::StoreDigestDivergence, err.to_string());
            eprintln!("{}", render_line(&d));
            Err(CliError::Other(
                "ledger digest divergence (see diagnostic above)".into(),
            ))
        }
        Err(err) => {
            eprintln!("warning: ledger not updated: {err}");
            Ok(())
        }
    }
}

/// One `module.name: pruner area -> area` table row per guard stage.
fn guard_table(plan: &PrunePlan) -> Vec<String> {
    let mut rows = Vec::new();
    for guard in &plan.guards {
        for effect in &guard.effects {
            rows.push(format!(
                "  {:<18} {:<12} {:>12.1} m² -> {:>12.1} m² ({:>5.1}% kept)",
                format!("{}.{}", guard.module, guard.name),
                effect.pruner.to_string(),
                effect.area_before,
                effect.area_after,
                100.0 * effect.kept_fraction(),
            ));
        }
    }
    rows
}

/// The `--stats` pruning section: the per-pruner region table plus the
/// guard rejection counters and the derived unpruned-vs-pruned
/// iteration rates (both measured from the same guarded run).
fn print_prune_stats(prune: bool, plans: &[(String, Arc<PrunePlan>)], total: &SamplerStats) {
    if !prune {
        eprintln!("pruning: off");
        return;
    }
    let guards: usize = plans.iter().map(|(_, p)| p.guards.len()).sum();
    if guards == 0 {
        eprintln!("pruning: on (no applicable guards — sampling unchanged)");
        return;
    }
    eprintln!("pruning: on ({guards} guard(s))");
    for (file, plan) in plans {
        if plan.is_empty() {
            continue;
        }
        eprintln!("  {file}:");
        for row in guard_table(plan) {
            eprintln!("  {row}");
        }
    }
    eprintln!(
        "  prune-guard rejections: {} containment, {} orientation, {} size",
        total.prune_containment_rejections,
        total.prune_orientation_rejections,
        total.prune_size_rejections,
    );
    eprintln!(
        "  iterations/scene: {:.1} unpruned-equivalent, {:.1} after pruning",
        total.iterations_per_scene(),
        total.full_iterations_per_scene(),
    );
}

/// The `--stats` derivation section: why each §5.2 pruner is on or off
/// for each scenario, as `I2xx` diagnostic lines (the same decisions
/// `scenic lint` reports).
fn print_prune_decisions(decisions: &[(String, Vec<PruneDecision>)]) {
    for (file, decs) in decisions {
        for dec in decs {
            let code = if dec.enabled {
                scenic::core::Code::PrunerEnabled
            } else {
                scenic::core::Code::PrunerDisabled
            };
            let d = Diagnostic::global(
                code,
                format!(
                    "{file}: {} pruning {}: {}",
                    dec.pruner,
                    if dec.enabled { "enabled" } else { "disabled" },
                    dec.reason
                ),
            );
            eprintln!("  {}", render_line(&d));
        }
    }
}

/// `prune-report`: the Appendix D comparison from one guarded batch per
/// scenario. The guard draws the exact unpruned candidate stream, so
/// `iterations` is the unpruned column and `full_iterations` (the
/// candidates that survived the pruned regions and were interpreted to
/// completion) is the pruned column — one run, both numbers.
fn prune_report(options: &Options, world: &LoadedWorld) -> Result<(), CliError> {
    let jobs = options.jobs.unwrap_or_else(default_jobs);
    let cache = ScenarioCache::new();
    println!("Appendix D pruning comparison (guard mode: one batch yields both columns)");
    for file in &options.files {
        let source = read_source(file)?;
        let scenario = cache
            .get_or_compile(&options.world, &source, &world.core)
            .map_err(|e| scenic_err(file, &source, e))?;
        // Derived parameters, overridden by the command-line knobs.
        let mut params: PruneParams = scenario.derived_prune_params();
        if let Some(r) = options.min_radius {
            params.min_radius = r;
        }
        if let Some((lo, hi)) = options.heading {
            params.relative_heading = Some((lo.to_radians(), hi.to_radians()));
        }
        if let Some(d) = options.heading_tolerance {
            params.heading_tolerance = d.to_radians();
        }
        if let Some(m) = options.max_distance {
            params.max_distance = m;
        }
        if let Some(w) = options.min_width {
            params.min_width = Some(w);
        }
        let plan = scenario.prune_plan_with(&params);
        println!(
            "{file}: world {}, n={}, seed={}, jobs={jobs}",
            options.world, options.n, options.seed
        );
        if plan.is_empty() {
            println!("  no applicable pruned regions: both columns are equal");
        } else {
            for row in guard_table(&plan) {
                println!("{row}");
            }
        }
        let mut sampler = Sampler::new(&scenario)
            .with_seed(options.seed)
            .with_config(SamplerConfig {
                max_iterations: 100_000,
            })
            .with_prune_params(&params);
        let start = std::time::Instant::now();
        sampler
            .sample_batch(options.n, jobs)
            .map_err(|e| scenic_err(file, &source, e))?;
        let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
        let stats = sampler.stats();
        let unpruned = stats.iterations_per_scene();
        let pruned = stats.full_iterations_per_scene();
        println!(
            "  iters/scene: {:.1} unpruned, {:.1} pruned ({:.2}x fewer); \
             {} of {} candidates guard-pruned; {:.1} ms/scene wall-clock",
            unpruned,
            pruned,
            unpruned / pruned,
            stats.prune_rejections(),
            stats.iterations,
            elapsed_ms / options.n.max(1) as f64,
        );
    }
    Ok(())
}

fn client_err(e: ClientError) -> CliError {
    CliError::Other(e.to_string())
}

/// The `--stats` disk-tier section: per-tier counters of the artifact
/// store plus the audit-ledger activity, or `store: off`.
fn print_store_stats(store: Option<&Arc<ArtifactStore>>) {
    match store {
        Some(store) => {
            eprintln!(
                "store {}: {} disk hit(s), {} disk miss(es), {} corrupt entr{}, {} write(s)",
                store.base().display(),
                store.disk_hits(),
                store.disk_misses(),
                store.corrupt_entries(),
                if store.corrupt_entries() == 1 {
                    "y"
                } else {
                    "ies"
                },
                store.writes(),
            );
            eprintln!(
                "ledger: {} digest(s) recorded, {} confirmed",
                store.ledger_recorded(),
                store.ledger_confirmed(),
            );
        }
        None => eprintln!("store: off"),
    }
}

/// `store verify`: replay every ledger entry from the stored artifact
/// and compare batch digests. Skips (with a stderr warning) entries
/// whose artifact is gone or whose world/engine this binary cannot
/// rebuild; reports divergences as E301 diagnostics and exits 1.
fn store_verify(options: &Options) -> Result<ExitCode, CliError> {
    let store = resolve_store(options)?.ok_or_else(|| {
        CliError::Other(
            "store verify: no store configured (pass --store DIR or set SCENIC_STORE)".into(),
        )
    })?;
    let entries = store.ledger_entries().map_err(|e| e.to_string())?;
    let total = entries.len();
    let mut worlds: std::collections::HashMap<String, LoadedWorld> =
        std::collections::HashMap::new();
    let (mut verified, mut skipped) = (0usize, 0usize);
    let mut diverged = false;
    for (key, recorded) in entries {
        if !matches!(key.world.as_str(), "gta" | "mars" | "bare") {
            eprintln!(
                "skipping {:016x} ({}): this binary cannot rebuild that world",
                key.scenario, key.world
            );
            skipped += 1;
            continue;
        }
        let engine = match key.engine.parse::<Engine>() {
            Ok(engine) => engine,
            Err(_) => {
                eprintln!(
                    "skipping {:016x} ({}): unknown engine `{}`",
                    key.scenario, key.world, key.engine
                );
                skipped += 1;
                continue;
            }
        };
        let world = worlds
            .entry(key.world.clone())
            .or_insert_with(|| build_world(&key.world));
        let Some(scenario) = store.load_by_hash(&key.world, key.scenario, &world.core) else {
            eprintln!(
                "skipping {:016x} ({}): artifact not in store (evicted or never written here)",
                key.scenario, key.world
            );
            skipped += 1;
            continue;
        };
        let mut sampler = Sampler::new(&scenario)
            .with_seed(key.seed)
            .with_engine(engine);
        let scenes = sampler
            .sample_batch(key.n, key.jobs.max(1))
            .map_err(|e| format!("resampling {:016x} ({}): {e}", key.scenario, key.world))?;
        let fresh = batch_digest(&scenes);
        if fresh == recorded {
            verified += 1;
        } else {
            let err = StoreError::Divergence {
                key,
                recorded,
                fresh,
            };
            let d = Diagnostic::global(scenic::core::Code::StoreDigestDivergence, err.to_string());
            eprintln!("{}", render_line(&d));
            diverged = true;
        }
    }
    println!(
        "store {}: {verified} of {total} ledger entr{} verified, {skipped} skipped, {} diverged",
        store.base().display(),
        if total == 1 { "y" } else { "ies" },
        total - verified - skipped,
    );
    Ok(if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `store`: audit subcommands for the on-disk artifact store.
fn store_command(options: &Options) -> Result<ExitCode, CliError> {
    let (action, _) = options
        .files
        .split_first()
        .expect("parse_args requires an action");
    match action.as_str() {
        "verify" => store_verify(options),
        other => Err(format!("unknown store action `{other}` (expected verify)").into()),
    }
}

/// `exp`: reproduce the paper's experiments through the shared harness.
/// Everything on stdout and in the `--json`/`--md` artifacts is
/// deterministic (identical across runs and `--jobs` values); timings
/// and work counters go to stderr.
fn exp_command(options: &Options) -> Result<ExitCode, CliError> {
    use scenic::bench::harness::{self, ExpConfig};
    use scenic::bench::report::{self, RunConfig};

    let cfg = ExpConfig {
        scale: options.scale,
        seed: options.seed_given.then_some(options.seed),
        jobs: options.jobs.unwrap_or_else(default_jobs),
    };
    let mut ids: Vec<&'static str> = Vec::new();
    for name in &options.files {
        for id in harness::expand(name).map_err(|e| e.to_string())? {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    // Persist experiment compiles across processes: repeated `exp`
    // runs skip straight to sampling.
    if let Some(store) = resolve_store(options)? {
        scenic::bench::install_store(store);
    }
    let world = scenic::bench::standard_world();
    let mut reports = Vec::new();
    for id in ids {
        let report = harness::run_experiment(id, &world, &cfg).map_err(|e| e.to_string())?;
        print!("{}", report.to_text());
        println!();
        eprintln!(
            "[{id}] {:.0} ms: {} scenes sampled, {} images rendered, {} sampler iterations",
            report.wall_ms,
            report.counters.scenes,
            report.counters.images,
            report.counters.iterations
        );
        reports.push(report);
    }
    let run_config = RunConfig {
        scale: cfg.scale,
        seed: cfg.seed,
    };
    if let Some(path) = &options.json_out {
        std::fs::write(path, report::to_json(&reports, &run_config))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &options.md_out {
        std::fs::write(path, report::to_markdown(&reports, &run_config))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if options.stats {
        let cache = scenic::bench::exp_cache();
        eprintln!(
            "compiled {} scenario(s), {} cache hit(s)",
            cache.misses(),
            cache.hits(),
        );
        print_store_stats(cache.store());
    }
    let held: usize = reports
        .iter()
        .flat_map(|r| &r.checks)
        .filter(|c| c.holds)
        .count();
    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    println!("{held}/{total} shape checks hold");
    Ok(if held == total {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `serve`: run the scenicd daemon on the calling thread until a client
/// asks it to shut down.
fn serve(options: &Options) -> Result<ExitCode, CliError> {
    let addr = format!("{}:{}", options.host, options.port);
    // A store-backed daemon cache survives restarts: a warm store
    // serves the first request after a restart without recompiling.
    let config = scenic::serve::ServerConfig {
        store: resolve_store(options)?,
        ..scenic::serve::ServerConfig::default()
    };
    let server = Server::bind_with(addr.as_str(), config).map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (and the CI smoke test) parse this line for the port, so
    // it must hit the pipe before the accept loop blocks.
    println!("scenicd listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())?;
    eprintln!("scenicd: shut down");
    Ok(ExitCode::SUCCESS)
}

/// Print a chunk of streamed output, exiting quietly if the reader
/// went away. Scenes arrive over seconds, so a downstream
/// `| head`-style consumer routinely closes the pipe mid-stream; that
/// is a normal end of output (exit 0, like other Unix streamers), not
/// a panic.
fn stream_print(text: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `client sample`: stream batches from the daemon, printing exactly
/// what `scenic sample` prints for the same options (same separators,
/// same renderer, same per-round seeds) — byte-identical output.
fn client_sample(options: &Options, client: &mut Client, files: &[String]) -> Result<(), CliError> {
    let multi_file = files.len() > 1;
    for file in files {
        let source = read_source(file)?;
        for rep in 0..options.repeat {
            let seed = options.seed.wrapping_add(rep as u64);
            if options.format == "summary" && (multi_file || options.repeat > 1) {
                stream_print(format_args!("=== {file} (round {rep}, seed {seed}) ===\n"));
            }
            let request = SampleRequest {
                source: source.clone(),
                world: options.world.clone(),
                name: file_stem(file),
                n: options.n,
                seed,
                jobs: options.jobs.unwrap_or(0),
                prune: options.prune,
                engine: options.engine.to_string(),
                format: options.format.clone(),
                timeout_ms: options.timeout_ms,
            };
            client
                .sample(&request, |i, text| {
                    if options.n > 1 && options.format == "summary" {
                        stream_print(format_args!("--- scene {i} ---\n"));
                    }
                    stream_print(format_args!("{text}"));
                })
                .map_err(client_err)?;
        }
    }
    Ok(())
}

/// `client`: one action against a running daemon.
fn client_command(options: &Options) -> Result<ExitCode, CliError> {
    let (action, files) = options
        .files
        .split_first()
        .expect("parse_args requires an action");
    let mut client = Client::connect_retry(options.addr.as_str(), Duration::from_secs(5))
        .map_err(|e| format!("{}: {e}", options.addr))?;
    match action.as_str() {
        "sample" => {
            if files.is_empty() {
                return Err("client sample needs at least one file".to_string().into());
            }
            client_sample(options, &mut client, files)?;
            Ok(ExitCode::SUCCESS)
        }
        "compile" => {
            if files.is_empty() {
                return Err("client compile needs at least one file".to_string().into());
            }
            for file in files {
                let source = read_source(file)?;
                match client
                    .request(&Request::Compile {
                        source,
                        world: options.world.clone(),
                    })
                    .map_err(client_err)?
                {
                    Response::Compiled {
                        cached,
                        source_hash,
                    } => println!(
                        "{file}: compiled ({}, hash {source_hash:016x})",
                        if cached { "cache hit" } else { "cached now" },
                    ),
                    other => return Err(format!("unexpected daemon reply: {other:?}").into()),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "lint" => {
            if files.is_empty() {
                return Err("client lint needs at least one file".to_string().into());
            }
            let mut any_error = false;
            for file in files {
                let source = read_source(file)?;
                match client
                    .request(&Request::Lint {
                        file: file.clone(),
                        source,
                        world: options.world.clone(),
                    })
                    .map_err(client_err)?
                {
                    Response::Lint {
                        text,
                        errors,
                        warnings,
                        infos,
                    } => {
                        print!("{text}");
                        eprintln!(
                            "{file}: {errors} error(s), {warnings} warning(s), {infos} note(s)"
                        );
                        any_error |= errors > 0;
                    }
                    other => return Err(format!("unexpected daemon reply: {other:?}").into()),
                }
            }
            Ok(if any_error {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
        "status" | "stats" => {
            let stats = client.stats(action == "stats").map_err(client_err)?;
            println!(
                "scenicd up {:.1} s: {} request(s), {} in flight, {} scene(s) served",
                stats.uptime_ms as f64 / 1000.0,
                stats.requests,
                stats.in_flight,
                stats.scenes_served,
            );
            println!(
                "cache: {} scenario(s), {} hit(s), {} miss(es); {} protocol error(s)",
                stats.cache_entries, stats.cache_hits, stats.cache_misses, stats.protocol_errors,
            );
            if !stats.store_dir.is_empty() {
                println!(
                    "store {}: {} disk hit(s), {} disk miss(es), {} corrupt, {} write(s)",
                    stats.store_dir,
                    stats.disk_hits,
                    stats.disk_misses,
                    stats.disk_corrupt,
                    stats.disk_writes,
                );
            }
            for (name, scenes) in &stats.per_scenario {
                println!("  {name}: {scenes} scene(s)");
            }
            Ok(ExitCode::SUCCESS)
        }
        "health" => {
            let uptime_ms = client.health().map_err(client_err)?;
            println!("ok (up {uptime_ms} ms)");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            client.shutdown().map_err(client_err)?;
            println!("scenicd shutting down");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown client action `{other}` (expected sample, compile, lint, status, stats, \
             health, or shutdown)"
        )
        .into()),
    }
}

fn run(options: &Options) -> Result<ExitCode, CliError> {
    match options.command.as_str() {
        "print" => {
            for file in &options.files {
                let source = read_source(file)?;
                let program = scenic::lang::parse(&source)
                    .map_err(|e| scenic_err(file, &source, ScenicError::Parse(e)))?;
                print!("{}", scenic::lang::print_program(&program));
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let world = build_world(&options.world);
            let cache = resolve_cache(options)?;
            let mut failed = false;
            for file in &options.files {
                let source = read_source(file)?;
                match cache.get_or_compile(&options.world, &source, &world.core) {
                    Ok(scenario) => {
                        let diags = analyze(&scenario);
                        // `check` reports problems; the I2xx pruning
                        // narration stays in `lint` and `--stats`.
                        let shown: Vec<Diagnostic> = diags
                            .iter()
                            .filter(|d| d.severity > Severity::Info)
                            .cloned()
                            .collect();
                        if !shown.is_empty() {
                            eprint!("{}", render_text(&shown, file, &source));
                        }
                        if shown.iter().any(|d| d.severity == Severity::Error) {
                            failed = true;
                        } else {
                            eprintln!("{file}: ok");
                        }
                    }
                    Err(err) => {
                        let d = Diagnostic::from_error(&err);
                        eprint!("{}", render_text(&[d], file, &source));
                        failed = true;
                    }
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "lint" => {
            let world = build_world(&options.world);
            let cache = resolve_cache(options)?;
            let mut any_error = false;
            let mut any_warning = false;
            for file in &options.files {
                let source = read_source(file)?;
                let diags = match cache.get_or_compile(&options.world, &source, &world.core) {
                    Ok(scenario) => analyze(&scenario),
                    Err(err) => vec![Diagnostic::from_error(&err)],
                };
                any_error |= diags.iter().any(|d| d.severity == Severity::Error);
                any_warning |= diags.iter().any(|d| d.severity == Severity::Warning);
                if options.format == "json" {
                    print!("{}", render_json(&diags, file));
                } else {
                    print!("{}", render_text(&diags, file, &source));
                    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
                    eprintln!(
                        "{file}: {} error(s), {} warning(s), {} note(s)",
                        count(Severity::Error),
                        count(Severity::Warning),
                        count(Severity::Info),
                    );
                }
            }
            Ok(if any_error {
                ExitCode::from(2)
            } else if any_warning && options.deny_warnings {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "sample" => {
            let world = build_world(&options.world);
            let jobs = options.jobs.unwrap_or_else(default_jobs);
            if let Some(dir) = &options.out {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            }
            // One cache for the whole invocation: a scenario listed
            // twice, or sampled for --repeat rounds, compiles once (and
            // prunes once: the plan is cached on the compiled scenario).
            // With a store resolved, the compile is skipped entirely
            // when a previous process persisted the same scenario.
            let cache = resolve_cache(options)?;
            let mut total = SamplerStats::default();
            let mut sampling = Duration::ZERO;
            let mut plans: Vec<(String, Arc<PrunePlan>)> = Vec::new();
            let mut decisions: Vec<(String, Vec<PruneDecision>)> = Vec::new();
            let stems = unique_stems(&options.files);
            for (file, stem) in options.files.iter().zip(&stems) {
                let source = read_source(file)?;
                for rep in 0..options.repeat {
                    let scenario = cache
                        .get_or_compile(&options.world, &source, &world.core)
                        .map_err(|e| scenic_err(file, &source, e))?;
                    if rep == 0 && options.stats {
                        if options.prune {
                            plans.push((file.clone(), scenario.prune_plan()));
                        }
                        decisions.push((file.clone(), scenario.derived_prune_decisions()));
                    }
                    let digest = sample_round(
                        options,
                        &world,
                        &scenario,
                        file,
                        &source,
                        stem,
                        rep,
                        jobs,
                        &mut total,
                        &mut sampling,
                    )?;
                    if let Some(store) = cache.store() {
                        record_round(store, options, &source, rep, jobs, digest)?;
                    }
                }
            }
            if options.stats {
                eprintln!("engine: {}", options.engine);
                eprintln!(
                    "{} scenes, {} iterations ({:.1}/scene); rejections: \
                     {} requirement, {} collision, {} containment, {} visibility",
                    total.scenes,
                    total.iterations,
                    total.iterations_per_scene(),
                    total.requirement_rejections,
                    total.collision_rejections,
                    total.containment_rejections,
                    total.visibility_rejections,
                );
                let secs = sampling.as_secs_f64();
                eprintln!(
                    "sampling: {} scene(s) in {:.3} ms ({:.1} scenes/s)",
                    total.scenes,
                    secs * 1000.0,
                    total.scenes as f64 / secs,
                );
                print_prune_stats(options.prune, &plans, &total);
                print_prune_decisions(&decisions);
                eprintln!(
                    "compiled {} scenario(s), {} cache hit(s)",
                    cache.misses(),
                    cache.hits(),
                );
                print_store_stats(cache.store());
            }
            Ok(ExitCode::SUCCESS)
        }
        "prune-report" => {
            let world = build_world(&options.world);
            prune_report(options, &world)?;
            Ok(ExitCode::SUCCESS)
        }
        "exp" => exp_command(options),
        "store" => store_command(options),
        "serve" => serve(options),
        "client" => client_command(options),
        other => Err(CliError::Other(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(options)) => match run(&options) {
            Ok(code) => code,
            Err(CliError::Scenic { file, source, err }) => {
                let d = Diagnostic::from_error(&err);
                eprint!("{}", render_text(&[d], &file, &source));
                ExitCode::FAILURE
            }
            Err(CliError::Other(message)) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
