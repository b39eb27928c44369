//! Inputs, helpers and the result record shared by every workload.

use scenic_core::World;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// A bundled scenario and the world it compiles against.
#[derive(Debug, Clone, Copy)]
pub struct Scen {
    pub name: &'static str,
    pub world: &'static str,
    pub source: &'static str,
}

macro_rules! scen {
    ($name:literal, $world:literal) => {
        Scen {
            name: $name,
            world: $world,
            source: include_str!(concat!("../../scenarios/", $name, ".scenic")),
        }
    };
}

pub const MARS_BOTTLENECK: Scen = scen!("mars_bottleneck", "mars");
pub const SIMPLEST: Scen = scen!("simplest", "gta");
pub const TWO_CARS: Scen = scen!("two_cars", "gta");
pub const BADLY_PARKED: Scen = scen!("badly_parked", "gta");
pub const GTA_INTERSECTION: Scen = scen!("gta_intersection", "gta");
pub const GTA_ONCOMING: Scen = scen!("gta_oncoming", "gta");
pub const MARS_FORMATION: Scen = scen!("mars_formation", "mars");

/// The six scenarios that take few candidates per scene (everything
/// bundled except `mars_bottleneck`).
pub const CHEAP: [Scen; 6] = [
    SIMPLEST,
    TWO_CARS,
    BADLY_PARKED,
    GTA_INTERSECTION,
    GTA_ONCOMING,
    MARS_FORMATION,
];

/// Builds, fresh and once each, the worlds a scenario list needs,
/// through the world crates' public constructors.
pub fn build_worlds(scens: &[Scen]) -> BTreeMap<&'static str, World> {
    let mut worlds = BTreeMap::new();
    for s in scens {
        worlds.entry(s.world).or_insert_with(|| match s.world {
            "gta" => scenic_gta::World::generate(scenic_gta::MapConfig::default())
                .core()
                .clone(),
            _ => scenic_mars::world(),
        });
    }
    worlds
}

/// Worker threads of the timed operations and the replay: one, so that
/// an operation's CPU time is that of the thread that runs it.
pub const JOBS: usize = 1;

/// Run-wide settings from the command line and the host.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The host's core count: the pool's threads in the traced pool probe.
    pub nproc: usize,
    /// The run's command line, when the window is to time set-up in
    /// fresh child processes (untraced runs only).
    pub probe_args: Option<Vec<String>>,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// SplitMix64 of `seed` and `k`: the benchmark's own input-seed
/// derivation, independent of the program's scene-seed scheme.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a sequence of byte strings (over one scene's JSON this
/// equals `scenic_core::scene_digest`).
pub fn fnv(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in milliseconds. A virtual machine
/// whose host accounts steal time does not charge it here, nor does the
/// guest charge time the thread spent descheduled.
pub fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// One unit of the benchmark's fixed reference work: trigonometry and
/// square roots, hashing into growing vectors, and a sort, over a
/// deterministic stream. The program never runs it, so a change to the
/// program cannot change its cost; only the host's speed can.
pub fn reference_unit(seed: u64) -> u64 {
    type Fixed = BuildHasherDefault<DefaultHasher>;
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0f64;
    let mut buckets: HashMap<u64, Vec<f64>, Fixed> = HashMap::default();
    let mut all = Vec::with_capacity(4096);
    for i in 0..4096u64 {
        let (a, r) = (unit(next()) * std::f64::consts::TAU, unit(next()) * 100.0);
        let (px, py) = (a.cos() * r, a.sin() * r);
        acc += py.atan2(px) + px.hypot(py);
        buckets.entry(next() % 512).or_default().push(acc);
        all.push(acc * (i as f64).sqrt());
    }
    all.sort_by(f64::total_cmp);
    let sum: f64 = buckets.values().flatten().sum();
    black_box((acc + sum + all[all.len() / 2]).to_bits())
}

/// CPU milliseconds one reference unit takes on this thread: the mean
/// over `units` runs.
pub fn reference_unit_ms(units: usize) -> f64 {
    let started = thread_cpu_ms();
    for u in 0..units {
        reference_unit(u as u64 + 1);
    }
    (thread_cpu_ms() - started) / units as f64
}

/// Fresh processes whose set-up time `setup_s` is the median of.
pub const SETUP_PROBES: usize = 21;

/// Reference units a set-up probe runs right after the set-up, to price
/// it in.
pub const SETUP_PROBE_UNITS: usize = 10;

/// Seconds one reference unit is taken to last when `setup_s` converts
/// the set-up's cost back into seconds: what it took on the host the
/// bounds were set on, outside that host's fast state (see README.md).
pub const NOMINAL_UNIT_S: f64 = 0.65e-3;

/// Runs this benchmark's set-up alone in a fresh child process, since
/// process-wide memos (prelude and library parses) make any later
/// set-up in one process cheaper than the first. Returns the set-up's
/// wall seconds and its cost: its CPU time in reference units, timed in
/// the child right after it.
fn setup_probe(args: &[String]) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .arg("--setup-probe")
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let parsed: Option<Vec<f64>> = text.split_whitespace().map(|v| v.parse().ok()).collect();
    match parsed.as_deref() {
        Some(&[wall_s, cost]) => Ok((wall_s, cost)),
        _ => Err(format!("set-up probe printed {text:?}")),
    }
}

/// The timed window: operations `first, first + 1, …` back to back for
/// `ctx.seconds`, with `units` reference units run before the first and
/// after each. Records attempts, failures, and each successful
/// operation's cost: its CPU time in reference units, as timed on
/// either side of it. A host slowdown that outlasts an operation scales
/// both alike, so the cost follows the program, not the host. Reads
/// `peak_rss_mb` after `rss_after` operations, finishing them untimed if
/// the window holds fewer. With `ctx.probe_args`, runs `SETUP_PROBES`
/// set-up probes spread evenly over the window, between operations, so
/// that they sample the host across the run, not in one burst.
pub fn timed_window<T>(
    out: &mut Outcome,
    ctx: &Ctx,
    first: u64,
    units: usize,
    rss_after: u64,
    mut run: impl FnMut(u64) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut ops = Vec::new();
    let started = Instant::now();
    let mut before = reference_unit_ms(units);
    out.reference_unit_ms.push(before);
    let probe_every = ctx.seconds / SETUP_PROBES as f64;
    let mut k = first;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        if let Some(args) = &ctx.probe_args {
            if started.elapsed().as_secs_f64() >= out.setup_wall_s.len() as f64 * probe_every {
                let (wall_s, cost) = setup_probe(args)?;
                out.setup_wall_s.push(wall_s);
                out.setup_cost_ref.push(cost);
            }
        }
        out.attempted += 1;
        let cpu = thread_cpu_ms();
        let result = run(k);
        let cpu = thread_cpu_ms() - cpu;
        let after = reference_unit_ms(units);
        out.reference_unit_ms.push(after);
        match result {
            Ok(op) => {
                ops.push(op);
                out.cost_ref.push(cpu / ((before + after) / 2.0));
            }
            Err(err) => out.fail(err),
        }
        before = after;
        k += 1;
        if k == first + rss_after {
            out.peak_rss_mb = peak_rss_mb();
        }
    }
    for k in k..first + rss_after {
        run(k)?;
        out.peak_rss_mb = peak_rss_mb();
    }
    if let Some(args) = &ctx.probe_args {
        while out.setup_wall_s.len() < SETUP_PROBES {
            let (wall_s, cost) = setup_probe(args)?;
            out.setup_wall_s.push(wall_s);
            out.setup_cost_ref.push(cost);
        }
    }
    Ok(ops)
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Per-layer metric values by name, with their units.
pub type Layers = BTreeMap<String, (f64, &'static str)>;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Scenes accepted in the timed window.
    pub scenes: usize,
    /// Seconds the scenes took: summed operation time.
    pub busy_s: f64,
    /// Latency of every timed operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds of each set-up probe (untraced runs only).
    pub setup_wall_s: Vec<f64>,
    /// CPU time of each set-up probe in reference units (untraced runs
    /// only).
    pub setup_cost_ref: Vec<f64>,
    /// CPU time of every timed operation, in reference units.
    pub cost_ref: Vec<f64>,
    /// CPU milliseconds of one reference unit, timed before each timed
    /// operation and once after the last.
    pub reference_unit_ms: Vec<f64>,
    /// Timed operations attempted.
    pub attempted: usize,
    /// One line per failed operation or failed output check.
    pub failures: Vec<String>,
    /// `VmHWM` after a fixed amount of work, so that it does not grow
    /// with the number of operations a faster build fits in the window.
    pub peak_rss_mb: f64,
    /// Counts over the fixed warm-up prefix that must repeat exactly
    /// between runs at one seed.
    pub counters: BTreeMap<String, u64>,
    /// Workload parameters recorded with the result.
    pub config: BTreeMap<String, String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Per-layer facts that are not measurements (traced runs only).
    pub labels: BTreeMap<String, String>,
}

impl Outcome {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_string(), (value, unit));
    }
}
