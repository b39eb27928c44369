//! Load benchmark for `scenicd`: N concurrent clients hammering one
//! daemon over a mixed scenario workload.
//!
//! By default the bench boots an in-process daemon on an ephemeral port
//! (so the numbers include the real socket + framing path but no
//! cross-machine noise); `--addr HOST:PORT` points it at an external
//! daemon instead. Each client thread issues `--requests` streaming
//! sample requests, cycling through the bundled scenarios from its own
//! offset so the daemon sees interleaved scenarios on every accept.
//!
//! Reported per run: aggregate scenes/second, request latency
//! percentiles (p50/p95/p99), and the daemon's cache hit rate over the
//! workload. `--json PATH` writes the committed `BENCH_load.json`
//! artifact (schema `scenic-bench-load/v1`) tracking serving throughput
//! across PRs.
//!
//! ```text
//! bench_load [--clients C] [--requests R] [-n N] [--seed S] [--jobs J]
//!            [--addr HOST:PORT] [--json PATH]
//! ```

use scenic_bench::{bench_args, flag_value};
use scenic_serve::proto::SampleRequest;
use scenic_serve::{Client, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SCENARIOS: &[(&str, &str)] = &[
    ("badly_parked", "gta"),
    ("gta_intersection", "gta"),
    ("gta_oncoming", "gta"),
    ("mars_bottleneck", "mars"),
    ("mars_formation", "mars"),
    ("simplest", "gta"),
    ("two_cars", "gta"),
];

struct Args {
    clients: usize,
    requests: usize,
    n: usize,
    seed: u64,
    jobs: usize,
    addr: Option<String>,
    json: Option<String>,
}

const USAGE: &str = "\
usage: bench_load [--clients C] [--requests R] [-n N] [--seed S] [--jobs J]
                  [--addr HOST:PORT] [--json PATH]
  --clients C        concurrent client threads (default 4)
  --requests R       sample requests per client (default 8)
  -n N               scenes per request (default 5)
  --seed S           root seed (default 0)
  --jobs J           daemon-side workers per request (default 2)
  --addr HOST:PORT   load an external daemon instead of an in-process one
  --json PATH        also write the scenic-bench-load/v1 artifact
";

fn parse_args(it: &mut dyn Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        clients: 4,
        requests: 8,
        n: 5,
        seed: 0,
        jobs: 2,
        addr: None,
        json: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--clients" => args.clients = flag_value(it, "--clients")?,
            "--requests" => args.requests = flag_value(it, "--requests")?,
            "-n" => args.n = flag_value(it, "-n")?,
            "--seed" => args.seed = flag_value(it, "--seed")?,
            "--jobs" => args.jobs = flag_value(it, "--jobs")?,
            "--addr" => args.addr = Some(flag_value(it, "--addr")?),
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

/// Latency percentile over a sorted sample (nearest-rank).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

struct ClientOutcome {
    scenes: usize,
    latencies_ms: Vec<f64>,
}

fn run_client(
    addr: &str,
    client_index: usize,
    args: &Args,
    sources: &[(String, String, String)],
) -> ClientOutcome {
    let mut client =
        Client::connect_retry(addr, Duration::from_secs(10)).expect("connect to daemon");
    let mut outcome = ClientOutcome {
        scenes: 0,
        latencies_ms: Vec::with_capacity(args.requests),
    };
    for k in 0..args.requests {
        let (name, world, source) = &sources[(client_index + k) % sources.len()];
        let request = SampleRequest {
            source: source.clone(),
            world: world.clone(),
            name: name.clone(),
            n: args.n,
            seed: args.seed.wrapping_add(k as u64),
            jobs: args.jobs,
            prune: true,
            engine: String::new(),
            format: "json".into(),
            timeout_ms: None,
        };
        let start = Instant::now();
        let (scenes, _iterations, _server_ms) = client
            .sample(&request, |_, _| {})
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        outcome
            .latencies_ms
            .push(start.elapsed().as_secs_f64() * 1000.0);
        outcome.scenes += scenes;
    }
    outcome
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = bench_args(USAGE, parse_args);
    let sources: Vec<(String, String, String)> = SCENARIOS
        .iter()
        .map(|&(name, world)| {
            let source = std::fs::read_to_string(scenario_path(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_string(), world.to_string(), source)
        })
        .collect();

    // In-process daemon unless --addr points at an external one.
    let (handle, addr) = match &args.addr {
        Some(addr) => (None, addr.clone()),
        None => {
            let server = Server::bind("127.0.0.1:0").expect("bind ephemeral port");
            let addr = server.local_addr().expect("local addr").to_string();
            (Some(server.spawn().expect("spawn daemon")), addr)
        }
    };
    println!(
        "bench_load: {} client(s) x {} request(s) x {} scene(s) against {addr} \
         (seed {}, jobs {})",
        args.clients, args.requests, args.n, args.seed, args.jobs
    );

    let wall_start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..args.clients)
            .map(|i| {
                let addr = addr.as_str();
                let args = &args;
                let sources = sources.as_slice();
                scope.spawn(move || run_client(addr, i, args, sources))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let wall_s = wall_start.elapsed().as_secs_f64();

    let total_scenes: usize = outcomes.iter().map(|o| o.scenes).sum();
    let total_requests: usize = outcomes.iter().map(|o| o.latencies_ms.len()).sum();
    let mut latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    let max = latencies.last().copied().unwrap_or(0.0);
    let scenes_per_sec = total_scenes as f64 / wall_s;

    // Cache effectiveness over the whole workload, from the daemon.
    let mut probe =
        Client::connect_retry(addr.as_str(), Duration::from_secs(10)).expect("connect for stats");
    let stats = probe.stats(true).expect("daemon stats");
    let lookups = stats.cache_hits + stats.cache_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        stats.cache_hits as f64 / lookups as f64
    };

    println!(
        "  {total_scenes} scenes in {:.1} ms wall ({scenes_per_sec:.1} scenes/s aggregate)",
        wall_s * 1000.0
    );
    println!(
        "  request latency: p50 {p50:.1} ms, p95 {p95:.1} ms, p99 {p99:.1} ms, \
         mean {mean:.1} ms, max {max:.1} ms"
    );
    println!(
        "  cache: {} hit(s) / {} miss(es) ({:.1}% hit rate); daemon served {} scene(s) total",
        stats.cache_hits,
        stats.cache_misses,
        hit_rate * 100.0,
        stats.scenes_served,
    );

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"schema\": \"scenic-bench-load/v1\",\n  \
             \"config\": {{\"clients\": {}, \"requests_per_client\": {}, \"n\": {}, \
             \"seed\": {}, \"jobs\": {}, \"scenarios\": {}}},\n  \
             \"totals\": {{\"requests\": {total_requests}, \"scenes\": {total_scenes}, \
             \"wall_ms\": {:.1}, \"scenes_per_sec\": {scenes_per_sec:.1}}},\n  \
             \"latency_ms\": {{\"p50\": {p50:.1}, \"p95\": {p95:.1}, \"p99\": {p99:.1}, \
             \"mean\": {mean:.1}, \"max\": {max:.1}}},\n  \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {hit_rate:.3}}}\n}}\n",
            args.clients,
            args.requests,
            args.n,
            args.seed,
            args.jobs,
            SCENARIOS.len(),
            wall_s * 1000.0,
            stats.cache_hits,
            stats.cache_misses,
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(handle) = handle {
        handle.shutdown().expect("daemon shutdown");
    }
}
