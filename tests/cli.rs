//! End-to-end tests of the `scenic` command-line front end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scenic_bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenic")
}

fn write_scenario(name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("scenic-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    // Store off by default: these tests pin compile counts and stderr
    // byte-for-byte, which a warm user-level artifact store would
    // change. Store-specific tests opt back in with explicit --store.
    Command::new(scenic_bin())
        .env("SCENIC_STORE", "off")
        .args(args)
        .output()
        .expect("failed to launch scenic binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

/// Asserts that `args` print the usage to stdout, nothing to stderr, and
/// exit 0: help is not an error.
fn assert_help(args: &[&str]) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
    assert!(stdout(&out).starts_with("usage:"), "{args:?}");
    assert!(stdout(&out).contains("scenic sample"), "{args:?}");
    assert!(out.stderr.is_empty(), "{args:?} wrote to stderr");
}

#[test]
fn help_prints_usage() {
    for flag in ["--help", "-h", "help"] {
        assert_help(&[flag]);
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    // Help wins wherever it sits, even after a subcommand and arguments
    // that would otherwise be parsed (or rejected).
    let cases: [&[&str]; 4] = [
        &["sample", "f.scenic", "--help"],
        &["sample", "-n", "2", "-h"],
        &["check", "help"],
        &["sample", "f.scenic", "--bogus", "--help"],
    ];
    for args in cases {
        assert_help(args);
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    let path = write_scenario("usage.scenic", "ego = Car\n");
    let file = path.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["sample", file, "--bogus"],
        &["sample", file, "-n"],
        &["sample", file, "-n", "many"],
        &["sample", file, "--seed"],
    ];
    for args in cases {
        let out = run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn check_accepts_a_valid_scenario() {
    let path = write_scenario("ok.scenic", "ego = Car\nCar\n");
    let out = run(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("ok"));
}

#[test]
fn check_reports_parse_errors_with_position() {
    let path = write_scenario("bad.scenic", "ego = Car\nCar offset\n");
    let out = run(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
    assert!(stderr(&out).contains('2'), "line missing: {}", stderr(&out));
}

#[test]
fn check_with_bare_world_rejects_gta_classes() {
    let path = write_scenario("needs_gta.scenic", "ego = Car\n");
    let out = run(&["check", path.to_str().unwrap(), "--world", "bare"]);
    // `Car` only exists in the gta library; the bare world compiles
    // fine (binding happens at run time), so `check` still passes —
    // but sampling must fail cleanly.
    let sample = run(&["sample", path.to_str().unwrap(), "--world", "bare"]);
    assert!(out.status.success());
    assert_eq!(sample.status.code(), Some(1));
    assert!(stderr(&sample).contains("Car"), "{}", stderr(&sample));
}

#[test]
fn sample_summary_lists_every_object() {
    let path = write_scenario("two.scenic", "ego = Car\nCar\n");
    let out = run(&["sample", path.to_str().unwrap(), "--seed", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("Car").count(), 2, "{text}");
    assert!(text.contains("(ego)"), "{text}");
}

#[test]
fn sample_is_deterministic_per_seed() {
    let path = write_scenario("det.scenic", "ego = Car\nCar\n");
    let a = run(&["sample", path.to_str().unwrap(), "--seed", "9"]);
    let b = run(&["sample", path.to_str().unwrap(), "--seed", "9"]);
    let c = run(&["sample", path.to_str().unwrap(), "--seed", "10"]);
    assert_eq!(stdout(&a), stdout(&b));
    assert_ne!(stdout(&a), stdout(&c));
}

#[test]
fn sample_output_is_invariant_in_jobs() {
    let path = write_scenario("jobs.scenic", "ego = Car\nCar\n");
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let out = run(&[
            "sample",
            path.to_str().unwrap(),
            "-n",
            "4",
            "--seed",
            "6",
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "jobs={jobs}: {}", stderr(&out));
        outputs.push(stdout(&out));
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 2 changed the output");
    assert_eq!(outputs[0], outputs[2], "--jobs 8 changed the output");
}

#[test]
fn zero_jobs_is_rejected() {
    let path = write_scenario("jobs0.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--jobs"), "{}", stderr(&out));
}

/// Path of a bundled scenario under the repo's `scenarios/` directory.
fn bundled(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

#[test]
fn bundled_mars_formation_samples_in_parallel() {
    let out = run(&[
        "sample",
        bundled("mars_formation.scenic").to_str().unwrap(),
        "--world",
        "mars",
        "-n",
        "2",
        "--jobs",
        "4",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Lead rover (ego) plus the two wing rovers built by the `def`
    // helper.
    assert_eq!(text.matches("Rover").count(), 6, "{text}");
    assert!(text.contains("Goal"), "{text}");
}

#[test]
fn bundled_gta_intersection_samples_in_parallel() {
    let out = run(&[
        "sample",
        bundled("gta_intersection.scenic").to_str().unwrap(),
        "-n",
        "2",
        "--jobs",
        "4",
        "--seed",
        "5",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("Car").count(), 4, "{text}");
    assert!(stderr(&out).contains("2 scenes"), "{}", stderr(&out));
}

#[test]
fn sample_json_round_trips() {
    let path = write_scenario("json.scenic", "ego = Car\nCar\n");
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let scene = scenic::prelude::Scene::from_json(&stdout(&out)).expect("valid scene JSON");
    assert_eq!(scene.objects.len(), 2);
}

#[test]
fn sample_writes_files_with_out_dir() {
    let path = write_scenario("outdir.scenic", "ego = Car\nCar\n");
    let dir = std::env::temp_dir().join("scenic-cli-tests/out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "-n",
        "3",
        "--format",
        "gta",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 3);
    let first = std::fs::read_to_string(dir.join("scene_0000.gta.jsonl")).unwrap();
    assert!(first.contains("set_camera"), "{first}");
}

#[test]
fn sample_ppm_writes_rasters() {
    let path = write_scenario("ppm.scenic", "ego = Car\nCar\n");
    let dir = std::env::temp_dir().join("scenic-cli-tests/ppm");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "-n",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "--ppm",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let ppm = std::fs::read(dir.join("scene_0000.ppm")).unwrap();
    assert!(ppm.starts_with(b"P6"), "not a binary PPM");
    assert!(dir.join("scene_0001.ppm").exists());
}

#[test]
fn ppm_without_out_dir_is_rejected() {
    let path = write_scenario("ppm2.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--ppm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--ppm needs --out"));
}

#[test]
fn sample_stats_go_to_stderr() {
    let path = write_scenario("stats.scenic", "ego = Car\nCar\n");
    let out = run(&["sample", path.to_str().unwrap(), "-n", "2", "--stats"]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("2 scenes"), "{}", stderr(&out));
}

#[test]
fn stats_report_sampling_time_once_without_touching_stdout() {
    let a = write_scenario("timed_a.scenic", "ego = Car\nCar\n");
    let b = write_scenario("timed_b.scenic", "ego = Car\n");
    let args = [
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--repeat",
        "2",
        "-n",
        "3",
        "--jobs",
        "1",
        "--format",
        "json",
    ];
    let plain = run(&args);
    let with_stats = run(&[&args[..], &["--stats"]].concat());
    assert!(with_stats.status.success(), "{}", stderr(&with_stats));
    assert_eq!(plain.stdout, with_stats.stdout, "--stats changed stdout");
    let err = stderr(&with_stats);
    let lines: Vec<&str> = err.lines().filter(|l| l.starts_with("sampling:")).collect();
    // 2 files x 2 rounds x 3 scenes, summed into one line.
    assert_eq!(lines.len(), 1, "{err}");
    assert!(lines[0].starts_with("sampling: 12 scene(s) in "), "{err}");
    assert!(lines[0].ends_with(" scenes/s)"), "{err}");
}

#[test]
fn sample_mars_world() {
    let path = write_scenario(
        "rover.scenic",
        "ego = Rover at 0 @ -2\nGoal at (-2, 2) @ (2, 2.5)\n",
    );
    let out = run(&["sample", path.to_str().unwrap(), "--world", "mars"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("Rover"), "{}", stdout(&out));
}

#[test]
fn print_emits_reparsable_source() {
    let path = write_scenario(
        "pretty.scenic",
        "ego = Car\nCar offset by (-10, 10) @ (20, 40), facing 5 deg\n",
    );
    let out = run(&["print", path.to_str().unwrap()]);
    assert!(out.status.success());
    scenic::lang::parse(&stdout(&out)).expect("printed source parses");
}

#[test]
fn unknown_world_is_rejected() {
    let path = write_scenario("w.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--world", "moon"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown world"));
}

#[test]
fn unknown_format_is_rejected() {
    let path = write_scenario("f.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--format", "png"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown format"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&["check", "/nonexistent/path.scenic"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"));
}

#[test]
fn repeat_compiles_once_and_reroots_the_seed() {
    let path = write_scenario("repeat.scenic", "ego = Car\nCar\n");
    let repeated = run(&[
        "sample",
        path.to_str().unwrap(),
        "--seed",
        "4",
        "--repeat",
        "2",
        "--stats",
    ]);
    assert!(repeated.status.success(), "{}", stderr(&repeated));
    // One compile, one cache hit: the scenario compiled once for both
    // rounds.
    assert!(
        stderr(&repeated).contains("compiled 1 scenario(s), 1 cache hit(s)"),
        "{}",
        stderr(&repeated)
    );
    // Round r samples with seed S + r: the repeated run's scenes are
    // exactly the single-run outputs at seeds 4 and 5.
    let single_4 = run(&["sample", path.to_str().unwrap(), "--seed", "4"]);
    let single_5 = run(&["sample", path.to_str().unwrap(), "--seed", "5"]);
    let text = stdout(&repeated);
    assert!(text.contains(stdout(&single_4).trim()), "{text}");
    assert!(text.contains(stdout(&single_5).trim()), "{text}");
}

#[test]
fn identical_source_under_a_different_path_hits_the_cache() {
    let source = "ego = Car\nCar\n";
    let a = write_scenario("same_a.scenic", source);
    let b = write_scenario("same_b.scenic", source);
    let out = run(&[
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--seed",
        "1",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // The cache keys on content, not path: the second file is a hit.
    assert!(
        stderr(&out).contains("compiled 1 scenario(s), 1 cache hit(s)"),
        "{}",
        stderr(&out)
    );
    // Same world, same seed, same content: both files produce the same
    // scene.
    let text = stdout(&out);
    assert!(text.contains("same_a"), "{text}");
    assert!(text.contains("same_b"), "{text}");
}

#[test]
fn multi_file_sample_compiles_distinct_sources_separately() {
    let a = write_scenario("multi_a.scenic", "ego = Car\nCar\n");
    let b = write_scenario("multi_b.scenic", "ego = Car\nCar\nCar\n");
    let out = run(&[
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--seed",
        "2",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("compiled 2 scenario(s), 0 cache hit(s)"),
        "{}",
        stderr(&out)
    );
    assert_eq!(stdout(&out).matches("Car").count(), 5, "{}", stdout(&out));
}

#[test]
fn repeat_with_out_dir_prefixes_round_numbers() {
    let path = write_scenario("repout.scenic", "ego = Car\nCar\n");
    let dir = std::env::temp_dir().join("scenic-cli-tests/repeat-out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--repeat",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(dir.join("r00_scene_0000.txt").exists());
    assert!(dir.join("r01_scene_0000.txt").exists());
}

#[test]
fn same_stem_in_different_directories_does_not_collide_in_out_dir() {
    let base = std::env::temp_dir().join("scenic-cli-tests");
    for sub in ["city", "rural"] {
        std::fs::create_dir_all(base.join(sub)).unwrap();
    }
    let a = base.join("city/crossing.scenic");
    let b = base.join("rural/crossing.scenic");
    std::fs::write(&a, "ego = Car\n").unwrap();
    std::fs::write(&b, "ego = Car\nCar\n").unwrap();
    let dir = base.join("stem-out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Both scenarios' scenes survive under disambiguated stems.
    assert!(dir.join("crossing1_scene_0000.txt").exists());
    assert!(dir.join("crossing2_scene_0000.txt").exists());
}

#[test]
fn zero_repeat_is_rejected() {
    let path = write_scenario("rep0.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--repeat", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--repeat"), "{}", stderr(&out));
}

#[test]
fn check_accepts_multiple_files() {
    let a = write_scenario("chk_a.scenic", "ego = Car\n");
    let b = write_scenario("chk_b.scenic", "ego = Car\nCar\n");
    let out = run(&["check", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stderr(&out).matches(": ok").count(), 2, "{}", stderr(&out));
}

#[test]
fn prune_off_output_is_byte_identical_to_default() {
    // Guard-mode pruning (the default) must never change what gets
    // sampled — only how early doomed candidate runs are abandoned.
    let path = bundled("mars_bottleneck.scenic");
    let base = [
        "sample",
        path.to_str().unwrap(),
        "--world",
        "mars",
        "--seed",
        "4",
        "-n",
        "2",
        "--jobs",
        "2",
    ];
    let on = run(&base);
    let mut with_off = base.to_vec();
    with_off.push("--prune=off");
    let off = run(&with_off);
    assert!(on.status.success(), "{}", stderr(&on));
    assert!(off.status.success(), "{}", stderr(&off));
    assert_eq!(stdout(&on), stdout(&off));
}

#[test]
fn prune_stats_table_lists_guards_and_counters() {
    let path = bundled("mars_bottleneck.scenic");
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--world",
        "mars",
        "--seed",
        "4",
        "--prune",
        "--stats",
        "--jobs",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("pruning: on (1 guard(s))"), "{err}");
    assert!(err.contains("mars.ground"), "{err}");
    assert!(err.contains("containment"), "{err}");
    assert!(err.contains("prune-guard rejections:"), "{err}");
    assert!(err.contains("unpruned-equivalent"), "{err}");
}

#[test]
fn prune_off_and_unguarded_worlds_report_so_in_stats() {
    let path = bundled("mars_bottleneck.scenic");
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--world",
        "mars",
        "--prune=off",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("pruning: off"), "{}", stderr(&out));
    // The bare world has no prunable native regions: pruning stays on
    // but reports that it has nothing to do.
    let bare = write_scenario("noprune.scenic", "ego = Object at 0 @ 0\n");
    let out = run(&[
        "sample",
        bare.to_str().unwrap(),
        "--world",
        "bare",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no applicable guards"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn bogus_prune_value_is_rejected() {
    let path = write_scenario("prune_bogus.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--prune=sometimes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--prune"), "{}", stderr(&out));
}

/// The stable part of a prune-report output: everything except the
/// wall-clock field (the only non-deterministic column).
fn strip_wall_clock(report: &str) -> String {
    report
        .lines()
        .map(|line| match line.find(" ms/scene") {
            Some(_) => {
                let cut = line.rfind(';').unwrap_or(line.len());
                &line[..cut]
            }
            None => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn prune_report_regenerates_appendix_d_from_one_run() {
    let path = bundled("gta_oncoming.scenic");
    let args = [
        "prune-report",
        path.to_str().unwrap(),
        "--heading",
        "150,210",
        "--max-distance",
        "50",
        "-n",
        "5",
        "--seed",
        "7",
        "--jobs",
        "2",
    ];
    let out = run(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Table shape: the per-region area rows and the two iteration
    // columns derived from the one guarded batch.
    assert!(text.contains("gtaLib.road"), "{text}");
    assert!(text.contains("orientation"), "{text}");
    assert!(text.contains("% kept"), "{text}");
    assert!(text.contains("iters/scene:"), "{text}");
    assert!(text.contains("unpruned"), "{text}");
    assert!(text.contains("guard-pruned"), "{text}");
    // The §5.2 promise on this bottleneck scenario: strictly fewer full
    // interpreter runs per scene with pruning on.
    let line = text
        .lines()
        .find(|l| l.contains("iters/scene:"))
        .expect("no iters/scene line");
    let mut nums = line
        .split(&[' ', ','][..])
        .filter_map(|w| w.parse::<f64>().ok());
    let unpruned = nums.next().expect("unpruned column");
    let pruned = nums.next().expect("pruned column");
    assert!(
        pruned < unpruned,
        "pruning did not reduce iterations/scene: {line}"
    );
    // Deterministic: a second run differs only in wall-clock.
    let again = run(&args);
    assert!(again.status.success());
    assert_eq!(strip_wall_clock(&text), strip_wall_clock(&stdout(&again)));
}

#[test]
fn prune_report_without_applicable_regions_says_so() {
    let path = write_scenario("prune_bare.scenic", "ego = Object at 0 @ 0\n");
    let out = run(&["prune-report", path.to_str().unwrap(), "--world", "bare"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("no applicable pruned regions"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn engine_ast_output_is_byte_identical_to_compiled_default() {
    // The compiled engine (the default) must sample the exact scenes
    // the reference interpreter samples — `--engine` only changes how
    // fast candidates evaluate, never what comes out.
    let path = bundled("gta_oncoming.scenic");
    let base = [
        "sample",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--seed",
        "6",
        "-n",
        "2",
        "--jobs",
        "2",
    ];
    let compiled = run(&base);
    let mut with_ast = base.to_vec();
    with_ast.extend(["--engine", "ast"]);
    let ast = run(&with_ast);
    assert!(compiled.status.success(), "{}", stderr(&compiled));
    assert!(ast.status.success(), "{}", stderr(&ast));
    assert_eq!(stdout(&compiled), stdout(&ast));
}

#[test]
fn engine_shows_in_stats_and_bogus_engine_is_rejected() {
    let path = write_scenario("eng.scenic", "ego = Object at 0 @ 0\n");
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--world",
        "bare",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("engine: compiled"),
        "{}",
        stderr(&out)
    );
    let bad = run(&[
        "sample",
        path.to_str().unwrap(),
        "--world",
        "bare",
        "--engine",
        "jit",
    ]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("unknown engine"), "{}", stderr(&bad));
}

#[test]
fn bad_engine_is_a_usage_error() {
    let path = write_scenario("bad_engine.scenic", "ego = Object at 0 @ 0\n");
    let out = run(&["sample", path.to_str().unwrap(), "--engine", "jit"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("unknown engine `jit`"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.stdout.is_empty(), "wrote to stdout");
}

// ---------------------------------------------------------------------
// scenicd: the serve/client commands end to end, over a real subprocess
// boundary (the in-process protocol tests live in tests/daemon.rs).
// ---------------------------------------------------------------------

/// Starts `scenic serve` on an ephemeral port and returns the child
/// plus the address parsed from its announcement line.
fn spawn_daemon() -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = Command::new(scenic_bin())
        .env("SCENIC_STORE", "off")
        .args(["serve", "--port", "0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("launch scenic serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announcement line");
    let addr = line
        .trim()
        .strip_prefix("scenicd listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_and_client_round_trip_byte_identically_with_direct_sampling() {
    let (mut child, addr) = spawn_daemon();
    let path = bundled("two_cars.scenic");
    let base = [
        path.to_str().unwrap(),
        "--world",
        "gta",
        "-n",
        "3",
        "--seed",
        "7",
        "--jobs",
        "2",
        "--format",
        "json",
    ];
    let mut client_args = vec!["client", "sample", "--addr", &addr];
    client_args.extend(base);
    let via_daemon = run(&client_args);
    assert!(via_daemon.status.success(), "{}", stderr(&via_daemon));
    let mut direct_args = vec!["sample"];
    direct_args.extend(base);
    let direct = run(&direct_args);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert_eq!(
        stdout(&via_daemon),
        stdout(&direct),
        "daemon-served scenes must be byte-identical to `scenic sample`"
    );

    let health = run(&["client", "health", "--addr", &addr]);
    assert!(health.status.success(), "{}", stderr(&health));
    assert!(stdout(&health).starts_with("ok"), "{}", stdout(&health));

    let stats = run(&["client", "stats", "--addr", &addr]);
    assert!(stats.status.success(), "{}", stderr(&stats));
    assert!(
        stdout(&stats).contains("two_cars: 3 scene(s)"),
        "{}",
        stdout(&stats)
    );

    let shutdown = run(&["client", "shutdown", "--addr", &addr]);
    assert!(shutdown.status.success(), "{}", stderr(&shutdown));
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
}

#[test]
fn client_without_daemon_fails_cleanly() {
    // Port 9 (discard) is never a scenicd; connect_retry gives up fast
    // on a refused connection.
    let out = run(&["client", "health", "--addr", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
}

#[test]
fn client_needs_an_action() {
    let out = run(&["client"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("client needs an action"),
        "{}",
        stderr(&out)
    );
}

// ---------------------------------------------------------------------
// scenic exp: the experiment harness front end. Golden-output tests at
// a tiny scale — the artifact must be byte-identical across runs, carry
// the scenic-exp/v1 schema with complete shape-check records, and the
// usual usage errors must exit 2 before any experiment runs.
// ---------------------------------------------------------------------

#[test]
fn exp_json_artifact_is_byte_identical_and_schema_complete() {
    let dir = std::env::temp_dir().join("scenic-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("exp_golden_a.json");
    let b = dir.join("exp_golden_b.json");
    let run_once = |path: &std::path::Path| {
        let out = run(&[
            "exp",
            "table6",
            "--scale",
            "0.02",
            "--json",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("shape check"), "{}", stdout(&out));
        std::fs::read(path).unwrap()
    };
    let first = run_once(&a);
    let second = run_once(&b);
    assert_eq!(first, second, "exp JSON artifact is not reproducible");

    let value: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&first).unwrap()).unwrap();
    let top = value.as_object().expect("artifact is an object");
    assert_eq!(
        top.get("schema").and_then(serde_json::Value::as_str),
        Some("scenic-exp/v1")
    );
    assert!(top.get("all_hold").is_some(), "all_hold missing");
    let experiments = top
        .get("experiments")
        .and_then(serde_json::Value::as_array)
        .expect("experiments array");
    assert_eq!(experiments.len(), 1);
    let exp = experiments[0].as_object().unwrap();
    assert_eq!(
        exp.get("id").and_then(serde_json::Value::as_str),
        Some("table6")
    );
    let checks = exp
        .get("checks")
        .and_then(serde_json::Value::as_array)
        .expect("checks array");
    assert!(!checks.is_empty(), "table6 must report shape checks");
    for check in checks {
        let check = check.as_object().expect("check is an object");
        for field in ["name", "holds", "detail"] {
            assert!(
                check.get(field).is_some(),
                "shape check missing field {field}"
            );
        }
    }
}

#[test]
fn exp_unknown_experiment_is_rejected_before_running() {
    let out = run(&["exp", "table99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown experiment"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn exp_zero_scale_is_rejected() {
    let out = run(&["exp", "table6", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--scale"), "{}", stderr(&out));
}

#[test]
fn exp_markdown_artifact_lists_tables_and_verdicts() {
    let dir = std::env::temp_dir().join("scenic-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let md_path = dir.join("exp_golden.md");
    let out = run(&[
        "exp",
        "fig36",
        "--scale",
        "0.02",
        "--md",
        md_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let md = std::fs::read_to_string(&md_path).unwrap();
    assert!(md.contains("# Scenic experiment reproduction"), "{md}");
    assert!(
        md.contains("**HOLDS**") || md.contains("**VIOLATED**"),
        "{md}"
    );
    assert!(md.contains("| source |"), "{md}");
}
