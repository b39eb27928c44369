//! End-to-end tests of `scenic lint` and the unified diagnostics
//! pipeline: golden text output for the buggy fixtures (codes, spans,
//! and order are pinned exactly), JSON output shape, and the exit-code
//! contract (0 clean/warnings, 1 under `--deny warnings`, 2 on errors).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `scenic` from the repo root so fixture paths (and the file
/// names echoed in diagnostics) stay relative and stable.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenic"))
        .current_dir(repo_root())
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

fn write_scenario(name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("scenic-lint-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

/// The diagnostic codes in a text rendering, in output order.
fn codes_in(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| {
            let rest = l
                .strip_prefix("error[")
                .or_else(|| l.strip_prefix("warning["))
                .or_else(|| l.strip_prefix("info["))?;
            Some(rest.split(']').next().unwrap().to_string())
        })
        .collect()
}

const UNSAT: &str = "tests/fixtures/unsat_requirement.scenic";
const UNUSED: &str = "tests/fixtures/unused_shadow.scenic";
const USING: &str = "tests/fixtures/using_specifier.scenic";

#[test]
fn unsat_requirement_fixture_is_e101_with_exact_span() {
    let out = run(&["lint", UNSAT]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    // Golden: the exact E101 block, carets included.
    let golden = "\
error[E101]: statically-unsatisfiable-requirement: this requirement is false for every possible sample, so the scenario can never generate a scene
  --> tests/fixtures/unsat_requirement.scenic:4:1
   |
 4 | require (distance to other) < 0
   | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^
   = help: the condition's abstract value is definitely false; fix or remove it
";
    assert!(text.starts_with(golden), "golden mismatch:\n{text}");
    // Order: the error first, then the pruning notes (I203 from the
    // same requirement, then the three derivation decisions).
    assert_eq!(
        codes_in(&text),
        ["E101", "I203", "I201", "I201", "I201"],
        "{text}"
    );
}

#[test]
fn unused_and_shadowed_fixture_is_w001_then_w002() {
    let out = run(&["lint", UNUSED]);
    // Warnings alone do not fail the lint.
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let golden = "\
warning[W001]: unused-definition: `unusedSpot` is never used
  --> tests/fixtures/unused_shadow.scenic:4:1
   |
 4 | unusedSpot = OrientedPoint on road
   | ^^^^^^^^^^
   = help: remove the definition, or rename it `_unusedSpot` to keep it deliberately
warning[W002]: shadowed-binding: `limit` is rebound here, but the binding at line 5 was never read
  --> tests/fixtures/unused_shadow.scenic:6:1
   |
 6 | limit = 10
   | ^^^^^
   = help: remove the earlier `limit = ...` at line 5
";
    assert!(text.starts_with(golden), "golden mismatch:\n{text}");
    assert_eq!(
        codes_in(&text),
        ["W001", "W002", "I201", "I201", "I201"],
        "{text}"
    );
    // The per-file tally goes to stderr, not into the golden stdout.
    assert!(
        stderr(&out).contains("0 error(s), 2 warning(s), 3 note(s)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn deny_warnings_turns_warnings_into_exit_1() {
    let out = run(&["lint", UNUSED, "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    // Errors still dominate: the unsat fixture stays exit 2.
    let out = run(&["lint", UNSAT, "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn specifier_used_only_through_using_is_not_w001() {
    let out = run(&["lint", USING, "--world", "bare", "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(!codes_in(&stdout(&out)).contains(&"W001".to_string()));
}

#[test]
fn clean_scenario_exits_zero_even_under_deny_warnings() {
    // Info-level pruning notes never affect the exit status.
    let out = run(&[
        "lint",
        "scenarios/badly_parked.scenic",
        "--deny",
        "warnings",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("info[I201]"), "{}", stdout(&out));
}

#[test]
fn all_bundled_scenarios_lint_clean() {
    for (file, world) in [
        ("scenarios/badly_parked.scenic", "gta"),
        ("scenarios/gta_intersection.scenic", "gta"),
        ("scenarios/gta_oncoming.scenic", "gta"),
        ("scenarios/mars_bottleneck.scenic", "mars"),
        ("scenarios/mars_formation.scenic", "mars"),
        ("scenarios/simplest.scenic", "gta"),
        ("scenarios/two_cars.scenic", "gta"),
    ] {
        let out = run(&["lint", file, "--world", world, "--deny", "warnings"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{file} is not lint-clean:\n{}",
            stdout(&out)
        );
    }
}

#[test]
fn gta_intersection_surfaces_the_distance_pruning_opportunity() {
    let out = run(&["lint", "scenarios/gta_intersection.scenic"]);
    let text = stdout(&out);
    assert!(text.contains("info[I203]: pruning-opportunity"), "{text}");
    assert!(text.contains("--max-distance 25"), "{text}");
}

#[test]
fn json_format_reports_codes_spans_and_nullable_fields() {
    let out = run(&["lint", UNSAT, "--format", "json"]);
    assert_eq!(out.status.code(), Some(2));
    let json = stdout(&out);
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.contains("\"code\": \"E101\""), "{json}");
    assert!(
        json.contains("\"span\": {\"line\": 4, \"col\": 1, \"end_line\": 4, \"end_col\": 32}"),
        "{json}"
    );
    // Spanless pruning notes serialize span as null.
    assert!(json.contains("\"span\": null"), "{json}");
    // The E101 object precedes every I2xx object.
    let e = json.find("E101").unwrap();
    let i = json.find("I201").unwrap();
    assert!(e < i, "{json}");
}

#[test]
fn unknown_lint_format_is_rejected() {
    let out = run(&["lint", UNSAT, "--format", "summary"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown lint format"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_deny_value_is_rejected() {
    let out = run(&["lint", UNSAT, "--deny", "notes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--deny"), "{}", stderr(&out));
}

#[test]
fn check_runs_the_analyzer_and_fails_on_e101() {
    let out = run(&["check", UNSAT]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("error[E101]"), "{}", stderr(&out));
    // Warnings are shown but do not fail `check`.
    let out = run(&["check", UNUSED]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("warning[W001]"), "{}", stderr(&out));
    assert!(stderr(&out).contains(": ok"), "{}", stderr(&out));
}

#[test]
fn parse_errors_render_through_the_unified_pipeline() {
    let path = write_scenario("parse_err.scenic", "ego = Car\nCar offset\n");
    let out = run(&["lint", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("error[E001]: parse-error"), "{text}");
    assert!(text.contains(":2:"), "position missing: {text}");
}

#[test]
fn runtime_errors_render_with_code_and_position() {
    // `Car` is undefined in the bare world: a runtime error, rendered
    // with its stable code and source line.
    let path = write_scenario("undef.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--world", "bare"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error[E003]: undefined-name"), "{err}");
    assert!(err.contains("`Car` is not defined"), "{err}");
    assert!(err.contains(":1:"), "{err}");
}

#[test]
fn sample_stats_surface_pruner_decisions_as_i201() {
    let out = run(&["sample", "scenarios/two_cars.scenic", "-n", "1", "--stats"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("info[I201]: pruner-disabled"), "{err}");
    // All three §5.2 pruners get a decision line.
    assert_eq!(err.matches("pruning disabled:").count(), 3, "{err}");
}

#[test]
fn lint_accepts_multiple_files_and_reports_the_worst() {
    // One clean file plus one erroring file: the error wins the exit
    // status, and both files' diagnostics are emitted.
    let out = run(&["lint", "scenarios/simplest.scenic", UNSAT]);
    assert_eq!(out.status.code(), Some(2));
    let text = stdout(&out);
    assert!(text.contains("simplest.scenic"), "{text}");
    assert!(text.contains("error[E101]"), "{text}");
}
