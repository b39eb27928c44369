//! Command-line contract of the `bench_*` binaries: `--help` prints
//! usage and exits 0, and a bad argument is one line on stderr with
//! exit status 2 — never a panic with a backtrace. None of these runs
//! reach the timed part, so they stay fast.

use std::process::{Command, Output};

const BINS: [&str; 2] = [
    env!("CARGO_BIN_EXE_bench_sampling"),
    env!("CARGO_BIN_EXE_bench_load"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"))
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in BINS {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage: bench_"), "{bin}: {stdout}");
            assert!(out.stderr.is_empty(), "{bin} {flag} wrote to stderr");
        }
    }
}

#[test]
fn bad_arguments_are_one_line_and_exit_two() {
    let cases: [&[&str]; 4] = [&["--bogus"], &["-n"], &["-n", "many"], &["--seed"]];
    for bin in BINS {
        for args in cases {
            let out = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} wrote to stdout");
        }
    }
}

#[test]
fn bad_engine_is_a_usage_error() {
    let out = run(BINS[0], &["--engine", "jit"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown engine `jit`"), "{stderr}");
}
