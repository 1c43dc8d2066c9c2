//! End-to-end CLI contract tests, driving the real `mtm` binary.
//!
//! Pinned here:
//! * `mtm spread` exit codes — 0 every node informed, 1 incomplete within
//!   the round budget, 2 usage error (previously asserted only in CI shell
//!   one-liners, which cannot distinguish 1 from 2);
//! * `--threads` is not a flag of `elect`, `serve` or `spread` (the round
//!   executor is single-threaded; trial fan-out lives in `experiment`);
//! * `--backend event` determinism: same seed ⇒ byte-identical stdout,
//!   different seed ⇒ different timing; flag validation for the
//!   lockstep-only options;
//! * `mtm experiment` — the only ad hoc experiment front end: header line,
//!   CSV output, and exit codes 0 success, 1 CSV write failure, 2 usage
//!   error;
//! * `mtm check` — the only model-checker front end: exit 3 with an
//!   engine-confirmed witness for the A1 β=1 deadlock, exit 0 for the
//!   certification matrix.

use std::process::{Command, Output};

fn mtm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtm")).args(args).output().expect("mtm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("mtm prints UTF-8")
}

#[test]
fn spread_exit_0_when_informed() {
    let out = mtm(&["spread", "push-pull", "clique", "8", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("all 8 nodes informed"));
}

#[test]
fn spread_exit_1_when_incomplete() {
    // One round cannot inform a 64-cycle.
    let out = mtm(&["spread", "push-pull", "cycle", "64", "--seed", "1", "--max-rounds", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("rumor incomplete"));
}

#[test]
fn spread_exit_2_on_usage_errors() {
    // Unknown algorithm.
    assert_eq!(mtm(&["spread", "flood", "clique", "8"]).status.code(), Some(2));
    // Missing algorithm entirely.
    assert_eq!(mtm(&["spread"]).status.code(), Some(2));
    // Unknown family.
    assert_eq!(mtm(&["spread", "push-pull", "nonagon", "8"]).status.code(), Some(2));
    // Unknown flag.
    assert_eq!(mtm(&["spread", "push-pull", "clique", "8", "--frobnicate"]).status.code(), Some(2));
    // The classical baseline needs accept-all, which the event backend
    // does not model.
    assert_eq!(
        mtm(&["spread", "classical", "clique", "8", "--backend", "event"]).status.code(),
        Some(2)
    );
    // Unknown backend name.
    assert_eq!(
        mtm(&["spread", "push-pull", "clique", "8", "--backend", "quantum"]).status.code(),
        Some(2)
    );
}

#[test]
fn threads_flag_is_a_usage_error_on_single_runs() {
    // A single run has one round executor; an accepted-but-ignored
    // `--threads` would promise a speedup that does not exist.
    for cmd in [
        &["elect", "blind", "expander8", "64"][..],
        &["serve", "expander8", "64", "--rounds", "10"][..],
        &["spread", "ppush", "expander8", "64"][..],
    ] {
        let out = mtm(&[cmd, &["--threads", "2"][..]].concat());
        assert_eq!(out.status.code(), Some(2), "{cmd:?} must reject --threads");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag: --threads"), "{cmd:?}: {stderr}");
    }
}

#[test]
fn event_backend_same_seed_same_output() {
    let args = &["spread", "push-pull", "expander8", "64", "--backend", "event", "--seed", "9"];
    let a = mtm(args);
    let b = mtm(args);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(stdout(&a), stdout(&b), "event backend must be deterministic per seed");

    let c = mtm(&["spread", "push-pull", "expander8", "64", "--backend", "event", "--seed", "10"]);
    assert_ne!(stdout(&a), stdout(&c), "different seeds should give different timings");
}

#[test]
fn elect_event_backend_completes_and_validates_flags() {
    let out = mtm(&["elect", "blind", "expander8", "64", "--backend", "event", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("stabilized at tick"));

    // Lockstep-only flags are rejected, not silently ignored.
    for extra in [&["--tau", "4"][..], &["--detect-stuck"][..]] {
        let mut args = vec!["elect", "blind", "cycle", "16", "--backend", "event"];
        args.extend_from_slice(extra);
        assert_eq!(mtm(&args).status.code(), Some(2), "{extra:?} must be rejected under event");
    }
}

/// `mtm experiment f6` at quick scale with two trials, plus `extra` flags.
fn experiment_f6(extra: &[&str]) -> Output {
    mtm(&[&["experiment", "f6", "--quick", "--trials", "2", "--seed", "3"][..], extra].concat())
}

#[test]
fn experiment_prints_registry_header_and_writes_csv() {
    let csv = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-experiment-f6.csv");
    let _ = std::fs::remove_file(&csv);
    let out = experiment_f6(&["--csv", csv.to_str().expect("temp path is UTF-8")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let title = mtm_experiments::registry::find("f6").expect("f6 is registered").title;
    let text = stdout(&out);
    assert!(text.starts_with(&format!("== F6: {title} ==\n")), "stdout: {text}");
    let body = std::fs::read_to_string(&csv).expect("the CSV file was written");
    assert!(!body.is_empty(), "CSV is empty");
}

#[test]
fn experiment_exit_2_on_usage_errors() {
    assert_eq!(mtm(&["experiment", "t99", "--quick"]).status.code(), Some(2), "unknown id");
    assert_eq!(experiment_f6(&["--bogus"]).status.code(), Some(2), "unknown flag");
}

#[test]
fn experiment_exit_1_when_csv_write_fails() {
    let csv = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/f6.csv");
    let out = experiment_f6(&["--csv", csv.to_str().expect("temp path is UTF-8")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write"), "stderr: {stderr}");
}

#[test]
fn check_finds_the_beta1_deadlock_and_replays_it() {
    let out =
        mtm(&["check", "--protocol", "blind-gossip", "--beta", "1", "--topology", "clique:4"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("engine replay confirms"));
}

#[test]
fn check_certify_passes() {
    let out = mtm(&["check", "--certify"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("certification matrix: PASS"));
}
