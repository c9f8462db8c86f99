//! End-to-end smoke tests of the `fbist` binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, unique to one test (test
/// name + pid + counter) and removed on drop, so tests running in
/// parallel never share or delete each other's files.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> TestDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fbist-cli-{test}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir is creatable");
        TestDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fbist(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn profiles_lists_paper_suite() {
    let (ok, stdout, _) = fbist(&["profiles"]);
    assert!(ok);
    for name in ["c499", "s1238", "s15850"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn reseed_on_embedded_circuit() {
    let (ok, stdout, _) = fbist(&["reseed", "c17", "--tau", "7"]);
    assert!(ok);
    assert!(stdout.contains("triplets"), "{stdout}");
    assert!(stdout.contains("necessary"), "{stdout}");
}

#[test]
fn gen_stats_roundtrip_through_file() {
    let dir = TestDir::new("gen-stats");
    let path = dir.join("tiny.bench");
    let path_s = path.to_str().unwrap();
    let (ok, _, stderr) = fbist(&["gen", "tiny64", "--out", path_s]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = fbist(&["stats", path_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("faults:"), "{stdout}");
}

#[test]
fn sweep_prints_one_row_per_tau() {
    let (ok, stdout, _) = fbist(&["sweep", "tiny64", "--taus", "0,7,31"]);
    assert!(ok);
    assert!(stdout.contains("test_length"));
    // three data rows
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .count();
    assert_eq!(rows, 3, "{stdout}");
}

#[test]
fn lp_export_is_wellformed() {
    let (ok, stdout, _) = fbist(&["lp", "c17", "--tau", "3"]);
    assert!(ok);
    assert!(stdout.starts_with("/* set covering:"));
    assert!(stdout.contains("min:"));
    assert!(stdout.contains(">= 1;"));
}

/// Like [`fbist`] but exposing the raw exit code, for subcommands with
/// more than two outcomes (`check`: 0 clean / 1 findings / 2 usage).
fn fbist_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_clean_circuit_exits_zero() {
    let (code, stdout, _) = fbist_code(&["check", "c17"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("check c17:"), "{stdout}");
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
}

#[test]
fn check_flags_findings_with_exit_one() {
    let dir = TestDir::new("check-findings");
    let path = dir.join("floating.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nz = BUFF(a)\n").unwrap();
    let (code, stdout, _) = fbist_code(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[floating-net]"), "{stdout}");
    assert!(stdout.contains("\"z\""), "{stdout}");
}

#[test]
fn check_json_is_machine_readable() {
    let (code, stdout, _) = fbist_code(&["check", "c17", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    assert!(line.starts_with("{\"circuit\":\"c17\""), "{stdout}");
    assert!(
        line.contains("\"summary\":{\"errors\":0,\"warnings\":0,\"infos\":0}"),
        "{stdout}"
    );
    assert!(line.contains("\"findings\":[]"), "{stdout}");
    assert!(line.ends_with("}}"), "{stdout}");
}

/// Pins the `testability` JSON schema consumed by dashboards: a
/// `hard_nets` array whose entries carry the SCOAP numbers in a fixed
/// key order (`net`, `stuck`, `difficulty`, `cc0`, `cc1`, `co`).
#[test]
fn check_json_testability_schema_is_stable() {
    let (code, stdout, _) = fbist_code(&["check", "c17", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    let (_, tail) = line
        .split_once("\"testability\":{\"hard_nets\":[")
        .unwrap_or_else(|| panic!("no testability section: {stdout}"));
    // c17 is fully observable, so the hardest-site list is non-empty.
    let entry = tail
        .split('}')
        .next()
        .unwrap_or_else(|| panic!("empty hard_nets: {stdout}"));
    let positions: Vec<usize> = [
        "\"net\":",
        "\"stuck\":",
        "\"difficulty\":",
        "\"cc0\":",
        "\"cc1\":",
        "\"co\":",
    ]
    .iter()
    .map(|k| {
        entry
            .find(k)
            .unwrap_or_else(|| panic!("missing {k} in {entry}"))
    })
    .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "key order drifted: {entry}"
    );
}

#[test]
fn check_json_reports_findings_with_severities() {
    let dir = TestDir::new("check-json-findings");
    let path = dir.join("redundant.bench");
    // OR(a, NOT a) is constant 1: an info-level untestable-fault finding,
    // which must NOT flip the exit code
    std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n").unwrap();
    let (code, stdout, _) = fbist_code(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(
        code,
        Some(0),
        "info findings must not fail the check: {stdout}"
    );
    assert!(
        stdout.contains("\"code\":\"untestable-faults\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"severity\":\"info\""), "{stdout}");
}

#[test]
fn check_usage_errors_exit_two() {
    let (code, _, stderr) = fbist_code(&["check", "c99999"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    let (code, _, _) = fbist_code(&["check"]);
    assert_eq!(code, Some(2));
    for bad in [["--simd-width", "16"], ["--jobs", "abc"]] {
        let (code, _, stderr) = fbist_code(&["check", "c17", bad[0], bad[1]]);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
    }
}

#[test]
fn check_reports_cycles_from_bench_files_by_full_path() {
    let dir = TestDir::new("check-cycles");
    let path = dir.join("cyclic.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n").unwrap();
    let (code, _, stderr) = fbist_code(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "cycle is a parse error: {stderr}");
    for name in ["combinational cycle", "x", "y", "->"] {
        assert!(stderr.contains(name), "missing {name:?}: {stderr}");
    }
}

#[test]
fn atpg_static_prepass_keeps_coverage() {
    let (ok, out_off, _) = fbist(&["atpg", "tiny64"]);
    let (ok2, out_on, _) = fbist(&["atpg", "tiny64", "--static-prepass"]);
    assert!(ok && ok2);
    let coverage = |s: &str| {
        s.split("coverage ")
            .nth(1)
            .and_then(|t| t.split(' ').next())
            .map(str::to_owned)
    };
    assert_eq!(coverage(&out_off), coverage(&out_on), "{out_off}\n{out_on}");
}

#[test]
fn atpg_static_learning_keeps_coverage() {
    let (ok, out_off, _) = fbist(&["atpg", "tiny64"]);
    let (ok2, out_on, _) = fbist(&["atpg", "tiny64", "--static-learning"]);
    assert!(ok && ok2);
    let coverage = |s: &str| {
        s.split("coverage ")
            .nth(1)
            .and_then(|t| t.split(' ').next())
            .map(str::to_owned)
    };
    assert_eq!(coverage(&out_off), coverage(&out_on), "{out_off}\n{out_on}");
}

#[test]
fn reseed_takes_the_static_knobs() {
    let (ok, stdout, stderr) = fbist(&[
        "reseed",
        "tiny64",
        "--tau",
        "7",
        "--static-prepass",
        "--static-learning",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("triplets"), "{stdout}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (ok, _, stderr) = fbist(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_circuit_error_names_every_namespace() {
    let (ok, _, stderr) = fbist(&["reseed", "c99999"]);
    assert!(!ok);
    for namespace in [".bench", "profile", "embedded"] {
        assert!(stderr.contains(namespace), "missing {namespace}: {stderr}");
    }
}

/// A file or directory in the cwd named like a built-in profile must not
/// shadow the profile (it used to be read as a `.bench` file, yielding a
/// parse failure or a confusing `EISDIR`).
#[test]
fn profile_name_shadowed_by_cwd_entries_still_resolves() {
    let dir = TestDir::new("shadow");
    std::fs::create_dir_all(dir.join("tiny64")).unwrap(); // directory shadow
    std::fs::write(dir.join("mid256"), "not a bench file").unwrap(); // file shadow
    std::fs::write(dir.join("c17"), "garbage").unwrap(); // embedded shadow
    for name in ["tiny64", "mid256", "c17"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
            .args(["stats", name])
            .current_dir(dir.path())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name} shadowed: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("faults:"),
            "{name}: no stats output"
        );
    }
}

#[test]
fn explicit_directory_path_gets_a_clear_error() {
    let dir = TestDir::new("dirpath");
    std::fs::create_dir_all(dir.join("subdir")).unwrap();
    let path = dir.join("subdir");
    let (ok, _, stderr) = fbist(&["stats", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(
        stderr.contains("is a directory, not a .bench file"),
        "{stderr}"
    );
}

#[test]
fn backend_flag_never_changes_results() {
    let (ok_d, out_d, _) = fbist(&["reseed", "c17", "--tau", "7", "--backend", "dense"]);
    let (ok_s, out_s, _) = fbist(&["reseed", "c17", "--tau", "7", "--backend", "sparse"]);
    let (ok_a, out_a, _) = fbist(&["reseed", "c17", "--tau", "7", "--backend", "auto"]);
    assert!(ok_d && ok_s && ok_a);
    assert_eq!(out_d, out_s, "--backend must never change results");
    assert_eq!(out_d, out_a, "--backend must never change results");
}

#[test]
fn backend_flag_rejects_garbage_on_every_subcommand() {
    // validated globally (like --jobs): even subcommands that never solve
    // a cover must reject a typo instead of silently ignoring it
    for args in [
        ["reseed", "c17", "--backend", "turbo"],
        ["stats", "c17", "--backend", "turbo"],
        ["lp", "c17", "--backend", "spase"],
        ["check", "c17", "--backend", "turbo"],
    ] {
        let (ok, _, stderr) = fbist(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains("unknown backend"), "{args:?}: {stderr}");
    }
}

#[test]
fn matrix_build_flag_never_changes_results() {
    let (ok_p, out_p, _) = fbist(&["reseed", "c17", "--tau", "7", "--matrix-build", "per-row"]);
    let (ok_b, out_b, _) = fbist(&["reseed", "c17", "--tau", "7", "--matrix-build", "batched"]);
    let (ok_a, out_a, _) = fbist(&["reseed", "c17", "--tau", "7", "--matrix-build", "auto"]);
    assert!(ok_p && ok_b && ok_a);
    assert_eq!(out_p, out_b, "--matrix-build must never change results");
    assert_eq!(out_p, out_a, "--matrix-build must never change results");
}

#[test]
fn matrix_build_flag_rejects_garbage_on_every_subcommand() {
    // validated globally (like --jobs and --backend)
    for args in [
        ["reseed", "c17", "--matrix-build", "perrow"],
        ["stats", "c17", "--matrix-build", "rowwise"],
        ["sweep", "c17", "--matrix-build", "batch"],
        ["check", "c17", "--matrix-build", "rowwise"],
    ] {
        let (ok, _, stderr) = fbist(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("unknown matrix-build engine"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn unknown_flags_fail_naming_the_flag() {
    // a typo, or a knob that no longer exists like --sweep-engine, must
    // fail instead of running as if it were absent
    for (args, flag) in [
        (
            &["reseed", "c17", "--tau", "7", "--jobz", "4"][..],
            "--jobz",
        ),
        (
            &["reseed", "c17", "--tau", "7", "--taus-typo", "3"][..],
            "--taus-typo",
        ),
        (
            &["sweep", "tiny64", "--sweep-engine", "per-tau"][..],
            "--sweep-engine",
        ),
        (&["stats", "c17", "--tau", "3"][..], "--tau"),
        (&["check", "c17", "--jsn"][..], "--jsn"),
    ] {
        let (code, _, stderr) = fbist_code(args);
        assert_ne!(code, Some(0), "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{args:?}: {stderr}"
        );
    }
    // a flag without its value, a repeated flag and an extra argument are
    // malformed lines too, each named in the message
    for (args, message) in [
        (
            &["reseed", "c17", "--tau"][..],
            "flag --tau for `reseed` needs a value",
        ),
        (
            &["reseed", "c17", "--tau", "3", "--tau", "7"][..],
            "duplicate flag --tau ",
        ),
        (
            &["reseed", "c17", "--tpg", "lfsr", "--tpg", "add"][..],
            "duplicate flag --tpg ",
        ),
        (
            &["reseed", "c17", "extra", "7"][..],
            "unexpected argument \"extra\"",
        ),
        (
            &["atpg", "c17", "--static-prepass", "yes"][..],
            "unexpected argument \"yes\"",
        ),
        (
            &["reseed", "c17", "--no-store", "5"][..],
            "unexpected argument \"5\"",
        ),
    ] {
        let (code, _, stderr) = fbist_code(args);
        assert_ne!(code, Some(0), "{args:?} must fail");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // values that look like flags belong to the flag before them
    let (ok, _, stderr) = fbist(&["reseed", "c17", "--store", "--jobs"]);
    assert!(!ok);
    assert!(stderr.contains("expects a directory"), "{stderr}");
}

#[test]
fn closed_stdout_pipe_is_a_clean_exit() {
    // `gen xl7000` prints far more than a pipe buffer holds, so once
    // `head` has read one line and closed the pipe the next write hits
    // EPIPE; pipefail surfaces fbist's own exit status
    let out = Command::new("bash")
        .args([
            "-c",
            "set -o pipefail; \"$0\" gen xl7000 | head -n 1",
            env!("CARGO_BIN_EXE_fbist"),
        ])
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status.code());
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn sweep_rejects_empty_tau_list() {
    let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", ""]);
    assert!(!ok, "empty --taus must be rejected");
    assert!(stderr.contains("empty τ list"), "{stderr}");
    let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", "  "]);
    assert!(!ok);
    assert!(stderr.contains("empty τ list"), "{stderr}");
}

#[test]
fn sweep_rejects_malformed_tau_values() {
    for bad in ["1,,2", "1,banana", "-3"] {
        let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", bad]);
        assert!(!ok, "--taus {bad} must be rejected");
        assert!(stderr.contains("invalid τ value"), "--taus {bad}: {stderr}");
    }
}

#[test]
fn sweep_dedupes_tau_values_preserving_order() {
    // duplicates used to silently double the covering work; now each τ is
    // computed once and the table keeps first-occurrence order
    let (ok, stdout, _) = fbist(&["sweep", "tiny64", "--taus", "7,0,7,7,3"]);
    assert!(ok);
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    let taus: Vec<&str> = rows
        .iter()
        .map(|r| r.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(taus, ["7", "0", "3"], "{stdout}");
}

#[test]
fn tau_values_over_the_bound_are_rejected() {
    // τ > FlowConfig::MAX_TAU used to overflow τ + 1 in release builds
    let huge = usize::MAX.to_string();
    let (ok, _, stderr) = fbist(&["reseed", "c17", "--tau", &huge]);
    assert!(!ok, "--tau {huge} must be rejected");
    assert!(stderr.contains("exceeds the supported maximum"), "{stderr}");
    // the first value over the bound is rejected too (exact boundary —
    // MAX_TAU itself passing validation is pinned by the parse_taus unit
    // tests in the binary, where accepting it does not cost a 16M-pattern
    // expansion)
    let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", "0,16777216"]);
    assert!(!ok);
    assert!(stderr.contains("exceeds the supported maximum"), "{stderr}");
}

#[test]
fn jobs_flag_accepts_zero_as_auto() {
    let (ok, stdout, stderr) = fbist(&["reseed", "c17", "--tau", "3", "--jobs", "0"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("triplets"), "{stdout}");
}

#[test]
fn jobs_flag_accepts_explicit_count_with_identical_output() {
    let (ok1, out1, _) = fbist(&["reseed", "c17", "--tau", "3", "--jobs", "1"]);
    let (ok4, out4, _) = fbist(&["reseed", "c17", "--tau", "3", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(out1, out4, "--jobs must never change results");
}

#[test]
fn jobs_flag_rejects_garbage_with_clear_error() {
    for bad in ["banana", "-2", "1.5"] {
        let (ok, _, stderr) = fbist(&["reseed", "c17", "--jobs", bad]);
        assert!(!ok, "--jobs {bad} must be rejected");
        assert!(
            stderr.contains("invalid value for --jobs"),
            "--jobs {bad}: {stderr}"
        );
        assert!(stderr.contains("0 = auto"), "--jobs {bad}: {stderr}");
    }
}

#[test]
fn jobs_env_var_is_honoured_and_flag_beats_it() {
    // `fbist profiles` prints the resolved worker count, so the env path
    // is observable: a regression in the FBIST_JOBS lookup fails here
    let resolved = |args: &[&str], env_jobs: Option<&str>| -> String {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fbist"));
        cmd.args(args);
        if let Some(v) = env_jobs {
            cmd.env("FBIST_JOBS", v);
        }
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find(|l| l.starts_with("worker pool:"))
            .unwrap_or_else(|| panic!("no worker-pool line in {stdout}"))
            .to_owned()
    };
    assert!(resolved(&["profiles"], Some("2")).contains("worker pool: 2 jobs"));
    assert!(resolved(&["profiles", "--jobs", "5"], Some("2")).contains("worker pool: 5 jobs"));
}

#[test]
fn rom_and_csv_exports() {
    let dir = TestDir::new("exports");
    let csv = dir.join("sol.csv");
    let rom = dir.join("sol.rom");
    let (ok, _, stderr) = fbist(&[
        "reseed",
        "c17",
        "--tau",
        "7",
        "--csv",
        csv.to_str().unwrap(),
        "--rom",
        rom.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("index,kind,delta,theta,tau"));
    let rom_text = std::fs::read_to_string(&rom).unwrap();
    assert!(rom_text.starts_with("# seed ROM:"));
}
