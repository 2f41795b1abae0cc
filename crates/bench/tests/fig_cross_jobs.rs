//! Cross-`--jobs` byte-identity of the figures, checked on the real
//! `gd-bench` executable: the sweep pool merges points in index order, so
//! the rendered table below the provenance line must be byte-identical
//! for any worker count. The provenance line itself records the requested
//! `jobs=` and is stripped before comparison, as `tools/ci.sh` does.

use std::process::Command;

/// Runs a figure and returns its stdout minus the provenance line.
fn figure_output(fig: &str, args: &[&str]) -> String {
    let bin = env!("CARGO_BIN_EXE_gd-bench");
    let out = Command::new(bin)
        .args(["run", fig])
        .args(args)
        .env("GD_BENCH_DIR", std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        out.status.success(),
        "gd-bench run {fig} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("figure output is UTF-8")
        .lines()
        .filter(|l| !l.starts_with("# provenance:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fig01_output_is_byte_identical_across_jobs() {
    let serial = figure_output("fig01_vm_utilization", &["--requests", "12", "--jobs", "1"]);
    let parallel = figure_output("fig01_vm_utilization", &["--requests", "12", "--jobs", "4"]);
    assert!(
        serial.contains("mean"),
        "unexpected fig01 output:\n{serial}"
    );
    assert_eq!(serial, parallel, "fig01 diverged between --jobs 1 and 4");
}

#[test]
fn fig14_output_is_byte_identical_across_jobs() {
    let args = ["--hosts", "8", "--requests", "12"];
    let serial = figure_output(
        "fig14_fleet_energy",
        &[&args[..], &["--jobs", "1"]].concat(),
    );
    let parallel = figure_output(
        "fig14_fleet_energy",
        &[&args[..], &["--jobs", "4"]].concat(),
    );
    assert!(
        serial.contains("Fig. 14"),
        "unexpected fig14 output:\n{serial}"
    );
    assert_eq!(serial, parallel, "fig14 diverged between --jobs 1 and 4");
}
