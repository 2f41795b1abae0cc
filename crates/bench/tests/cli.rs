//! Bad command lines make `gd-bench` exit 2 with usage before any
//! simulation starts, instead of ignoring the flag or falling back to a
//! default.

use std::process::Command;

fn assert_usage_exit(args: &[&str]) {
    let bin = env!("CARGO_BIN_EXE_gd-bench");
    let out = Command::new(bin)
        .args(args)
        .env("GD_BENCH_DIR", std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "gd-bench {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "gd-bench {args:?} printed no usage:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "gd-bench {args:?} ran the figure");
}

fn run(fig: &str, args: &[&str]) -> Vec<String> {
    [&["run", fig][..], args]
        .concat()
        .iter()
        .map(|a| (*a).to_string())
        .collect()
}

fn assert_run_usage_exit(fig: &str, args: &[&str]) {
    let argv = run(fig, args);
    assert_usage_exit(&argv.iter().map(String::as_str).collect::<Vec<_>>());
}

#[test]
fn bad_engine_or_memspec_exits_2() {
    for args in [
        &["--engine", "bogus"][..],
        &["--engine", "event-driven"],
        &["--engine"],
        &["--memspec", "ddr3"],
        &["--memspec"],
    ] {
        assert_run_usage_exit(
            "fig09_dram_energy",
            &[&["--requests", "200"], args].concat(),
        );
    }
}

#[test]
fn fig14_rejects_bad_hosts_and_stride() {
    for args in [
        ["--hosts", "abc"],
        ["--hosts", "0"],
        ["--hosts", "10001"],
        ["--sample-stride", "0"],
        ["--sample-stride", "-3"],
    ] {
        assert_run_usage_exit(
            "fig14_fleet_energy",
            &[&args[..], &["--requests", "12"]].concat(),
        );
    }
}

#[test]
fn bad_jobs_or_requests_exit_2() {
    for args in [
        &["--jobs", "abc"][..],
        &["--jobs"],
        &["--jobs", "0"],
        &["--requests", "abc"],
        &["--requests", "0"],
        &["--requests"],
    ] {
        assert_run_usage_exit("fig09_dram_energy", args);
    }
}

#[test]
fn unknown_and_undeclared_flags_exit_2() {
    assert_run_usage_exit("fig09_dram_energy", &["--stirct-validate"]);
    assert_run_usage_exit("fig05_addrmap", &["--memspec", "ddr5"]);
    assert_run_usage_exit("fig11_perf_overhead", &["--memspec", "ddr5"]);
    assert_run_usage_exit("ablation_offthr", &["--engine", "stepped"]);
    assert_run_usage_exit("tab01_power_vs_util", &["--engine", "stepped"]);
    assert_run_usage_exit("fig05_addrmap", &["extra"]);
}

#[test]
fn missing_malformed_or_out_of_range_values_exit_2() {
    assert_run_usage_exit("fig14_fleet_energy", &["--telemetry"]);
    assert_run_usage_exit("fig_faults", &["--fault-rate", "abc"]);
    assert_run_usage_exit("fig_faults", &["--fault-rate", "7"]);
    assert_run_usage_exit("fig_faults", &["--requests", "17"]);
    assert_run_usage_exit("fig08_offlining_failures", &["--requests", "65"]);
    for periods in ["11", "289"] {
        assert_run_usage_exit("fig01_vm_utilization", &["--requests", periods]);
    }
}

#[test]
fn unknown_figures_and_commands_exit_2() {
    assert_usage_exit(&["run", "fig99_nope"]);
    assert_usage_exit(&["run"]);
    assert_usage_exit(&["regen", "--check", "fig99_nope"]);
    assert_usage_exit(&["plot"]);
    assert_usage_exit(&["list", "extra"]);
    assert_usage_exit(&[]);
}
