//! Bad command-line values make the figure binaries exit 2 with usage
//! before any simulation starts, instead of falling back to a default.

use std::process::Command;

fn assert_usage_exit(bin: &str, args: &[&str]) {
    assert_usage_exit_env(bin, args, &[]);
}

fn assert_usage_exit_env(bin: &str, args: &[&str], env: &[(&str, &str)]) {
    let out = Command::new(bin)
        .args(args)
        .env("GD_BENCH_DIR", std::env::temp_dir())
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} {env:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?} printed no usage:\n{stderr}"
    );
}

#[test]
fn bad_engine_or_memspec_exits_2() {
    let bin = env!("CARGO_BIN_EXE_fig09_dram_energy");
    for args in [
        &["--engine", "bogus"][..],
        &["--engine", "event-driven"],
        &["--engine"],
        &["--memspec", "ddr3"],
        &["--memspec"],
    ] {
        assert_usage_exit(bin, &[&["--requests", "200"], args].concat());
    }
}

#[test]
fn fig14_rejects_bad_hosts_and_stride() {
    let bin = env!("CARGO_BIN_EXE_fig14_fleet_energy");
    for args in [
        ["--hosts", "abc"],
        ["--hosts", "0"],
        ["--hosts", "10001"],
        ["--sample-stride", "0"],
        ["--sample-stride", "-3"],
    ] {
        assert_usage_exit(bin, &[&args[..], &["--requests", "1"]].concat());
    }
}

#[test]
fn bad_jobs_or_requests_exit_2() {
    let bin = env!("CARGO_BIN_EXE_fig09_dram_energy");
    for args in [
        &["--jobs", "abc"][..],
        &["--jobs"],
        &["--jobs", "0"],
        &["--requests", "abc"],
        &["--requests", "0"],
        &["--requests"],
    ] {
        assert_usage_exit(bin, args);
    }
    for jobs in ["abc", "0", ""] {
        assert_usage_exit_env(bin, &["--requests", "200"], &[("GD_JOBS", jobs)]);
    }
}
