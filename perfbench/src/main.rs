//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dram-sparse|dram-dense|fleet-cosim> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! A run builds its inputs from `--seed`, then repeats set-up and one pass
//! over the workload until `--seconds` have passed; the first pass is a
//! warm-up and is not timed. After each pass a calibration kernel is timed
//! (see [`calib`]). Every pass's simulated output is digested and
//! must match the first pass's, and the public entry point the pass stands
//! in for (run once at the end, with strict validation) must agree with it.
//! With `--trace 0` the run reports the end-to-end metrics (pass time and
//! set-up time at the reference host speed, peak RSS); with `--trace 1` it alternates
//! untraced and traced passes and reports the per-layer split, written out
//! as spans under `perfbench/traces/`. The last line of standard output is
//! one JSON object.

mod calib;
mod digest;
mod dram;
mod fleet;
mod trace;

use digest::Digest;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{now_ns, rollup, Rollup, Span, Tracer};

/// Deterministic work counters of one pass, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one pass produced for one point (an app on a backend, or a fleet
/// mode).
pub struct Point {
    pub label: String,
    /// Digest of the point's output in the form the public entry point
    /// returns it, or why the point failed.
    pub public: Result<Digest, String>,
    /// Digest of every simulated number the point produced.
    pub digest: Digest,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs one pass consumes.
    type Inputs;
    /// One line naming the configuration.
    fn describe(&self) -> String;
    /// Builds fresh inputs for one pass.
    fn setup(&self, tr: &mut Tracer) -> gd_types::Result<Self::Inputs>;
    /// Runs the simulators on `inputs`.
    fn pass(&self, inputs: Self::Inputs, tr: &mut Tracer) -> (Vec<Point>, Counts);
    /// The public entry point's output for each point, strictly validated.
    fn reference(&self) -> Vec<Result<Digest, String>>;
    /// Worker threads a pass runs on.
    fn workers(&self) -> usize {
        1
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Set-ups timed before each untraced pass.
const SETUPS_PER_PASS: usize = 5;

const WORKLOADS: [&str; 3] = ["dram-sparse", "dram-dense", "fleet-cosim"];

const USAGE: &str = "usage: gd-perfbench --workload <dram-sparse|dram-dense|fleet-cosim> \
                     [--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Parses the command line; any unknown flag, missing or malformed value,
/// or repeated flag is an error.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let fresh = |slot: bool| {
            if slot {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                fresh(workload.is_some())?;
                let v = value(&mut it)?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                fresh(seed.is_some())?;
                let v = value(&mut it)?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("malformed --seed {v:?}"))?,
                );
            }
            "--seconds" => {
                fresh(seconds.is_some())?;
                let v = value(&mut it)?;
                let s = v
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("malformed --seconds {v:?} (expected 1..=3600)"))?;
                seconds = Some(s);
            }
            "--trace" => {
                fresh(trace.is_some())?;
                let v = value(&mut it)?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("malformed --trace {v:?} (expected 0 or 1)")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One pass of a run.
struct PassRecord {
    traced: bool,
    /// Every set-up timed before the pass; the pass consumes the last.
    setup_ns: Vec<u64>,
    pass_ns: u64,
    points: Vec<Point>,
    counts: Counts,
}

/// Everything a run measured.
struct RunRecord {
    workers: usize,
    /// Pass 0 is the untimed warm-up.
    passes: Vec<PassRecord>,
    /// Calibration chunk times, [`calib::CHUNKS_PER_PASS`] per worker after
    /// each pass.
    cal_ns: Vec<u64>,
    reference: Vec<Result<Digest, String>>,
    /// Peak RSS after the warm-up and the first timed pass: a fixed amount
    /// of work, so the figure does not grow with the number of passes
    /// that fit in the run.
    peak_rss_mb: f64,
    /// Roll-up of every traced pass's spans.
    rollup: BTreeMap<&'static str, Rollup>,
    /// `dram.run_trace` time by app, over every traced pass.
    run_trace_by_app: BTreeMap<&'static str, u64>,
    pools: PoolStats,
    /// The last traced pass's spans, for the trace file.
    last_spans: Vec<Span>,
}

/// Balance of the fleet's shard pool, summed over every `fleet.pool` span.
#[derive(Default)]
struct PoolStats {
    pools: u64,
    host_max_share: f64,
    host_max_over_p50: f64,
}

impl PoolStats {
    fn add(&mut self, spans: &[Span]) {
        for (id, pool) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "fleet.pool")
        {
            let mut hosts: Vec<u64> = spans
                .iter()
                .filter(|s| s.parent == Some(id) && s.name == "fleet.host")
                .map(Span::dur_ns)
                .collect();
            if hosts.is_empty() || pool.dur_ns() == 0 {
                continue;
            }
            hosts.sort_unstable();
            let max = hosts[hosts.len() - 1] as f64;
            let p50 = hosts[hosts.len() / 2].max(1) as f64;
            self.pools += 1;
            self.host_max_share += max / pool.dur_ns() as f64;
            self.host_max_over_p50 += max / p50;
        }
    }
}

fn drive<W: Workload>(w: &W, args: &Args, origin: Instant) -> Result<RunRecord, String> {
    let mut run = RunRecord {
        workers: w.workers(),
        passes: Vec::new(),
        cal_ns: Vec::new(),
        reference: Vec::new(),
        peak_rss_mb: 0.0,
        rollup: BTreeMap::new(),
        run_trace_by_app: BTreeMap::new(),
        pools: PoolStats::default(),
        last_spans: Vec::new(),
    };
    let start = now_ns(origin);
    let budget = args.seconds * 1_000_000_000;
    loop {
        let i = run.passes.len();
        // Warm-up, then (traced runs) alternate traced and untraced passes.
        let traced = args.trace && i % 2 == 1;
        let mut tr = if traced {
            Tracer::on(origin, 0)
        } else {
            Tracer::off()
        };
        // Set-up takes milliseconds or less, so untraced passes repeat it
        // for a steadier median.
        let repeats = if traced { 1 } else { SETUPS_PER_PASS };
        let mut setup_ns = Vec::with_capacity(repeats);
        let mut inputs = None;
        for _ in 0..repeats {
            drop(inputs.take());
            let t0 = now_ns(origin);
            let made = tr
                .span("bench.setup", |tr| w.setup(tr))
                .map_err(|e| format!("set-up failed: {e}"))?;
            setup_ns.push(now_ns(origin) - t0);
            inputs = Some(made);
        }
        let inputs = inputs.expect("at least one set-up");
        let t1 = now_ns(origin);
        let (points, counts) = tr.span("bench.pass", |tr| w.pass(inputs, tr));
        let t2 = now_ns(origin);
        run.cal_ns.extend(calib::measure(run.workers, origin));
        if traced {
            let spans = tr.into_spans();
            for (name, r) in rollup(&spans) {
                let acc = run.rollup.entry(name).or_default();
                acc.calls += r.calls;
                acc.total_ns += r.total_ns;
                acc.self_ns += r.self_ns;
            }
            for s in spans.iter().filter(|s| s.name == "dram.run_trace") {
                *run.run_trace_by_app.entry(s.tag).or_default() += s.dur_ns();
            }
            run.pools.add(&spans);
            run.last_spans = spans;
        }
        run.passes.push(PassRecord {
            traced,
            setup_ns,
            pass_ns: t2 - t1,
            points,
            counts,
        });
        if i == 1 {
            run.peak_rss_mb = peak_rss_mb()?;
        }
        let timed = |traced: bool| {
            run.passes[1..]
                .iter()
                .filter(|p| p.traced == traced)
                .count()
        };
        let enough = timed(false) >= 2 && (!args.trace || timed(true) >= 2);
        if enough && now_ns(origin) - start >= budget {
            break;
        }
    }
    run.reference = w.reference();
    Ok(run)
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Outcome of checking every point of every pass.
struct Check {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    sim_digest: Digest,
}

/// A point fails if it errored or panicked, if its output differs from
/// the reference, or if its digest differs from the first pass's. The
/// reference points count as attempted too. Traced passes' counters must
/// repeat exactly.
fn check(run: &RunRecord) -> Check {
    let first = &run.passes[0].points;
    let mut c = Check {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        sim_digest: Digest::default(),
    };
    for p in first {
        c.sim_digest.fold(&p.digest);
    }
    let problem = |c: &mut Check, msg: String| {
        c.failed += 1;
        if c.problems.len() < 8 {
            c.problems.push(msg);
        }
    };
    for (j, reference) in run.reference.iter().enumerate() {
        c.attempted += 1;
        if let Err(e) = reference {
            problem(&mut c, format!("reference {}: {e}", first[j].label));
        }
    }
    for (i, pass) in run.passes.iter().enumerate() {
        for (j, p) in pass.points.iter().enumerate() {
            c.attempted += 1;
            let verdict = match (&p.public, run.reference.get(j)) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), None) => Err("no reference point".to_string()),
                (Ok(_), Some(Err(_))) => Err("reference failed".to_string()),
                (Ok(out), Some(Ok(r))) if out != r => {
                    Err("output differs from the reference".to_string())
                }
                _ if p.digest != first[j].digest => Err(format!(
                    "digest {} differs from the first pass's {}",
                    p.digest.hex(),
                    first[j].digest.hex()
                )),
                _ => Ok(()),
            };
            if let Err(e) = verdict {
                problem(&mut c, format!("pass {i} {}: {e}", p.label));
            }
        }
    }
    let mut traced = run.passes.iter().filter(|p| p.traced);
    if let Some(t0) = traced.next() {
        for (k, t) in traced.enumerate() {
            if t.counts != t0.counts {
                problem(
                    &mut c,
                    format!("traced pass {}: layer counters did not repeat", k + 1),
                );
            }
        }
    }
    c
}

/// Per-layer metrics, in output order, with units. Shares (`_pct`) are
/// self time over the traced passes' thread time: pass wall time, plus
/// the extra workers' time while the fleet's shard pool runs. Set-up
/// layers are shares of set-up time. Layers a workload never calls
/// report 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.spans_per_pass", "count"),
    ("workloads.trace_gen_pct", "%"),
    ("workloads.cluster_synth_pct", "%"),
    ("dram.construct_pct", "%"),
    ("dram.run_trace_pct", "%"),
    ("dram.run_trace_calls", "count"),
    ("dram.sim_cycles", "count"),
    ("dram.requests", "count"),
    ("dram.host_ns_per_kcycle", "ns/kcycle"),
    ("dram.host_ns_per_request", "ns/request"),
    ("dram.pd_entries", "count"),
    ("dram.sr_entries", "count"),
    ("dram.refreshes", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("power.governor_pct", "%"),
    ("power.evaluations", "count"),
    ("ksm.advance_pct", "%"),
    ("ksm.advance_calls", "count"),
    ("ksm.region_pct", "%"),
    ("ksm.pages_scanned", "count"),
    ("ksm.full_passes", "count"),
    ("ksm.pages_sharing", "count"),
    ("ksm.frames_released", "count"),
    ("ksm.host_ns_per_page_scanned", "ns/page"),
    ("ksm.merge_ratio", "ratio"),
    ("daemon.tick_pct", "%"),
    ("daemon.stall_pct", "%"),
    ("daemon.ticks", "count"),
    ("daemon.offline_events", "count"),
    ("daemon.online_events", "count"),
    ("daemon.failures", "count"),
    ("daemon.allocation_stalls", "count"),
    ("daemon.offline_success_ratio", "ratio"),
    ("mmsim.footprint_pct", "%"),
    ("mmsim.footprint_calls", "count"),
    ("mmsim.migrated_pages", "count"),
    ("mmsim.offline_failures", "count"),
    ("cosim.self_pct", "%"),
    ("fleet.schedule_pct", "%"),
    ("fleet.host_setup_pct", "%"),
    ("fleet.host_self_pct", "%"),
    ("fleet.pool_idle_pct", "%"),
    ("fleet.pool_efficiency", "ratio"),
    ("fleet.host_max_pct", "%"),
    ("fleet.host_max_over_p50", "ratio"),
    ("fleet.placed", "count"),
    ("fleet.abandoned", "count"),
    ("fleet.peak_hosts_used", "count"),
    ("dram.povray_pct", "%"),
];

fn per_layer(run: &RunRecord) -> BTreeMap<&'static str, f64> {
    let traced: Vec<&PassRecord> = run.passes.iter().filter(|p| p.traced).collect();
    let n = traced.len() as f64;
    let r = |name: &str| run.rollup.get(name).copied().unwrap_or_default();
    let workers = run.workers as f64;
    let pool_ns = r("fleet.pool").total_ns as f64;
    let thread_ns = r("bench.pass").total_ns as f64 + (workers - 1.0) * pool_ns;
    let setup_ns = r("bench.setup").total_ns as f64;
    let pct = |name: &str| 100.0 * ratio(r(name).self_ns as f64, thread_ns);
    let setup_pct = |name: &str| 100.0 * ratio(r(name).self_ns as f64, setup_ns);
    let per_pass = |name: &str| ratio(r(name).calls as f64, n);
    let counts = &traced
        .last()
        .expect("a traced run has traced passes")
        .counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let untraced = median(
        run.passes[1..]
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.pass_ns as f64)
            .collect(),
    );
    let traced_wall = median(traced.iter().map(|p| p.pass_ns as f64).collect());
    let host_ns = r("fleet.host").total_ns as f64;
    let run_trace_ns = r("dram.run_trace").total_ns as f64;
    let pools = run.pools.pools as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        m.insert(k, if v.is_finite() { v } else { 0.0 });
    };
    put(
        "trace.overhead_pct",
        100.0 * (ratio(traced_wall, untraced) - 1.0),
    );
    put("trace.unattributed_pct", pct("bench.pass"));
    put(
        "trace.spans_per_pass",
        ratio(run.rollup.values().map(|r| r.calls as f64).sum(), n),
    );
    put("workloads.trace_gen_pct", setup_pct("workloads.trace_gen"));
    put(
        "workloads.cluster_synth_pct",
        setup_pct("workloads.cluster_synth"),
    );
    put("dram.construct_pct", setup_pct("dram.construct"));
    put("dram.run_trace_pct", pct("dram.run_trace"));
    put("dram.run_trace_calls", per_pass("dram.run_trace"));
    for k in [
        "dram.sim_cycles",
        "dram.requests",
        "dram.pd_entries",
        "dram.sr_entries",
        "dram.refreshes",
    ] {
        put(k, count(k));
    }
    put(
        "dram.host_ns_per_kcycle",
        ratio(run_trace_ns, n * count("dram.sim_cycles") / 1000.0),
    );
    put(
        "dram.host_ns_per_request",
        ratio(run_trace_ns, n * count("dram.requests")),
    );
    put(
        "dram.row_hit_ratio",
        ratio(count("dram.row_hits"), count("dram.row_accesses")),
    );
    put("power.governor_pct", pct("power.governor"));
    put("power.evaluations", per_pass("power.governor"));
    put("ksm.advance_pct", pct("ksm.advance"));
    put("ksm.advance_calls", per_pass("ksm.advance"));
    put("ksm.region_pct", pct("ksm.region"));
    for k in [
        "ksm.pages_scanned",
        "ksm.full_passes",
        "ksm.pages_sharing",
        "ksm.frames_released",
        "daemon.ticks",
        "daemon.offline_events",
        "daemon.online_events",
        "daemon.failures",
        "daemon.allocation_stalls",
        "mmsim.migrated_pages",
        "mmsim.offline_failures",
        "fleet.placed",
        "fleet.abandoned",
        "fleet.peak_hosts_used",
    ] {
        put(k, count(k));
    }
    put(
        "ksm.host_ns_per_page_scanned",
        ratio(
            r("ksm.advance").total_ns as f64,
            n * count("ksm.pages_scanned"),
        ),
    );
    put(
        "ksm.merge_ratio",
        ratio(count("ksm.pages_sharing"), count("ksm.pages_scanned")),
    );
    put("daemon.tick_pct", pct("daemon.tick"));
    put("daemon.stall_pct", pct("daemon.stall"));
    put(
        "daemon.offline_success_ratio",
        ratio(
            count("daemon.offline_events"),
            count("daemon.offline_events") + count("daemon.failures"),
        ),
    );
    put("mmsim.footprint_pct", pct("mmsim.footprint"));
    put("mmsim.footprint_calls", per_pass("mmsim.footprint"));
    put("cosim.self_pct", pct("cosim.step"));
    put("fleet.schedule_pct", pct("fleet.schedule"));
    put("fleet.host_setup_pct", pct("fleet.host_setup"));
    put("fleet.host_self_pct", pct("fleet.host"));
    put(
        "fleet.pool_idle_pct",
        100.0 * ratio(workers * pool_ns - host_ns, thread_ns),
    );
    put("fleet.pool_efficiency", ratio(host_ns, workers * pool_ns));
    put(
        "fleet.host_max_pct",
        100.0 * ratio(run.pools.host_max_share, pools),
    );
    put(
        "fleet.host_max_over_p50",
        ratio(run.pools.host_max_over_p50, pools),
    );
    put(
        "dram.povray_pct",
        100.0
            * ratio(
                run.run_trace_by_app.get("povray").copied().unwrap_or(0) as f64,
                thread_ns,
            ),
    );
    m
}

/// End-to-end medians, as measured; scaled by `calib::REFERENCE_S /
/// cal_s`, they are host seconds at the reference speed.
struct EndToEnd {
    /// Median calibration chunk.
    cal_s: f64,
    /// Median untraced timed pass.
    pass_s: f64,
    /// Median over every set-up of the run.
    setup_s: f64,
}

fn end_to_end(run: &RunRecord) -> EndToEnd {
    let s = |ns: &u64| *ns as f64 / 1e9;
    EndToEnd {
        cal_s: median(run.cal_ns.iter().map(s).collect()),
        pass_s: median(
            run.passes[1..]
                .iter()
                .filter(|p| !p.traced)
                .map(|p| s(&p.pass_ns))
                .collect(),
        ),
        setup_s: median(
            run.passes
                .iter()
                .flat_map(|p| p.setup_ns.iter().map(s))
                .collect(),
        ),
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push(',');
    }
    out.push_str(&format!(
        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
    ));
}

fn run_workload<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let origin = trace::clock_origin();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.describe()
    );
    let run = match drive(w, args, origin) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let c = check(&run);
    let correct = c.failed == 0;
    for p in &c.problems {
        println!("FAILED {p}");
    }
    let timed: Vec<&PassRecord> = run.passes[1..].iter().filter(|p| !p.traced).collect();
    let traced = run.passes.iter().filter(|p| p.traced).count();
    println!(
        "sim_digest={} passes: warm-up 1, untraced {}, traced {traced}; error_rate={}",
        c.sim_digest.hex(),
        timed.len(),
        ratio(c.failed as f64, c.attempted as f64)
    );
    let list = |f: fn(&PassRecord) -> u64| {
        run.passes
            .iter()
            .map(|p| {
                format!(
                    "{:.4}{}",
                    f(p) as f64 / 1e9,
                    if p.traced { "t" } else { "" }
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass s (t = traced): {}", list(|p| p.pass_ns));
    println!(
        "set-up s (median of the pass's set-ups): {}",
        list(|p| median(p.setup_ns.iter().map(|&ns| ns as f64).collect()) as u64)
    );
    let mut json = String::new();
    if args.trace {
        let m = per_layer(&run);
        let thread_s = run.rollup.get("bench.pass").map_or(0, |r| r.total_ns) as f64 / 1e9;
        println!("layer self time over {traced} traced passes:");
        for (name, r) in &run.rollup {
            println!(
                "  {name:<28} calls {:>10}  total {:>9.4} s  self {:>9.4} s",
                r.calls,
                r.total_ns as f64 / 1e9,
                r.self_ns as f64 / 1e9
            );
        }
        for (app, ns) in &run.run_trace_by_app {
            println!(
                "  dram.run_trace[{app}] {:.4} s = {:.1}% of traced pass time",
                *ns as f64 / 1e9,
                100.0 * ratio(*ns as f64 / 1e9, thread_s)
            );
        }
        for (name, unit) in PER_LAYER {
            json_metric(&mut json, name, m[name], unit);
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &run.last_spans, "cosim.step") {
            Ok(()) => println!("spans of the last traced pass: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    } else {
        let t = end_to_end(&run);
        let speed = calib::REFERENCE_S / t.cal_s;
        println!(
            "as measured (medians): pass {:.4} s, set-up {:.6} s, calibration chunk {:.5} s \
             (reference {} s, so times scale by {speed:.4})",
            t.pass_s,
            t.setup_s,
            t.cal_s,
            calib::REFERENCE_S
        );
        json_metric(&mut json, "wall_s", t.pass_s * speed, "s");
        json_metric(&mut json, "setup_s", t.setup_s * speed, "s");
        json_metric(&mut json, "peak_rss_mb", run.peak_rss_mb, "MB");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        c.attempted, c.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        "dram-sparse" => run_workload(&dram::Dram::sparse(args.seed), &args),
        "dram-dense" => run_workload(&dram::Dram::dense(args.seed), &args),
        _ => run_workload(
            &fleet::Fleet::new(
                args.seed,
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            ),
            &args,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "fleet-cosim",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "fleet-cosim",
                seed: 7,
                seconds: 20,
                trace: true
            })
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "dram-bogus"],
            &["--workload", "dram-sparse", "--seed", "abc"],
            &["--workload", "dram-sparse", "--seconds", "0"],
            &["--workload", "dram-sparse", "--trace", "2"],
            &["--workload", "dram-sparse", "--stirct"],
            &["--workload", "dram-sparse", "--seed"],
            &["--workload", "dram-sparse", "--workload", "dram-dense"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn self_time_excludes_same_track_children_only() {
        let span = |name, parent, track, start_ns, end_ns| Span {
            name,
            tag: "",
            parent,
            track,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("pass", None, 0, 0, 100),
            span("step", Some(0), 0, 10, 50),
            span("tick", Some(1), 0, 20, 30),
            span("host", Some(0), 1, 0, 90),
        ];
        let r = rollup(&spans);
        assert_eq!(r["pass"].self_ns, 60);
        assert_eq!(r["step"].self_ns, 30);
        assert_eq!(r["tick"].self_ns, 10);
        assert_eq!(r["host"].self_ns, 90);
    }
}
