//! The `dram-sparse` and `dram-dense` workloads: the Fig. 9 energy
//! pipeline (two `MemorySystem::run_trace` runs per app, then the four
//! governors under each interleave mode) on every memory backend, serially.
//!
//! Set-up builds each point's trace and its two memory systems. The pass
//! then repeats `gd_bench::energy::evaluate_app_tele` step by step on those
//! inputs, so trace generation stays out of the timed pass and the traced
//! run can put a span around each layer call. The reference is
//! `evaluate_app_opts` itself, with strict protocol and governor
//! validation: the pass's energy rows must match it exactly.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{Counts, Point, Workload};
use gd_baselines::{
    GovernorContext, GovernorOutcome, GreenDimmGovernor, OfflineFailureBreakdown, Pasr,
    PowerGovernor, RamZzz, SrfOnly,
};
use gd_bench::energy::{evaluate_app_opts, AppMeasurement, EnergyRow, MeasureOpts};
use gd_dram::{EngineMode, LowPowerPolicy, MemRequest, MemorySystem, RunStats};
use gd_power::{memspec_for, ActivityProfile, MemSpec, SystemPowerModel};
use gd_types::config::{DramConfig, InterleaveMode, MemSpecKind};
use gd_types::rng::sweep_point_seed;
use gd_types::{Cycles, Result};
use gd_workloads::{energy_figure_set, estimate_runtime, AppProfile, TraceGenerator};

/// Interleave modes in the order `evaluate_app_tele` simulates them.
const MODES: [InterleaveMode; 2] = [InterleaveMode::Interleaved, InterleaveMode::Linear];

/// CPU utilization the Fig. 9 pipeline charges system energy at.
const CPU_UTIL: f64 = 0.6;

pub struct Dram {
    /// `(index in the energy-figure set, profile)`; the index seeds the trace.
    apps: Vec<(usize, AppProfile)>,
    requests: usize,
    seed: u64,
}

impl Dram {
    /// Apps with fewer than 5 misses per kilo-instruction: traces of long
    /// idle gaps, so the time goes to power-down, self-refresh and refresh
    /// stepping.
    pub fn sparse(seed: u64) -> Self {
        Self::select(seed, 2_000, |p| p.mpki < 5.0)
    }

    /// Memory-intensive apps (MPKI >= 10): arbitration, bank timing and
    /// row-buffer traffic.
    pub fn dense(seed: u64) -> Self {
        Self::select(seed, 10_000, AppProfile::is_memory_intensive)
    }

    fn select(seed: u64, requests: usize, keep: impl Fn(&AppProfile) -> bool) -> Self {
        let apps = energy_figure_set()
            .into_iter()
            .enumerate()
            .filter(|(_, p)| keep(p))
            .collect();
        Dram {
            apps,
            requests,
            seed,
        }
    }

    /// `(backend, position in apps)`, backend-major as in Fig. 15.
    fn points(&self) -> impl Iterator<Item = (MemSpecKind, usize)> + '_ {
        MemSpecKind::all()
            .into_iter()
            .flat_map(move |kind| (0..self.apps.len()).map(move |app| (kind, app)))
    }

    fn trace_seed(&self, app: usize) -> u64 {
        sweep_point_seed(self.seed, self.apps[app].0)
    }
}

pub struct PointInput {
    kind: MemSpecKind,
    app: usize,
    traces: [Vec<MemRequest>; 2],
    systems: [MemorySystem; 2],
}

impl Workload for Dram {
    type Inputs = Vec<PointInput>;

    fn describe(&self) -> String {
        let apps: Vec<&str> = self.apps.iter().map(|(_, p)| p.name).collect();
        format!(
            "engine=event-driven backends=ddr4,ddr5,lpddr4-pasr apps={} requests={} serial",
            apps.join(","),
            self.requests
        )
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Vec<PointInput>> {
        self.points()
            .map(|(kind, app)| {
                let p = &self.apps[app].1;
                let cfg = DramConfig::preset_64gb(kind);
                let traces = tr.span("workloads.trace_gen", |_| {
                    let cap = cfg.total_capacity_bytes();
                    let mut gen = TraceGenerator::new(p.clone(), self.trace_seed(app));
                    let trace: Vec<MemRequest> = gen
                        .take(self.requests)
                        .into_iter()
                        .map(|mut r| {
                            r.addr %= cap;
                            r
                        })
                        .collect();
                    [trace.clone(), trace]
                });
                let systems = tr.span("dram.construct", |_| -> Result<[MemorySystem; 2]> {
                    let new = |mode| {
                        Ok(MemorySystem::new(
                            cfg.with_interleave(mode),
                            LowPowerPolicy::srf_default(),
                        )?
                        .with_engine_mode(EngineMode::EventDriven))
                    };
                    Ok([new(MODES[0])?, new(MODES[1])?])
                })?;
                Ok(PointInput {
                    kind,
                    app,
                    traces,
                    systems,
                })
            })
            .collect()
    }

    fn pass(&self, inputs: Vec<PointInput>, tr: &mut Tracer) -> (Vec<Point>, Counts) {
        let mut counts = Counts::new();
        let points = inputs
            .into_iter()
            .map(|input| {
                let p = &self.apps[input.app].1;
                let label = format!("{}/{}", input.kind.name(), p.name);
                let out = crate::guarded(|| evaluate_point(p, input, tr));
                let (public, digest) = match out {
                    Ok((rows, stats)) => {
                        for s in &stats {
                            add_counts(&mut counts, s);
                        }
                        let public = Digest::of(&rows);
                        let mut d = public;
                        d.fold(&stats);
                        (Ok(public), d)
                    }
                    Err(e) => (Err(e), Digest::default()),
                };
                Point {
                    label,
                    public,
                    digest,
                }
            })
            .collect();
        (points, counts)
    }

    fn reference(&self) -> Vec<std::result::Result<Digest, String>> {
        let opts = MeasureOpts {
            strict_validate: true,
            engine: EngineMode::EventDriven,
            ..MeasureOpts::default()
        };
        self.points()
            .map(|(kind, app)| {
                let p = &self.apps[app].1;
                crate::guarded(|| {
                    let cfg = DramConfig::preset_64gb(kind);
                    let rows = evaluate_app_opts(p, cfg, self.requests, self.trace_seed(app), opts)
                        .map_err(|e| e.to_string())?;
                    Ok(Digest::of(&rows))
                })
            })
            .collect()
    }
}

fn add_counts(counts: &mut Counts, s: &RunStats) {
    for (k, v) in [
        ("dram.sim_cycles", s.cycles),
        ("dram.requests", s.reads + s.writes),
        ("dram.pd_entries", s.pd_entries),
        ("dram.sr_entries", s.sr_entries),
        ("dram.refreshes", s.refreshes),
        ("dram.row_hits", s.row_hits),
        (
            "dram.row_accesses",
            s.row_hits + s.row_misses + s.row_conflicts,
        ),
    ] {
        *counts.entry(k).or_default() += v;
    }
}

/// One app on one backend, as `evaluate_app_tele` computes it (without
/// telemetry or strict validation), on pre-built traces and systems.
fn evaluate_point(
    profile: &AppProfile,
    input: PointInput,
    tr: &mut Tracer,
) -> std::result::Result<(Vec<EnergyRow>, Vec<RunStats>), String> {
    let PointInput {
        kind,
        traces,
        systems,
        ..
    } = input;
    let cfg = DramConfig::preset_64gb(kind);
    let mut stats = Vec::with_capacity(2);
    let mut meas = Vec::with_capacity(2);
    for ((mode, trace), mut sys) in MODES.into_iter().zip(traces).zip(systems) {
        let s = tr
            .span_tagged("dram.run_trace", profile.name, |_| sys.run_trace(trace))
            .map_err(|e| e.to_string())?;
        meas.push(
            measurement(profile, cfg.with_interleave(mode), mode, &s).map_err(|e| e.to_string())?,
        );
        stats.push(s);
    }
    let (with, without) = (&meas[0], &meas[1]);
    let model = memspec_for(cfg).map_err(|e| e.to_string())?;
    let system = SystemPowerModel::default();
    let offline_fraction =
        (1.0 - profile.footprint_bytes() as f64 / cfg.total_capacity_bytes() as f64 - 0.10)
            .max(0.0);
    let make_ctx = |meas: &AppMeasurement| GovernorContext {
        interleaved: meas.interleaved,
        footprint_bytes: profile.footprint_bytes(),
        capacity_bytes: cfg.total_capacity_bytes(),
        ranks: cfg.org.total_ranks(),
        banks_per_rank: cfg.org.banks_per_rank(),
        measured_sr_fraction: meas.sr_fraction,
        runtime_s: meas.runtime_s,
        offline_fraction,
        offline_failures: OfflineFailureBreakdown::default(),
    };
    let governors: Vec<Box<dyn PowerGovernor>> = vec![
        Box::new(SrfOnly),
        Box::new(RamZzz::default()),
        Box::new(Pasr),
        Box::new(GreenDimmGovernor::default()),
    ];
    let mut rows = Vec::new();
    let mut baseline = None;
    for meas in [without, with] {
        let ctx = make_ctx(meas);
        for g in &governors {
            let (runtime, dram_j, system_j) = tr.span("power.governor", |_| {
                let out = g.evaluate(&ctx);
                energy_cell(model.as_ref(), &system, profile, meas, &out)
            });
            if g.name() == "srf_only" && !meas.interleaved {
                baseline = Some((dram_j, system_j));
            }
            rows.push(EnergyRow {
                app: profile.name.to_string(),
                policy: g.name(),
                interleaved: meas.interleaved,
                runtime_s: runtime,
                dram_j,
                system_j,
                dram_norm: 0.0,
                system_norm: 0.0,
            });
        }
    }
    let (b_dram, b_sys) = baseline.ok_or("no baseline cell")?;
    for r in &mut rows {
        r.dram_norm = r.dram_j / b_dram;
        r.system_norm = r.system_j / b_sys;
    }
    Ok((rows, stats))
}

/// The runtime model of `measure_app_tele`, applied to a finished run.
fn measurement(
    profile: &AppProfile,
    cfg: DramConfig,
    mode: InterleaveMode,
    stats: &RunStats,
) -> Result<AppMeasurement> {
    let avg_latency = stats.read_latency.mean().unwrap_or(60.0);
    let model = memspec_for(cfg)?;
    let t = cfg.timing;
    let unloaded_latency = Cycles::new(t.t_rcd + t.cl + t.burst_cycles() + 8).as_f64();
    let delivered_per_cycle =
        (stats.reads + stats.writes) as f64 / Cycles::new(stats.cycles.max(1)).as_f64();
    let little_cap = profile.mlp / delivered_per_cycle.max(1e-9);
    let loaded_latency = avg_latency.clamp(unloaded_latency, little_cap.max(unloaded_latency));
    let est = estimate_runtime(profile, loaded_latency, model.peak_transfers_per_s());
    let total_requests =
        profile.giga_instructions * 1e9 * profile.mpki / 1000.0 * profile.prefetch_factor();
    let mem_clock_hz = t.clock_mhz * 1e6;
    let bw_bound_s = total_requests / (delivered_per_cycle.max(1e-9) * mem_clock_hz);
    let runtime_s = est.seconds.max(bw_bound_s);
    Ok(AppMeasurement {
        interleaved: mode.is_interleaved(),
        avg_latency_cycles: avg_latency,
        sr_fraction: stats.mean_self_refresh_fraction(),
        runtime_s,
        bandwidth_util: (est.bandwidth_util * est.seconds / runtime_s).clamp(0.0, 1.0),
    })
}

/// The energy cell of `evaluate_app_tele`: runtime, DRAM and system energy.
fn energy_cell(
    model: &dyn MemSpec,
    system: &SystemPowerModel,
    profile: &AppProfile,
    meas: &AppMeasurement,
    out: &GovernorOutcome,
) -> (f64, f64, f64) {
    let runtime = meas.runtime_s + out.overhead_s;
    let lp = (out.sr_fraction + out.pd_fraction).clamp(0.0, 1.0);
    let awake = 1.0 - lp;
    let activity = ActivityProfile {
        bandwidth_util: meas.bandwidth_util,
        read_fraction: profile.read_fraction,
        act_per_access: 1.0 - profile.row_locality,
        active_standby: awake * 0.6,
        precharge_standby: awake * 0.4,
        power_down: out.pd_fraction,
        self_refresh: out.sr_fraction,
    };
    let dram_w = model.analytic_power_w(&activity, &out.gating);
    let dram_j = dram_w * runtime;
    let system_j = system.system_energy_j(dram_w, CPU_UTIL, runtime);
    (runtime, dram_j, system_j)
}
