//! The VM-trace figures: a 256 GB host over the synthesized 24 h Azure
//! trace (Figs. 1, 12, 13) and the fleet of such hosts behind the
//! placement scheduler (Fig. 14). `--requests N` trims the simulated day
//! to N 300 s scheduler periods.

use super::{FLEET, PERIODS};
use crate::cli::Flag;
use crate::driver::{Ctx, Figure};
use crate::energy::platform_desc;
use crate::outln;
use crate::report::{f2, pct};
use crate::vmtrace::{run_vm_trace_tele, VmTraceConfig, VmTraceOutcome};
use gd_fleet::{run_fleet, FleetOutcome};
use gd_obs::Telemetry;
use gd_power::{memspec_for, ActivityProfile, DramPowerModel, PowerGating, SystemPowerModel};
use gd_types::config::{DramConfig, MemSpecKind};
use gd_types::fleet::{FleetConfig, FleetPlacement};
use gd_workloads::azure::{synthesize, AzureConfig};

/// Seconds per scheduler period (one `--requests` unit).
const PERIOD_S: u64 = 300;

/// Fig. 1: memory capacity used by the server over 24 hours, with and
/// without KSM (paper: 48 % average, 7–92 % range; KSM −24 % on average).
/// Two points: the synthesized trace and the KSM co-simulation.
pub const FIG01: Figure = Figure {
    id: "fig01_vm_utilization",
    flags: &[PERIODS],
    config: |o| {
        format!(
            "azure-24h capacity=256GB block=1GB seed=42 duration_s={} ksm",
            o.requests as u64 * PERIOD_S
        )
    },
    run: fig01,
};

/// Mean of `series` per displayed hour (12 samples per hour).
fn hourly(hours: u64, series: impl Iterator<Item = (u64, f64)> + Clone) -> Vec<f64> {
    (0..hours)
        .map(|h| {
            let t = h * 3600;
            series
                .clone()
                .filter(|(ts, _)| *ts >= t && *ts < t + 3600)
                .map(|(_, u)| u)
                .sum::<f64>()
                / 12.0
        })
        .collect()
}

fn fig01(cx: &mut Ctx<'_>) {
    struct Point {
        hourly: Vec<f64>,
        mean: f64,
        range: (f64, f64),
    }
    let o = cx.opts;
    let azure = AzureConfig::paper_24h();
    let duration_s = o.requests as u64 * azure.schedule_period_s;
    let hours = (duration_s / 3_600).max(1);
    let kinds = ["trace", "ksm"];
    let labels: Vec<String> = kinds.iter().map(|k| (*k).to_string()).collect();
    let results = cx.sweep(&kinds, &labels, |kind| match *kind {
        "trace" => {
            let trace = synthesize(&AzureConfig {
                duration_s,
                ..azure
            });
            let mut tele = o.shard();
            if let Some(t) = &mut tele {
                t.registry
                    .gauge_set("trace.mean_utilization", trace.mean_utilization());
            }
            let point = Point {
                hourly: hourly(hours, trace.utilization.iter().copied()),
                mean: trace.mean_utilization(),
                range: trace.utilization_range(),
            };
            (point, tele)
        }
        _ => {
            let (out, tele) = run_vm_trace_tele(
                &VmTraceConfig {
                    ksm: true,
                    greendimm: false,
                    duration_s,
                    ..VmTraceConfig::paper_256gb()
                },
                o.telemetry_enabled(),
            )
            .expect("vm trace");
            let point = Point {
                hourly: hourly(
                    hours,
                    out.samples.iter().map(|s| (s.time_s, s.used_fraction)),
                ),
                mean: out.mean_used_fraction(),
                range: (0.0, 0.0),
            };
            (point, tele)
        }
    });

    let widths = [6, 12, 12];
    cx.out.header(
        "Fig. 1: VM-trace memory utilization over 24 h (256 GB host)",
        &["hour", "used", "used w/ksm"],
        &widths,
    );
    let (trace, ksm) = (&results[0], &results[1]);
    for h in 0..hours as usize {
        cx.out.row(
            &[format!("{h:02}"), pct(trace.hourly[h]), pct(ksm.hourly[h])],
            &widths,
        );
    }
    let (lo, hi) = trace.range;
    outln!(
        cx.out,
        "\nmean {} (paper 48%), range {}..{} (paper 7%..92%)",
        pct(trace.mean),
        pct(lo),
        pct(hi)
    );
    outln!(
        cx.out,
        "mean w/ KSM {} (paper: KSM saves 24% of used capacity on average)",
        pct(ksm.mean)
    );
}

/// Fig. 12: off-lined memory blocks over the 24 h VM trace (paper: 116 of
/// 256 blocks on average — 45 % of capacity; 230 at minimum utilization;
/// 4 at peak; KSM off-lines 61 more and cuts background power 70 %).
/// Two points: the base and KSM co-simulations.
pub const FIG12: Figure = Figure {
    id: "fig12_vm_offlined_blocks",
    flags: &[PERIODS],
    config: |o| {
        format!(
            "azure-24h capacity=256GB block=1GB seed=42 duration_s={} greendimm",
            o.requests as u64 * PERIOD_S
        )
    },
    run: fig12,
};

fn fig12(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let duration_s = o.requests as u64 * PERIOD_S;
    let labels: Vec<String> = vec!["base".into(), "ksm".into()];
    let runs = cx.sweep(&[false, true], &labels, |&ksm| {
        run_vm_trace_tele(
            &VmTraceConfig {
                ksm,
                duration_s,
                ..VmTraceConfig::paper_256gb()
            },
            o.telemetry_enabled(),
        )
        .expect("vm trace")
    });
    let (base, ksm) = (&runs[0], &runs[1]);

    let widths = [8, 14, 14];
    cx.out.header(
        "Fig. 12: off-lined 1 GB blocks over 24 h (256 GB = 256 blocks)",
        &["hour", "offline", "offline w/ksm"],
        &widths,
    );
    for h in 0..(duration_s / 3_600).max(1) {
        let avg = |o: &VmTraceOutcome| {
            let v: Vec<_> = o
                .samples
                .iter()
                .filter(|s| s.time_s >= h * 3600 && s.time_s < (h + 1) * 3600)
                .map(|s| s.offline_blocks as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        cx.out.row(
            &[
                format!("{h:02}"),
                format!("{:.0}", avg(base)),
                format!("{:.0}", avg(ksm)),
            ],
            &widths,
        );
    }
    let (lo, hi) = base.offline_blocks_range();
    outln!(
        cx.out,
        "\nmean {:.0} blocks offline (paper 116/256), range {lo}..{hi} (paper 4..230)",
        base.mean_offline_blocks()
    );
    outln!(
        cx.out,
        "w/ KSM: mean {:.0} blocks (+{:.0}; paper +61)",
        ksm.mean_offline_blocks(),
        ksm.mean_offline_blocks() - base.mean_offline_blocks()
    );

    // Background power reduction from the deep power-down residency.
    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb());
    let idle = ActivityProfile::idle_standby();
    let full = model.analytic_power_w(&idle, &PowerGating::none());
    let with = model.analytic_power_w(&idle, &PowerGating::deep_pd(base.mean_deep_pd_fraction()));
    let with_ksm =
        model.analytic_power_w(&idle, &PowerGating::deep_pd(ksm.mean_deep_pd_fraction()));
    outln!(
        cx.out,
        "\nbackground power reduction: {} (paper 46%), w/ KSM {} (paper 70%)",
        pct(1.0 - with / full),
        pct(1.0 - with_ksm / full)
    );
}

/// Fig. 13: DRAM and system power as capacity scales 256 GB → 1 TB with
/// the same VM load (paper: GreenDIMM −32 %/−9 % at 256 GB rising to
/// −36 %/−20 % at 1 TB; with KSM −55 %/−30 % at 1 TB). One point per
/// {capacity × KSM}.
pub const FIG13: Figure = Figure {
    id: "fig13_capacity_scaling",
    flags: &[PERIODS, Flag::Engine, Flag::Memspec],
    config: |o| {
        // The VM-trace co-simulation is mm/daemon-level and
        // memory-generation-independent; the backend only changes the
        // analytic power model the dwell fractions feed. The DDR4
        // description stays verbatim so its provenance hash holds.
        let platform = match o.memspec {
            MemSpecKind::Ddr4 => String::new(),
            kind => format!("{} ", platform_desc(kind)),
        };
        format!(
            "{platform}azure-24h block=1GB seed=42 duration_s={} caps=256..1024 x ksm",
            o.requests as u64 * PERIOD_S
        )
    },
    run: fig13,
};

fn fig13(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let caps = [256u64, 512, 768, 1024];
    // One point per {capacity, ksm} pair; results stitched back per capacity.
    let points: Vec<(u64, bool)> = caps
        .iter()
        .flat_map(|&cap| [(cap, false), (cap, true)])
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(cap, ksm)| format!("{cap}G{}", if *ksm { "+ksm" } else { "" }))
        .collect();
    let runs = cx.sweep(&points, &labels, |&(capacity_gb, ksm)| {
        let cfg = VmTraceConfig {
            capacity_gb,
            ksm,
            duration_s: o.requests as u64 * PERIOD_S,
            engine: o.engine,
            ..VmTraceConfig::paper_256gb()
        };
        run_vm_trace_tele(&cfg, o.telemetry_enabled()).expect("vm trace")
    });

    let widths = [9, 9, 9, 9, 9, 10, 10, 10, 10];
    cx.out.header(
        "Fig. 13: DRAM/system power vs. capacity (24 h VM trace)",
        &[
            "cap", "dram W", "gd W", "ksm W", "sys W", "dram red", "sys red", "ksm dred",
            "ksm sred",
        ],
        &widths,
    );
    let sys_model = SystemPowerModel::default();
    let cpu_util = 0.3; // consolidated VM server, modest CPU activity
    let base_model = memspec_for(DramConfig::preset_256gb(o.memspec)).expect("paper preset");
    let activity = ActivityProfile::busy(0.15);
    let p256 = base_model.analytic_power_w(&activity, &PowerGating::none());
    let power = |run: &VmTraceOutcome| {
        base_model.analytic_power_w(
            &activity,
            &PowerGating::deep_pd(run.mean_deep_pd_fraction()),
        )
    };

    for (&cap_gb, pair) in caps.iter().zip(runs.chunks(2)) {
        // Linear capacity scaling of the conventional power (same model the
        // paper fits to its 256 GB measurement).
        let scale = cap_gb as f64 / 256.0;
        let dram_w = p256 * scale;
        let gd_w = power(&pair[0]) * scale;
        let ksm_w = power(&pair[1]) * scale;
        let sys_w = sys_model.system_power_w(dram_w, cpu_util);
        let sys_gd = sys_model.system_power_w(gd_w, cpu_util);
        let sys_ksm = sys_model.system_power_w(ksm_w, cpu_util);
        cx.out.row(
            &[
                format!("{cap_gb}G"),
                f2(dram_w),
                f2(gd_w),
                f2(ksm_w),
                f2(sys_w),
                pct(1.0 - gd_w / dram_w),
                pct(1.0 - sys_gd / sys_w),
                pct(1.0 - ksm_w / dram_w),
                pct(1.0 - sys_ksm / sys_w),
            ],
            &widths,
        );
    }
    outln!(
        cx.out,
        "\npaper: -32%/-9% at 256 GB -> -36%/-20% at 1 TB; w/ KSM -55%/-30% at 1 TB"
    );
}

const UTILS: [f64; 4] = [0.50, 0.65, 0.80, 0.95];

/// One fleet variant at each consolidation cap.
struct Variant {
    tag: &'static str,
    greendimm: bool,
    ksm: bool,
    placement: FleetPlacement,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        tag: "base",
        greendimm: false,
        ksm: false,
        placement: FleetPlacement::BestFit,
    },
    Variant {
        tag: "gd",
        greendimm: true,
        ksm: false,
        placement: FleetPlacement::BestFit,
    },
    Variant {
        tag: "gd+ksm",
        greendimm: true,
        ksm: true,
        placement: FleetPlacement::KsmAware,
    },
];

/// Fig. 14 (extension): fleet-level energy vs. consolidation
/// aggressiveness — `--hosts` hosts driven from the synthesized Azure
/// cluster stream through the placement scheduler, with and without
/// GreenDIMM and KSM-aware co-location. The paper motivates GreenDIMM with
/// datacenter utilization (§1: 40–60 % average across fleets); this
/// figure aggregates per-host savings into cluster power curves.
///
/// Hosts shard across `--jobs` workers inside each point (the points run
/// serially, so the pool is never oversubscribed). Every
/// `--sample-stride`-th host is co-simulated exactly and the rest use a
/// surrogate calibrated against those anchors; `--sample-stride 1`
/// co-simulates every host. Output is byte-identical for any `--jobs`.
pub const FIG14: Figure = Figure {
    id: "fig14_fleet_energy",
    flags: &[
        PERIODS,
        Flag::Engine,
        FLEET,
        Flag::Hosts,
        Flag::SampleStride,
    ],
    config: |o| {
        format!(
            "azure-cluster hosts={} 256GB/host block=1GB seed=42 duration_s={} stride={} \
             utils=0.50..0.95 x base/gd/gd+ksm",
            o.hosts,
            o.requests as u64 * PERIOD_S,
            o.sample_stride.unwrap_or(1)
        )
    },
    run: fig14,
};

fn fig14(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let points: Vec<(f64, &Variant)> = UTILS
        .iter()
        .flat_map(|&u| VARIANTS.iter().map(move |v| (u, v)))
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(u, v)| format!("u{u:.2}/{}", v.tag))
        .collect();
    let runs = cx.sweep_serial(&points, &labels, |(max_util, v)| {
        let cfg = FleetConfig {
            hosts: o.hosts,
            duration_s: o.requests as u64 * PERIOD_S,
            max_util: *max_util,
            placement: v.placement,
            ksm: v.ksm,
            greendimm: v.greendimm,
            sample_stride: o.sample_stride.unwrap_or(1),
            ..FleetConfig::paper_1k()
        };
        let mut run = run_fleet(&cfg, o.engine, o.jobs, o.verify(), o.telemetry_enabled())
            .expect("fleet run");
        let shards: Vec<(String, Option<Telemetry>)> = run
            .telemetry
            .take()
            .unwrap_or_default()
            .into_iter()
            .map(|(host, tele)| (host, Some(tele)))
            .collect();
        (run, shards)
    });

    // Per-host DRAM power from the same model Fig. 13 fits to the paper's
    // 256 GB measurement; deep power-down gates each host individually.
    let sys_model = SystemPowerModel::default();
    let cpu_util = 0.3; // consolidated VM server, modest CPU activity
    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb());
    let activity = ActivityProfile::busy(0.15);
    let fleet_kw = |run: &FleetOutcome| -> (f64, f64) {
        let mut dram_w = 0.0;
        let mut sys_w = 0.0;
        for h in &run.hosts {
            let w =
                model.analytic_power_w(&activity, &PowerGating::deep_pd(h.mean_deep_pd_fraction));
            dram_w += w;
            sys_w += sys_model.system_power_w(w, cpu_util);
        }
        (dram_w / 1_000.0, sys_w / 1_000.0)
    };

    let widths = [6, 10, 10, 9, 10, 9, 9, 9, 9, 10];
    cx.out.header(
        &format!(
            "Fig. 14: fleet DRAM/system power vs. consolidation cap ({} hosts, 24 h)",
            o.hosts
        ),
        &[
            "cap",
            "base kW",
            "gd kW",
            "gd red",
            "ksm kW",
            "ksm red",
            "sys red",
            "ksm sred",
            "placed",
            "peak used",
        ],
        &widths,
    );
    for (&u, cap) in UTILS.iter().zip(runs.chunks(VARIANTS.len())) {
        let (base, gd, ksm) = (&cap[0], &cap[1], &cap[2]);
        let (base_kw, base_sys) = fleet_kw(base);
        let (gd_kw, gd_sys) = fleet_kw(gd);
        let (ksm_kw, ksm_sys) = fleet_kw(ksm);
        cx.out.row(
            &[
                pct(u),
                f2(base_kw),
                f2(gd_kw),
                pct(1.0 - gd_kw / base_kw),
                f2(ksm_kw),
                pct(1.0 - ksm_kw / base_kw),
                pct(1.0 - gd_sys / base_sys),
                pct(1.0 - ksm_sys / base_sys),
                pct(gd.stats.placement_rate()),
                gd.stats.peak_hosts_used.to_string(),
            ],
            &widths,
        );
    }
    outln!(
        cx.out,
        "\n{} hosts/point, {} co-simulated exactly per point ({})",
        o.hosts,
        runs[0].exact_hosts,
        o.engine_label()
    );
    let cap_080 = UTILS
        .iter()
        .position(|&u| u == 0.80)
        .expect("0.80 is a cap");
    outln!(
        cx.out,
        "mean scheduled utilization at cap 0.80 (gd): {}",
        pct(runs[VARIANTS.len() * cap_080 + 1].mean_utilization())
    );
    outln!(
        cx.out,
        "looser caps spread VMs across more hosts -> more idle memory per host -> deeper\n\
         power-down; KSM-aware co-location frees extra frames on top"
    );
}
