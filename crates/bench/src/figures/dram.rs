//! The DRAM figures: analytic power (Fig. 2, Table 1), the address map
//! (Fig. 5), and the cycle-level energy pipeline (Figs. 3, 9, 10, 15).

use super::{requests, PROTOCOL};
use crate::cli::{Flag, Opts};
use crate::driver::{Ctx, Figure};
use crate::energy::{evaluate_app_tele, find_row, measure_app_opts, platform_desc, EnergyRow};
use crate::outln;
use crate::report::{f2, pct};
use gd_dram::AddressMapper;
use gd_power::{memspec_for, ActivityProfile, DramPowerModel, PowerGating};
use gd_types::config::{DramConfig, InterleaveMode, MemSpecKind};
use gd_types::ids::SubArrayGroup;
use gd_types::stats::geomean;
use gd_workloads::{by_name, energy_figure_set, AppProfile};

/// Fig. 2: DRAM idle and busy power as capacity grows (paper: 18 W idle /
/// 26 W busy at 256 GB; 9 W → 91 W from 64 GB to 1 TB with the background
/// share rising 44 % → 78 %). One point per capacity.
pub const FIG02: Figure = Figure {
    id: "fig02_idle_busy_power",
    flags: &[Flag::Memspec],
    config: |o| {
        format!(
            "analytic {} base=256GB busy_util=0.45 caps=64..1024",
            platform_desc(o.memspec)
        )
    },
    run: fig02,
};

fn fig02(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let caps = [64u64, 128, 256, 512, 768, 1024];
    let labels: Vec<String> = caps.iter().map(|c| format!("{c}GB")).collect();
    let results = cx.sweep(&caps, &labels, |&cap_gb| {
        let base = memspec_for(DramConfig::preset_256gb(o.memspec)).expect("paper preset");
        let idle_256 =
            base.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
        let busy_256 = base.analytic_power_w(&ActivityProfile::busy(0.45), &PowerGating::none());
        // Activity power is set by the workload (16 copies of mcf), not by
        // the installed capacity: only the background term scales with
        // DIMM count.
        let activity_w = busy_256 - idle_256;
        let idle = if cap_gb == 64 {
            let m64 = memspec_for(DramConfig::preset_64gb(o.memspec)).expect("paper preset");
            m64.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none())
        } else {
            // Capacity past the preset scales linearly in installed DIMMs
            // (the paper fits the same linear model).
            idle_256 * cap_gb as f64 / 256.0
        };
        let busy = idle + activity_w;
        let mut tele = o.shard();
        if let Some(t) = &mut tele {
            t.registry.gauge_set("power.idle_w", idle);
            t.registry.gauge_set("power.busy_w", busy);
        }
        ((idle, busy), tele)
    });

    let widths = [10, 10, 10, 14];
    cx.out.header(
        "Fig. 2: DRAM idle/busy power vs. capacity",
        &["capacity", "idle (W)", "busy (W)", "bg fraction"],
        &widths,
    );
    for (&cap_gb, (idle, busy)) in caps.iter().zip(results) {
        cx.out.row(
            &[format!("{cap_gb} GB"), f2(idle), f2(busy), pct(idle / busy)],
            &widths,
        );
    }
    outln!(
        cx.out,
        "\npaper: 18/26 W at 256 GB; 9→91 W busy from 64 GB→1 TB; bg 44%→78%"
    );
}

/// Table 1: DRAM power vs. utilization of memory capacity — without power
/// management the power is flat (paper: 25.8–26.0 W at 256 GB).
pub const TAB01: Figure = Figure {
    id: "tab01_power_vs_util",
    flags: &[],
    config: |_| "analytic ddr4-2133 256GB busy_util=0.40 utils=10..100".into(),
    run: tab01,
};

fn tab01(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    // A lightly loaded server: capacity utilization does not enter the
    // conventional power equation at all — only traffic does.
    let utils = [0.10, 0.25, 0.50, 0.75, 1.00];
    let labels: Vec<String> = utils.iter().map(|u| format!("{:.0}%", u * 100.0)).collect();
    let results = cx.sweep(&utils, &labels, |_util| {
        let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb());
        let p = model.analytic_power_w(&ActivityProfile::busy(0.40), &PowerGating::none());
        let mut tele = o.shard();
        if let Some(t) = &mut tele {
            t.registry.gauge_set("power.dram_w", p);
        }
        (p, tele)
    });

    let widths = [12, 10];
    cx.out.header(
        "Table 1: DRAM power vs. utilization of memory capacity (256 GB)",
        &["utilization", "power (W)"],
        &widths,
    );
    for (label, p) in labels.iter().zip(results) {
        cx.out.row(&[label.clone(), f2(p)], &widths);
    }
    outln!(
        cx.out,
        "\npaper: 25.8 W .. 26.0 W — constant regardless of used capacity"
    );
}

/// Fig. 5: the address mapping for the 64 GB platform and the sub-array
/// group as the minimum power-management unit (1.5625 % of capacity).
pub const FIG05: Figure = Figure {
    id: "fig05_addrmap",
    flags: &[],
    config: |_| "ddr4-2133 64GB 4ch x 4rank x8".into(),
    run: fig05,
};

fn addrmap_text(cfg: &DramConfig, mapper: &AddressMapper) -> String {
    let l = mapper.bit_layout();
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line("=== Fig. 5: physical address layout, 64 GB 4ch x 4rank DDR4 x8 ===\n".into());
    line("bit fields (LSB -> MSB):".into());
    line(format!("  [{:>2} b] cache-line offset", l.offset));
    line(format!(
        "  [{:>2} b] channel select      (interleaved)",
        l.channel
    ));
    line(format!(
        "  [{:>2} b] bank group select   (interleaved)",
        l.bank_group
    ));
    line(format!(
        "  [{:>2} b] bank select         (interleaved)",
        l.bank
    ));
    line(format!("  [{:>2} b] column (cache line)", l.column));
    line(format!(
        "  [{:>2} b] rank select         (interleaved)",
        l.rank
    ));
    line(format!(
        "  [{:>2} b] local row  <- local row decoder",
        l.local_row
    ));
    line(format!(
        "  [{:>2} b] sub-array  <- global row decoder (MSBs)",
        l.subarray
    ));
    line(format!(
        "  total {} bits = {} GB\n",
        l.total(),
        (1u64 << l.total()) >> 30
    ));
    line(format!(
        "sub-array groups: {} x {} MB = {} GB ({}% of capacity each)",
        mapper.subarray_groups(),
        cfg.subarray_group_bytes() >> 20,
        cfg.total_capacity_bytes() >> 30,
        100.0 * cfg.subarray_group_bytes() as f64 / cfg.total_capacity_bytes() as f64,
    ));
    for g in [0u32, 1, 63] {
        let (s, e) = mapper
            .subarray_group_range(SubArrayGroup::new(g))
            .expect("interleaved");
        line(format!("  group {g:>2}: physical [{s:#013x}, {e:#013x})"));
    }
    line("\npaper: 1024 MB unit = 1.5625% of capacity, independent of total size".into());
    out
}

fn fig05(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let results = cx.sweep(&["64gb"], &["64gb".to_string()], |_| {
        let cfg = DramConfig::ddr4_2133_64gb();
        let mapper = AddressMapper::new(&cfg).expect("valid config");
        let mut tele = o.shard();
        if let Some(t) = &mut tele {
            t.registry.gauge_set(
                "addrmap.subarray_groups",
                f64::from(mapper.subarray_groups()),
            );
            t.registry.gauge_set(
                "addrmap.group_mib",
                (cfg.subarray_group_bytes() >> 20) as f64,
            );
        }
        (addrmap_text(&cfg, &mapper), tele)
    });
    cx.out.text(&results[0]);
}

/// Fig. 3: the impact of memory interleaving on performance, self-refresh
/// residency, and energy for high-MPKI SPEC CPU2006 benchmarks (paper: up
/// to 3.8x speedup; 0 % vs ~54 % SR cycles; −26 % energy w/o
/// interleaving). One point per app.
pub const FIG03: Figure = Figure {
    id: "fig03_interleaving",
    flags: &[requests(25_000), Flag::Engine, PROTOCOL],
    config: |o| {
        format!(
            "ddr4-2133 64GB apps=mcf/soplex/lbm/libquantum requests={} seed=1",
            o.requests
        )
    },
    run: fig03,
};

fn fig03(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let cfg = DramConfig::ddr4_2133_64gb();
    let apps = ["mcf", "soplex", "lbm", "libquantum"];
    let labels: Vec<String> = apps.iter().map(|a| (*a).to_string()).collect();
    let points = cx.sweep(&apps, &labels, |name| {
        let p = by_name(name).expect("profile");
        let run =
            |mode| measure_app_opts(&p, cfg, mode, o.requests, 1, o.measure()).expect("cycle sim");
        let (with, without) = (
            run(InterleaveMode::Interleaved),
            run(InterleaveMode::Linear),
        );
        let mut tele = o.shard();
        let rows =
            evaluate_app_tele(&p, cfg, o.requests, 1, o.measure(), tele.as_mut()).expect("energy");
        let energy = |intlv| find_row(&rows, "srf_only", intlv).expect("cell").system_j;
        let row = [
            p.name.to_string(),
            format!("{:.2}x", without.runtime_s / with.runtime_s),
            pct(with.sr_fraction),
            pct(without.sr_fraction),
            f2(energy(false) / energy(true)),
        ];
        (row, tele)
    });

    let widths = [16, 9, 11, 11, 13];
    cx.out.header(
        "Fig. 3: impact of memory interleaving (64 GB, 4ch x 4rank)",
        &["app", "speedup", "SR w/intlv", "SR w/o", "E w/o / E w/"],
        &widths,
    );
    for row in points {
        cx.out.row(&row, &widths);
    }
    outln!(
        cx.out,
        "\npaper: speedup up to 3.8x (lbm); SR 0% w/ intlv vs ~54% w/o;"
    );
    outln!(
        cx.out,
        "w/o interleaving saves ~26% energy for these apps when SR is usable"
    );
}

/// Fig. 9: DRAM energy, normalized to (w/o interleave, srf_only), for four
/// policies under both interleave modes (paper: GreenDIMM reduces DRAM
/// energy 38 % for SPEC and 60 % for data-center workloads on average,
/// and beats RAMZzz/PASR by ~49 pp when interleaving is on).
pub const FIG09: Figure = Figure {
    id: "fig09_dram_energy",
    flags: ENERGY_MATRIX_FLAGS,
    config: energy_matrix_config,
    run: |cx| {
        energy_matrix(
            cx,
            "Fig. 9: normalized DRAM energy (baseline = w/o intlv, srf_only)",
            |r| r.dram_norm,
            "paper: GreenDIMM -38% (SPEC) / -60% (data-center) vs baseline",
        );
    },
};

/// Fig. 10: system energy, same matrix as Fig. 9 (paper: GreenDIMM reduces
/// system energy by 26 % for SPEC and 30 % for data-center workloads; only
/// GreenDIMM helps when interleaving is on).
pub const FIG10: Figure = Figure {
    id: "fig10_system_energy",
    flags: ENERGY_MATRIX_FLAGS,
    config: energy_matrix_config,
    run: |cx| {
        energy_matrix(
            cx,
            "Fig. 10: normalized system energy (baseline = w/o intlv, srf_only)",
            |r| r.system_norm,
            "paper: GreenDIMM -26% (SPEC) / -30% (data-center) vs baseline",
        );
    },
};

const ENERGY_MATRIX_FLAGS: &[Flag] = &[requests(20_000), Flag::Engine, PROTOCOL, Flag::Memspec];

fn energy_matrix_config(o: &Opts) -> String {
    format!(
        "{} 64GB energy-figure-set requests={} seed=1",
        platform_desc(o.memspec),
        o.requests
    )
}

/// The Fig. 9/10 matrix: every app of the energy-figure set (one point
/// each) under four policies × both interleave modes, normalized by `norm`.
fn energy_matrix(cx: &mut Ctx<'_>, title: &str, norm: fn(&EnergyRow) -> f64, paper: &str) {
    let o = cx.opts;
    let cfg = DramConfig::preset_64gb(o.memspec);
    let profiles = energy_figure_set();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let results = cx.sweep(&profiles, &labels, |p| {
        let mut tele = o.shard();
        let rows = evaluate_app_tele(p, cfg, o.requests, 1, o.measure(), tele.as_mut());
        (rows, tele)
    });

    let widths = [16, 9, 9, 9, 9, 9, 9, 9, 9];
    cx.out.header(
        title,
        &[
            "app", "srf-", "srf+", "RZ-", "RZ+", "PASR-", "PASR+", "GD-", "GD+",
        ],
        &widths,
    );
    outln!(cx.out, "('-' = w/o interleaving, '+' = w/ interleaving)");
    let mut gd_norms = Vec::new();
    for (p, rows) in profiles.iter().zip(results) {
        let rows = rows.expect("energy");
        let cell =
            |policy: &str, intlv: bool| find_row(&rows, policy, intlv).map_or(f64::NAN, norm);
        gd_norms.push(cell("GreenDIMM", true));
        let mut cells = vec![p.name.to_string()];
        for policy in ["srf_only", "RAMZzz", "PASR", "GreenDIMM"] {
            cells.push(f2(cell(policy, false)));
            cells.push(f2(cell(policy, true)));
        }
        cx.out.row(&cells, &widths);
    }
    if let Some(g) = geomean(&gd_norms) {
        outln!(
            cx.out,
            "\nGreenDIMM w/ interleaving geomean: {:.2} of baseline ({}% reduction)",
            g,
            ((1.0 - g) * 100.0).round()
        );
    }
    outln!(cx.out, "{paper}");
}

/// Fig. 15 (extension): GreenDIMM vs. rank power-down (RAMZzz) vs. PASR
/// across memory generations — the energy-figure workload set on the DDR4,
/// DDR5 (same-bank refresh), and LPDDR4-PASR backends. One point per
/// {backend × app}; both engines are exact, so the table is a bit-exact
/// cross-backend comparison under either `--engine`.
pub const FIG15: Figure = Figure {
    id: "fig15_cross_generation",
    flags: &[requests(20_000), Flag::Engine, PROTOCOL],
    config: |o| {
        format!(
            "cross-generation ddr4-2133/ddr5-4800/lpddr4-3200 64GB \
             energy-figure-set requests={} seed=1",
            o.requests
        )
    },
    run: fig15,
};

fn fig15(cx: &mut Ctx<'_>) {
    let o = cx.opts;
    let profiles = energy_figure_set();
    // One point per {backend, app}; the point order (backend-major, fixed
    // MemSpecKind::all order) is part of the snapshot contract.
    let points: Vec<(MemSpecKind, &AppProfile)> = MemSpecKind::all()
        .into_iter()
        .flat_map(|kind| profiles.iter().map(move |p| (kind, p)))
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(kind, p)| format!("{}/{}", kind.name(), p.name))
        .collect();
    let results = cx.sweep(&points, &labels, |&(kind, p)| {
        let cfg = DramConfig::preset_64gb(kind);
        let mut tele = o.shard();
        let rows = evaluate_app_tele(p, cfg, o.requests, 1, o.measure(), tele.as_mut());
        (rows.expect("energy"), tele)
    });

    let widths = [14, 9, 9, 9, 9, 12];
    cx.out.header(
        "Fig. 15: normalized DRAM energy by generation (baseline = w/o intlv, srf_only)",
        &["backend", "srf+", "RZ+", "PASR+", "GD+", "GD saving"],
        &widths,
    );
    outln!(
        cx.out,
        "(w/ interleaving; geomean over the energy-figure workload set)"
    );
    for (kind, backend_rows) in MemSpecKind::all()
        .into_iter()
        .zip(results.chunks(profiles.len()))
    {
        let col = |policy: &str| {
            let norms: Vec<f64> = backend_rows
                .iter()
                .filter_map(|rows| find_row(rows, policy, true).map(|r| r.dram_norm))
                .collect();
            geomean(&norms).unwrap_or(f64::NAN)
        };
        let gd = col("GreenDIMM");
        cx.out.row(
            &[
                platform_desc(kind).to_string(),
                f2(col("srf_only")),
                f2(col("RAMZzz")),
                f2(col("PASR")),
                f2(gd),
                pct(1.0 - gd),
            ],
            &widths,
        );
    }
    outln!(
        cx.out,
        "\nGreenDIMM's sub-array deep power-down survives interleaving on every \
         generation; rank power-down (RAMZzz) and PASR only help where the \
         generation's refresh/self-refresh granularity lets them."
    );
}
