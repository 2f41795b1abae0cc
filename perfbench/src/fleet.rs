//! The `fleet-cosim` workload: a 24 h fleet at one consolidation cap, in
//! two modes (`gd`, and `gd+ksm` with KSM-aware placement), every host
//! co-simulated exactly on the `gd-fleet` shard pool.
//!
//! The untraced pass calls the public pieces of `run_fleet`'s exact path:
//! `schedule_fleet`, then `run_host` per host through `shard_map`. The
//! traced pass replaces `run_host` with [`traced_host`], which repeats it
//! call for call (and `EpochSim::step` inside it) so that `Ksm::advance`,
//! `Daemon::tick` and the footprint changes each get a span. Both must
//! reproduce `run_fleet`'s outcome, which is the reference.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{Counts, Point, Workload};
use gd_dram::EngineMode;
use gd_fleet::{
    run_fleet, run_host, schedule_fleet, shard_map, HostRun, HostSample, HostSimConfig, HostSummary,
};
use gd_ksm::{Ksm, KsmConfig, RegionId};
use gd_mmsim::{MemoryManager, MmConfig, PageKind};
use gd_types::fleet::{FleetConfig, FleetPlacement};
use gd_types::rng::sweep_point_seed;
use gd_types::{GdError, Result, SimTime};
use gd_workloads::cluster::{synthesize_cluster, ClusterConfig};
use gd_workloads::{VmEvent, VmEventKind};
use greendimm::{Daemon, FootprintDriver, GreenDimmConfig, GroupMap};
use std::collections::BTreeMap;

/// Hosts per fleet: enough VMs per pass that the seed moves the work by a
/// few percent, few enough that a pass stays in seconds.
const HOSTS: usize = 8;

/// `(label, ksm, placement)`: GreenDIMM alone, and with KSM co-location.
const MODES: [(&str, bool, FleetPlacement); 2] = [
    ("gd", false, FleetPlacement::BestFit),
    ("gd+ksm", true, FleetPlacement::KsmAware),
];

pub struct Fleet {
    seed: u64,
    jobs: usize,
}

impl Fleet {
    pub fn new(seed: u64, jobs: usize) -> Self {
        Fleet { seed, jobs }
    }

    fn config(&self, ksm: bool, placement: FleetPlacement) -> FleetConfig {
        FleetConfig {
            hosts: HOSTS,
            duration_s: 86_400,
            max_util: 0.80,
            placement,
            ksm,
            greendimm: true,
            seed: self.seed,
            ..FleetConfig::paper_1k()
        }
    }
}

/// `run_fleet`'s per-host configuration on an exact engine.
fn host_config(cfg: &FleetConfig, host: usize) -> HostSimConfig {
    HostSimConfig {
        capacity_gb: cfg.host_capacity_gb,
        block_gb: cfg.block_gb,
        ksm: cfg.ksm,
        greendimm: cfg.greendimm,
        duration_s: cfg.duration_s,
        schedule_period_s: cfg.schedule_period_s,
        seed: sweep_point_seed(cfg.seed, host),
        engine: EngineMode::EventDriven,
    }
}

/// `run_fleet`'s roll-up of an exactly simulated host.
fn summary(host: usize, run: &HostRun) -> HostSummary {
    HostSummary {
        host,
        exact: true,
        mean_used_fraction: run.mean_used_fraction(),
        mean_deep_pd_fraction: run.mean_deep_pd_fraction(),
        hotplug_events: run.daemon.hotplug_events(),
        ksm_released_pages: run.ksm_released_pages,
        replayed_ticks: run.daemon.replayed_ticks,
    }
}

impl Workload for Fleet {
    /// Arrivals in the synthesized cluster stream.
    type Inputs = usize;

    fn describe(&self) -> String {
        format!(
            "engine=event-driven (exact, every host) hosts={HOSTS} duration=24h cap=0.80 \
             modes=gd,gd+ksm workers={}",
            self.jobs
        )
    }

    fn setup(&self, tr: &mut Tracer) -> Result<usize> {
        let cfg = self.config(false, FleetPlacement::BestFit);
        let arrivals = tr.span("workloads.cluster_synth", |_| {
            synthesize_cluster(&ClusterConfig {
                duration_s: cfg.duration_s,
                schedule_period_s: cfg.schedule_period_s,
                arrivals_per_tick: cfg.arrivals_per_tick_per_host * cfg.hosts as f64,
                seed: cfg.seed,
            })
        });
        Ok(arrivals.len())
    }

    fn pass(&self, arrivals: usize, tr: &mut Tracer) -> (Vec<Point>, Counts) {
        let mut counts = Counts::new();
        let points = MODES
            .iter()
            .map(|&(label, ksm, placement)| {
                let cfg = self.config(ksm, placement);
                let out = crate::guarded(|| {
                    let (runs, schedule) = run_mode(&cfg, self.jobs, tr)?;
                    let stats = schedule.stats;
                    if !stats.conserved() || stats.arrivals != arrivals as u64 {
                        return Err(format!(
                            "{label}: VM accounting broken ({arrivals} synthesized): {stats:?}"
                        ));
                    }
                    Ok((runs, schedule))
                });
                let (public, digest) = match out {
                    Ok((runs, schedule)) => {
                        let mut hosts = Vec::with_capacity(runs.len());
                        let mut d = Digest::default();
                        for (host, (run, host_counts)) in runs.iter().enumerate() {
                            hosts.push(summary(host, run));
                            d.fold(run);
                            for (k, v) in host_counts {
                                *counts.entry(k).or_default() += v;
                            }
                        }
                        d.fold(&schedule.stats);
                        d.fold(&schedule.utilization);
                        *counts.entry("fleet.placed").or_default() += schedule.stats.placed;
                        *counts.entry("fleet.abandoned").or_default() += schedule.stats.abandoned;
                        let peak = counts.entry("fleet.peak_hosts_used").or_default();
                        *peak = (*peak).max(schedule.stats.peak_hosts_used as u64);
                        let public = Digest::of(&(hosts, schedule.stats, schedule.utilization));
                        (Ok(public), d)
                    }
                    Err(e) => (Err(e), Digest::default()),
                };
                Point {
                    label: label.to_string(),
                    public,
                    digest,
                }
            })
            .collect();
        (points, counts)
    }

    fn workers(&self) -> usize {
        self.jobs
    }

    fn reference(&self) -> Vec<std::result::Result<Digest, String>> {
        MODES
            .iter()
            .map(|&(_, ksm, placement)| {
                crate::guarded(|| {
                    let out = run_fleet(
                        &self.config(ksm, placement),
                        EngineMode::EventDriven,
                        self.jobs,
                        Some(gd_verify::Mode::Strict),
                        false,
                    )
                    .map_err(|e| e.to_string())?;
                    Ok(Digest::of(&(out.hosts, out.stats, out.utilization)))
                })
            })
            .collect()
    }
}

type HostOut = (HostRun, Counts);

/// Schedules one fleet and co-simulates every host on the shard pool.
fn run_mode(
    cfg: &FleetConfig,
    jobs: usize,
    tr: &mut Tracer,
) -> std::result::Result<(Vec<HostOut>, gd_fleet::FleetSchedule), String> {
    let schedule = tr
        .span("fleet.schedule", |_| schedule_fleet(cfg, None))
        .map_err(|e| e.to_string())?;
    let runs = tr.span("fleet.pool", |tr| {
        let pool = tr.current();
        let shared: &Tracer = tr;
        let results = shard_map(
            &schedule.host_events,
            jobs,
            |host, events: &Vec<VmEvent>| {
                let mut htr = shared.child(1 + host);
                let hcfg = host_config(cfg, host);
                let out = htr.span("fleet.host", |htr| {
                    if htr.enabled() {
                        traced_host(&hcfg, events, htr)
                    } else {
                        run_host(&hcfg, events, false).map(|(run, _)| (run, Counts::new()))
                    }
                });
                (out, htr.into_spans())
            },
        );
        results
            .into_iter()
            .map(|(out, spans)| {
                tr.adopt(pool, spans);
                out
            })
            .collect::<Result<Vec<_>>>()
            .map_err(|e| e.to_string())
    })?;
    Ok((runs, schedule))
}

/// The host stack of `run_host`, with `EpochSim`'s clock kept here so each
/// layer call inside a step can be spanned.
struct Host {
    mm: MemoryManager,
    daemon: Daemon,
    ksm: Option<Ksm>,
    now: SimTime,
    next_monitor: SimTime,
}

impl Host {
    /// `run_host`'s construction: memory manager with the kernel
    /// reservation, daemon, and KSM when enabled.
    fn new(cfg: &HostSimConfig) -> Result<Self> {
        let mm_cfg = MmConfig {
            capacity_bytes: cfg.capacity_gb << 30,
            block_bytes: cfg.block_gb << 30,
            movablecore_bytes: None,
            unmovable_leak_prob: 0.0,
            transient_fail_prob: 0.0,
            seed: cfg.seed,
        };
        let mut mm = MemoryManager::new(mm_cfg)?;
        let kernel_pages = mm.meminfo().installed_pages / 50;
        mm.allocate(kernel_pages, PageKind::KernelUnmovable)?;
        let gd_cfg = if cfg.greendimm {
            GreenDimmConfig::paper_default().with_seed(cfg.seed)
        } else {
            GreenDimmConfig {
                off_thr: 2.0,
                on_thr: 0.0,
                ..GreenDimmConfig::paper_default()
            }
        };
        let map = GroupMap::new(mm_cfg.capacity_bytes, 64, mm_cfg.block_bytes)?;
        let daemon = Daemon::new(gd_cfg, map);
        let next_monitor = daemon.config().monitor_period;
        Ok(Host {
            mm,
            daemon,
            ksm: cfg.ksm.then(|| Ksm::new(KsmConfig::default())),
            now: SimTime::ZERO,
            next_monitor,
        })
    }

    /// `EpochSim::step` without telemetry or verification.
    fn step(&mut self, dt: SimTime, tr: &mut Tracer) -> Result<()> {
        let target = self.now + dt;
        while self.now < target {
            let next = self.next_monitor.min(target);
            let slice = next - self.now;
            let mut merged = 0;
            if let Some(ksm) = &mut self.ksm {
                let mm = &mut self.mm;
                merged = tr.span("ksm.advance", |_| ksm.advance(slice, mm))?;
            }
            self.now = next;
            let fast_path = merged > 0 && self.daemon.config().ksm_fast_path;
            if self.now >= self.next_monitor || fast_path {
                // `step` samples these for telemetry and verification
                // before every tick, whether or not either is enabled.
                std::hint::black_box(self.mm.meminfo().free_pages);
                std::hint::black_box(self.daemon.stats.hotplug_time);
                let (daemon, mm, now) = (&mut self.daemon, &mut self.mm, self.now);
                tr.span("daemon.tick", |_| daemon.tick(now, mm))?;
                if self.now >= self.next_monitor {
                    self.next_monitor += self.daemon.config().monitor_period;
                }
            }
        }
        Ok(())
    }

    /// `EpochSim::set_footprint`: an allocation that outruns on-line free
    /// memory stalls, the daemon on-lines blocks, and it retries.
    fn set_footprint(
        &mut self,
        fp: &mut FootprintDriver,
        target: u64,
        tr: &mut Tracer,
    ) -> Result<()> {
        match fp.set_target(&mut self.mm, target) {
            Err(GdError::OutOfMemory {
                requested_pages, ..
            }) => {
                let (daemon, mm, now) = (&mut self.daemon, &mut self.mm, self.now);
                tr.span("daemon.stall", |_| {
                    daemon.handle_allocation_stall(now, mm, requested_pages)
                })?;
                fp.set_target(&mut self.mm, target)
            }
            other => other,
        }
    }
}

/// `run_host` on an exact engine, spanned per layer call. Returns the same
/// [`HostRun`] plus the host's layer counters.
fn traced_host(cfg: &HostSimConfig, events: &[VmEvent], tr: &mut Tracer) -> Result<HostOut> {
    let mut h = tr.span("fleet.host_setup", |_| Host::new(cfg))?;
    // Keyed inserts and removals only, as in `run_host`.
    let mut footprints: BTreeMap<u32, (FootprintDriver, Option<RegionId>)> = BTreeMap::new();
    let mut samples = Vec::new();
    let mut event_idx = 0;
    let tick = cfg.schedule_period_s;
    for t in 0..=cfg.duration_s / tick {
        let now_s = t * tick;
        while event_idx < events.len() && events[event_idx].time_s <= now_s {
            let ev = &events[event_idx];
            event_idx += 1;
            match ev.kind {
                VmEventKind::Start => {
                    let mut fp = FootprintDriver::new();
                    tr.span("mmsim.footprint", |tr| {
                        h.set_footprint(&mut fp, ev.vm.mem_pages(), tr)
                    })?;
                    let region = match &mut h.ksm {
                        Some(ksm) => {
                            let (shareable, unique) = ev.vm.ksm_contents();
                            let owner = fp.allocation_id().expect("just allocated");
                            Some(tr.span("ksm.region", |_| {
                                ksm.register_region(owner, shareable, unique)
                            }))
                        }
                        None => None,
                    };
                    footprints.insert(ev.vm.id, (fp, region));
                }
                VmEventKind::Stop => {
                    if let Some((mut fp, region)) = footprints.remove(&ev.vm.id) {
                        if let (Some(r), Some(ksm)) = (region, &mut h.ksm) {
                            tr.span("ksm.region", |_| ksm.unregister_region(r))?;
                        }
                        tr.span("mmsim.footprint", |_| fp.clear(&mut h.mm))?;
                    }
                }
            }
        }
        tr.span("cosim.step", |tr| h.step(SimTime::from_secs(tick), tr))?;
        let info = h.mm.meminfo();
        samples.push(HostSample {
            time_s: now_s,
            used_fraction: info.used_pages as f64 / info.installed_pages as f64,
            offline_blocks: h.mm.offline_block_count(),
            deep_pd_fraction: h.daemon.deep_pd_fraction(),
        });
    }
    let released = h.ksm.as_ref().map_or(0, Ksm::frames_released);
    let d = h.daemon.stats;
    let mut counts = Counts::new();
    let mut put = |k, v| {
        counts.insert(k, v);
    };
    put("daemon.ticks", d.ticks);
    put("daemon.offline_events", d.offline_events);
    put("daemon.online_events", d.online_events);
    put("daemon.failures", d.failures());
    put("daemon.allocation_stalls", d.allocation_stalls);
    put("mmsim.migrated_pages", h.mm.stats.migrated_pages);
    put("mmsim.offline_failures", h.mm.stats.offline_failures());
    if let Some(ksm) = &h.ksm {
        let s = ksm.stats();
        put("ksm.pages_scanned", s.pages_scanned);
        put("ksm.full_passes", s.full_passes);
        put("ksm.pages_sharing", s.pages_sharing);
        put("ksm.frames_released", released);
    }
    Ok((
        HostRun {
            samples,
            daemon: d,
            ksm_released_pages: released,
            replayed_periods: 0,
        },
        counts,
    ))
}
