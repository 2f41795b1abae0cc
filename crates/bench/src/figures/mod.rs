//! The figure registry: every table and figure of the paper's evaluation,
//! plus the extensions and ablations, as one [`Figure`] entry each. The
//! ids are the stems of the committed `results/<id>.txt` snapshots;
//! `DESIGN.md` §5 indexes them and `EXPERIMENTS.md` compares them with the
//! paper.

mod dram;
mod hotplug;
mod vm;

use crate::cli::{Count, Flag};
use crate::driver::Figure;

/// Every figure, sorted by id (the order of `gd-bench list`).
pub const FIGURES: &[Figure] = &[
    hotplug::ABLATION_ADAPTIVE_THR,
    hotplug::ABLATION_KSM_SCAN,
    hotplug::ABLATION_NEIGHBOR,
    hotplug::ABLATION_OFFTHR,
    vm::FIG01,
    dram::FIG02,
    dram::FIG03,
    dram::FIG05,
    hotplug::FIG06,
    hotplug::FIG07,
    hotplug::FIG08,
    dram::FIG09,
    dram::FIG10,
    hotplug::FIG11,
    vm::FIG12,
    vm::FIG13,
    vm::FIG14,
    dram::FIG15,
    hotplug::FIG_FAULTS,
    dram::TAB01,
    hotplug::TAB02,
    hotplug::TAB03,
];

/// `--requests N`: cycle-level requests per run.
const fn requests(default: usize) -> Flag {
    Flag::Requests(Count::at_least("requests", default, 1))
}

/// `--requests N`: the simulated day in 300 s scheduler periods, from one
/// hour to the full 24 h.
const PERIODS: Flag = Flag::Requests(Count {
    unit: "300 s periods",
    default: 288,
    min: 12,
    max: 288,
});

/// `--strict-validate` of the cycle-level energy pipeline.
const PROTOCOL: Flag = Flag::StrictValidate("protocol + governor invariants enforced");

/// `--strict-validate` of the daemon/memory-manager co-simulation.
const COSIM: Flag = Flag::StrictValidate("co-simulation invariants enforced");

/// `--strict-validate` of the fleet.
const FLEET: Flag = Flag::StrictValidate("fleet + co-simulation invariants enforced");
