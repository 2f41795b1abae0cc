//! The experiment harness behind the `gd-bench` binary: the figure
//! registry ([`figures`]), its driver and strict command line ([`driver`],
//! [`cli`]), and the shared experiment logic the figures call.
//!
//! Every table and figure of the paper's evaluation is a registry entry
//! that regenerates it; see `DESIGN.md` §5 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured values. Run e.g.:
//!
//! ```text
//! cargo run --release -p gd-bench -- run fig09_dram_energy
//! cargo run --release -p gd-bench -- regen --check
//! ```

pub mod blocks;
pub mod cli;
pub mod driver;
pub mod energy;
pub mod figures;
pub mod provenance;
pub mod report;
pub mod robustness;
pub mod sweep;
pub mod telemetry;
pub mod vmtrace;

pub use blocks::{block_size_experiment, block_size_experiment_tele, BlockSizeRow, MANAGED_BYTES};
pub use energy::{
    engine_name, evaluate_app, evaluate_app_tele, find_row, measure_app, measure_app_tele,
    AppMeasurement, EnergyRow,
};
pub use provenance::{fnv1a, provenance_line};
pub use robustness::{robustness_experiment, RobustnessRow, FAULT_RATES};
pub use sweep::{default_jobs, sweep, PointCtx, SweepTiming};
pub use telemetry::render_shards;
pub use vmtrace::{run_vm_trace, run_vm_trace_tele, VmTraceConfig, VmTraceOutcome, VmTraceSample};
