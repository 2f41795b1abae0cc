//! The experiment harness: shared logic behind the figure/table
//! regeneration binaries (`src/bin/fig*.rs`, `src/bin/tab*.rs`) and the
//! criterion micro-benchmarks.
//!
//! Every table and figure of the paper's evaluation has a binary that
//! regenerates it; see `DESIGN.md` §5 for the index and `EXPERIMENTS.md`
//! for paper-vs-measured values. Run e.g.:
//!
//! ```text
//! cargo run --release -p gd-bench --bin fig09_dram_energy
//! ```

pub mod blocks;
pub mod energy;
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
pub use provenance::{fnv1a, print_provenance, provenance_line, provenance_line_with_engine};
pub use robustness::{robustness_experiment, RobustnessRow, FAULT_RATES};
pub use sweep::{
    default_jobs, sweep, timed_sweep, timed_sweep_jobs, PointCtx, SweepOpts, SweepTiming,
};
pub use telemetry::{render_shards, TelemetryOpts};
pub use vmtrace::{run_vm_trace, run_vm_trace_tele, VmTraceConfig, VmTraceOutcome, VmTraceSample};
