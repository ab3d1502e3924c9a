//! # lvp-bench — experiment harnesses for every table and figure
//!
//! This crate turns the reproduction's components into the paper's
//! evaluation. Every figure, table and ablation is declared as data in
//! [`specs`] — an [`specs::ExperimentSpec`] names the `(workload, scheme,
//! preset)` simulations it needs and renders the collected results — and a
//! single `figs` binary executes any selection of them on the deterministic
//! parallel worker pool (see DESIGN.md §4 for the index).
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run --release -p lvp-bench --bin figs -- --all
//! ```
//!
//! or one experiment with `figs fig06_comparison [--budget N]`, where the
//! budget is the per-workload dynamic-instruction count (default 200k — the
//! paper uses 100M-instruction simpoints; we scale down for interactivity,
//! which compresses absolute speedups but preserves the relative ordering
//! the figures show).

pub mod analysis;
pub mod cli;
pub mod experiments;
pub mod microbench;
pub mod perf;
pub mod report;
pub mod runner;
pub mod serve;
pub mod service;
pub mod specs;
pub mod telemetry;

pub use experiments::{run_scheme, run_scheme_with, SchemeKind, SchemeOutcome};
pub use runner::{
    default_jobs, diff_matrices, par_map, par_map_metered, run_matrix, run_matrix_serviced,
    run_matrix_with, ConfigVariant, Drift, JobResult, JobSpec, MatrixResults, MatrixSpec,
    Tolerances,
};
pub use serve::{client_run_matrix, execute_batch, serve, BatchRequest, ServeConfig, ServeStats};
pub use service::{
    sim_request_doc, simulate_cached, CachedBatch, ExecutedWork, Provenance, SimPoint, SimRun,
};
pub use specs::{
    run_specs, run_specs_serviced, run_specs_with, ExperimentSpec, RenderedSpec, ResultSet,
    SimRequest,
};
pub use telemetry::{config_hash, Manifest, PoolStats, Progress};
