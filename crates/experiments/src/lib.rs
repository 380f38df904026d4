//! Experiment regeneration library: one function per table/figure of the
//! paper's evaluation. `squatphi repro` dispatches to these; tests call
//! them directly on a tiny pipeline run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod summary;

pub use experiments::{run_experiment, EXPERIMENT_IDS};
