//! Library backing the `squatphi` command-line tool.
//!
//! The paper open-sourced its tooling as standalone utilities; this crate
//! is that deliverable for the reproduction. Every subcommand is a plain
//! function over a parsed [`cli::Command`], so the logic is testable
//! without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod commands;

pub use cli::{parse_args, CheckpointArgs, CliError, Command};
