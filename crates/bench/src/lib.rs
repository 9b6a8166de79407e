//! # rtmdm-bench — the experiment harness
//!
//! One function per table and figure of the reconstructed evaluation
//! (see `DESIGN.md` §7), all run by the one binary, `run_all`. Every
//! experiment prints its rows to stdout and writes them to
//! `results/<id>.txt` so `EXPERIMENTS.md` can quote them verbatim.
//!
//! Run everything with:
//!
//! ```sh
//! cargo run -p rtmdm-bench --release --bin run_all
//! ```
//!
//! Sweeps run their `(parameter, seed)` cells on a scoped worker pool
//! (see [`rtmdm_par`]); set `RTMDM_THREADS` to pin the worker count
//! (`RTMDM_THREADS=1` forces the plain serial path). Emitted tables are
//! byte-identical for any thread count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod telemetry;

use std::fs;
use std::path::{Path, PathBuf};

/// The directory every output is written under: the working directory,
/// so a run from a checkout's root writes into that checkout.
pub fn output_root() -> PathBuf {
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

/// Directory experiment outputs land in (`results/` under
/// [`output_root`]).
pub fn results_dir() -> PathBuf {
    output_root().join("results")
}

/// Writes `content` to `path`, creating its directory first. The error
/// names the path.
pub fn write_output(path: &Path, content: &str) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(path, content))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}

/// Prints `content` and persists it as `results/<id>.txt`.
pub fn emit(id: &str, content: &str) -> Result<(), String> {
    println!("==== {id} ====\n{content}");
    write_output(&results_dir().join(format!("{id}.txt")), content)
}
