//! # rtmdm-bench — the experiment harness
//!
//! One function (and one `src/bin` wrapper) per table and figure of the
//! reconstructed evaluation (see `DESIGN.md` §4). Every experiment
//! prints its rows to stdout and writes them to `results/<id>.txt` so
//! `EXPERIMENTS.md` can quote them verbatim.
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
use std::path::PathBuf;

/// Directory experiment outputs land in (repo-root `results/`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → repo root is two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Prints `content` and persists it as `results/<id>.txt`.
pub fn emit(id: &str, content: &str) {
    println!("==== {id} ====\n{content}");
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(format!("{id}.txt")), content);
    }
}
