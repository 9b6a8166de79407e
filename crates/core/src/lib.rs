//! # rtmdm-core — the RT-MDM framework
//!
//! The paper's primary contribution as a public API: admission control
//! and execution of multiple periodic DNN inference tasks on an MCU
//! whose weights live in external memory.
//!
//! A framework instance binds together the four substrates:
//!
//! 1. the **platform model** (`rtmdm-mcusim`) — CPU, DMA, bus, SRAM;
//! 2. the **DNN engine** (`rtmdm-dnn`) — models and their per-layer
//!    costs;
//! 3. the **memory planner** (`rtmdm-xmem`) — segmentation, SRAM layout,
//!    double-buffered prefetch;
//! 4. the **scheduler** (`rtmdm-sched`) — segment-level limited
//!    preemption, schedulability analysis, simulation.
//!
//! ## Lifecycle
//!
//! ```text
//! RtMdm::new(platform)
//!   └─ add_task(TaskSpec)…      — segmentation validated eagerly
//!   └─ admit()                  — SRAM layout + RT-MDM analysis
//!   └─ simulate(horizon)        — execution on the platform model
//! ```
//!
//! `RtMdm::try_from(SystemSpec)` runs the first two steps on a whole
//! system at once; the CLI and the admission service both build through
//! it.
//!
//! ## Example
//!
//! ```rust
//! use rtmdm_core::{RtMdm, TaskSpec, Strategy};
//! use rtmdm_dnn::zoo;
//! use rtmdm_mcusim::PlatformConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut fw = RtMdm::new(PlatformConfig::stm32f746_qspi())?;
//! fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))?;
//! fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))?;
//! let admission = fw.admit()?;
//! println!("{}", admission.to_table());
//! if admission.schedulable() {
//!     let run = fw.simulate(4_000_000)?;
//!     assert_eq!(run.deadline_misses(), 0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod check;
mod error;
mod framework;
pub mod report;
mod service;
mod spec;

pub use advisor::OptimizeOutcome;
pub use check::{CheckOutcome, SystemSpec};
pub use error::AdmitError;
pub use framework::{Admission, FrameworkOptions, PriorityAssignment, RtMdm, RunReport, SramRow};
pub use rtmdm_check::ExploreLimits;
pub use service::{CacheStats, Service, SERVE_SCHEMA};
pub use spec::{Strategy, TaskSpec};
