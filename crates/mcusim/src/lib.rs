//! # rtmdm-mcusim — discrete-event MCU platform model
//!
//! This crate is the hardware substrate of the RT-MDM reproduction. The
//! original paper evaluates on a physical microcontroller with external
//! memory; this crate replaces that testbed with a deterministic,
//! cycle-granular model of the components that matter to the scheduling
//! problem:
//!
//! - a single in-order **CPU** clocked at a configurable frequency,
//! - a **DMA engine** that streams weight blocks from external memory
//!   (QSPI NOR flash, octal PSRAM, …) into SRAM,
//! - a **shared bus** on which concurrent CPU compute and DMA traffic slow
//!   each other down by configurable inflation factors,
//! - **memory regions** (SRAM and external memory) with sizes and
//!   transfer-cost parameters,
//! - an **event queue** and **execution trace** used by the scheduler
//!   simulator in `rtmdm-sched` (the trace is an append-only log;
//!   `rtmdm-obs` derives timelines, charts and counts from it).
//!
//! The model is *timing-level*, not instruction-level: callers describe
//! work in CPU cycles and transfers in bytes; the platform answers "when
//! does this finish, given contention". All arithmetic is integer
//! (parts-per-million inflation factors, ceiling division) so simulations
//! are exactly reproducible across hosts.
//!
//! ## Example
//!
//! ```rust
//! use rtmdm_mcusim::{Cycles, PlatformConfig};
//!
//! # fn main() -> Result<(), rtmdm_mcusim::ConfigError> {
//! let platform = PlatformConfig::stm32f746_qspi();
//! platform.validate()?;
//! // How long does the DMA need for a 32 KiB weight block?
//! let fetch = platform.ext_mem.transfer_cycles(32 * 1024);
//! assert!(fetch > Cycles::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
mod error;
mod event;
mod fault;
mod platform;
mod time;
mod trace;
mod xbus;

pub use energy::{EnergyModel, EnergyReport};
pub use error::ConfigError;
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan, DEFAULT_MAX_RETRIES};
pub use platform::PlatformConfig;
pub use time::{Cycles, Frequency};
pub use trace::{JobId, SegmentId, TaskId, Trace, TraceEvent, TraceKind};
pub use xbus::{ContentionModel, ExtMemConfig, ExtMemKind, OverlapOutcome};
