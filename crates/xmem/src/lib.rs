//! # rtmdm-xmem — external-memory weight staging
//!
//! The mechanism at the heart of RT-MDM: DNN weights live in external
//! memory and are staged into on-chip SRAM by DMA, segment by segment,
//! overlapping the fetch of segment *k+1* with the compute of segment
//! *k* (double buffering). This crate provides:
//!
//! - [`segment_model`]: the layer→segment fetch planner — greedy grouping
//!   of consecutive layers whose weights fit one fetch buffer,
//! - [`pipeline`]: closed-form timing of the fetch/compute pipeline for a
//!   job running in isolation, under each staging [`Strategy`] (RT-MDM's
//!   overlapped prefetch and its baselines),
//! - [`spill`]: the activation-spilling extension for models whose
//!   feature maps exceed SRAM,
//! - [`RUNTIME_RESERVE`] and [`check_buffer_fits`]: the SRAM the runtime
//!   keeps for itself and the fetch-buffer check. Admission
//!   (`rtmdm-core`) lays the reserve and each task's activation and
//!   weight regions out end to end, 8-byte aligned; the worst-case
//!   re-fetch cost of a transfer under faults is
//!   `rtmdm_mcusim::FaultPlan::worst_case_extra`.
//!
//! ## Example
//!
//! ```rust
//! use rtmdm_dnn::{zoo, CostModel};
//! use rtmdm_mcusim::PlatformConfig;
//! use rtmdm_xmem::{segment_model, pipeline, Strategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = zoo::resnet8();
//! let seg = segment_model(&model, &CostModel::cmsis_nn_m7(), 40 * 1024)?;
//! let platform = PlatformConfig::stm32f746_qspi();
//! let overlapped = pipeline::isolated_latency(&seg, &platform, Strategy::RtMdm);
//! let sequential = pipeline::isolated_latency(&seg, &platform, Strategy::FetchThenCompute);
//! assert!(overlapped <= sequential);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod pipeline;
mod plan;
pub mod spill;

pub use error::PlanError;
pub use pipeline::{stage_timings, StageTiming, Strategy};
pub use plan::{
    check_buffer_fits, segment_model, segment_model_capped, segment_model_tiled, ModelSegmentation,
    SegmentPlan, MAX_TILED_SEGMENTS, RUNTIME_RESERVE,
};
