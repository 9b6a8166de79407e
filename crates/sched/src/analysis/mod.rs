//! Schedulability analyses: the offline timing-guarantee half of RT-MDM.
//!
//! - [`rta_limited_preemption`] — the RT-MDM fixed-priority analysis
//!   (segment-level non-preemption + DMA staging + bus contention);
//! - [`rta_memory_oblivious`] — baseline B4, a classic preemptive RTA
//!   that ignores memory (unsound for this system, by design);
//! - [`edf_demand_test`] — processor-demand test for segment-level EDF;
//! - [`occupancy_utilization_ppm`] / [`rm_utilization_bound_ppm`] —
//!   quick utilization screens;
//! - [`TaskTiming`] — the per-task worst-case quantities all of the
//!   above are built from.

mod edf;
mod exact;
mod key;
mod rta;
mod sensitivity;
mod util;
mod wcet;

pub use edf::edf_demand_test;
pub use exact::{hyperperiod, sync_simulation_verdict, SyncVerdict};
pub use key::{analysis_key, canonical_key, KEY_SCHEMA};
pub use rta::{
    interference_bounds, rta_limited_preemption, rta_limited_preemption_with, rta_memory_oblivious,
    AnalysisOutcome, InterferenceBound, SchedulerMode,
};
pub(crate) use rta::{interferer, task_bound, Interferer};
pub use sensitivity::{critical_scaling_ppm, scaled_taskset};
pub use util::{occupancy_utilization_ppm, rm_utilization_bound_ppm};
pub use wcet::TaskTiming;
