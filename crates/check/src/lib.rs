//! # rtmdm-check — static verifier and lint engine
//!
//! RT-MDM's promise is admission-time *guarantees*: a task set is only
//! accepted if worst-case response times, SRAM layouts, and DMA staging
//! schedules are provably safe. This crate turns those invariants into
//! a first-class static analysis that runs before a single simulated
//! cycle: a battery of passes over the existing IR (models, segmentation
//! plans, task sets, platform configs) producing diagnostics with stable
//! rule IDs (`RTM0xx`), severities, and machine-readable JSON.
//!
//! ## Passes
//!
//! | Pass | Module | Rules |
//! |------|--------|-------|
//! | staging race / aliasing | [`staging`] | `RTM001`–`RTM004` |
//! | plan well-formedness | [`plan`] | `RTM010`–`RTM013` |
//! | admission lints | [`admission`] | `RTM020`–`RTM026`, `RTM041` |
//! | graph lints | [`graph`] | `RTM030`–`RTM033` |
//! | platform sanity | [`platform`] | `RTM040` |
//! | schedule-space exploration | [`mod@explore`] | `RTM050`–`RTM053` |
//!
//! The passes are deliberately decoupled from `rtmdm-core`: each one
//! takes the lower-level IR it inspects (`rtmdm-core` orchestrates them
//! behind `SystemSpec::check()` and rejects admission on blocking
//! errors). Every *static* pass is pure — no simulation, no I/O, no
//! panics on user-supplied input. The one deliberate exception is the
//! opt-in [`mod@explore`] pass, which drives the scheduler simulator
//! exhaustively over its nondeterministic choices and returns replayable
//! counterexamples ([`Witness`]).
//!
//! ```rust
//! use rtmdm_check::{check_timing, Rule};
//!
//! let findings = check_timing("kws", 100_000, 200_000);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, Rule::Rtm020);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod diag;
pub mod explore;
pub mod graph;
pub mod plan;
pub mod platform;
pub mod staging;
pub mod state;

pub use admission::{check_taskset, check_timing};
pub use diag::{
    Category, Finding, JsonFinding, JsonReport, Report, Rule, RuleFilter, Severity, SCHEMA,
};
pub use explore::{explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStrategy};
pub use graph::check_model;
pub use plan::check_plan;
pub use platform::check_platform;
pub use staging::{check_sram_regions, check_staging, staging_races, SramRegion, StagingRace};
pub use state::{ExploreStats, Witness, WITNESS_SCHEMA};
