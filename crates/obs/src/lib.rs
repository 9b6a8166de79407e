//! # rtmdm-obs — observability for the RT-MDM reproduction
//!
//! RT-MDM's claim is that compute scheduling and DMA weight staging can
//! be co-scheduled under deadlines; proving that (and every future
//! performance change) needs structured visibility into the schedule,
//! not eyeballs on ASCII tables. This crate provides the instrumentation
//! layer the rest of the workspace records into:
//!
//! - [`metrics`] — the one metrics registry, process-wide
//!   ([`metrics::global`]): monotonic counters and log₂ histograms with
//!   a one-atomic-load disabled mode, which the simulator, DNN engine
//!   and explorer flush into; and the one log₂ [`Histogram`] type, which
//!   the simulator also keeps per task for response times;
//! - [`timeline`] — exact interval analytics over a
//!   [`Trace`](rtmdm_mcusim::Trace): per-task Gantt slices, CPU/DMA
//!   utilization (DMA time counting faulted and cancelled transfer
//!   attempts, as the simulator's channel does), idle intervals, and the
//!   fetch/compute overlap ratio, with the invariant
//!   `cpu_busy + cpu_idle == horizon` by construction;
//! - [`gantt`] — an ASCII Gantt renderer over a timeline (the `rtmdm
//!   trace --gantt` output);
//! - [`export`] — serializers to Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`) and JSONL;
//! - [`spans`] — exact causal partition of each completed job's
//!   response window (compute, bus contention, blocking fetch, fault
//!   re-fetch, preemption, dispatch wait);
//! - [`blame`] — the six-term response-time decomposition built on
//!   those spans, validated job-by-job against the hard conservation
//!   invariant `response = Σ terms` (zero tolerance) — the engine
//!   behind `rtmdm explain`.
//!
//! This crate is the only reader of simulator traces: the
//! [`Trace`](rtmdm_mcusim::Trace) itself is a plain append-only log,
//! and every interval pairing, chart, and trace-derived count lives
//! here.
//!
//! ## Trace pairing
//!
//! [`Timeline::from_trace`], [`reconstruct`] (and so [`attribute`]) and
//! [`chrome_trace`] fold one private pass that pairs a trace's events
//! into intervals by one set of rules (`DESIGN.md` §2.4). They differ
//! only in what they do with what is still open when the trace ends:
//! the timeline closes it at its horizon, the Chrome export omits it,
//! and span reconstruction reads completed jobs only.
//!
//! Everything here is integer-exact and deterministic: derived metrics
//! are pure functions of the trace, and registry totals are sums, so
//! results are byte-identical for any `RTMDM_THREADS` setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod export;
pub mod gantt;
pub mod metrics;
mod pairing;
pub mod spans;
pub mod timeline;

pub use blame::{attribute, BlameReport, BlameSource, ConservationError, JobBlame, TaskBlame};
pub use export::{
    chrome_trace, chrome_trace_json, chrome_trace_with_blame, jsonl, ChromeEvent, ChromeTrace,
};
pub use metrics::{global, GlobalRegistry, Histogram, Snapshot, HISTOGRAM_BUCKETS};
pub use spans::{reconstruct, JobSpans, Span, SpanKind};
pub use timeline::{FetchSlice, Interval, SegmentSlice, Timeline, TimelineSummary};
