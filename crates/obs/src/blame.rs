//! Per-job response-time attribution with an exact conservation
//! invariant.
//!
//! [`attribute`] folds the span partition of [`crate::spans`] into one
//! [`JobBlame`] per completed job — the six-term decomposition
//!
//! ```text
//! response = compute + blocking_fetch + preemption_by[task]
//!          + bus_contention + fault_refetch + dispatch_wait
//! ```
//!
//! — and **validates conservation for every job**: the terms must sum
//! exactly to the job's measured response time, with zero tolerance.
//! A violation means the reconstruction (or the simulator's anchor
//! emission) is wrong, so it is surfaced as a [`ConservationError`]
//! rather than a fudged report. Per-task aggregates ([`TaskBlame`])
//! sum the same terms across jobs and rank the dominant interference
//! source, which is what `rtmdm explain` and the F13 experiment print.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, JobId, TaskId, Trace};

use crate::spans::{reconstruct, SpanKind};

/// An interference source a job's lost cycles can be charged to —
/// every term of the decomposition except useful compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BlameSource {
    /// Higher- (or, under miss policies, earlier-) priority jobs held
    /// the CPU.
    Preemption,
    /// The job sat blocked on an unstaged segment.
    BlockingFetch,
    /// The job's own occupancy lost cycles to bus arbitration.
    BusContention,
    /// Blocked-on-fetch time caused by injected DMA faults.
    FaultRefetch,
    /// Ready but not dispatched (gating, queueing, phasing).
    DispatchWait,
}

impl std::fmt::Display for BlameSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BlameSource::Preemption => "preemption",
            BlameSource::BlockingFetch => "blocking-fetch",
            BlameSource::BusContention => "bus-contention",
            BlameSource::FaultRefetch => "fault-refetch",
            BlameSource::DispatchWait => "dispatch-wait",
        })
    }
}

/// The exact six-term decomposition of one completed job's response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobBlame {
    /// Owning task.
    pub task: TaskId,
    /// Job index.
    pub job: JobId,
    /// Release instant.
    pub release: Cycles,
    /// Measured response time.
    pub response: Cycles,
    /// Whether the job missed its deadline.
    pub missed: bool,
    /// Cycles the job's own segments computed (work + switch).
    pub compute: Cycles,
    /// Cycles blocked on unstaged segments (fault time excluded).
    pub blocking_fetch: Cycles,
    /// Cycles the job's own occupancies lost to bus arbitration.
    pub bus_contention: Cycles,
    /// Blocked-on-fetch cycles attributable to injected DMA faults.
    pub fault_refetch: Cycles,
    /// Cycles ready but not dispatched.
    pub dispatch_wait: Cycles,
    /// Cycles other jobs held the CPU, by occupying task.
    pub preemption_by: BTreeMap<TaskId, Cycles>,
}

impl JobBlame {
    /// Total preemption across all occupying tasks.
    pub fn preemption_total(&self) -> Cycles {
        self.preemption_by.values().copied().sum()
    }

    /// Sum of all six terms — equals `response` (enforced by
    /// [`attribute`]).
    pub fn total(&self) -> Cycles {
        self.compute
            + self.blocking_fetch
            + self.bus_contention
            + self.fault_refetch
            + self.dispatch_wait
            + self.preemption_total()
    }

    /// The largest nonzero interference term, or `None` when the job
    /// is purely compute-bound. Ties break in [`BlameSource`] order,
    /// deterministically.
    pub fn dominant_interference(&self) -> Option<(BlameSource, Cycles)> {
        [
            (BlameSource::Preemption, self.preemption_total()),
            (BlameSource::BlockingFetch, self.blocking_fetch),
            (BlameSource::BusContention, self.bus_contention),
            (BlameSource::FaultRefetch, self.fault_refetch),
            (BlameSource::DispatchWait, self.dispatch_wait),
        ]
        .into_iter()
        .filter(|(_, c)| !c.is_zero())
        .max_by_key(|&(src, c)| (c, std::cmp::Reverse(src)))
    }
}

/// Per-task sums of the decomposition across all completed jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskBlame {
    /// Completed jobs aggregated.
    pub jobs: u64,
    /// Jobs that missed their deadline.
    pub misses: u64,
    /// Largest observed response time.
    pub max_response: Cycles,
    /// Summed compute cycles.
    pub compute: Cycles,
    /// Summed blocking-fetch cycles.
    pub blocking_fetch: Cycles,
    /// Summed bus-contention cycles.
    pub bus_contention: Cycles,
    /// Summed fault-refetch cycles.
    pub fault_refetch: Cycles,
    /// Summed dispatch-wait cycles.
    pub dispatch_wait: Cycles,
    /// Summed preemption cycles, by occupying task.
    pub preemption_by: BTreeMap<TaskId, Cycles>,
}

impl TaskBlame {
    /// Total preemption across all occupying tasks.
    pub fn preemption_total(&self) -> Cycles {
        self.preemption_by.values().copied().sum()
    }

    /// Summed response time of all aggregated jobs.
    pub fn total(&self) -> Cycles {
        self.compute
            + self.blocking_fetch
            + self.bus_contention
            + self.fault_refetch
            + self.dispatch_wait
            + self.preemption_total()
    }

    /// The largest nonzero aggregate interference term, or `None` when
    /// the task is purely compute-bound.
    pub fn dominant_interference(&self) -> Option<(BlameSource, Cycles)> {
        [
            (BlameSource::Preemption, self.preemption_total()),
            (BlameSource::BlockingFetch, self.blocking_fetch),
            (BlameSource::BusContention, self.bus_contention),
            (BlameSource::FaultRefetch, self.fault_refetch),
            (BlameSource::DispatchWait, self.dispatch_wait),
        ]
        .into_iter()
        .filter(|(_, c)| !c.is_zero())
        .max_by_key(|&(src, c)| (c, std::cmp::Reverse(src)))
    }
}

/// The conservation-validated attribution of one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlameReport {
    /// One decomposition per completed job, in completion order.
    pub jobs: Vec<JobBlame>,
    /// Per-task aggregates, keyed by task.
    pub tasks: BTreeMap<TaskId, TaskBlame>,
}

impl BlameReport {
    /// Completed jobs that missed their deadline, worst response first.
    pub fn missed_jobs(&self) -> Vec<&JobBlame> {
        let mut out: Vec<&JobBlame> = self.jobs.iter().filter(|j| j.missed).collect();
        out.sort_by_key(|j| (std::cmp::Reverse(j.response), j.task, j.job));
        out
    }
}

/// A job whose blame terms failed to sum to its response time.
///
/// Never produced by a correct reconstruction over a well-formed
/// trace; surfacing it (instead of clamping) is the point of the
/// conservation invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationError {
    /// Offending task.
    pub task: TaskId,
    /// Offending job.
    pub job: JobId,
    /// The job's measured response time.
    pub response: Cycles,
    /// What the six terms summed to instead.
    pub attributed: Cycles,
}

impl std::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conservation violated for {} {}: terms sum to {} but response is {}",
            self.task, self.job, self.attributed, self.response
        )
    }
}

impl std::error::Error for ConservationError {}

/// Attributes every completed job in `trace` and validates the
/// conservation invariant for each one, with zero tolerance.
///
/// Works on traces with or without attribution anchors (without them
/// the fetch and contention terms are zero and the lost cycles land in
/// dispatch-wait; see [`crate::spans`]).
pub fn attribute(trace: &Trace) -> Result<BlameReport, ConservationError> {
    let mut jobs = Vec::new();
    let mut tasks: BTreeMap<TaskId, TaskBlame> = BTreeMap::new();
    for js in reconstruct(trace) {
        let mut b = JobBlame {
            task: js.task,
            job: js.job,
            release: js.release,
            response: js.response,
            missed: js.missed,
            compute: Cycles::ZERO,
            blocking_fetch: Cycles::ZERO,
            bus_contention: Cycles::ZERO,
            fault_refetch: Cycles::ZERO,
            dispatch_wait: Cycles::ZERO,
            preemption_by: BTreeMap::new(),
        };
        for s in &js.spans {
            let len = s.len();
            match s.kind {
                SpanKind::Compute => b.compute += len,
                SpanKind::BusContention => b.bus_contention += len,
                SpanKind::BlockingFetch => b.blocking_fetch += len,
                SpanKind::FaultRefetch => b.fault_refetch += len,
                SpanKind::DispatchWait => b.dispatch_wait += len,
                SpanKind::Preempted { by } => {
                    *b.preemption_by.entry(by).or_insert(Cycles::ZERO) += len;
                }
            }
        }
        if b.total() != b.response {
            return Err(ConservationError {
                task: b.task,
                job: b.job,
                response: b.response,
                attributed: b.total(),
            });
        }
        let t = tasks.entry(b.task).or_default();
        t.jobs += 1;
        t.misses += u64::from(b.missed);
        t.max_response = t.max_response.max(b.response);
        t.compute += b.compute;
        t.blocking_fetch += b.blocking_fetch;
        t.bus_contention += b.bus_contention;
        t.fault_refetch += b.fault_refetch;
        t.dispatch_wait += b.dispatch_wait;
        for (&by, &c) in &b.preemption_by {
            *t.preemption_by.entry(by).or_insert(Cycles::ZERO) += c;
        }
        jobs.push(b);
    }
    Ok(BlameReport { jobs, tasks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::{SegmentId, TraceKind};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn seg(trace: &mut Trace, task: usize, job: u64, s: usize, start: u64, end: u64) {
        trace.push(
            cy(start),
            TraceKind::SegmentStarted {
                task: TaskId(task),
                job: JobId(job),
                segment: SegmentId(s),
            },
        );
        trace.push(
            cy(end),
            TraceKind::SegmentCompleted {
                task: TaskId(task),
                job: JobId(job),
                segment: SegmentId(s),
            },
        );
    }

    /// T0 J0: released 0, preempted by T1 [10, 40), computes [40, 90),
    /// completes at 90.
    fn preempted_trace() -> Trace {
        let mut t = Trace::new();
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: TaskId(0),
                job: JobId(0),
                deadline: cy(200),
            },
        );
        seg(&mut t, 1, 0, 0, 10, 40);
        seg(&mut t, 0, 0, 0, 40, 90);
        t.push(
            cy(90),
            TraceKind::JobCompleted {
                task: TaskId(0),
                job: JobId(0),
                response: cy(90),
            },
        );
        t
    }

    #[test]
    fn terms_conserve_and_aggregate() {
        let report = attribute(&preempted_trace()).expect("conserves");
        assert_eq!(report.jobs.len(), 1);
        let j = &report.jobs[0];
        assert_eq!(j.compute, cy(50));
        assert_eq!(j.preemption_by[&TaskId(1)], cy(30));
        assert_eq!(j.dispatch_wait, cy(10));
        assert_eq!(j.total(), j.response);
        assert_eq!(
            j.dominant_interference(),
            Some((BlameSource::Preemption, cy(30)))
        );
        let t = &report.tasks[&TaskId(0)];
        assert_eq!(t.jobs, 1);
        assert_eq!(t.misses, 0);
        assert_eq!(t.max_response, cy(90));
        assert_eq!(t.total(), cy(90));
    }

    #[test]
    fn compute_bound_job_has_no_dominant_source() {
        let mut t = Trace::new();
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: TaskId(0),
                job: JobId(0),
                deadline: cy(100),
            },
        );
        seg(&mut t, 0, 0, 0, 0, 60);
        t.push(
            cy(60),
            TraceKind::JobCompleted {
                task: TaskId(0),
                job: JobId(0),
                response: cy(60),
            },
        );
        let report = attribute(&t).expect("conserves");
        assert_eq!(report.jobs[0].dominant_interference(), None);
    }

    #[test]
    fn missed_jobs_rank_worst_first() {
        let mut t = Trace::new();
        for (job, miss_at, done, resp) in [(0u64, 90u64, 100u64, 100u64), (1, 190, 250, 150)] {
            t.push(
                cy(miss_at),
                TraceKind::DeadlineMissed {
                    task: TaskId(0),
                    job: JobId(job),
                },
            );
            t.push(
                cy(done),
                TraceKind::JobCompleted {
                    task: TaskId(0),
                    job: JobId(job),
                    response: cy(resp),
                },
            );
        }
        let report = attribute(&t).expect("conserves");
        let missed = report.missed_jobs();
        assert_eq!(missed.len(), 2);
        assert_eq!(missed[0].job, JobId(1));
        assert_eq!(report.tasks[&TaskId(0)].misses, 2);
    }

    #[test]
    fn conservation_error_displays_ids() {
        let e = ConservationError {
            task: TaskId(2),
            job: JobId(7),
            response: cy(100),
            attributed: cy(90),
        };
        let msg = e.to_string();
        assert!(msg.contains("T2") && msg.contains("J7"), "{msg}");
    }
}
