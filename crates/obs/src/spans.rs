//! Causal span reconstruction: partitioning each completed job's
//! response window into attributed intervals.
//!
//! [`reconstruct`] replays one [`Trace`] and, for every completed job,
//! partitions the half-open response window `[release, completion)`
//! into disjoint [`Span`]s whose kinds explain where the cycles went.
//! The partition is exact and exhaustive by construction — the span
//! lengths of a job sum to its measured response time, cycle for cycle
//! — which is what lets [`crate::blame`] enforce its conservation
//! invariant with zero tolerance.
//!
//! Occupancies, fetch waits and fault episodes come from the crate's one
//! [pairing pass](crate#trace-pairing). The precedence rule, applied
//! within each job's window:
//!
//! 1. the job's **own segment slices** become [`SpanKind::Compute`],
//!    with the tail `stall` cycles reported by
//!    [`TraceKind::SegmentStalled`] carved off as
//!    [`SpanKind::BusContention`] (occupancies are non-preemptive, so
//!    the stall total is exact; drawing it at the slice tail is a
//!    visualization choice — the per-kind totals do not depend on it);
//! 2. **other jobs' slices** clipped to the window become
//!    [`SpanKind::Preempted`] naming the occupant (the CPU is unique,
//!    so slices never overlap; earlier jobs of the same task count too,
//!    as happens under the `Continue` deadline-miss policy);
//! 3. the job's **fetch waits** minus the time already attributed
//!    above, split by the job's own fault episodes into
//!    [`SpanKind::FaultRefetch`] and [`SpanKind::BlockingFetch`];
//! 4. whatever remains is [`SpanKind::DispatchWait`] — ready but
//!    neither running, preempted, nor provably blocked on the DMA
//!    pipeline (priority gating, queueing, release phasing).
//!
//! Traces recorded **without** attribution anchors (the simulator's
//! `attribution` flag off, the default) still reconstruct exactly:
//! steps 1–2 and 4 need only the base events, so the decomposition
//! degenerates to compute + preemption + dispatch-wait with the fetch
//! and contention terms at zero. Aborted jobs never complete and have
//! no response time, so they carry no spans (their slices still show up
//! as preemption inside other jobs' windows).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, JobId, TaskId, Trace, TraceKind};

use crate::pairing::{intersect, pair, subtract, Interval, Item, Kind, Pair};

/// Why a span of a job's response window elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// The job's own segment was computing (nominal work plus context
    /// switch).
    Compute,
    /// The job's own segment held the CPU but the cycles were lost to
    /// bus arbitration against a concurrent DMA transfer.
    BusContention,
    /// The job was blocked because its next segment's weights were not
    /// staged yet — the fetch pipeline failed to hide the transfer.
    BlockingFetch,
    /// Blocked-on-fetch time spent re-transferring after an injected
    /// DMA fault (a sub-case of blocking carved out separately).
    FaultRefetch,
    /// Another job held the CPU.
    Preempted {
        /// The task whose job occupied the CPU.
        by: TaskId,
    },
    /// Ready but neither running, preempted, nor provably blocked on
    /// the DMA pipeline: dispatcher gating, queueing, release phasing.
    DispatchWait,
}

/// One attributed interval of a job's response window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Attributed cause.
    pub kind: SpanKind,
    /// The half-open interval `[start, end)` the cause covers.
    pub interval: Interval,
}

impl Span {
    /// Length of the span.
    pub fn len(&self) -> Cycles {
        self.interval.len()
    }

    /// Whether the span is empty (never produced by [`reconstruct`]).
    pub fn is_empty(&self) -> bool {
        self.interval.is_empty()
    }
}

/// The exact span partition of one completed job's response window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpans {
    /// Owning task.
    pub task: TaskId,
    /// Job index.
    pub job: JobId,
    /// Release instant (start of the window).
    pub release: Cycles,
    /// Measured response time (window length).
    pub response: Cycles,
    /// Whether the job missed its deadline.
    pub missed: bool,
    /// Disjoint spans covering `[release, release + response)` exactly,
    /// sorted by start.
    pub spans: Vec<Span>,
}

impl JobSpans {
    /// Completion instant (end of the window).
    pub fn completion(&self) -> Cycles {
        self.release + self.response
    }

    /// Total attributed cycles — equal to `response` by construction.
    pub fn attributed(&self) -> Cycles {
        self.spans.iter().map(Span::len).sum()
    }
}

/// Reconstructs the exact span partition of every completed job in
/// `trace`, in completion order.
///
/// See the module docs for the partition rule. The returned partitions
/// satisfy `attributed() == response` for every job, exactly.
pub fn reconstruct(trace: &Trace) -> Vec<JobSpans> {
    let mut fold = SpanFold::default();
    pair(trace, |item| fold.read(item));
    fold.finish()
}

/// What span reconstruction keeps from the pairing pass: every
/// occupancy, the fetch waits and fault episodes of each job, and the
/// completed jobs. Open intervals are ignored.
#[derive(Default)]
pub(crate) struct SpanFold {
    slices: Vec<Pair>,
    /// Nonempty fetch waits and fault episodes, by kind and job.
    intervals: BTreeMap<(Kind, TaskId, JobId), Vec<Interval>>,
    missed: BTreeSet<(TaskId, JobId)>,
    completed: Vec<(TaskId, JobId, Cycles, Cycles)>,
}

impl SpanFold {
    /// Keeps what the partition needs from one pairing item.
    pub(crate) fn read(&mut self, item: Item) {
        match item {
            Item::Closed(p) if p.kind == Kind::Occupancy => self.slices.push(p),
            Item::Closed(p) if matches!(p.kind, Kind::Wait | Kind::Episode) && !p.iv.is_empty() => {
                let key = (p.kind, p.task, p.job);
                self.intervals.entry(key).or_default().push(p.iv);
            }
            Item::Instant(e) => match e.kind {
                TraceKind::DeadlineMissed { task, job } => {
                    self.missed.insert((task, job));
                }
                TraceKind::JobCompleted {
                    task,
                    job,
                    response,
                } => {
                    self.completed.push((task, job, e.time, response));
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// The partition of every completed job read so far.
    pub(crate) fn finish(mut self) -> Vec<JobSpans> {
        // The CPU is unique and occupancies retire in order, so slices
        // are globally disjoint and sorting by start sorts by end.
        self.slices.sort_by_key(|s| s.iv.start);
        let of = |key| self.intervals.get(&key).map_or(&[][..], Vec::as_slice);
        let mut out = Vec::with_capacity(self.completed.len());
        for &(task, job, completion, response) in &self.completed {
            let release = completion.saturating_sub(response);
            let window = Interval {
                start: release,
                end: completion,
            };

            // Steps 1–2: every CPU occupancy intersecting the window.
            let mut spans: Vec<Span> = Vec::new();
            let mut covered: Vec<Interval> = Vec::new();
            let first = self.slices.partition_point(|s| s.iv.end <= window.start);
            for s in self.slices[first..]
                .iter()
                .take_while(|s| s.iv.start < window.end)
            {
                let clipped = Interval {
                    start: s.iv.start.max(window.start),
                    end: s.iv.end.min(window.end),
                };
                if clipped.is_empty() {
                    continue;
                }
                covered.push(clipped);
                if (s.task, s.job) == (task, job) {
                    // Stall drawn at the slice tail; clip against the
                    // window the same way the slice was.
                    let tail = s.iv.end.saturating_sub(Cycles::new(s.amount));
                    let split = tail.clamp(clipped.start, clipped.end);
                    push_span(&mut spans, SpanKind::Compute, clipped.start, split);
                    push_span(&mut spans, SpanKind::BusContention, split, clipped.end);
                } else {
                    let by = SpanKind::Preempted { by: s.task };
                    push_span(&mut spans, by, clipped.start, clipped.end);
                }
            }

            // Step 3: uncovered fetch-wait time, split by fault episodes.
            let gaps = subtract(&[window], &covered);
            let wait = intersect(of((Kind::Wait, task, job)), &gaps);
            let fault = intersect(&wait, of((Kind::Episode, task, job)));
            for iv in &fault {
                push_span(&mut spans, SpanKind::FaultRefetch, iv.start, iv.end);
            }
            for iv in subtract(&wait, &fault) {
                push_span(&mut spans, SpanKind::BlockingFetch, iv.start, iv.end);
            }

            // Step 4: the remainder.
            for iv in subtract(&gaps, &wait) {
                push_span(&mut spans, SpanKind::DispatchWait, iv.start, iv.end);
            }

            spans.sort_by_key(|s| (s.interval.start, s.interval.end));
            let missed = self.missed.contains(&(task, job));
            out.push(JobSpans {
                task,
                job,
                release,
                response,
                missed,
                spans,
            });
        }
        out
    }
}

fn push_span(spans: &mut Vec<Span>, kind: SpanKind, start: Cycles, end: Cycles) {
    if start < end {
        spans.push(Span {
            kind,
            interval: Interval { start, end },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::SegmentId;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn iv(s: u64, e: u64) -> Interval {
        Interval {
            start: cy(s),
            end: cy(e),
        }
    }

    /// A hand-built trace exercising all six kinds:
    /// release at 0; fetch wait [0, 30) with a fault episode [10, 30);
    /// preemption by T1 during [30, 50); own segment [50, 100) with a
    /// 10-cycle tail stall; dispatch wait [100, 110); final segment
    /// [110, 120); completion at 120.
    fn full_trace() -> Trace {
        let mut t = Trace::new();
        let (t0, t1, j0) = (TaskId(0), TaskId(1), JobId(0));
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: t0,
                job: j0,
                deadline: cy(90),
            },
        );
        t.push(
            cy(0),
            TraceKind::FetchWaitBegan {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(10),
            TraceKind::FetchFaulted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
                attempt: 0,
            },
        );
        t.push(
            cy(30),
            TraceKind::FetchCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(30),
            TraceKind::FetchWaitEnded {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(30),
            TraceKind::SegmentStarted {
                task: t1,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(50),
            TraceKind::SegmentCompleted {
                task: t1,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(50),
            TraceKind::SegmentStarted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(cy(90), TraceKind::DeadlineMissed { task: t0, job: j0 });
        t.push(
            cy(100),
            TraceKind::SegmentStalled {
                task: t0,
                job: j0,
                segment: SegmentId(0),
                stall: cy(10),
            },
        );
        t.push(
            cy(100),
            TraceKind::SegmentCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t
    }

    #[test]
    fn all_six_kinds_partition_the_window() {
        let mut t = full_trace();
        // Trailing dispatch wait, then the last segment and completion.
        let (t0, j0) = (TaskId(0), JobId(0));
        t.push(
            cy(110),
            TraceKind::SegmentStarted {
                task: t0,
                job: j0,
                segment: SegmentId(1),
            },
        );
        t.push(
            cy(120),
            TraceKind::SegmentCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(1),
            },
        );
        t.push(
            cy(120),
            TraceKind::JobCompleted {
                task: t0,
                job: j0,
                response: cy(120),
            },
        );
        let all = reconstruct(&t);
        assert_eq!(all.len(), 1);
        let js = &all[0];
        assert!(js.missed);
        assert_eq!(js.release, cy(0));
        assert_eq!(js.attributed(), cy(120));
        assert_eq!(
            js.spans,
            vec![
                Span {
                    kind: SpanKind::BlockingFetch,
                    interval: iv(0, 10)
                },
                Span {
                    kind: SpanKind::FaultRefetch,
                    interval: iv(10, 30)
                },
                Span {
                    kind: SpanKind::Preempted { by: TaskId(1) },
                    interval: iv(30, 50)
                },
                Span {
                    kind: SpanKind::Compute,
                    interval: iv(50, 90)
                },
                Span {
                    kind: SpanKind::BusContention,
                    interval: iv(90, 100)
                },
                Span {
                    kind: SpanKind::DispatchWait,
                    interval: iv(100, 110)
                },
                Span {
                    kind: SpanKind::Compute,
                    interval: iv(110, 120)
                },
            ]
        );
    }

    /// The deadline-miss event must not mark other jobs of the task.
    #[test]
    fn miss_flag_is_per_job() {
        let mut t = Trace::new();
        let (t0, j0, j1) = (TaskId(0), JobId(0), JobId(1));
        t.push(cy(90), TraceKind::DeadlineMissed { task: t0, job: j0 });
        t.push(
            cy(100),
            TraceKind::JobCompleted {
                task: t0,
                job: j0,
                response: cy(100),
            },
        );
        t.push(
            cy(150),
            TraceKind::JobCompleted {
                task: t0,
                job: j1,
                response: cy(50),
            },
        );
        let all = reconstruct(&t);
        assert!(all[0].missed);
        assert!(!all[1].missed);
    }

    /// Without attribution anchors the decomposition degenerates to
    /// compute + preemption + dispatch-wait and still sums exactly.
    #[test]
    fn base_events_alone_reconstruct_exactly() {
        let mut t = Trace::new();
        let (t0, j0) = (TaskId(0), JobId(0));
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: t0,
                job: j0,
                deadline: cy(200),
            },
        );
        t.push(
            cy(20),
            TraceKind::SegmentStarted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(60),
            TraceKind::SegmentCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(60),
            TraceKind::JobCompleted {
                task: t0,
                job: j0,
                response: cy(60),
            },
        );
        let all = reconstruct(&t);
        assert_eq!(
            all[0].spans,
            vec![
                Span {
                    kind: SpanKind::DispatchWait,
                    interval: iv(0, 20)
                },
                Span {
                    kind: SpanKind::Compute,
                    interval: iv(20, 60)
                },
            ]
        );
        assert_eq!(all[0].attributed(), cy(60));
    }
}
