//! Timeline analytics over execution traces.
//!
//! [`Timeline::from_trace`] folds the one pairing pass over a [`Trace`]
//! (see [trace pairing](crate#trace-pairing)) into exact
//! interval data: per-task Gantt slices, CPU/DMA busy unions, idle
//! intervals, and the fetch/compute overlap. All arithmetic is
//! integer-exact over the event stream, so the headline invariant
//! `cpu_busy + cpu_idle == horizon` holds by construction and every
//! derived number is identical regardless of worker-thread settings.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, JobId, SegmentId, TaskId, Trace, TraceKind};

pub use crate::pairing::Interval;
use crate::pairing::{intersect, merge, pair, subtract, total, Item, Kind};

/// One contiguous run of a segment on the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentSlice {
    /// Owning task.
    pub task: TaskId,
    /// Owning job.
    pub job: JobId,
    /// Segment index.
    pub segment: SegmentId,
    /// When the CPU started the segment.
    pub start: Cycles,
    /// When the segment retired (clamped to the horizon if the trace
    /// ended mid-segment).
    pub end: Cycles,
}

/// One DMA transfer attempt staging a segment's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchSlice {
    /// Owning task.
    pub task: TaskId,
    /// Owning job.
    pub job: JobId,
    /// Segment whose weights were staged.
    pub segment: SegmentId,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// When the attempt was issued.
    pub start: Cycles,
    /// When the attempt completed, faulted or was cancelled with its
    /// aborted job (clamped to the horizon if the trace ended
    /// mid-transfer).
    pub end: Cycles,
}

/// A compact, serializable digest of a timeline — what the benchmark
/// telemetry embeds in `BENCH_run_all.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineSummary {
    /// Analysis horizon in cycles.
    pub horizon: Cycles,
    /// Cycles the CPU executed segments.
    pub cpu_busy: Cycles,
    /// Cycles the CPU was idle (`horizon - cpu_busy`, exact).
    pub cpu_idle: Cycles,
    /// Cycles the DMA was streaming.
    pub dma_busy: Cycles,
    /// Cycles during which CPU compute and a DMA fetch overlapped.
    pub overlap: Cycles,
    /// `cpu_busy / horizon` in parts per million.
    pub cpu_utilization_ppm: u64,
    /// `dma_busy / horizon` in parts per million.
    pub dma_utilization_ppm: u64,
    /// Fraction of DMA streaming hidden under compute, in parts per
    /// million of `dma_busy` (≤ 1 000 000).
    pub overlap_ratio_ppm: u64,
}

/// Exact interval analytics over one trace (see the module docs).
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, JobId, SegmentId, TaskId, Trace, TraceKind};
/// use rtmdm_obs::Timeline;
///
/// let mut trace = Trace::new();
/// let (t, j, s) = (TaskId(0), JobId(0), SegmentId(0));
/// trace.push(Cycles::new(10), TraceKind::SegmentStarted { task: t, job: j, segment: s });
/// trace.push(Cycles::new(40), TraceKind::SegmentCompleted { task: t, job: j, segment: s });
/// let tl = Timeline::from_trace(&trace, Cycles::new(100));
/// assert_eq!(tl.cpu_busy(), Cycles::new(30));
/// assert_eq!(tl.cpu_busy() + tl.cpu_idle(), Cycles::new(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    horizon: Cycles,
    segments: Vec<SegmentSlice>,
    fetches: Vec<FetchSlice>,
    cpu_intervals: Vec<Interval>,
    dma_intervals: Vec<Interval>,
    tasks: BTreeSet<TaskId>,
    traced_idle: Vec<Interval>,
    faults: Vec<(Cycles, TaskId)>,
    aborts: Vec<(Cycles, TaskId)>,
    sheds: Vec<(Cycles, TaskId)>,
}

impl Timeline {
    /// Builds the timeline from `trace` over `[0, horizon)`.
    ///
    /// Every event time is clamped to `horizon`, and intervals still
    /// open when the trace ends (a segment, transfer attempt, or idle
    /// period the simulator never closed because the horizon hit) close
    /// there. A segment or transfer starting at or beyond the horizon
    /// becomes an empty slice: it adds no busy time and paints no Gantt
    /// cell. Instant events beyond the horizon still count, at the
    /// horizon: the task set of [`Timeline::tasks`], and the fault,
    /// abort and shed markers.
    pub fn from_trace(trace: &Trace, horizon: Cycles) -> Self {
        let mut tl = Timeline {
            horizon,
            ..Timeline::default()
        };
        pair(trace, |item| match item {
            Item::Closed(p) | Item::Open(p) => {
                let (start, end) = (p.iv.start.min(horizon), p.iv.end.min(horizon));
                let (task, job, segment) = (p.task, p.job, p.segment);
                if matches!(p.kind, Kind::Occupancy | Kind::Job) {
                    tl.tasks.insert(task);
                }
                match p.kind {
                    Kind::Occupancy => {
                        let slice = SegmentSlice {
                            task,
                            job,
                            segment,
                            start,
                            end,
                        };
                        tl.segments.push(slice);
                    }
                    Kind::Attempt => {
                        let bytes = p.amount;
                        let slice = FetchSlice {
                            task,
                            job,
                            segment,
                            bytes,
                            start,
                            end,
                        };
                        tl.fetches.push(slice);
                    }
                    Kind::Idle if start < end => tl.traced_idle.push(Interval { start, end }),
                    _ => {}
                }
            }
            Item::Instant(e) => {
                let time = e.time.min(horizon);
                match e.kind {
                    TraceKind::JobCompleted { task, .. }
                    | TraceKind::DeadlineMissed { task, .. }
                    | TraceKind::Preempted { task, .. } => {
                        tl.tasks.insert(task);
                    }
                    TraceKind::FetchFaulted { task, .. } => tl.faults.push((time, task)),
                    TraceKind::JobAborted { task, .. } => tl.aborts.push((time, task)),
                    TraceKind::ReleaseShed { task, .. } => tl.sheds.push((time, task)),
                    _ => {}
                }
            }
        });
        tl.segments
            .sort_by_key(|s| (s.start, s.task, s.job, s.segment));
        tl.fetches
            .sort_by_key(|f| (f.start, f.task, f.job, f.segment));
        let slice = |start, end| Interval { start, end };
        tl.cpu_intervals = merge(tl.segments.iter().map(|s| slice(s.start, s.end)).collect());
        tl.dma_intervals = merge(tl.fetches.iter().map(|f| slice(f.start, f.end)).collect());
        tl
    }

    /// Analysis horizon.
    pub fn horizon(&self) -> Cycles {
        self.horizon
    }

    /// All segment executions, sorted by start time.
    pub fn segments(&self) -> &[SegmentSlice] {
        &self.segments
    }

    /// All DMA transfer attempts, faulted and cancelled ones included,
    /// sorted by start time.
    pub fn fetches(&self) -> &[FetchSlice] {
        &self.fetches
    }

    /// Tasks with any release, completion, miss, preemption or segment
    /// in the trace — the task rows of the Gantt chart.
    pub fn tasks(&self) -> &BTreeSet<TaskId> {
        &self.tasks
    }

    /// Merged intervals during which the CPU executed segments.
    pub fn cpu_intervals(&self) -> &[Interval] {
        &self.cpu_intervals
    }

    /// Merged intervals during which the DMA was streaming.
    pub fn dma_intervals(&self) -> &[Interval] {
        &self.dma_intervals
    }

    /// Total cycles the CPU executed segments.
    pub fn cpu_busy(&self) -> Cycles {
        total(&self.cpu_intervals)
    }

    /// Total cycles the CPU sat idle: exactly `horizon - cpu_busy`.
    pub fn cpu_idle(&self) -> Cycles {
        self.horizon.saturating_sub(self.cpu_busy())
    }

    /// Total cycles the DMA was streaming.
    pub fn dma_busy(&self) -> Cycles {
        total(&self.dma_intervals)
    }

    /// Cycles during which compute and a fetch were in flight together.
    pub fn overlap_cycles(&self) -> Cycles {
        total(&intersect(&self.cpu_intervals, &self.dma_intervals))
    }

    /// The complement of the CPU busy union within `[0, horizon)`.
    pub fn idle_intervals(&self) -> Vec<Interval> {
        let (start, end) = (Cycles::ZERO, self.horizon);
        subtract(&[Interval { start, end }], &self.cpu_intervals)
    }

    /// CPU idle periods as the simulator recorded them
    /// ([`TraceKind::CpuIdle`]/[`TraceKind::CpuIdleEnd`] pairs), with
    /// an idle period still open when the trace ends closed at the
    /// horizon. On a trace whose idle events are complete these
    /// complement [`Timeline::cpu_intervals`], so
    /// `cpu_busy + traced_idle_cycles == horizon` holds even when the
    /// horizon lands mid-idle.
    pub fn traced_idle_intervals(&self) -> &[Interval] {
        &self.traced_idle
    }

    /// Total recorded idle cycles (sum of
    /// [`Timeline::traced_idle_intervals`]).
    pub fn traced_idle_cycles(&self) -> Cycles {
        total(&self.traced_idle)
    }

    /// Injected DMA fault instants with the task whose transfer
    /// faulted, in trace order.
    pub fn faults(&self) -> &[(Cycles, TaskId)] {
        &self.faults
    }

    /// Job-abort instants (the `Abort` deadline-miss policy), in trace
    /// order.
    pub fn aborts(&self) -> &[(Cycles, TaskId)] {
        &self.aborts
    }

    /// Shed-release instants (the `SkipNextRelease` deadline-miss
    /// policy), in trace order.
    pub fn sheds(&self) -> &[(Cycles, TaskId)] {
        &self.sheds
    }

    /// `cpu_busy / horizon` in parts per million (0 for a zero horizon).
    pub fn cpu_utilization_ppm(&self) -> u64 {
        ratio_ppm(self.cpu_busy(), self.horizon)
    }

    /// `dma_busy / horizon` in parts per million (0 for a zero horizon).
    pub fn dma_utilization_ppm(&self) -> u64 {
        ratio_ppm(self.dma_busy(), self.horizon)
    }

    /// Fraction of DMA streaming time hidden under compute, in parts
    /// per million of `dma_busy`. By construction ≤ 1 000 000; 0 when
    /// nothing was fetched.
    pub fn overlap_ratio_ppm(&self) -> u64 {
        ratio_ppm(self.overlap_cycles(), self.dma_busy())
    }

    /// The serializable digest of this timeline.
    pub fn summary(&self) -> TimelineSummary {
        TimelineSummary {
            horizon: self.horizon,
            cpu_busy: self.cpu_busy(),
            cpu_idle: self.cpu_idle(),
            dma_busy: self.dma_busy(),
            overlap: self.overlap_cycles(),
            cpu_utilization_ppm: self.cpu_utilization_ppm(),
            dma_utilization_ppm: self.dma_utilization_ppm(),
            overlap_ratio_ppm: self.overlap_ratio_ppm(),
        }
    }
}

fn ratio_ppm(num: Cycles, den: Cycles) -> u64 {
    if den.is_zero() {
        return 0;
    }
    ((u128::from(num.get()) * 1_000_000) / u128::from(den.get())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn seg(t: usize, j: u64, s: usize) -> (TaskId, JobId, SegmentId) {
        (TaskId(t), JobId(j), SegmentId(s))
    }

    fn push_seg(trace: &mut Trace, ids: (TaskId, JobId, SegmentId), start: u64, end: u64) {
        let (task, job, segment) = ids;
        trace.push(cy(start), TraceKind::SegmentStarted { task, job, segment });
        trace.push(cy(end), TraceKind::SegmentCompleted { task, job, segment });
    }

    #[test]
    fn busy_idle_partition_horizon() {
        let mut t = Trace::new();
        push_seg(&mut t, seg(0, 0, 0), 10, 40);
        push_seg(&mut t, seg(1, 0, 0), 40, 70);
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(tl.cpu_busy(), cy(60));
        assert_eq!(tl.cpu_idle(), cy(40));
        assert_eq!(tl.cpu_busy() + tl.cpu_idle(), tl.horizon());
        assert_eq!(tl.cpu_utilization_ppm(), 600_000);
        assert_eq!(
            tl.idle_intervals(),
            vec![
                Interval {
                    start: cy(0),
                    end: cy(10)
                },
                Interval {
                    start: cy(70),
                    end: cy(100)
                },
            ]
        );
    }

    #[test]
    fn unterminated_segment_clamps_to_horizon() {
        let mut t = Trace::new();
        let (task, job, segment) = seg(0, 0, 0);
        t.push(cy(80), TraceKind::SegmentStarted { task, job, segment });
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(tl.cpu_busy(), cy(20));
        assert_eq!(tl.cpu_busy() + tl.cpu_idle(), cy(100));
        assert_eq!(tl.segments().len(), 1);
        assert_eq!(tl.segments()[0].end, cy(100));
    }

    #[test]
    fn overlap_is_exact_intersection() {
        let mut t = Trace::new();
        let (task, job, segment) = seg(0, 0, 1);
        // Fetch [20, 60); compute [40, 80) → overlap [40, 60) = 20.
        t.push(
            cy(20),
            TraceKind::FetchStarted {
                task,
                job,
                segment,
                bytes: 512,
            },
        );
        let (ct, cj, cs) = seg(0, 0, 0);
        t.push(
            cy(40),
            TraceKind::SegmentStarted {
                task: ct,
                job: cj,
                segment: cs,
            },
        );
        t.push(cy(60), TraceKind::FetchCompleted { task, job, segment });
        t.push(
            cy(80),
            TraceKind::SegmentCompleted {
                task: ct,
                job: cj,
                segment: cs,
            },
        );
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(tl.dma_busy(), cy(40));
        assert_eq!(tl.overlap_cycles(), cy(20));
        assert_eq!(tl.overlap_ratio_ppm(), 500_000);
        assert_eq!(tl.dma_utilization_ppm(), 400_000);
        assert_eq!(tl.fetches()[0].bytes, 512);
    }

    #[test]
    fn task_rows_come_from_counted_events() {
        let mut t = Trace::new();
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: TaskId(0),
                job: JobId(0),
                deadline: cy(90),
            },
        );
        push_seg(&mut t, seg(2, 0, 0), 0, 30);
        t.push(
            cy(30),
            TraceKind::Preempted {
                task: TaskId(3),
                by: TaskId(1),
            },
        );
        t.push(
            cy(90),
            TraceKind::DeadlineMissed {
                task: TaskId(4),
                job: JobId(1),
            },
        );
        t.push(
            cy(95),
            TraceKind::ReleaseShed {
                task: TaskId(5),
                job: JobId(1),
            },
        );
        let tl = Timeline::from_trace(&t, cy(100));
        let rows: Vec<TaskId> = tl.tasks().iter().copied().collect();
        // The preempting task and a task with only a shed release have
        // no row.
        assert_eq!(rows, vec![TaskId(0), TaskId(2), TaskId(3), TaskId(4)]);
    }

    /// A faulted attempt and one its aborted job cancelled count as DMA
    /// time up to the fault and the abort, not to the horizon.
    #[test]
    fn faulted_and_cancelled_attempts_are_dma_time() {
        let mut t = Trace::new();
        let (task, job, segment) = seg(0, 0, 0);
        let fetch = TraceKind::FetchStarted {
            task,
            job,
            segment,
            bytes: 64,
        };
        t.push(cy(10), fetch);
        t.push(
            cy(30),
            TraceKind::FetchFaulted {
                task,
                job,
                segment,
                attempt: 0,
            },
        );
        t.push(cy(30), fetch);
        t.push(cy(50), TraceKind::FetchCompleted { task, job, segment });
        let next = TraceKind::FetchStarted {
            task,
            job,
            segment: SegmentId(1),
            bytes: 64,
        };
        t.push(cy(50), next);
        t.push(cy(70), TraceKind::JobAborted { task, job });
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(tl.fetches().len(), 3);
        assert_eq!(tl.dma_busy(), cy(60));
        assert_eq!(
            tl.dma_intervals(),
            &[Interval {
                start: cy(10),
                end: cy(70)
            }]
        );
    }

    #[test]
    fn empty_trace_is_all_idle() {
        let tl = Timeline::from_trace(&Trace::new(), cy(50));
        assert_eq!(tl.cpu_busy(), Cycles::ZERO);
        assert_eq!(tl.cpu_idle(), cy(50));
        assert_eq!(tl.overlap_ratio_ppm(), 0);
        assert_eq!(
            tl.idle_intervals(),
            vec![Interval {
                start: cy(0),
                end: cy(50)
            }]
        );
        let zero = Timeline::from_trace(&Trace::new(), Cycles::ZERO);
        assert_eq!(zero.cpu_utilization_ppm(), 0);
    }

    #[test]
    fn open_idle_at_horizon_closes_exactly() {
        // Regression: the simulator stops emitting at the horizon, so a
        // trace can end with an open `CpuIdle`. The timeline must
        // synthesize the closing cut so busy and traced idle still
        // partition the horizon.
        let mut t = Trace::new();
        t.push(cy(0), TraceKind::CpuIdle);
        t.push(cy(10), TraceKind::CpuIdleEnd);
        push_seg(&mut t, seg(0, 0, 0), 10, 40);
        t.push(cy(40), TraceKind::CpuIdle); // never closed: horizon mid-idle
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(
            tl.traced_idle_intervals(),
            &[
                Interval {
                    start: cy(0),
                    end: cy(10)
                },
                Interval {
                    start: cy(40),
                    end: cy(100)
                },
            ]
        );
        assert_eq!(tl.traced_idle_cycles(), cy(70));
        assert_eq!(tl.cpu_busy() + tl.traced_idle_cycles(), tl.horizon());
        assert_eq!(tl.cpu_busy() + tl.cpu_idle(), tl.horizon());
        // An idle period opening at or beyond the horizon is dropped.
        let mut u = Trace::new();
        u.push(cy(100), TraceKind::CpuIdle);
        let ul = Timeline::from_trace(&u, cy(100));
        assert!(ul.traced_idle_intervals().is_empty());
    }

    #[test]
    fn traced_idle_pairs_up_and_ignores_unmatched_ends() {
        let mut t = Trace::new();
        t.push(cy(5), TraceKind::CpuIdleEnd); // no open idle: ignored
        t.push(cy(10), TraceKind::CpuIdle);
        t.push(cy(25), TraceKind::CpuIdleEnd);
        t.push(cy(40), TraceKind::CpuIdle);
        t.push(cy(60), TraceKind::CpuIdleEnd);
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(
            tl.traced_idle_intervals(),
            &[
                Interval {
                    start: cy(10),
                    end: cy(25)
                },
                Interval {
                    start: cy(40),
                    end: cy(60)
                },
            ]
        );
        assert_eq!(tl.traced_idle_cycles(), cy(35));
    }

    #[test]
    fn fault_abort_and_shed_markers_are_collected() {
        let mut t = Trace::new();
        t.push(
            cy(5),
            TraceKind::FetchFaulted {
                task: TaskId(0),
                job: JobId(0),
                segment: SegmentId(0),
                attempt: 0,
            },
        );
        t.push(
            cy(20),
            TraceKind::JobAborted {
                task: TaskId(1),
                job: JobId(0),
            },
        );
        t.push(
            cy(30),
            TraceKind::ReleaseShed {
                task: TaskId(1),
                job: JobId(1),
            },
        );
        let tl = Timeline::from_trace(&t, cy(100));
        assert_eq!(tl.faults(), &[(cy(5), TaskId(0))]);
        assert_eq!(tl.aborts(), &[(cy(20), TaskId(1))]);
        assert_eq!(tl.sheds(), &[(cy(30), TaskId(1))]);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut t = Trace::new();
        push_seg(&mut t, seg(0, 0, 0), 5, 25);
        let tl = Timeline::from_trace(&t, cy(100));
        let s = tl.summary();
        assert_eq!(s.cpu_busy + s.cpu_idle, s.horizon);
        let json = serde_json::to_string(&s).expect("serialize");
        let back: TimelineSummary = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, s);
    }
}
