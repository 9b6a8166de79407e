//! Timeline analytics over execution traces.
//!
//! [`Timeline::from_trace`] performs one pass over a [`Trace`] and
//! derives exact interval data: per-task Gantt slices, CPU/DMA busy
//! unions, idle intervals, and the fetch/compute overlap. All arithmetic
//! is integer-exact over the event stream, so the headline invariant
//! `cpu_busy + cpu_idle == horizon` holds by construction and every
//! derived number is identical regardless of worker-thread settings.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, JobId, SegmentId, TaskId, Trace, TraceKind};

/// A half-open interval of simulation time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interval {
    /// First cycle of the interval.
    pub start: Cycles,
    /// One past the last cycle of the interval.
    pub end: Cycles,
}

impl Interval {
    /// Length of the interval.
    pub fn len(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

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

/// One DMA transfer staging a segment's weights.
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
    /// When the DMA started.
    pub start: Cycles,
    /// When the transfer finished (clamped to the horizon if the trace
    /// ended mid-transfer).
    pub end: Cycles,
}

/// Per-task aggregates derived from the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTimeline {
    /// CPU cycles spent executing this task's segments.
    pub busy: Cycles,
    /// Jobs released.
    pub releases: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Deadline misses.
    pub misses: u64,
    /// Segment-boundary preemptions suffered.
    pub preemptions: u64,
    /// Largest observed response time, if any job completed.
    pub max_response: Option<Cycles>,
}

impl TaskTimeline {
    /// Observed CPU utilization over `horizon`, in parts per million.
    pub fn utilization_ppm(&self, horizon: Cycles) -> u64 {
        ratio_ppm(self.busy, horizon)
    }
}

/// A compact, serializable digest of a timeline — what the benchmark
/// telemetry embeds in `results/metrics.json`.
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
#[derive(Debug, Clone)]
pub struct Timeline {
    horizon: Cycles,
    segments: Vec<SegmentSlice>,
    fetches: Vec<FetchSlice>,
    cpu_intervals: Vec<Interval>,
    dma_intervals: Vec<Interval>,
    cpu_busy: Cycles,
    dma_busy: Cycles,
    overlap: Cycles,
    tasks: BTreeMap<TaskId, TaskTimeline>,
    traced_idle: Vec<Interval>,
    faults: Vec<(Cycles, TaskId)>,
    aborts: Vec<(Cycles, TaskId)>,
    sheds: Vec<(Cycles, TaskId)>,
}

impl Timeline {
    /// Builds the timeline from `trace` over `[0, horizon)`.
    ///
    /// Every event time is clamped to `horizon`. Intervals still open
    /// when the trace ends (a segment, fetch, or idle period the
    /// simulator never closed because the horizon hit) close at the
    /// horizon. A segment or fetch starting at or beyond the horizon
    /// becomes an empty slice: it adds no busy time and paints no
    /// Gantt cell. Instant events beyond the horizon still count, at
    /// the horizon: releases, completions, misses and preemptions in
    /// [`Timeline::tasks`], and the fault, abort and shed markers.
    pub fn from_trace(trace: &Trace, horizon: Cycles) -> Self {
        let mut segments = Vec::new();
        let mut fetches = Vec::new();
        let mut tasks: BTreeMap<TaskId, TaskTimeline> = BTreeMap::new();
        let mut open_seg: BTreeMap<(TaskId, JobId, SegmentId), Cycles> = BTreeMap::new();
        let mut open_fetch: BTreeMap<(TaskId, JobId, SegmentId), (Cycles, u64)> = BTreeMap::new();
        let mut traced_idle = Vec::new();
        let mut open_idle: Option<Cycles> = None;
        let mut faults = Vec::new();
        let mut aborts = Vec::new();
        let mut sheds = Vec::new();

        for e in trace.events() {
            let time = e.time.min(horizon);
            match e.kind {
                TraceKind::SegmentStarted { task, job, segment } => {
                    open_seg.insert((task, job, segment), time);
                }
                TraceKind::SegmentCompleted { task, job, segment } => {
                    if let Some(start) = open_seg.remove(&(task, job, segment)) {
                        segments.push(SegmentSlice {
                            task,
                            job,
                            segment,
                            start,
                            end: time,
                        });
                    }
                }
                TraceKind::FetchStarted {
                    task,
                    job,
                    segment,
                    bytes,
                } => {
                    open_fetch.insert((task, job, segment), (time, bytes));
                }
                TraceKind::FetchCompleted { task, job, segment } => {
                    if let Some((start, bytes)) = open_fetch.remove(&(task, job, segment)) {
                        fetches.push(FetchSlice {
                            task,
                            job,
                            segment,
                            bytes,
                            start,
                            end: time,
                        });
                    }
                }
                TraceKind::JobReleased { task, .. } => {
                    tasks.entry(task).or_default().releases += 1;
                }
                TraceKind::JobCompleted { task, response, .. } => {
                    let t = tasks.entry(task).or_default();
                    t.completions += 1;
                    t.max_response = Some(t.max_response.map_or(response, |m| m.max(response)));
                }
                TraceKind::DeadlineMissed { task, .. } => {
                    tasks.entry(task).or_default().misses += 1;
                }
                TraceKind::Preempted { task, .. } => {
                    tasks.entry(task).or_default().preemptions += 1;
                }
                TraceKind::CpuIdle => {
                    // Duplicate opens keep the earliest start.
                    open_idle.get_or_insert(time);
                }
                TraceKind::CpuIdleEnd => {
                    if let Some(start) = open_idle.take() {
                        if start < time {
                            traced_idle.push(Interval { start, end: time });
                        }
                    }
                }
                TraceKind::FetchFaulted { task, .. } => {
                    faults.push((time, task));
                }
                TraceKind::JobAborted { task, .. } => {
                    aborts.push((time, task));
                }
                TraceKind::ReleaseShed { task, .. } => {
                    sheds.push((time, task));
                }
                _ => {}
            }
        }
        // A trace that ends mid-idle has no paired `CpuIdleEnd`:
        // synthesize the closing cut at the horizon so traced idle
        // still complements CPU busy exactly.
        if let Some(start) = open_idle {
            if start < horizon {
                traced_idle.push(Interval {
                    start,
                    end: horizon,
                });
            }
        }
        // Clamp whatever the horizon cut off mid-flight.
        for ((task, job, segment), start) in open_seg {
            segments.push(SegmentSlice {
                task,
                job,
                segment,
                start,
                end: horizon,
            });
        }
        for ((task, job, segment), (start, bytes)) in open_fetch {
            fetches.push(FetchSlice {
                task,
                job,
                segment,
                bytes,
                start,
                end: horizon,
            });
        }
        segments.sort_by_key(|s| (s.start, s.task, s.job, s.segment));
        fetches.sort_by_key(|f| (f.start, f.task, f.job, f.segment));

        for s in &segments {
            tasks.entry(s.task).or_default().busy += s.end.saturating_sub(s.start);
        }

        let cpu_intervals = merge_intervals(
            segments
                .iter()
                .map(|s| Interval {
                    start: s.start,
                    end: s.end,
                })
                .collect(),
        );
        let dma_intervals = merge_intervals(
            fetches
                .iter()
                .map(|f| Interval {
                    start: f.start,
                    end: f.end,
                })
                .collect(),
        );
        let cpu_busy = total(&cpu_intervals);
        let dma_busy = total(&dma_intervals);
        let overlap = intersection_cycles(&cpu_intervals, &dma_intervals);

        Timeline {
            horizon,
            segments,
            fetches,
            cpu_intervals,
            dma_intervals,
            cpu_busy,
            dma_busy,
            overlap,
            tasks,
            traced_idle,
            faults,
            aborts,
            sheds,
        }
    }

    /// Analysis horizon.
    pub fn horizon(&self) -> Cycles {
        self.horizon
    }

    /// All segment executions, sorted by start time.
    pub fn segments(&self) -> &[SegmentSlice] {
        &self.segments
    }

    /// All DMA transfers, sorted by start time.
    pub fn fetches(&self) -> &[FetchSlice] {
        &self.fetches
    }

    /// Per-task aggregates, keyed by task.
    pub fn tasks(&self) -> &BTreeMap<TaskId, TaskTimeline> {
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
        self.cpu_busy
    }

    /// Total cycles the CPU sat idle: exactly `horizon - cpu_busy`.
    pub fn cpu_idle(&self) -> Cycles {
        self.horizon.saturating_sub(self.cpu_busy)
    }

    /// Total cycles the DMA was streaming.
    pub fn dma_busy(&self) -> Cycles {
        self.dma_busy
    }

    /// Cycles during which compute and a fetch were in flight together.
    pub fn overlap_cycles(&self) -> Cycles {
        self.overlap
    }

    /// The complement of the CPU busy union within `[0, horizon)`.
    pub fn idle_intervals(&self) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut cursor = Cycles::ZERO;
        for iv in &self.cpu_intervals {
            if iv.start > cursor {
                out.push(Interval {
                    start: cursor,
                    end: iv.start.min(self.horizon),
                });
            }
            cursor = cursor.max(iv.end);
        }
        if cursor < self.horizon {
            out.push(Interval {
                start: cursor,
                end: self.horizon,
            });
        }
        out.retain(|iv| !iv.is_empty());
        out
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
        ratio_ppm(self.cpu_busy, self.horizon)
    }

    /// `dma_busy / horizon` in parts per million (0 for a zero horizon).
    pub fn dma_utilization_ppm(&self) -> u64 {
        ratio_ppm(self.dma_busy, self.horizon)
    }

    /// Fraction of DMA streaming time hidden under compute, in parts
    /// per million of `dma_busy`. By construction ≤ 1 000 000; 0 when
    /// nothing was fetched.
    pub fn overlap_ratio_ppm(&self) -> u64 {
        ratio_ppm(self.overlap, self.dma_busy)
    }

    /// The serializable digest of this timeline.
    pub fn summary(&self) -> TimelineSummary {
        TimelineSummary {
            horizon: self.horizon,
            cpu_busy: self.cpu_busy,
            cpu_idle: self.cpu_idle(),
            dma_busy: self.dma_busy,
            overlap: self.overlap,
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

/// Sorts and merges overlapping or touching intervals into a disjoint,
/// ascending list; empty intervals are dropped.
fn merge_intervals(mut ivs: Vec<Interval>) -> Vec<Interval> {
    ivs.retain(|iv| !iv.is_empty());
    ivs.sort();
    let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

fn total(ivs: &[Interval]) -> Cycles {
    ivs.iter().map(Interval::len).sum()
}

/// Total length of the intersection of two disjoint, ascending interval
/// lists (two-pointer sweep).
fn intersection_cycles(a: &[Interval], b: &[Interval]) -> Cycles {
    let (mut i, mut j) = (0, 0);
    let mut out = Cycles::ZERO;
    while i < a.len() && j < b.len() {
        let start = a[i].start.max(b[j].start);
        let end = a[i].end.min(b[j].end);
        out += end.saturating_sub(start);
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
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
    fn per_task_aggregates() {
        let mut t = Trace::new();
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: TaskId(0),
                job: JobId(0),
                deadline: cy(90),
            },
        );
        push_seg(&mut t, seg(0, 0, 0), 0, 30);
        t.push(
            cy(30),
            TraceKind::Preempted {
                task: TaskId(0),
                by: TaskId(1),
            },
        );
        t.push(
            cy(30),
            TraceKind::JobCompleted {
                task: TaskId(0),
                job: JobId(0),
                response: cy(30),
            },
        );
        t.push(
            cy(90),
            TraceKind::DeadlineMissed {
                task: TaskId(0),
                job: JobId(1),
            },
        );
        let tl = Timeline::from_trace(&t, cy(100));
        let t0 = tl.tasks()[&TaskId(0)];
        assert_eq!(t0.busy, cy(30));
        assert_eq!(t0.releases, 1);
        assert_eq!(t0.completions, 1);
        assert_eq!(t0.misses, 1);
        assert_eq!(t0.preemptions, 1);
        assert_eq!(t0.max_response, Some(cy(30)));
        assert_eq!(t0.utilization_ppm(cy(100)), 300_000);
        assert_eq!(t0.utilization_ppm(Cycles::ZERO), 0);
        // The preempting task has no events of its own.
        assert!(!tl.tasks().contains_key(&TaskId(1)));
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

    #[test]
    fn interval_merging_handles_overlap_and_touching() {
        let merged = merge_intervals(vec![
            Interval {
                start: cy(10),
                end: cy(20),
            },
            Interval {
                start: cy(20),
                end: cy(30),
            },
            Interval {
                start: cy(15),
                end: cy(25),
            },
            Interval {
                start: cy(40),
                end: cy(40),
            },
            Interval {
                start: cy(50),
                end: cy(60),
            },
        ]);
        assert_eq!(
            merged,
            vec![
                Interval {
                    start: cy(10),
                    end: cy(30)
                },
                Interval {
                    start: cy(50),
                    end: cy(60)
                },
            ]
        );
        assert_eq!(total(&merged), cy(30));
    }
}
