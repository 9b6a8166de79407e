//! Execution traces: the ground truth every experiment is computed from.

use serde::{Deserialize, Serialize};

use crate::time::Cycles;

/// Index of a task within a task set (assigned at admission, dense from 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct TaskId(pub usize);

/// Index of a job (the `k`-th release of its task, from 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub u64);

/// Index of a segment within a task's segmented execution (from 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct SegmentId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}
impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "J{}", self.0)
    }
}
impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// What happened at one instant of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TraceKind {
    /// A periodic job arrived and became ready.
    JobReleased {
        /// Task that released the job.
        task: TaskId,
        /// Job index.
        job: JobId,
        /// Absolute deadline of the job.
        deadline: Cycles,
    },
    /// A segment began computing on the CPU.
    SegmentStarted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment index.
        segment: SegmentId,
    },
    /// A segment finished its compute phase.
    SegmentCompleted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment index.
        segment: SegmentId,
    },
    /// A DMA fetch of a segment's weights started.
    FetchStarted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment whose weights are being staged.
        segment: SegmentId,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A DMA fetch completed.
    FetchCompleted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment whose weights were staged.
        segment: SegmentId,
    },
    /// An injected fault corrupted a DMA fetch; the transfer must be
    /// re-issued in full. Followed by a fresh
    /// [`TraceKind::FetchStarted`] for the retry.
    FetchFaulted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment whose transfer faulted.
        segment: SegmentId,
        /// Which attempt faulted (0 = the first transfer).
        attempt: u32,
    },
    /// A job retired its last segment.
    JobCompleted {
        /// Owning task.
        task: TaskId,
        /// Job index.
        job: JobId,
        /// Release-to-completion response time.
        response: Cycles,
    },
    /// A job was still unfinished at its absolute deadline.
    DeadlineMissed {
        /// Owning task.
        task: TaskId,
        /// Job index.
        job: JobId,
    },
    /// A ready higher-priority job took the CPU at a segment boundary.
    Preempted {
        /// Task that lost the CPU.
        task: TaskId,
        /// Task that took it.
        by: TaskId,
    },
    /// A job was dropped mid-flight by the `Abort` deadline-miss policy.
    JobAborted {
        /// Owning task.
        task: TaskId,
        /// Job index.
        job: JobId,
    },
    /// A release was shed by the `SkipNextRelease` deadline-miss policy:
    /// the job was never created. The job index is the one the skipped
    /// release would have had.
    ReleaseShed {
        /// Owning task.
        task: TaskId,
        /// Job index that was skipped.
        job: JobId,
    },
    /// The CPU went idle (no ready segment). Paired with the next
    /// [`TraceKind::CpuIdleEnd`]; a trace may end mid-idle, in which
    /// case consumers clamp the interval at their analysis horizon.
    CpuIdle,
    /// The CPU left idle (a segment is about to start). Closes the most
    /// recent [`TraceKind::CpuIdle`].
    CpuIdleEnd,
    /// Attribution anchor: the head job of `task` cannot compute its
    /// next segment because its weights are not staged yet — the job is
    /// blocked on the DMA pipeline. Paired with the next
    /// [`TraceKind::FetchWaitEnded`] of the same job and segment.
    /// Emitted only when the simulator runs with attribution enabled.
    FetchWaitBegan {
        /// Waiting task.
        task: TaskId,
        /// Waiting job.
        job: JobId,
        /// Segment whose staging the job is blocked on.
        segment: SegmentId,
    },
    /// Attribution anchor: the blocking segment was staged (or the
    /// waiting job left the system) and the fetch wait opened by the
    /// matching [`TraceKind::FetchWaitBegan`] is over. Emitted only
    /// when the simulator runs with attribution enabled.
    FetchWaitEnded {
        /// Task that was waiting.
        task: TaskId,
        /// Job that was waiting.
        job: JobId,
        /// Segment the job was blocked on.
        segment: SegmentId,
    },
    /// Attribution anchor: the segment completing at this instant spent
    /// `stall` wall cycles of its CPU occupancy losing bus arbitration
    /// to a concurrent DMA transfer (occupancies are non-preemptive, so
    /// the stall is exactly wall time minus nominal work). Emitted just
    /// before the matching [`TraceKind::SegmentCompleted`], only when
    /// the stall is nonzero and attribution is enabled.
    SegmentStalled {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment index.
        segment: SegmentId,
        /// Wall cycles lost to bus contention within the occupancy.
        stall: Cycles,
    },
    /// Attribution anchor: a previously-started job re-claims the CPU
    /// after having been preempted, identifying which task ran in
    /// between (the most recent CPU occupant). Emitted at the resuming
    /// dispatch, only when attribution is enabled.
    Resumed {
        /// Task resuming execution.
        task: TaskId,
        /// Resuming job.
        job: JobId,
        /// The task that held the CPU before this dispatch.
        after: TaskId,
    },
}

/// A timestamped [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation instant.
    pub time: Cycles,
    /// What happened.
    pub kind: TraceKind,
}

/// An append-only log of simulation events.
///
/// The scheduler simulator appends; readers derive everything else from
/// [`Trace::events`] — the `rtmdm-obs` crate pairs intervals into
/// timelines, Gantt charts, spans and blame, and exports traces. Events
/// are appended in nondecreasing time order (enforced in debug builds).
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, TaskId, JobId, Trace, TraceKind};
///
/// let mut trace = Trace::new();
/// trace.push(Cycles::new(0), TraceKind::JobReleased {
///     task: TaskId(0), job: JobId(0), deadline: Cycles::new(100),
/// });
/// trace.push(Cycles::new(42), TraceKind::JobCompleted {
///     task: TaskId(0), job: JobId(0), response: Cycles::new(42),
/// });
/// assert_eq!(trace.len(), 2);
/// assert!(matches!(
///     trace.events()[1].kind,
///     TraceKind::JobCompleted { response, .. } if response == Cycles::new(42)
/// ));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Appends an event at `time`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` precedes the last appended
    /// event (the simulator must emit monotone timestamps).
    pub fn push(&mut self, time: Cycles, kind: TraceKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.time <= time),
            "trace timestamps must be nondecreasing"
        );
        self.events.push(TraceEvent { time, kind });
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// A new trace holding only the first `len` events — the
    /// restore-from-snapshot primitive: traces are append-only, so a
    /// simulator state captured mid-run is re-entered by truncating the
    /// finished run's trace back to the captured length instead of
    /// re-simulating (and re-emitting) the whole prefix. `len` is
    /// clamped to the recorded length.
    pub fn truncated(&self, len: usize) -> Trace {
        Trace {
            events: self.events[..len.min(self.events.len())].to_vec(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_keeps_exactly_the_prefix() {
        let mut t = Trace::new();
        for i in 0..5u64 {
            t.push(Cycles::new(i * 10), TraceKind::CpuIdle);
        }
        let head = t.truncated(3);
        assert_eq!(head.len(), 3);
        assert_eq!(head.events(), &t.events()[..3]);
        // Clamped, not panicking, past the end; zero yields empty.
        assert_eq!(t.truncated(99).events(), t.events());
        assert!(t.truncated(0).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_push_panics_in_debug() {
        let mut t = Trace::new();
        t.push(Cycles::new(10), TraceKind::CpuIdle);
        t.push(Cycles::new(5), TraceKind::CpuIdle);
    }
}
