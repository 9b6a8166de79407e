//! The segmented sporadic task model.
//!
//! A multi-DNN workload is a set of sporadic tasks; each task's job is a
//! full inference, executed as an ordered sequence of *segments* (groups
//! of layers whose weights fit one fetch buffer). Segments are the units
//! of non-preemptive execution and of DMA staging. This module is
//! platform-independent: segments carry raw compute cycles and fetch
//! bytes; the analyses and the simulator combine them with a
//! [`PlatformConfig`](rtmdm_mcusim::PlatformConfig) to obtain inflated
//! worst-case numbers.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::Cycles;

/// How a task's weights are staged relative to its compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StagingMode {
    /// RT-MDM: double-buffered DMA prefetch overlapping compute.
    Overlapped,
    /// All weights resident in SRAM; `fetch_bytes` are ignored.
    Resident,
}

/// What the simulator does with a job that misses its deadline.
///
/// `Abort` and `SkipNextRelease` together constitute *overload
/// shedding*: instead of letting a late job push every successor later
/// (the `Continue` default), the runtime drops work — either the late
/// job itself, or the demand that would pile up behind it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MissPolicy {
    /// Let the late job run to completion; successors queue behind it.
    #[default]
    Continue,
    /// Drop the late job at the next segment boundary (an in-flight
    /// non-preemptive segment finishes first) and cancel its pending
    /// DMA transfers.
    Abort,
    /// Let the late job finish, but shed the task's next release so the
    /// backlog drains instead of compounding.
    SkipNextRelease,
}

impl MissPolicy {
    /// Every policy, in declaration order.
    pub const ALL: [MissPolicy; 3] = [
        MissPolicy::Continue,
        MissPolicy::Abort,
        MissPolicy::SkipNextRelease,
    ];

    /// The policy whose [`Display`](std::fmt::Display) name is `name`.
    pub fn from_name(name: &str) -> Option<MissPolicy> {
        MissPolicy::ALL.into_iter().find(|p| p.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            MissPolicy::Continue => "continue",
            MissPolicy::Abort => "abort",
            MissPolicy::SkipNextRelease => "skip-next",
        }
    }
}

impl std::fmt::Display for MissPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One non-preemptive execution unit: a group of consecutive layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// CPU work in uninflated cycles.
    pub compute: Cycles,
    /// Weight bytes the DMA stages for this segment (0 under
    /// [`StagingMode::Resident`]).
    pub fetch_bytes: u64,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(compute: Cycles, fetch_bytes: u64) -> Self {
        Segment {
            compute,
            fetch_bytes,
        }
    }
}

/// A sporadic task: a DNN inference released at most once per period
/// with a constrained relative deadline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SporadicTask {
    /// Task name (appears in traces and tables).
    pub name: String,
    /// Minimum inter-release separation.
    pub period: Cycles,
    /// Relative deadline (must satisfy `deadline ≤ period`).
    pub deadline: Cycles,
    /// Segments in execution order (non-empty).
    pub segments: Vec<Segment>,
    /// Staging mode.
    pub mode: StagingMode,
    /// What the simulator does when a job of this task misses its
    /// deadline ([`MissPolicy::Continue`] by default).
    pub miss_policy: MissPolicy,
}

/// A task's parameters are inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskError {
    /// The deadline exceeds the period (unconstrained deadlines are out
    /// of the model's scope).
    DeadlineExceedsPeriod {
        /// Offending task name.
        name: String,
    },
    /// The task has no segments.
    NoSegments {
        /// Offending task name.
        name: String,
    },
    /// Period or deadline is zero.
    ZeroTiming {
        /// Offending task name.
        name: String,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::DeadlineExceedsPeriod { name } => {
                write!(f, "task {name} has deadline exceeding its period")
            }
            TaskError::NoSegments { name } => write!(f, "task {name} has no segments"),
            TaskError::ZeroTiming { name } => {
                write!(f, "task {name} has a zero period or deadline")
            }
        }
    }
}

impl std::error::Error for TaskError {}

impl SporadicTask {
    /// Creates a validated task.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError`] if the deadline exceeds the period, timing
    /// parameters are zero, or no segments are given.
    pub fn new(
        name: impl Into<String>,
        period: Cycles,
        deadline: Cycles,
        segments: Vec<Segment>,
        mode: StagingMode,
    ) -> Result<Self, TaskError> {
        let name = name.into();
        if period.is_zero() || deadline.is_zero() {
            return Err(TaskError::ZeroTiming { name });
        }
        if deadline > period {
            return Err(TaskError::DeadlineExceedsPeriod { name });
        }
        if segments.is_empty() {
            return Err(TaskError::NoSegments { name });
        }
        Ok(SporadicTask {
            name,
            period,
            deadline,
            segments,
            mode,
            miss_policy: MissPolicy::Continue,
        })
    }

    /// Sets the deadline-miss policy (builder style).
    #[must_use]
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total uninflated CPU work per job.
    pub fn total_compute(&self) -> Cycles {
        self.segments.iter().map(|s| s.compute).sum()
    }

    /// Total staged bytes per job (0 when resident).
    pub fn total_fetch_bytes(&self) -> u64 {
        match self.mode {
            StagingMode::Resident => 0,
            StagingMode::Overlapped => self.segments.iter().map(|s| s.fetch_bytes).sum(),
        }
    }

    /// The longest single segment's compute — this task's worst
    /// non-preemptive blocking imposed on others.
    pub fn max_segment_compute(&self) -> Cycles {
        self.segments
            .iter()
            .map(|s| s.compute)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// CPU utilization in parts per million (compute only, uninflated).
    pub fn compute_utilization_ppm(&self) -> u64 {
        ratio_ppm(self.total_compute().get(), self.period.get())
    }
}

/// An ordered collection of tasks. Index order is priority order for
/// fixed-priority policies: index 0 is the highest priority.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<SporadicTask>,
}

impl TaskSet {
    /// Creates an empty task set.
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Creates a task set from tasks in priority order.
    pub fn from_tasks(tasks: Vec<SporadicTask>) -> Self {
        TaskSet { tasks }
    }

    /// Appends a task at the lowest priority.
    pub fn push(&mut self, task: SporadicTask) {
        self.tasks.push(task);
    }

    /// Tasks in priority order.
    pub fn tasks(&self) -> &[SporadicTask] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Reorders tasks by the given priority permutation: `order[p]` is
    /// the index (in the current set) of the task that gets priority `p`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..len`.
    pub fn reordered(&self, order: &[usize]) -> TaskSet {
        assert_eq!(order.len(), self.tasks.len(), "order length mismatch");
        let mut seen = vec![false; order.len()];
        for &idx in order {
            assert!(!seen[idx], "order is not a permutation");
            seen[idx] = true;
        }
        TaskSet {
            tasks: order.iter().map(|&i| self.tasks[i].clone()).collect(),
        }
    }

    /// Total compute utilization in ppm (uninflated, ignores staging).
    pub fn compute_utilization_ppm(&self) -> u64 {
        self.tasks.iter().map(|t| t.compute_utilization_ppm()).sum()
    }
}

impl FromIterator<SporadicTask> for TaskSet {
    fn from_iter<I: IntoIterator<Item = SporadicTask>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<SporadicTask> for TaskSet {
    fn extend<I: IntoIterator<Item = SporadicTask>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

/// `num/den` in parts per million, rounding up; 0 if `den` is 0,
/// saturating at `u64::MAX` for pathological ratios (a 2^64-scale
/// utilization is unschedulable whichever way it is reported).
pub(crate) fn ratio_ppm(num: u64, den: u64) -> u64 {
    if den == 0 {
        return 0;
    }
    u64::try_from((u128::from(num) * 1_000_000u128).div_ceil(u128::from(den))).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    #[test]
    fn miss_policy_names_round_trip() {
        for p in MissPolicy::ALL {
            assert_eq!(MissPolicy::from_name(&p.to_string()), Some(p));
        }
        assert_eq!(MissPolicy::from_name("skip"), None);
    }

    fn task(name: &str, period: u64, segs: &[(u64, u64)]) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(period),
            segs.iter().map(|&(c, b)| Segment::new(cy(c), b)).collect(),
            StagingMode::Overlapped,
        )
        .expect("valid task")
    }

    #[test]
    fn aggregates() {
        let t = task("t", 1000, &[(100, 64), (200, 128), (50, 0)]);
        assert_eq!(t.total_compute(), cy(350));
        assert_eq!(t.total_fetch_bytes(), 192);
        assert_eq!(t.max_segment_compute(), cy(200));
        assert_eq!(t.segment_count(), 3);
        assert_eq!(t.compute_utilization_ppm(), 350_000);
    }

    #[test]
    fn resident_mode_ignores_fetch_bytes() {
        let mut t = task("t", 1000, &[(100, 64)]);
        t.mode = StagingMode::Resident;
        assert_eq!(t.total_fetch_bytes(), 0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let seg = vec![Segment::new(cy(10), 0)];
        assert!(matches!(
            SporadicTask::new("x", cy(10), cy(20), seg.clone(), StagingMode::Resident),
            Err(TaskError::DeadlineExceedsPeriod { .. })
        ));
        assert!(matches!(
            SporadicTask::new("x", cy(10), cy(10), vec![], StagingMode::Resident),
            Err(TaskError::NoSegments { .. })
        ));
        assert!(matches!(
            SporadicTask::new("x", cy(0), cy(0), seg, StagingMode::Resident),
            Err(TaskError::ZeroTiming { .. })
        ));
    }

    #[test]
    fn constrained_deadline_is_allowed() {
        let t = SporadicTask::new(
            "c",
            cy(100),
            cy(60),
            vec![Segment::new(cy(10), 8)],
            StagingMode::Overlapped,
        )
        .expect("valid");
        assert_eq!(t.deadline, cy(60));
    }

    #[test]
    fn taskset_utilization_sums_tasks() {
        let ts: TaskSet = vec![task("a", 1000, &[(100, 0)]), task("b", 2000, &[(400, 0)])]
            .into_iter()
            .collect();
        assert_eq!(ts.compute_utilization_ppm(), 100_000 + 200_000);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn reorder_applies_permutation() {
        let ts: TaskSet = vec![
            task("a", 1000, &[(1, 0)]),
            task("b", 1000, &[(1, 0)]),
            task("c", 1000, &[(1, 0)]),
        ]
        .into_iter()
        .collect();
        let r = ts.reordered(&[2, 0, 1]);
        let names: Vec<&str> = r.tasks().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn reorder_rejects_duplicates() {
        let ts: TaskSet = vec![task("a", 10, &[(1, 0)]), task("b", 10, &[(1, 0)])]
            .into_iter()
            .collect();
        let _ = ts.reordered(&[0, 0]);
    }

    #[test]
    fn ratio_ppm_rounds_up_and_handles_zero() {
        assert_eq!(ratio_ppm(1, 3), 333_334);
        assert_eq!(ratio_ppm(0, 5), 0);
        assert_eq!(ratio_ppm(5, 0), 0);
        // Pathological ratios saturate instead of panicking.
        assert_eq!(ratio_ppm(u64::MAX, 1), u64::MAX);
    }
}
