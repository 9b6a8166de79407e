//! Response-time analyses for segment-level fixed-priority scheduling.
//!
//! The RT-MDM analysis ([`rta_limited_preemption`]) is a sound,
//! deliberately conservative response-time analysis for the framework's
//! execution model:
//!
//! - **segment-level non-preemption** — a lower-priority segment in
//!   flight blocks a newly-ready higher-priority task once per point at
//!   which that task (re)claims the CPU ([`TaskTiming::resume_points`]);
//! - **DMA self-suspension** — a task whose next fetch is not hidden by
//!   its compute yields the CPU and resumes later; its own such gaps are
//!   inside [`TaskTiming::pipeline_latency`], and as an *interferer* it
//!   is charged with suspension-induced release jitter `D_j − occ_j`;
//! - **two-resource interference** — a higher-priority job can steal
//!   both CPU cycles (`Σe`) and DMA cycles (`ΣF`) from the task under
//!   analysis; the analysis charges the full occupancy `Σe + ΣF` per
//!   interfering job, which upper-bounds any interleaving;
//! - **bus contention** — every `e`/`F` is pre-inflated at the
//!   worst-case contended rate (see [`TaskTiming::derive`]).
//!
//! [`rta_memory_oblivious`] is the cautionary baseline B4: a classic
//! fully-preemptive RTA on raw compute times that ignores staging,
//! contention, and blocking entirely. It is *unsound* for this system —
//! experiment F3 demonstrates task sets it admits missing deadlines in
//! simulation.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, PlatformConfig};

use crate::analysis::wcet::TaskTiming;
use crate::task::{SporadicTask, TaskSet};

/// Result of a schedulability analysis over a task set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisOutcome {
    /// Whether every task's bound meets its deadline.
    pub schedulable: bool,
    /// Per-task worst-case response-time bound; `None` when the fixed
    /// point diverged past the divergence cap (definitely unschedulable).
    pub response: Vec<Option<Cycles>>,
}

impl AnalysisOutcome {
    /// The response bound of task `idx`, if it converged.
    pub fn response_of(&self, idx: usize) -> Option<Cycles> {
        self.response.get(idx).copied().flatten()
    }
}

/// Iteration limit for each task's fixed point.
const MAX_ITERATIONS: usize = 5_000;

/// The dispatch discipline the analysis models (must match the
/// simulator's [`SimConfig::work_conserving`](crate::sim::SimConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedulerMode {
    /// Priority-gated (non-work-conserving): while the highest-priority
    /// active job waits for its DMA, the CPU idles. Lower-priority
    /// blocking strikes at most once per job, but a higher-priority
    /// job's *gaps* also steal CPU time, so interference is charged at
    /// the full pipeline latency.
    #[default]
    Gated,
    /// Work-conserving: any staged segment may run. Interference is only
    /// the higher-priority occupancy, but every fetching boundary of the
    /// task under analysis is exposed to one more lower-priority
    /// non-preemptive segment.
    WorkConserving,
}

/// The RT-MDM response-time analysis for segment-level fixed-priority
/// scheduling with DMA staging, under the default priority-gated
/// dispatcher. Task index = priority (0 highest).
///
/// For each task `i` (priority order), iterates
///
/// ```text
/// R = B_i + P_i + Σ_{j < i} ⌈(R + J_j) / T_j⌉ · occ_j
/// ```
///
/// The bound rests on an attribution argument: every instant of `R` at
/// which task `i` makes no progress has exactly one cause, and each
/// cause's total is bounded —
///
/// - **own pipeline** `P_i`: `i`'s isolated fetch/compute schedule
///   (fetch-only instants included — the stage model is
///   `max(e_k, F_{k+1})`);
/// - **higher-priority occupancy** `occ_j = Σe_j + ΣF_j`: whether the
///   CPU runs `j` or the gated CPU idles while the DMA serves `j`, the
///   instant is `j`'s, and a job of `j` owns at most `occ_j` instants
///   (`J_j = D_j − occ_j` is its suspension-induced release jitter);
/// - **lower-priority segment blocking** `B_i`: gated — one segment in
///   flight at arrival, `max_lp(e)`; work-conserving — one per resume
///   point.
///
/// Lower-priority **DMA** traffic needs no term at all: the DMA channel
/// is priority-preemptive (descriptor-chained transfers switch at burst
/// granularity), so whenever `i` or a higher-priority task needs the
/// channel it takes it immediately, and any contention slowdown a
/// background transfer inflicts on compute is already inside the
/// fully-inflated `e`/`F` values.
///
/// See [`rta_limited_preemption_with`] for the work-conserving variant.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, PlatformConfig};
/// use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};
/// use rtmdm_sched::analysis::rta_limited_preemption;
///
/// # fn main() -> Result<(), rtmdm_sched::TaskError> {
/// let t = SporadicTask::new(
///     "kws",
///     Cycles::new(1_000_000),
///     Cycles::new(1_000_000),
///     vec![Segment::new(Cycles::new(50_000), 8_192)],
///     StagingMode::Overlapped,
/// )?;
/// let outcome = rta_limited_preemption(
///     &TaskSet::from_tasks(vec![t]),
///     &PlatformConfig::stm32f746_qspi(),
/// );
/// assert!(outcome.schedulable);
/// # Ok(())
/// # }
/// ```
pub fn rta_limited_preemption(ts: &TaskSet, platform: &PlatformConfig) -> AnalysisOutcome {
    rta_limited_preemption_with(ts, platform, SchedulerMode::Gated)
}

/// The RT-MDM response-time analysis under an explicit
/// [`SchedulerMode`] (see [`rta_limited_preemption`] for the formula).
pub fn rta_limited_preemption_with(
    ts: &TaskSet,
    platform: &PlatformConfig,
    mode: SchedulerMode,
) -> AnalysisOutcome {
    let response = interference_bounds(ts, platform, mode)
        .into_iter()
        .map(|b| b.map(|b| b.response))
        .collect();
    verdict(ts, response)
}

/// Assembles an outcome: schedulable iff every bound converged within
/// its task's deadline.
fn verdict(ts: &TaskSet, response: Vec<Option<Cycles>>) -> AnalysisOutcome {
    let schedulable = ts
        .tasks()
        .iter()
        .zip(&response)
        .all(|(t, r)| r.is_some_and(|r| r <= t.deadline));
    AnalysisOutcome {
        schedulable,
        response,
    }
}

/// Analysis-side decomposition of one task's converged response-time
/// bound — the per-cause totals behind the fixed point
/// `R = B_i + P_i + I_i`.
///
/// This is the analytical mirror of the measured blame decomposition
/// (`rtmdm explain`): `blocking` upper-bounds the lower-priority share
/// of measured preemption, `interference` upper-bounds the
/// higher-priority share plus any gated dispatch wait charged to
/// higher-priority DMA traffic, and `pipeline` upper-bounds the job's
/// own compute + contention + blocking-fetch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterferenceBound {
    /// Lower-priority non-preemptive segment blocking `B_i`.
    pub blocking: Cycles,
    /// The task's own isolated pipeline latency `P_i`.
    pub pipeline: Cycles,
    /// Higher-priority occupancy at the converged response,
    /// `Σ_{j<i} ⌈(R + J_j)/T_j⌉ · occ_j`.
    pub interference: Cycles,
    /// The converged bound `R = blocking + pipeline + interference`.
    pub response: Cycles,
}

/// Per-task decomposition of the [`rta_limited_preemption_with`] bounds
/// into their blocking / pipeline / interference terms.
///
/// Entry `i` is `None` exactly when the fixed point for task `i`
/// diverged (the same tasks whose [`AnalysisOutcome::response`] entry is
/// `None`). For converged tasks the identity
/// `response == blocking + pipeline + interference` holds exactly.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, PlatformConfig};
/// use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};
/// use rtmdm_sched::analysis::{interference_bounds, SchedulerMode};
///
/// # fn main() -> Result<(), rtmdm_sched::TaskError> {
/// let t = SporadicTask::new(
///     "kws",
///     Cycles::new(1_000_000),
///     Cycles::new(1_000_000),
///     vec![Segment::new(Cycles::new(50_000), 8_192)],
///     StagingMode::Overlapped,
/// )?;
/// let ts = TaskSet::from_tasks(vec![t]);
/// let bounds = interference_bounds(
///     &ts,
///     &PlatformConfig::stm32f746_qspi(),
///     SchedulerMode::Gated,
/// );
/// let b = bounds[0].expect("converged");
/// assert_eq!(b.response, b.blocking + b.pipeline + b.interference);
/// # Ok(())
/// # }
/// ```
pub fn interference_bounds(
    ts: &TaskSet,
    platform: &PlatformConfig,
    mode: SchedulerMode,
) -> Vec<Option<InterferenceBound>> {
    let timings: Vec<TaskTiming> = ts
        .tasks()
        .iter()
        .map(|t| TaskTiming::derive(t, platform))
        .collect();
    let hp: Vec<Interferer> = ts.tasks().iter().zip(&timings).map(interferer).collect();
    (0..ts.len())
        .map(|i| {
            let lp_exec = timings[i + 1..]
                .iter()
                .map(|t| t.max_exec_segment)
                .max()
                .unwrap_or(Cycles::ZERO);
            task_bound(&ts.tasks()[i], &timings[i], &hp[..i], lp_exec, mode)
        })
        .collect()
}

/// One higher-priority task as the fixed point sees it: its per-job
/// demand `C_j`, release jitter `J_j` and period `T_j`.
pub(crate) type Interferer = (Cycles, Cycles, Cycles);

/// Task `j` as an RT-MDM interferer: demand `occ_j`, jitter
/// `J_j = D_j − occ_j` (its suspension-induced release jitter).
pub(crate) fn interferer((task, timing): (&SporadicTask, &TaskTiming)) -> Interferer {
    (
        timing.occupancy,
        timing.interference_jitter(task.deadline),
        task.period,
    )
}

/// The RT-MDM bound of `task` with exactly the tasks `hp` above it and
/// `lp_exec` the largest segment of any task below it: blocking for
/// `mode` plus the pipeline `P_i`, iterated through the fixed point.
/// `None` when the fixed point diverges.
pub(crate) fn task_bound(
    task: &SporadicTask,
    timing: &TaskTiming,
    hp: &[Interferer],
    lp_exec: Cycles,
    mode: SchedulerMode,
) -> Option<InterferenceBound> {
    let blocking = match mode {
        // Gated: lower-priority segments cannot start while the task is
        // active, so only a segment already in flight at its release
        // blocks.
        SchedulerMode::Gated => lp_exec,
        // Work-conserving: every DMA wait lets one more lower-priority
        // segment in.
        SchedulerMode::WorkConserving => lp_exec.checked_mul(timing.resume_points)?,
    };
    let pipeline = timing.pipeline_latency;
    let base = blocking.checked_add(pipeline)?;
    let response = fixed_point(base, hp, task.period)?;
    Some(InterferenceBound {
        blocking,
        pipeline,
        // At the fixed point R = base + Σ interference, so the
        // higher-priority term is exactly the remainder.
        interference: response - base,
        response,
    })
}

/// Iterates `R = base + Σ_{hp} ⌈(R + J_j)/T_j⌉ · C_j` from `R = base`.
/// The window and its ceiling division run in `u128`, so a jitter near
/// `u64::MAX` costs no precision. Returns `None` if the iterate fails to
/// converge within [`MAX_ITERATIONS`], passes the divergence cap
/// (16 × `period`, saturating: a period too long to multiply caps at
/// `u64::MAX`), or its demand overflows `u64`.
fn fixed_point(base: Cycles, hp: &[Interferer], period: Cycles) -> Option<Cycles> {
    let cap = divergence_cap(period);
    let mut r = base;
    for _ in 0..MAX_ITERATIONS {
        let mut next = base;
        for &(demand, jitter, hp_period) in hp {
            let window = u128::from(r.get()) + u128::from(jitter.get());
            let jobs = u64::try_from(window.div_ceil(u128::from(hp_period.get()))).ok()?;
            next = next.checked_add(demand.checked_mul(jobs)?)?;
        }
        if next == r {
            return Some(r);
        }
        if next > cap {
            return None;
        }
        r = next;
    }
    None
}

/// The response time past which a fixed point is taken to diverge:
/// 16 periods, saturating at `u64::MAX` for very long periods rather
/// than reporting them as divergent.
fn divergence_cap(period: Cycles) -> Cycles {
    Cycles::new(period.get().saturating_mul(16))
}

/// Baseline B4: classic fully-preemptive response-time analysis on raw
/// compute times, ignoring staging, contention, context switches, and
/// blocking. **Unsound for this system** — provided to reproduce the
/// admits-then-misses behaviour of memory-oblivious admission.
pub fn rta_memory_oblivious(ts: &TaskSet, _platform: &PlatformConfig) -> AnalysisOutcome {
    let hp: Vec<Interferer> = ts
        .tasks()
        .iter()
        .map(|t| (t.total_compute(), Cycles::ZERO, t.period))
        .collect();
    let response = (0..ts.len())
        .map(|i| fixed_point(hp[i].0, &hp[..i], hp[i].2))
        .collect();
    verdict(ts, response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Segment, SporadicTask, StagingMode};
    use rtmdm_mcusim::ContentionModel;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn bare_platform() -> PlatformConfig {
        let mut p = PlatformConfig::stm32f746_qspi();
        p.contention = ContentionModel::NONE;
        p.context_switch_cycles = Cycles::ZERO;
        p.ext_mem.setup_cycles = Cycles::ZERO;
        p.ext_mem.cycles_per_byte_num = 1;
        p.ext_mem.cycles_per_byte_den = 1;
        p
    }

    fn resident(name: &str, period: u64, compute: u64) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(period),
            vec![Segment::new(cy(compute), 0)],
            StagingMode::Resident,
        )
        .expect("valid")
    }

    #[test]
    fn single_task_response_is_its_pipeline_latency() {
        let ts = TaskSet::from_tasks(vec![resident("a", 1000, 300)]);
        let out = rta_limited_preemption(&ts, &bare_platform());
        assert!(out.schedulable);
        assert_eq!(out.response_of(0), Some(cy(300)));
    }

    #[test]
    fn classic_two_task_example() {
        // hi (C=20, T=100) over lo (one non-preemptive 200-cycle
        // segment, T=1000): hi's bound is B (one lo segment, 200) plus
        // its own 20 = 220 — which exceeds hi's deadline of 100, so the
        // analysis must reject the set on blocking grounds alone.
        let ts = TaskSet::from_tasks(vec![resident("hi", 100, 20), resident("lo", 1000, 200)]);
        let out = rta_limited_preemption(&ts, &bare_platform());
        let r_hi = out.response_of(0).expect("converged");
        assert_eq!(r_hi, cy(220));
        assert!(!out.schedulable);
    }

    #[test]
    fn blocking_violating_deadline_flags_unschedulable() {
        let ts = TaskSet::from_tasks(vec![resident("hi", 100, 20), resident("lo", 1000, 200)]);
        let out = rta_limited_preemption(&ts, &bare_platform());
        // From the previous test: r_hi = 220 > 100 → unschedulable.
        assert!(!out.schedulable);
    }

    #[test]
    fn interference_accumulates_per_release() {
        let ts = TaskSet::from_tasks(vec![
            resident("hi", 100, 20),
            resident("mid", 400, 40),
            resident("lo", 10_000, 30),
        ]);
        let out = rta_limited_preemption(&ts, &bare_platform());
        assert!(out.schedulable, "{out:?}");
        // lo: blocking none below, P=30, interference from hi and mid
        // with their jitter. The bound is conservative but must converge
        // well under the period.
        let r_lo = out.response_of(2).expect("converged");
        assert!(r_lo >= cy(90)); // at least P + one job of each hp task
        assert!(r_lo <= cy(10_000));
    }

    #[test]
    fn overloaded_set_is_rejected() {
        // 160 % utilization: the fixed point for b lands at 720 (8 jobs
        // of a at 80 each, plus its own 80), far past its deadline.
        let ts = TaskSet::from_tasks(vec![resident("a", 100, 80), resident("b", 100, 80)]);
        let out = rta_limited_preemption(&ts, &bare_platform());
        assert!(!out.schedulable);
        // Divergence would be an equally valid rejection; a converged
        // bound must lie past the deadline.
        if let Some(r) = out.response.last().copied().flatten() {
            assert!(r > cy(100), "bound {r} must exceed the deadline");
        }
    }

    #[test]
    fn periods_past_a_sixteenth_of_u64_are_not_divergent() {
        // 16 × period overflows u64 here; the cap saturates instead of
        // declaring the fixed point divergent.
        for period in [u64::MAX / 16 + 1, u64::MAX / 2, u64::MAX] {
            let ts = TaskSet::from_tasks(vec![
                resident("hi", 1_000, 100),
                resident("lo", period, 300),
            ]);
            let out = rta_limited_preemption(&ts, &bare_platform());
            assert!(out.schedulable, "period {period}: {out:?}");
            // 300 own plus two jobs of hi (its suspension jitter of
            // 900 widens the window to two releases).
            assert_eq!(out.response_of(1), Some(cy(500)), "period {period}");
            let oblivious = rta_memory_oblivious(&ts, &bare_platform());
            assert!(oblivious.schedulable, "period {period}: {oblivious:?}");
            assert_eq!(oblivious.response_of(1), Some(cy(400)), "period {period}");
        }
    }

    #[test]
    fn higher_priority_deadline_near_u64_max_gives_the_exact_bound() {
        // hi's jitter D − occ = u64::MAX − 100 pushes lo's window R + J
        // past u64; in u128 it spans two of hi's releases.
        for period in [u64::MAX - 1, u64::MAX] {
            let ts = TaskSet::from_tasks(vec![
                resident("hi", period, 100),
                resident("lo", u64::MAX, 300),
            ]);
            for mode in [SchedulerMode::Gated, SchedulerMode::WorkConserving] {
                let out = rta_limited_preemption_with(&ts, &bare_platform(), mode);
                assert!(out.schedulable, "period {period}: {out:?}");
                assert_eq!(out.response_of(1), Some(cy(500)), "period {period}");
            }
        }
    }

    #[test]
    fn oblivious_demand_past_u64_diverges_without_wrapping() {
        // a alone needs twice its period, so b's iterate doubles until
        // its demand overflows u64 long before its saturated cap.
        let ts = TaskSet::from_tasks(vec![
            SporadicTask::new(
                "a",
                cy(1_000),
                cy(1_000),
                vec![Segment::new(cy(2_000), 0)],
                StagingMode::Resident,
            )
            .expect("valid"),
            resident("b", u64::MAX, 10),
        ]);
        let out = rta_memory_oblivious(&ts, &bare_platform());
        assert!(!out.schedulable);
        assert_eq!(out.response_of(1), None);
    }

    #[test]
    fn true_divergence_yields_none() {
        // b under a task with utilization 1.0 can never converge.
        let ts = TaskSet::from_tasks(vec![resident("a", 100, 100), resident("b", 1000, 10)]);
        let out = rta_limited_preemption(&ts, &bare_platform());
        assert!(!out.schedulable);
        assert_eq!(out.response.last().copied().flatten(), None);
    }

    #[test]
    fn fetch_heavy_task_pays_for_unhidden_staging() {
        let p = bare_platform();
        // One overlapped task: fetch dominates compute.
        let t = SporadicTask::new(
            "f",
            cy(10_000),
            cy(10_000),
            vec![Segment::new(cy(100), 2_000), Segment::new(cy(100), 2_000)],
            StagingMode::Overlapped,
        )
        .expect("valid");
        let ts = TaskSet::from_tasks(vec![t]);
        let out = rta_limited_preemption(&ts, &p);
        // P = F1 + max(e1,F2) + e2 = 2000 + 2000 + 100 = 4100.
        assert_eq!(out.response_of(0), Some(cy(4100)));
    }

    #[test]
    fn memory_oblivious_ignores_fetch_entirely() {
        let p = bare_platform();
        let t = SporadicTask::new(
            "f",
            cy(10_000),
            cy(10_000),
            vec![Segment::new(cy(100), 1 << 20)], // a megabyte of weights
            StagingMode::Overlapped,
        )
        .expect("valid");
        let ts = TaskSet::from_tasks(vec![t]);
        let out = rta_memory_oblivious(&ts, &p);
        assert_eq!(out.response_of(0), Some(cy(100)));
        assert!(out.schedulable);
        // The sound analysis knows better.
        let sound = rta_limited_preemption(&ts, &p);
        assert!(!sound.schedulable);
    }

    #[test]
    fn rtmdm_dominates_memory_oblivious_bounds() {
        let ts = TaskSet::from_tasks(vec![resident("a", 1000, 100), resident("b", 2000, 300)]);
        let p = bare_platform();
        let sound = rta_limited_preemption(&ts, &p);
        let oblivious = rta_memory_oblivious(&ts, &p);
        for i in 0..ts.len() {
            let (Some(rs), Some(ro)) = (sound.response_of(i), oblivious.response_of(i)) else {
                continue;
            };
            assert!(rs >= ro, "task {i}: sound {rs} < oblivious {ro}");
        }
    }

    #[test]
    fn interference_bounds_partition_the_response_bound() {
        let ts = TaskSet::from_tasks(vec![
            resident("hi", 100, 20),
            resident("mid", 400, 40),
            resident("lo", 10_000, 30),
        ]);
        let p = bare_platform();
        for mode in [SchedulerMode::Gated, SchedulerMode::WorkConserving] {
            let out = rta_limited_preemption_with(&ts, &p, mode);
            let bounds = interference_bounds(&ts, &p, mode);
            assert_eq!(bounds.len(), ts.len());
            for (i, bound) in bounds.iter().enumerate() {
                let b = bound.expect("converged");
                assert_eq!(Some(b.response), out.response_of(i), "task {i}");
                assert_eq!(
                    b.response,
                    b.blocking + b.pipeline + b.interference,
                    "task {i}"
                );
            }
            // Highest priority sees no interference; lowest, no blocking.
            assert_eq!(bounds[0].unwrap().interference, Cycles::ZERO);
            assert_eq!(bounds[2].unwrap().blocking, Cycles::ZERO);
        }
    }

    #[test]
    fn interference_bounds_mark_divergent_tasks() {
        let ts = TaskSet::from_tasks(vec![resident("a", 100, 100), resident("b", 1000, 10)]);
        let bounds = interference_bounds(&ts, &bare_platform(), SchedulerMode::Gated);
        assert!(bounds[0].is_some());
        assert_eq!(bounds[1], None);
    }

    #[test]
    fn empty_taskset_is_schedulable() {
        let out = rta_limited_preemption(&TaskSet::new(), &bare_platform());
        assert!(out.schedulable);
        assert!(out.response.is_empty());
    }
}
