//! Processor-demand schedulability test for segment-level EDF.
//!
//! Suspension-oblivious: each task's demand per job is its occupancy
//! `occ_i = Σe_i + ΣF_i`, every cycle of CPU or DMA work the job can
//! take. Since `occ_i ≥ P_i`, the isolated pipeline latency, this also
//! charges the job's own DMA waits as computation, which is sound for
//! EDF. Limited preemption adds a blocking term: at any
//! absolute deadline `t`, a job with a later deadline may hold the CPU
//! for one non-preemptive segment.

use rtmdm_mcusim::{Cycles, PlatformConfig};

use crate::analysis::wcet::TaskTiming;
use crate::task::TaskSet;

/// Maximum number of deadline points the test inspects before giving up
/// and reporting "unschedulable" (a safe answer).
const MAX_CHECKPOINTS: usize = 200_000;

/// EDF processor-demand test with limited-preemption blocking.
///
/// Returns `true` only if, for every absolute deadline `t` up to the
/// analysis horizon,
///
/// ```text
/// B(t) + Σ_i max(0, ⌊(t − D_i)/T_i⌋ + 1) · occ_i  ≤  t
/// ```
///
/// where `occ_i` is the task's occupancy and `B(t)` the largest
/// non-preemptive segment (CPU + one DMA transfer) of any task with
/// `D_l > t`. The horizon is the standard busy-period bound; if the
/// occupancy utilization is ≥ 1 the set is rejected immediately.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, PlatformConfig};
/// use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};
/// use rtmdm_sched::analysis::edf_demand_test;
///
/// # fn main() -> Result<(), rtmdm_sched::TaskError> {
/// let t = SporadicTask::new(
///     "t", Cycles::new(1_000), Cycles::new(1_000),
///     vec![Segment::new(Cycles::new(100), 0)], StagingMode::Resident,
/// )?;
/// assert!(edf_demand_test(
///     &TaskSet::from_tasks(vec![t]),
///     &PlatformConfig::ideal_sram(),
/// ));
/// # Ok(())
/// # }
/// ```
pub fn edf_demand_test(ts: &TaskSet, platform: &PlatformConfig) -> bool {
    if ts.is_empty() {
        return true;
    }
    let timings: Vec<TaskTiming> = ts
        .tasks()
        .iter()
        .map(|t| TaskTiming::derive(t, platform))
        .collect();

    // Per-job demand charge: the occupancy (CPU work + DMA work; any
    // instant a job consumes either resource is attributed to it once).
    let per_job: Vec<Cycles> = timings.iter().map(|tt| tt.occupancy).collect();

    // Charged-demand utilization must be below 1 (this also bounds the
    // busy period below).
    let util_ppm: u64 = ts
        .tasks()
        .iter()
        .zip(&per_job)
        .map(|(t, c)| crate::task::ratio_ppm(c.get(), t.period.get()))
        .sum();
    if util_ppm >= 1_000_000 {
        return false;
    }

    // Busy-period style horizon:
    //   L = max(D_max, Σ(T_i − D_i)·U_i / (1 − U)) with U in ppm.
    let d_max = ts
        .tasks()
        .iter()
        .map(|t| t.deadline)
        .max()
        .unwrap_or(Cycles::ZERO);
    let numer: u128 = ts
        .tasks()
        .iter()
        .zip(&per_job)
        .map(|(t, c)| {
            let slack = t.period.saturating_sub(t.deadline).get();
            let u = crate::task::ratio_ppm(c.get(), t.period.get());
            u128::from(slack) * u128::from(u)
        })
        .sum();
    let denom = u128::from(1_000_000 - util_ppm);
    let la = (numer / denom.max(1)) as u64;
    let horizon = d_max.max(Cycles::new(la));

    // Enumerate absolute deadlines ≤ horizon, in order, via a heap-free
    // merge: step each task's deadline sequence. A point past `u64`
    // cycles is past any horizon, so it ends its task's sequence.
    let mut next_deadline: Vec<Option<Cycles>> =
        ts.tasks().iter().map(|t| Some(t.deadline)).collect();
    let mut checked = 0usize;
    loop {
        let Some((idx, t)) = next_deadline
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.filter(|&d| d <= horizon).map(|d| (i, d)))
            .min_by_key(|&(_, d)| d)
        else {
            return true; // all deadline points passed
        };
        checked += 1;
        if checked > MAX_CHECKPOINTS {
            return false; // give up safely
        }

        // Demand at t.
        let mut demand = Cycles::ZERO;
        for (task, charge) in ts.tasks().iter().zip(&per_job) {
            if t >= task.deadline {
                let jobs = (t - task.deadline).get() / task.period.get() + 1;
                demand = match charge.checked_mul(jobs).and_then(|d| demand.checked_add(d)) {
                    Some(d) => d,
                    None => return false,
                };
            }
        }
        // Blocking from tasks with later deadlines: one non-preemptive
        // segment. Their DMA traffic needs no charge — the channel is
        // priority-preemptive, so an earlier-deadline fetch takes it
        // immediately.
        let seg_blocking = ts
            .tasks()
            .iter()
            .zip(&timings)
            .filter(|(task, _)| task.deadline > t)
            .map(|(_, tt)| tt.max_exec_segment)
            .max()
            .unwrap_or(Cycles::ZERO);
        if demand
            .checked_add(seg_blocking)
            .is_none_or(|total| total > t)
        {
            return false;
        }
        next_deadline[idx] = t.checked_add(ts.tasks()[idx].period);
    }
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

    fn resident(name: &str, period: u64, deadline: u64, compute: u64) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(deadline),
            vec![Segment::new(cy(compute), 0)],
            StagingMode::Resident,
        )
        .expect("valid")
    }

    #[test]
    fn light_load_is_schedulable() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 100, 100, 10),
            resident("b", 200, 200, 20),
            resident("c", 400, 400, 40),
        ]);
        assert!(edf_demand_test(&ts, &bare_platform()));
    }

    #[test]
    fn over_utilization_is_rejected() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 100, 100, 60),
            resident("b", 100, 100, 60),
        ]);
        assert!(!edf_demand_test(&ts, &bare_platform()));
    }

    /// A task whose compute is split into several short non-preemptive
    /// segments — small blocking on everyone else.
    fn segmented(name: &str, period: u64, deadline: u64, seg: u64, count: usize) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(deadline),
            (0..count).map(|_| Segment::new(cy(seg), 0)).collect(),
            StagingMode::Resident,
        )
        .expect("valid")
    }

    #[test]
    fn fine_segmentation_keeps_high_utilization_schedulable() {
        // a: 40/100; b: 80/200 split into 4×20 segments, so the
        // blocking at a's deadlines is only 20.
        let ts = TaskSet::from_tasks(vec![
            resident("a", 100, 100, 40),
            segmented("b", 200, 200, 20, 4),
        ]);
        assert!(edf_demand_test(&ts, &bare_platform()));
    }

    #[test]
    fn coarse_blocking_fails_where_fine_segmentation_passes() {
        // Same load, but b as one 80-cycle non-preemptive block:
        // demand(100) = 40 + blocking 80 = 120 > 100.
        let coarse = TaskSet::from_tasks(vec![
            resident("a", 100, 100, 40),
            resident("b", 200, 200, 80),
        ]);
        assert!(!edf_demand_test(&coarse, &bare_platform()));
    }

    #[test]
    fn constrained_deadlines_tighten_the_test() {
        let relaxed = TaskSet::from_tasks(vec![
            resident("a", 100, 100, 40),
            segmented("b", 200, 200, 20, 4),
        ]);
        assert!(edf_demand_test(&relaxed, &bare_platform()));
        let tight = TaskSet::from_tasks(vec![
            resident("a", 100, 45, 40),
            segmented("b", 200, 90, 20, 4),
        ]);
        assert!(!edf_demand_test(&tight, &bare_platform()));
    }

    #[test]
    fn staging_cost_counts_toward_demand() {
        let p = bare_platform();
        let heavy_fetch = SporadicTask::new(
            "f",
            cy(1_000),
            cy(1_000),
            vec![Segment::new(cy(100), 800)],
            StagingMode::Overlapped,
        )
        .expect("valid");
        // P = 800 + 100 = 900 per 1000 → fine alone…
        assert!(edf_demand_test(
            &TaskSet::from_tasks(vec![heavy_fetch.clone()]),
            &p
        ));
        // …but not alongside anything else.
        let ts = TaskSet::from_tasks(vec![heavy_fetch, resident("r", 1_000, 1_000, 200)]);
        assert!(!edf_demand_test(&ts, &p));
    }

    #[test]
    fn deadline_points_past_u64_cycles_end_their_sequence() {
        // A light set whose every next deadline point lies past `u64`
        // cycles: each sequence ends after its first point instead of
        // wrapping back below the horizon.
        let ts = TaskSet::from_tasks(vec![
            resident("t", u64::MAX, u64::MAX, 1_000),
            resident("u", u64::MAX - 1, u64::MAX - 1, 1_000),
        ]);
        assert!(edf_demand_test(&ts, &bare_platform()));
    }

    #[test]
    fn empty_set_is_trivially_schedulable() {
        assert!(edf_demand_test(&TaskSet::new(), &bare_platform()));
    }
}
