//! Priority assignment for fixed-priority scheduling.
//!
//! - [`rm_order`] / [`dm_order`]: the classic rate- and
//!   deadline-monotonic orders;
//! - [`audsley`]: Audsley's optimal priority assignment over the RT-MDM
//!   analysis as an oracle. The analysis is OPA-compatible: a task's
//!   bound depends on *which* tasks have higher priority (through their
//!   occupancy and deadline-derived jitter) and on the lower-priority
//!   tasks only through their maximum segment lengths — not on the
//!   relative order within either group. The search tests each
//!   candidate with that very per-task bound, with the tasks already
//!   placed below it as its lower-priority group, so every order it
//!   returns is one the analysis admits under the same
//!   [`SchedulerMode`]. Under gated dispatch the search is optimal.
//!   Under work-conserving dispatch a task moved up is blocked once per
//!   resume point by the task it passed, which can outweigh the
//!   interference it sheds, so the search may miss an order that
//!   exists.

use rtmdm_mcusim::{Cycles, PlatformConfig};

use crate::analysis::{interferer, task_bound, Interferer, SchedulerMode, TaskTiming};
use crate::task::TaskSet;

/// Indices of tasks sorted rate-monotonically (shortest period first,
/// name as the deterministic tie-break).
pub fn rm_order(ts: &TaskSet) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ts.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ta, tb) = (&ts.tasks()[a], &ts.tasks()[b]);
        ta.period.cmp(&tb.period).then(ta.name.cmp(&tb.name))
    });
    idx
}

/// Indices of tasks sorted deadline-monotonically (shortest relative
/// deadline first, name as the deterministic tie-break).
pub fn dm_order(ts: &TaskSet) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ts.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ta, tb) = (&ts.tasks()[a], &ts.tasks()[b]);
        ta.deadline.cmp(&tb.deadline).then(ta.name.cmp(&tb.name))
    });
    idx
}

/// Audsley's optimal priority assignment using
/// [`rta_limited_preemption_with`](crate::analysis::rta_limited_preemption_with) under `mode` as the schedulability
/// oracle.
///
/// Returns `Some(order)` — where `order[p]` is the original index of the
/// task assigned priority `p` (0 highest) — if an assignment exists
/// under which the analysis deems every task schedulable, `None`
/// otherwise. The returned order is deterministic (lowest original
/// index wins ties at each level). Each candidate is tested with the
/// exact bound the analysis computes for it in the final order: the
/// other unassigned tasks above it, the tasks already placed below it.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, PlatformConfig};
/// use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};
/// use rtmdm_sched::analysis::SchedulerMode;
/// use rtmdm_sched::assign::audsley;
///
/// # fn main() -> Result<(), rtmdm_sched::TaskError> {
/// let mk = |name: &str, period: u64, c: u64| SporadicTask::new(
///     name, Cycles::new(period), Cycles::new(period),
///     vec![rtmdm_sched::Segment::new(Cycles::new(c), 0)],
///     StagingMode::Resident,
/// );
/// let ts = TaskSet::from_tasks(vec![mk("slow", 10_000, 900)?, mk("fast", 2_000, 90)?]);
/// let order = audsley(&ts, &PlatformConfig::ideal_sram(), SchedulerMode::Gated)
///     .expect("schedulable");
/// // "fast" (original index 1) must get the top priority.
/// assert_eq!(order, vec![1, 0]);
/// # Ok(())
/// # }
/// ```
pub fn audsley(ts: &TaskSet, platform: &PlatformConfig, mode: SchedulerMode) -> Option<Vec<usize>> {
    let tasks = ts.tasks();
    let timings: Vec<TaskTiming> = tasks
        .iter()
        .map(|t| TaskTiming::derive(t, platform))
        .collect();
    let interferers: Vec<Interferer> = tasks.iter().zip(&timings).map(interferer).collect();
    let mut unassigned: Vec<usize> = (0..ts.len()).collect();
    let mut lp_exec = Cycles::ZERO;
    // Fill priorities from the lowest level upward.
    let mut order_rev: Vec<usize> = Vec::with_capacity(ts.len());
    while !unassigned.is_empty() {
        let pos = unassigned.iter().position(|&cand| {
            let hp: Vec<Interferer> = unassigned
                .iter()
                .filter(|&&j| j != cand)
                .map(|&j| interferers[j])
                .collect();
            task_bound(&tasks[cand], &timings[cand], &hp, lp_exec, mode)
                .is_some_and(|b| b.response <= tasks[cand].deadline)
        })?;
        let placed = unassigned.remove(pos);
        lp_exec = lp_exec.max(timings[placed].max_exec_segment);
        order_rev.push(placed);
    }
    order_rev.reverse();
    Some(order_rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::rta_limited_preemption;
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

    fn t(name: &str, period: u64, deadline: u64, compute: u64) -> SporadicTask {
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
    fn rm_and_dm_orders() {
        let ts = TaskSet::from_tasks(vec![
            t("a", 300, 100, 10),
            t("b", 100, 90, 10),
            t("c", 200, 200, 10),
        ]);
        assert_eq!(rm_order(&ts), vec![1, 2, 0]);
        assert_eq!(dm_order(&ts), vec![1, 0, 2]);
    }

    #[test]
    fn audsley_finds_the_obvious_order() {
        // Reverse-priority input: the long task listed first.
        let ts = TaskSet::from_tasks(vec![
            t("slow", 10_000, 10_000, 900),
            t("fast", 1_000, 1_000, 90),
        ]);
        let order = audsley(&ts, &bare_platform(), SchedulerMode::Gated).expect("schedulable");
        let reordered = ts.reordered(&order);
        assert!(rta_limited_preemption(&reordered, &bare_platform()).schedulable);
        assert_eq!(reordered.tasks()[0].name, "fast");
    }

    #[test]
    fn audsley_returns_none_for_infeasible_sets() {
        let ts = TaskSet::from_tasks(vec![t("a", 100, 100, 80), t("b", 100, 100, 80)]);
        assert_eq!(audsley(&ts, &bare_platform(), SchedulerMode::Gated), None);
    }

    #[test]
    fn audsley_beats_rm_on_constrained_deadlines() {
        // Classic DM-beats-RM shape: a long-period task with a tight
        // deadline. RM puts it last and misses; OPA can fix it.
        let ts = TaskSet::from_tasks(vec![t("loose", 100, 100, 40), t("tight", 400, 50, 9)]);
        let rm = ts.reordered(&rm_order(&ts));
        let rm_ok = rta_limited_preemption(&rm, &bare_platform()).schedulable;
        let opa = audsley(&ts, &bare_platform(), SchedulerMode::Gated);
        assert!(opa.is_some(), "OPA should find an order");
        assert!(!rm_ok, "RM should fail on this set");
    }

    #[test]
    fn audsley_is_deterministic() {
        let ts = TaskSet::from_tasks(vec![
            t("a", 1000, 1000, 100),
            t("b", 1000, 1000, 100),
            t("c", 1000, 1000, 100),
        ]);
        let o1 = audsley(&ts, &bare_platform(), SchedulerMode::Gated);
        let o2 = audsley(&ts, &bare_platform(), SchedulerMode::Gated);
        assert_eq!(o1, o2);
    }

    #[test]
    fn empty_set_yields_empty_order() {
        assert_eq!(
            audsley(&TaskSet::new(), &bare_platform(), SchedulerMode::Gated),
            Some(vec![])
        );
    }
}
