//! Empirical acceptance: exhaustive synchronous-release simulation.
//!
//! For synchronous periodic releases and a deterministic scheduler, one
//! simulation over the hyperperiod tells whether *that* release pattern
//! meets every deadline. It is an **empirical upper bound** on true
//! sporadic schedulability — for self-suspending, limited-preemption
//! systems the synchronous pattern is not provably the worst case — but
//! it is the standard yardstick for quantifying how much of the gap to
//! "actually schedulable" an analysis leaves on the table (experiment
//! F2's top curve).

use rtmdm_mcusim::{Cycles, PlatformConfig};

use crate::sim::{simulate, Policy, SimConfig};
use crate::task::TaskSet;

/// Hyperperiods longer than this many cycles are not simulated.
const MAX_HYPERPERIOD: u64 = 1 << 40; // ≈ 90 minutes at 200 MHz

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple of all periods, or `None` past the cap.
pub fn hyperperiod(ts: &TaskSet) -> Option<Cycles> {
    let mut h: u64 = 1;
    for t in ts.tasks() {
        let p = t.period.get();
        h = h.checked_mul(p / gcd(h, p))?;
        if h > MAX_HYPERPERIOD {
            return None;
        }
    }
    Some(Cycles::new(h))
}

/// Three-way outcome of the synchronous-release simulation, separating
/// "the hyperperiod was too long to simulate" from "a deadline was
/// missed".
///
/// Mirrors the RTM053 never-silently-safe rule from the explorer, in
/// the other direction: an inconclusive empirical check must never be
/// silently folded into *either* side of an accept/reject statistic.
/// Callers that cannot handle [`SyncVerdict::Inconclusive`] explicitly
/// must surface it (a count, a warning, an error) rather than default
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncVerdict {
    /// Every job of the synchronous pattern met its deadline.
    Accepted,
    /// Some job of the synchronous pattern missed its deadline.
    Rejected,
    /// The hyperperiod exceeds the simulation cap; nothing is known.
    Inconclusive,
}

/// [`sync_simulation_accepts`] with the inconclusive case spelled out
/// as a [`SyncVerdict`] instead of an easy-to-misread `Option<bool>`.
pub fn sync_simulation_verdict(
    ts: &TaskSet,
    platform: &PlatformConfig,
    policy: Policy,
    work_conserving: bool,
) -> SyncVerdict {
    match sync_simulation_accepts(ts, platform, policy, work_conserving) {
        Some(true) => SyncVerdict::Accepted,
        Some(false) => SyncVerdict::Rejected,
        None => SyncVerdict::Inconclusive,
    }
}

/// Simulates the synchronous periodic release pattern over one
/// hyperperiod (plus the largest deadline) and reports whether every
/// job met its deadline. `None` when the hyperperiod exceeds the
/// simulation cap.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, PlatformConfig};
/// use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};
/// use rtmdm_sched::analysis::sync_simulation_accepts;
/// use rtmdm_sched::sim::Policy;
///
/// # fn main() -> Result<(), rtmdm_sched::TaskError> {
/// let t = SporadicTask::new(
///     "t", Cycles::new(1_000), Cycles::new(1_000),
///     vec![Segment::new(Cycles::new(400), 0)], StagingMode::Resident,
/// )?;
/// let ts = TaskSet::from_tasks(vec![t]);
/// let verdict = sync_simulation_accepts(
///     &ts, &PlatformConfig::ideal_sram(), Policy::FixedPriority, false,
/// );
/// assert_eq!(verdict, Some(true));
/// # Ok(())
/// # }
/// ```
pub fn sync_simulation_accepts(
    ts: &TaskSet,
    platform: &PlatformConfig,
    policy: Policy,
    work_conserving: bool,
) -> Option<bool> {
    if ts.is_empty() {
        return Some(true);
    }
    let h = hyperperiod(ts)?;
    let d_max = ts
        .tasks()
        .iter()
        .map(|t| t.deadline)
        .max()
        .unwrap_or(Cycles::ZERO);
    let config = SimConfig {
        work_conserving,
        ..SimConfig::new(h.checked_add(d_max)?, policy)
    };
    let run = simulate(ts, platform, &config);
    Some(run.no_misses())
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
    fn hyperperiod_is_lcm() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 100, 1),
            resident("b", 150, 1),
            resident("c", 40, 1),
        ]);
        assert_eq!(hyperperiod(&ts), Some(cy(600)));
    }

    #[test]
    fn coprime_large_periods_exceed_the_cap() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000_003, 1),
            resident("b", 2_000_003, 1),
            resident("c", 3_000_017, 1),
        ]);
        assert_eq!(hyperperiod(&ts), None);
        assert_eq!(
            sync_simulation_accepts(&ts, &bare_platform(), Policy::FixedPriority, false),
            None
        );
    }

    #[test]
    fn accepts_feasible_and_rejects_overloaded() {
        let p = bare_platform();
        let ok = TaskSet::from_tasks(vec![resident("a", 100, 40), resident("b", 200, 60)]);
        assert_eq!(
            sync_simulation_accepts(&ok, &p, Policy::FixedPriority, false),
            Some(true)
        );
        let over = TaskSet::from_tasks(vec![resident("a", 100, 80), resident("b", 100, 80)]);
        assert_eq!(
            sync_simulation_accepts(&over, &p, Policy::FixedPriority, false),
            Some(false)
        );
    }

    #[test]
    fn empirical_acceptance_dominates_the_analysis() {
        // Anything the analysis admits must pass the synchronous
        // simulation (the converse does not hold).
        let p = bare_platform();
        for (c1, c2) in [(20u64, 100u64), (40, 200), (60, 250), (80, 350)] {
            let ts = TaskSet::from_tasks(vec![resident("a", 100, c1), resident("b", 500, c2)]);
            if rta_limited_preemption(&ts, &p).schedulable {
                assert_eq!(
                    sync_simulation_accepts(&ts, &p, Policy::FixedPriority, false),
                    Some(true),
                    "c1={c1} c2={c2}"
                );
            }
        }
    }

    #[test]
    fn empty_set_is_accepted() {
        assert_eq!(
            sync_simulation_accepts(
                &TaskSet::new(),
                &bare_platform(),
                Policy::FixedPriority,
                false
            ),
            Some(true)
        );
    }
}
