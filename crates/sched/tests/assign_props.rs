//! Property tests on priority assignment: Audsley's search and the
//! response-time analysis it searches under agree, in both dispatch
//! modes, on the F7-shaped generated sets (constrained deadlines,
//! overlapped staging).

use proptest::prelude::*;

use rtmdm_mcusim::PlatformConfig;
use rtmdm_sched::analysis::{rta_limited_preemption_with, SchedulerMode};
use rtmdm_sched::assign::{audsley, dm_order};
use rtmdm_sched::gen::{generate, TasksetParams};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Every order Audsley returns passes the analysis under the same
    /// mode, and under gated dispatch Audsley finds an order whenever
    /// deadline-monotonic passes.
    #[test]
    fn audsley_orders_pass_the_analysis_they_were_searched_under(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 15u64..70,
        work_conserving in proptest::bool::ANY,
    ) {
        let platform = PlatformConfig::stm32f746_qspi();
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.segments_range = (3, 6);
        params.fetch_compute_ratio_ppm = 200_000;
        params.deadline_factor_range_ppm = (500_000, 1_000_000);
        let ts = generate(&params, &platform, seed);
        let mode = if work_conserving {
            SchedulerMode::WorkConserving
        } else {
            SchedulerMode::Gated
        };
        let opa = audsley(&ts, &platform, mode);
        if let Some(order) = &opa {
            let out = rta_limited_preemption_with(&ts.reordered(order), &platform, mode);
            prop_assert!(out.schedulable, "order {:?}: {:?}", order, out);
        }
        // Audsley is optimal only where moving a task up never hurts
        // it. Gated blocking grows by at most one segment of the task it
        // passes, which that task's lost interference covers; under
        // work-conserving dispatch the blocking grows once per resume
        // point, so there the search is a heuristic.
        let dm = rta_limited_preemption_with(&ts.reordered(&dm_order(&ts)), &platform, mode);
        if dm.schedulable && mode == SchedulerMode::Gated {
            prop_assert!(opa.is_some(), "DM passes but Audsley finds no order");
        }
    }
}
