//! The central correctness property of the whole reproduction:
//!
//! > If the RT-MDM schedulability analysis admits a task set, the
//! > simulator never observes a deadline miss — and every analytical
//! > response-time bound dominates every observed response time —
//! > under worst-case and under jittered execution, under the gated and
//! > the work-conserving dispatcher alike.
//!
//! Exercised over thousands of randomly generated task sets via
//! proptest, plus directed edge cases.

use proptest::prelude::*;

use rt_mdm::check::{explore, ExploreLimits, ExploreOrder, Rule};
use rt_mdm::mcusim::{Cycles, PlatformConfig};
use rt_mdm::sched::analysis::{rta_limited_preemption_with, SchedulerMode};
use rt_mdm::sched::assign::dm_order;
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::sim::{simulate, Policy, SimConfig};
use rt_mdm::sched::{StagingMode, TaskSet};

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

/// Simulation horizon: enough releases of every task to expose worst
/// alignments (4 × the longest period, but at least 8 of the shortest).
fn horizon(ts: &TaskSet) -> Cycles {
    let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
    let min_t = ts.tasks().iter().map(|t| t.period).min().unwrap();
    (max_t * 4).max(min_t * 8)
}

fn check_soundness(
    ts: &TaskSet,
    mode: SchedulerMode,
    exec_scale_min_ppm: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let p = platform();
    let ordered = ts.reordered(&dm_order(ts));
    let outcome = rta_limited_preemption_with(&ordered, &p, mode);
    if !outcome.schedulable {
        return Ok(()); // nothing claimed, nothing to check
    }
    let config = SimConfig {
        exec_scale_min_ppm,
        seed,
        work_conserving: mode == SchedulerMode::WorkConserving,
        ..SimConfig::new(horizon(&ordered), Policy::FixedPriority)
    };
    let run = simulate(&ordered, &p, &config);
    prop_assert_eq!(
        run.total_misses(),
        0,
        "admitted set missed a deadline (mode {:?})",
        mode
    );
    for i in 0..ordered.len() {
        let bound = outcome.response_of(i).expect("admitted implies converged");
        let observed = run.max_response_of(i);
        prop_assert!(
            bound >= observed,
            "task {} bound {} < observed {} (mode {:?})",
            i,
            bound,
            observed,
            mode
        );
    }
    Ok(())
}

proptest! {
    // Default 160 cases per property; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(160),
        .. ProptestConfig::default()
    })]

    /// Gated dispatcher, WCET execution.
    #[test]
    fn gated_admission_is_sound_at_wcet(
        seed in 0u64..100_000,
        n_tasks in 2usize..7,
        util_pct in 10u64..75,
        fetch_ratio_pct in 5u64..120,
        constrained in proptest::bool::ANY,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        if constrained {
            params.deadline_factor_range_ppm = (600_000, 1_000_000);
        }
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::Gated, 1_000_000, seed)?;
    }

    /// Gated dispatcher, jittered execution times (early completions
    /// must not break the guarantee).
    #[test]
    fn gated_admission_is_sound_under_jitter(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 10u64..70,
        scale_min in 300_000u64..1_000_000,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::Gated, scale_min, seed)?;
    }

    /// Work-conserving dispatcher with its matching analysis.
    #[test]
    fn work_conserving_admission_is_sound(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 10u64..70,
        fetch_ratio_pct in 5u64..100,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::WorkConserving, 1_000_000, seed)?;
    }

    /// Resident-only sets reduce to classic limited-preemption FP: the
    /// same property must hold there too.
    #[test]
    fn resident_admission_is_sound(
        seed in 0u64..100_000,
        n_tasks in 2usize..8,
        util_pct in 10u64..85,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.mode = StagingMode::Resident;
        params.fetch_compute_ratio_ppm = 0;
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::Gated, 1_000_000, seed)?;
    }
}

/// The four platform presets, by index.
fn preset(i: usize) -> PlatformConfig {
    match i {
        0 => PlatformConfig::cortex_m4_lowend(),
        1 => PlatformConfig::stm32f746_qspi(),
        2 => PlatformConfig::stm32h743_ospi(),
        _ => PlatformConfig::ideal_sram(),
    }
}

/// The explorer's soundness differential: when the gated analysis
/// admits a set *in the priority order the explorer runs*, no explored
/// interleaving may reach a violation. An admitted set may still end
/// inconclusive (`RTM053`) at the state budget, never with a witness.
fn check_explore_soundness(
    ts: &TaskSet,
    p: &PlatformConfig,
    horizon_periods: u64,
    exec_scale_min_ppm: u64,
    order: ExploreOrder,
) -> Result<(), TestCaseError> {
    if !rta_limited_preemption_with(ts, p, SchedulerMode::Gated).schedulable {
        return Ok(());
    }
    let longest = ts.tasks().iter().map(|t| t.period).max().unwrap();
    let config = SimConfig {
        exec_scale_min_ppm,
        attribution: true,
        ..SimConfig::new(longest * horizon_periods, Policy::FixedPriority)
    };
    let limits = ExploreLimits {
        max_states: 2_000,
        order,
        ..ExploreLimits::default()
    };
    let out = explore(ts, p, &config, &limits);
    prop_assert!(
        out.witness.is_none(),
        "admitted set reached {:?}",
        out.findings.first().map(|f| &f.message)
    );
    prop_assert!(out.findings.iter().all(|f| f.rule == Rule::Rtm053));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(160),
        .. ProptestConfig::default()
    })]

    /// Generated sets on the four presets, explored in their generated
    /// priority order or in deadline-monotonic order, with the analysis
    /// run on that same order.
    #[test]
    fn rta_admitted_sets_have_no_explorer_witness(
        seed in 0u64..100_000,
        platform in 0usize..4,
        n_tasks in 1usize..9,
        util_pct in 5u64..50,
        horizon_periods in 2u64..7,
        exec_pct in 30u64..101,
        dm in proptest::bool::ANY,
        deep_first in proptest::bool::ANY,
    ) {
        let p = preset(platform);
        let mut params =
            TasksetParams::baseline(n_tasks, util_pct * 10_000).with_grid_periods();
        params.segments_range = (2, 4);
        let generated = generate(&params, &p, seed);
        let ts = if dm {
            generated.reordered(&dm_order(&generated))
        } else {
            generated
        };
        let order = if deep_first {
            ExploreOrder::DeepFirst
        } else {
            ExploreOrder::ShallowFirst
        };
        check_explore_soundness(&ts, &p, horizon_periods, exec_pct * 10_000, order)?;
    }
}

/// Directed stress: many seeds across the utilization range where the
/// analysis admits, both modes. Asserts non-vacuity.
#[test]
fn directed_soundness_sweep() {
    let p = platform();
    let mut admitted = 0u32;
    for seed in 0..900u64 {
        let util_ppm = 100_000 + (seed % 6) * 80_000; // 10%..50%
        let params = TasksetParams::baseline(4, util_ppm);
        let ts = generate(&params, &p, seed);
        for mode in [SchedulerMode::Gated, SchedulerMode::WorkConserving] {
            let ordered = ts.reordered(&dm_order(&ts));
            let outcome = rta_limited_preemption_with(&ordered, &p, mode);
            if !outcome.schedulable {
                continue;
            }
            admitted += 1;
            let config = SimConfig {
                seed,
                work_conserving: mode == SchedulerMode::WorkConserving,
                ..SimConfig::new(horizon(&ordered), Policy::FixedPriority)
            };
            let run = simulate(&ordered, &p, &config);
            assert_eq!(run.total_misses(), 0, "seed {seed} mode {mode:?}");
        }
    }
    // The sweep must actually exercise admitted sets to mean anything.
    assert!(
        admitted > 300,
        "only {admitted} admitted sets — sweep too weak"
    );
}
