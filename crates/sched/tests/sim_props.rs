//! Property tests on the scheduler simulator: structural invariants that
//! must hold for any task set, policy, and dispatch discipline.

use proptest::prelude::*;

use rtmdm_mcusim::{Cycles, FaultPlan, PlatformConfig};
use rtmdm_obs::Timeline;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::sim::{simulate, Policy, SimConfig};
use rtmdm_sched::StagingMode;

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

fn config(horizon: Cycles, policy: Policy, wc: bool, scale: u64, seed: u64) -> SimConfig {
    SimConfig {
        exec_scale_min_ppm: scale,
        seed,
        work_conserving: wc,
        ..SimConfig::new(horizon, policy)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Accounting invariants: completions ≤ releases, misses ≤ releases,
    /// CPU-busy time ≤ horizon, every completed response positive, and
    /// release counts match the periodic pattern.
    #[test]
    fn accounting_invariants(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..90,
        policy_edf in proptest::bool::ANY,
        wc in proptest::bool::ANY,
        scale in 300_000u64..=1_000_000,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 3;
        let policy = if policy_edf { Policy::Edf } else { Policy::FixedPriority };
        let run = simulate(&ts, &platform(), &config(horizon, policy, wc, scale, seed));
        for (i, (task, stats)) in ts.tasks().iter().zip(&run.stats).enumerate() {
            prop_assert!(stats.completions <= stats.releases, "task {i}");
            prop_assert!(stats.misses <= stats.releases, "task {i}");
            // Releases: jobs whose deadline fits in the horizon.
            let expected = if task.deadline > horizon {
                0
            } else {
                (horizon - task.deadline).get() / task.period.get() + 1
            };
            prop_assert_eq!(stats.releases, expected, "task {} releases", i);
            if stats.completions > 0 {
                prop_assert!(stats.max_response > Cycles::ZERO);
                prop_assert!(stats.total_response >= stats.max_response.get());
            }
        }
        let tl = Timeline::from_trace(&run.trace, horizon);
        prop_assert_eq!(tl.cpu_busy(), run.metrics.cpu_busy_cycles);
        prop_assert!(tl.cpu_busy() <= horizon);
    }

    /// Bit-determinism: the same configuration yields the same trace,
    /// for any policy/discipline/jitter combination.
    #[test]
    fn simulation_is_deterministic(
        seed in 0u64..100_000,
        n_tasks in 1usize..5,
        util_pct in 5u64..70,
        wc in proptest::bool::ANY,
        scale in 300_000u64..=1_000_000,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let cfg = config(horizon, Policy::FixedPriority, wc, scale, seed);
        let a = simulate(&ts, &platform(), &cfg);
        let b = simulate(&ts, &platform(), &cfg);
        prop_assert_eq!(a.trace.events(), b.trace.events());
        prop_assert_eq!(a.stats, b.stats);
    }

    /// A single task in isolation responds within its analytical
    /// pipeline latency — for any structure and staging mode.
    #[test]
    fn isolated_response_within_pipeline_bound(
        seed in 0u64..100_000,
        util_pct in 5u64..80,
        resident in proptest::bool::ANY,
    ) {
        let mut params = TasksetParams::baseline(1, util_pct * 10_000);
        if resident {
            params.mode = StagingMode::Resident;
            params.fetch_compute_ratio_ppm = 0;
        }
        let ts = generate(&params, &platform(), seed);
        let horizon = ts.tasks()[0].period * 6;
        let run = simulate(
            &ts,
            &platform(),
            &config(horizon, Policy::FixedPriority, false, 1_000_000, seed),
        );
        let timing = rtmdm_sched::analysis::TaskTiming::derive(&ts.tasks()[0], &platform());
        prop_assert!(
            run.max_response_of(0) <= timing.pipeline_latency,
            "observed {} > isolated bound {}",
            run.max_response_of(0),
            timing.pipeline_latency
        );
    }

    /// The provable top-task guarantee of the gated dispatcher: the
    /// highest-priority task's response never exceeds one
    /// lower-priority non-preemptive segment plus its own isolated
    /// pipeline latency. (The tempting stronger claim — "gating never
    /// hurts the top task relative to work-conserving dispatch" — is
    /// FALSE: at 4000 cases a counterexample appears where gating
    /// shifts a lower-priority segment into an unluckier alignment
    /// with the top task's release. Per-run blocking can differ; only
    /// the bound is invariant.)
    #[test]
    fn gated_top_task_meets_its_closed_form_bound(
        seed in 0u64..100_000,
        n_tasks in 2usize..5,
        util_pct in 5u64..60,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        let order = rtmdm_sched::assign::rm_order(&ts);
        let ts = ts.reordered(&order);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 3;
        let gated = simulate(
            &ts,
            &platform(),
            &config(horizon, Policy::FixedPriority, false, 1_000_000, seed),
        );
        let timings: Vec<_> = ts
            .tasks()
            .iter()
            .map(|t| rtmdm_sched::analysis::TaskTiming::derive(t, &platform()))
            .collect();
        let blocking = timings[1..]
            .iter()
            .map(|t| t.max_exec_segment)
            .max()
            .unwrap_or(Cycles::ZERO);
        let bound = blocking + timings[0].pipeline_latency;
        prop_assert!(
            gated.max_response_of(0) <= bound,
            "observed {} > bound {}",
            gated.max_response_of(0),
            bound
        );
    }

    /// The fault injector's disabled path is provably free: a zero-rate,
    /// zero-jitter plan (any seed, any retry bound) yields a run
    /// byte-identical to one with no plan at all — trace, per-task
    /// stats, and aggregate metrics alike.
    #[test]
    fn inactive_fault_plan_is_byte_identical_to_no_plan(
        seed in 0u64..100_000,
        n_tasks in 1usize..5,
        util_pct in 5u64..80,
        wc in proptest::bool::ANY,
        scale in 300_000u64..=1_000_000,
        fault_seed in 0u64..u64::MAX,
        retries in 0u32..10,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let plain = config(horizon, Policy::FixedPriority, wc, scale, seed);
        let mut zeroed = plain.clone();
        zeroed.fault = FaultPlan {
            seed: fault_seed,
            dma_fault_rate_ppm: 0,
            max_retries: retries,
            jitter_max_cycles: 0,
        };
        let a = simulate(&ts, &platform(), &plain);
        let b = simulate(&ts, &platform(), &zeroed);
        prop_assert_eq!(a.trace.events(), b.trace.events());
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Under any fault environment: runs stay deterministic, the
    /// horizon partition (busy + idle == horizon) holds, retry counts
    /// agree between the trace, per-task stats, and aggregate metrics,
    /// and the staging discipline still delivers completed jobs.
    #[test]
    fn fault_environment_preserves_core_invariants(
        seed in 0u64..100_000,
        n_tasks in 1usize..5,
        util_pct in 5u64..60,
        rate_ppm in 1u64..=1_000_000,
        jitter in 0u64..200,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let mut cfg = config(horizon, Policy::FixedPriority, false, 1_000_000, seed);
        cfg.fault = FaultPlan {
            seed,
            dma_fault_rate_ppm: rate_ppm,
            max_retries: 3,
            jitter_max_cycles: jitter,
        };
        let a = simulate(&ts, &platform(), &cfg);
        let b = simulate(&ts, &platform(), &cfg);
        prop_assert_eq!(a.trace.events(), b.trace.events());
        prop_assert_eq!(&a.stats, &b.stats);
        let m = a.metrics;
        prop_assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, horizon);
        prop_assert_eq!(m.fetch_retries, m.injected_faults);
        prop_assert_eq!(
            Timeline::from_trace(&a.trace, horizon).faults().len() as u64,
            m.injected_faults
        );
        let stat_retries: u64 = a.stats.iter().map(|s| s.retries).sum();
        prop_assert_eq!(stat_retries, m.fetch_retries);
        // Faults delay but never wedge: released work still completes
        // (the last release may legitimately still be in flight).
        for (i, s) in a.stats.iter().enumerate() {
            prop_assert!(
                s.completions + 1 >= s.releases.min(1),
                "task {i} starved: {} completions of {} releases",
                s.completions,
                s.releases
            );
        }
    }

    /// Conservation of wall time: CPU busy and idle
    /// partition the horizon exactly, and the stall share of each
    /// resource's busy time never exceeds it — the property that pins
    /// the settlement accounting (stall = wall − work, never
    /// saturated away) for completions landing anywhere in an interval.
    #[test]
    fn settlement_conserves_wall_time(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..90,
        scale in 300_000u64..=1_000_000,
        fault_rate_sel in 0u64..=1_000_000,
    ) {
        let fault_rate_ppm = if fault_rate_sel < 200_000 { 0 } else { fault_rate_sel };
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 3;
        let mut cfg = config(horizon, Policy::FixedPriority, false, scale, seed);
        cfg.fault = FaultPlan {
            seed,
            dma_fault_rate_ppm: fault_rate_ppm,
            max_retries: 3,
            jitter_max_cycles: 50,
        };
        let m = simulate(&ts, &platform(), &cfg).metrics;
        prop_assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, horizon);
        prop_assert!(m.cpu_stall_cycles <= m.cpu_busy_cycles);
        prop_assert!(m.dma_stall_cycles <= m.dma_busy_cycles);
        prop_assert!(m.dma_busy_cycles <= horizon);
    }
}
