//! Cross-validation of the measured blame decomposition (`rtmdm
//! explain`) against the response-time analysis.
//!
//! Three layers:
//!
//! 1. **Conservation, zero tolerance** — for any task set, dispatch
//!    discipline, execution jitter, fault environment, and deadline-miss
//!    policy, [`attribute`](rt_mdm::obs::attribute) succeeds and every
//!    completed job's six terms sum *exactly* to its response time, and
//!    are already final in the trace prefix through its completion.
//!
//! 2. **Measured implies bounded** — for admitted (check-clean) sets at
//!    WCET, every job's measured interference terms sit inside the RTA's
//!    per-cause budgets from
//!    [`interference_bounds`](rt_mdm::sched::analysis::interference_bounds):
//!    CPU time stolen by other jobs plus gated dispatch wait never
//!    exceeds `B_i + I_i`, and the job's own compute plus bus-contention
//!    stall never exceeds its inflated `Σ e_k`.
//!
//! 3. **Cause implies blame** — directed scenarios where the
//!    interference provably exists (a higher-priority task firing inside
//!    a lower-priority job's window; injected DMA faults on a blocking
//!    lead-in fetch) must surface as the matching nonzero blame term.

use proptest::prelude::*;

use rt_mdm::mcusim::{Cycles, FaultPlan, PlatformConfig, TaskId, TraceKind};
use rt_mdm::obs::{attribute, BlameSource};
use rt_mdm::sched::analysis::{
    interference_bounds, rta_limited_preemption_with, SchedulerMode, TaskTiming,
};
use rt_mdm::sched::assign::dm_order;
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::sim::{simulate, Engine, Policy, SimConfig};
use rt_mdm::sched::{MissPolicy, Segment, SporadicTask, StagingMode, TaskSet};

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

fn horizon(ts: &TaskSet) -> Cycles {
    let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
    let min_t = ts.tasks().iter().map(|t| t.period).min().unwrap();
    (max_t * 4).max(min_t * 8)
}

fn with_miss_policy(ts: &TaskSet, policy: MissPolicy) -> TaskSet {
    TaskSet::from_tasks(
        ts.tasks()
            .iter()
            .map(|t| t.clone().with_miss_policy(policy))
            .collect(),
    )
}

/// A generated set under a drawn discipline, execution-scale floor,
/// fault rate (zero below a fifth of the range) and miss policy, with
/// attribution on: the layer-1 scenario space.
fn faulted_case(
    seed: u64,
    n_tasks: usize,
    util_pct: u64,
    wc: bool,
    scale: u64,
    fault_rate_sel: u64,
    miss_sel: u8,
) -> (TaskSet, SimConfig) {
    let fault_rate_ppm = if fault_rate_sel < 200_000 {
        0
    } else {
        fault_rate_sel
    };
    let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
    let miss_policy = [
        MissPolicy::Continue,
        MissPolicy::Abort,
        MissPolicy::SkipNextRelease,
    ][miss_sel as usize];
    let ts = with_miss_policy(&generate(&params, &platform(), seed), miss_policy);
    let config = SimConfig {
        horizon: ts.tasks().iter().map(|t| t.period).max().unwrap() * 3,
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: scale,
        seed,
        work_conserving: wc,
        fault: FaultPlan {
            seed,
            dma_fault_rate_ppm: fault_rate_ppm,
            max_retries: 3,
            jitter_max_cycles: 50,
        },
        engine: Engine::Des,
        attribution: true,
        staging_window: 2,
    };
    (ts, config)
}

/// Layer 2: for an admitted set at WCET, each job's measured terms obey
/// the analysis' per-cause budgets.
fn check_measured_within_bounds(
    ts: &TaskSet,
    mode: SchedulerMode,
    seed: u64,
) -> Result<(), TestCaseError> {
    let p = platform();
    let ordered = ts.reordered(&dm_order(ts));
    let outcome = rta_limited_preemption_with(&ordered, &p, mode);
    if !outcome.schedulable {
        return Ok(()); // the bounds only claim anything for admitted sets
    }
    let bounds = interference_bounds(&ordered, &p, mode);
    let exec_totals: Vec<Cycles> = ordered
        .tasks()
        .iter()
        .map(|t| {
            TaskTiming::derive(t, &p)
                .exec
                .iter()
                .copied()
                .sum::<Cycles>()
        })
        .collect();
    let config = SimConfig {
        horizon: horizon(&ordered),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 1_000_000,
        seed,
        work_conserving: mode == SchedulerMode::WorkConserving,
        fault: FaultPlan::NONE,
        engine: Engine::Des,
        attribution: true,
        staging_window: 2,
    };
    let run = simulate(&ordered, &p, &config);
    let report = attribute(&run.trace).expect("conservation holds");
    for job in &report.jobs {
        let i = job.task.0;
        let b = bounds[i].expect("admitted implies converged");
        prop_assert!(
            job.response <= b.response,
            "task {} job {}: response {} > bound {} (mode {:?})",
            i,
            job.job,
            job.response,
            b.response,
            mode
        );
        // Time other jobs denied this one the CPU — preemption slices
        // plus gated dispatch wait — is budgeted by blocking +
        // higher-priority interference.
        let denied = job.preemption_total() + job.dispatch_wait;
        prop_assert!(
            denied <= b.blocking + b.interference,
            "task {} job {}: preemption {} + dispatch {} > B {} + I {} (mode {:?})",
            i,
            job.job,
            job.preemption_total(),
            job.dispatch_wait,
            b.blocking,
            b.interference,
            mode
        );
        // The job's own CPU share — compute plus contention stall —
        // is budgeted by its fully-inflated execution total.
        prop_assert!(
            job.compute + job.bus_contention <= exec_totals[i],
            "task {} job {}: compute {} + contention {} > Σe {} (mode {:?})",
            i,
            job.job,
            job.compute,
            job.bus_contention,
            exec_totals[i],
            mode
        );
        // No faults were injected, so no re-fetch blame may appear.
        prop_assert_eq!(job.fault_refetch, Cycles::ZERO);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24),
        ..ProptestConfig::default()
    })]

    /// Layer 1: the six-term decomposition conserves response time
    /// exactly — both disciplines, jittered execution,
    /// fault injection, every miss policy, overload included.
    #[test]
    fn decomposition_conserves_response_exactly(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..95,
        wc in proptest::bool::ANY,
        scale in 300_000u64..=1_000_000,
        fault_rate_sel in 0u64..=1_000_000,
        miss_sel in 0u8..3,
    ) {
        let (ts, config) =
            faulted_case(seed, n_tasks, util_pct, wc, scale, fault_rate_sel, miss_sel);
        let run = simulate(&ts, &platform(), &config);
        let report = match attribute(&run.trace) {
            Ok(r) => r,
            Err(e) => {
                return Err(TestCaseError::Fail(format!(
                    "conservation violated: {e}"
                )))
            }
        };
        // One decomposition per completed job, nothing dropped.
        let completions: u64 = run.stats.iter().map(|s| s.completions).sum();
        prop_assert_eq!(report.jobs.len() as u64, completions);
        for job in &report.jobs {
            prop_assert_eq!(job.total(), job.response, "task {} job {}", job.task, job.job);
        }
        // Aggregates are sums of the per-job terms.
        let misses: u64 = report.tasks.values().map(|t| t.misses).sum();
        prop_assert_eq!(misses, report.jobs.iter().filter(|j| j.missed).count() as u64);
    }

    /// Layer 1, read early: a completed job's decomposition needs
    /// nothing after its completion instant. Attributing the trace
    /// prefix through that instant (every event at or before it) gives
    /// the job the same blame as the whole trace — the explorer's
    /// witness attributes its victim this way.
    #[test]
    fn prefix_through_completion_gives_the_same_blame(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..95,
        wc in proptest::bool::ANY,
        scale in 300_000u64..=1_000_000,
        fault_rate_sel in 0u64..=1_000_000,
        miss_sel in 0u8..3,
    ) {
        let (ts, config) =
            faulted_case(seed, n_tasks, util_pct, wc, scale, fault_rate_sel, miss_sel);
        let run = simulate(&ts, &platform(), &config);
        let whole = attribute(&run.trace).expect("conservation holds");
        let events = run.trace.events();
        for job in &whole.jobs {
            let done = events
                .iter()
                .find(|e| {
                    matches!(e.kind, TraceKind::JobCompleted { task, job: id, .. }
                        if task == job.task && id == job.job)
                })
                .expect("a decomposed job completed")
                .time;
            let prefix = run.trace.truncated(events.partition_point(|e| e.time <= done));
            let early = attribute(&prefix).expect("conservation holds on a prefix");
            let got = early.jobs.iter().find(|j| j.task == job.task && j.job == job.job);
            prop_assert_eq!(got, Some(job), "task {} job {}", job.task, job.job);
        }
    }

    /// Layer 2 under the gated dispatcher.
    #[test]
    fn gated_blame_terms_stay_within_rta_budgets(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 10u64..70,
        fetch_ratio_pct in 5u64..120,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        let ts = generate(&params, &platform(), seed);
        check_measured_within_bounds(&ts, SchedulerMode::Gated, seed)?;
    }

    /// Layer 2 under the work-conserving dispatcher.
    #[test]
    fn work_conserving_blame_terms_stay_within_rta_budgets(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 10u64..70,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        check_measured_within_bounds(&ts, SchedulerMode::WorkConserving, seed)?;
    }
}

/// Layer 3a: a high-priority task firing inside a lower-priority job's
/// window must show up in that job's `preemption_by` ledger — and as
/// its dominant interference source.
#[test]
fn preemption_blame_names_the_preempting_task() {
    let hp = SporadicTask::new(
        "hp",
        cy(100_000),
        cy(100_000),
        vec![Segment::new(cy(10_000), 0)],
        StagingMode::Resident,
    )
    .expect("valid");
    let lp = SporadicTask::new(
        "lp",
        cy(1_000_000),
        cy(1_000_000),
        vec![Segment::new(cy(300_000), 0), Segment::new(cy(300_000), 0)],
        StagingMode::Resident,
    )
    .expect("valid");
    let ts = TaskSet::from_tasks(vec![hp, lp]);
    let config = SimConfig {
        horizon: cy(1_000_000),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 1_000_000,
        seed: 0,
        work_conserving: false,
        fault: FaultPlan::NONE,
        engine: Engine::Des,
        attribution: true,
        staging_window: 2,
    };
    let run = simulate(&ts, &platform(), &config);
    let report = attribute(&run.trace).expect("conservation holds");

    let lp_job = report
        .jobs
        .iter()
        .find(|j| j.task == TaskId(1))
        .expect("lp completes a job");
    let stolen = lp_job
        .preemption_by
        .get(&TaskId(0))
        .copied()
        .unwrap_or(Cycles::ZERO);
    assert!(
        stolen > Cycles::ZERO,
        "hp releases inside lp's window must register as preemption: {lp_job:?}"
    );
    let (source, _) = lp_job.dominant_interference().expect("interference exists");
    assert_eq!(source, BlameSource::Preemption, "{lp_job:?}");

    // The converse causal direction: a later hp job released while an
    // lp segment is in flight is blocked by it (non-preemptive
    // segments), which the decomposition also files under preemption —
    // this time charged to lp.
    let blocked_hp = report.jobs.iter().filter(|j| j.task == TaskId(0)).any(|j| {
        j.preemption_by
            .get(&TaskId(1))
            .copied()
            .unwrap_or(Cycles::ZERO)
            > Cycles::ZERO
    });
    assert!(
        blocked_hp,
        "some hp job must be blocked by an in-flight lp segment"
    );
}

/// Layer 3b: injected DMA faults on a blocking lead-in fetch must show
/// up as nonzero `fault_refetch` blame.
#[test]
fn fault_refetch_blame_fires_under_injected_faults() {
    let t = SporadicTask::new(
        "f",
        cy(1_000_000),
        cy(1_000_000),
        vec![
            Segment::new(cy(50_000), 32_768),
            Segment::new(cy(50_000), 32_768),
        ],
        StagingMode::Overlapped,
    )
    .expect("valid");
    let ts = TaskSet::from_tasks(vec![t]);
    let config = SimConfig {
        horizon: cy(8_000_000),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 1_000_000,
        seed: 7,
        work_conserving: false,
        fault: FaultPlan {
            seed: 7,
            dma_fault_rate_ppm: 900_000,
            max_retries: 5,
            jitter_max_cycles: 0,
        },
        engine: Engine::Des,
        attribution: true,
        staging_window: 2,
    };
    let run = simulate(&ts, &platform(), &config);
    assert!(
        run.metrics.injected_faults > 0,
        "fixture must actually fault"
    );
    let report = attribute(&run.trace).expect("conservation holds");
    let refetch: Cycles = report.jobs.iter().map(|j| j.fault_refetch).sum();
    assert!(
        refetch > Cycles::ZERO,
        "faulted lead-in fetches must be blamed as fault-refetch: {report:?}"
    );
    // Without faults the same scenario has zero re-fetch blame.
    let mut clean_cfg = config;
    clean_cfg.fault = FaultPlan::NONE;
    let clean = attribute(&simulate(&ts, &platform(), &clean_cfg).trace).expect("conservation");
    assert!(clean.jobs.iter().all(|j| j.fault_refetch == Cycles::ZERO));
}
