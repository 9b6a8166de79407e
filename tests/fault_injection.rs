//! End-to-end guarantees of the fault-injection layer through the
//! framework stack (core → sched → mcusim → obs):
//!
//! - a zero-rate fault plan is provably free: runs and exports are
//!   byte-identical with and without the plan configured;
//! - a fixed nonzero seed/rate is reproducible run-to-run, and the
//!   injected faults are visible in the Chrome trace export;
//! - the deadline-miss policies change the runtime's behaviour under
//!   overload and surface in both metrics and the export.

use rt_mdm::core::{FrameworkOptions, RtMdm, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::{FaultPlan, PlatformConfig};
use rt_mdm::obs::{chrome_trace_json, Timeline};
use rt_mdm::sched::MissPolicy;

fn framework(options: FrameworkOptions) -> RtMdm {
    let mut f = RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
    f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
        .expect("kws");
    f.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
        .expect("ic");
    f
}

#[test]
fn zero_rate_plan_is_byte_identical_through_the_framework() {
    let plain = framework(FrameworkOptions::default());
    let idle = framework(FrameworkOptions {
        fault: FaultPlan {
            seed: 99,
            dma_fault_rate_ppm: 0,
            max_retries: 7,
            jitter_max_cycles: 0,
        },
        ..FrameworkOptions::default()
    });
    let a = plain.simulate(1_000_000).expect("simulate");
    let b = idle.simulate(1_000_000).expect("simulate");
    assert_eq!(a.result.trace.events(), b.result.trace.events());
    assert_eq!(a.result.stats, b.result.stats);
    assert_eq!(a.result.metrics, b.result.metrics);
    assert_eq!(a.to_table(), b.to_table());
    assert_eq!(
        chrome_trace_json(&a.result.trace, &a.names),
        chrome_trace_json(&b.result.trace, &b.names)
    );
    assert_eq!(a.result.metrics.injected_faults, 0);
}

#[test]
fn seeded_faults_are_reproducible_and_exported() {
    let f = framework(FrameworkOptions {
        fault: FaultPlan {
            seed: 42,
            dma_fault_rate_ppm: 300_000,
            max_retries: 3,
            jitter_max_cycles: 25,
        },
        ..FrameworkOptions::default()
    });
    let a = f.simulate(1_000_000).expect("simulate");
    let b = f.simulate(1_000_000).expect("simulate");
    assert_eq!(a.result.trace.events(), b.result.trace.events());
    assert_eq!(a.result.metrics, b.result.metrics);
    assert!(a.result.metrics.injected_faults > 0, "faults must fire");
    assert_eq!(
        a.result.metrics.fetch_retries,
        a.result.metrics.injected_faults
    );
    let json = chrome_trace_json(&a.result.trace, &a.names);
    assert!(
        json.contains("\"cat\":\"fault\""),
        "injected faults must be visible in the Chrome export"
    );
    assert_eq!(
        Timeline::from_trace(&a.result.trace, a.result.horizon)
            .faults()
            .len() as u64,
        a.result.metrics.injected_faults
    );
}

/// An overloaded spec: the autoencoder is fetch-dominated on QSPI and
/// cannot meet a 4 ms period, so every policy has misses to act on.
fn overloaded(policy: MissPolicy) -> RtMdm {
    let mut f = RtMdm::with_options(
        PlatformConfig::stm32f746_qspi(),
        FrameworkOptions {
            miss_policy: policy,
            ..FrameworkOptions::default()
        },
    )
    .expect("platform");
    f.add_task(TaskSpec::new("ae", zoo::autoencoder(), 4_000, 4_000))
        .expect("ae");
    f
}

#[test]
fn abort_policy_reclaims_overload_and_is_exported() {
    let run = overloaded(MissPolicy::Abort)
        .simulate(100_000)
        .expect("simulate");
    assert!(run.deadline_misses() > 0, "workload must overload");
    assert!(run.result.metrics.aborted_jobs > 0);
    let json = chrome_trace_json(&run.result.trace, &run.names);
    assert!(json.contains("\"cat\":\"abort\""));
}

#[test]
fn skip_next_policy_sheds_and_is_exported() {
    let run = overloaded(MissPolicy::SkipNextRelease)
        .simulate(100_000)
        .expect("simulate");
    assert!(run.deadline_misses() > 0, "workload must overload");
    assert!(run.result.metrics.shed_jobs > 0);
    let json = chrome_trace_json(&run.result.trace, &run.names);
    assert!(json.contains("\"cat\":\"shed\""));
}

#[test]
fn continue_policy_matches_the_default_byte_for_byte() {
    let a = overloaded(MissPolicy::Continue)
        .simulate(100_000)
        .expect("simulate");
    let b = RtMdm::new(PlatformConfig::stm32f746_qspi())
        .and_then(|mut f| {
            f.add_task(TaskSpec::new("ae", zoo::autoencoder(), 4_000, 4_000))?;
            f.simulate(100_000)
        })
        .expect("simulate");
    assert_eq!(a.result.trace.events(), b.result.trace.events());
    assert_eq!(a.result.stats, b.result.stats);
    assert_eq!(a.result.metrics, b.result.metrics);
}
