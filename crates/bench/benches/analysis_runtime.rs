//! T4 — runtime of the schedulability analyses vs task-set size.
//! Admission runs in design-time tooling; all tests must stay
//! interactive (sub-second) at realistic sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rtmdm_mcusim::PlatformConfig;
use rtmdm_sched::analysis::{
    edf_demand_test, rta_limited_preemption, rta_limited_preemption_with, SchedulerMode,
};
use rtmdm_sched::assign::audsley;
use rtmdm_sched::gen::{generate, TasksetParams};

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

fn bench_rta(c: &mut Criterion) {
    let p = platform();
    let mut g = c.benchmark_group("rta_limited_preemption");
    for n in [4usize, 8, 16, 32, 64] {
        let ts = generate(&TasksetParams::baseline(n, 300_000), &p, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &ts, |b, ts| {
            b.iter(|| rta_limited_preemption(ts, &p))
        });
    }
    g.finish();
}

fn bench_rta_work_conserving(c: &mut Criterion) {
    let p = platform();
    let ts = generate(&TasksetParams::baseline(16, 300_000), &p, 7);
    c.bench_function("rta_work_conserving_16", |b| {
        b.iter(|| rta_limited_preemption_with(&ts, &p, SchedulerMode::WorkConserving))
    });
}

fn bench_edf(c: &mut Criterion) {
    let p = platform();
    let mut g = c.benchmark_group("edf_demand_test");
    for n in [4usize, 8, 16, 32] {
        let ts = generate(&TasksetParams::baseline(n, 300_000), &p, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &ts, |b, ts| {
            b.iter(|| edf_demand_test(ts, &p))
        });
    }
    g.finish();
}

fn bench_audsley(c: &mut Criterion) {
    let p = platform();
    let ts = generate(&TasksetParams::baseline(8, 250_000), &p, 7);
    c.bench_function("audsley_opa_8", |b| {
        b.iter(|| audsley(&ts, &p, SchedulerMode::Gated))
    });
}

criterion_group!(
    benches,
    bench_rta,
    bench_rta_work_conserving,
    bench_edf,
    bench_audsley
);
criterion_main!(benches);
