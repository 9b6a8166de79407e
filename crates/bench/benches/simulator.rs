//! Throughput of the discrete-event scheduler simulator — the substrate
//! every miss-ratio experiment runs on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rtmdm_mcusim::{Cycles, FaultPlan, PlatformConfig};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::sim::{simulate, Engine, Policy, SimConfig};

fn bench_simulator(c: &mut Criterion) {
    let p = PlatformConfig::stm32f746_qspi();
    let ts = generate(&TasksetParams::baseline(4, 300_000), &p, 3);
    let horizon = Cycles::new(200_000_000); // 1 simulated second
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(horizon.get()));
    g.bench_function("gated_4tasks_1s", |b| {
        b.iter(|| simulate(&ts, &p, &SimConfig::new(horizon, Policy::FixedPriority)))
    });
    g.bench_function("work_conserving_4tasks_1s", |b| {
        b.iter(|| {
            simulate(
                &ts,
                &p,
                &SimConfig::new(horizon, Policy::FixedPriority).work_conserving(),
            )
        })
    });
    g.bench_function("edf_4tasks_1s", |b| {
        b.iter(|| simulate(&ts, &p, &SimConfig::new(horizon, Policy::Edf)))
    });
    g.finish();
}

fn bench_jittered(c: &mut Criterion) {
    let p = PlatformConfig::stm32f746_qspi();
    let ts = generate(&TasksetParams::baseline(4, 300_000), &p, 3);
    let config = SimConfig {
        horizon: Cycles::new(200_000_000),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 500_000,
        seed: 11,
        work_conserving: false,
        fault: FaultPlan::NONE,
        engine: Engine::Des,
        attribution: false,
        staging_window: 2,
    };
    c.bench_function("simulator/jittered_4tasks_1s", |b| {
        b.iter(|| simulate(&ts, &p, &config))
    });
}

criterion_group!(benches, bench_simulator, bench_jittered);
criterion_main!(benches);
