//! `simulate`: seeded 3 s (MCU time) runs of multi-DNN plus control
//! task sets through [`simulate`], with DMA faults injected and
//! attribution on, each followed by blame attribution and the Chrome
//! export — the `rtmdm explain`/`trace` path. The only workload where
//! whole simulator runs, the fault/retry path and the `obs` layer do
//! most of the work.

use rtmdm_core::{FrameworkOptions, TaskSpec};
use rtmdm_dnn::zoo;
use rtmdm_mcusim::{FaultPlan, PlatformConfig};
use rtmdm_obs::{attribute, chrome_trace_with_blame, reconstruct};
use rtmdm_sched::sim::{simulate, Engine, Policy, SimConfig, SimResult};
use rtmdm_sched::TaskSet;

use crate::common::{timed, Ledger, Rng, Round};
use crate::serve::lower_set;
use crate::Workload;

/// Task sets in one round.
pub const SETS: usize = 36;
/// Simulated MCU time per run, in microseconds.
pub const HORIZON_US: u64 = 3_000_000;

/// DNN models a set may run beside its control task, with their base
/// period (µs).
const DNNS: &[(&str, u64)] = &[
    ("ds-cnn", 100_000),
    ("lenet5", 100_000),
    ("resnet8", 400_000),
    ("mobilenet-v1-025", 500_000),
];

/// Base period of the `micro-mlp` control task (µs).
const CONTROL_PERIOD_US: u64 = 10_000;

/// A base period moved by up to ±5 % (whole milliseconds, at least one
/// millisecond away from the base).
fn jittered(rng: &mut Rng, base_us: u64) -> u64 {
    rng.range(base_us * 95 / 100_000, base_us * 105 / 100_000) * 1000
}

pub struct Set {
    pub platform: PlatformConfig,
    pub ts: TaskSet,
    pub names: Vec<String>,
    pub config: SimConfig,
}

/// The sets of one round. Set `i` runs on the STM32F746 or H743
/// (alternating) with a `micro-mlp` control task plus 1–3 DNN tasks
/// cycling through the zoo, all fixed by `i`; the seed draws every
/// period (±5 % around its base), the execution-time and fault seeds
/// and each set's fault rate (3–3.5 % of transfers).
pub fn sets(seed: u64) -> Vec<Set> {
    let mut rng = Rng::stream(seed, 4);
    let platforms = [
        PlatformConfig::stm32f746_qspi(),
        PlatformConfig::stm32h743_ospi(),
    ];
    let mut slot = 0;
    (0..SETS)
        .map(|i| {
            let platform = platforms[i % platforms.len()].clone();
            let period = jittered(&mut rng, CONTROL_PERIOD_US);
            let mut specs = vec![TaskSpec::new("control", zoo::micro_mlp(), period, period)];
            for k in 0..1 + i % 3 {
                let (model, base) = DNNS[slot % DNNS.len()];
                slot += 1;
                let period = jittered(&mut rng, base);
                let m = zoo::by_name(model).expect("zoo model");
                specs.push(TaskSpec::new(format!("dnn{k}"), m, period, period));
            }
            let ts = lower_set(&platform, &FrameworkOptions::default(), &specs)
                .expect("generated sets lower");
            let config = SimConfig {
                horizon: platform.cpu.cycles_from_micros(HORIZON_US),
                policy: Policy::FixedPriority,
                exec_scale_min_ppm: 700_000,
                seed: rng.next_u64(),
                work_conserving: false,
                fault: FaultPlan {
                    seed: rng.next_u64(),
                    dma_fault_rate_ppm: rng.range(30_000, 35_000),
                    max_retries: 3,
                    jitter_max_cycles: rng.range(0, 400),
                },
                engine: Engine::Des,
                attribution: true,
                staging_window: 2,
            };
            Set {
                names: ts.tasks().iter().map(|t| t.name.clone()).collect(),
                platform,
                ts,
                config,
            }
        })
        .collect()
}

/// What one run must repeat exactly in every round.
fn record(result: &SimResult, export_len: usize) -> String {
    format!(
        "{} {:?} {:?} {export_len}",
        result.trace.len(),
        result.metrics,
        result
            .stats
            .iter()
            .map(|s| s.completions)
            .collect::<Vec<_>>()
    )
}

/// Blame conservation and the CPU time partition of one run.
fn check_run(set: &Set, result: &SimResult, blame_ok: bool) -> Result<(), String> {
    if !blame_ok {
        return Err("blame attribution failed conservation".to_owned());
    }
    let m = &result.metrics;
    if m.cpu_busy_cycles + m.cpu_idle_cycles != set.config.horizon {
        return Err(format!(
            "CPU busy {} + idle {} != horizon {}",
            m.cpu_busy_cycles, m.cpu_idle_cycles, set.config.horizon
        ));
    }
    Ok(())
}

pub struct Simulate {
    sets: Vec<Set>,
    first: Vec<Option<String>>,
    faults: u64,
    retries: u64,
    events: u64,
    cycles: u64,
}

impl Simulate {
    pub fn new(seed: u64) -> Simulate {
        let sets = sets(seed);
        Simulate {
            first: vec![None; sets.len()],
            sets,
            faults: 0,
            retries: 0,
            events: 0,
            cycles: 0,
        }
    }

    fn check(
        &mut self,
        i: usize,
        result: &SimResult,
        blame_ok: bool,
        export_len: usize,
        r: &mut Round,
    ) {
        r.attempted += 1;
        let ok = check_run(&self.sets[i], result, blame_ok);
        r.check(ok.is_ok(), || format!("set {i}: {ok:?}"));
        let rec = record(result, export_len);
        match &self.first[i] {
            Some(first) => r.check(first == &rec, || format!("set {i} did not repeat")),
            None => self.first[i] = Some(rec),
        }
    }
}

impl Workload for Simulate {
    fn round(&mut self, r: &mut Round) {
        for i in 0..self.sets.len() {
            let s = &self.sets[i];
            let ((result, blame_ok, export_len), ns) = timed(|| {
                let result = simulate(&s.ts, &s.platform, &s.config);
                let blame_ok = attribute(&result.trace).is_ok();
                let export =
                    serde_json::to_string(&chrome_trace_with_blame(&result.trace, &s.names))
                        .expect("chrome trace serializes");
                (result, blame_ok, export.len())
            });
            r.op(i as u64, ns);
            self.check(i, &result, blame_ok, export_len, r);
        }
    }

    fn traced_round(&mut self, ledger: &mut Ledger, r: &mut Round) {
        for i in 0..self.sets.len() {
            let s = &self.sets[i];
            let (result, run_ns) = timed(|| simulate(&s.ts, &s.platform, &s.config));
            ledger.add("sim.run", 1, run_ns);
            ledger.time("obs.spans", || reconstruct(&result.trace));
            let (blame, blame_ns) = timed(|| attribute(&result.trace));
            ledger.add("obs.blame", 1, blame_ns);
            let (export_len, export_ns) = timed(|| {
                serde_json::to_string(&chrome_trace_with_blame(&result.trace, &s.names))
                    .expect("chrome trace serializes")
                    .len()
            });
            ledger.add("obs.export", 1, export_ns);
            let ns = run_ns + blame_ns + export_ns;
            r.op(i as u64, ns);
            self.events += result.trace.len() as u64;
            self.faults += result.metrics.injected_faults;
            self.retries += result.metrics.fetch_retries;
            self.cycles += s.config.horizon.get();
            let blame_ok = blame.is_ok();
            ledger.time("bench.check", || {
                self.check(i, &result, blame_ok, export_len, r)
            });
        }
    }

    fn properties(&self) -> Vec<(&'static str, String)> {
        let cycles: u64 = self.sets.iter().map(|s| s.config.horizon.get()).sum();
        let rates: Vec<String> = self
            .sets
            .iter()
            .map(|s| s.config.fault.dma_fault_rate_ppm.to_string())
            .collect();
        let tasks: Vec<String> = self.sets.iter().map(|s| s.ts.len().to_string()).collect();
        vec![
            ("sets per round", self.sets.len().to_string()),
            ("tasks per set", tasks.join(",")),
            ("simulated cycles per round", cycles.to_string()),
            ("fault rate per set (ppm of transfers)", rates.join(",")),
        ]
    }

    fn layer_metrics(&self, ledger: &Ledger, rounds: f64) -> Vec<(&'static str, f64)> {
        let run_ns = ledger.ns("sim.run") as f64;
        vec![
            ("sim.events", self.events as f64 / rounds),
            ("sim.ns_per_event", run_ns / self.events.max(1) as f64),
            ("sim.faults_injected", self.faults as f64 / rounds),
            ("sim.fetch_retries", self.retries as f64 / rounds),
            ("sim_cycles_per_s", self.cycles as f64 / (run_ns / 1e9)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_are_deterministic_per_seed() {
        let (a, b) = (sets(2), sets(2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.config, y.config);
        }
        assert!(a.iter().zip(sets(3)).any(|(x, y)| x.ts != y.ts));
    }
}
