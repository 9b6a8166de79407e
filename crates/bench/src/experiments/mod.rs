//! Experiment implementations, one per table/figure of `DESIGN.md` §4.

mod ablation;
mod blame;
mod blocking;
mod energy;
mod explore;
mod fleet;
mod latency;
mod platforms;
mod robustness;
mod sched_ratio;
mod tables;

pub use ablation::f8_ablation;
pub use blame::f13_blame;
pub use blocking::f6_blocking;
pub use energy::f9_energy;
pub use explore::{explore_throughput, f14_explore, f14_explore_scale};
pub use fleet::{f15_fleet, fleet_comparison};
pub use latency::{f1_latency, f4_sram_budget, f5_bandwidth};
pub use platforms::f10_platforms;
pub use robustness::f11_robustness;
pub use sched_ratio::{f2_sched_ratio, f3_miss_ratio, f7_opa};
pub use tables::{t1_models, t2_platforms, t3_wcrt};

/// The default evaluation platform of the whole study.
pub fn eval_platform() -> rtmdm_mcusim::PlatformConfig {
    rtmdm_mcusim::PlatformConfig::stm32f746_qspi()
}

/// Formats cycles as milliseconds with three decimals on a clock.
pub(crate) fn ms(cycles: rtmdm_mcusim::Cycles, cpu: rtmdm_mcusim::Frequency) -> String {
    let us = cpu.micros_from_cycles(cycles);
    format!("{}.{:03}", us / 1000, us % 1000)
}

/// Formats a ratio of two counts as a percentage.
pub(crate) fn pct(num: u32, den: u32) -> String {
    if den == 0 {
        return "n/a".to_owned();
    }
    format!("{:.1}", 100.0 * f64::from(num) / f64::from(den))
}
