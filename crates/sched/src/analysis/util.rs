//! Utilization-based quick tests.

use rtmdm_mcusim::PlatformConfig;

use crate::analysis::wcet::TaskTiming;
use crate::task::{ratio_ppm, TaskSet};

/// Occupancy utilization of the set in parts per million: each task's
/// `(Σe + ΣF) / T`, summed. This is the load the platform actually
/// carries (CPU + DMA, inflated); any value ≥ 1 000 000 is infeasible.
pub fn occupancy_utilization_ppm(ts: &TaskSet, platform: &PlatformConfig) -> u64 {
    ts.tasks()
        .iter()
        .map(|t| {
            let tt = TaskTiming::derive(t, platform);
            ratio_ppm(tt.occupancy.get(), t.period.get())
        })
        .sum()
}

/// The Liu & Layland rate-monotonic utilization bound for `n` tasks, in
/// parts per million: `n (2^{1/n} − 1)`.
pub fn rm_utilization_bound_ppm(n: usize) -> u64 {
    if n == 0 {
        return 1_000_000;
    }
    let bound = n as f64 * ((2f64).powf(1.0 / n as f64) - 1.0);
    (bound * 1_000_000.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Segment, SporadicTask, StagingMode};
    use rtmdm_mcusim::{ContentionModel, Cycles};

    fn bare_platform() -> PlatformConfig {
        let mut p = PlatformConfig::stm32f746_qspi();
        p.contention = ContentionModel::NONE;
        p.context_switch_cycles = Cycles::ZERO;
        p.ext_mem.setup_cycles = Cycles::ZERO;
        p.ext_mem.cycles_per_byte_num = 1;
        p.ext_mem.cycles_per_byte_den = 1;
        p
    }

    fn t(period: u64, compute: u64, fetch: u64) -> SporadicTask {
        SporadicTask::new(
            format!("t{period}"),
            Cycles::new(period),
            Cycles::new(period),
            vec![Segment::new(Cycles::new(compute), fetch)],
            StagingMode::Overlapped,
        )
        .expect("valid")
    }

    #[test]
    fn occupancy_counts_compute_and_fetch() {
        let ts = TaskSet::from_tasks(vec![t(1000, 100, 150)]);
        assert_eq!(occupancy_utilization_ppm(&ts, &bare_platform()), 250_000);
    }

    #[test]
    fn ll_bound_values() {
        assert_eq!(rm_utilization_bound_ppm(0), 1_000_000);
        assert_eq!(rm_utilization_bound_ppm(1), 1_000_000);
        // n=2: 2(√2−1) ≈ 0.8284.
        let b2 = rm_utilization_bound_ppm(2);
        assert!((828_000..829_000).contains(&b2));
        // Monotone decreasing toward ln 2.
        assert!(rm_utilization_bound_ppm(10) > 693_000);
        assert!(rm_utilization_bound_ppm(10) < rm_utilization_bound_ppm(2));
    }
}
