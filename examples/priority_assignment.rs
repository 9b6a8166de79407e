//! Priority-assignment study on synthetic task sets: rate-monotonic vs
//! deadline-monotonic vs Audsley's optimal assignment, all judged by the
//! RT-MDM response-time analysis.
//!
//! ```sh
//! cargo run --release --example priority_assignment
//! ```

use rt_mdm::core::report;
use rt_mdm::mcusim::PlatformConfig;
use rt_mdm::sched::analysis::{rta_limited_preemption, SchedulerMode};
use rt_mdm::sched::assign::{audsley, dm_order, rm_order};
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::StagingMode;

fn main() {
    let platform = PlatformConfig::stm32f746_qspi();
    let sets_per_point = 200;

    println!("schedulability ratio by priority assignment (constrained deadlines, n=4):\n");
    let mut rows = Vec::new();
    for util_pct in [25u64, 35, 45, 55, 65, 75] {
        let mut wins = [0u32; 3]; // rm, dm, opa
        for seed in 0..sets_per_point {
            let mut params = TasksetParams::baseline(4, util_pct * 10_000);
            params.segments_range = (3, 6);
            params.fetch_compute_ratio_ppm = 200_000;
            params.deadline_factor_range_ppm = (500_000, 1_000_000);
            params.mode = StagingMode::Overlapped;
            let ts = generate(&params, &platform, seed);
            let rm = ts.reordered(&rm_order(&ts));
            if rta_limited_preemption(&rm, &platform).schedulable {
                wins[0] += 1;
            }
            let dm = ts.reordered(&dm_order(&ts));
            if rta_limited_preemption(&dm, &platform).schedulable {
                wins[1] += 1;
            }
            if audsley(&ts, &platform, SchedulerMode::Gated).is_some() {
                wins[2] += 1;
            }
        }
        let pct = |w: u32| format!("{:.1}%", 100.0 * f64::from(w) / sets_per_point as f64);
        rows.push(vec![
            format!("{util_pct}%"),
            pct(wins[0]),
            pct(wins[1]),
            pct(wins[2]),
        ]);
    }
    println!(
        "{}",
        report::table(&["compute util", "RM", "DM", "Audsley OPA"], &rows)
    );
    println!("expected shape: OPA ≥ DM ≥ RM at every utilization.");
}
