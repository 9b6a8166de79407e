//! Serial/parallel equivalence of the experiment harness.
//!
//! The harness guarantees that emitted tables are byte-identical for
//! any `RTMDM_THREADS` value. These tests pin that guarantee at two
//! levels: raw `(util, seed)` sweep cells over the generator and
//! simulator (the determinism the harness relies on), and a full
//! experiment rendered to its final table string.

use std::sync::Mutex;

use rtmdm_bench::experiments::f1_latency;
use rtmdm_mcusim::PlatformConfig;
use rtmdm_par::{par_map_seeded, par_map_with_threads};
use rtmdm_sched::assign::dm_order;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::sim::{simulate, Policy, SimConfig};

/// Serializes the tests that mutate `RTMDM_THREADS` — the test harness
/// runs tests concurrently and the environment is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// One generator+simulator cell rendered to a stable string, so any
/// cross-thread nondeterminism shows up as a string mismatch.
fn run_cell((util_pct, seed): (u64, u64)) -> String {
    let platform = PlatformConfig::stm32f746_qspi();
    let mut params = TasksetParams::baseline(4, util_pct * 10_000);
    params.segments_range = (3, 6);
    let ts = generate(&params, &platform, seed);
    let ordered = ts.reordered(&dm_order(&ts));
    let horizon = ordered.tasks().iter().map(|t| t.period).max().unwrap() * 4;
    let config = SimConfig::new(horizon, Policy::FixedPriority);
    let run = simulate(&ordered, &platform, &config);
    let responses: Vec<String> = (0..ordered.len())
        .map(|i| run.max_response_of(i).to_string())
        .collect();
    format!(
        "misses={} max=[{}]",
        run.total_misses(),
        responses.join(",")
    )
}

#[test]
fn sweep_cells_match_serial_at_any_width() {
    let cells: Vec<(u64, u64)> = [10u64, 30, 50]
        .iter()
        .flat_map(|&u| (0..12u64).map(move |s| (u, s)))
        .collect();
    let serial: Vec<String> = cells.iter().copied().map(run_cell).collect();
    for threads in [2, 3, 8] {
        let parallel = par_map_with_threads(threads, cells.clone(), run_cell);
        assert_eq!(parallel, serial, "threads={threads}");
    }
}

#[test]
fn rtmdm_threads_one_forces_the_serial_path() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("RTMDM_THREADS", "1");
    let cells: Vec<(u64, u64)> = (0..6u64).map(|s| (40, s)).collect();
    let serial: Vec<String> = cells.iter().copied().map(run_cell).collect();
    assert_eq!(par_map_seeded(cells, run_cell), serial);
    std::env::remove_var("RTMDM_THREADS");
}

#[test]
fn full_experiment_is_byte_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("RTMDM_THREADS", "1");
    let serial = f1_latency();
    std::env::set_var("RTMDM_THREADS", "8");
    let parallel = f1_latency();
    std::env::remove_var("RTMDM_THREADS");
    assert_eq!(parallel, serial);
}
