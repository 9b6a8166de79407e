//! Regenerates the tables and figures of the evaluation.
//!
//! `run_all` runs every experiment in one go, reporting per-experiment
//! wall time. Besides the tables, it records telemetry through the
//! global metrics registry and writes it to `BENCH_run_all.json` (see
//! [`rtmdm_bench::telemetry`]).
//! Every output lands under the working directory, so run it from the
//! repo root; an output that cannot be written ends the run with
//! status 1.
//!
//! `run_all <id>…` (for example `run_all f2_sched_ratio t3_wcrt`) emits
//! only the named experiments' tables and writes no telemetry, which
//! describes a full run. An unknown id exits with status 2 and lists
//! the known ones.
//!
//! Worker count comes from `RTMDM_THREADS` (default: available
//! parallelism); the emitted tables are byte-identical for any thread
//! count.
use std::time::Instant;

use rtmdm_bench::{emit, experiments as e, telemetry, write_output};

type Experiment = (&'static str, fn() -> String);

fn main() {
    let experiments: [Experiment; 18] = [
        ("t1_models", e::t1_models),
        ("t2_platforms", e::t2_platforms),
        ("t3_wcrt", e::t3_wcrt),
        ("f1_latency", e::f1_latency),
        ("f2_sched_ratio", e::f2_sched_ratio),
        ("f3_miss_ratio", e::f3_miss_ratio),
        ("f4_sram_budget", e::f4_sram_budget),
        ("f5_bandwidth", e::f5_bandwidth),
        ("f6_blocking", e::f6_blocking),
        ("f7_opa", e::f7_opa),
        ("f8_ablation", e::f8_ablation),
        ("f9_energy", e::f9_energy),
        ("f10_platforms", e::f10_platforms),
        ("f11_robustness", e::f11_robustness),
        ("f13_blame", e::f13_blame),
        ("f14_explore", e::f14_explore),
        ("f14_explore_scale", e::f14_explore_scale),
        ("f15_fleet", e::f15_fleet),
    ];
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if !ids.is_empty() {
        run_selected(&experiments, &ids);
        return;
    }
    let registry = rtmdm_obs::metrics::global();
    registry.enable(true);
    registry.reset();
    println!("run_all: {} workers", rtmdm_par::num_threads());
    let total = Instant::now();
    let mut records = Vec::with_capacity(experiments.len());
    let mut before = registry.snapshot();
    for (id, run) in experiments {
        let start = Instant::now();
        let output = run();
        let elapsed = start.elapsed();
        written(emit(id, &output));
        let after = registry.snapshot();
        let rec = telemetry::ExperimentMetrics::from_snapshots(id, elapsed, &before, &after);
        println!(
            "-- {id}: {:.2}s ({} sim runs, {} sim cycles)",
            rec.wall_seconds, rec.sim_runs, rec.sim_cycles
        );
        records.push(rec);
        before = after;
    }
    // Registry snapshot first, so probe work below cannot leak into
    // the experiment aggregate.
    let final_snapshot = registry.snapshot();
    // The fleet probe already ran inside the f15_fleet experiment;
    // this reuses its cached record instead of re-timing the fleet.
    let fleet = e::fleet_comparison();
    println!(
        "-- fleet probe: warm {:.0} q/s vs cold {:.0} q/s \
         ({:.1}x, identical: {})",
        fleet.warm_queries_per_second,
        fleet.cold_queries_per_second,
        fleet.speedup,
        fleet.identical
    );
    // Likewise cached from the f14_explore_scale experiment.
    let explore = e::explore_throughput();
    println!(
        "-- explore probe: {:.0} states/s at {} tasks",
        explore.states_per_second, explore.tasks
    );
    let doc = telemetry::RunMetrics::new(
        rtmdm_par::num_threads(),
        records,
        final_snapshot,
        fleet,
        explore,
    );
    let json = serde_json::to_string(&doc).expect("metrics serialize");
    let metrics_path = telemetry::document_path();
    written(write_output(&metrics_path, &json));
    println!(
        "run_all total: {:.2}s ({} sim runs, {} sim cycles) -> {}",
        total.elapsed().as_secs_f64(),
        doc.totals.sim_runs,
        doc.totals.sim_cycles,
        metrics_path.display()
    );
}

/// Emits the tables of the experiments named by `ids`, in the order
/// given, after checking that every id is known.
fn run_selected(experiments: &[Experiment], ids: &[String]) {
    let find = |id: &str| experiments.iter().find(|(known, _)| *known == id);
    if let Some(unknown) = ids.iter().find(|id| find(id).is_none()) {
        let known: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "run_all: unknown experiment `{unknown}` (known: {})",
            known.join(", ")
        );
        std::process::exit(2);
    }
    for (id, run) in ids.iter().filter_map(|id| find(id)) {
        written(emit(id, &run()));
    }
}

/// Ends the run with status 1 when an output could not be written.
fn written(result: Result<(), String>) {
    if let Err(msg) = result {
        eprintln!("run_all: {msg}");
        std::process::exit(1);
    }
}
