//! Machine-readable telemetry for the experiment harness.
//!
//! `run_all` enables the global metrics registry, diffs snapshots
//! around every experiment, and writes one JSON document,
//! `BENCH_run_all.json` at the root of the working directory, next to
//! the human-readable tables: the [`RunMetrics`] record of per
//! experiment wall time, simulated-run counts, sim-cycle throughput,
//! the aggregate registry snapshot, a deterministic probe (pipeline
//! counters over the model zoo plus the timeline summary of a small
//! fixed scenario), and the fleet and explorer throughput records.
//!
//! Wall times are nondeterministic by nature; everything else in the
//! document is exact and independent of `RTMDM_THREADS`.

use std::path::PathBuf;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use rtmdm_core::{RtMdm, TaskSpec};
use rtmdm_dnn::{zoo, CostModel};
use rtmdm_mcusim::PlatformConfig;
use rtmdm_obs::{Snapshot, Timeline, TimelineSummary};
use rtmdm_xmem::{segment_model, stage_timings, ExecutionStrategy, StageTiming};

/// Version of the `BENCH_run_all.json` layout.
///
/// Up to v5, `run_all` wrote the full record to a second file under
/// `results/` and `BENCH_run_all.json` held a subset of it.
/// v2: added per-task response-time percentiles.
/// v3: added the admission-service fleet throughput record (`fleet`;
/// see [`FleetComparison`]).
/// v4: added the explorer fork-versus-replay throughput record
/// (`explore`).
/// v5: dropped the DES-versus-legacy simulator record (`engine`) with
/// the second simulator loop.
/// v6: `BENCH_run_all.json` is the full [`RunMetrics`] record; the
/// `explore` record keeps the fork rates, renamed `states_per_second`
/// and `transitions_per_second`, and drops the replay rates, `speedup`
/// and `identical` (see [`ExploreThroughput`]).
pub const SCHEMA_VERSION: u64 = 6;

/// Telemetry of one experiment invocation inside `run_all`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentMetrics {
    /// Experiment id (`t1_models`, `f3_miss_ratio`, …).
    pub id: String,
    /// Wall-clock duration of the experiment, in seconds.
    pub wall_seconds: f64,
    /// Simulator invocations the experiment performed (configs × seeds).
    pub sim_runs: u64,
    /// Simulated cycles covered by those runs.
    pub sim_cycles: u64,
    /// Simulated cycles retired per wall-clock second (0 when the
    /// experiment ran no simulations or finished below timer precision).
    pub sim_cycles_per_second: f64,
}

impl ExperimentMetrics {
    /// Builds the record for one experiment from its wall time and the
    /// registry snapshots taken before and after it ran.
    pub fn from_snapshots(id: &str, wall: Duration, before: &Snapshot, after: &Snapshot) -> Self {
        let wall_seconds = wall.as_secs_f64();
        let sim_runs = after.counter_delta(before, "sim.runs");
        let sim_cycles = after.counter_delta(before, "sim.cycles");
        let sim_cycles_per_second = if wall_seconds > 1e-9 && sim_cycles > 0 {
            sim_cycles as f64 / wall_seconds
        } else {
            0.0
        };
        ExperimentMetrics {
            id: id.to_owned(),
            wall_seconds,
            sim_runs,
            sim_cycles,
            sim_cycles_per_second,
        }
    }
}

/// Cold-versus-warm admission-service throughput over a synthetic
/// device fleet (see `experiments::fleet_comparison`). The rates and
/// speedup are wall-clock based and therefore nondeterministic;
/// `identical` is exact — it records whether the cached (warm) answers
/// were byte-identical to the cache-free (cold) answers of the same
/// request lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetComparison {
    /// Total queries in the synthetic fleet.
    pub fleet_size: u64,
    /// Distinct (platform, options, task mix) configurations.
    pub distinct_configs: u64,
    /// Queries answered cold (fresh service per query) for the baseline.
    pub cold_sample: u64,
    /// Queries per wall second with a fresh service per query.
    pub cold_queries_per_second: f64,
    /// Queries per wall second through one shared, warmed service.
    pub warm_queries_per_second: f64,
    /// `warm_queries_per_second / cold_queries_per_second`.
    pub speedup: f64,
    /// Whether warm answers matched cold answers byte for byte.
    pub identical: bool,
}

/// Schedule-space-explorer throughput on the deepest F14 scale cell
/// (see `experiments::explore_throughput`). The counts are exact; the
/// rates are wall-clock based and therefore nondeterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreThroughput {
    /// Task count of the timed cell (the largest scale row, ≥ 6).
    pub tasks: u64,
    /// Distinct `(state, choice-point)` pairs expanded.
    pub states: u64,
    /// Oracle transitions taken.
    pub transitions: u64,
    /// States expanded per wall second, single thread.
    pub states_per_second: f64,
    /// Transitions per wall second, single thread.
    pub transitions_per_second: f64,
}

/// Whole-run aggregates over every experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunTotals {
    /// Sum of per-experiment wall seconds (excludes harness overhead).
    pub wall_seconds: f64,
    /// Total simulator invocations.
    pub sim_runs: u64,
    /// Total simulated cycles.
    pub sim_cycles: u64,
}

/// Per-task response-time distribution of the probe scenario.
///
/// Percentiles are upper bucket bounds of the simulator's log₂
/// response histogram
/// ([`Histogram::percentile_upper`](rtmdm_obs::Histogram::percentile_upper)):
/// exact, deterministic, and `None` when the task completed no jobs.
/// `max_response` is the exact observed maximum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskResponseSummary {
    /// Task name.
    pub task: String,
    /// Completed jobs the distribution covers.
    pub completions: u64,
    /// Upper bound on the median response, in cycles.
    pub p50_upper: Option<u64>,
    /// Upper bound on the 95th-percentile response, in cycles.
    pub p95_upper: Option<u64>,
    /// Upper bound on the 99th-percentile response, in cycles.
    pub p99_upper: Option<u64>,
    /// Exact maximum observed response, in cycles.
    pub max_response: u64,
}

impl TaskResponseSummary {
    /// Extracts the summary of one task from its simulator statistics.
    pub fn from_stats(name: &str, stats: &rtmdm_sched::sim::TaskStats) -> Self {
        let pct = |p: u64| stats.response_hist.percentile_upper(p);
        TaskResponseSummary {
            task: name.to_owned(),
            completions: stats.completions,
            p50_upper: pct(50),
            p95_upper: pct(95),
            p99_upper: pct(99),
            max_response: stats.max_response.get(),
        }
    }
}

/// Deterministic cross-check embedded in `BENCH_run_all.json`: the same
/// numbers must come out on every machine and thread count, so a diff
/// against a previous run flags semantic drift immediately.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Probe {
    /// Pipeline counters from staging every zoo model once.
    pub pipeline: Snapshot,
    /// Timeline summary of a fixed two-task scenario (seed 0).
    pub timeline: TimelineSummary,
    /// Per-task response percentiles of the same fixed scenario.
    pub response: Vec<TaskResponseSummary>,
}

/// The `BENCH_run_all.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Layout version, bumped on breaking changes.
    pub schema_version: u64,
    /// Worker threads the harness ran with.
    pub workers: u64,
    /// One record per experiment, in execution order.
    pub experiments: Vec<ExperimentMetrics>,
    /// Aggregates over the experiment records.
    pub totals: RunTotals,
    /// The global registry at the end of the run.
    pub registry: Snapshot,
    /// Deterministic probe numbers (see [`Probe`]).
    pub probe: Probe,
    /// Cold-versus-warm admission-service fleet throughput (see
    /// [`FleetComparison`]).
    pub fleet: FleetComparison,
    /// Explorer throughput (see [`ExploreThroughput`]).
    pub explore: ExploreThroughput,
}

impl RunMetrics {
    /// Assembles the document from per-experiment records, the final
    /// registry snapshot, and the throughput comparisons.
    pub fn new(
        workers: usize,
        experiments: Vec<ExperimentMetrics>,
        registry: Snapshot,
        fleet: FleetComparison,
        explore: ExploreThroughput,
    ) -> Self {
        let totals = RunTotals {
            wall_seconds: experiments.iter().map(|e| e.wall_seconds).sum(),
            sim_runs: experiments.iter().map(|e| e.sim_runs).sum(),
            sim_cycles: experiments.iter().map(|e| e.sim_cycles).sum(),
        };
        RunMetrics {
            schema_version: SCHEMA_VERSION,
            workers: workers as u64,
            experiments,
            totals,
            registry,
            probe: probe(),
            fleet,
            explore,
        }
    }
}

/// Computes the deterministic probe: pipeline staging counters over the
/// whole model zoo plus the timeline summary of a fixed scenario.
pub fn probe() -> Probe {
    // Pipeline counters: stage every zoo model once, overlapped, on the
    // reference platform with a 48 KiB double buffer.
    let platform = PlatformConfig::stm32f746_qspi();
    let cost = CostModel::cmsis_nn_m7();
    let mut pipeline = Snapshot::default();
    for model in zoo::all() {
        if let Ok(seg) = segment_model(&model, &cost, 48 * 1024) {
            let stages = stage_timings(&seg, &platform, ExecutionStrategy::OverlappedPrefetch);
            record_stages(&mut pipeline, &stages);
        }
    }
    // Timeline summary: keyword spotting + image classification for one
    // simulated second, no jitter, seed 0.
    let mut fw = RtMdm::new(platform).expect("reference platform is valid");
    fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
        .expect("kws task admits");
    fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
        .expect("ic task admits");
    let run = fw
        .simulate_with(1_000_000, 1_000_000, 0)
        .expect("probe scenario simulates");
    let timeline = Timeline::from_trace(&run.result.trace, run.result.horizon).summary();
    let response = run
        .names
        .iter()
        .zip(&run.result.stats)
        .map(|(name, stats)| TaskResponseSummary::from_stats(name, stats))
        .collect();
    Probe {
        pipeline,
        timeline,
        response,
    }
}

/// Adds pipeline stage telemetry to `snap`: counters `pipeline.stages`,
/// `pipeline.compute_cycles`, `pipeline.fetch_cycles`,
/// `pipeline.stage_cycles`, and — for stages that actually transfer
/// data — `pipeline.hidden_fetches` vs. `pipeline.exposed_fetches`.
/// Stage wall times also feed the `pipeline.stage_cycles_hist`
/// histogram.
fn record_stages(snap: &mut Snapshot, stages: &[StageTiming]) {
    for st in stages {
        let fetch = (!st.fetch_work.is_zero()).then_some(if st.fetch_hidden {
            "pipeline.hidden_fetches"
        } else {
            "pipeline.exposed_fetches"
        });
        let counts = [
            ("pipeline.stages", 1),
            ("pipeline.compute_cycles", st.compute_work.get()),
            ("pipeline.fetch_cycles", st.fetch_work.get()),
            ("pipeline.stage_cycles", st.stage.get()),
        ];
        for (name, delta) in counts.into_iter().chain(fetch.map(|name| (name, 1))) {
            *snap.counters.entry(name.to_owned()).or_default() += delta;
        }
        snap.histograms
            .entry("pipeline.stage_cycles_hist".to_owned())
            .or_default()
            .record(st.stage.get());
    }
}

/// Path of the telemetry document, directly under
/// [`crate::output_root`].
pub fn document_path() -> PathBuf {
    crate::output_root().join("BENCH_run_all.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic() {
        let a = probe();
        let b = probe();
        assert_eq!(
            serde_json::to_string(&a.pipeline).unwrap(),
            serde_json::to_string(&b.pipeline).unwrap()
        );
        assert_eq!(a.timeline.horizon, b.timeline.horizon);
        assert_eq!(a.timeline.cpu_busy, b.timeline.cpu_busy);
        assert_eq!(a.timeline.dma_busy, b.timeline.dma_busy);
        // The partition invariant holds on the probe scenario too.
        assert_eq!(
            a.timeline.cpu_busy + a.timeline.cpu_idle,
            a.timeline.horizon
        );
        assert!(a.pipeline.counter("pipeline.stages") > 0);
        // Response percentiles: one entry per task, identical across
        // runs, ordered like the percentiles they approximate.
        assert_eq!(a.response, b.response);
        assert_eq!(a.response.len(), 2);
        assert_eq!(a.response[0].task, "kws");
        for r in &a.response {
            assert!(r.completions > 0, "{r:?}");
            let (p50, p95, p99) = (
                r.p50_upper.expect("completed"),
                r.p95_upper.expect("completed"),
                r.p99_upper.expect("completed"),
            );
            assert!(p50 <= p95 && p95 <= p99, "{r:?}");
            assert!(r.max_response > 0, "{r:?}");
        }
    }

    #[test]
    fn stage_counters_sum_the_stage_timings() {
        let platform = PlatformConfig::stm32f746_qspi();
        let seg = segment_model(&zoo::ds_cnn(), &CostModel::cmsis_nn_m7(), 40 * 1024)
            .expect("ds-cnn segments");
        let stages = stage_timings(&seg, &platform, ExecutionStrategy::OverlappedPrefetch);
        let mut snap = Snapshot::default();
        record_stages(&mut snap, &stages);
        assert_eq!(snap.counter("pipeline.stages"), stages.len() as u64);
        let compute: u64 = stages.iter().map(|st| st.compute_work.get()).sum();
        let fetch: u64 = stages.iter().map(|st| st.fetch_work.get()).sum();
        let wall: u64 = stages.iter().map(|st| st.stage.get()).sum();
        assert_eq!(snap.counter("pipeline.compute_cycles"), compute);
        assert_eq!(snap.counter("pipeline.fetch_cycles"), fetch);
        assert_eq!(snap.counter("pipeline.stage_cycles"), wall);
        let fetching = stages.iter().filter(|st| !st.fetch_work.is_zero()).count() as u64;
        assert_eq!(
            snap.counter("pipeline.hidden_fetches") + snap.counter("pipeline.exposed_fetches"),
            fetching
        );
        assert_eq!(
            snap.histograms["pipeline.stage_cycles_hist"].count(),
            stages.len() as u64
        );
    }

    #[test]
    fn metrics_document_round_trips_and_sums() {
        let before = Snapshot::default();
        let mut after = Snapshot::default();
        after.counters.insert("sim.runs".to_owned(), 3);
        after.counters.insert("sim.cycles".to_owned(), 600);
        let e = ExperimentMetrics::from_snapshots(
            "f3_miss_ratio",
            Duration::from_millis(250),
            &before,
            &after,
        );
        assert_eq!(e.sim_runs, 3);
        assert_eq!(e.sim_cycles, 600);
        assert!(e.sim_cycles_per_second > 0.0);
        let fleet = FleetComparison {
            fleet_size: 100_000,
            distinct_configs: 16,
            cold_sample: 16,
            cold_queries_per_second: 10.0,
            warm_queries_per_second: 100.0,
            speedup: 10.0,
            identical: true,
        };
        let explore = ExploreThroughput {
            tasks: 8,
            states: 2_000,
            transitions: 40_000,
            states_per_second: 5_000.0,
            transitions_per_second: 100_000.0,
        };
        let doc = RunMetrics::new(4, vec![e.clone(), e], after, fleet, explore);
        assert_eq!(doc.totals.sim_runs, 6);
        assert_eq!(doc.totals.sim_cycles, 1200);
        let json = serde_json::to_string(&doc).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, 6);
        assert_eq!(back.experiments.len(), 2);
        assert_eq!(back.experiments[0].id, "f3_miss_ratio");
        assert_eq!(back.totals.sim_cycles, 1200);
        // The document carries the probe's per-task percentiles…
        assert_eq!(back.probe.response, doc.probe.response);
        assert!(!back.probe.response.is_empty());
        // …the fleet throughput record…
        assert!(back.fleet.identical);
        assert_eq!(back.fleet.fleet_size, 100_000);
        assert_eq!(back.fleet.speedup, 10.0);
        // …and the explorer record, which has no replay fields.
        assert_eq!(back.explore.states, 2_000);
        assert_eq!(back.explore.states_per_second, 5_000.0);
        let explore_json = &json[json.find(r#""explore":"#).unwrap()..];
        assert_eq!(
            explore_json,
            r#""explore":{"tasks":8,"states":2000,"transitions":40000,"states_per_second":5000.0,"transitions_per_second":100000.0}}"#
        );
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let empty = Snapshot::default();
        let e = ExperimentMetrics::from_snapshots("t1_models", Duration::ZERO, &empty, &empty);
        assert_eq!(e.sim_cycles_per_second, 0.0);
    }
}
