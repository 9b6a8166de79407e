//! Figure F13 — deadline-miss forensics on a pinned overload scenario.
//!
//! The workload is the overload fixture of the F12 equivalence grid
//! (four generated tasks at 80 % utilization, 20 % DMA fault rate,
//! seed 23) simulated once with attribution anchors on. The table
//! decomposes every task's summed response time into the six causal
//! terms — compute, preemption, blocking fetch, bus contention, fault
//! re-fetch, dispatch wait — and lists each missed job with its
//! dominant interference source, exactly as `rtmdm explain` would.
//! Everything is deterministic and lands in `results/f13_blame.txt`;
//! the conservation invariant (`response = Σ terms`, zero tolerance)
//! is re-validated on every run.

use rtmdm_core::report;
use rtmdm_mcusim::{FaultPlan, TaskId, DEFAULT_MAX_RETRIES};
use rtmdm_obs::attribute;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::sim::{simulate, Policy, SimConfig};

use crate::experiments::eval_platform;

/// Share of `part` in `whole`, rendered as a percentage with one
/// decimal.
fn share(part: rtmdm_mcusim::Cycles, whole: rtmdm_mcusim::Cycles) -> String {
    if whole.is_zero() {
        return "n/a".to_owned();
    }
    let ppm = part.get() as u128 * 1_000_000 / whole.get() as u128;
    format!("{}.{}", ppm / 10_000, (ppm % 10_000) / 1_000)
}

/// F13 — per-task blame decomposition and ranked miss forensics.
pub fn f13_blame() -> String {
    let platform = eval_platform();
    let mut params = TasksetParams::baseline(4, 800_000);
    params.segments_range = (2, 5);
    params.fetch_compute_ratio_ppm = 300_000;
    let ts = generate(&params, &platform, 23);
    let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 4;
    let config = SimConfig {
        seed: 23,
        fault: FaultPlan {
            seed: 23,
            dma_fault_rate_ppm: 200_000,
            max_retries: DEFAULT_MAX_RETRIES,
            jitter_max_cycles: 50,
        },
        attribution: true,
        ..SimConfig::new(horizon, Policy::FixedPriority)
    };
    let run = simulate(&ts, &platform, &config);
    let report = attribute(&run.trace).expect("decomposition conserves response time");
    let name = |task: TaskId| -> String {
        ts.tasks()
            .get(task.0)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| task.to_string())
    };

    let mut rows = Vec::new();
    for (&task, t) in &report.tasks {
        let total = t.total();
        rows.push(vec![
            name(task),
            t.jobs.to_string(),
            t.misses.to_string(),
            t.max_response.to_string(),
            share(t.compute, total),
            share(t.preemption_total(), total),
            share(t.blocking_fetch, total),
            share(t.bus_contention, total),
            share(t.fault_refetch, total),
            share(t.dispatch_wait, total),
            match t.dominant_interference() {
                Some((src, _)) => src.to_string(),
                None => "none".to_owned(),
            },
        ]);
    }
    let mut out = report::table(
        &[
            "task",
            "jobs",
            "miss",
            "max resp",
            "compute %",
            "preempt %",
            "blocking %",
            "bus %",
            "refetch %",
            "dispatch %",
            "dominant",
        ],
        &rows,
    );

    out.push('\n');
    let missed = report.missed_jobs();
    if missed.is_empty() {
        out.push_str("no deadline misses\n");
        return out;
    }
    let rows: Vec<Vec<String>> = missed
        .iter()
        .map(|j| {
            let interference = j.response.saturating_sub(j.compute);
            vec![
                name(j.task),
                j.job.to_string(),
                j.response.to_string(),
                j.compute.to_string(),
                interference.to_string(),
                match j.dominant_interference() {
                    Some((src, c)) => format!("{src} ({c})"),
                    None => "none (compute-bound)".to_owned(),
                },
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "missed job",
            "job#",
            "response",
            "compute",
            "interference",
            "dominant source",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f13_is_deterministic_and_names_a_dominant_source_per_miss() {
        let a = f13_blame();
        let b = f13_blame();
        assert_eq!(a, b);
        // The pinned overload scenario must actually miss, and every
        // missed job's row must name a dominant interference source.
        assert!(a.contains("missed job"), "{a}");
        for line in a.lines().skip_while(|l| !l.starts_with("missed job")) {
            assert!(!line.contains("none (compute-bound)"), "{a}");
        }
    }
}
