//! Figure F14 — explorer scale: schedule-space size versus task count.
//!
//! One synthetic task set per row (fixed generator seed, grid periods),
//! explored exhaustively with a two-endpoint execution-time dimension
//! (WCET and 60 % of WCET per job). The columns are the search
//! counters: distinct canonical `(state, choice-point)` pairs, full
//! simulation runs, transitions taken, and the verdict — `safe` when
//! the lattice was covered without a violation, a rule ID when the
//! explorer reached one, `inconclusive` when the state budget ran out.
//!
//! Everything in the table is deterministic (the explorer's DFS order
//! is fixed), so the table is byte-pinned like every other
//! `results/*.txt`. Wall time is nondeterministic by nature and lands
//! in `BENCH_run_all.json` via the harness telemetry.
//!
//! The scale companion (`results/f14_explore_scale.txt`) extends the
//! same workload family to 6–8 tasks and runs every cell under **both**
//! exploration strategies, single-threaded: `fork` (resume each branch
//! from the nearest captured [`SimSnapshot`]) against `replay`
//! (re-simulate every path from cycle zero). The scale cells differ
//! from the 1–5-task rows in two deliberate ways: a lighter total
//! utilization (the F14 shape is unschedulable on its first run past
//! five tasks, leaving nothing to search) and a 6× longer probe
//! horizon under the deep-first branch order — the regime where the
//! search frontier sits far into the horizon and the strategies
//! actually diverge in cost, since a forked branch resumes at its
//! divergence while a replayed one re-simulates the whole prefix. The
//! deterministic columns — counters, verdict, the fork-equals-replay
//! byte-identity gate, and the largest snapshot footprint on the
//! default path — are byte-pinned; the wall-clock states/second rates
//! and the resulting speedup go to `BENCH_run_all.json` via
//! [`ExploreComparison`].

use std::sync::OnceLock;
use std::time::Instant;

use rtmdm_check::{explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStrategy};
use rtmdm_core::report;
use rtmdm_mcusim::{FaultPlan, PlatformConfig};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::{Choice, ChoicePoint, SimOracle, StateHash};
use rtmdm_sched::sim::{simulate_with_oracle_forked, Engine, Policy, SimConfig, SimSnapshot};
use rtmdm_sched::TaskSet;

use crate::telemetry::ExploreComparison;

/// State budget per cell; exceeding it is the `inconclusive` verdict.
const MAX_STATES: usize = 2_000;

/// Lower endpoint of the per-job execution-time interval (ppm of WCET).
const EXEC_SCALE_MIN_PPM: u64 = 600_000;

/// Total compute utilization of the 1–5-task F14 cells (ppm).
const F14_UTIL_PPM: u64 = 400_000;

/// Total compute utilization of the 6–8-task scale cells (ppm). The
/// F14 shape is unschedulable past five tasks — the default path hits
/// `RTM050` on the first run, leaving nothing to explore — so the
/// scale rows dial the load back until the search is depth-limited by
/// the state budget instead.
const SCALE_UTIL_PPM: u64 = 250_000;

/// Probe horizon of the 1–5-task F14 cells, in multiples of the
/// largest period.
const F14_HORIZON_PERIODS: u64 = 2;

/// Probe horizon of the scale cells. Longer on purpose: with the
/// deep-first order the state budget pins the frontier near the end of
/// the horizon, so the prefix a replayed branch re-simulates (and a
/// forked branch skips) grows with the horizon while the forked
/// suffix stays frontier-sized.
const SCALE_HORIZON_PERIODS: u64 = 12;

/// One F14 cell: the synthetic task set and its simulation config.
fn cell(
    platform: &PlatformConfig,
    n: usize,
    util_ppm: u64,
    horizon_periods: u64,
) -> (TaskSet, SimConfig) {
    let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
    params.segments_range = (2, 4);
    let ts = generate(&params, platform, 1);
    // A bounded probe horizon, not hyperperiod coverage: the row
    // measures how the search scales, and two of the largest
    // periods already hold several releases of every task.
    let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * horizon_periods;
    let config = SimConfig {
        horizon,
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: EXEC_SCALE_MIN_PPM,
        seed: 0,
        work_conserving: false,
        fault: FaultPlan::NONE,
        engine: Engine::Des,
        attribution: true,
        staging_window: 2,
    };
    (ts, config)
}

/// Renders an outcome into the table verdict column.
fn verdict(out: &ExploreOutcome) -> String {
    if out.proven_safe() {
        "safe".to_owned()
    } else if let Some(f) = out.findings.first() {
        if out.stats.complete || out.witness.is_some() {
            f.rule.id().to_owned()
        } else {
            "inconclusive".to_owned()
        }
    } else {
        "inconclusive".to_owned()
    }
}

/// F14 — explorer search counters as the task count grows.
pub fn f14_explore() -> String {
    let platform = super::eval_platform();
    let mut rows = Vec::new();
    for n in 1..=5usize {
        let (ts, config) = cell(&platform, n, F14_UTIL_PPM, F14_HORIZON_PERIODS);
        let limits = ExploreLimits {
            max_states: MAX_STATES,
            jitter_max_cycles: 0,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &platform, &config, &limits);
        rows.push(vec![
            n.to_string(),
            out.stats.states.to_string(),
            out.stats.runs.to_string(),
            out.stats.transitions.to_string(),
            verdict(&out),
        ]);
    }
    report::table(
        &["tasks", "states", "runs", "transitions", "verdict"],
        &rows,
    )
}

/// The deterministic scale table plus the wall-clock comparison, built
/// once and shared by [`f14_explore_scale`] and [`explore_comparison`].
struct ExploreProbe {
    table: String,
    comparison: ExploreComparison,
}

/// One comparable blob per outcome: findings, witness JSON, counters.
/// Byte-equality of these blobs is the table's `identical` gate.
fn fingerprint(out: &ExploreOutcome) -> String {
    let findings: Vec<String> = out
        .findings
        .iter()
        .map(|f| format!("{:?}|{}|{:?}", f.rule, f.message, f.task))
        .collect();
    let witness = out
        .witness
        .as_ref()
        .map(|w| serde_json::to_string(w).expect("witness serializes"));
    format!("{findings:?}\n{witness:?}\n{:?}", out.stats)
}

/// Always answers the deterministic default — the explorer's first
/// candidate — so a single capturing run walks the default path.
struct DefaultOracle;

impl SimOracle for DefaultOracle {
    fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
        Choice::default_for(&point)
    }
}

/// Largest [`SimSnapshot::size_hint`] captured on the workload's
/// default path — the snapshot footprint column of the scale table.
fn max_snapshot_bytes(ts: &TaskSet, platform: &PlatformConfig, config: &SimConfig) -> usize {
    let mut caps: Vec<SimSnapshot> = Vec::new();
    let mut oracle = DefaultOracle;
    let _ = simulate_with_oracle_forked(ts, platform, config, &mut oracle, None, Some(&mut caps));
    caps.iter().map(SimSnapshot::size_hint).max().unwrap_or(0)
}

fn run_probe() -> ExploreProbe {
    let platform = super::eval_platform();
    let mut rows = Vec::new();
    let mut identical = true;
    let mut timed = None;
    for n in 6..=8usize {
        let (ts, config) = cell(&platform, n, SCALE_UTIL_PPM, SCALE_HORIZON_PERIODS);
        let limits = |strategy| ExploreLimits {
            max_states: MAX_STATES,
            strategy,
            order: ExploreOrder::DeepFirst,
            ..ExploreLimits::default()
        };
        let started = Instant::now();
        let fork = explore(&ts, &platform, &config, &limits(ExploreStrategy::Fork));
        let fork_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let replay = explore(&ts, &platform, &config, &limits(ExploreStrategy::Replay));
        let replay_secs = started.elapsed().as_secs_f64();
        let same = fingerprint(&fork) == fingerprint(&replay);
        identical &= same;
        rows.push(vec![
            n.to_string(),
            fork.stats.states.to_string(),
            fork.stats.runs.to_string(),
            fork.stats.transitions.to_string(),
            verdict(&fork),
            if same { "yes" } else { "no" }.to_owned(),
            max_snapshot_bytes(&ts, &platform, &config).to_string(),
        ]);
        // The comparison reports the deepest cell — the one the ≥6-task
        // speedup acceptance gate reads.
        timed = Some((
            n,
            fork.stats.states,
            fork.stats.transitions,
            fork_secs,
            replay_secs,
        ));
    }
    let (tasks, states, transitions, fork_secs, replay_secs) = timed.expect("scale rows");
    let rate = |count: u64, secs: f64| {
        if secs > 0.0 {
            count as f64 / secs
        } else {
            0.0
        }
    };
    let comparison = ExploreComparison {
        tasks: tasks as u64,
        states: states as u64,
        transitions,
        fork_states_per_second: rate(states as u64, fork_secs),
        fork_transitions_per_second: rate(transitions, fork_secs),
        replay_states_per_second: rate(states as u64, replay_secs),
        replay_transitions_per_second: rate(transitions, replay_secs),
        speedup: if fork_secs > 0.0 {
            replay_secs / fork_secs
        } else {
            0.0
        },
        identical,
    };
    ExploreProbe {
        table: report::table(
            &[
                "tasks",
                "states",
                "runs",
                "transitions",
                "verdict",
                "identical",
                "snapshot_bytes",
            ],
            &rows,
        ),
        comparison,
    }
}

fn probe() -> &'static ExploreProbe {
    static PROBE: OnceLock<ExploreProbe> = OnceLock::new();
    PROBE.get_or_init(run_probe)
}

/// F14 scale companion — fork versus replay at 6–8 tasks.
pub fn f14_explore_scale() -> String {
    probe().table.clone()
}

/// The wall-clock fork-versus-replay record for `BENCH_run_all.json`.
pub fn explore_comparison() -> ExploreComparison {
    probe().comparison.clone()
}
