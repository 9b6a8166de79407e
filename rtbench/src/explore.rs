//! `explore`: the exhaustive schedule-space explorer, fork strategy, one
//! thread, over seeded F14/F14s-style cells of 4–8 tasks.
//!
//! The cells come in three shapes that together reach all three verdict
//! kinds: overloaded 4–6-task sets, whose first path already misses (an
//! `RTM050` witness); light 4–5-task sets, most of which the search
//! covers (`safe`) and some of which reach a miss; and deep 7–8-task
//! sets on a long horizon that exhaust a small state budget
//! (`inconclusive`) or reach a miss first. The simulator's run and resume
//! paths, snapshots, fingerprints and the DFS bookkeeping do the work;
//! admission does none.

use rtmdm_check::{explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStrategy};
use rtmdm_mcusim::{FaultPlan, PlatformConfig, TraceKind};
use rtmdm_sched::analysis::{rta_limited_preemption_with, SchedulerMode};
use rtmdm_sched::assign::dm_order;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::{Choice, ChoicePoint, SimOracle, StateHash};
use rtmdm_sched::sim::{
    simulate, simulate_with_oracle, simulate_with_oracle_forked, Engine, Policy, SimConfig,
    SimSnapshot,
};
use rtmdm_sched::TaskSet;

use crate::common::{timed, Ledger, Rng, Round};
use crate::Workload;

/// The three cell shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Overloaded 4–6-task sets on a 2-period horizon.
    Overloaded,
    /// Light 4–5-task sets on a 2-period horizon, searched shallow-first.
    Light,
    /// 7–8-task sets on a 12-period horizon with a 300-state budget.
    Deep,
}

impl Shape {
    /// Horizon in largest periods, state budget and branch order.
    fn search(self) -> (u64, usize, ExploreOrder) {
        match self {
            Shape::Overloaded => (2, 400, ExploreOrder::DeepFirst),
            Shape::Light => (2, 400, ExploreOrder::ShallowFirst),
            Shape::Deep => (12, 300, ExploreOrder::DeepFirst),
        }
    }
}

pub struct Cell {
    pub ts: TaskSet,
    pub config: SimConfig,
    pub limits: ExploreLimits,
}

/// One F14-style cell: `n` grid-period tasks at `util_ppm` from
/// generator seed `gen_seed`, searched as `shape` says.
fn cell(shape: Shape, n: usize, util_ppm: u64, gen_seed: u64, exec_scale_min_ppm: u64) -> Cell {
    let (horizon_periods, max_states, order) = shape.search();
    let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
    params.segments_range = (2, 4);
    let ts = generate(&params, &PlatformConfig::stm32f746_qspi(), gen_seed);
    let horizon = ts
        .tasks()
        .iter()
        .map(|t| t.period)
        .max()
        .expect("n >= 1 tasks")
        * horizon_periods;
    Cell {
        ts,
        config: SimConfig {
            horizon,
            policy: Policy::FixedPriority,
            exec_scale_min_ppm,
            seed: 0,
            work_conserving: false,
            fault: FaultPlan::NONE,
            engine: Engine::Des,
            attribution: true,
            staging_window: 2,
        },
        limits: ExploreLimits {
            max_states,
            jitter_max_cycles: 0,
            strategy: ExploreStrategy::Fork,
            threads: 1,
            order,
        },
    }
}

/// Cells in one round: overloaded, light and deep, in that order.
pub const OVERLOADED: usize = 16;
pub const LIGHT: usize = 32;
pub const DEEP: usize = 8;

/// The cells of one round. Each cell's task set is fixed by its place
/// in the round (generator seed, task count, load), so every seed
/// explores the same mix of shapes; the seed draws each cell's lower
/// execution-time endpoint (55–65 % of WCET), which moves the explored
/// lattice and its state counts.
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::stream(seed, 3);
    let mut exec = move || rng.range(550, 650) * 1_000;
    let mut out = Vec::new();
    for i in 0..OVERLOADED as u64 {
        let util = 900_000 + 25_000 * (i % 8);
        out.push(cell(
            Shape::Overloaded,
            4 + i as usize % 3,
            util,
            100 + i,
            exec(),
        ));
    }
    for i in 0..LIGHT as u64 {
        let util = 300_000 + 10_000 * (i % 10);
        out.push(cell(
            Shape::Light,
            4 + i as usize % 2,
            util,
            200 + i,
            exec(),
        ));
    }
    for i in 0..DEEP as u64 {
        out.push(cell(
            Shape::Deep,
            7 + i as usize % 2,
            250_000,
            300 + i,
            exec(),
        ));
    }
    out
}

/// The table verdict of an outcome: `safe`, the violated rule, or
/// `inconclusive`.
pub fn verdict(out: &ExploreOutcome) -> String {
    if out.proven_safe() {
        return "safe".to_owned();
    }
    match out.findings.first() {
        Some(f) if out.stats.complete || out.witness.is_some() => f.rule.id().to_owned(),
        _ => "inconclusive".to_owned(),
    }
}

/// Everything a cell's exploration must repeat exactly: verdict,
/// counters and witness.
pub fn record(out: &ExploreOutcome) -> String {
    let witness = out
        .witness
        .as_ref()
        .map(|w| serde_json::to_string(w).expect("witness serializes"));
    format!("{} {:?} {witness:?}", verdict(out), out.stats)
}

/// Replays a witness and checks that the violation it predicts happens
/// at the predicted cycle.
pub fn witness_replays(out: &ExploreOutcome) -> Result<(), String> {
    let Some(w) = &out.witness else {
        return Ok(());
    };
    let run = w.replay();
    let hit = if w.rule == "RTM051" {
        run.races
            .iter()
            .any(|r| r.at.get() == w.at && r.task == w.task && r.job == w.job)
    } else {
        run.trace.events().iter().any(|e| {
            e.time.get() == w.at
                && matches!(e.kind, TraceKind::DeadlineMissed { task, job }
                    if task.0 == w.task && job.0 == w.job)
        })
    };
    if hit {
        Ok(())
    } else {
        Err(format!(
            "{} witness does not replay at cycle {}",
            w.rule, w.at
        ))
    }
}

/// Answers every choice with the explorer's first candidate, so one run
/// walks the search's default path.
struct DefaultOracle;

impl SimOracle for DefaultOracle {
    fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
        Choice::default_for(&point)
    }
}

pub struct Explore {
    cells: Vec<Cell>,
    /// Whether the gated limited-preemption RTA admits each cell at
    /// WCET.
    rta_admitted: Vec<bool>,
    /// Whether each cell's default path (every job at WCET) already
    /// misses a deadline, which the search then reports on its first run.
    default_misses: Vec<bool>,
    /// Each cell's record from the first round; later rounds must match.
    first: Vec<Option<String>>,
    /// Verdicts of the last round.
    verdicts: Vec<String>,
    /// Explorer counters summed over the traced rounds.
    states: u64,
    runs: u64,
    transitions: u64,
    conclusive: u64,
    snapshot_bytes: u64,
    sim_cycles: u64,
    sim_events: u64,
}

impl Explore {
    pub fn new(seed: u64) -> Explore {
        let cells = cells(seed);
        let platform = PlatformConfig::stm32f746_qspi();
        let rta_admitted = cells
            .iter()
            .map(|c| {
                let ordered = c.ts.reordered(&dm_order(&c.ts));
                rta_limited_preemption_with(&ordered, &platform, SchedulerMode::Gated).schedulable
            })
            .collect();
        let default_misses = cells
            .iter()
            .map(|c| {
                !simulate_with_oracle(&c.ts, &platform, &c.config, &mut DefaultOracle).no_misses()
            })
            .collect();
        Explore {
            rta_admitted,
            default_misses,
            first: vec![None; cells.len()],
            verdicts: Vec::new(),
            cells,
            states: 0,
            runs: 0,
            transitions: 0,
            conclusive: 0,
            snapshot_bytes: 0,
            sim_cycles: 0,
            sim_events: 0,
        }
    }

    /// Checks a round's outcomes: exact repeats of the first round, and
    /// (on the first round) witness replay.
    fn check(&mut self, outcomes: &[ExploreOutcome], r: &mut Round) {
        self.verdicts = outcomes.iter().map(verdict).collect();
        for (i, out) in outcomes.iter().enumerate() {
            r.attempted += 1;
            let rec = record(out);
            match &self.first[i] {
                Some(first) => r.check(first == &rec, || {
                    format!("cell {i} did not repeat: {first} then {rec}")
                }),
                None => {
                    let ok = witness_replays(out);
                    r.check(ok.is_ok(), || format!("cell {i}: {ok:?}"));
                    self.first[i] = Some(rec);
                }
            }
        }
    }
}

impl Workload for Explore {
    fn round(&mut self, r: &mut Round) {
        let platform = PlatformConfig::stm32f746_qspi();
        let mut outcomes = Vec::with_capacity(self.cells.len());
        for (i, c) in self.cells.iter().enumerate() {
            let (out, ns) = timed(|| explore(&c.ts, &platform, &c.config, &c.limits));
            r.op(i as u64, ns);
            outcomes.push(out);
        }
        self.check(&outcomes, r);
    }

    fn traced_round(&mut self, ledger: &mut Ledger, r: &mut Round) {
        let platform = PlatformConfig::stm32f746_qspi();
        let mut outcomes = Vec::with_capacity(self.cells.len());
        let mut resumed_ok = Vec::with_capacity(self.cells.len());
        for (i, c) in self.cells.iter().enumerate() {
            let (out, ns) = timed(|| explore(&c.ts, &platform, &c.config, &c.limits));
            ledger.add("explore.search", 1, ns);
            r.op(i as u64, ns);

            // One full default path, then the same path capturing
            // snapshots: the difference is the snapshot cost, and the
            // capturing run's plain share is a second path run.
            let (plain, plain_ns) =
                timed(|| simulate_with_oracle(&c.ts, &platform, &c.config, &mut DefaultOracle));
            let mut caps: Vec<SimSnapshot> = Vec::new();
            let (_, cap_ns) = timed(|| {
                simulate_with_oracle_forked(
                    &c.ts,
                    &platform,
                    &c.config,
                    &mut DefaultOracle,
                    None,
                    Some(&mut caps),
                )
            });
            let cap_plain_ns = cap_ns.min(plain_ns);
            ledger.add("explore.run_path", 2, plain_ns + cap_plain_ns);
            ledger.add("explore.snapshot", 1, cap_ns - cap_plain_ns);
            self.snapshot_bytes += caps.iter().map(SimSnapshot::size_hint).sum::<usize>() as u64;
            if let Some(mid) = caps.get(caps.len() / 2) {
                let resumed = ledger.time("sim.resume", || {
                    simulate_with_oracle_forked(
                        &c.ts,
                        &platform,
                        &c.config,
                        &mut DefaultOracle,
                        Some(mid),
                        None,
                    )
                });
                resumed_ok.push(resumed.trace.events() == plain.trace.events());
            }
            let run = ledger.time("sim.run", || simulate(&c.ts, &platform, &c.config));
            self.sim_events += run.trace.len() as u64;
            self.sim_cycles += c.config.horizon.get();
            outcomes.push(out);
        }
        ledger.time("bench.check", || {
            for (i, ok) in resumed_ok.iter().enumerate() {
                r.check(*ok, || {
                    format!("cell {i}: resumed run differs from the full run")
                });
            }
            for out in &outcomes {
                self.states += out.stats.states as u64;
                self.runs += out.stats.runs as u64;
                self.transitions += out.stats.transitions;
                self.conclusive += u64::from(verdict(out) != "inconclusive");
            }
            self.check(&outcomes, r);
        });
    }

    fn properties(&self) -> Vec<(&'static str, String)> {
        let count = |v: &str| self.verdicts.iter().filter(|x| x.as_str() == v).count();
        let tasks: Vec<String> = self.cells.iter().map(|c| c.ts.len().to_string()).collect();
        vec![
            ("cells per round", self.cells.len().to_string()),
            ("tasks per cell", tasks.join(",")),
            (
                "cells whose default path already misses",
                self.default_misses
                    .iter()
                    .filter(|&&m| m)
                    .count()
                    .to_string(),
            ),
            (
                "RTA-admitted cells (of them reaching a witness)",
                format!(
                    "{} ({})",
                    self.rta_admitted.iter().filter(|&&a| a).count(),
                    self.rta_admitted
                        .iter()
                        .zip(&self.verdicts)
                        .filter(|(&a, v)| a && v.starts_with("RTM"))
                        .count()
                ),
            ),
            (
                "verdict mix (safe/witness/inconclusive)",
                format!(
                    "{}/{}/{}",
                    count("safe"),
                    self.verdicts.len() - count("safe") - count("inconclusive"),
                    count("inconclusive")
                ),
            ),
        ]
    }

    fn layer_metrics(&self, ledger: &Ledger, rounds: f64) -> Vec<(&'static str, f64)> {
        let search_s = ledger.ns("explore.search") as f64 / 1e9;
        vec![
            (
                "explore.snapshot_bytes",
                self.snapshot_bytes as f64 / rounds,
            ),
            ("explore.states", self.states as f64 / rounds),
            ("explore.runs", self.runs as f64 / rounds),
            ("explore.transitions", self.transitions as f64 / rounds),
            (
                "explore.states_per_ktransition",
                self.states as f64 * 1e3 / self.transitions.max(1) as f64,
            ),
            ("states_per_s", self.states as f64 / search_s),
            ("conclusive_cells", self.conclusive as f64 / rounds),
            ("sim.events", self.sim_events as f64 / rounds),
            (
                "sim.ns_per_event",
                ledger.ns("sim.run") as f64 / self.sim_events.max(1) as f64,
            ),
            (
                "sim_cycles_per_s",
                self.sim_cycles as f64 / (ledger.ns("sim.run") as f64 / 1e9),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic_per_seed() {
        let a = cells(4);
        let b = cells(4);
        assert_eq!(a.len(), OVERLOADED + LIGHT + DEEP);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.config, y.config);
        }
        assert!(a.iter().zip(cells(5)).any(|(x, y)| x.config != y.config));
    }

    #[test]
    fn checker_flags_a_tampered_counter() {
        let platform = PlatformConfig::stm32f746_qspi();
        let c = cell(Shape::Light, 3, 400_000, 1, 600_000);
        let out = explore(&c.ts, &platform, &c.config, &c.limits);
        let mut w = Explore::new(1);
        w.cells = vec![c];
        w.first = vec![None];
        let mut r = Round::default();
        w.check(std::slice::from_ref(&out), &mut r);
        w.check(std::slice::from_ref(&out), &mut r);
        assert_eq!(r.failed, 0, "an exact repeat passes");
        let mut tampered = out.clone();
        tampered.stats.transitions += 1;
        w.check(&[tampered], &mut r);
        assert_eq!(r.failed, 1, "a tampered counter is flagged");
    }
}
