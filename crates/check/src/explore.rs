//! The bounded exhaustive schedule-space explorer (`RTM050`–`RTM053`).
//!
//! Where every other pass in this crate reasons *analytically*, this one
//! reasons *operationally*: it enumerates every interleaving of the
//! simulator's nondeterministic choices — per-job execution times over
//! `[BCET, WCET]` endpoints, release jitter, and per-transfer fault
//! injection up to the retry budget — and proves either that no
//! reachable interleaving misses a deadline or races the double buffer,
//! or produces a concrete violating path as a replayable [`Witness`].
//!
//! The transition function is not a model of the scheduler: it *is* the
//! scheduler, driven through the
//! [`SimOracle`](rtmdm_sched::script::SimOracle) hook. That makes every
//! counterexample exact by construction — replaying the witness script
//! through [`simulate_with_oracle`] reproduces the violating run byte
//! for byte.
//!
//! Search is depth-first over forced-choice prefixes, with converging
//! interleavings merged through the canonical state fingerprint (see
//! [`crate::state`]). A path that merges into one explored earlier ends
//! its run after the merge instant: its tail would repeat a tail that
//! was already checked. A path that violates ends its run after its
//! first violating instant: the violation ends the search, and nothing
//! after it changes which event is first. Paths run one at a time, in
//! stack order, each reading the visited set its predecessors left.
//! The witness of a violation comes from one replay of its path from
//! time zero to the horizon.
//!
//! **Strategy** ([`ExploreStrategy`]) sets how each path is executed
//! without changing a single output byte: under `Fork` (the default),
//! each run captures a [`SimSnapshot`] at every instant boundary that
//! may reach a choice point, and every branch resumes from the latest
//! snapshot at or before its branched query instead of replaying the
//! whole prefix from time zero. `Replay` keeps the from-zero
//! re-execution as the differential reference; an equivalence property
//! test pins that the two produce identical verdicts, stats, and
//! witness JSON.
//!
//! The search is bounded: when the state budget is hit, the verdict is
//! `RTM053` — explicitly inconclusive, never silently safe.

use std::rc::Rc;

use rtmdm_mcusim::{Cycles, JobId, PlatformConfig, TaskId, TraceKind};
use rtmdm_obs::attribute;
use rtmdm_sched::script::{Choice, ScriptedChoice};
use rtmdm_sched::sim::{
    simulate_with_oracle, simulate_with_oracle_forked, RaceKind, SimConfig, SimResult, SimSnapshot,
};
use rtmdm_sched::TaskSet;

use crate::diag::{Finding, Rule};
use crate::state::WITNESS_SCHEMA;
use crate::state::{
    merge_path, Domains, ExploreStats, PathOracle, QueryRecord, VisitedSet, Witness,
};

/// How the explorer executes each path of the search tree.
///
/// Strategies differ only in cost: every verdict, counter, and witness
/// byte is identical across them (pinned by the differential property
/// suites). `Fork` is what every caller outside the tests runs, and
/// `rtmdm check` offers no choice; `Replay` is the tests' reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreStrategy {
    /// Re-execute every path from time zero. The semantic reference:
    /// each run's cost is the full horizon regardless of where it
    /// branched.
    Replay,
    /// Fork each branch from a mid-run [`SimSnapshot`] captured by the
    /// run that scheduled it, paying only for the path suffix past the
    /// branched choice.
    #[default]
    Fork,
}

/// Which scheduled branch of the current run the search takes next.
///
/// Unlike the strategy, the order is a *semantic* knob:
/// it changes which paths execute (and therefore run/transition
/// counters and which violation is reached first in an unsafe space),
/// though never the safety verdict of a completed search — the covered
/// state lattice is order-independent. Fork-versus-replay
/// byte-identity holds within either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreOrder {
    /// Explore the shallowest scheduled branch of the current run
    /// next. The historical order; every pinned table was produced
    /// under it, so it stays the default.
    #[default]
    ShallowFirst,
    /// Explore the deepest scheduled branch next. Keeps the frontier
    /// at the far end of the horizon, where a forked branch resumes
    /// just before its divergence and pays almost nothing for the
    /// prefix — the order that lets `Fork` realize its asymptotic
    /// advantage (see the F14 scale probe).
    DeepFirst,
}

/// Exploration bounds and the extra nondeterminism dimensions that have
/// no [`SimConfig`] field of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Budget on distinct canonical `(state, choice-point)` pairs; when
    /// exceeded the verdict is `RTM053` (inconclusive).
    pub max_states: usize,
    /// Upper endpoint of the release-jitter dimension, in cycles; zero
    /// keeps arrivals strictly periodic.
    pub jitter_max_cycles: u64,
    /// Path-execution strategy. Outputs are byte-identical across
    /// strategies; `Fork` is the default because it is asymptotically
    /// cheaper on deep search trees, and `Replay` is selected only by
    /// the tests that compare the two.
    pub strategy: ExploreStrategy,
    /// Ignored: the explorer runs one path at a time. The field stays
    /// only because rtbench's `ExploreLimits` struct literal
    /// (`rtbench/src/explore.rs`) names it; ROADMAP item 1 frees that
    /// literal, and the field can go then.
    pub threads: usize,
    /// Branch scheduling order (see [`ExploreOrder`]).
    pub order: ExploreOrder,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits {
            max_states: 20_000,
            jitter_max_cycles: 0,
            strategy: ExploreStrategy::default(),
            threads: 0,
            order: ExploreOrder::default(),
        }
    }
}

/// What one exploration concluded.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Zero findings = proven safe over the explored lattice; `RTM050`/
    /// `RTM051`/`RTM052` = violation reached; `RTM053` = budget hit.
    pub findings: Vec<Finding>,
    /// The replayable counterexample behind a violation finding.
    pub witness: Option<Witness>,
    /// Search counters (also reported by `rtmdm check --explore`).
    pub stats: ExploreStats,
}

impl ExploreOutcome {
    /// Whether exploration covered the space and found nothing.
    pub fn proven_safe(&self) -> bool {
        self.findings.is_empty() && self.stats.complete
    }
}

/// One scheduled path. Its forced choices are `path[..at]` followed by
/// `alt`; after them the run answers deterministic defaults.
///
/// Every branch a run schedules reads that run's one choice sequence
/// through a shared `path`, so scheduling a run's branches costs one
/// copy of its path, not one per branch.
struct WorkItem {
    /// The absolute choice sequence (from time zero) of the run that
    /// scheduled this item, shared by all of that run's branches; empty
    /// for the root.
    path: Rc<[Choice]>,
    /// The branch position: the absolute query at which this item
    /// leaves `path`.
    at: usize,
    /// The untaken alternative answered at `at`; `None` for the root.
    alt: Option<Choice>,
    /// Latest snapshot whose capturing run agrees with `path` up to the
    /// snapshot's query position, at or before `at`; `None` runs from
    /// time zero.
    base: Option<ForkBase>,
}

impl WorkItem {
    /// The forced choices from absolute position `from` (at most `at`):
    /// `path[from..at]` followed by `alt`.
    fn forced_from(&self, from: usize) -> Vec<Choice> {
        let mut forced = Vec::with_capacity(self.at - from + 1);
        forced.extend_from_slice(&self.path[from..self.at]);
        forced.extend(self.alt);
        forced
    }
}

/// A shareable resume point: a snapshot plus its *absolute* position in
/// the choice sequence (snapshots themselves count queries relative to
/// the run that captured them).
#[derive(Clone)]
struct ForkBase {
    snap: Rc<SimSnapshot>,
    /// Absolute oracle queries answered before the captured instant.
    consumed: usize,
}

/// The executed form of a [`WorkItem`].
struct PathRun {
    result: SimResult,
    /// Records for queries `consumed..` (snapshot-relative log).
    log: Vec<QueryRecord>,
    /// Absolute queries answered before the resume point (`0` when the
    /// run started at time zero).
    consumed: usize,
    /// Snapshots this run captured, ascending by absolute position.
    snaps: Vec<ForkBase>,
}

/// The violating event of one explored run, before rule classification.
#[derive(Debug, Clone, Copy)]
struct RawViolation {
    at: Cycles,
    task: usize,
    job: u64,
    race: Option<(usize, usize, RaceKind)>,
}

/// Executes one path. Under `Fork` the run resumes from the item's
/// base snapshot (when it has one) and captures snapshots for the
/// branches it will schedule; under `Replay` it runs from time zero and
/// captures nothing. Either way the run ends early where the path
/// merges into `visited`, or after its first violating instant.
fn run_path(
    ts: &TaskSet,
    platform: &PlatformConfig,
    cfg: &SimConfig,
    domains: &Domains,
    visited: &VisitedSet,
    item: &WorkItem,
    fork: bool,
) -> PathRun {
    let consumed = item.base.as_ref().map_or(0, |b| b.consumed);
    let mut caps: Vec<SimSnapshot> = Vec::new();
    let mut oracle = PathOracle::search(item.forced_from(consumed), domains, visited);
    let result = simulate_with_oracle_forked(
        ts,
        platform,
        cfg,
        &mut oracle,
        item.base.as_ref().map(|b| b.snap.as_ref()),
        if fork { Some(&mut caps) } else { None },
    );
    let snaps = caps
        .into_iter()
        .map(|s| ForkBase {
            consumed: consumed + s.queries_before(),
            snap: Rc::new(s),
        })
        .collect();
    PathRun {
        result,
        log: oracle.log,
        consumed,
        snaps,
    }
}

/// Explores the schedule space of `ts` on `platform` exhaustively over
/// the choice lattice induced by `base` and `limits`, up to
/// `base.horizon`.
///
/// `base` supplies the scheduling policy, dispatch discipline, staging
/// window, horizon, and the fault environment (a zero
/// `dma_fault_rate_ppm` disables the fault dimension; a nonzero rate
/// enables it — the rate itself is ignored, since the explorer decides
/// each fault outcome, honoring only `max_retries`). Attribution is
/// forced on so a violating run decomposes into blame terms.
///
/// Returns zero findings only when the entire bounded lattice was
/// covered without reaching a violation.
///
/// Each executed run builds its absolute choice sequence once, and every
/// branch it schedules shares that sequence instead of copying a
/// prefix: pushing a run's branches is linear in its path length, and
/// live memory is the paths of runs that still have branches on the
/// stack.
pub fn explore(
    ts: &TaskSet,
    platform: &PlatformConfig,
    base: &SimConfig,
    limits: &ExploreLimits,
) -> ExploreOutcome {
    let mut cfg = base.clone();
    cfg.attribution = true;
    let domains = Domains {
        exec_scale_min_ppm: cfg.exec_scale_min_ppm,
        jitter_max_cycles: limits.jitter_max_cycles,
        explore_faults: cfg.fault.dma_fault_rate_ppm > 0,
    };
    let fork = limits.strategy == ExploreStrategy::Fork;
    let mut visited = VisitedSet::new();
    let mut stats = ExploreStats::default();
    let mut stack = vec![WorkItem {
        path: Rc::from([]),
        at: 0,
        alt: None,
        base: None,
    }];
    // Each scheduled branch is an untaken alternative of a novel pair,
    // so runs are bounded by states; the cap is a backstop only.
    let run_cap = limits.max_states.saturating_mul(2).saturating_add(1);
    let mut exhausted = false;

    // The budget is tested before popping, so every item it refuses
    // stays on the stack and counts as an unexplored branch.
    while !stack.is_empty() {
        if visited.len() >= limits.max_states || stats.runs >= run_cap {
            exhausted = true;
            break;
        }
        let item = stack.pop().expect("the stack is not empty");
        let run = run_path(ts, platform, &cfg, &domains, &visited, &item, fork);
        stats.runs += 1;

        // Merge before the violation check: a violating run's novel
        // pairs up to its violation count towards the reported states.
        let merged = merge_path(&run.log, &mut visited);
        stats.transitions += (run.consumed + merged.len) as u64;

        if let Some(raw) = first_violation(&run.result) {
            stats.states = visited.len();
            let path = run_choices(&item, &run);
            let outcome = violation_outcome(ts, platform, &cfg, &path, raw, stats);
            flush_explore_metrics(&outcome.stats);
            return outcome;
        }
        push_branches(&mut stack, &item, &run, merged.expansions, limits.order);
    }

    stats.states = visited.len();
    stats.complete = !exhausted;
    let mut findings = Vec::new();
    if exhausted {
        findings.push(Finding::new(
            Rule::Rtm053,
            format!(
                "exploration budget exceeded ({} states, {} runs, {} unexplored branches): \
                 the verdict is inconclusive, not safe — raise --max-states to cover the space",
                stats.states,
                stats.runs,
                stack.len(),
            ),
        ));
    }
    flush_explore_metrics(&stats);
    ExploreOutcome {
        findings,
        witness: None,
        stats,
    }
}

/// The absolute choice sequence of an executed item: the item's path up
/// to the run's resume point, then every answer the run logged.
/// `run.consumed <= item.at` always holds — the base is the latest
/// snapshot at or before the branch point — so the item's own forced
/// suffix comes from the log.
fn run_choices(item: &WorkItem, run: &PathRun) -> Rc<[Choice]> {
    item.path[..run.consumed]
        .iter()
        .copied()
        .chain(run.log.iter().map(|r| r.chosen))
        .collect()
}

/// Pushes one work item per untaken alternative at each expanded log
/// index of `run`, all sharing the run's choice sequence. Push order
/// decides which branch pops next (LIFO): pushing deepest-first leaves
/// the shallowest on top.
fn push_branches(
    stack: &mut Vec<WorkItem>,
    item: &WorkItem,
    run: &PathRun,
    mut expansions: Vec<usize>,
    order: ExploreOrder,
) {
    if expansions.is_empty() {
        return;
    }
    if order == ExploreOrder::ShallowFirst {
        expansions.reverse();
    }
    let path = run_choices(item, run);
    for i in expansions {
        let at = run.consumed + i;
        // The latest snapshot at or before the branched choice agrees
        // with the child's forced choices on everything before it (the
        // child diverges only at `at`), so the child replays at most
        // one captured instant's worth of forced choices.
        let base = run.snaps[..run.snaps.partition_point(|fb| fb.consumed <= at)]
            .last()
            .or(item.base.as_ref())
            .cloned();
        for &alt in run.log[i].branch.iter().flat_map(|(_, alts)| alts) {
            stack.push(WorkItem {
                path: Rc::clone(&path),
                at,
                alt: Some(alt),
                base: base.clone(),
            });
        }
    }
}

/// Flushes one exploration's counters into the process-global metrics
/// registry (a no-op unless a telemetry consumer enabled it). Counters
/// are search totals, identical under either strategy — unlike per-run
/// simulator metrics, which oracle-driven probes deliberately do not
/// flush.
fn flush_explore_metrics(stats: &ExploreStats) {
    let g = rtmdm_obs::metrics::global();
    if !g.is_enabled() {
        return;
    }
    g.add("explore.explorations", 1);
    g.add("explore.runs", stats.runs as u64);
    g.add("explore.states", stats.states as u64);
    g.add("explore.transitions", stats.transitions);
}

/// The chronologically first violating event of a run: a staging race
/// or a deadline miss, races winning ties (they are structural).
fn first_violation(result: &SimResult) -> Option<RawViolation> {
    let race = result.races.first().map(|r| RawViolation {
        at: r.at,
        task: r.task,
        job: r.job,
        race: Some((r.write_seg, r.clobbered_seg, r.kind)),
    });
    let miss = result.trace.events().iter().find_map(|e| match e.kind {
        TraceKind::DeadlineMissed { task, job } => Some(RawViolation {
            at: e.time,
            task: task.0,
            job: job.0,
            race: None,
        }),
        _ => None,
    });
    match (race, miss) {
        (Some(r), Some(m)) if m.at < r.at => Some(m),
        (Some(r), _) => Some(r),
        (None, m) => m,
    }
}

/// The dominant interference source of job `job` of `task` in `result`.
/// A job's blame is final at its completion instant — the intervals
/// that build its window all close by then — so attribution reads only
/// the trace through that instant. A victim that never completes has no
/// decomposition.
fn victim_blame(result: &SimResult, task: TaskId, job: JobId) -> Option<String> {
    let events = result.trace.events();
    let done = events.iter().find(|e| {
        matches!(e.kind, TraceKind::JobCompleted { task: t, job: j, .. } if t == task && j == job)
    })?;
    let prefix = result
        .trace
        .truncated(events.partition_point(|e| e.time <= done.time));
    let report = attribute(&prefix).ok()?;
    let (source, _) = report
        .jobs
        .iter()
        .find(|j| j.task == task && j.job == job)?
        .dominant_interference()?;
    Some(source.to_string())
}

/// Builds the finding and witness for a violating run whose absolute
/// choice sequence is `path`.
fn violation_outcome(
    ts: &TaskSet,
    platform: &PlatformConfig,
    cfg: &SimConfig,
    path: &[Choice],
    raw: RawViolation,
    stats: ExploreStats,
) -> ExploreOutcome {
    // The explored run ended at its violating instant, and a forked one
    // logged only from its snapshot on. The witness lists every query
    // from time zero to the horizon, so replay the path once from time
    // zero with an oracle that stops at nothing and keeps no search
    // books: it fingerprints no state and lists no candidates.
    let mut oracle = PathOracle::replay(path.to_vec());
    let result = simulate_with_oracle(ts, platform, cfg, &mut oracle);
    let log = oracle.log;
    let name = &ts.tasks()[raw.task].name;
    let forced_faults = log
        .iter()
        .filter(|r| r.chosen == Choice::TransferFault(true))
        .count();
    let (rule, message) = match raw.race {
        Some((write, clobbered, kind)) => (
            Rule::Rtm051,
            format!(
                "a double-buffer staging race is reachable at cycle {}: the DMA writes \
                 segment {write} over {} segment {clobbered} of job {} \
                 (staging window {}, {} runs, {} states explored)",
                raw.at.get(),
                match kind {
                    RaceKind::CpuRead => "the CPU-read",
                    RaceKind::StagedUnconsumed => "staged-unconsumed",
                },
                raw.job,
                cfg.staging_window,
                stats.runs,
                stats.states,
            ),
        ),
        None if forced_faults > 0 => (
            Rule::Rtm052,
            format!(
                "the DMA retry budget (max_retries = {}) is insufficient: job {} misses \
                 its deadline at cycle {} on a path with {forced_faults} injected fault(s) \
                 ({} runs, {} states explored)",
                cfg.fault.max_retries,
                raw.job,
                raw.at.get(),
                stats.runs,
                stats.states,
            ),
        ),
        None => (
            Rule::Rtm050,
            format!(
                "a deadline miss is reachable: job {} misses at cycle {} under an \
                 admissible interleaving ({} runs, {} states explored)",
                raw.job,
                raw.at.get(),
                stats.runs,
                stats.states,
            ),
        ),
    };
    let dominant_blame = victim_blame(&result, TaskId(raw.task), JobId(raw.job));
    let witness = Witness {
        schema: WITNESS_SCHEMA.to_owned(),
        rule: rule.id().to_owned(),
        task: raw.task,
        job: raw.job,
        at: raw.at.get(),
        dominant_blame,
        task_set: ts.clone(),
        platform: platform.clone(),
        config: cfg.clone(),
        script: log
            .iter()
            .map(|r| ScriptedChoice {
                point: r.point,
                value: r.chosen,
            })
            .collect(),
    };
    ExploreOutcome {
        findings: vec![Finding::new(rule, message).with_task(name.clone())],
        witness: Some(witness),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::{ContentionModel, FaultPlan};
    use rtmdm_sched::sim::Policy;
    use rtmdm_sched::{Segment, SporadicTask, StagingMode};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn bare_platform() -> PlatformConfig {
        let mut p = PlatformConfig::stm32f746_qspi();
        p.contention = ContentionModel::NONE;
        p.context_switch_cycles = Cycles::ZERO;
        p.ext_mem.setup_cycles = Cycles::ZERO;
        p.ext_mem.cycles_per_byte_num = 1;
        p.ext_mem.cycles_per_byte_den = 1;
        p
    }

    fn resident(name: &str, period: u64, deadline: u64, compute: u64) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(deadline),
            vec![Segment::new(cy(compute), 0)],
            StagingMode::Resident,
        )
        .expect("valid task")
    }

    fn overlapped(name: &str, period: u64, segs: &[(u64, u64)]) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(period),
            segs.iter().map(|&(c, b)| Segment::new(cy(c), b)).collect(),
            StagingMode::Overlapped,
        )
        .expect("valid task")
    }

    fn config(horizon: u64) -> SimConfig {
        SimConfig::new(cy(horizon), Policy::FixedPriority)
    }

    #[test]
    fn feasible_set_is_proven_safe() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let mut cfg = config(4_000);
        cfg.exec_scale_min_ppm = 500_000;
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &bare_platform(), &cfg, &limits);
        assert!(out.proven_safe(), "findings: {:?}", out.findings);
        assert!(out.witness.is_none());
        assert!(out.stats.runs > 1, "jitter/scale dimensions must branch");
    }

    #[test]
    fn jitter_reachable_miss_is_found_with_replayable_witness() {
        // Feasible when periodic: 600 compute in a 1000 deadline. A
        // 500-cycle jitter on the release pushes completion past the
        // anchored deadline.
        let ts = TaskSet::from_tasks(vec![resident("t", 2_000, 1_000, 600)]);
        let cfg = config(8_000);
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 500,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &bare_platform(), &cfg, &limits);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::Rtm050);
        let w = out.witness.expect("violation carries a witness");
        assert_eq!(w.rule, "RTM050");
        let replay = w.replay();
        let miss = replay
            .trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. }))
            .expect("replay reproduces the miss");
        assert_eq!(miss.time.get(), w.at, "predicted == replayed instant");
    }

    #[test]
    fn widened_staging_window_reaches_rtm051() {
        let ts = TaskSet::from_tasks(vec![overlapped(
            "a",
            2_000_000,
            &[
                (200_000, 256),
                (200_000, 256),
                (200_000, 256),
                (200_000, 256),
            ],
        )]);
        let mut cfg = config(2_000_000);
        cfg.staging_window = 3;
        let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::Rtm051);
        let w = out.witness.expect("witness");
        let replay = w.replay();
        assert!(!replay.races.is_empty());
        assert_eq!(replay.races[0].at.get(), w.at);
    }

    #[test]
    fn insufficient_retry_budget_is_rtm052() {
        // One fetch-heavy task whose deadline only holds when no
        // transfer faults: each injected fault re-issues a 4096-cycle
        // transfer, and two of them push the job past its deadline.
        let ts = TaskSet::from_tasks(vec![overlapped(
            "a",
            40_000,
            &[(1_000, 4_096), (1_000, 4_096), (1_000, 4_096)],
        )]);
        let mut cfg = config(40_000);
        cfg.fault = FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 1,
            max_retries: 3,
            jitter_max_cycles: 0,
        };
        let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
        assert_eq!(out.findings.len(), 1, "findings: {:?}", out.findings);
        assert_eq!(out.findings[0].rule, Rule::Rtm052);
        let w = out.witness.expect("witness");
        assert!(w
            .script
            .iter()
            .any(|s| s.value == Choice::TransferFault(true)));
        let replay = w.replay();
        assert!(replay
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. })));
    }

    #[test]
    fn tiny_budget_is_inconclusive_not_safe() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 1_500, 1_500, 300),
        ]);
        let mut cfg = config(30_000);
        cfg.exec_scale_min_ppm = 400_000;
        let limits = ExploreLimits {
            max_states: 3,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &bare_platform(), &cfg, &limits);
        assert!(!out.stats.complete);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::Rtm053);
        assert!(!out.proven_safe());
        // The first run already passes the budget, and each pair it
        // expands has one untaken alternative: the cut leaves exactly
        // `states` branches on the stack, none of them run.
        assert_eq!(out.stats.runs, 1);
        let states = out.stats.states;
        let counts = format!("({states} states, 1 runs, {states} unexplored branches)");
        assert!(
            out.findings[0].message.contains(&counts),
            "{}",
            out.findings[0].message
        );
    }

    #[test]
    fn safe_verdict_requires_no_unexplored_branches() {
        // An empty task set explores trivially and completely.
        let out = explore(
            &TaskSet::new(),
            &bare_platform(),
            &config(1_000),
            &ExploreLimits::default(),
        );
        assert!(out.proven_safe());
        assert_eq!(out.stats.runs, 1);
        assert_eq!(out.stats.states, 0);
    }

    /// Renders an outcome into one comparable blob: findings, witness
    /// JSON, and counters. Byte-equality of these blobs is the cross-
    /// strategy contract.
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

    fn strategy_outcomes(
        ts: &TaskSet,
        cfg: &SimConfig,
        limits: &ExploreLimits,
    ) -> (ExploreOutcome, ExploreOutcome) {
        let forked = explore(
            ts,
            &bare_platform(),
            cfg,
            &ExploreLimits {
                strategy: ExploreStrategy::Fork,
                ..*limits
            },
        );
        let replayed = explore(
            ts,
            &bare_platform(),
            cfg,
            &ExploreLimits {
                strategy: ExploreStrategy::Replay,
                ..*limits
            },
        );
        (forked, replayed)
    }

    #[test]
    fn fork_and_replay_agree_on_a_safe_space() {
        let pair = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let triple = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 1_500, 1_500, 300),
            resident("c", 3_000, 3_000, 250),
        ]);
        for (ts, horizon) in [(pair, 4_000), (triple, 6_000)] {
            let mut cfg = config(horizon);
            cfg.exec_scale_min_ppm = 500_000;
            let limits = ExploreLimits {
                max_states: 10_000,
                jitter_max_cycles: 100,
                ..ExploreLimits::default()
            };
            let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits);
            assert!(forked.proven_safe(), "{} tasks", ts.len());
            assert_eq!(fingerprint(&forked), fingerprint(&replayed));
        }
    }

    #[test]
    fn fork_and_replay_agree_on_a_violation_and_its_witness() {
        let ts = TaskSet::from_tasks(vec![resident("t", 2_000, 1_000, 600)]);
        let cfg = config(8_000);
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 500,
            ..ExploreLimits::default()
        };
        let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits);
        assert_eq!(forked.findings.len(), 1);
        assert_eq!(fingerprint(&forked), fingerprint(&replayed));
    }

    #[test]
    fn fork_and_replay_agree_under_fault_exploration() {
        let ts = TaskSet::from_tasks(vec![overlapped(
            "a",
            40_000,
            &[(1_000, 4_096), (1_000, 4_096), (1_000, 4_096)],
        )]);
        let mut cfg = config(40_000);
        cfg.fault = FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 1,
            max_retries: 3,
            jitter_max_cycles: 0,
        };
        let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits_default());
        assert_eq!(forked.findings[0].rule, Rule::Rtm052);
        assert_eq!(fingerprint(&forked), fingerprint(&replayed));
    }

    fn limits_default() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn deep_first_order_preserves_the_verdict_and_strategy_identity() {
        // The order changes run/transition counters (which branch pops
        // next), never the safety verdict of a completed search — and
        // fork-versus-replay byte-identity must hold within the order.
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let mut cfg = config(4_000);
        cfg.exec_scale_min_ppm = 500_000;
        let shallow = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let deep = ExploreLimits {
            order: ExploreOrder::DeepFirst,
            ..shallow
        };
        let (s_fork, s_replay) = strategy_outcomes(&ts, &cfg, &shallow);
        let (d_fork, d_replay) = strategy_outcomes(&ts, &cfg, &deep);
        assert!(s_fork.proven_safe());
        assert!(d_fork.proven_safe());
        // Both orders cover the same lattice.
        assert_eq!(s_fork.stats.states, d_fork.stats.states);
        assert_eq!(fingerprint(&s_fork), fingerprint(&s_replay));
        assert_eq!(fingerprint(&d_fork), fingerprint(&d_replay));
    }

    #[test]
    fn budget_cut_is_identical_across_strategies() {
        // The RTM053 message embeds states, runs, and the residual
        // stack depth — all three must survive forking.
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 1_500, 1_500, 300),
        ]);
        let mut cfg = config(30_000);
        cfg.exec_scale_min_ppm = 400_000;
        let limits = ExploreLimits {
            max_states: 3,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits);
        assert_eq!(forked.findings[0].rule, Rule::Rtm053);
        assert_eq!(fingerprint(&forked), fingerprint(&replayed));
    }

    #[test]
    fn branches_share_their_runs_path_and_force_the_copied_prefix() {
        // Drives the search by hand and checks every pushed item
        // against the construction that copied a whole prefix per
        // branch: same forced choices, same resume base, and siblings
        // reading one shared path.
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let mut cfg = config(4_000);
        cfg.exec_scale_min_ppm = 500_000;
        cfg.attribution = true;
        let domains = Domains {
            exec_scale_min_ppm: cfg.exec_scale_min_ppm,
            jitter_max_cycles: 100,
            explore_faults: false,
        };
        let platform = bare_platform();
        let cases = [
            (ExploreOrder::ShallowFirst, true),
            (ExploreOrder::ShallowFirst, false),
            (ExploreOrder::DeepFirst, true),
            (ExploreOrder::DeepFirst, false),
        ];
        for (order, fork) in cases {
            let mut visited = VisitedSet::new();
            let root = WorkItem {
                path: Rc::from([]),
                at: 0,
                alt: None,
                base: None,
            };
            let mut stack = vec![(root, Vec::new())];
            let (mut runs, mut shared, mut forked) = (0, 0, 0);
            while let Some((item, prefix)) = stack.pop() {
                let run = run_path(&ts, &platform, &cfg, &domains, &visited, &item, fork);
                runs += 1;
                let merged = merge_path(&run.log, &mut visited);
                let mut children = Vec::new();
                push_branches(&mut children, &item, &run, merged.expansions.clone(), order);

                let scheduled: Vec<usize> = match order {
                    ExploreOrder::ShallowFirst => merged.expansions.iter().rev().copied().collect(),
                    ExploreOrder::DeepFirst => merged.expansions,
                };
                let mut expected = Vec::new();
                for i in scheduled {
                    let at = run.consumed + i;
                    let base = run.snaps.iter().rev().find(|fb| fb.consumed <= at);
                    let base = base.or(item.base.as_ref()).map(|fb| fb.consumed);
                    for &alt in run.log[i].branch.iter().flat_map(|(_, alts)| alts) {
                        let mut copied: Vec<Choice> = prefix[..run.consumed].to_vec();
                        copied.extend(run.log[..i].iter().map(|r| r.chosen));
                        copied.push(alt);
                        expected.push((copied, base));
                    }
                }
                let pushed: Vec<(Vec<Choice>, Option<usize>)> = children
                    .iter()
                    .map(|c| (c.forced_from(0), c.base.as_ref().map(|fb| fb.consumed)))
                    .collect();
                assert_eq!(pushed, expected, "{order:?}, fork {fork}, run {runs}");
                for c in &children {
                    assert!(Rc::ptr_eq(&c.path, &children[0].path));
                    assert!(c.base.as_ref().map_or(0, |fb| fb.consumed) <= c.at);
                }
                shared += usize::from(children.len() > 1);
                forked += children.iter().filter(|c| c.base.is_some()).count();
                stack.extend(children.into_iter().zip(expected.into_iter().map(|e| e.0)));
            }
            assert!(runs > 1, "{order:?}, fork {fork}: the space must branch");
            assert!(
                shared > 0,
                "{order:?}, fork {fork}: some run schedules siblings"
            );
            assert_eq!(
                forked > 0,
                fork,
                "{order:?}: only fork resumes from snapshots"
            );
        }
    }
}
