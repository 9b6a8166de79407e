//! Event-driven simulation of segment-level scheduling on the MCU
//! platform: one CPU, one DMA channel, a shared bus with mutual
//! contention, preemption only at segment boundaries.
//!
//! The simulator is the ground truth the analyses are validated against:
//! the soundness property tests assert that any task set the RT-MDM
//! analysis admits runs without a deadline miss here, under worst-case
//! and jittered execution times alike.
//!
//! ## Execution semantics
//!
//! - A job is released periodically; its segments execute in order.
//! - Segment `k` may start computing only once its weights are staged.
//! - Under [`StagingMode::Overlapped`], staging keeps a two-segment
//!   window: the fetch of segment 0 is issued at release, and the fetch
//!   of segment `k` (k ≥ 2) becomes admissible once compute of segment
//!   `k−2` has completed (that segment's half of the double buffer is
//!   dead from then on). Fetched segments survive preemption — each
//!   task owns its buffers.
//! - The CPU is claimed at *scheduling points* (segment completion, or
//!   any event while the CPU is idle) by the highest-priority task whose
//!   next segment is staged. Segments are never preempted mid-flight.
//! - The single DMA channel serves the highest-priority pending
//!   request and **preempts** an in-flight lower-priority transfer when
//!   a higher-priority one arrives (weight blocks are descriptor
//!   chains, so the driver switches streams at burst granularity; the
//!   re-arm cost is folded into the per-transfer setup charge).
//! - While the CPU computes and the DMA streams simultaneously, both
//!   progress at their inflated (contended) rates. Progress is tracked
//!   with an exact sub-cycle carry (see `contended_progress`), so a
//!   contended phase retires the same total work regardless of how many
//!   event instants cut it — the simulator never runs slower than the
//!   analysis's single-ceiling inflation bound, and all arithmetic is
//!   integral, so runs are bit-reproducible.
//!
//! ## Time advancement
//!
//! One discrete-event loop drives the clock. Timer releases and
//! deadline checks live in an [`EventQueue`] that drains in time order,
//! ties in push order; each iteration jumps to the earliest of the
//! queue head and the two resources' finish instants, settles the
//! elapsed interval, then processes the instant: resource completions
//! first, then that instant's timer events, then the dispatch fixpoint.
//! See `DESIGN.md` §2.3 for the settlement-exactness argument.
//!
//! ## Fingerprint
//!
//! The oracle's [`StateHash`] is the derived [`Hash`] of the simulator
//! state without its record of the past (`State::fingerprint`), so a
//! field added to the state is fingerprinted with no edit to hashing
//! code. It is computed only at the queries whose oracle pulls it
//! ([`SimOracle::answer`]).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{
    Cycles, EventQueue, FaultInjector, FaultPlan, JobId, PlatformConfig, SegmentId, TaskId, Trace,
    TraceKind,
};
use rtmdm_obs::Histogram;

use crate::script::{Choice, ChoicePoint, SimOracle, StableHash, StateHash};
use crate::task::{MissPolicy, StagingMode, TaskSet};

/// Scheduling policy of the CPU (and the DMA request queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Policy {
    /// Fixed priority: task-set index order (0 = highest).
    FixedPriority,
    /// Earliest deadline first over head jobs' absolute deadlines.
    Edf,
}

/// Time-advancement engine of the simulator. There is one (see the
/// module docs); the type survives so that serialized configurations,
/// witness JSON among them, keep their `"engine":"Des"` field and stay
/// byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// The discrete-event loop.
    #[default]
    Des,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulation horizon; only jobs whose absolute deadline falls
    /// within the horizon are released (so every released job gets its
    /// full window).
    pub horizon: Cycles,
    /// CPU/DMA scheduling policy.
    pub policy: Policy,
    /// Lower bound of the per-job execution-time scale in parts per
    /// million. `1_000_000` (the default) runs every job at WCET;
    /// smaller values draw each job's scale uniformly from
    /// `[exec_scale_min_ppm, 1_000_000]`.
    pub exec_scale_min_ppm: u64,
    /// RNG seed for execution-time variation and nothing else.
    pub seed: u64,
    /// Dispatch discipline at scheduling points. `false` (the RT-MDM
    /// default) is the **priority-gated, non-work-conserving** rule:
    /// while the highest-priority active job waits for its DMA, the CPU
    /// idles rather than admitting a lower-priority non-preemptive
    /// segment — each task suffers lower-priority blocking at most once
    /// per job. `true` is the work-conserving rule: any ready segment
    /// may run, trading repeated blocking for higher CPU usage.
    pub work_conserving: bool,
    /// Fault environment of the run ([`FaultPlan::NONE`] by default).
    /// When inactive, the simulator consults no fault RNG and the run
    /// is byte-identical to one without an injector at all.
    pub fault: FaultPlan,
    /// Time-advancement engine; [`Engine::Des`] is the only one.
    pub engine: Engine,
    /// When `true`, the simulator emits the causal-attribution anchor
    /// events ([`TraceKind::FetchWaitBegan`]/[`TraceKind::FetchWaitEnded`],
    /// [`TraceKind::SegmentStalled`], [`TraceKind::Resumed`]) that the
    /// observability layer's blame reconstruction consumes. `false`
    /// (the default) produces a trace byte-identical to one from before
    /// attribution existed — stats and metrics are unaffected either
    /// way.
    pub attribution: bool,
    /// Width of the staging window under [`StagingMode::Overlapped`]:
    /// fetch `k` becomes admissible once compute of segment `k − w` has
    /// retired (fetches `0..w` are admissible immediately). The default
    /// `2` is the paper's double-buffer discipline, matched to the two
    /// physical buffer halves — and the only safe width: a wider window
    /// lets the DMA write a half whose previous tenant is still staged
    /// or being read, which the always-on race monitor records in
    /// [`SimResult::races`]. Widths other than 2 exist for the
    /// schedule-space explorer's negative tests (RTM051 reachability).
    pub staging_window: u32,
}

impl SimConfig {
    /// WCET run over `horizon` under the given policy, priority-gated.
    pub fn new(horizon: Cycles, policy: Policy) -> Self {
        SimConfig {
            horizon,
            policy,
            exec_scale_min_ppm: 1_000_000,
            seed: 0,
            work_conserving: false,
            fault: FaultPlan::NONE,
            engine: Engine::Des,
            attribution: false,
            staging_window: 2,
        }
    }
}

/// What a recorded staging race clobbered (see [`StagingRace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RaceKind {
    /// The DMA wrote the buffer half the CPU was reading from (compute
    /// of another segment mapped to the same half was in flight).
    CpuRead,
    /// The DMA overwrote a segment that was staged but not yet
    /// consumed — its data is lost before compute ever reads it.
    StagedUnconsumed,
}

/// A double-buffer discipline violation observed by the simulator's
/// always-on race monitor: a DMA write into a buffer half whose
/// previous tenant segment was still live. Provably unreachable at the
/// default [`SimConfig::staging_window`] of 2 (the monitor is the
/// runtime witness of that claim); reachable — and recorded — under
/// wider experimental windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagingRace {
    /// Instant the overlap began.
    pub at: Cycles,
    /// Task whose buffers raced.
    pub task: usize,
    /// Owning job id.
    pub job: u64,
    /// Segment the DMA was writing.
    pub write_seg: usize,
    /// Live segment in the same buffer half that got clobbered.
    pub clobbered_seg: usize,
    /// Which way the half was still live.
    pub kind: RaceKind,
}

/// Per-task simulation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TaskStats {
    /// Jobs released.
    pub releases: u64,
    /// Jobs completed within the horizon.
    pub completions: u64,
    /// Deadline misses (each job counted at most once).
    pub misses: u64,
    /// Largest observed response time.
    pub max_response: Cycles,
    /// Sum of response times (for averaging).
    pub total_response: u64,
    /// Segment-boundary preemptions suffered.
    pub preemptions: u64,
    /// DMA transfer retries caused by injected faults.
    pub retries: u64,
    /// Releases shed by [`MissPolicy::SkipNextRelease`].
    pub shed: u64,
    /// Jobs dropped by [`MissPolicy::Abort`].
    pub aborted: u64,
    /// Log₂-bucketed response-time histogram, in cycles: bucket `k`
    /// counts responses in `[2^k, 2^(k+1))` (bucket 0 covers 0–1).
    pub response_hist: Histogram,
}

/// One task's response-time summary, as `rtmdm explain --json` and
/// `BENCH_run_all.json` report it.
///
/// Percentiles are upper bucket bounds of the task's log₂ response
/// histogram ([`Histogram::percentile_upper`]): exact, deterministic,
/// and `None` when the task completed no jobs. `max` is the exact
/// observed maximum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseSummary {
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
    pub max: u64,
}

impl ResponseSummary {
    /// Summarizes the statistics of the task named `task`.
    pub fn new(task: impl Into<String>, stats: &TaskStats) -> Self {
        let pct = |p: u64| stats.response_hist.percentile_upper(p);
        ResponseSummary {
            task: task.into(),
            completions: stats.completions,
            p50_upper: pct(50),
            p95_upper: pct(95),
            p99_upper: pct(99),
            max: stats.max_response.get(),
        }
    }
}

/// Aggregate resource metrics of one run, accounted exactly in the
/// simulator hot loop (not re-derived from the trace).
///
/// Wall time is partitioned: `cpu_busy_cycles + cpu_idle_cycles` equals
/// the horizon exactly in every run that reaches it, and all values are
/// integer sums — so they are byte-identical across `RTMDM_THREADS`
/// settings. The only runs that end early are those whose oracle asks
/// to stop ([`SimOracle::stop_after_instant`]), which the explorer does
/// alone; their two counters partition the span up to the instant the
/// run stopped after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Wall cycles the CPU held a segment (compute + context-switch
    /// charge + contention stall).
    pub cpu_busy_cycles: Cycles,
    /// Wall cycles the CPU sat idle: exactly `horizon - cpu_busy_cycles`
    /// in a run that reaches the horizon.
    pub cpu_idle_cycles: Cycles,
    /// Wall cycles the DMA channel was streaming a transfer.
    pub dma_busy_cycles: Cycles,
    /// CPU wall cycles lost to bus contention (wall time minus work
    /// retired while both masters were active).
    pub cpu_stall_cycles: Cycles,
    /// DMA wall cycles lost to bus contention.
    pub dma_stall_cycles: Cycles,
    /// Segment-boundary preemptions across all tasks.
    pub preemptions: u64,
    /// Segment transitions whose next weights were already staged when
    /// the previous segment retired (the double buffer hid the fetch).
    pub prefetch_hits: u64,
    /// Segment transitions (and lead-in fetches) that had to wait on
    /// the DMA before compute could proceed.
    pub blocking_fetches: u64,
    /// DMA transfers corrupted by the fault injector.
    pub injected_faults: u64,
    /// Re-issued transfers (equals `injected_faults`: every fault is
    /// retried, and the retry bound guarantees eventual success).
    pub fetch_retries: u64,
    /// Total DMA work cycles spent on re-issued transfers — the
    /// re-fetch cost the fault environment added to the bus.
    pub refetch_cycles: Cycles,
    /// Releases shed by [`MissPolicy::SkipNextRelease`] across tasks.
    pub shed_jobs: u64,
    /// Jobs dropped by [`MissPolicy::Abort`] across tasks.
    pub aborted_jobs: u64,
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// The full event trace.
    pub trace: Trace,
    /// Horizon the run covered (the configured one; a run its oracle
    /// stopped early covers only up to the instant it stopped after).
    pub horizon: Cycles,
    /// Per-task statistics, index-aligned with the task set.
    pub stats: Vec<TaskStats>,
    /// Aggregate resource metrics of the run.
    pub metrics: SimMetrics,
    /// Staging races the always-on monitor observed — empty at the
    /// default staging window (see [`StagingRace`]).
    pub races: Vec<StagingRace>,
}

impl SimResult {
    /// Total deadline misses across tasks.
    pub fn total_misses(&self) -> u64 {
        self.stats.iter().map(|s| s.misses).sum()
    }

    /// Whether no deadline was missed.
    pub fn no_misses(&self) -> bool {
        self.total_misses() == 0
    }

    /// Largest observed response of task `idx`.
    pub fn max_response_of(&self, idx: usize) -> Cycles {
        self.stats
            .get(idx)
            .map(|s| s.max_response)
            .unwrap_or(Cycles::ZERO)
    }
}

const PPM: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, Hash)]
enum TimedEvent {
    Release(usize),
    DeadlineCheck(usize, u64),
    /// Oracle mode only: a job whose release the oracle jittered enters
    /// the system at this instant; `nominal` anchors its deadline.
    JitteredRelease {
        task: usize,
        id: u64,
        nominal: Cycles,
    },
}

#[derive(Debug, Clone, Hash)]
struct Job {
    id: u64,
    release: Cycles,
    abs_deadline: Cycles,
    seg_compute: Vec<Cycles>,
    next_seg: usize,
    staged: usize,
    fetch_requested: usize,
    miss_recorded: bool,
    /// Under [`MissPolicy::Abort`], set when the deadline passed while
    /// the job held the CPU: the in-flight segment finishes (segments
    /// are non-preemptive), then the job is dropped at the boundary.
    abort_pending: bool,
}

#[derive(Debug, Clone, Hash)]
struct TaskState {
    jobs: std::collections::VecDeque<Job>,
    next_release: Cycles,
    released: u64,
    /// Under [`MissPolicy::SkipNextRelease`], set when a job misses its
    /// deadline: the next release is shed wholesale (overload
    /// shedding), then the flag clears.
    skip_next: bool,
    /// Attribution mode only: the `(job, segment)` whose fetch wait is
    /// currently open (a [`TraceKind::FetchWaitBegan`] without its
    /// matching end). `None` otherwise.
    wait_open: Option<(u64, usize)>,
}

#[derive(Debug, Clone, Copy, Hash)]
struct CpuExec {
    task: usize,
    seg: usize,
    remaining: Cycles,
    /// Sub-cycle contended progress carried across advance boundaries,
    /// as a numerator over `PPM + cpu_inflation_ppm`. Without this
    /// carry, every event instant that cuts a contended interval would
    /// floor away up to one work cycle, and a segment crossed by many
    /// events could run longer than the analysis's single-ceiling
    /// inflated bound — an unsoundness, not a modeling choice.
    credit: u64,
    /// Instant this occupancy was dispatched. Occupancies are
    /// non-preemptive, so `now − started` at completion is the exact
    /// wall time, and `wall − nominal` the exact contention stall the
    /// settlement accounting charged this segment.
    started: Cycles,
    /// Nominal work of the occupancy (scaled compute + context-switch
    /// charge), fixed at dispatch.
    nominal: Cycles,
}

/// One DMA transfer, queued or on the channel. A suspended transfer
/// returns to the queue as it stands, so preemption never discards
/// partial work.
#[derive(Debug, Clone, Copy, Hash)]
struct Transfer {
    task: usize,
    seg: usize,
    /// Owning job, so fault decisions are keyed to the exact transfer
    /// and transfers of an aborted job can be cancelled precisely.
    job: u64,
    /// 0-based retry attempt of this transfer (0 = first issue).
    attempt: u32,
    remaining: Cycles,
    deadline: Cycles, // EDF key, kept for preemption comparisons
    /// Sub-cycle contended progress (see [`CpuExec::credit`]), over
    /// `PPM + dma_inflation_ppm`.
    credit: u64,
}

/// The simulator's dynamic state: everything a [`SimSnapshot`] restores
/// and nothing else. The trace, the RNG, the stateless fault injector
/// and the oracle with its query count stay in `Sim`; [`SimSnapshot`]
/// says how a resume recovers the trace and the query position.
///
/// Its derived [`Hash`] is the fingerprint ([`State::fingerprint`]):
/// every field outside [`Past`] decides future behavior and is hashed.
#[derive(Debug, Clone, Hash)]
struct State {
    now: Cycles,
    events: EventQueue<TimedEvent>,
    tasks: Vec<TaskState>,
    cpu: Option<CpuExec>,
    dma: Option<Transfer>,
    dma_queue: Vec<Transfer>,
    last_cpu_task: Option<usize>,
    past: Past,
}

/// What a run has recorded so far, which no dispatch, fetch or choice
/// point reads, so its [`Hash`] writes nothing and equal fingerprints
/// still imply identical future schedules.
#[derive(Debug, Clone)]
struct Past {
    stats: Vec<TaskStats>,
    metrics: SimMetrics,
    /// Whether a [`TraceKind::CpuIdle`] is open (no `CpuIdleEnd` yet).
    /// It only decides whether the next idle stretch emits a fresh
    /// marker, never a dispatch, a stat or a metric.
    idle_open: bool,
    /// Staging-race observations (see [`StagingRace`]).
    races: Vec<StagingRace>,
}

impl Hash for Past {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// A resumable mid-run image of the simulator, captured at an instant
/// boundary (loop top, before the clock advances into the instant).
///
/// A snapshot is one `State` — the pending-event queue, both resource
/// slots with their sub-cycle credits, per-task job queues, the staging
/// request queue, stats/metrics accumulators — plus the *position* of
/// the run at capture: how many oracle queries were answered and how
/// many trace events were emitted before the captured instant. The
/// trace itself is not copied per snapshot: traces are append-only, so
/// every snapshot of a run shares one `Arc` of the finished trace and a
/// resume truncates it back to the captured length
/// ([`Trace::truncated`]).
///
/// Deliberately **excluded** is the RNG, which is never consulted in
/// oracle mode (the only mode snapshots exist in); the fault injector
/// is stateless. A run resumed from a snapshot is byte-identical to the
/// run that captured it, including every fingerprint its oracle pulls
/// (pinned by tests).
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    state: State,
    trace_len: usize,
    queries_before: usize,
    /// The capturing run's full trace, attached once when that run
    /// finishes and shared by all of its snapshots.
    trace_src: Option<Arc<Trace>>,
}

impl SimSnapshot {
    /// How many oracle queries the capturing run had answered before
    /// the captured instant. A resumed run re-asks exactly the queries
    /// from this position on; callers use it to translate between
    /// absolute choice positions and snapshot-relative ones.
    pub fn queries_before(&self) -> usize {
        self.queries_before
    }

    /// The instant the snapshot was captured at (the boundary *before*
    /// this instant is processed).
    pub fn instant(&self) -> Cycles {
        self.state.now
    }

    /// Approximate heap footprint of the snapshot in bytes — the cost
    /// audit for the fork path (DESIGN.md §2.7). Dominated by the job
    /// queues and the event queue; the shared trace `Arc` is counted as
    /// a pointer, not as the trace.
    pub fn size_hint(&self) -> usize {
        use std::mem::size_of;
        let s = &self.state;
        let jobs: usize = s.tasks.iter().map(|t| t.jobs.len()).sum();
        let seg_cycles: usize = s
            .tasks
            .iter()
            .flat_map(|t| t.jobs.iter())
            .map(|j| j.seg_compute.len())
            .sum();
        size_of::<SimSnapshot>()
            + s.tasks.len() * size_of::<TaskState>()
            + jobs * size_of::<Job>()
            + seg_cycles * size_of::<Cycles>()
            + s.events.len() * (size_of::<TimedEvent>() + 2 * size_of::<u64>())
            + s.dma_queue.len() * size_of::<Transfer>()
            + s.past.stats.len() * size_of::<TaskStats>()
            + s.past.races.len() * size_of::<StagingRace>()
    }
}

struct Sim<'a> {
    ts: &'a TaskSet,
    platform: &'a PlatformConfig,
    config: &'a SimConfig,
    state: State,
    trace: Trace,
    rng: StdRng,
    /// Fault decisions for DMA transfers; inactive injectors answer
    /// every query with a constant zero and touch no RNG.
    injector: FaultInjector,
    /// Choice oracle (`simulate_with_oracle`): when present, it — not
    /// the RNG or the injector — answers every nondeterministic
    /// question, and the run consults no RNG at all.
    oracle: Option<&'a mut dyn SimOracle>,
    /// Oracle queries answered so far in *this* run (resumed runs count
    /// from the snapshot, not from time zero). Positions snapshots
    /// relative to the choice sequence.
    queries: usize,
    /// Whether the run has recorded a deadline miss (a resumed run
    /// counts the captured prefix's). With `state.past.races`, it is what
    /// the oracle's stop hook is told about violations, at O(1) per
    /// instant.
    missed: bool,
    /// Fork support: when present, a [`SimSnapshot`] is pushed here at
    /// every instant boundary that may reach an oracle query.
    capture: Option<&'a mut Vec<SimSnapshot>>,
}

impl<'a> Sim<'a> {
    /// A simulator at time zero with empty queues and no pending event.
    fn new(
        ts: &'a TaskSet,
        platform: &'a PlatformConfig,
        config: &'a SimConfig,
        oracle: Option<&'a mut dyn SimOracle>,
        capture: Option<&'a mut Vec<SimSnapshot>>,
    ) -> Sim<'a> {
        let task = TaskState {
            jobs: std::collections::VecDeque::new(),
            next_release: Cycles::ZERO,
            released: 0,
            skip_next: false,
            wait_open: None,
        };
        Sim {
            ts,
            platform,
            config,
            state: State {
                now: Cycles::ZERO,
                events: EventQueue::new(),
                tasks: vec![task; ts.len()],
                cpu: None,
                dma: None,
                dma_queue: Vec::new(),
                last_cpu_task: None,
                past: Past {
                    stats: vec![TaskStats::default(); ts.len()],
                    metrics: SimMetrics::default(),
                    idle_open: false,
                    races: Vec::new(),
                },
            },
            trace: Trace::new(),
            rng: StdRng::seed_from_u64(config.seed),
            injector: FaultInjector::new(config.fault),
            oracle,
            queries: 0,
            missed: false,
            capture,
        }
    }
}

/// Runs the simulation of `ts` on `platform` under `config`.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, PlatformConfig};
/// use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};
/// use rtmdm_sched::sim::{simulate, Policy, SimConfig};
///
/// # fn main() -> Result<(), rtmdm_sched::TaskError> {
/// let t = SporadicTask::new(
///     "t", Cycles::new(10_000), Cycles::new(10_000),
///     vec![Segment::new(Cycles::new(1_000), 256)], StagingMode::Overlapped,
/// )?;
/// let result = simulate(
///     &TaskSet::from_tasks(vec![t]),
///     &PlatformConfig::stm32f746_qspi(),
///     &SimConfig::new(Cycles::new(100_000), Policy::FixedPriority),
/// );
/// assert!(result.no_misses());
/// assert_eq!(result.stats[0].releases, 10);
/// # Ok(())
/// # }
/// ```
pub fn simulate(ts: &TaskSet, platform: &PlatformConfig, config: &SimConfig) -> SimResult {
    run_sim(ts, platform, config, None, None, None)
}

/// Runs the simulation with every nondeterministic decision answered by
/// `oracle` instead of the seeded RNG and the fault injector (see
/// [`crate::script`]). The simulator consults the oracle in its
/// deterministic event order, so the query sequence — and therefore a
/// replayed run — is reproducible. An oracle that answers every query
/// with its deterministic default produces a run byte-identical to
/// [`simulate`] of the same config (pinned by tests). An oracle whose
/// [`SimOracle::stop_after_instant`] answers `true` ends the run after
/// the instant being processed: its trace and query sequence are then
/// exact prefixes of the full run's. The hook is told whether the run
/// has recorded a violation (a deadline miss or a staging race) so far,
/// so an oracle can end a run at its first violating instant.
pub fn simulate_with_oracle(
    ts: &TaskSet,
    platform: &PlatformConfig,
    config: &SimConfig,
    oracle: &mut dyn SimOracle,
) -> SimResult {
    run_sim(ts, platform, config, Some(oracle), None, None)
}

/// [`simulate_with_oracle`] with fork support — the incremental
/// re-execution primitive of the schedule-space explorer.
///
/// - `resume_from` re-enters a mid-run [`SimSnapshot`] instead of
///   starting at time zero: the run continues from the captured instant
///   boundary and is byte-identical (trace, stats, metrics, races,
///   fingerprints) to the suffix of the run that captured it. Its cost
///   is proportional to the *remaining* horizon, not the full one.
/// - `capture`, when provided, collects a snapshot at every instant
///   boundary that may reach an oracle query (a release entering a job,
///   or a DMA completion under an active fault environment), so a
///   caller branching at choice point `q` can fork from the latest
///   snapshot with [`SimSnapshot::queries_before`]` ≤ q` and replay at
///   most one partial instant. Snapshots are finalized (their shared
///   trace attached) before this function returns.
///
/// The predicate over-approximates: a captured instant may turn out to
/// ask nothing. It can also under-approximate only at the cost of
/// speed, never soundness — branches then fork from an earlier
/// snapshot, or from time zero if none precedes them.
pub fn simulate_with_oracle_forked(
    ts: &TaskSet,
    platform: &PlatformConfig,
    config: &SimConfig,
    oracle: &mut dyn SimOracle,
    resume_from: Option<&SimSnapshot>,
    capture: Option<&mut Vec<SimSnapshot>>,
) -> SimResult {
    run_sim(ts, platform, config, Some(oracle), resume_from, capture)
}

fn run_sim<'a>(
    ts: &'a TaskSet,
    platform: &'a PlatformConfig,
    config: &'a SimConfig,
    oracle: Option<&'a mut dyn SimOracle>,
    resume_from: Option<&SimSnapshot>,
    capture: Option<&'a mut Vec<SimSnapshot>>,
) -> SimResult {
    // Snapshots exclude the RNG (never consulted under an oracle), so
    // fork/capture are defined in oracle mode only.
    let oracle_mode = oracle.is_some();
    assert!(
        oracle_mode || (resume_from.is_none() && capture.is_none()),
        "fork/capture require an oracle"
    );
    let capture_base = capture.as_ref().map_or(0, |c| c.len());
    let mut sim = Sim::new(ts, platform, config, oracle, capture);
    match resume_from {
        Some(snap) => sim.restore(snap),
        None => {
            for i in 0..ts.len() {
                sim.schedule(Cycles::ZERO, TimedEvent::Release(i));
            }
        }
    }
    sim.run();
    let result = SimResult {
        trace: sim.trace,
        horizon: config.horizon,
        stats: sim.state.past.stats,
        metrics: sim.state.past.metrics,
        races: sim.state.past.races,
    };
    // Finalize this run's snapshots: all of them share one Arc of the
    // finished trace, from which a resume copies back its prefix.
    if let Some(cap) = sim.capture {
        if cap.len() > capture_base {
            let shared = Arc::new(result.trace.clone());
            for snap in &mut cap[capture_base..] {
                snap.trace_src = Some(Arc::clone(&shared));
            }
        }
    }
    // Oracle-driven runs are exploration probes, not workload runs:
    // flushing them would make the registry depend on how many paths
    // an explorer executed and where each stopped. Their throughput is
    // reported by the explorer itself.
    if !oracle_mode {
        flush_global_metrics(&result);
    }
    result
}

/// Flushes one run's totals into the process-global metrics registry
/// (`rtmdm_obs::metrics::global`). A no-op unless a telemetry consumer
/// (e.g. the benchmark harness) enabled the registry. Everything
/// recorded is a sum, so aggregate totals are independent of the order
/// (and thread count) in which runs execute.
fn flush_global_metrics(result: &SimResult) {
    let g = rtmdm_obs::metrics::global();
    if !g.is_enabled() {
        return;
    }
    let m = &result.metrics;
    g.add("sim.runs", 1);
    g.add("sim.cycles", result.horizon.get());
    g.add("sim.trace_events", result.trace.len() as u64);
    g.add("sim.cpu_busy_cycles", m.cpu_busy_cycles.get());
    g.add("sim.cpu_idle_cycles", m.cpu_idle_cycles.get());
    g.add("sim.dma_busy_cycles", m.dma_busy_cycles.get());
    g.add("sim.cpu_stall_cycles", m.cpu_stall_cycles.get());
    g.add("sim.dma_stall_cycles", m.dma_stall_cycles.get());
    g.add("sim.preemptions", m.preemptions);
    g.add("sim.prefetch_hits", m.prefetch_hits);
    g.add("sim.blocking_fetches", m.blocking_fetches);
    // Fault-environment counters are flushed only when nonzero, so a
    // fault-free run's telemetry snapshot is byte-identical to one from
    // before fault injection existed.
    if m.injected_faults > 0 {
        g.add("sim.injected_faults", m.injected_faults);
        g.add("sim.fetch_retries", m.fetch_retries);
        g.add("sim.refetch_cycles", m.refetch_cycles.get());
    }
    if m.shed_jobs > 0 {
        g.add("sim.shed_jobs", m.shed_jobs);
    }
    if m.aborted_jobs > 0 {
        g.add("sim.aborted_jobs", m.aborted_jobs);
    }
    let mut releases = 0;
    let mut completions = 0;
    let mut misses = 0;
    for s in &result.stats {
        releases += s.releases;
        completions += s.completions;
        misses += s.misses;
        g.merge("sim.response_cycles", &s.response_hist);
    }
    g.add("sim.releases", releases);
    g.add("sim.completions", completions);
    g.add("sim.deadline_misses", misses);
}

/// Work retired in `delta` wall cycles at the contended rate
/// `PPM / (PPM + inflation_ppm)`, carrying the sub-cycle remainder in
/// `credit` (a numerator over `PPM + inflation_ppm`).
///
/// Because the remainder carries over, splitting an interval at event
/// boundaries retires exactly as much total work as advancing it in one
/// step — so a fully contended segment never outlasts the analysis's
/// `inflate_cpu`/`inflate_dma` bound, no matter how many events cut it.
fn contended_progress(delta: Cycles, inflation_ppm: u32, credit: &mut u64) -> Cycles {
    let den = u128::from(PPM) + u128::from(inflation_ppm);
    let acc = u128::from(*credit) + u128::from(delta.get()) * u128::from(PPM);
    let retired = acc / den;
    *credit = (acc % den) as u64;
    Cycles::new(u64::try_from(retired).expect("retired work overflow"))
}

/// Wall cycles until one resource's `remaining` work retires, given
/// its accumulated `credit`: one work cycle per wall cycle while it
/// runs alone, or at the contended rate `inflation_ppm` (`Some` while
/// both masters are busy). With zero credit the contended figure equals
/// `ContentionModel::inflate_cpu`/`inflate_dma` of the remaining work.
fn finish_after(remaining: Cycles, credit: u64, inflation_ppm: Option<u32>) -> Cycles {
    let Some(inflation_ppm) = inflation_ppm else {
        return remaining;
    };
    let den = u128::from(PPM) + u128::from(inflation_ppm);
    let need = (u128::from(remaining.get()) * den).saturating_sub(u128::from(credit));
    Cycles::new(u64::try_from(need.div_ceil(u128::from(PPM))).expect("eta overflow"))
}

/// Settles `delta` wall cycles of one resource's work at the rate
/// [`finish_after`] assumes and returns its contention stall: the wall
/// cycles that retired no work. `finishes` marks an interval ending at
/// the resource's finish instant, which retires exactly the remaining
/// work; any other interval retires less (see `Sim::settle_interval`).
fn settle_work(
    remaining: &mut Cycles,
    credit: &mut u64,
    inflation_ppm: Option<u32>,
    delta: Cycles,
    finishes: bool,
) -> Cycles {
    let done = if finishes {
        debug_assert!(delta >= *remaining, "finish estimate below remaining");
        *remaining
    } else {
        let done = inflation_ppm.map_or(delta, |i| contended_progress(delta, i, credit));
        debug_assert!(done < *remaining, "undetected completion");
        done
    };
    *remaining = remaining.saturating_sub(done);
    delta.saturating_sub(done)
}

impl Sim<'_> {
    /// Enqueues a timer event. The queue is FIFO among same-instant
    /// events, so every handler side effect happens in a fixed order.
    fn schedule(&mut self, time: Cycles, ev: TimedEvent) {
        self.state.events.push(time, ev);
    }

    fn handle_timed(&mut self, ev: TimedEvent) {
        match ev {
            TimedEvent::Release(task) => self.release(task),
            TimedEvent::DeadlineCheck(task, job_id) => self.deadline_check(task, job_id),
            TimedEvent::JitteredRelease { task, id, nominal } => {
                let abs_deadline = nominal + self.ts.tasks()[task].deadline;
                // The next periodic release was already scheduled when
                // the jitter was drawn; only the job entry happens here.
                self.admit_job(task, id, nominal, abs_deadline, false);
            }
        }
    }

    /// The event loop: jump to the earliest of the timer-queue head and
    /// the two resources' finish instants, settle the elapsed interval,
    /// then process the instant — resource completions first (they may
    /// unblock tasks), then its timer events, then the dispatch
    /// fixpoint. An oracle may end the run after any processed instant
    /// ([`SimOracle::stop_after_instant`], told whether the run has
    /// recorded a violation so far); the run then covers only up to
    /// that instant.
    fn run(&mut self) {
        let mut end = self.config.horizon;
        loop {
            let (cpu_rate, dma_rate) = self.inflation();
            let s = &self.state;
            let cpu_fin = s
                .cpu
                .map(|c| s.now + finish_after(c.remaining, c.credit, cpu_rate));
            let dma_fin = s
                .dma
                .map(|d| s.now + finish_after(d.remaining, d.credit, dma_rate));
            let timed = s.events.peek_time();
            let next = [cpu_fin, dma_fin, timed].into_iter().flatten().min();
            let Some(next) = next else {
                // No events left (e.g. an empty task set): the CPU is
                // necessarily idle from here to the horizon.
                self.note_cpu_idle();
                break;
            };
            if next > self.config.horizon {
                // Account the tail [now, horizon) — resources may still
                // be busy — without processing the past-horizon event.
                self.settle_interval(self.config.horizon, cpu_fin, dma_fin);
                self.state.now = self.config.horizon;
                break;
            }
            if self.capture.is_some() && self.may_query_at(next, dma_fin == Some(next)) {
                self.capture_snapshot();
            }
            self.settle_interval(next, cpu_fin, dma_fin);
            self.state.now = next;

            if self.state.dma.is_some_and(|d| d.remaining.is_zero()) {
                self.complete_dma();
            }
            if self.state.cpu.is_some_and(|c| c.remaining.is_zero()) {
                self.complete_cpu_segment();
            }
            while self.state.events.peek_time() == Some(self.state.now) {
                let (_, ev) = self.state.events.pop().expect("peeked");
                self.handle_timed(ev);
            }
            self.dispatch_dma();
            self.dispatch_cpu();
            self.note_cpu_idle();
            if let Some(oracle) = self.oracle.as_deref() {
                if oracle.stop_after_instant(self.missed || !self.state.past.races.is_empty()) {
                    end = self.state.now;
                    break;
                }
            }
        }
        // Exact partition of the covered span (the horizon, unless the
        // oracle stopped the run) — the headline invariant every derived
        // utilization figure rests on.
        self.state.past.metrics.cpu_idle_cycles =
            end.saturating_sub(self.state.past.metrics.cpu_busy_cycles);
    }

    /// Whether the instant `t` the loop is about to process can reach
    /// an oracle query: a (jittered) release enters a job
    /// (`ReleaseJitter`/`ExecScale`), or a DMA transfer completes while
    /// the fault environment is active with retry budget left
    /// (`TransferFault`). Over-approximation is harmless — a
    /// superfluous snapshot costs memory, never correctness — and the
    /// check scans the pending events up to `t` without allocating.
    fn may_query_at(&self, t: Cycles, dma_done: bool) -> bool {
        let fault = &self.config.fault;
        if dma_done
            && fault.dma_fault_rate_ppm > 0
            && self
                .state
                .dma
                .is_some_and(|d| d.attempt < fault.max_retries)
        {
            return true;
        }
        self.state.events.any_at(t, |ev| {
            matches!(
                ev,
                TimedEvent::Release(_) | TimedEvent::JitteredRelease { .. }
            )
        })
    }

    /// Pushes a [`SimSnapshot`] of the current instant boundary into
    /// the capture sink. Called at the loop top, before the clock
    /// advances into the instant — the point where the state is settled
    /// to `now` and re-enterable.
    fn capture_snapshot(&mut self) {
        let snap = SimSnapshot {
            state: self.state.clone(),
            trace_len: self.trace.len(),
            queries_before: self.queries,
            trace_src: None,
        };
        self.capture
            .as_mut()
            .expect("capture sink checked by caller")
            .push(snap);
    }

    /// Re-enters a captured instant boundary: the state is restored
    /// whole and the trace is truncated back to the captured prefix.
    /// The restored event queue drains like the captured one, so events
    /// pushed after the resume tie-break exactly as they did in the
    /// capturing run.
    fn restore(&mut self, snap: &SimSnapshot) {
        self.state = snap.state.clone();
        self.trace = snap
            .trace_src
            .as_ref()
            .expect("resume from unfinalized snapshot")
            .truncated(snap.trace_len);
        self.missed = self.state.past.stats.iter().any(|s| s.misses > 0);
    }

    /// Opens a [`TraceKind::CpuIdle`] interval if the CPU is idle and no
    /// interval is open. The matching [`TraceKind::CpuIdleEnd`] is
    /// emitted by `dispatch_cpu`; a trace can therefore end mid-idle,
    /// and consumers clamp the open interval at the horizon.
    fn note_cpu_idle(&mut self) {
        if self.state.cpu.is_none()
            && !self.state.past.idle_open
            && self.state.now < self.config.horizon
        {
            self.state.past.idle_open = true;
            self.trace.push(self.state.now, TraceKind::CpuIdle);
        }
    }

    // --- time advancement -------------------------------------------------

    /// Each resource's contended rate: `Some` only while both masters
    /// are busy.
    fn inflation(&self) -> (Option<u32>, Option<u32>) {
        let c = &self.platform.contention;
        let both = self.state.cpu.is_some() && self.state.dma.is_some();
        (
            both.then_some(c.cpu_inflation_ppm),
            both.then_some(c.dma_inflation_ppm),
        )
    }

    /// Settles the interval `[now, to]`: charges busy wall time, retires
    /// (contended) work, and accounts stall cycles for both resources.
    /// `cpu_fin`/`dma_fin` are the resources' finish instants as of
    /// `now`.
    ///
    /// The floor-carry identity: each settled cycle lowers
    /// `remaining·den − credit` by exactly `PPM`, so splitting a
    /// contended phase at arbitrary cuts retires the same total work
    /// and accrues the same busy/stall sums as settling it whole.
    ///
    /// **Accounting audit** (the former `advance_to` used
    /// `saturating_sub` here): a resource can never finish *strictly
    /// inside* a settled interval: the loop advances to at most the
    /// minimum of the finish estimates, so `to ≤ fin` whenever the
    /// resource is busy. In the `fin == to` branch the stall term
    /// `delta − remaining` is likewise exact: the finish estimate
    /// satisfies `eta ≥ remaining` (den ≥ PPM and credit < den imply
    /// `remaining·den − credit > (remaining − 1)·PPM`), and `delta`
    /// spans at least the final `eta` of the phase. The saturating
    /// forms are therefore never hit; the debug assertions below turn
    /// any future violation into a loud failure instead of a silent
    /// undercount.
    fn settle_interval(&mut self, to: Cycles, cpu_fin: Option<Cycles>, dma_fin: Option<Cycles>) {
        debug_assert!(to >= self.state.now, "settlement must move forward");
        let delta = to.saturating_sub(self.state.now);
        if delta.is_zero() {
            return;
        }
        debug_assert!(
            self.state.cpu.is_none() || cpu_fin.is_some_and(|f| f >= to),
            "CPU would finish strictly inside a settled interval"
        );
        debug_assert!(
            self.state.dma.is_none() || dma_fin.is_some_and(|f| f >= to),
            "DMA would finish strictly inside a settled interval"
        );
        let (cpu_rate, dma_rate) = self.inflation();
        let (cpu_done, dma_done) = (cpu_fin == Some(to), dma_fin == Some(to));
        let s = &mut self.state;
        if let Some(c) = s.cpu.as_mut() {
            let stall = settle_work(&mut c.remaining, &mut c.credit, cpu_rate, delta, cpu_done);
            s.past.metrics.cpu_busy_cycles += delta;
            s.past.metrics.cpu_stall_cycles += stall;
        }
        if let Some(d) = s.dma.as_mut() {
            let stall = settle_work(&mut d.remaining, &mut d.credit, dma_rate, delta, dma_done);
            s.past.metrics.dma_busy_cycles += delta;
            s.past.metrics.dma_stall_cycles += stall;
        }
    }

    // --- events ------------------------------------------------------------

    fn release(&mut self, task_idx: usize) {
        let task = &self.ts.tasks()[task_idx];
        let state = &mut self.state.tasks[task_idx];
        let release = state.next_release;
        // A deadline past the horizon — or past `u64` cycles — would not
        // get its full window.
        let Some(abs_deadline) = release
            .checked_add(task.deadline)
            .filter(|&d| d <= self.config.horizon)
        else {
            return;
        };
        let id = state.released;
        state.released += 1;
        // Saturating: a next release at `Cycles::MAX` is past any
        // deadline window, so it releases nothing.
        state.next_release = release.saturating_add(task.period);

        if state.skip_next {
            // Overload shedding under [`MissPolicy::SkipNextRelease`]:
            // the previous job missed, so this release is dropped
            // wholesale. It still counts as a release (the goodput
            // denominator stays stable) and the period clock still
            // advances — only the job itself never enters the system.
            state.skip_next = false;
            let next_release = state.next_release;
            self.state.past.stats[task_idx].releases += 1;
            self.state.past.stats[task_idx].shed += 1;
            self.state.past.metrics.shed_jobs += 1;
            self.trace.push(
                self.state.now,
                TraceKind::ReleaseShed {
                    task: TaskId(task_idx),
                    job: JobId(id),
                },
            );
            self.schedule(next_release, TimedEvent::Release(task_idx));
            return;
        }

        // Release jitter is an oracle-only capability: default runs are
        // strictly periodic, so none of this path exists for them and
        // their event order is untouched.
        if self.oracle.is_some() {
            let point = ChoicePoint::ReleaseJitter {
                task: task_idx,
                job: id,
            };
            let jitter = self.ask(point).release_jitter_or_zero();
            // Clamp the entry instant into the horizon so the jittered
            // event is always processed (a past-horizon entry would
            // silently drop the job and its deadline check with it).
            let jitter = jitter.min(self.config.horizon.saturating_sub(release));
            if !jitter.is_zero() {
                let next_release = self.state.tasks[task_idx].next_release;
                self.schedule(
                    release + jitter,
                    TimedEvent::JitteredRelease {
                        task: task_idx,
                        id,
                        nominal: release,
                    },
                );
                self.schedule(next_release, TimedEvent::Release(task_idx));
                return;
            }
        }
        self.admit_job(task_idx, id, release, abs_deadline, true);
    }

    /// A released job enters the system: its execution-time scale is
    /// drawn (RNG, or the oracle when attached), the job joins its
    /// task's queue, and its deadline check is scheduled. `release` is
    /// the *nominal* release instant — under oracle-drawn jitter the
    /// entry instant `now` is later, while the deadline (and the
    /// response-time accounting) stays anchored at the nominal release.
    /// `schedule_next` preserves the original event order of the
    /// unjittered path, where the next periodic release is scheduled
    /// right after the deadline check.
    fn admit_job(
        &mut self,
        task_idx: usize,
        id: u64,
        release: Cycles,
        abs_deadline: Cycles,
        schedule_next: bool,
    ) {
        let scale = if self.config.exec_scale_min_ppm >= PPM {
            PPM
        } else if self.oracle.is_some() {
            let min_ppm = self.config.exec_scale_min_ppm;
            let point = ChoicePoint::ExecScale {
                task: task_idx,
                job: id,
                min_ppm,
            };
            self.ask(point).exec_scale_or(PPM).clamp(min_ppm, PPM)
        } else {
            self.rng.gen_range(self.config.exec_scale_min_ppm..=PPM)
        };
        let task = &self.ts.tasks()[task_idx];
        let seg_compute: Vec<Cycles> = task
            .segments
            .iter()
            .map(|s| {
                let scaled = s.compute.mul_ratio_ceil(scale, PPM);
                scaled.max(Cycles::new(1))
            })
            .collect();
        let n = task.segments.len();
        let staged = match task.mode {
            StagingMode::Resident => n,
            StagingMode::Overlapped => 0,
        };
        let state = &mut self.state.tasks[task_idx];
        state.jobs.push_back(Job {
            id,
            release,
            abs_deadline,
            seg_compute,
            next_seg: 0,
            staged,
            fetch_requested: staged,
            miss_recorded: false,
            abort_pending: false,
        });
        let next_release = state.next_release;
        self.state.past.stats[task_idx].releases += 1;
        self.trace.push(
            self.state.now,
            TraceKind::JobReleased {
                task: TaskId(task_idx),
                job: JobId(id),
                deadline: abs_deadline,
            },
        );
        // `max(now)`: a job entering after its deadline (jitter beyond
        // the relative deadline) must still get its check — scheduling
        // it in the past would silently drop the miss. Identical to
        // `abs_deadline` on the unjittered path, where `now == release`.
        self.schedule(
            abs_deadline.max(self.state.now),
            TimedEvent::DeadlineCheck(task_idx, id),
        );
        if schedule_next {
            self.schedule(next_release, TimedEvent::Release(task_idx));
        }

        // Kick off the first fetch of the *head* job only; queued-behind
        // jobs start fetching when they reach the head.
        self.maybe_request_fetch(task_idx);
        if self.state.tasks[task_idx].jobs.len() == 1 {
            // The released job became the head; a queued-behind job is
            // accounted when it surfaces (see `complete_cpu_segment`).
            self.note_leadin_block(task_idx);
        }
        self.update_fetch_wait(task_idx);
    }

    /// Counts the head job's lead-in fetch as a blocking fetch when its
    /// first segment cannot compute until the DMA delivers it (nothing
    /// overlaps a lead-in by construction). Called exactly when a job
    /// surfaces at the head of its task's queue, so each lead-in is
    /// counted at most once.
    fn note_leadin_block(&mut self, task_idx: usize) {
        if self.ts.tasks()[task_idx].mode != StagingMode::Overlapped {
            return;
        }
        if self.state.tasks[task_idx]
            .jobs
            .front()
            .is_some_and(|j| j.next_seg == 0 && j.staged == 0)
        {
            self.state.past.metrics.blocking_fetches += 1;
        }
    }

    /// Attribution-mode bookkeeping: reconciles `task_idx`'s open fetch
    /// wait with the head job's current staging state, emitting the
    /// [`TraceKind::FetchWaitBegan`]/[`TraceKind::FetchWaitEnded`] pair
    /// boundaries. A wait is open exactly while the head job's next
    /// segment is not yet staged (such a job can never hold the CPU, so
    /// wait intervals are disjoint from its own segment slices by
    /// construction). Idempotent within an instant; a no-op unless
    /// [`SimConfig::attribution`] is set, so default runs carry zero
    /// cost and byte-identical traces.
    fn update_fetch_wait(&mut self, task_idx: usize) {
        if !self.config.attribution {
            return;
        }
        let want = self.state.tasks[task_idx].jobs.front().and_then(|j| {
            (j.next_seg < j.seg_compute.len() && j.staged <= j.next_seg)
                .then_some((j.id, j.next_seg))
        });
        let open = self.state.tasks[task_idx].wait_open;
        if open == want {
            return;
        }
        if let Some((job, seg)) = open {
            self.trace.push(
                self.state.now,
                TraceKind::FetchWaitEnded {
                    task: TaskId(task_idx),
                    job: JobId(job),
                    segment: SegmentId(seg),
                },
            );
        }
        if let Some((job, seg)) = want {
            self.trace.push(
                self.state.now,
                TraceKind::FetchWaitBegan {
                    task: TaskId(task_idx),
                    job: JobId(job),
                    segment: SegmentId(seg),
                },
            );
        }
        self.state.tasks[task_idx].wait_open = want;
    }

    fn deadline_check(&mut self, task_idx: usize, job_id: u64) {
        let Some(pos) = self.state.tasks[task_idx]
            .jobs
            .iter()
            .position(|j| j.id == job_id)
        else {
            return; // already completed
        };
        let job = &mut self.state.tasks[task_idx].jobs[pos];
        if job.miss_recorded {
            return;
        }
        job.miss_recorded = true;
        self.state.past.stats[task_idx].misses += 1;
        self.missed = true;
        self.trace.push(
            self.state.now,
            TraceKind::DeadlineMissed {
                task: TaskId(task_idx),
                job: JobId(job_id),
            },
        );
        match self.ts.tasks()[task_idx].miss_policy {
            MissPolicy::Continue => {}
            MissPolicy::SkipNextRelease => {
                self.state.tasks[task_idx].skip_next = true;
            }
            MissPolicy::Abort => {
                // Segments are non-preemptive: a job holding the CPU is
                // dropped at its next segment boundary; anything else
                // (waiting, fetching, queued behind) is dropped now.
                if pos == 0 && self.state.cpu.is_some_and(|c| c.task == task_idx) {
                    self.state.tasks[task_idx].jobs[pos].abort_pending = true;
                } else {
                    self.drop_job(task_idx, pos);
                }
            }
        }
    }

    /// Removes job `pos` of `task_idx` from the system: cancels its
    /// queued and in-flight DMA transfers, records the abort, and — when
    /// the head job changed — restarts staging for the new head.
    fn drop_job(&mut self, task_idx: usize, pos: usize) {
        let job = self.state.tasks[task_idx]
            .jobs
            .remove(pos)
            .expect("job to drop");
        self.state.past.stats[task_idx].aborted += 1;
        self.state.past.metrics.aborted_jobs += 1;
        self.trace.push(
            self.state.now,
            TraceKind::JobAborted {
                task: TaskId(task_idx),
                job: JobId(job.id),
            },
        );
        // Only a head job ever has staging traffic; the job id on each
        // request pins the cancellation to exactly this job's transfers.
        let doomed = |t: &Transfer| t.task == task_idx && t.job == job.id;
        self.state.dma_queue.retain(|t| !doomed(t));
        if self.state.dma.as_ref().is_some_and(doomed) {
            self.state.dma = None;
        }
        if pos == 0 {
            // A new head surfaced (or the queue emptied).
            self.maybe_request_fetch(task_idx);
            self.note_leadin_block(task_idx);
        }
        self.update_fetch_wait(task_idx);
    }

    fn complete_dma(&mut self) {
        let d = self.state.dma.take().expect("a transfer to complete");
        let head_id = self.state.tasks[d.task].jobs.front().map(|j| j.id);
        let faulted = head_id == Some(d.job)
            && if self.oracle.is_some() {
                // The oracle decides, under the injector's own contract:
                // only while the fault environment is active, and never
                // at the retry budget (those attempts must succeed).
                if self.config.fault.dma_fault_rate_ppm > 0
                    && d.attempt < self.config.fault.max_retries
                {
                    let point = ChoicePoint::TransferFault {
                        task: d.task,
                        job: d.job,
                        seg: d.seg,
                        attempt: d.attempt,
                    };
                    self.ask(point).transfer_fault_or_false()
                } else {
                    false
                }
            } else {
                self.injector
                    .transfer_faults(d.task, d.job, d.seg, d.attempt)
            };
        if faulted {
            // The transfer delivered corrupt data: re-issue it in full.
            // The retry re-targets the same buffer half — it *replaces*
            // fetch `d.seg` in the two-ahead window instead of advancing
            // it (`fetch_requested` stays put, `staged` is not bumped),
            // and `dma_key` sorts it before this task's fetch `d.seg+1`,
            // so per-task in-order completion and the double-buffer
            // discipline survive faults unchanged.
            let attempt = d.attempt + 1;
            let bytes = self.ts.tasks()[d.task].segments[d.seg].fetch_bytes;
            let base = self.platform.ext_mem.transfer_cycles(bytes);
            let work =
                base.saturating_add(self.injector.transfer_jitter(d.task, d.job, d.seg, attempt));
            self.state.past.stats[d.task].retries += 1;
            self.state.past.metrics.injected_faults += 1;
            self.state.past.metrics.fetch_retries += 1;
            self.state.past.metrics.refetch_cycles += work;
            self.trace.push(
                self.state.now,
                TraceKind::FetchFaulted {
                    task: TaskId(d.task),
                    job: JobId(d.job),
                    segment: SegmentId(d.seg),
                    attempt: d.attempt,
                },
            );
            self.trace.push(
                self.state.now,
                TraceKind::FetchStarted {
                    task: TaskId(d.task),
                    job: JobId(d.job),
                    segment: SegmentId(d.seg),
                    bytes,
                },
            );
            self.state.dma_queue.push(Transfer {
                attempt,
                remaining: work,
                credit: 0,
                ..d
            });
            return;
        }
        if let Some(job) = self.state.tasks[d.task].jobs.front_mut() {
            // Per-task fetches complete in segment order (the queue pops
            // the lowest segment of a task first). The job guard only
            // matters under `Abort`: a transfer finishing in the same
            // instant its owner was dropped must not stage for the
            // successor job.
            if job.id == d.job {
                if job.staged == d.seg {
                    job.staged = d.seg + 1;
                }
                self.trace.push(
                    self.state.now,
                    TraceKind::FetchCompleted {
                        task: TaskId(d.task),
                        job: JobId(job.id),
                        segment: SegmentId(d.seg),
                    },
                );
            }
        }
        // The next fetch of this task may be admissible now.
        self.maybe_request_fetch(d.task);
        self.update_fetch_wait(d.task);
    }

    fn complete_cpu_segment(&mut self) {
        let c = self.state.cpu.take().expect("a segment to complete");
        let task_idx = c.task;
        let (job_id, job_done, abort, response) = {
            let job = self.state.tasks[task_idx]
                .jobs
                .front_mut()
                .expect("running task has a head job");
            job.next_seg = c.seg + 1;
            let done = job.next_seg == job.seg_compute.len();
            // A deferred abort lands here, at the segment boundary. If
            // the finished segment was the last one, the job is simply
            // complete (late) — there is no remaining work to drop.
            let abort = job.abort_pending && !done;
            // Double-buffer effectiveness: was the next segment's fetch
            // already hidden behind the compute that just retired?
            if !done && !abort && self.ts.tasks()[task_idx].mode == StagingMode::Overlapped {
                if job.staged > job.next_seg {
                    self.state.past.metrics.prefetch_hits += 1;
                } else {
                    self.state.past.metrics.blocking_fetches += 1;
                }
            }
            (
                job.id,
                done,
                abort,
                self.state.now.saturating_sub(job.release),
            )
        };
        // Attribution anchor: the occupancy's exact contention stall.
        // Occupancies are non-preemptive, so wall time minus nominal
        // work is precisely what the settlement accounting charged to
        // `cpu_stall_cycles` over this stretch.
        if self.config.attribution {
            let wall = self.state.now.saturating_sub(c.started);
            let stall = wall.saturating_sub(c.nominal);
            if !stall.is_zero() {
                self.trace.push(
                    self.state.now,
                    TraceKind::SegmentStalled {
                        task: TaskId(task_idx),
                        job: JobId(job_id),
                        segment: SegmentId(c.seg),
                        stall,
                    },
                );
            }
        }
        self.trace.push(
            self.state.now,
            TraceKind::SegmentCompleted {
                task: TaskId(task_idx),
                job: JobId(job_id),
                segment: SegmentId(c.seg),
            },
        );
        if job_done {
            let job = self.state.tasks[task_idx]
                .jobs
                .pop_front()
                .expect("head job");
            let stats = &mut self.state.past.stats[task_idx];
            stats.completions += 1;
            stats.max_response = stats.max_response.max(response);
            stats.total_response += response.get();
            stats.response_hist.record(response.get());
            if !job.miss_recorded && self.state.now > job.abs_deadline {
                stats.misses += 1;
                self.missed = true;
                self.trace.push(
                    self.state.now,
                    TraceKind::DeadlineMissed {
                        task: TaskId(task_idx),
                        job: JobId(job.id),
                    },
                );
            }
            self.trace.push(
                self.state.now,
                TraceKind::JobCompleted {
                    task: TaskId(task_idx),
                    job: JobId(job.id),
                    response,
                },
            );
        } else if abort {
            self.drop_job(task_idx, 0);
            return; // drop_job restarted staging for the new head
        }
        // The compute window advanced (or a new head job surfaced):
        // another prefetch may be admissible.
        self.maybe_request_fetch(task_idx);
        if job_done {
            self.note_leadin_block(task_idx);
        }
        self.update_fetch_wait(task_idx);
    }

    // --- staging -----------------------------------------------------------

    /// Issues the next pending fetch of `task_idx`'s head job when the
    /// double-buffer discipline allows: fetches are sequential, at most
    /// two segments ahead of compute (fetch `k` requires compute of
    /// segment `k−2` to have completed; fetches 0 and 1 are always
    /// admissible once reached).
    fn maybe_request_fetch(&mut self, task_idx: usize) {
        let task = &self.ts.tasks()[task_idx];
        if task.mode != StagingMode::Overlapped {
            return;
        }
        let Some(job) = self.state.tasks[task_idx].jobs.front() else {
            return;
        };
        if job.abort_pending {
            return; // doomed job: no fresh staging traffic
        }
        let n = task.segments.len();
        let next_fetch = job.fetch_requested;
        if next_fetch >= n {
            return;
        }
        // Staging window of width w (default 2, the two-ahead
        // double-buffer discipline): fetch k admissible once next_seg ≥
        // k − (w − 1), i.e. compute of k − w retired its buffer half.
        // Fetches 0..w are admissible immediately.
        let w = (self.config.staging_window.max(1)) as usize;
        let allowed = next_fetch < w || job.next_seg + w > next_fetch;
        if !allowed {
            return;
        }
        // No duplicate requests.
        let s = &self.state;
        let mut transfers = s.dma.iter().chain(&s.dma_queue);
        if transfers.any(|t| t.task == task_idx && t.seg == next_fetch) {
            return;
        }
        let bytes = task.segments[next_fetch].fetch_bytes;
        let base = self.platform.ext_mem.transfer_cycles(bytes);
        let deadline = job.abs_deadline;
        let job_id = job.id;
        if base.is_zero() {
            // Nothing to stage: mark immediately. Zero-byte segments
            // never touch the DMA, so neither faults nor jitter apply.
            let job = self.state.tasks[task_idx]
                .jobs
                .front_mut()
                .expect("head job");
            job.fetch_requested = next_fetch + 1;
            job.staged = job.staged.max(next_fetch + 1);
            return;
        }
        let work = base.saturating_add(
            self.injector
                .transfer_jitter(task_idx, job_id, next_fetch, 0),
        );
        let job_mut = self.state.tasks[task_idx]
            .jobs
            .front_mut()
            .expect("head job");
        job_mut.fetch_requested = next_fetch + 1;
        self.state.dma_queue.push(Transfer {
            task: task_idx,
            seg: next_fetch,
            job: job_id,
            attempt: 0,
            remaining: work,
            deadline,
            credit: 0,
        });
        self.trace.push(
            self.state.now,
            TraceKind::FetchStarted {
                task: TaskId(task_idx),
                job: JobId(job_id),
                segment: SegmentId(next_fetch),
                bytes,
            },
        );
    }

    /// Priority key of a DMA transfer under the active policy.
    fn dma_key(&self, t: &Transfer) -> (Cycles, usize, usize) {
        match self.config.policy {
            Policy::FixedPriority => (Cycles::ZERO, t.task, t.seg),
            Policy::Edf => (t.deadline, t.task, t.seg),
        }
    }

    /// Dispatches the highest-priority pending transfer, preempting an
    /// in-flight lower-priority one. Weight blocks are descriptor
    /// chains, so the driver can switch between streams at burst
    /// granularity; the re-arm cost is folded into the per-transfer
    /// setup charge. Preemptive priority-driven DMA is what removes
    /// lower-priority transfer interference from the analysis.
    fn dispatch_dma(&mut self) {
        let queue = &self.state.dma_queue;
        let Some(i) = (0..queue.len()).min_by_key(|&i| self.dma_key(&queue[i])) else {
            return;
        };
        if let Some(current) = self.state.dma {
            if self.dma_key(&self.state.dma_queue[i]) >= self.dma_key(&current) {
                return; // in-flight transfer keeps the channel
            }
            // The suspended transfer's remaining work (including
            // sub-cycle progress) returns to the queue.
            self.state.dma_queue.push(current);
        }
        self.state.dma = Some(self.state.dma_queue.remove(i));
        self.note_staging_races();
    }

    /// The always-on staging-race monitor: whenever a resource is
    /// (re)dispatched while the DMA streams segment `s` of some task,
    /// checks that the buffer half `s` targets (`s mod 2` of the two
    /// physical halves) holds no *live* segment of the same task — live
    /// meaning either being read by the CPU right now, or staged ahead
    /// but not yet consumed. At the default window of 2 the discipline
    /// makes this impossible (fetch `k` waits for compute of `k − 2`),
    /// so the monitor records nothing and default results are
    /// untouched; wider experimental windows make the overlap reachable
    /// and every occurrence lands in [`SimResult::races`] exactly once
    /// per `(job, write, clobbered)` triple.
    fn note_staging_races(&mut self) {
        let Some(d) = self.state.dma else { return };
        let Some(job) = self.state.tasks[d.task].jobs.front() else {
            return;
        };
        if job.id != d.job {
            return;
        }
        let mut hits: Vec<(usize, RaceKind)> = Vec::new();
        if let Some(c) = self.state.cpu {
            if c.task == d.task && c.seg != d.seg && c.seg % 2 == d.seg % 2 {
                hits.push((c.seg, RaceKind::CpuRead));
            }
        }
        for live in job.next_seg..job.staged {
            if live != d.seg && live % 2 == d.seg % 2 {
                hits.push((live, RaceKind::StagedUnconsumed));
            }
        }
        for (clobbered_seg, kind) in hits {
            let race = StagingRace {
                at: self.state.now,
                task: d.task,
                job: d.job,
                write_seg: d.seg,
                clobbered_seg,
                kind,
            };
            let dup = self.state.past.races.iter().any(|r| {
                r.task == race.task
                    && r.job == race.job
                    && r.write_seg == race.write_seg
                    && r.clobbered_seg == race.clobbered_seg
                    && r.kind == race.kind
            });
            if !dup {
                self.state.past.races.push(race);
            }
        }
    }

    // --- cpu scheduling ----------------------------------------------------

    /// Priority key of `task_idx`'s head job if it is *active*
    /// (released, incomplete), regardless of staging.
    fn active_key(&self, task_idx: usize) -> Option<(Cycles, usize)> {
        let job = self.state.tasks[task_idx].jobs.front()?;
        if job.next_seg >= job.seg_compute.len() {
            return None;
        }
        let key = match self.config.policy {
            Policy::FixedPriority => (Cycles::ZERO, task_idx),
            Policy::Edf => (job.abs_deadline, task_idx),
        };
        Some(key)
    }

    /// Whether `task_idx`'s next segment is staged and runnable.
    fn is_ready(&self, task_idx: usize) -> bool {
        self.state.tasks[task_idx]
            .jobs
            .front()
            .map(|j| j.next_seg < j.seg_compute.len() && j.staged > j.next_seg)
            .unwrap_or(false)
    }

    fn dispatch_cpu(&mut self) {
        if self.state.cpu.is_some() {
            return;
        }
        let chosen = if self.config.work_conserving {
            // Work-conserving: highest-priority *ready* task.
            (0..self.ts.len())
                .filter(|&i| self.is_ready(i))
                .filter_map(|i| self.active_key(i).map(|k| (k, i)))
                .min()
                .map(|(_, i)| i)
        } else {
            // Priority-gated: the highest-priority *active* task gets
            // the CPU — or, if it is waiting for its DMA, nobody does.
            (0..self.ts.len())
                .filter_map(|i| self.active_key(i).map(|k| (k, i)))
                .min()
                .map(|(_, i)| i)
                .filter(|&i| self.is_ready(i))
        };
        let Some(task_idx) = chosen else { return };

        // The CPU leaves idle: close the open idle interval.
        if self.state.past.idle_open {
            self.state.past.idle_open = false;
            self.trace.push(self.state.now, TraceKind::CpuIdleEnd);
        }

        // Preemption bookkeeping: if a different task was mid-job at the
        // last boundary, it has just been preempted.
        if let Some(prev) = self.state.last_cpu_task {
            if prev != task_idx && self.task_has_started_job(prev) {
                self.state.past.stats[prev].preemptions += 1;
                self.state.past.metrics.preemptions += 1;
                self.trace.push(
                    self.state.now,
                    TraceKind::Preempted {
                        task: TaskId(prev),
                        by: TaskId(task_idx),
                    },
                );
            }
        }

        let prev_cpu = self.state.last_cpu_task;
        let switch = if self.state.last_cpu_task == Some(task_idx) {
            Cycles::ZERO
        } else {
            self.platform.context_switch_cycles
        };
        self.state.last_cpu_task = Some(task_idx);

        let (seg, work, job_id) = {
            let job = self.state.tasks[task_idx].jobs.front().expect("ready job");
            (job.next_seg, job.seg_compute[job.next_seg], job.id)
        };
        // Attribution anchor: a mid-job task re-claiming the CPU after
        // another task held it resumes from a preemption — name the
        // most recent occupant so span reconstruction need not scan.
        if self.config.attribution && seg > 0 {
            if let Some(prev) = prev_cpu {
                if prev != task_idx {
                    self.trace.push(
                        self.state.now,
                        TraceKind::Resumed {
                            task: TaskId(task_idx),
                            job: JobId(job_id),
                            after: TaskId(prev),
                        },
                    );
                }
            }
        }
        self.state.cpu = Some(CpuExec {
            task: task_idx,
            seg,
            remaining: work + switch,
            credit: 0,
            started: self.state.now,
            nominal: work + switch,
        });
        self.trace.push(
            self.state.now,
            TraceKind::SegmentStarted {
                task: TaskId(task_idx),
                job: JobId(job_id),
                segment: SegmentId(seg),
            },
        );
        // The claim may overlap an in-flight DMA write of this task.
        self.note_staging_races();
        // Double buffer frees now: prefetch the next segment.
        self.maybe_request_fetch(task_idx);
        self.dispatch_dma();
    }

    fn task_has_started_job(&self, task_idx: usize) -> bool {
        self.state.tasks[task_idx]
            .jobs
            .front()
            .map(|j| j.next_seg > 0 && j.next_seg < j.seg_compute.len())
            .unwrap_or(false)
    }

    // --- oracle queries ----------------------------------------------------

    /// Answers one choice point through the oracle: counts the query
    /// and asks, offering the state's fingerprint for the oracle to
    /// pull if its answer reads it. Oracle mode only.
    fn ask(&mut self, point: ChoicePoint) -> Choice {
        self.queries += 1;
        let state = &self.state;
        self.oracle
            .as_deref_mut()
            .expect("oracle mode")
            .answer(point, &|| state.fingerprint())
    }
}

impl State {
    /// Fingerprints the state for an oracle query: its derived [`Hash`],
    /// which covers every field outside [`Past`], the pending events in
    /// drain order. Computed only when an oracle pulls it through
    /// [`SimOracle::answer`], so default runs, script replays and the
    /// explorer's non-branching queries never pay for it.
    fn fingerprint(&self) -> StateHash {
        let mut h = StableHash::new();
        self.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Segment, SporadicTask};
    use rtmdm_mcusim::{ContentionModel, DEFAULT_MAX_RETRIES};
    use rtmdm_obs::Timeline;

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

    fn resident(name: &str, period: u64, compute_segs: &[u64]) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(period),
            compute_segs
                .iter()
                .map(|&c| Segment::new(cy(c), 0))
                .collect(),
            StagingMode::Resident,
        )
        .expect("valid")
    }

    fn overlapped(name: &str, period: u64, segs: &[(u64, u64)]) -> SporadicTask {
        SporadicTask::new(
            name,
            cy(period),
            cy(period),
            segs.iter().map(|&(c, b)| Segment::new(cy(c), b)).collect(),
            StagingMode::Overlapped,
        )
        .expect("valid")
    }

    fn run(ts: &TaskSet, horizon: u64) -> SimResult {
        simulate(
            ts,
            &bare_platform(),
            &SimConfig::new(cy(horizon), Policy::FixedPriority),
        )
    }

    /// The fingerprint is the state's derived `Hash` without [`Past`]:
    /// states that differ only in what the run recorded hash equal, and
    /// changing one live value — a job's staging progress, the order of
    /// two queued transfers, the instant of a pending event — changes
    /// the hash.
    #[test]
    fn fingerprint_covers_the_live_state_and_not_the_past() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 100, &[30]),
            overlapped("b", 300, &[(80, 16), (80, 16)]),
        ]);
        let p = bare_platform();
        let cfg = SimConfig::new(cy(1_000), Policy::FixedPriority);
        let mut oracle = crate::script::ScriptOracle::new(Vec::new());
        let mut snaps = Vec::new();
        simulate_with_oracle_forked(&ts, &p, &cfg, &mut oracle, None, Some(&mut snaps));
        let live = snaps
            .iter()
            .map(|snap| &snap.state)
            .find(|s| s.tasks.iter().any(|t| !t.jobs.is_empty()))
            .expect("a snapshot with a pending job");
        let base = live.fingerprint();

        let mut past = live.clone();
        past.past.stats[0].releases += 1;
        past.past.metrics.preemptions += 1;
        past.past.races.push(StagingRace {
            at: cy(1),
            task: 1,
            job: 0,
            write_seg: 0,
            clobbered_seg: 1,
            kind: RaceKind::CpuRead,
        });
        past.past.idle_open = !past.past.idle_open;
        assert_eq!(past.fingerprint(), base, "the past is not fingerprinted");

        let mut staged = live.clone();
        let job = staged
            .tasks
            .iter_mut()
            .find_map(|t| t.jobs.front_mut())
            .expect("a pending job");
        job.staged += 1;
        assert_ne!(staged.fingerprint(), base, "a job's `staged`");

        let mut later = live.clone();
        let (at, ev) = later.events.pop().expect("a pending event");
        later.events.push(at + cy(1), ev);
        assert_ne!(later.fingerprint(), base, "a pending event's instant");

        let transfer = |task, seg| Transfer {
            task,
            seg,
            job: 0,
            attempt: 0,
            remaining: cy(16),
            deadline: cy(300),
            credit: 0,
        };
        let mut queued = live.clone();
        queued.dma_queue = vec![transfer(0, 0), transfer(1, 1)];
        let mut swapped = queued.clone();
        swapped.dma_queue.reverse();
        assert_ne!(
            queued.fingerprint(),
            swapped.fingerprint(),
            "the order of two queued transfers"
        );
    }

    /// A snapshot taken after a staging race must count the recorded
    /// races in its footprint.
    #[test]
    fn snapshot_size_hint_counts_races() {
        // A staging window of 3 lets the DMA write segment k + 2 into the
        // buffer half the CPU still reads segment k from.
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
        let p = PlatformConfig::stm32f746_qspi();
        let cfg = SimConfig {
            staging_window: 3,
            ..SimConfig::new(cy(6_000_000), Policy::FixedPriority)
        };
        let mut oracle = crate::script::ScriptOracle::new(Vec::new());
        let mut snaps = Vec::new();
        let run = simulate_with_oracle_forked(&ts, &p, &cfg, &mut oracle, None, Some(&mut snaps));
        assert!(!run.races.is_empty(), "window 3 must reach a staging race");
        let snap = snaps
            .iter()
            .find(|s| !s.state.past.races.is_empty())
            .expect("a snapshot after the first race");
        let mut raceless = snap.clone();
        raceless.state.past.races.clear();
        assert_eq!(
            snap.size_hint() - raceless.size_hint(),
            snap.state.past.races.len() * std::mem::size_of::<StagingRace>()
        );
    }

    #[test]
    fn single_resident_task_runs_back_to_back() {
        let ts = TaskSet::from_tasks(vec![resident("a", 100, &[30])]);
        let r = run(&ts, 1000);
        assert_eq!(r.stats[0].releases, 10);
        assert_eq!(r.stats[0].completions, 10);
        assert_eq!(r.stats[0].misses, 0);
        assert_eq!(r.stats[0].max_response, cy(30));
    }

    #[test]
    fn overlapped_single_task_pays_lead_in_fetch_only() {
        // Two segments (C=100,F=50 bytes→50cy each). Pipeline:
        // fetch0 (50) → compute0 (100) overlapping fetch1 (50, hidden)
        // → compute1 (100). Response = 50 + 100 + 100 = 250.
        let ts = TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 50), (100, 50)])]);
        let r = run(&ts, 10_000);
        assert_eq!(r.stats[0].max_response, cy(250));
        assert!(r.no_misses());
    }

    #[test]
    fn unhidden_fetch_stalls_the_pipeline() {
        // Fetch of segment 1 (300cy) exceeds compute of segment 0
        // (100cy): response = 50 + max(100,300) + 100 = 450.
        let ts = TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 50), (100, 300)])]);
        let r = run(&ts, 10_000);
        assert_eq!(r.stats[0].max_response, cy(450));
    }

    #[test]
    fn higher_priority_preempts_at_segment_boundaries() {
        // lo runs 4 segments of 50; hi (period 100, C=20) arrives at 0
        // too. With FP, hi runs first (both ready at 0, hi = index 0).
        let ts = TaskSet::from_tasks(vec![
            resident("hi", 100, &[20]),
            resident("lo", 1000, &[50, 50, 50, 50]),
        ]);
        let r = run(&ts, 1000);
        assert!(r.no_misses());
        // hi's second job (release 100) arrives while lo computes a
        // 50-cycle segment: worst extra delay ≤ 50.
        assert!(r.stats[0].max_response <= cy(70));
        // lo was preempted at least once.
        assert!(r.stats[1].preemptions >= 1);
    }

    #[test]
    fn non_preemptive_segment_blocks_until_boundary() {
        // hi: C=20, T=D=300; lo: two non-preemptive 500-cycle segments.
        // Timeline: hi₀ 0..20; lo seg₁ 20..520; hi₁(rel 300) blocked
        // until 520, runs 520..540 → response 240 (meets D=300);
        // lo seg₂ 540..1040; hi₂(rel 600) blocked until 1040, runs
        // 1040..1060 → response 460 > 300: one miss caused purely by
        // non-preemptive blocking.
        let ts = TaskSet::from_tasks(vec![
            resident("hi", 300, &[20]),
            resident("lo", 3000, &[500, 500]),
        ]);
        let r = run(&ts, 3000);
        assert_eq!(r.stats[0].max_response, cy(460));
        assert_eq!(r.stats[0].misses, 1);
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        // Two tasks, same period/deadline but task 1 released with a
        // shorter deadline would win under EDF. Construct: a (D=500),
        // b (D=100): at t=0 both ready; EDF runs b first despite index.
        let a = SporadicTask::new(
            "a",
            cy(1000),
            cy(500),
            vec![Segment::new(cy(50), 0)],
            StagingMode::Resident,
        )
        .expect("valid");
        let b = SporadicTask::new(
            "b",
            cy(1000),
            cy(100),
            vec![Segment::new(cy(50), 0)],
            StagingMode::Resident,
        )
        .expect("valid");
        let ts = TaskSet::from_tasks(vec![a, b]);
        let r = simulate(
            &ts,
            &bare_platform(),
            &SimConfig::new(cy(1000), Policy::Edf),
        );
        // b ran first: its response is 50; a's is 100.
        assert_eq!(r.stats[1].max_response, cy(50));
        assert_eq!(r.stats[0].max_response, cy(100));
    }

    #[test]
    fn overload_records_misses_and_keeps_going() {
        let ts = TaskSet::from_tasks(vec![resident("a", 100, &[150])]);
        let r = run(&ts, 2000);
        assert!(r.stats[0].misses > 0);
        // Jobs still complete eventually (late).
        assert!(r.stats[0].completions > 0);
    }

    #[test]
    fn context_switch_overhead_is_charged() {
        let mut p = bare_platform();
        p.context_switch_cycles = cy(10);
        let ts = TaskSet::from_tasks(vec![resident("a", 100, &[30])]);
        let r = simulate(&ts, &p, &SimConfig::new(cy(500), Policy::FixedPriority));
        // First job pays the switch (fresh CPU): 40. Later jobs are
        // back-to-back with themselves (no switch): 30.
        assert_eq!(r.stats[0].max_response, cy(40));
    }

    #[test]
    fn contention_slows_overlapped_execution() {
        let mut p = bare_platform();
        p.contention = ContentionModel {
            cpu_inflation_ppm: 500_000, // 50%
            dma_inflation_ppm: 0,
        };
        // fetch0 runs alone: 0..100 (idle CPU, no contention). At 100,
        // compute0 (100 work) and fetch1 (100 work) start together:
        // the DMA (uninflated) finishes its 100 at t=200; the CPU,
        // contended at 1.5×, has retired ⌊100/1.5⌋ = 66 work by then
        // and finishes the remaining 34 at t=234. compute1: 234..334.
        let ts = TaskSet::from_tasks(vec![overlapped("a", 10_000, &[(100, 100), (100, 100)])]);
        let r = simulate(&ts, &p, &SimConfig::new(cy(10_000), Policy::FixedPriority));
        assert_eq!(r.stats[0].max_response, cy(334));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let ts = TaskSet::from_tasks(vec![
            overlapped("a", 500, &[(40, 64), (60, 32)]),
            resident("b", 700, &[100, 80]),
        ]);
        let cfg = SimConfig {
            exec_scale_min_ppm: 600_000,
            seed: 42,
            ..SimConfig::new(cy(50_000), Policy::FixedPriority)
        };
        let p = bare_platform();
        let r1 = simulate(&ts, &p, &cfg);
        let r2 = simulate(&ts, &p, &cfg);
        assert_eq!(r1.trace.events(), r2.trace.events());
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn different_seed_changes_jittered_run() {
        let ts = TaskSet::from_tasks(vec![overlapped("a", 500, &[(100, 64), (100, 32)])]);
        let p = bare_platform();
        let mk = |seed| SimConfig {
            exec_scale_min_ppm: 500_000,
            seed,
            ..SimConfig::new(cy(50_000), Policy::FixedPriority)
        };
        let r1 = simulate(&ts, &p, &mk(1));
        let r2 = simulate(&ts, &p, &mk(2));
        assert_ne!(
            r1.stats[0].total_response, r2.stats[0].total_response,
            "jittered runs with different seeds should differ"
        );
    }

    #[test]
    fn jittered_runs_never_exceed_wcet_run() {
        let ts = TaskSet::from_tasks(vec![
            overlapped("a", 1000, &[(100, 64), (120, 128)]),
            resident("b", 1500, &[200]),
        ]);
        let p = bare_platform();
        let wcet = simulate(&ts, &p, &SimConfig::new(cy(100_000), Policy::FixedPriority));
        for seed in 0..5 {
            let jit = simulate(
                &ts,
                &p,
                &SimConfig {
                    exec_scale_min_ppm: 400_000,
                    seed,
                    ..SimConfig::new(cy(100_000), Policy::FixedPriority)
                },
            );
            for i in 0..ts.len() {
                assert!(
                    jit.max_response_of(i) <= wcet.max_response_of(i) || wcet.stats[i].misses > 0,
                    "seed {seed} task {i}"
                );
            }
        }
    }

    #[test]
    fn trace_contains_fetch_and_segment_events() {
        let ts = TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 64), (100, 64)])]);
        let r = run(&ts, 1000);
        let kinds: Vec<&TraceKind> = r.trace.events().iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TraceKind::FetchStarted { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TraceKind::FetchCompleted { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TraceKind::SegmentStarted { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TraceKind::JobCompleted { .. })));
    }

    #[test]
    fn response_histogram_tracks_completions() {
        let ts = TaskSet::from_tasks(vec![resident("a", 100, &[30])]);
        let r = run(&ts, 1000);
        let hist = &r.stats[0].response_hist;
        assert_eq!(hist.count(), r.stats[0].completions);
        // All responses are exactly 30 cycles → bucket [16,32).
        let p95 = hist.percentile_upper(95).expect("non-empty");
        assert!((30..=31).contains(&p95), "{p95}");
        assert!(hist.percentile_upper(50).expect("non-empty") >= 30);
    }

    #[test]
    fn percentile_upper_bounds_max_response() {
        let ts = TaskSet::from_tasks(vec![
            overlapped("a", 500, &[(40, 64), (60, 32)]),
            resident("b", 700, &[100, 80]),
        ]);
        let r = run(&ts, 50_000);
        for s in &r.stats {
            if s.completions > 0 {
                let p100 = s.response_hist.percentile_upper(100).expect("non-empty");
                assert!(p100 >= s.max_response.get());
                let p50 = s.response_hist.percentile_upper(50).expect("non-empty");
                assert!(p50 <= p100);
            }
        }
    }

    #[test]
    fn dma_preempts_lower_priority_transfer() {
        // lo starts a 20 000-cycle transfer at t=500 (after hi's first
        // job). hi's second job (release 2000) needs a 500-cycle fetch:
        // with preemptive DMA it takes the channel immediately and hi
        // responds in 600 cycles; a non-preemptive channel would stall
        // it ≈18 500 cycles behind lo's transfer.
        let hi = overlapped("hi", 2_000, &[(100, 500)]);
        let lo = overlapped("lo", 100_000, &[(100, 20_000)]);
        let ts = TaskSet::from_tasks(vec![hi, lo]);
        let r = run(&ts, 100_000);
        assert_eq!(r.stats[0].max_response, cy(600));
        assert!(r.no_misses());
        // lo still completes: its transfer resumes after hi's fetches.
        assert_eq!(r.stats[1].completions, 1);
    }

    #[test]
    fn gated_cpu_idles_during_hp_fetch_wait() {
        // hi: two segments, each with a 1000-cycle fetch dominating its
        // 100-cycle compute. lo: a single resident 200-cycle segment.
        let hi = overlapped("hi", 100_000, &[(100, 1000), (100, 1000)]);
        let lo = resident("lo", 100_000, &[200]);
        let ts = TaskSet::from_tasks(vec![hi, lo]);
        let p = bare_platform();

        // Gated (default): lo must wait for hi to finish entirely.
        // hi: fetch0 0..1000, compute0 1000..1100 (fetch1 1000..2000),
        // compute1 2000..2100. lo: 2100..2300.
        let gated = simulate(&ts, &p, &SimConfig::new(cy(100_000), Policy::FixedPriority));
        assert_eq!(gated.stats[0].max_response, cy(2100));
        assert_eq!(gated.stats[1].max_response, cy(2300));

        // Work-conserving: lo slips into hi's fetch windows.
        let wc = simulate(
            &ts,
            &p,
            &SimConfig {
                work_conserving: true,
                ..SimConfig::new(cy(100_000), Policy::FixedPriority)
            },
        );
        assert_eq!(wc.stats[1].max_response, cy(200));
        // hi is unharmed here (lo's segment fits inside the fetch).
        assert_eq!(wc.stats[0].max_response, cy(2100));
    }

    #[test]
    fn work_conserving_can_block_hp_repeatedly() {
        // Under work-conserving dispatch, every fetch wait of hi admits
        // another long lo segment, which then blocks hi's resumed
        // compute; under gating lo never starts while hi is active.
        let hi = overlapped("hi", 100_000, &[(100, 1000), (100, 1000), (100, 100)]);
        let lo = resident("lo", 100_000, &[700, 700, 700, 700]);
        let ts = TaskSet::from_tasks(vec![hi, lo]);
        let p = bare_platform();
        let gated = simulate(&ts, &p, &SimConfig::new(cy(100_000), Policy::FixedPriority));
        let wc = simulate(
            &ts,
            &p,
            &SimConfig {
                work_conserving: true,
                ..SimConfig::new(cy(100_000), Policy::FixedPriority)
            },
        );
        assert!(
            wc.stats[0].max_response > gated.stats[0].max_response,
            "wc {} vs gated {}",
            wc.stats[0].max_response,
            gated.stats[0].max_response
        );
    }

    #[test]
    fn metrics_partition_horizon_exactly() {
        // (100,50),(100,50) per job of period 1000 over a 10 000-cycle
        // horizon: fetch0 50, compute 200, fetch1 hidden → per job the
        // CPU is busy 200 and the DMA 100.
        let ts = TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 50), (100, 50)])]);
        let r = run(&ts, 10_000);
        let m = r.metrics;
        assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, r.horizon);
        assert_eq!(m.cpu_busy_cycles, cy(2000));
        assert_eq!(m.cpu_idle_cycles, cy(8000));
        assert_eq!(m.dma_busy_cycles, cy(1000));
        // No contention on the bare platform.
        assert_eq!(m.cpu_stall_cycles, Cycles::ZERO);
        assert_eq!(m.dma_stall_cycles, Cycles::ZERO);
        // Per job: one hidden prefetch (segment 1), one lead-in block.
        assert_eq!(m.prefetch_hits, 10);
        assert_eq!(m.blocking_fetches, 10);
    }

    #[test]
    fn idle_trace_events_agree_with_idle_metric() {
        // The CpuIdle/CpuIdleEnd pairs in the trace (with the open tail
        // clamped at the horizon) must sum to exactly the idle counter
        // the hot loop accounted — two independent derivations.
        for (ts, horizon) in [
            (
                TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 50), (100, 300)])]),
                10_000,
            ),
            (
                TaskSet::from_tasks(vec![
                    overlapped("a", 500, &[(40, 64), (60, 32)]),
                    resident("b", 700, &[100, 80]),
                ]),
                50_000,
            ),
            (TaskSet::from_tasks(vec![]), 777),
        ] {
            let r = run(&ts, horizon);
            assert_eq!(
                Timeline::from_trace(&r.trace, r.horizon).traced_idle_cycles(),
                r.metrics.cpu_idle_cycles,
                "horizon {horizon}"
            );
        }
    }

    #[test]
    fn unhidden_fetch_counts_as_blocking() {
        // Fetch of segment 1 (300) outlasts compute of segment 0 (100):
        // every inter-segment transition blocks, plus the lead-in.
        let ts = TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 50), (100, 300)])]);
        let r = run(&ts, 10_000);
        assert_eq!(r.metrics.prefetch_hits, 0);
        assert_eq!(r.metrics.blocking_fetches, 2 * r.stats[0].completions);
    }

    #[test]
    fn contention_stall_is_accounted() {
        let mut p = bare_platform();
        p.contention = ContentionModel {
            cpu_inflation_ppm: 500_000,
            dma_inflation_ppm: 0,
        };
        let ts = TaskSet::from_tasks(vec![overlapped("a", 10_000, &[(100, 100), (100, 100)])]);
        let r = simulate(&ts, &p, &SimConfig::new(cy(10_000), Policy::FixedPriority));
        let m = r.metrics;
        // Compute0 overlaps fetch1 for 100 wall cycles at 1.5×: the CPU
        // retires 66 work cycles and stalls for the other 34 (exact,
        // sub-cycle credit included).
        assert_eq!(m.cpu_stall_cycles, cy(34));
        assert_eq!(m.dma_stall_cycles, Cycles::ZERO);
        assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, r.horizon);
        // Busy wall time = 234 (contended compute0 + compute1).
        assert_eq!(m.cpu_busy_cycles, cy(234));
    }

    #[test]
    fn metrics_and_preemptions_match_stats() {
        let ts = TaskSet::from_tasks(vec![
            resident("hi", 100, &[20]),
            resident("lo", 1000, &[50, 50, 50, 50]),
        ]);
        let r = run(&ts, 1000);
        let stat_preempts: u64 = r.stats.iter().map(|s| s.preemptions).sum();
        assert_eq!(r.metrics.preemptions, stat_preempts);
        assert!(r.metrics.preemptions >= 1);
    }

    #[test]
    fn global_registry_collects_run_totals_when_enabled() {
        let g = rtmdm_obs::metrics::global();
        let before = g.snapshot();
        g.enable(true);
        let ts = TaskSet::from_tasks(vec![overlapped("a", 1000, &[(100, 50), (100, 50)])]);
        let r = run(&ts, 10_000);
        g.enable(false);
        let after = g.snapshot();
        // Other tests may flush concurrently while the gate is open, so
        // assert lower bounds, not exact values.
        assert!(after.counter_delta(&before, "sim.runs") >= 1);
        assert!(after.counter_delta(&before, "sim.cycles") >= 10_000);
        assert!(
            after.counter_delta(&before, "sim.completions") >= r.stats[0].completions,
            "completions flushed"
        );
        // Disabled again: another run adds nothing.
        let mid = g.snapshot();
        let _ = run(&ts, 10_000);
        assert_eq!(g.snapshot().counter("sim.runs"), mid.counter("sim.runs"));
    }

    #[test]
    fn dma_serves_higher_priority_fetches_first() {
        // Both tasks want their lead-in fetch at t=0; task 0's goes
        // first under FP, so task 0 starts computing earlier.
        let ts = TaskSet::from_tasks(vec![
            overlapped("hi", 10_000, &[(100, 500)]),
            overlapped("lo", 10_000, &[(100, 500)]),
        ]);
        let r = run(&ts, 10_000);
        // hi: fetch 500 + compute 100 = 600.
        assert_eq!(r.stats[0].max_response, cy(600));
        // lo: waits for hi's fetch (500), fetches (500); its compute can
        // overlap hi's compute? No — single CPU: lo's fetch overlaps
        // hi's compute. lo computes at t=1000..1100.
        assert_eq!(r.stats[1].max_response, cy(1100));
    }

    fn fault_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            dma_fault_rate_ppm: 300_000,
            max_retries: 3,
            jitter_max_cycles: 25,
        }
    }

    fn fault_taskset() -> TaskSet {
        TaskSet::from_tasks(vec![
            overlapped("a", 500, &[(40, 64), (60, 32)]),
            overlapped("b", 700, &[(100, 128), (80, 64)]),
        ])
    }

    #[test]
    fn zero_rate_fault_plan_is_byte_identical_to_no_plan() {
        let ts = fault_taskset();
        let p = bare_platform();
        let plain = SimConfig::new(cy(50_000), Policy::FixedPriority);
        // A zero-rate, zero-jitter plan with a nonzero seed is inactive:
        // the injector must be provably free on the disabled path.
        let zeroed = SimConfig {
            fault: FaultPlan {
                seed: 12345,
                dma_fault_rate_ppm: 0,
                max_retries: 7,
                jitter_max_cycles: 0,
            },
            ..plain.clone()
        };
        let r1 = simulate(&ts, &p, &plain);
        let r2 = simulate(&ts, &p, &zeroed);
        assert_eq!(r1.trace.events(), r2.trace.events());
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.metrics, r2.metrics);
        assert_eq!(r2.metrics.injected_faults, 0);
        assert_eq!(r2.metrics.refetch_cycles, Cycles::ZERO);
    }

    #[test]
    fn fault_injected_runs_are_deterministic() {
        let ts = fault_taskset();
        let p = bare_platform();
        let cfg = SimConfig {
            fault: fault_plan(9),
            ..SimConfig::new(cy(50_000), Policy::FixedPriority)
        };
        let r1 = simulate(&ts, &p, &cfg);
        let r2 = simulate(&ts, &p, &cfg);
        assert!(r1.metrics.injected_faults > 0, "fault rate should bite");
        assert_eq!(r1.trace.events(), r2.trace.events());
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.metrics, r2.metrics);
    }

    #[test]
    fn fault_injected_run_still_partitions_the_horizon() {
        // The conservation invariant (busy + idle == horizon) must
        // survive retries: a re-issued transfer adds DMA work but must
        // not double-count stall cycles or break the partition.
        let ts = fault_taskset();
        let mut p = bare_platform();
        p.contention = ContentionModel {
            cpu_inflation_ppm: 300_000,
            dma_inflation_ppm: 200_000,
        };
        let cfg = SimConfig {
            fault: fault_plan(4),
            ..SimConfig::new(cy(50_000), Policy::FixedPriority)
        };
        let r = simulate(&ts, &p, &cfg);
        let m = r.metrics;
        assert!(m.injected_faults > 0);
        assert_eq!(m.fetch_retries, m.injected_faults);
        assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, r.horizon);
        assert!(m.dma_busy_cycles <= r.horizon);
        assert!(m.refetch_cycles > Cycles::ZERO);
        let stat_retries: u64 = r.stats.iter().map(|s| s.retries).sum();
        assert_eq!(stat_retries, m.fetch_retries);
        assert_eq!(
            Timeline::from_trace(&r.trace, r.horizon).faults().len() as u64,
            m.injected_faults,
            "every injected fault is visible in the trace"
        );
    }

    #[test]
    fn faulted_transfers_delay_but_do_not_break_staging() {
        // 100% fault rate with the default retry bound: every transfer
        // is re-fetched max_retries times, then succeeds. Jobs still
        // complete, responses only grow.
        let ts = TaskSet::from_tasks(vec![overlapped("a", 10_000, &[(100, 50), (100, 50)])]);
        let p = bare_platform();
        let clean = simulate(&ts, &p, &SimConfig::new(cy(10_000), Policy::FixedPriority));
        let faulty = simulate(
            &ts,
            &p,
            &SimConfig {
                fault: FaultPlan {
                    seed: 1,
                    dma_fault_rate_ppm: 1_000_000,
                    ..FaultPlan::NONE
                },
                ..SimConfig::new(cy(10_000), Policy::FixedPriority)
            },
        );
        assert_eq!(faulty.stats[0].completions, clean.stats[0].completions);
        assert!(faulty.stats[0].max_response > clean.stats[0].max_response);
        // Each of the 2 transfers per job pays exactly max_retries
        // re-fetches at rate 100%.
        assert_eq!(
            faulty.metrics.fetch_retries,
            2 * u64::from(DEFAULT_MAX_RETRIES) * faulty.stats[0].completions
        );
    }

    #[test]
    fn abort_policy_drops_missed_jobs_at_segment_boundaries() {
        // Three 80-cycle non-preemptive segments against a 100-cycle
        // deadline: every job misses mid-segment, gets abort_pending,
        // and is dropped at the next boundary — no job ever completes.
        let t = SporadicTask::new(
            "a",
            cy(100),
            cy(100),
            (0..3).map(|_| Segment::new(cy(80), 0)).collect(),
            StagingMode::Resident,
        )
        .expect("valid")
        .with_miss_policy(MissPolicy::Abort);
        let r = run(&TaskSet::from_tasks(vec![t]), 2000);
        assert!(r.stats[0].misses > 0);
        assert!(r.stats[0].aborted > 0);
        assert_eq!(r.stats[0].completions, 0);
        assert_eq!(r.metrics.aborted_jobs, r.stats[0].aborted);
        let tl = Timeline::from_trace(&r.trace, r.horizon);
        assert_eq!(tl.aborts().len() as u64, r.stats[0].aborted);
        assert!(tl.sheds().is_empty());
    }

    #[test]
    fn abort_cancels_pending_dma_of_the_dropped_job() {
        // The lead-in fetch (500) alone blows the 300-cycle deadline:
        // the job is dropped while *fetching* (not on the CPU), so its
        // in-flight transfer must be cancelled immediately.
        let t = SporadicTask::new(
            "a",
            cy(1000),
            cy(300),
            vec![Segment::new(cy(100), 500)],
            StagingMode::Overlapped,
        )
        .expect("valid")
        .with_miss_policy(MissPolicy::Abort);
        let r = run(&TaskSet::from_tasks(vec![t]), 5000);
        assert!(r.stats[0].aborted > 0);
        assert_eq!(r.stats[0].completions, 0);
        // Each job streams at most 300 cycles (release → deadline) of
        // its 500-cycle fetch before cancellation.
        assert!(r.metrics.dma_busy_cycles <= cy(300 * r.stats[0].releases));
    }

    #[test]
    fn skip_next_release_sheds_after_a_miss() {
        // 150 cycles of work per 100-cycle period: every completing job
        // misses, so every other release is shed. Shed releases still
        // count as releases (stable goodput denominator).
        let t = SporadicTask::new(
            "a",
            cy(100),
            cy(100),
            vec![Segment::new(cy(150), 0)],
            StagingMode::Resident,
        )
        .expect("valid")
        .with_miss_policy(MissPolicy::SkipNextRelease);
        let r = run(&TaskSet::from_tasks(vec![t]), 3000);
        assert!(r.stats[0].shed > 0);
        assert!(r.stats[0].completions > 0);
        assert!(r.stats[0].releases >= r.stats[0].shed + r.stats[0].completions);
        assert_eq!(r.metrics.shed_jobs, r.stats[0].shed);
        let tl = Timeline::from_trace(&r.trace, r.horizon);
        assert_eq!(tl.sheds().len() as u64, r.stats[0].shed);
        assert!(tl.aborts().is_empty());
        // Shedding relieved the overload: the backlog stays bounded, so
        // fewer misses than under Continue.
        let cont = run(
            &TaskSet::from_tasks(vec![SporadicTask::new(
                "a",
                cy(100),
                cy(100),
                vec![Segment::new(cy(150), 0)],
                StagingMode::Resident,
            )
            .expect("valid")]),
            3000,
        );
        assert!(r.stats[0].misses <= cont.stats[0].misses);
    }

    #[test]
    fn deadline_check_precedes_same_instant_release() {
        // D == T: job k's deadline check and job k+1's release share an
        // instant, and the check was scheduled first (at job k's
        // release) — FIFO ordering must process it first. Observable
        // consequence under SkipNextRelease: the very release sharing
        // the instant with the miss is the one shed.
        let t = SporadicTask::new(
            "a",
            cy(100),
            cy(100),
            vec![Segment::new(cy(150), 0)],
            StagingMode::Resident,
        )
        .expect("valid")
        .with_miss_policy(MissPolicy::SkipNextRelease);
        let r = simulate(
            &TaskSet::from_tasks(vec![t]),
            &bare_platform(),
            &SimConfig::new(cy(1000), Policy::FixedPriority),
        );
        let at_100: Vec<&TraceKind> = r
            .trace
            .events()
            .iter()
            .filter(|e| e.time == cy(100))
            .map(|e| &e.kind)
            .collect();
        let miss = at_100
            .iter()
            .position(|k| matches!(k, TraceKind::DeadlineMissed { .. }))
            .expect("job 0 misses at t=100");
        let shed = at_100
            .iter()
            .position(|k| matches!(k, TraceKind::ReleaseShed { .. }))
            .expect("release at t=100 is shed by the same-instant miss");
        assert!(miss < shed, "deadline check must precede the release");
    }

    #[test]
    fn busy_idle_partition_and_stall_bounds_hold_under_contention() {
        let mut p = bare_platform();
        p.contention = ContentionModel {
            cpu_inflation_ppm: 700_000,
            dma_inflation_ppm: 400_000,
        };
        let cfg = SimConfig {
            fault: fault_plan(5),
            ..SimConfig::new(cy(50_000), Policy::FixedPriority)
        };
        let m = simulate(&fault_taskset(), &p, &cfg).metrics;
        assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, cy(50_000));
        assert!(m.cpu_stall_cycles <= m.cpu_busy_cycles);
        assert!(m.dma_stall_cycles <= m.dma_busy_cycles);
        assert!(m.dma_busy_cycles <= cy(50_000));
    }
}
