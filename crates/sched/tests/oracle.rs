//! Choice-oracle contract tests: the oracle hook must be invisible when
//! it answers every query with the deterministic default, and a recorded
//! script must replay identically every time — these two properties are
//! what make explorer witnesses trustworthy.

use proptest::prelude::*;

use rtmdm_mcusim::{Cycles, FaultPlan, PlatformConfig, TaskId, TraceKind};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::{
    Choice, ChoicePoint, ScriptOracle, ScriptedChoice, SimOracle, StateHash,
};
use rtmdm_sched::sim::{
    simulate, simulate_with_oracle, simulate_with_oracle_forked, Policy, RaceKind, SimConfig,
    SimResult,
};
use rtmdm_sched::{MissPolicy, Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

fn config(horizon: u64) -> SimConfig {
    SimConfig::new(cy(horizon), Policy::FixedPriority)
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

fn assert_same_run(a: &SimResult, b: &SimResult, ctx: &str) {
    assert_eq!(a.trace.events(), b.trace.events(), "{ctx}: trace");
    assert_eq!(a.stats, b.stats, "{ctx}: stats");
    assert_eq!(a.races, b.races, "{ctx}: races");
}

/// An oracle that always answers the deterministic default.
struct DefaultOracle;

impl SimOracle for DefaultOracle {
    fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
        Choice::default_for(&point)
    }
}

/// A default-answering oracle must be invisible: the run is
/// byte-identical to a plain `simulate` of the same config, for
/// generated task sets. This is the foundation the
/// explorer's "default spine" rests on.
#[test]
fn default_oracle_run_is_byte_identical_to_plain() {
    let p = platform();
    for seed in 0..8u64 {
        let params = TasksetParams::baseline(3, 500_000);
        let ts = generate(&params, &p, seed);
        let horizon = ts.tasks().iter().map(|t| t.period.get()).max().unwrap() * 3;
        let cfg = config(horizon);
        let plain = simulate(&ts, &p, &cfg);
        let mut oracle = DefaultOracle;
        let oracled = simulate_with_oracle(&ts, &p, &cfg, &mut oracle);
        assert_same_run(&plain, &oracled, &format!("seed {seed}"));
    }
}

/// With `exec_scale_min_ppm < 1_000_000` the oracle's default answer is
/// WCET, so the oracled run must match a plain run whose scale floor is
/// pinned at WCET (the RNG never fires under an oracle).
#[test]
fn default_oracle_pins_exec_scale_at_wcet() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 40_000, &[(3_000, 2_048), (4_000, 1_024)]),
        resident("b", 70_000, 70_000, 9_000),
    ]);
    let mut scaled = config(200_000);
    scaled.exec_scale_min_ppm = 400_000;
    let mut oracle = DefaultOracle;
    let oracled = simulate_with_oracle(&ts, &p, &scaled, &mut oracle);
    let wcet = simulate(&ts, &p, &config(200_000));
    assert_eq!(oracled.trace.events(), wcet.trace.events());
    assert_eq!(oracled.stats, wcet.stats);
}

/// Scripted release jitter delays a job's entry while its deadline stays
/// anchored at the nominal release: enough jitter turns an easily
/// feasible job into a deadline miss.
#[test]
fn scripted_jitter_keeps_deadline_anchored() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![resident("t", 100_000, 50_000, 20_000)]);
    let cfg = config(100_000);
    // No jitter: finishes well inside the deadline.
    assert!(simulate(&ts, &p, &cfg).no_misses());
    // 40k cycles of jitter: entry at 40k + ~20k compute > 50k deadline.
    let script = vec![ScriptedChoice {
        point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
        value: Choice::ReleaseJitter(cy(40_000)),
    }];
    let mut oracle = ScriptOracle::new(script);
    let run = simulate_with_oracle(&ts, &p, &cfg, &mut oracle);
    assert!(run.stats[0].misses >= 1, "anchored deadline must be missed");
    assert!(run
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. })));
}

/// A scripted transfer fault forces the re-issue path: the trace carries
/// the `FetchFaulted` event and the faulted run finishes strictly later
/// than the clean one.
#[test]
fn scripted_transfer_fault_forces_retry() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![overlapped(
        "a",
        400_000,
        &[(3_000, 4_096), (3_000, 4_096)],
    )]);
    let mut cfg = config(400_000);
    // A live fault environment is required for the oracle to be asked;
    // the rate itself is ignored under an oracle.
    cfg.fault = FaultPlan {
        seed: 1,
        dma_fault_rate_ppm: 1,
        max_retries: 3,
        jitter_max_cycles: 0,
    };
    struct FaultFirst;
    impl SimOracle for FaultFirst {
        fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
            match point {
                ChoicePoint::TransferFault {
                    seg: 0, attempt: 0, ..
                } => Choice::TransferFault(true),
                _ => Choice::default_for(&point),
            }
        }
    }
    let mut faulty = FaultFirst;
    let run = simulate_with_oracle(&ts, &p, &cfg, &mut faulty);
    assert!(run
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceKind::FetchFaulted { attempt: 0, .. })));
    let mut clean = DefaultOracle;
    let clean_run = simulate_with_oracle(&ts, &p, &cfg, &mut clean);
    assert!(clean_run
        .trace
        .events()
        .iter()
        .all(|e| !matches!(e.kind, TraceKind::FetchFaulted { .. })));
    assert!(run.stats[0].total_response > clean_run.stats[0].total_response);
}

/// The default two-ahead staging window provably excludes buffer-half
/// overlap, so the always-on race monitor must stay silent; a widened
/// window of 3 lets the DMA write segment `k + 2` into the half the CPU
/// is still reading segment `k` from, and the monitor must report it.
#[test]
fn staging_window_three_reaches_buffer_race() {
    let p = platform();
    // Long computes with small fetches: the DMA runs far ahead of the
    // CPU as soon as the window allows it.
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
    let safe = simulate(&ts, &p, &config(2_000_000));
    assert!(safe.races.is_empty(), "window 2 must be race-free");
    let mut wide = config(2_000_000);
    wide.staging_window = 3;
    let racy = simulate(&ts, &p, &wide);
    assert!(!racy.races.is_empty(), "window 3 must reach a staging race");
    let r = &racy.races[0];
    assert_eq!(r.write_seg % 2, r.clobbered_seg % 2, "same buffer half");
    assert_ne!(r.write_seg, r.clobbered_seg);
    assert!(matches!(
        r.kind,
        RaceKind::CpuRead | RaceKind::StagedUnconsumed
    ));
}

/// Script replay is deterministic: the same script produces
/// byte-identical runs across repeated replays. This is the
/// witness-replay guarantee.
#[test]
fn script_replay_is_deterministic() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 60_000, &[(4_000, 2_048), (5_000, 2_048)]),
        resident("b", 90_000, 90_000, 12_000),
    ]);
    let mut cfg = config(360_000);
    cfg.exec_scale_min_ppm = 500_000;
    cfg.fault = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 1,
        max_retries: 2,
        jitter_max_cycles: 0,
    };
    // A deliberately mixed script; positional replay tolerates kind
    // mismatches by degrading to defaults, so any script is replayable.
    let script = vec![
        ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
            value: Choice::ReleaseJitter(cy(1_500)),
        },
        ScriptedChoice {
            point: ChoicePoint::ExecScale {
                task: 0,
                job: 0,
                min_ppm: 500_000,
            },
            value: Choice::ExecScale(700_000),
        },
        ScriptedChoice {
            point: ChoicePoint::TransferFault {
                task: 0,
                job: 0,
                seg: 0,
                attempt: 0,
            },
            value: Choice::TransferFault(true),
        },
        ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 1, job: 0 },
            value: Choice::ReleaseJitter(cy(900)),
        },
    ];
    let replay = || {
        let mut oracle = ScriptOracle::new(script.clone());
        simulate_with_oracle(&ts, &p, &cfg, &mut oracle)
    };
    assert_same_run(&replay(), &replay(), "replay determinism");
}

/// Answers from a script and records every fingerprint it is shown.
struct Recording {
    script: ScriptOracle,
    hashes: Vec<StateHash>,
}

impl Recording {
    fn new(script: Vec<ScriptedChoice>) -> Recording {
        Recording {
            script: ScriptOracle::new(script),
            hashes: Vec::new(),
        }
    }
}

impl SimOracle for Recording {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        self.hashes.push(state);
        self.script.choose(point, state)
    }
}

/// A deterministic pseudo-random word for position `index` under
/// `salt` (a splitmix64 step).
fn mix(salt: u64, index: usize) -> u64 {
    let mut z = salt.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The answer to query `index` of a run under `salt`: one of the two
/// endpoints the explorer branches over, faults on a quarter of the
/// transfer queries.
fn endpoint(point: ChoicePoint, index: usize, salt: u64, jitter: u64) -> Choice {
    let r = mix(salt, index);
    match point {
        ChoicePoint::ExecScale { min_ppm, .. } if r & 1 == 1 => Choice::ExecScale(min_ppm),
        ChoicePoint::ReleaseJitter { .. } if r & 1 == 1 => Choice::ReleaseJitter(cy(jitter)),
        ChoicePoint::TransferFault { .. } => Choice::TransferFault(r & 6 == 0),
        _ => Choice::default_for(&point),
    }
}

/// Answers [`endpoint`]s from absolute query `from` on and records the
/// fingerprint at every query, pulled eagerly by the provided
/// [`SimOracle::answer`].
struct Eager {
    from: usize,
    salt: u64,
    jitter: u64,
    log: Vec<(ChoicePoint, Choice, StateHash)>,
}

impl SimOracle for Eager {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        let answer = endpoint(point, self.from + self.log.len(), self.salt, self.jitter);
        self.log.push((point, answer, state));
        answer
    }
}

/// Answers like [`Eager`], but pulls the fingerprint only at the
/// queries `pull` selects.
struct Lazy {
    from: usize,
    salt: u64,
    jitter: u64,
    pull: u64,
    log: Vec<(ChoicePoint, Choice, Option<StateHash>)>,
}

impl SimOracle for Lazy {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        self.answer(point, &|| state)
    }

    fn answer(&mut self, point: ChoicePoint, state: &dyn Fn() -> StateHash) -> Choice {
        let index = self.from + self.log.len();
        let answer = endpoint(point, index, self.salt, self.jitter);
        let pulled = (mix(self.pull, index) & 1 == 1).then(state);
        self.log.push((point, answer, pulled));
        answer
    }
}

/// Checks a lazy oracle's log against the eager log of the same run.
fn same_answers_and_pulled_fingerprints(
    lazy: &[(ChoicePoint, Choice, Option<StateHash>)],
    eager: &[(ChoicePoint, Choice, StateHash)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(lazy.len(), eager.len());
    for (i, (l, e)) in lazy.iter().zip(eager).enumerate() {
        prop_assert_eq!((l.0, l.1), (e.0, e.1), "query {}", i);
        if let Some(hash) = l.2 {
            prop_assert_eq!(hash, e.2, "fingerprint at query {}", i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// A fingerprint pulled lazily is the fingerprint the eager oracle
    /// is shown at the same query, and pulling it or not changes
    /// nothing: over generated gated and work-conserving runs with
    /// faults, jitter and scaled execution times, from time zero and
    /// resumed from a snapshot, an oracle that pulls at a random subset
    /// of queries gets the eager oracle's trace, answers and hashes.
    #[test]
    fn lazily_pulled_fingerprints_match_the_eager_ones(
        seed in 0u64..100_000,
        n_tasks in 1usize..5,
        util_pct in 5u64..70,
        wc in proptest::bool::ANY,
        scaled in proptest::bool::ANY,
        faults in proptest::bool::ANY,
        jitter in 0u64..20_000,
        salt in 0u64..=u64::MAX,
        pull in 0u64..=u64::MAX,
        snap_sel in 0usize..1_000,
    ) {
        let p = platform();
        let ts = generate(&TasksetParams::baseline(n_tasks, util_pct * 10_000), &p, seed);
        let horizon = ts.tasks().iter().map(|t| t.period.get()).max().unwrap() * 2;
        let mut cfg = config(horizon);
        cfg.work_conserving = wc;
        cfg.exec_scale_min_ppm = if scaled { 600_000 } else { 1_000_000 };
        if faults {
            cfg.fault = FaultPlan {
                seed,
                dma_fault_rate_ppm: 1,
                max_retries: 2,
                jitter_max_cycles: 0,
            };
        }
        let mut snaps = Vec::new();
        let mut eager = Eager { from: 0, salt, jitter, log: Vec::new() };
        let full = simulate_with_oracle_forked(&ts, &p, &cfg, &mut eager, None, Some(&mut snaps));
        let mut lazy = Lazy { from: 0, salt, jitter, pull, log: Vec::new() };
        let run = simulate_with_oracle(&ts, &p, &cfg, &mut lazy);
        prop_assert_eq!(full.trace.events(), run.trace.events());
        prop_assert_eq!(&full.stats, &run.stats);
        prop_assert_eq!(&full.races, &run.races);
        same_answers_and_pulled_fingerprints(&lazy.log, &eager.log)?;

        if !snaps.is_empty() {
            let snap = &snaps[snap_sel % snaps.len()];
            let q = snap.queries_before();
            let mut lazy = Lazy { from: q, salt, jitter, pull, log: Vec::new() };
            let resumed = simulate_with_oracle_forked(&ts, &p, &cfg, &mut lazy, Some(snap), None);
            prop_assert_eq!(full.trace.events(), resumed.trace.events());
            prop_assert_eq!(&full.stats, &resumed.stats);
            same_answers_and_pulled_fingerprints(&lazy.log, &eager.log[q..])?;
        }
    }
}

/// One scenario of the fork contract: a run, the script its oracle
/// answers from, and the spans of that run during which the state the
/// scenario exercises is live.
struct ForkCase {
    name: &'static str,
    ts: TaskSet,
    cfg: SimConfig,
    script: Vec<ScriptedChoice>,
    live: fn(&SimResult) -> Vec<(Cycles, Cycles)>,
}

/// Spans from each trace event `open` matches to the next event of the
/// same task that `close` matches.
fn spans(
    run: &SimResult,
    open: fn(&TraceKind) -> Option<TaskId>,
    close: fn(&TraceKind) -> Option<TaskId>,
) -> Vec<(Cycles, Cycles)> {
    let events = run.trace.events();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let Some(task) = open(&e.kind) else { continue };
        if let Some(end) = events[i..].iter().find(|f| close(&f.kind) == Some(task)) {
            out.push((e.time, end.time));
        }
    }
    out
}

fn missed(k: &TraceKind) -> Option<TaskId> {
    match *k {
        TraceKind::DeadlineMissed { task, .. } => Some(task),
        _ => None,
    }
}

fn whole_run(run: &SimResult) -> Vec<(Cycles, Cycles)> {
    vec![(Cycles::ZERO, run.horizon)]
}

/// A light lowest-priority task whose releases put a snapshot every
/// `period` cycles, so some snapshot falls inside every live span.
fn ticker(period: u64) -> SporadicTask {
    resident("tick", period, period, 500)
}

fn resident_with(segs: &[u64], period: u64, deadline: u64, policy: MissPolicy) -> SporadicTask {
    SporadicTask::new(
        "hi",
        cy(period),
        cy(deadline),
        segs.iter().map(|&c| Segment::new(cy(c), 0)).collect(),
        StagingMode::Resident,
    )
    .expect("valid task")
    .with_miss_policy(policy)
}

fn fork_cases() -> Vec<ForkCase> {
    let mut scripted = config(360_000);
    scripted.exec_scale_min_ppm = 500_000;
    scripted.fault = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 1,
        max_retries: 2,
        jitter_max_cycles: 0,
    };
    let mut attributed = config(240_000);
    attributed.attribution = true;
    let mut widened = config(2_000_000);
    widened.staging_window = 3;
    let mut edf = config(400_000);
    edf.policy = Policy::Edf;
    vec![
        ForkCase {
            name: "scripted jitter, scale and fault",
            ts: TaskSet::from_tasks(vec![
                overlapped("a", 60_000, &[(4_000, 2_048), (5_000, 2_048)]),
                resident("b", 90_000, 90_000, 12_000),
            ]),
            cfg: scripted,
            script: vec![
                ScriptedChoice {
                    point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
                    value: Choice::ReleaseJitter(cy(1_500)),
                },
                ScriptedChoice {
                    point: ChoicePoint::ExecScale {
                        task: 0,
                        job: 0,
                        min_ppm: 500_000,
                    },
                    value: Choice::ExecScale(700_000),
                },
                ScriptedChoice {
                    point: ChoicePoint::TransferFault {
                        task: 0,
                        job: 0,
                        seg: 0,
                        attempt: 0,
                    },
                    value: Choice::TransferFault(true),
                },
                ScriptedChoice {
                    point: ChoicePoint::ReleaseJitter { task: 1, job: 0 },
                    value: Choice::ReleaseJitter(cy(900)),
                },
            ],
            live: whole_run,
        },
        // A job misses while it holds the CPU: it is dropped only at
        // its segment boundary, so `abort_pending` is live in between.
        ForkCase {
            name: "abort_pending",
            ts: TaskSet::from_tasks(vec![
                resident_with(&[80_000; 3], 200_000, 100_000, MissPolicy::Abort),
                ticker(30_000),
            ]),
            cfg: config(1_000_000),
            script: Vec::new(),
            live: |run| {
                spans(run, missed, |k| match *k {
                    TraceKind::JobAborted { task, .. } => Some(task),
                    _ => None,
                })
            },
        },
        // With D < T, `skip_next` is live from the miss to the release
        // it sheds.
        ForkCase {
            name: "skip_next",
            ts: TaskSet::from_tasks(vec![
                resident_with(&[150_000], 200_000, 100_000, MissPolicy::SkipNextRelease),
                ticker(30_000),
            ]),
            cfg: config(1_000_000),
            script: Vec::new(),
            live: |run| {
                spans(run, missed, |k| match *k {
                    TraceKind::ReleaseShed { task, .. } => Some(task),
                    _ => None,
                })
            },
        },
        ForkCase {
            name: "wait_open",
            ts: TaskSet::from_tasks(vec![
                overlapped("a", 60_000, &[(4_000, 2_048), (5_000, 2_048)]),
                ticker(500),
            ]),
            cfg: attributed,
            script: Vec::new(),
            live: |run| {
                spans(
                    run,
                    |k| match *k {
                        TraceKind::FetchWaitBegan { task, .. } => Some(task),
                        _ => None,
                    },
                    |k| match *k {
                        TraceKind::FetchWaitEnded { task, .. } => Some(task),
                        _ => None,
                    },
                )
            },
        },
        ForkCase {
            name: "races",
            ts: TaskSet::from_tasks(vec![
                overlapped("a", 2_000_000, &[(200_000, 256); 4]),
                ticker(100_000),
            ]),
            cfg: widened,
            script: Vec::new(),
            live: |run| {
                run.races
                    .first()
                    .map(|r| (r.at, run.horizon))
                    .into_iter()
                    .collect()
            },
        },
        ForkCase {
            name: "edf",
            ts: TaskSet::from_tasks(vec![
                overlapped("a", 50_000, &[(4_000, 2_048), (4_000, 1_024)]),
                resident("b", 80_000, 80_000, 10_000),
            ]),
            cfg: edf,
            script: Vec::new(),
            live: whole_run,
        },
    ]
}

/// Fork contract: a run resumed from any captured snapshot is
/// byte-identical — trace, stats, metrics, races — to the run that
/// captured it, and sees exactly the fingerprints the capturing run saw
/// from that choice position on. This is what lets the explorer branch
/// from a snapshot instead of replaying from time zero, and merge
/// states by fingerprint whether a path was reached by replay or by
/// fork. Each scenario puts some snapshot inside a span where the
/// state it exercises is live.
#[test]
fn forked_resume_reproduces_the_capturing_run() {
    let p = platform();
    for case in fork_cases() {
        let name = case.name;
        let mut snaps = Vec::new();
        let mut rec = Recording::new(case.script.clone());
        let full =
            simulate_with_oracle_forked(&case.ts, &p, &case.cfg, &mut rec, None, Some(&mut snaps));
        let live = (case.live)(&full);
        assert!(
            snaps.iter().any(|s| live
                .iter()
                .any(|&(a, b)| a < s.instant() && s.instant() <= b)),
            "{name}: no snapshot inside a live span {live:?}"
        );
        assert!(
            snaps.iter().any(|s| s.queries_before() > 0),
            "{name}: no mid-run snapshot"
        );
        for snap in &snaps {
            assert!(snap.size_hint() > 0);
            let q = snap.queries_before();
            let mut resumed_rec = Recording::new(case.script[q.min(case.script.len())..].to_vec());
            let resumed = simulate_with_oracle_forked(
                &case.ts,
                &p,
                &case.cfg,
                &mut resumed_rec,
                Some(snap),
                None,
            );
            let ctx = format!("{name} @ {:?}", snap.instant());
            assert_same_run(&full, &resumed, &ctx);
            assert_eq!(full.metrics, resumed.metrics, "{ctx}: metrics");
            assert_eq!(resumed_rec.hashes, rec.hashes[q..], "{ctx}: fingerprints");
        }
    }
}

/// Fork contract, part 3 (cost): resuming past a quiet prefix re-does
/// only suffix work — the resumed run answers exactly the queries after
/// the snapshot instead of the whole sequence. Deliberately a
/// work-based assertion (query count), not wall clock, so it cannot
/// flake.
#[test]
fn resume_answers_only_suffix_queries() {
    struct Counter {
        n: usize,
    }
    impl SimOracle for Counter {
        fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
            self.n += 1;
            Choice::default_for(&point)
        }
    }
    let p = platform();
    // A long horizon over many releases: the last snapshot sits deep in
    // the run, so its suffix is a small fraction of the whole.
    let ts = TaskSet::from_tasks(vec![overlapped("a", 20_000, &[(2_000, 1_024)])]);
    let cfg = config(400_000);
    let mut snaps = Vec::new();
    let mut full = Counter { n: 0 };
    simulate_with_oracle_forked(&ts, &p, &cfg, &mut full, None, Some(&mut snaps));
    let last = snaps.last().expect("snapshots captured");
    assert!(last.queries_before() > 0, "last snapshot is not mid-run");
    let mut resumed = Counter { n: 0 };
    simulate_with_oracle_forked(&ts, &p, &cfg, &mut resumed, Some(last), None);
    assert_eq!(resumed.n, full.n - last.queries_before());
    assert!(resumed.n < full.n);
}

/// An oracle that answers defaults, records every query, and asks the
/// simulator to stop once it has answered query `stop_at`, or — with
/// `on_violation` — once the run has recorded a violation.
struct StopAfter {
    stop_at: Option<usize>,
    on_violation: bool,
    queries: Vec<(ChoicePoint, StateHash)>,
}

impl StopAfter {
    fn new(stop_at: Option<usize>, on_violation: bool) -> StopAfter {
        StopAfter {
            stop_at,
            on_violation,
            queries: Vec::new(),
        }
    }
}

impl SimOracle for StopAfter {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        self.queries.push((point, state));
        Choice::default_for(&point)
    }

    fn stop_after_instant(&self, violated: bool) -> bool {
        self.stop_at.is_some_and(|k| self.queries.len() > k) || (self.on_violation && violated)
    }
}

/// Early-stop contract: a run whose oracle stops it after the instant
/// of query `k` is an exact prefix of the full run — its trace and its
/// query log, with the whole instant finished and nothing after it —
/// and the snapshots it captured before stopping resume exactly like
/// the full run's. The explorer cuts merged paths this way and forks
/// their branches from those snapshots. A run whose oracle stops on a
/// violation ends after the instant of its first deadline miss or
/// staging race, and is the same kind of prefix; the explorer cuts
/// violating paths this way.
#[test]
fn an_oracle_stop_yields_a_prefix_of_the_full_run() {
    stop_on_violation_yields_a_prefix();
    let p = platform();
    let ts = generate(&TasksetParams::baseline(3, 500_000), &p, 5);
    let horizon = ts.tasks().iter().map(|t| t.period.get()).max().unwrap() * 3;
    let mut cfg = config(horizon);
    cfg.exec_scale_min_ppm = 500_000;
    let mut full_snaps = Vec::new();
    let mut full_oracle = StopAfter::new(None, false);
    let full =
        simulate_with_oracle_forked(&ts, &p, &cfg, &mut full_oracle, None, Some(&mut full_snaps));
    let n = full_oracle.queries.len();
    assert!(n > 8, "scenario asks too few queries ({n})");
    let full_events = full.trace.events();
    for k in [0, 1, n / 3, n / 2, 2 * n / 3] {
        let mut snaps = Vec::new();
        let mut oracle = StopAfter::new(Some(k), false);
        let cut = simulate_with_oracle_forked(&ts, &p, &cfg, &mut oracle, None, Some(&mut snaps));
        let ctx = format!("stop after query {k}");
        let q = oracle.queries.len();
        assert!(q > k && q < n, "{ctx}: {q} of {n} queries");
        assert_eq!(
            oracle.queries[..],
            full_oracle.queries[..q],
            "{ctx}: queries"
        );
        let events = cut.trace.events();
        assert!(events.len() < full_events.len(), "{ctx}: ran to the end");
        assert_eq!(events[..], full_events[..events.len()], "{ctx}: trace");
        let last = events.last().expect("events before the stop").time;
        assert!(
            full_events[events.len()..].iter().all(|e| e.time > last),
            "{ctx}: the stop instant was left unfinished"
        );
        assert!(
            !snaps.is_empty() && snaps.len() < full_snaps.len(),
            "{ctx}: snapshots"
        );
        for (i, (snap, full_snap)) in snaps.iter().zip(&full_snaps).enumerate() {
            assert_eq!(snap.instant(), full_snap.instant(), "{ctx}: snapshot {i}");
            assert_eq!(snap.queries_before(), full_snap.queries_before());
            assert_eq!(snap.size_hint(), full_snap.size_hint());
            let mut a = DefaultOracle;
            let mut b = DefaultOracle;
            let from_cut = simulate_with_oracle_forked(&ts, &p, &cfg, &mut a, Some(snap), None);
            let from_full =
                simulate_with_oracle_forked(&ts, &p, &cfg, &mut b, Some(full_snap), None);
            assert_same_run(&from_cut, &from_full, &format!("{ctx}: resume {i}"));
            assert_eq!(from_cut.metrics, from_full.metrics, "{ctx}: resume {i}");
        }
        // The covered span, up to the stop instant, stays exactly
        // partitioned.
        let m = cut.metrics;
        assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, last, "{ctx}");
    }
}

/// The violation case of [`an_oracle_stop_yields_a_prefix_of_the_full_run`]:
/// an overload that first misses a deadline long before its horizon,
/// and a widened staging window that first races long before its
/// horizon.
fn stop_on_violation_yields_a_prefix() {
    let p = platform();
    let overload = TaskSet::from_tasks(vec![
        resident("hi", 10_000, 10_000, 4_000),
        resident("lo", 20_000, 12_000, 9_000),
    ]);
    let racy = TaskSet::from_tasks(vec![overlapped(
        "a",
        2_000_000,
        &[
            (200_000, 256),
            (200_000, 256),
            (200_000, 256),
            (200_000, 256),
        ],
    )]);
    let mut wide = config(10_000_000);
    wide.staging_window = 3;
    for (name, ts, cfg) in [("miss", overload, config(200_000)), ("race", racy, wide)] {
        let mut full_oracle = StopAfter::new(None, false);
        let mut snaps = Vec::new();
        let full =
            simulate_with_oracle_forked(&ts, &p, &cfg, &mut full_oracle, None, Some(&mut snaps));
        let full_events = full.trace.events();
        let first_miss = full_events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. }))
            .map(|e| e.time);
        let first_race = full.races.first().map(|r| r.at);
        let first = first_miss.into_iter().chain(first_race).min();
        let first = first.unwrap_or_else(|| panic!("{name}: the full run violates"));
        assert!(
            first.get() * 4 < cfg.horizon.get(),
            "{name}: the first violation is not early"
        );

        let mut oracle = StopAfter::new(None, true);
        let cut = simulate_with_oracle(&ts, &p, &cfg, &mut oracle);
        let events = cut.trace.events();
        assert!(events.len() < full_events.len(), "{name}: ran to the end");
        assert_eq!(events[..], full_events[..events.len()], "{name}: trace");
        assert_eq!(
            events.last().map(|e| e.time),
            Some(first),
            "{name}: the run did not end at its first violating instant"
        );
        assert!(
            full_events[events.len()..].iter().all(|e| e.time > first),
            "{name}: the violating instant was left unfinished"
        );
        let q = oracle.queries.len();
        assert!(q < full_oracle.queries.len(), "{name}: queries");
        assert_eq!(
            oracle.queries[..],
            full_oracle.queries[..q],
            "{name}: queries"
        );
        let prior: Vec<_> = full.races.iter().filter(|r| r.at <= first).collect();
        assert_eq!(cut.races.iter().collect::<Vec<_>>(), prior, "{name}: races");
        assert_eq!(
            cut.total_misses(),
            full_events[..events.len()]
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. }))
                .count() as u64,
            "{name}: misses"
        );
        let m = cut.metrics;
        assert_eq!(m.cpu_busy_cycles + m.cpu_idle_cycles, first, "{name}");

        // A run resumed past the violation has recorded it already, as
        // the run that captured the snapshot had: it stops after the
        // first instant it processes.
        let after = snaps.iter().find(|s| s.instant() > first);
        let after = after.unwrap_or_else(|| panic!("{name}: a snapshot after the violation"));
        let mut oracle = StopAfter::new(None, true);
        let resumed = simulate_with_oracle_forked(&ts, &p, &cfg, &mut oracle, Some(after), None);
        let events = resumed.trace.events();
        assert_eq!(events[..], full_events[..events.len()], "{name}: resumed");
        let mut processed: Vec<_> = events
            .iter()
            .map(|e| e.time)
            .filter(|&t| t > after.instant())
            .collect();
        processed.dedup();
        assert_eq!(
            processed.len(),
            1,
            "{name}: the resumed run did not stop after its first instant"
        );
    }
}
