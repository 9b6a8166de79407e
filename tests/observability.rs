//! Observability guarantees of the framework:
//!
//! - the Chrome trace-event export and the Gantt chart of a small
//!   fixed-seed simulation, and the blame-annotated export and blame
//!   report of a faulted overload, are pinned byte-for-byte by golden
//!   files (and the export round-trips through the bundled
//!   `serde_json`), so drift in any trace reader is caught immediately;
//! - so is the witness an explored deadline miss writes (`rtmdm check
//!   --explore --witness`), whose dominant blame is read from the
//!   violating run's trace, under both exploration strategies;
//! - the Chrome export's direct JSON writer emits exactly the bytes of
//!   its `Content` tree, on faulted runs with hostile task names;
//! - timeline analytics satisfy their accounting invariants — CPU busy
//!   and idle partition the horizon exactly, utilizations and the
//!   fetch/compute overlap ratio stay within `[0, 1]` — across random
//!   task sets, and agree with the counters the simulator itself
//!   collects.

use proptest::prelude::*;

use rt_mdm::check::ExploreStrategy;
use rt_mdm::core::{ExploreLimits, SystemSpec, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::{Cycles, FaultPlan, PlatformConfig, Trace, TraceKind};
use rt_mdm::obs::{
    attribute, chrome_trace, chrome_trace_json, chrome_trace_with_blame, gantt, ChromeTrace,
    Timeline,
};
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::sim::{simulate, Policy, SimConfig, SimResult};
use rt_mdm::sched::{MissPolicy, Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

/// The fixed scenario behind the golden file: two tasks — a two-segment
/// overlapped DNN and a resident control loop — over a 4000-cycle
/// horizon at WCET, seed 0. Everything here is deterministic.
fn golden_scenario() -> (SimResult, Vec<String>) {
    let dnn = SporadicTask::new(
        "dnn",
        cy(2000),
        cy(2000),
        vec![Segment::new(cy(300), 128), Segment::new(cy(200), 64)],
        StagingMode::Overlapped,
    )
    .expect("valid task");
    let ctrl = SporadicTask::new(
        "ctrl",
        cy(500),
        cy(500),
        vec![Segment::new(cy(50), 0)],
        StagingMode::Resident,
    )
    .expect("valid task");
    let ts = TaskSet::from_tasks(vec![ctrl, dnn]);
    let config = SimConfig::new(cy(4000), Policy::FixedPriority);
    let result = simulate(&ts, &PlatformConfig::stm32f746_qspi(), &config);
    (result, vec!["ctrl".to_owned(), "dnn".to_owned()])
}

/// The faulted overload behind `tests/golden_blame.json`: a resident
/// control loop over two overlapped DNNs with attribution on, 30 %
/// transfer faults, the middle task under `Abort` and the lowest under
/// `SkipNextRelease`, so fault, abort, shed, miss, preempt and blame
/// events all appear. Deterministic per seed.
fn faulted_overload_scenario() -> (SimResult, Vec<String>) {
    let ctrl = SporadicTask::new(
        "ctrl",
        cy(7000),
        cy(7000),
        vec![Segment::new(cy(600), 0)],
        StagingMode::Resident,
    )
    .expect("valid task");
    let dnn = SporadicTask::new(
        "dnn",
        cy(25000),
        cy(19000),
        vec![
            Segment::new(cy(6000), 256),
            Segment::new(cy(4500), 192),
            Segment::new(cy(3500), 128),
        ],
        StagingMode::Overlapped,
    )
    .expect("valid task")
    .with_miss_policy(MissPolicy::Abort);
    let big = SporadicTask::new(
        "big",
        cy(50000),
        cy(50000),
        vec![Segment::new(cy(9000), 384), Segment::new(cy(7000), 256)],
        StagingMode::Overlapped,
    )
    .expect("valid task")
    .with_miss_policy(MissPolicy::SkipNextRelease);
    let ts = TaskSet::from_tasks(vec![ctrl, dnn, big]);
    let config = SimConfig {
        fault: FaultPlan {
            seed: 10,
            dma_fault_rate_ppm: 300_000,
            max_retries: 3,
            jitter_max_cycles: 20,
        },
        attribution: true,
        ..SimConfig::new(cy(100000), Policy::FixedPriority)
    };
    let result = simulate(&ts, &PlatformConfig::stm32f746_qspi(), &config);
    (
        result,
        vec!["ctrl".to_owned(), "dnn".to_owned(), "big".to_owned()],
    )
}

#[test]
fn chrome_export_matches_golden_file() {
    let (result, names) = golden_scenario();
    let json = chrome_trace_json(&result.trace, &names);
    let golden = include_str!("golden_chrome.json");
    assert_eq!(
        json,
        golden.trim_end(),
        "Chrome export drifted from tests/golden_chrome.json; if the \
         change is intentional, regenerate with \
         `cargo test --test observability -- --ignored bless_golden`"
    );
}

#[test]
fn chrome_export_round_trips_through_serde_json() {
    let (result, names) = golden_scenario();
    let json = chrome_trace_json(&result.trace, &names);
    let back: ChromeTrace = serde_json::from_str(&json).expect("export parses");
    assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    // One complete ("X") segment event per SegmentStarted/Completed pair.
    let completed = result
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::SegmentCompleted { .. }))
        .count();
    let exported = back
        .traceEvents
        .iter()
        .filter(|e| e.cat == "segment" && e.ph == "X")
        .count();
    assert!(completed > 0, "scenario must execute segments");
    assert_eq!(exported, completed);
}

/// The Gantt chart of the golden scenario, as `rtmdm trace --gantt`
/// draws it.
fn golden_gantt() -> String {
    let (result, names) = golden_scenario();
    gantt::render(
        &Timeline::from_trace(&result.trace, result.horizon),
        72,
        &names,
    )
}

/// The blame-annotated Chrome export and the attribution report of the
/// faulted overload, as one JSON object.
fn faulted_blame_json() -> String {
    let (result, names) = faulted_overload_scenario();
    let chrome = serde_json::to_string(&chrome_trace_with_blame(&result.trace, &names))
        .expect("chrome trace serializes");
    let blame = serde_json::to_string(&attribute(&result.trace).expect("blame conserves"))
        .expect("blame report serializes");
    format!("{{\"chrome\":{chrome},\"blame\":{blame}}}")
}

#[test]
fn gantt_matches_golden_file() {
    assert_eq!(
        golden_gantt(),
        include_str!("golden_gantt.txt"),
        "Gantt chart drifted from tests/golden_gantt.txt"
    );
}

#[test]
fn blame_export_matches_golden_file() {
    let (result, _) = faulted_overload_scenario();
    let m = &result.metrics;
    assert!(m.injected_faults > 0 && m.aborted_jobs > 0 && m.shed_jobs > 0);
    assert!(m.preemptions > 0);
    assert_eq!(
        faulted_blame_json(),
        include_str!("golden_blame.json").trim_end(),
        "blame export or attribution drifted from tests/golden_blame.json"
    );
}

/// Framework runs always record the attribution anchors, so the plain
/// Chrome export must not read them: the faulted overload exports the
/// same bytes with its `FetchWaitBegan`/`FetchWaitEnded`,
/// `SegmentStalled` and `Resumed` events filtered out.
#[test]
fn chrome_export_ignores_attribution_anchors() {
    let (result, names) = faulted_overload_scenario();
    let mut bare = Trace::new();
    let mut anchors = [0usize; 4];
    for e in result.trace.events() {
        match e.kind {
            TraceKind::FetchWaitBegan { .. } => anchors[0] += 1,
            TraceKind::FetchWaitEnded { .. } => anchors[1] += 1,
            TraceKind::SegmentStalled { .. } => anchors[2] += 1,
            TraceKind::Resumed { .. } => anchors[3] += 1,
            kind => bare.push(e.time, kind),
        }
    }
    assert!(anchors.iter().all(|&n| n > 0), "{anchors:?}");
    assert_eq!(
        chrome_trace_json(&bare, &names),
        chrome_trace_json(&result.trace, &names)
    );
}

/// The witness of `rtmdm check --platform stm32f746-qspi --task
/// kws=ds-cnn@30 --task ic=resnet8@100 --explore --jitter 20`, explored
/// under `strategy`: a two-task cell whose first explored run misses a
/// deadline long before its horizon. The CLI always explores with
/// fork; replay is the reference its bytes are compared against.
fn jitter_cell_witness(strategy: ExploreStrategy) -> String {
    let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
    spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 30_000, 30_000));
    spec.push(TaskSpec::new("ic", zoo::resnet8(), 100_000, 100_000));
    let outcome = spec.explore(
        &ExploreLimits {
            strategy,
            ..ExploreLimits::default()
        },
        800_000,
    );
    let witness = outcome.witness.expect("the cell reaches a deadline miss");
    serde_json::to_string(&witness).expect("witness serializes")
}

#[test]
fn explore_witness_matches_golden_file() {
    for strategy in [ExploreStrategy::Fork, ExploreStrategy::Replay] {
        assert_eq!(
            jitter_cell_witness(strategy),
            include_str!("golden_witness.json"),
            "{strategy:?} witness drifted from tests/golden_witness.json"
        );
    }
}

/// Regenerates the golden files. Ignored by default; run explicitly
/// after an intentional exporter change.
#[test]
#[ignore]
fn bless_golden() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");
    let (result, names) = golden_scenario();
    let json = chrome_trace_json(&result.trace, &names);
    std::fs::write(format!("{dir}/golden_chrome.json"), json + "\n").expect("golden written");
    std::fs::write(format!("{dir}/golden_gantt.txt"), golden_gantt()).expect("golden written");
    std::fs::write(
        format!("{dir}/golden_blame.json"),
        faulted_blame_json() + "\n",
    )
    .expect("golden written");
    std::fs::write(
        format!("{dir}/golden_witness.json"),
        jitter_cell_witness(ExploreStrategy::Fork),
    )
    .expect("golden written");
}

fn check_invariants(result: &SimResult) -> Result<(), TestCaseError> {
    let horizon = result.horizon;
    let tl = Timeline::from_trace(&result.trace, horizon);
    // Busy and idle partition the horizon exactly.
    prop_assert_eq!(tl.cpu_busy() + tl.cpu_idle(), horizon);
    prop_assert_eq!(
        tl.cpu_busy(),
        result.metrics.cpu_busy_cycles,
        "timeline busy disagrees with simulator counter"
    );
    prop_assert_eq!(
        tl.dma_busy(),
        result.metrics.dma_busy_cycles,
        "timeline DMA busy disagrees with the simulator's channel"
    );
    prop_assert_eq!(
        tl.traced_idle_cycles(),
        result.metrics.cpu_idle_cycles,
        "trace idle intervals disagree with simulator counter"
    );
    // Utilizations and overlap are proper fractions.
    prop_assert!(tl.cpu_utilization_ppm() <= 1_000_000);
    prop_assert!(tl.dma_utilization_ppm() <= 1_000_000);
    prop_assert!(tl.overlap_ratio_ppm() <= 1_000_000);
    // DMA can never be busier than the wall clock, and overlap is
    // bounded by both parties.
    prop_assert!(tl.dma_busy() <= horizon);
    prop_assert!(tl.overlap_cycles() <= tl.dma_busy());
    prop_assert!(tl.overlap_cycles() <= tl.cpu_busy());
    let s = tl.summary();
    prop_assert_eq!(s.cpu_busy + s.cpu_idle, s.horizon);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120),
        .. ProptestConfig::default()
    })]

    /// Timeline invariants hold on random overlapped task sets, at WCET
    /// and under execution-time jitter.
    #[test]
    fn timeline_invariants_hold(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..90,
        fetch_ratio_pct in 0u64..120,
        scale_min in 300_000u64..=1_000_000,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            exec_scale_min_ppm: scale_min,
            seed,
            ..SimConfig::new(max_t * 3, Policy::FixedPriority)
        };
        let result = simulate(&ts, &p, &config);
        check_invariants(&result)?;
    }

    /// The same invariants, DMA busy time included, hold when injected
    /// faults retry transfers and an `Abort` overload cancels them: each
    /// attempt counts up to its fault, its completion or its job's
    /// abort.
    #[test]
    fn timeline_invariants_hold_under_faults_and_aborts(
        seed in 0u64..100_000,
        n_tasks in 2usize..5,
        util_pct in 60u64..160,
        fault_pick in 0usize..4,
        jitter_pick in 0u64..2,
        flags in 0u8..4,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = 800_000;
        let p = PlatformConfig::stm32f746_qspi();
        let generated = generate(&params, &p, seed);
        let max_t = generated.tasks().iter().map(|t| t.period).max().unwrap();
        let ts = TaskSet::from_tasks(
            generated
                .tasks()
                .iter()
                .map(|t| t.clone().with_miss_policy(MissPolicy::Abort))
                .collect(),
        );
        let config = SimConfig {
            exec_scale_min_ppm: 700_000,
            seed,
            work_conserving: flags & 1 != 0,
            fault: FaultPlan {
                seed,
                dma_fault_rate_ppm: [0, 32_000, 100_000, 200_000][fault_pick],
                max_retries: 3,
                jitter_max_cycles: jitter_pick * 300,
            },
            attribution: flags & 2 != 0,
            ..SimConfig::new(max_t * 3, Policy::FixedPriority)
        };
        let result = simulate(&ts, &p, &config);
        check_invariants(&result)?;
    }

    /// The same invariants hold for resident-only sets (no DMA at all:
    /// the overlap ratio must be zero, not NaN-ish garbage).
    #[test]
    fn timeline_invariants_hold_without_dma(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..90,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.mode = StagingMode::Resident;
        params.fetch_compute_ratio_ppm = 0;
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            seed,
            ..SimConfig::new(max_t * 3, Policy::FixedPriority)
        };
        let result = simulate(&ts, &p, &config);
        check_invariants(&result)?;
        let tl = Timeline::from_trace(&result.trace, result.horizon);
        prop_assert_eq!(tl.dma_busy(), Cycles::ZERO);
        prop_assert_eq!(tl.overlap_ratio_ppm(), 0);
    }

    /// The Chrome export's direct writer and the default tree writer
    /// emit the same bytes, and both parse back to the same export, on
    /// faulted runs (gated or work-conserving, with execution and
    /// transfer jitter) whose task names need escaping.
    #[test]
    fn chrome_export_writes_its_tree_bytes(
        seed in 0u64..100_000,
        n_tasks in 2usize..5,
        util_pct in 40u64..120,
        fault_pick in 0usize..3,
        work_conserving in proptest::bool::ANY,
        name_picks in proptest::collection::vec(proptest::collection::vec(0usize..7, 0..5), 0..5),
    ) {
        const PIECES: [&str; 7] = ["\"", "\\", "\n", "\u{1}", "λ", "kws", " "];
        let names: Vec<String> = name_picks
            .iter()
            .map(|picks| picks.iter().map(|&k| PIECES[k]).collect())
            .collect();
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = 800_000;
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            exec_scale_min_ppm: 700_000,
            seed,
            work_conserving,
            fault: FaultPlan {
                seed,
                dma_fault_rate_ppm: [32_000, 100_000, 200_000][fault_pick],
                max_retries: 3,
                jitter_max_cycles: 300,
            },
            attribution: true,
            ..SimConfig::new(max_t * 3, Policy::FixedPriority)
        };
        let result = simulate(&ts, &p, &config);
        let with_blame = chrome_trace_with_blame(&result.trace, &names);
        let plain = chrome_trace(&result.trace, &names);
        for (ct, direct) in [
            (&with_blame, serde_json::to_string(&with_blame).expect("serializes")),
            (&plain, chrome_trace_json(&result.trace, &names)),
        ] {
            let mut tree = String::new();
            serde::write_content(&serde::Serialize::to_content(ct), &mut tree);
            prop_assert_eq!(&direct, &tree);
            let back: ChromeTrace = serde_json::from_str(&direct).expect("parses");
            prop_assert_eq!(&back, ct);
        }
    }

    /// Chrome exports of random runs always round-trip and pair events.
    #[test]
    fn chrome_export_always_round_trips(
        seed in 0u64..10_000,
        n_tasks in 1usize..5,
        util_pct in 5u64..70,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            seed,
            ..SimConfig::new(max_t * 2, Policy::FixedPriority)
        };
        let result = simulate(&ts, &p, &config);
        let names: Vec<String> = ts.tasks().iter().map(|t| t.name.clone()).collect();
        let export = chrome_trace(&result.trace, &names);
        let json = serde_json::to_string(&export).expect("serializes");
        let back: ChromeTrace = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(back.traceEvents.len(), export.traceEvents.len());
        let completed = result
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::SegmentCompleted { .. }))
            .count();
        let exported = export
            .traceEvents
            .iter()
            .filter(|e| e.cat == "segment" && e.ph == "X")
            .count();
        prop_assert_eq!(exported, completed);
    }
}
