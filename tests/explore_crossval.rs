//! Two-way cross-validation of the exhaustive explorer against the
//! simulator, in both directions.
//!
//! 1. **Admitted implies explorer-safe** — every zoo model × platform
//!    cell whose static report is clean explores to completion with no
//!    `RTM050`/`RTM051`, under the deterministic WCET lattice and (for
//!    the reference two-task cell) under sub-WCET execution endpoints.
//!
//! 2. **Explorer-found implies simulator-reproducible** — every
//!    directed violation scenario (overload miss, widened-window race,
//!    exhausted retry budget) yields a witness whose script reproduces
//!    the violating event at the explorer-predicted cycle, with the
//!    blame decomposition naming the same dominant cause. Each witness
//!    is executed both ways the explorer executes a path — replayed
//!    from time zero, and resumed from the last mid-run snapshot before
//!    the violation — and the two runs must be byte-identical. (The
//!    `…_on_both_engines` test names predate the single simulator loop;
//!    these two executions are what they compare now.) A property test
//!    extends direction 2 over random generated task sets.
//!
//! 3. **Strategy equivalence** — the fork-based incremental explorer
//!    and the replay-from-zero reference produce identical verdicts,
//!    counters, and witness JSON over random task sets × jitter × fault
//!    environments, and so does the `check --explore` pipeline.

use proptest::prelude::*;

use rt_mdm::check::{
    explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStrategy, Rule, Witness,
};
use rt_mdm::core::{SystemSpec, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::{ContentionModel, Cycles, FaultPlan, PlatformConfig, TraceKind};
use rt_mdm::obs::attribute;
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::script::ScriptOracle;
use rt_mdm::sched::sim::{simulate_with_oracle_forked, Policy, SimConfig, SimResult};
use rt_mdm::sched::{Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

/// A contention- and overhead-free platform so directed scenarios have
/// exactly the cycle arithmetic their comments claim.
fn bare_platform() -> PlatformConfig {
    let mut p = PlatformConfig::stm32f746_qspi();
    p.contention = ContentionModel::NONE;
    p.context_switch_cycles = Cycles::ZERO;
    p.ext_mem.setup_cycles = Cycles::ZERO;
    p.ext_mem.cycles_per_byte_num = 1;
    p.ext_mem.cycles_per_byte_den = 1;
    p
}

fn base_config(horizon: u64) -> SimConfig {
    SimConfig {
        attribution: true,
        ..SimConfig::new(cy(horizon), Policy::FixedPriority)
    }
}

/// Replays `w` from time zero and again resumed from the last snapshot
/// captured before the violation, asserts the two runs are
/// byte-identical and reproduce the witnessed violation at `w.at`, and
/// returns the replay.
fn assert_witness_replays_on_both_engines(w: &Witness) -> SimResult {
    let replay = w.replay();
    let mut snaps = Vec::new();
    let mut oracle = ScriptOracle::new(w.script.clone());
    simulate_with_oracle_forked(
        &w.task_set,
        &w.platform,
        &w.config,
        &mut oracle,
        None,
        Some(&mut snaps),
    );
    let snap = snaps
        .iter()
        .rev()
        .find(|s| s.instant().get() <= w.at)
        .expect("a snapshot precedes the violation");
    let suffix = w.script[snap.queries_before().min(w.script.len())..].to_vec();
    let resumed = simulate_with_oracle_forked(
        &w.task_set,
        &w.platform,
        &w.config,
        &mut ScriptOracle::new(suffix),
        Some(snap),
        None,
    );
    assert_eq!(
        replay.trace.events(),
        resumed.trace.events(),
        "witness replay diverges between time zero and the snapshot resume"
    );
    assert_eq!(replay.stats, resumed.stats);
    assert_eq!(replay.races, resumed.races);

    match w.rule.as_str() {
        "RTM051" => {
            let race = replay
                .races
                .iter()
                .find(|r| r.at.get() == w.at)
                .unwrap_or_else(|| panic!("no race at predicted cycle {} in replay", w.at));
            assert_eq!(race.task, w.task);
            assert_eq!(race.job, w.job);
        }
        _ => {
            let miss = replay
                .trace
                .events()
                .iter()
                .find(|e| {
                    matches!(
                        e.kind,
                        TraceKind::DeadlineMissed { task, job }
                            if task.0 == w.task && job.0 == w.job
                    )
                })
                .expect("replay reproduces the witnessed miss");
            assert_eq!(
                miss.time.get(),
                w.at,
                "explorer-predicted miss instant != simulated miss instant"
            );
        }
    }

    // Blame agreement: attributing the replayed trace must name the
    // same dominant interference source for the victim job that the
    // explorer recorded in the witness.
    let replay_blame = attribute(&replay.trace)
        .expect("replayed trace attributes")
        .jobs
        .iter()
        .find(|j| j.task.0 == w.task && j.job.0 == w.job)
        .and_then(|j| j.dominant_interference())
        .map(|(src, _)| src.to_string());
    assert_eq!(
        replay_blame, w.dominant_blame,
        "replay blame decomposition disagrees with the witness"
    );
    replay
}

// ---------------------------------------------------------------------
// Direction 1: admitted cells are explorer-safe.
// ---------------------------------------------------------------------

/// Statically clean cells must explore to completion with no reachable
/// miss or race under the given execution-scale lattice.
fn assert_cell_explorer_safe(platform: PlatformConfig, tasks: &[TaskSpec], exec_min_ppm: u64) {
    let mut spec = SystemSpec::new(platform.clone());
    for t in tasks {
        spec.push(t.clone());
    }
    if !spec.check().is_clean() {
        return; // the property only claims anything for clean cells
    }
    let outcome = spec.explore(&ExploreLimits::default(), exec_min_ppm);
    let stats = outcome.explore_stats.expect("clean cells explore");
    assert!(
        stats.complete,
        "{}: exploration must cover the lattice",
        platform.name
    );
    assert!(
        !outcome
            .report
            .findings
            .iter()
            .any(|f| matches!(f.rule, Rule::Rtm050 | Rule::Rtm051)),
        "{}: admitted cell reached a violation:\n{}",
        platform.name,
        outcome.report.render_text()
    );
    assert!(outcome.witness.is_none());
}

#[test]
fn admitted_zoo_cells_are_explorer_safe() {
    type ModelBuilder = fn() -> rt_mdm::dnn::Model;
    let models: &[(&str, ModelBuilder)] = &[
        ("micro-mlp", zoo::micro_mlp),
        ("ds-cnn", zoo::ds_cnn),
        ("lenet5", zoo::lenet5),
        ("resnet8", zoo::resnet8),
        ("mobilenet-v1-025", zoo::mobilenet_v1_025),
        ("autoencoder", zoo::autoencoder),
    ];
    for platform in PlatformConfig::presets() {
        for (name, build) in models {
            let task = TaskSpec::new(*name, build(), 1_000_000, 1_000_000);
            assert_cell_explorer_safe(platform.clone(), &[task], 1_000_000);
        }
    }
}

#[test]
fn admitted_reference_pair_is_explorer_safe_under_exec_endpoints() {
    // The paper's reference cell, with the execution-time dimension
    // enabled: every job may run at WCET or at 60 % of it, and no
    // interleaving of those endpoints misses or races.
    let tasks = [
        TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
        TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000),
    ];
    assert_cell_explorer_safe(PlatformConfig::stm32f746_qspi(), &tasks, 600_000);
}

// ---------------------------------------------------------------------
// Direction 2: explorer findings replay, from time zero and from a
// snapshot.
// ---------------------------------------------------------------------

#[test]
fn overload_miss_witness_replays_on_both_engines() {
    let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
    spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
    let outcome = spec.explore(&ExploreLimits::default(), 1_000_000);
    assert!(outcome
        .report
        .findings
        .iter()
        .any(|f| f.rule == Rule::Rtm050));
    let w = outcome.witness.expect("overload yields a witness");
    assert_eq!(w.rule, "RTM050");
    assert_witness_replays_on_both_engines(&w);
}

#[test]
fn jitter_miss_witness_replays_on_both_engines() {
    // Feasible when periodic (600 compute in a 1000 deadline); a
    // 500-cycle release jitter pushes completion past the anchored
    // deadline on exactly one explored branch.
    let ts = TaskSet::from_tasks(vec![SporadicTask::new(
        "t",
        cy(2_000),
        cy(1_000),
        vec![Segment::new(cy(600), 0)],
        StagingMode::Resident,
    )
    .expect("valid task")]);
    let out = explore(
        &ts,
        &bare_platform(),
        &base_config(8_000),
        &ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 500,
            ..ExploreLimits::default()
        },
    );
    let w = out.witness.expect("jitter miss yields a witness");
    assert_eq!(w.rule, "RTM050");
    assert_witness_replays_on_both_engines(&w);
}

#[test]
fn widened_window_race_witness_replays_on_both_engines() {
    let ts = TaskSet::from_tasks(vec![SporadicTask::new(
        "a",
        cy(2_000_000),
        cy(2_000_000),
        (0..4).map(|_| Segment::new(cy(200_000), 256)).collect(),
        StagingMode::Overlapped,
    )
    .expect("valid task")]);
    let mut cfg = base_config(2_000_000);
    cfg.staging_window = 3;
    let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
    let w = out.witness.expect("widened window yields a witness");
    assert_eq!(w.rule, "RTM051");
    assert_witness_replays_on_both_engines(&w);
}

#[test]
fn retry_budget_witness_replays_on_both_engines() {
    let ts = TaskSet::from_tasks(vec![SporadicTask::new(
        "a",
        cy(40_000),
        cy(40_000),
        (0..3).map(|_| Segment::new(cy(1_000), 4_096)).collect(),
        StagingMode::Overlapped,
    )
    .expect("valid task")]);
    let mut cfg = base_config(40_000);
    cfg.fault = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 1,
        max_retries: 3,
        jitter_max_cycles: 0,
    };
    let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
    let w = out.witness.expect("fault paths yield a witness");
    assert_eq!(w.rule, "RTM052");
    assert_witness_replays_on_both_engines(&w);
}

#[test]
fn witness_json_round_trips_and_still_replays() {
    // The file the CLI writes is the witness itself: serializing,
    // re-parsing, and replaying must reproduce the identical run.
    let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
    spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
    let outcome = spec.explore(&ExploreLimits::default(), 1_000_000);
    let w = outcome.witness.expect("witness");
    let json = serde_json::to_string(&w).expect("witness serializes");
    let back: Witness = serde_json::from_str(&json).expect("witness re-parses");
    assert_eq!(back.schema, "rtmdm-witness/1");
    let a = w.replay();
    let b = back.replay();
    assert_eq!(a.trace.events(), b.trace.events());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.races, b.races);
}

// ---------------------------------------------------------------------
// Property: any witness the explorer finds on a random generated set
// replays byte-identically from time zero and from a snapshot.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16),
        ..ProptestConfig::default()
    })]

    #[test]
    fn explored_witnesses_replay_byte_identically_on_both_engines(
        n in 1usize..4,
        util_ppm in 300_000u64..1_200_000,
        seed in 0u64..64,
        wide_exec in proptest::bool::ANY,
        with_jitter in proptest::bool::ANY,
    ) {
        let exec_min_ppm = if wide_exec { 500_000u64 } else { 1_000_000 };
        let jitter_max = if with_jitter { 40_000u64 } else { 0 };
        let platform = PlatformConfig::stm32f746_qspi();
        let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
        params.segments_range = (2, 4);
        let ts = generate(&params, &platform, seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let mut cfg = base_config(horizon.get());
        cfg.exec_scale_min_ppm = exec_min_ppm;
        let limits = ExploreLimits {
            max_states: 500,
            jitter_max_cycles: jitter_max,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &platform, &cfg, &limits);
        if let Some(w) = &out.witness {
            // Every violation must have been classified and replayed.
            prop_assert!(matches!(
                w.rule.as_str(),
                "RTM050" | "RTM051" | "RTM052"
            ));
            assert_witness_replays_on_both_engines(w);
        } else {
            // No witness: either proven safe or honestly inconclusive.
            prop_assert!(
                out.proven_safe()
                    || out.findings.iter().any(|f| f.rule == Rule::Rtm053),
                "findings: {:?}",
                out.findings
            );
        }
    }

    /// Replay stays as the tests' reference for fork: fork-based
    /// incremental exploration and replay-from-zero produce identical
    /// verdicts, counters, and witness JSON over random task sets ×
    /// jitter × fault environments.
    #[test]
    fn fork_and_replay_strategies_are_outcome_identical(
        n in 1usize..4,
        util_ppm in 300_000u64..1_200_000,
        seed in 0u64..64,
        wide_exec in proptest::bool::ANY,
        with_jitter in proptest::bool::ANY,
        with_faults in proptest::bool::ANY,
        deep_first in proptest::bool::ANY,
    ) {
        let platform = PlatformConfig::stm32f746_qspi();
        let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
        params.segments_range = (2, 4);
        let ts = generate(&params, &platform, seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let mut cfg = base_config(horizon.get());
        cfg.exec_scale_min_ppm = if wide_exec { 500_000 } else { 1_000_000 };
        if with_faults {
            cfg.fault = FaultPlan {
                seed: 0,
                dma_fault_rate_ppm: 1,
                max_retries: 2,
                jitter_max_cycles: 0,
            };
        }
        let limits = ExploreLimits {
            max_states: 400,
            jitter_max_cycles: if with_jitter { 40_000 } else { 0 },
            order: if deep_first {
                ExploreOrder::DeepFirst
            } else {
                ExploreOrder::ShallowFirst
            },
            ..ExploreLimits::default()
        };
        let forked = explore(&ts, &platform, &cfg, &ExploreLimits {
            strategy: ExploreStrategy::Fork,
            ..limits
        });
        let replayed = explore(&ts, &platform, &cfg, &ExploreLimits {
            strategy: ExploreStrategy::Replay,
            ..limits
        });
        prop_assert_eq!(outcome_fingerprint(&forked), outcome_fingerprint(&replayed));
    }
}

/// Renders an exploration outcome into one comparable blob: every
/// finding, the witness JSON the CLI would write, and the counters.
fn outcome_fingerprint(out: &ExploreOutcome) -> String {
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

/// `check --explore` output is byte-identical under the fork and
/// replay strategies (the CI smoke repeats this on the CLI binary).
#[test]
fn check_explore_pipeline_is_strategy_invariant() {
    let run = |strategy| {
        let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
        let outcome = spec.explore(
            &ExploreLimits {
                strategy,
                ..ExploreLimits::default()
            },
            1_000_000,
        );
        let w = outcome.witness.expect("overload yields a witness");
        format!(
            "{}\n{:?}\n{}",
            outcome.report.render_text(),
            outcome.explore_stats,
            serde_json::to_string(&w).expect("witness serializes"),
        )
    };
    assert_eq!(
        run(ExploreStrategy::Fork),
        run(ExploreStrategy::Replay),
        "strategies must agree byte for byte"
    );
}
