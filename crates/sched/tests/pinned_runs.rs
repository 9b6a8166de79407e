//! Pinned simulator outputs.
//!
//! Every scenario below pins its trace length and a digest of its whole
//! [`SimResult`] (trace, per-task stats, metrics, races). The values
//! were recorded while the simulator still carried two time-advancement
//! loops — an eager one and a deferred-settlement one — that agreed on
//! all of these scenarios byte for byte, so the one loop left must keep
//! reproducing exactly them. The scenarios span platforms, both
//! dispatchers and policies, execution jitter, injected DMA faults,
//! contention with sub-cycle carry, all three deadline-miss policies,
//! and long segments crossed by many quiet timer instants.

use rtmdm_mcusim::{ContentionModel, Cycles, FaultPlan, PlatformConfig, DEFAULT_MAX_RETRIES};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::StableHash;
use rtmdm_sched::sim::{simulate, Policy, SimConfig, SimResult};
use rtmdm_sched::{MissPolicy, Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

/// `(trace events, digest)` of a run: the digest is a [`StableHash`]
/// over the run's JSON encoding, fed eight bytes at a time.
fn pin(r: &SimResult) -> (usize, u128) {
    let json = serde_json::to_string(r).expect("results serialize");
    let mut h = StableHash::new();
    for chunk in json.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.mix(u64::from_le_bytes(word));
    }
    h.mix(json.len() as u64);
    (r.trace.len(), h.finish().0)
}

fn assert_pinned(
    ts: &TaskSet,
    p: &PlatformConfig,
    cfg: &SimConfig,
    want: (usize, u128),
    what: &str,
) {
    let got = pin(&simulate(ts, p, cfg));
    assert_eq!(got, want, "{what}: run moved off its pinned output");
}

/// The zero-overhead platform of the directed scenarios: no contention,
/// no context-switch charge, one cycle per fetched byte.
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

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        dma_fault_rate_ppm: 300_000,
        max_retries: 3,
        jitter_max_cycles: 25,
    }
}

/// One generated scenario of the grid.
struct Generated {
    label: &'static str,
    platform: PlatformConfig,
    policy: Policy,
    work_conserving: bool,
    exec_scale_min_ppm: u64,
    fault_rate_ppm: u64,
    miss_policy: MissPolicy,
    util_ppm: u64,
    seed: u64,
    /// Pinned `(trace events, releases, misses, injected faults, digest)`.
    want: (usize, u64, u64, u64, u128),
}

/// A grid of generated four-task sets: platforms, dispatchers,
/// policies, jitter, faults and every miss policy, four hyperperiods
/// of the longest period each.
#[test]
fn generated_grid_reproduces_its_pins() {
    let grid = [
        Generated {
            label: "f746/fp/gated/wcet",
            platform: PlatformConfig::stm32f746_qspi(),
            policy: Policy::FixedPriority,
            work_conserving: false,
            exec_scale_min_ppm: 1_000_000,
            fault_rate_ppm: 0,
            miss_policy: MissPolicy::Continue,
            util_ppm: 350_000,
            seed: 7,
            want: (590, 32, 0, 0, 0x666f555f9297bc1636a9384417f33fda),
        },
        Generated {
            label: "f746/fp/wc/jitter",
            platform: PlatformConfig::stm32f746_qspi(),
            policy: Policy::FixedPriority,
            work_conserving: true,
            exec_scale_min_ppm: 400_000,
            fault_rate_ppm: 0,
            miss_policy: MissPolicy::Continue,
            util_ppm: 450_000,
            seed: 11,
            want: (401, 29, 0, 0, 0x8d2837cf40c70cf97bf20551a773338d),
        },
        Generated {
            label: "h743/edf/gated/wcet",
            platform: PlatformConfig::stm32h743_ospi(),
            policy: Policy::Edf,
            work_conserving: false,
            exec_scale_min_ppm: 1_000_000,
            fault_rate_ppm: 0,
            miss_policy: MissPolicy::Continue,
            util_ppm: 500_000,
            seed: 3,
            want: (2362, 124, 13, 0, 0xbcf668d0e3381b8ec08d03337774c898),
        },
        Generated {
            label: "m4/fp/gated/faults",
            platform: PlatformConfig::cortex_m4_lowend(),
            policy: Policy::FixedPriority,
            work_conserving: false,
            exec_scale_min_ppm: 1_000_000,
            fault_rate_ppm: 50_000,
            miss_policy: MissPolicy::Continue,
            util_ppm: 300_000,
            seed: 19,
            want: (3535, 218, 4, 39, 0x87a18f21803d4e1baa423033f42bd604),
        },
        Generated {
            label: "f746/fp/overload/continue",
            platform: PlatformConfig::stm32f746_qspi(),
            policy: Policy::FixedPriority,
            work_conserving: false,
            exec_scale_min_ppm: 1_000_000,
            fault_rate_ppm: 200_000,
            miss_policy: MissPolicy::Continue,
            util_ppm: 800_000,
            seed: 23,
            want: (2762, 110, 30, 135, 0x46f5b792e95cc6c4cdcb549a3ea5665a),
        },
        Generated {
            label: "f746/fp/overload/abort",
            platform: PlatformConfig::stm32f746_qspi(),
            policy: Policy::FixedPriority,
            work_conserving: false,
            exec_scale_min_ppm: 1_000_000,
            fault_rate_ppm: 200_000,
            miss_policy: MissPolicy::Abort,
            util_ppm: 800_000,
            seed: 23,
            want: (2318, 110, 25, 114, 0x3cc114645fa6f4e157040936351c4f87),
        },
        Generated {
            label: "f746/fp/overload/skip-next",
            platform: PlatformConfig::stm32f746_qspi(),
            policy: Policy::FixedPriority,
            work_conserving: false,
            exec_scale_min_ppm: 1_000_000,
            fault_rate_ppm: 200_000,
            miss_policy: MissPolicy::SkipNextRelease,
            util_ppm: 800_000,
            seed: 23,
            want: (2255, 110, 19, 107, 0x90a66f2646e7498d2adc4234d2dd68fb),
        },
        Generated {
            label: "h743/edf/wc/jitter+faults",
            platform: PlatformConfig::stm32h743_ospi(),
            policy: Policy::Edf,
            work_conserving: true,
            exec_scale_min_ppm: 300_000,
            fault_rate_ppm: 100_000,
            miss_policy: MissPolicy::SkipNextRelease,
            util_ppm: 600_000,
            seed: 29,
            want: (427, 29, 0, 7, 0x35d156375aa3a4eb88ef0f3eba06b419),
        },
    ];
    for s in grid {
        let mut params = TasksetParams::baseline(4, s.util_ppm);
        params.segments_range = (2, 5);
        params.fetch_compute_ratio_ppm = 300_000;
        let ts = generate(&params, &s.platform, s.seed);
        let ts = TaskSet::from_tasks(
            ts.tasks()
                .iter()
                .map(|t| t.clone().with_miss_policy(s.miss_policy))
                .collect(),
        );
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 4;
        let config = SimConfig {
            exec_scale_min_ppm: s.exec_scale_min_ppm,
            seed: s.seed,
            work_conserving: s.work_conserving,
            fault: FaultPlan {
                seed: s.seed,
                dma_fault_rate_ppm: s.fault_rate_ppm,
                max_retries: DEFAULT_MAX_RETRIES,
                jitter_max_cycles: if s.fault_rate_ppm > 0 { 50 } else { 0 },
            },
            ..SimConfig::new(horizon, s.policy)
        };
        let r = simulate(&ts, &s.platform, &config);
        let (events, digest) = pin(&r);
        let releases: u64 = r.stats.iter().map(|t| t.releases).sum();
        assert_eq!(
            (
                events,
                releases,
                r.total_misses(),
                r.metrics.injected_faults,
                digest
            ),
            s.want,
            "{}: run moved off its pinned output",
            s.label
        );
    }
}

/// Mixed staging, preemption and DMA-channel contention on three
/// platforms (bare, heavily contended with a context-switch charge,
/// and the F746 preset), each under FP, EDF, work-conserving dispatch,
/// execution jitter and injected faults.
#[test]
fn directed_scenarios_reproduce_their_pins() {
    let contended = {
        let mut p = bare_platform();
        p.contention = ContentionModel {
            cpu_inflation_ppm: 500_000,
            dma_inflation_ppm: 300_000,
        };
        p.context_switch_cycles = cy(10);
        p
    };
    // Per platform: fp, edf, work-conserving, jitter, faults.
    let pins: [[(usize, u128); 5]; 3] = [
        [
            (2182, 0xc3ce12073477050ed0ebef5b3926fc9e),
            (2186, 0x1d7b03cce8edd8cd372cea47c3ebd3ea),
            (2165, 0x22ff8e6981d50e4dfd2f60f37246f547),
            (2347, 0x22b5236049c658c3abc86ea865e7f176),
            (2486, 0x52ad6ba51ec276ac7f5ba1465fadc9e3),
        ],
        [
            (2065, 0x1777a0366de40f1162192d781d736304),
            (2052, 0xb0cadf66398603f275809ec1fbec5bdf),
            (2011, 0x0ed605c9b544434d6e6562aef8f70b3e),
            (2180, 0x5049b32b901cb8ae9708c003a0b6750e),
            (2200, 0xf234661c839905d3d7f1d957e3dd6028),
        ],
        [
            (1234, 0x9700081d264042934c1002f0fe567368),
            (835, 0xf6589a230dd4d3cf3f8bc38cf15826e7),
            (964, 0x39f795b5f60d660c27346fa69897e316),
            (1259, 0x336604b8cabc656721570fbb5958ca2f),
            (1078, 0xa53752cd3e4fc633501e0b07b3d745ff),
        ],
    ];
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 500, &[(40, 64), (60, 32)]),
        resident("b", 700, &[100, 80]),
        overlapped("c", 1300, &[(100, 500), (50, 200)]),
    ]);
    let platforms = [bare_platform(), contended, PlatformConfig::stm32f746_qspi()];
    for (pi, (p, want)) in platforms.iter().zip(pins).enumerate() {
        let fp = SimConfig::new(cy(50_000), Policy::FixedPriority);
        let mut jittered = fp.clone();
        jittered.exec_scale_min_ppm = 400_000;
        jittered.seed = 7;
        let configs = [
            ("fp", fp.clone()),
            ("edf", SimConfig::new(cy(50_000), Policy::Edf)),
            ("wc", fp.clone().work_conserving()),
            ("jitter", jittered),
            ("faults", fp.with_fault(fault_plan(3))),
        ];
        for ((name, cfg), want) in configs.iter().zip(want) {
            assert_pinned(&ts, p, cfg, want, &format!("platform {pi} / {name}"));
        }
    }
}

/// Overloaded task sets under every deadline-miss policy, with and
/// without faults — including DMA cancellation under `Abort`.
#[test]
fn miss_policy_scenarios_reproduce_their_pins() {
    // Per policy: fault-free, faulted.
    let pins = [
        (
            MissPolicy::Continue,
            [
                (268, 0x60fbfea82330e6a90433dedaf866bac7),
                (268, 0x84d9b594ccb2ea05423fe0cee69b9da7),
            ],
        ),
        (
            MissPolicy::SkipNextRelease,
            [
                (260, 0x39f9555c366fb85a46849b5b44290f22),
                (262, 0x5c7652beaaf627d702652288d0f7a46c),
            ],
        ),
        (
            MissPolicy::Abort,
            [
                (294, 0x4a94b3aad140c874924923e7865977d5),
                (294, 0x4a94b3aad140c874924923e7865977d5),
            ],
        ),
    ];
    for (policy, [clean, faulted]) in pins {
        let t = SporadicTask::new(
            "a",
            cy(100),
            cy(100),
            vec![Segment::new(cy(80), 0), Segment::new(cy(80), 0)],
            StagingMode::Resident,
        )
        .expect("valid")
        .with_miss_policy(policy);
        let fetcher = SporadicTask::new(
            "b",
            cy(1000),
            cy(300),
            vec![Segment::new(cy(100), 500)],
            StagingMode::Overlapped,
        )
        .expect("valid")
        .with_miss_policy(policy);
        let ts = TaskSet::from_tasks(vec![t, fetcher]);
        let p = bare_platform();
        let cfg = SimConfig::new(cy(5000), Policy::FixedPriority);
        assert_pinned(&ts, &p, &cfg, clean, &format!("{policy:?}"));
        let cfg = cfg.with_fault(fault_plan(11));
        assert_pinned(&ts, &p, &cfg, faulted, &format!("{policy:?} + faults"));
    }
}

/// A long uncontended segment (8000 cycles) crossed by many releases
/// and deadline checks of a lower-priority task gated behind it: every
/// one of those timer instants cuts the segment's settlement.
#[test]
fn quiet_timer_instants_reproduce_their_pin() {
    let ts = TaskSet::from_tasks(vec![
        resident("long", 100_000, &[8000]),
        resident("chatty", 97, &[1]),
    ]);
    let cfg = SimConfig::new(cy(100_000), Policy::FixedPriority);
    assert_pinned(
        &ts,
        &bare_platform(),
        &cfg,
        (6100, 0x9f077d9536fbfc9b27e23a8dd109473d),
        "quiet timer instants",
    );
}
