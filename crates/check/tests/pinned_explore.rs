//! Pinned explorer outputs.
//!
//! Every cell below pins its verdict, its full [`ExploreStats`] and two
//! digests: one of its findings and counters, one of its witness JSON.
//! The two are kept apart so a change to what the search counts cannot
//! hide a change to the counterexample it reports, and the reverse. The
//! strategy is a cost lever only, so every cell must reproduce its pin
//! under the strategy it names; a change that makes the search cheaper
//! must keep all of them.
//! The cells span both platform presets that the F14 experiments use,
//! 1–8 generated tasks, both branch orders, release jitter and the
//! transfer-fault dimension, and reach every verdict kind: `safe`,
//! `RTM050`, `RTM052` and the budget cut `RTM053`.
//!
//! The pins were recorded while every explored path still ran to the
//! horizon, before a path began to stop at the pair where it merges
//! into one explored earlier; that cut must leave them all unchanged.
//! The five `RTM053` digests were re-pinned once, when the budget cut
//! began counting the branch it refuses among the unexplored ones (the
//! message's branch count rose by one); no counter moved.
//!
//! The findings digests and counters of the twelve violating cells
//! (`RTM050`, `RTM052`) were re-pinned once, when a violating run began
//! to stop after its first violating instant: their `states` and
//! `transitions` now count the pairs explored up to the violation, and
//! their messages quote the smaller state count. Their witness digests,
//! verdicts and run counts did not move, nor did any safe or `RTM053`
//! cell.
//!
//! The witness digests were re-pinned once more when the platform lost
//! its two unread fields, the internal flash size and the DMA channel
//! count: each witness is its former JSON with exactly those two keys
//! removed from `platform`.

use rtmdm_check::{
    explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStats, ExploreStrategy,
};
use rtmdm_mcusim::{FaultPlan, PlatformConfig};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::StableHash;
use rtmdm_sched::sim::{Policy, SimConfig};

use ExploreOrder::{DeepFirst, ShallowFirst};
use ExploreStrategy::{Fork, Replay};

/// Which platform preset a cell generates and explores on.
#[derive(Debug, Clone, Copy)]
enum Preset {
    F746,
    H743,
}

impl Preset {
    fn platform(self) -> PlatformConfig {
        match self {
            Preset::F746 => PlatformConfig::stm32f746_qspi(),
            Preset::H743 => PlatformConfig::stm32h743_ospi(),
        }
    }
}

/// Pinned `(verdict, runs, states, transitions, complete, findings
/// digest, witness digest)`; the witness digest is `0` without a
/// witness.
type Pin = (&'static str, usize, usize, u64, bool, u128, u128);

/// One explored cell: a generated task set, its search, and its pin.
struct Cell {
    preset: Preset,
    n_tasks: usize,
    util_ppm: u64,
    seed: u64,
    /// Horizon in longest periods.
    horizon_periods: u64,
    exec_scale_min_ppm: u64,
    jitter_max_cycles: u64,
    /// Transfer-fault retry budget; `None` leaves faults off.
    fault_retries: Option<u32>,
    max_states: usize,
    order: ExploreOrder,
    strategy: ExploreStrategy,
    /// The pin.
    want: Pin,
}

fn outcome(c: &Cell) -> ExploreOutcome {
    let platform = c.preset.platform();
    let mut params = TasksetParams::baseline(c.n_tasks, c.util_ppm).with_grid_periods();
    params.segments_range = (2, 4);
    let ts = generate(&params, &platform, c.seed);
    let longest = ts.tasks().iter().map(|t| t.period).max().expect("tasks");
    let fault = match c.fault_retries {
        Some(max_retries) => FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 1,
            max_retries,
            jitter_max_cycles: 0,
        },
        None => FaultPlan::NONE,
    };
    let config = SimConfig {
        exec_scale_min_ppm: c.exec_scale_min_ppm,
        fault,
        attribution: true,
        ..SimConfig::new(longest * c.horizon_periods, Policy::FixedPriority)
    };
    let limits = ExploreLimits {
        max_states: c.max_states,
        jitter_max_cycles: c.jitter_max_cycles,
        strategy: c.strategy,
        order: c.order,
        ..ExploreLimits::default()
    };
    explore(&ts, &platform, &config, &limits)
}

/// `safe`, the first finding's rule, or `none` for an incomplete
/// search without findings (which would be a bug).
fn verdict(out: &ExploreOutcome) -> &'static str {
    if out.proven_safe() {
        return "safe";
    }
    out.findings.first().map_or("none", |f| f.rule.id())
}

/// A [`StableHash`] over `text`, fed eight bytes at a time.
fn digest(text: &str) -> u128 {
    let mut h = StableHash::new();
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.mix(u64::from_le_bytes(word));
    }
    h.mix(text.len() as u64);
    h.finish().0
}

/// The digest of the findings (rule, task, message) and the counters.
fn findings_digest(findings: &[rtmdm_check::Finding], stats: &ExploreStats) -> u128 {
    let mut text = String::new();
    for f in findings {
        text.push_str(&format!("{}|{:?}|{}\n", f.rule.id(), f.task, f.message));
    }
    text.push_str(&format!("{stats:?}"));
    digest(&text)
}

/// The digest of the witness JSON, `0` when there is no witness.
fn witness_digest(out: &ExploreOutcome) -> u128 {
    out.witness.as_ref().map_or(0, |w| {
        digest(&serde_json::to_string(w).expect("witness serializes"))
    })
}

#[allow(clippy::too_many_arguments)]
const fn cell(
    preset: Preset,
    n_tasks: usize,
    util_ppm: u64,
    seed: u64,
    horizon_periods: u64,
    exec_scale_min_ppm: u64,
    max_states: usize,
    order: ExploreOrder,
    strategy: ExploreStrategy,
    want: Pin,
) -> Cell {
    Cell {
        preset,
        n_tasks,
        util_ppm,
        seed,
        horizon_periods,
        exec_scale_min_ppm,
        jitter_max_cycles: 0,
        fault_retries: None,
        max_states,
        order,
        strategy,
        want,
    }
}

#[rustfmt::skip]
fn cells() -> Vec<Cell> {
    use Preset::{F746, H743};
    // preset, tasks, compute util (ppm), generator seed, horizon in
    // longest periods, lower exec scale (ppm), state budget, order,
    // strategy; then the pin.
    vec![
        cell(F746, 1, 500_000, 1, 4, 500_000, 2_000, ShallowFirst, Fork,
            ("safe", 5, 4, 40, true, 0x3dff63c0f84496019a6103d3c40a2f70, 0)),
        cell(H743, 1, 950_000, 2, 4, 500_000, 2_000, DeepFirst, Replay,
            ("RTM050", 1, 2, 4, false, 0x07357e827542036e8e32155ba54ea47f, 0xcec75ec7b018ba4d72425e35759710e5)),
        cell(F746, 2, 400_000, 3, 3, 550_000, 2_000, DeepFirst, Fork,
            ("safe", 67, 66, 8442, true, 0xa3c141d4b2ac902407454c74f8659229, 0)),
        cell(H743, 2, 450_000, 4, 3, 550_000, 2_000, ShallowFirst, Replay,
            ("safe", 10, 9, 140, true, 0x6cf07012f92443b22c057f27401e5bc6, 0)),
        cell(F746, 3, 350_000, 5, 2, 600_000, 2_000, ShallowFirst, Replay,
            ("safe", 27, 26, 918, true, 0xcd7702c910db05e0075558c837848153, 0)),
        cell(H743, 3, 900_000, 6, 2, 600_000, 2_000, DeepFirst, Fork,
            ("RTM050", 1, 5, 10, false, 0x1fab41fc051541a34d6cd3eb565ccf7a, 0x854674954dab3ea032b8b5542037c989)),
        cell(F746, 4, 300_000, 7, 2, 550_000, 2_000, DeepFirst, Replay,
            ("safe", 30, 29, 900, true, 0x1a958c350ace34f2caf4f4d2ba81c2e2, 0)),
        cell(H743, 4, 350_000, 8, 2, 550_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 6, 12, false, 0xbae1f442c1c5a5fc8e9c1599e8b72d7e, 0x80e5dd492cb6b6c4d8569c243a95c81b)),
        cell(F746, 5, 950_000, 9, 2, 600_000, 400, ShallowFirst, Fork,
            ("RTM050", 1, 14, 28, false, 0x062eaab48ca00b879e7ed5e47db8af29, 0x1ffcc288760fae24059294fe5dbca4d2)),
        cell(H743, 5, 300_000, 10, 2, 600_000, 400, DeepFirst, Replay,
            ("RTM053", 370, 400, 84360, false, 0x1022a909bc0d10806823b1e7a845206a, 0)),
        cell(F746, 6, 250_000, 11, 2, 600_000, 300, DeepFirst, Fork,
            ("safe", 265, 264, 42400, true, 0xce3ef9acd9899b645839abb9f3da764e, 0)),
        cell(H743, 6, 1_000_000, 12, 2, 600_000, 300, ShallowFirst, Replay,
            ("RTM050", 1, 8, 16, false, 0x027ab4b456c45e10efec39e6520e8c7c, 0x98c10c7a1171527f2ada962592cbebdb)),
        cell(F746, 7, 100_000, 13, 2, 600_000, 300, ShallowFirst, Replay,
            ("RTM053", 216, 300, 57888, false, 0x46d157cea32f618d3caed3f7b2331271, 0)),
        cell(H743, 7, 100_000, 1, 2, 600_000, 300, DeepFirst, Fork,
            ("RTM053", 216, 300, 69984, false, 0x4dfdf94ca5e9616e317dec68dd47a71d, 0)),
        cell(F746, 8, 200_000, 1, 2, 600_000, 300, DeepFirst, Replay,
            ("RTM053", 180, 301, 57240, false, 0x3f6a14ed705dc2db43aaf7cbf6c5426b, 0)),
        cell(H743, 8, 250_000, 16, 4, 600_000, 300, ShallowFirst, Fork,
            ("RTM050", 1, 9, 18, false, 0x0d73855dd1f4ea2e067eeec49768ca45, 0xf69eba98908ecafa5bb0f8e54033307f)),
        cell(F746, 4, 400_000, 17, 4, 550_000, 2_000, DeepFirst, Fork,
            ("safe", 121, 120, 7260, true, 0xb90194a73896ba13bb8b2a1ae85cea77, 0)),
        cell(F746, 5, 350_000, 18, 2, 550_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 8, 16, false, 0xb5cc0023957b8f5b3b60c44a925e0c37, 0xd4263fc8e01b52a4a2b38880b2d96f8e)),
        cell(H743, 5, 400_000, 19, 2, 550_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 6, 12, false, 0xf702554589e3d7bdc6a6b953a742ddc3, 0x1b3694a1e9d17c94d291fc8c3a5a56ad)),
        cell(H743, 3, 350_000, 20, 4, 550_000, 2_000, DeepFirst, Replay,
            ("safe", 46, 45, 3312, true, 0x0b780415f90a5d058c2e57c141f51e96, 0)),
        cell(F746, 2, 800_000, 21, 4, 500_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 5, 10, false, 0x2f9e1d9a0a754491274463305d838370, 0x68e3a202c6f4f3085f80fd497b05ea82)),
        cell(H743, 6, 300_000, 22, 2, 600_000, 1_000, DeepFirst, Fork,
            ("RTM050", 1, 9, 18, false, 0x41aae5ed53f1c53154c001492512d2d1, 0xa3f940e1d110f05e5bbb4ee9b1e60840)),
        // Release jitter: misses only on jittered paths.
        Cell { jitter_max_cycles: 2_000_000, ..cell(F746, 3, 600_000, 1, 2, 600_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 222, 309, 4884, false, 0xb4f08874b19c1801a04c3d301f553cb0, 0x95e19b441f5992f1173c319f1115db58)) },
        Cell { jitter_max_cycles: 2_000_000, ..cell(F746, 3, 800_000, 1, 2, 600_000, 2_000, DeepFirst, Replay,
            ("RTM050", 418, 436, 9196, false, 0x7b73b2ada29d1c455b1d8636c782cfb5, 0x5018511c84073529f1a29a9b24cb5cde)) },
        // Transfer faults with a retry budget of two.
        Cell { fault_retries: Some(2), ..cell(F746, 2, 600_000, 1, 2, 1_000_000, 2_000, ShallowFirst, Fork,
            ("RTM052", 12, 70, 355, false, 0x522de79ff0c092f12b91b02665421e5f, 0x3def9a2d32e40dff1d115b891265f876)) },
        Cell { fault_retries: Some(2), ..cell(F746, 2, 600_000, 1, 2, 1_000_000, 2_000, ShallowFirst, Replay,
            ("RTM052", 12, 70, 355, false, 0x522de79ff0c092f12b91b02665421e5f, 0x3def9a2d32e40dff1d115b891265f876)) },
        Cell { fault_retries: Some(2), ..cell(F746, 2, 300_000, 1, 2, 1_000_000, 2_000, DeepFirst, Replay,
            ("RTM053", 1986, 2000, 64501, false, 0x9deee1b7900c6beb58a6362b8b224c3d, 0)) },
    ]
}

#[test]
fn generated_cells_reproduce_their_pins() {
    let mut moved = Vec::new();
    for (i, c) in cells().iter().enumerate() {
        let out = outcome(c);
        let s = out.stats;
        let got = (
            verdict(&out),
            s.runs,
            s.states,
            s.transitions,
            s.complete,
            findings_digest(&out.findings, &s),
            witness_digest(&out),
        );
        if got != c.want {
            let (v, runs, states, transitions, complete, findings, witness) = got;
            moved.push(format!(
                "cell {i} ({:?}, {} tasks): got (\"{v}\", {runs}, {states}, {transitions}, \
                 {complete}, 0x{findings:032x}, 0x{witness:032x})",
                c.preset, c.n_tasks
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "cells moved off their pinned outputs:\n{}",
        moved.join("\n")
    );
}
