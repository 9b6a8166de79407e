//! Pinned explorer outputs.
//!
//! Every cell below pins its verdict, its full [`ExploreStats`] and a
//! digest of its findings and witness JSON. The strategy is a cost
//! lever only, so every cell must reproduce its pin under the strategy
//! it names; a change that makes the search cheaper must keep all of
//! them.
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

use rtmdm_check::{explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStrategy};
use rtmdm_mcusim::{FaultPlan, PlatformConfig};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::StableHash;
use rtmdm_sched::sim::{Engine, Policy, SimConfig};

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
    /// Pinned `(verdict, runs, states, transitions, complete, digest)`.
    want: (&'static str, usize, usize, u64, bool, u128),
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
        horizon: longest * c.horizon_periods,
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: c.exec_scale_min_ppm,
        seed: 0,
        work_conserving: false,
        fault,
        engine: Engine::Des,
        attribution: true,
        staging_window: 2,
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

/// A [`StableHash`] over the findings (rule, task, message) and the
/// witness JSON, fed eight bytes at a time.
fn digest(out: &ExploreOutcome) -> u128 {
    let mut text = String::new();
    for f in &out.findings {
        text.push_str(&format!("{}|{:?}|{}\n", f.rule.id(), f.task, f.message));
    }
    if let Some(w) = &out.witness {
        text.push_str(&serde_json::to_string(w).expect("witness serializes"));
    }
    let mut h = StableHash::new();
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.mix(u64::from_le_bytes(word));
    }
    h.mix(text.len() as u64);
    h.finish().0
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
    want: (&'static str, usize, usize, u64, bool, u128),
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
            ("safe", 5, 4, 40, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(H743, 1, 950_000, 2, 4, 500_000, 2_000, DeepFirst, Replay,
            ("RTM050", 1, 4, 8, false, 0x577428a081e852a8b6f66fd913b682f3)),
        cell(F746, 2, 400_000, 3, 3, 550_000, 2_000, DeepFirst, Fork,
            ("safe", 67, 66, 8442, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(H743, 2, 450_000, 4, 3, 550_000, 2_000, ShallowFirst, Replay,
            ("safe", 10, 9, 140, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(F746, 3, 350_000, 5, 2, 600_000, 2_000, ShallowFirst, Replay,
            ("safe", 27, 26, 918, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(H743, 3, 900_000, 6, 2, 600_000, 2_000, DeepFirst, Fork,
            ("RTM050", 1, 72, 144, false, 0x4abb94bc44386f7db9f29751f2240a79)),
        cell(F746, 4, 300_000, 7, 2, 550_000, 2_000, DeepFirst, Replay,
            ("safe", 30, 29, 900, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(H743, 4, 350_000, 8, 2, 550_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 98, 196, false, 0x08048638fffefa3c58666af235413e0c)),
        cell(F746, 5, 950_000, 9, 2, 600_000, 400, ShallowFirst, Fork,
            ("RTM050", 1, 80, 160, false, 0x9046a84efb13e2f1f42838b2922b027d)),
        cell(H743, 5, 300_000, 10, 2, 600_000, 400, DeepFirst, Replay,
            ("RTM053", 370, 400, 84360, false, 0xfa6ab60693df68336dfd6b587d3dd5ce)),
        cell(F746, 6, 250_000, 11, 2, 600_000, 300, DeepFirst, Fork,
            ("safe", 265, 264, 42400, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(H743, 6, 1_000_000, 12, 2, 600_000, 300, ShallowFirst, Replay,
            ("RTM050", 1, 107, 214, false, 0xcb073ce2ee1fc8f04e35772235a8cdb3)),
        cell(F746, 7, 100_000, 13, 2, 600_000, 300, ShallowFirst, Replay,
            ("RTM053", 216, 300, 57888, false, 0x96df8c015f1c172cc956f54bbb282595)),
        cell(H743, 7, 100_000, 1, 2, 600_000, 300, DeepFirst, Fork,
            ("RTM053", 216, 300, 69984, false, 0x96df8c015f1c172cc956f54bbb282595)),
        cell(F746, 8, 200_000, 1, 2, 600_000, 300, DeepFirst, Replay,
            ("RTM053", 180, 301, 57240, false, 0x1d026983cf2e601a42dd4ccc505f8da9)),
        cell(H743, 8, 250_000, 16, 4, 600_000, 300, ShallowFirst, Fork,
            ("RTM050", 1, 214, 428, false, 0xf0f369df3864dd31576b1164568107ba)),
        cell(F746, 4, 400_000, 17, 4, 550_000, 2_000, DeepFirst, Fork,
            ("safe", 121, 120, 7260, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(F746, 5, 350_000, 18, 2, 550_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 54, 108, false, 0x8549b04f21a77819b21f4ef5653be35a)),
        cell(H743, 5, 400_000, 19, 2, 550_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 102, 204, false, 0xe12ab1bea9715a0767d2b37f67b407fa)),
        cell(H743, 3, 350_000, 20, 4, 550_000, 2_000, DeepFirst, Replay,
            ("safe", 46, 45, 3312, true, 0x42d4e4142e1dcdc7f8bb92c91b3f5cc0)),
        cell(F746, 2, 800_000, 21, 4, 500_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 1, 9, 18, false, 0x86dd61f7b4cebf3e0556d27184dc3cde)),
        cell(H743, 6, 300_000, 22, 2, 600_000, 1_000, DeepFirst, Fork,
            ("RTM050", 1, 131, 262, false, 0xc82e1fb0653058a46d5426d7a388b437)),
        // Release jitter: misses only on jittered paths.
        Cell { jitter_max_cycles: 2_000_000, ..cell(F746, 3, 600_000, 1, 2, 600_000, 2_000, ShallowFirst, Fork,
            ("RTM050", 222, 309, 4884, false, 0x54fa9907af99f761523aa2749217931b)) },
        Cell { jitter_max_cycles: 2_000_000, ..cell(F746, 3, 800_000, 1, 2, 600_000, 2_000, DeepFirst, Replay,
            ("RTM050", 418, 436, 9196, false, 0xd6a1f94d17d7ad95a872bf836b99e418)) },
        // Transfer faults with a retry budget of two.
        Cell { fault_retries: Some(2), ..cell(F746, 2, 600_000, 1, 2, 1_000_000, 2_000, ShallowFirst, Fork,
            ("RTM052", 12, 74, 373, false, 0xc33a287702632c32fa0eabd580d2fec0)) },
        Cell { fault_retries: Some(2), ..cell(F746, 2, 600_000, 1, 2, 1_000_000, 2_000, ShallowFirst, Replay,
            ("RTM052", 12, 74, 373, false, 0xc33a287702632c32fa0eabd580d2fec0)) },
        Cell { fault_retries: Some(2), ..cell(F746, 2, 300_000, 1, 2, 1_000_000, 2_000, DeepFirst, Replay,
            ("RTM053", 1986, 2000, 64501, false, 0xca7c18405b9f39b004927b9138dd2930)) },
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
            digest(&out),
        );
        if got != c.want {
            let (v, runs, states, transitions, complete, digest) = got;
            moved.push(format!(
                "cell {i} ({:?}, {} tasks): got (\"{v}\", {runs}, {states}, {transitions}, \
                 {complete}, 0x{digest:032x})",
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
