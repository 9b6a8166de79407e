//! Fork-path cost audit (ISSUE 10, satellite 2).
//!
//! Times the three ingredients of a forked exploration run on a
//! scale-sized workload — a full replay from cycle zero, the same run
//! while capturing snapshots, and a resume from a deep snapshot — and
//! asserts the ordering the fork strategy depends on: resuming past a
//! quiet interval must be cheaper than replaying it, and capture
//! overhead must stay within a small factor of the plain run.
//!
//! Wall-clock assertions are kept to coarse factors (not tight bounds)
//! so the test is immune to machine noise; the fine-grained numbers go
//! to stdout for `--nocapture` inspection.

use std::time::Instant;

use rtmdm_mcusim::PlatformConfig;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::ScriptOracle;
use rtmdm_sched::sim::{simulate_with_oracle_forked, Policy, SimConfig, SimSnapshot};
use rtmdm_sched::TaskSet;

fn workload() -> (TaskSet, PlatformConfig, SimConfig) {
    let p = PlatformConfig::stm32f746_qspi();
    let mut params = TasksetParams::baseline(8, 250_000).with_grid_periods();
    params.segments_range = (2, 4);
    let ts = generate(&params, &p, 1);
    let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
    let cfg = SimConfig {
        exec_scale_min_ppm: 600_000,
        attribution: true,
        ..SimConfig::new(horizon, Policy::FixedPriority)
    };
    (ts, p, cfg)
}

/// Median-of-N wall time of one closure call, in seconds.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let _ = f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
fn resuming_a_quiet_interval_beats_replaying_it() {
    let (ts, p, cfg) = workload();

    // Full run with capture: the snapshot ladder the explorer forks from.
    let mut snaps: Vec<SimSnapshot> = Vec::new();
    let mut rec = ScriptOracle::new(Vec::new());
    let full = simulate_with_oracle_forked(&ts, &p, &cfg, &mut rec, None, Some(&mut snaps));
    let deep = snaps.last().expect("snapshots captured").clone();
    assert!(deep.queries_before() > 0, "deep snapshot is not mid-run");

    let t_replay = timed(5, || {
        let mut o = ScriptOracle::new(Vec::new());
        simulate_with_oracle_forked(&ts, &p, &cfg, &mut o, None, None)
    });
    let t_capture = timed(5, || {
        let mut o = ScriptOracle::new(Vec::new());
        let mut caps = Vec::new();
        simulate_with_oracle_forked(&ts, &p, &cfg, &mut o, None, Some(&mut caps))
    });
    let t_resume = timed(5, || {
        let mut o = ScriptOracle::new(Vec::new());
        simulate_with_oracle_forked(&ts, &p, &cfg, &mut o, Some(&deep), None)
    });
    let max_snap = snaps.iter().map(SimSnapshot::size_hint).max().unwrap();

    println!(
        "forkcost: replay {:.3}ms, capture {:.3}ms ({} snaps, max {} bytes), \
         deep resume {:.3}ms (skips {} of {} queries)",
        t_replay * 1e3,
        t_capture * 1e3,
        snaps.len(),
        max_snap,
        t_resume * 1e3,
        deep.queries_before(),
        full.trace.len().max(1) // context only
    );

    // The fork strategy's premise: resuming past the captured prefix is
    // decisively cheaper than re-simulating it from cycle zero.
    assert!(
        t_resume * 2.0 < t_replay,
        "deep resume ({t_resume:.6}s) is not cheaper than replay ({t_replay:.6}s)"
    );
    // And capturing the ladder may not blow up the run it rides on.
    assert!(
        t_capture < t_replay * 10.0,
        "capture overhead ({t_capture:.6}s) dwarfs the plain run ({t_replay:.6}s)"
    );
}
