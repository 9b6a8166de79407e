//! Figure F6 — non-preemptive blocking vs segmentation granularity.
//!
//! Each segmentation configuration is an independent cell for
//! [`par_map_seeded`]; rows come back in input order.

use rtmdm_core::{report, FrameworkOptions, RtMdm, Strategy, TaskSpec};
use rtmdm_dnn::zoo;

use rtmdm_par::par_map_seeded;

use super::{eval_platform, ms};

/// F6 — how the segment compute cap bounds the blocking a heavyweight
/// DNN imposes on a 25 ms control task. Expected shape: the whole-DNN
/// baseline blocks for the entire inference (≈80 ms — hopeless); finer
/// caps shrink the analytical bound until, without tiling, it floors at
/// resnet8's largest indivisible layer (≈15 ms of compute); intra-layer
/// tiling then tracks the cap all the way down.
pub fn f6_blocking() -> String {
    // (label, forced strategy, cap µs, intra-layer tiling)
    let configs: Vec<(&str, Option<Strategy>, Option<u64>, bool)> = vec![
        ("whole-dnn", Some(Strategy::WholeDnn), None, false),
        ("cap 20 ms", None, Some(20_000), false),
        ("cap 10 ms", None, Some(10_000), false),
        ("cap 5 ms", None, Some(5_000), false),
        ("cap 10 ms + tiling", None, Some(10_000), true),
        ("cap 5 ms + tiling", None, Some(5_000), true),
        ("cap 2.5 ms + tiling", None, Some(2_500), true),
        ("cap 1 ms + tiling", None, Some(1_000), true),
    ];
    let rows = par_map_seeded(configs, |(label, strategy, cap_us, tiling)| {
        let platform = eval_platform();
        let cpu = platform.cpu;
        let options = FrameworkOptions {
            force_strategy: strategy,
            segment_compute_cap_us: cap_us,
            tile_oversized_layers: tiling,
            ..FrameworkOptions::default()
        };
        let mut fw = RtMdm::with_options(platform.clone(), options).expect("platform");
        fw.add_task(TaskSpec::new("control", zoo::micro_mlp(), 25_000, 25_000))
            .expect("control");
        fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
            .expect("ic");
        let (admitted, bound, segments, max_seg) = match fw.admit() {
            Ok(a) => {
                let idx = a
                    .names
                    .iter()
                    .position(|n| n == "control")
                    .expect("present");
                // Plans are in insertion order; "ic" was added second.
                // Under the whole-DNN strategy the plan's segments are
                // merged into one block at task-build time.
                let plan = &a.plans[1];
                let whole = strategy == Some(Strategy::WholeDnn);
                let (nseg, max_block) = if whole {
                    (1, plan.total_compute())
                } else {
                    (plan.len(), plan.max_segment_compute())
                };
                (
                    if a.schedulable() { "yes" } else { "NO" },
                    a.analysis
                        .response_of(idx)
                        .map(|b| ms(b, cpu))
                        .unwrap_or_else(|| "diverged".to_owned()),
                    nseg.to_string(),
                    ms(max_block, cpu),
                )
            }
            Err(_) => (
                "NO (sram)",
                "n/a".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ),
        };
        let observed = fw
            .simulate(5_000_000)
            .ok()
            .and_then(|r| r.max_response_of("control").map(|c| ms(c, cpu)))
            .unwrap_or_else(|| "n/a".to_owned());
        vec![
            label.to_owned(),
            segments,
            max_seg,
            bound,
            observed,
            admitted.to_owned(),
        ]
    });
    report::table(
        &[
            "segmentation",
            "ic segments",
            "max ic segment ms",
            "control wcrt bound ms",
            "control observed max ms",
            "admitted",
        ],
        &rows,
    )
}
