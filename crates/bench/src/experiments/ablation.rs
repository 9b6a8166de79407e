//! Figure F8 — ablation: switch RT-MDM's mechanisms off one at a time.
//!
//! Each ablation variant is an independent cell for
//! [`par_map_seeded`]; rows come back in input order.

use rtmdm_core::{report, FrameworkOptions, RtMdm, Strategy, TaskSpec};
use rtmdm_dnn::zoo;

use rtmdm_par::par_map_seeded;

use super::{eval_platform, ms};

/// F8 — contribution of each mechanism on the sensor-node mix
/// (control @20 ms + kws @100 ms + vww @500 ms, stm32f746-qspi):
///
/// 1. full RT-MDM;
/// 2. − prefetch overlap (fetch-then-compute staging);
/// 3. − segment-level preemption (whole-DNN blocks);
/// 4. − DMA-aware analysis (memory-oblivious admission — the runtime is
///    unchanged, so watch the admitted-vs-missed columns);
/// 5. − gating (work-conserving dispatch with its matching analysis).
pub fn f8_ablation() -> String {
    let variants: Vec<(&str, FrameworkOptions)> = vec![
        ("full rt-mdm", FrameworkOptions::default()),
        (
            "- prefetch overlap",
            FrameworkOptions {
                force_strategy: Some(Strategy::FetchThenCompute),
                ..FrameworkOptions::default()
            },
        ),
        (
            "- segment preemption",
            FrameworkOptions {
                force_strategy: Some(Strategy::WholeDnn),
                ..FrameworkOptions::default()
            },
        ),
        (
            "- dma-aware analysis",
            FrameworkOptions {
                dma_aware_analysis: false,
                ..FrameworkOptions::default()
            },
        ),
        (
            "- gating (work-conserving)",
            FrameworkOptions {
                work_conserving: true,
                ..FrameworkOptions::default()
            },
        ),
    ];

    let rows = par_map_seeded(variants, |(label, options)| {
        let platform = eval_platform();
        let cpu = platform.cpu;
        let mut fw = RtMdm::with_options(platform.clone(), options).expect("platform");
        fw.add_task(TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000))
            .expect("control");
        fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        fw.add_task(TaskSpec::new(
            "vww",
            zoo::mobilenet_v1_025(),
            500_000,
            500_000,
        ))
        .expect("vww");
        let admitted = match fw.admit() {
            Ok(a) if a.schedulable() => "yes".to_owned(),
            Ok(_) => "NO (timing)".to_owned(),
            Err(_) => "NO (sram)".to_owned(),
        };
        let (misses, control, vww) = match fw.simulate(5_000_000) {
            Ok(run) => (
                run.deadline_misses().to_string(),
                run.max_response_of("control")
                    .map(|c| ms(c, cpu))
                    .unwrap_or_else(|| "n/a".into()),
                run.max_response_of("vww")
                    .map(|c| ms(c, cpu))
                    .unwrap_or_else(|| "n/a".into()),
            ),
            Err(_) => ("n/a".into(), "n/a".into(), "n/a".into()),
        };
        vec![label.to_owned(), admitted, misses, control, vww]
    });
    report::table(
        &[
            "variant",
            "admitted",
            "misses (5 s)",
            "control max ms",
            "vww max ms",
        ],
        &rows,
    )
}
