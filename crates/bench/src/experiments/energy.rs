//! Figure F9 — energy per strategy (extension experiment).
//!
//! The gated dispatcher idles the CPU (WFI) whenever the top job waits
//! on its DMA, and overlapped prefetch keeps staging off the CPU
//! entirely; busy-wait staging (B1/B2) burns active-CPU energy for every
//! staged byte. This experiment accounts a 5-second run of the
//! sensor-node mix under each strategy; the four strategy runs are
//! independent cells for [`par_map_seeded`].

use rtmdm_core::{report, FrameworkOptions, RtMdm, Strategy, TaskSpec};
use rtmdm_dnn::zoo;
use rtmdm_mcusim::EnergyModel;

use rtmdm_par::par_map_seeded;

use super::eval_platform;

/// F9 — energy breakdown per strategy on a staging-heavy mix
/// (control @20 ms + kws @100 ms + anomaly autoencoder @100 ms,
/// stm32f746-qspi, stm32f7 energy coefficients; the autoencoder stages
/// ≈2.6 MB/s). Expected shape: rt-mdm ≈ all-in-SRAM in CPU-active
/// energy (staging rides the DMA) and strictly below the busy-wait
/// baselines, which burn active-CPU energy for every staged byte;
/// external-memory energy is identical for every staging strategy
/// (same bytes), so the CPU term decides.
pub fn f9_energy() -> String {
    let strategies = vec![
        ("rt-mdm", Strategy::RtMdm),
        ("fetch-then-compute (B1)", Strategy::FetchThenCompute),
        ("whole-dnn (B2)", Strategy::WholeDnn),
        ("all-in-sram (B3)", Strategy::AllInSram),
    ];
    let rows = par_map_seeded(strategies, |(label, strategy)| {
        let platform = eval_platform();
        let energy = EnergyModel::stm32f7();
        let horizon_us = 5_000_000u64;
        let options = FrameworkOptions {
            force_strategy: Some(strategy),
            ..FrameworkOptions::default()
        };
        let mut fw = RtMdm::with_options(platform.clone(), options).expect("platform");
        fw.add_task(TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000))
            .expect("control");
        fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        fw.add_task(TaskSpec::new(
            "anomaly",
            zoo::autoencoder(),
            100_000,
            100_000,
        ))
        .expect("anomaly");
        let run = fw.simulate(horizon_us).expect("simulate");
        let mut r = run.energy(&energy);
        // Busy-wait strategies hide their staged bytes inside compute;
        // charge external-memory energy from ground truth instead (the
        // bytes read are identical across staging strategies).
        if matches!(strategy, Strategy::FetchThenCompute | Strategy::WholeDnn) {
            let bytes: u64 = run
                .names
                .iter()
                .zip(&run.result.stats)
                .map(|(name, stats)| {
                    let weights = fw
                        .specs()
                        .iter()
                        .find(|s| &s.name == name)
                        .map(|s| s.model.total_weight_bytes())
                        .unwrap_or(0);
                    stats.completions * weights
                })
                .sum();
            r.ext_mem_pj = bytes * energy.ext_read_pj_per_byte;
        }
        vec![
            label.to_owned(),
            (r.cpu_active_pj / 1_000_000).to_string(),
            (r.cpu_idle_pj / 1_000_000).to_string(),
            (r.ext_mem_pj / 1_000_000).to_string(),
            r.total_uj().to_string(),
            run.energy(&energy).avg_power_uw(platform.cpu).to_string(),
            run.deadline_misses().to_string(),
        ]
    });
    report::table(
        &[
            "strategy",
            "cpu active µJ",
            "cpu idle µJ",
            "ext-mem µJ",
            "total µJ",
            "avg power µW",
            "misses",
        ],
        &rows,
    )
}
