//! Tables T1 (models), T2 (platforms), and T3 (WCRT bound vs observed).
//!
//! T1 parallelizes per model and T3 per mix via [`par_map_seeded`]
//! (T2 is pure formatting); rows come back in input order.

use rtmdm_core::{report, RtMdm, TaskSpec};
use rtmdm_dnn::{zoo, CostModel};
use rtmdm_mcusim::PlatformConfig;
use rtmdm_xmem::segment_model;

use rtmdm_par::par_map_seeded;

use super::{eval_platform, ms};

/// T1 — model characteristics: the workload side of the study.
pub fn t1_models() -> String {
    let rows: Vec<Vec<String>> = par_map_seeded(zoo::all(), |m| {
        let cost = CostModel::cmsis_nn_m7();
        let platform = eval_platform();
        let min_buffer = m.max_layer_weight_bytes().max(1).div_ceil(4096) * 4096;
        let seg = segment_model(&m, &cost, min_buffer).expect("min buffer fits by construction");
        let compute = cost.model_cost(&m).total_compute;
        vec![
            m.name().to_owned(),
            m.len().to_string(),
            (m.total_macs() / 1000).to_string(),
            (m.total_weight_bytes() / 1024).to_string(),
            (m.max_layer_weight_bytes() / 1024).to_string(),
            (m.max_activation_bytes() / 1024).to_string(),
            (min_buffer / 1024).to_string(),
            seg.len().to_string(),
            ms(compute, platform.cpu),
        ]
    });
    report::table(
        &[
            "model",
            "layers",
            "kMACs",
            "weights KiB",
            "max layer KiB",
            "max act KiB",
            "min buffer KiB",
            "segments @min",
            "compute ms @200MHz",
        ],
        &rows,
    )
}

/// T2 — platform presets used throughout the evaluation.
pub fn t2_platforms() -> String {
    let rows: Vec<Vec<String>> = PlatformConfig::presets()
        .iter()
        .map(|p| {
            let bw = p.ext_mem.bandwidth_bytes_per_second(p.cpu);
            let bw = if bw == u64::MAX {
                "∞".to_owned()
            } else {
                format!("{}", bw / 1_000_000)
            };
            vec![
                p.name.clone(),
                p.cpu.to_string(),
                (p.sram_bytes / 1024).to_string(),
                p.ext_mem.kind.to_string(),
                bw,
                p.ext_mem.setup_cycles.to_string(),
                format!(
                    "{}%/{}%",
                    p.contention.cpu_inflation_ppm / 10_000,
                    p.contention.dma_inflation_ppm / 10_000
                ),
                p.context_switch_cycles.to_string(),
            ]
        })
        .collect();
    report::table(
        &[
            "platform",
            "cpu",
            "sram KiB",
            "ext-mem",
            "MB/s",
            "dma setup",
            "contention cpu/dma",
            "ctx switch",
        ],
        &rows,
    )
}

/// T3 — analytical WCRT bound vs worst observed response, per task, on
/// three multi-DNN mixes. The bound must dominate; the ratio quantifies
/// the analysis's pessimism.
pub fn t3_wcrt() -> String {
    let mixes: Vec<(&str, PlatformConfig, Vec<TaskSpec>)> = vec![
        (
            "A: control+kws+ic @f746",
            PlatformConfig::stm32f746_qspi(),
            vec![
                TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000),
                TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
                TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000),
            ],
        ),
        (
            "B: control+kws+vww @f746",
            PlatformConfig::stm32f746_qspi(),
            vec![
                TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000),
                TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
                TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000),
            ],
        ),
        (
            "C: kws+anomaly+vww+ic @h743",
            PlatformConfig::stm32h743_ospi(),
            vec![
                TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
                TaskSpec::new("anomaly", zoo::autoencoder(), 200_000, 200_000),
                TaskSpec::new("vww", zoo::mobilenet_v1_025(), 400_000, 400_000),
                TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000),
            ],
        ),
    ];

    let per_mix: Vec<Vec<Vec<String>>> = par_map_seeded(mixes, |(label, platform, specs)| {
        let cpu = platform.cpu;
        let mut fw = RtMdm::new(platform).expect("platform");
        for s in specs {
            fw.add_task(s).expect("add");
        }
        let admission = fw.admit().expect("admit");
        let run = fw.simulate(10_000_000).expect("simulate 10 s");
        let mut rows = Vec::new();
        for (p, name) in admission.names.iter().enumerate() {
            let bound = admission.analysis.response_of(p);
            let observed = run.max_response_of(name).expect("ran");
            let (bound_s, ratio) = match bound {
                Some(b) => {
                    let r = if observed.get() > 0 {
                        format!("{:.2}", b.get() as f64 / observed.get() as f64)
                    } else {
                        "n/a".to_owned()
                    };
                    (ms(b, cpu), r)
                }
                None => ("diverged".to_owned(), "n/a".to_owned()),
            };
            rows.push(vec![
                label.to_owned(),
                name.clone(),
                bound_s,
                ms(observed, cpu),
                ratio,
                if bound.is_some_and(|b| b >= observed) {
                    "yes".to_owned()
                } else {
                    "VIOLATED".to_owned()
                },
            ]);
        }
        rows
    });
    let rows: Vec<Vec<String>> = per_mix.into_iter().flatten().collect();
    report::table(
        &[
            "mix",
            "task",
            "wcrt bound ms",
            "observed max ms",
            "bound/obs",
            "dominates",
        ],
        &rows,
    )
}
