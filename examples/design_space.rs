//! Design-space exploration: how the SRAM fetch-buffer size and the
//! external-memory bandwidth shape single-inference latency.
//!
//! This is the engineering question RT-MDM's memory manager answers at
//! admission time — the example walks the same trade-offs interactively.
//!
//! ```sh
//! cargo run --example design_space
//! ```

use rt_mdm::core::report;
use rt_mdm::dnn::{zoo, CostModel};
use rt_mdm::mcusim::{Cycles, ExtMemConfig, ExtMemKind, PlatformConfig};
use rt_mdm::xmem::{pipeline, segment_model, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cost = CostModel::cmsis_nn_m7();
    let base = PlatformConfig::stm32f746_qspi();
    let model = zoo::resnet8();
    println!(
        "model: {} ({} weight bytes, largest layer {} bytes)\n",
        model.name(),
        model.total_weight_bytes(),
        model.max_layer_weight_bytes()
    );

    // Sweep 1: buffer size at fixed bandwidth.
    let mut rows = Vec::new();
    for kb in [40u64, 48, 64, 96, 128] {
        let seg = segment_model(&model, &cost, kb * 1024)?;
        let lat = pipeline::isolated_latency(&seg, &base, Strategy::RtMdm);
        let naive = pipeline::isolated_latency(&seg, &base, Strategy::FetchThenCompute);
        let eff = pipeline::overlap_efficiency_pct(&seg, &base)
            .map(|e| format!("{e}%"))
            .unwrap_or_else(|| "n/a".into());
        rows.push(vec![
            format!("{kb} KiB"),
            seg.len().to_string(),
            report::cycles_as_ms(lat, base.cpu),
            report::cycles_as_ms(naive, base.cpu),
            eff,
        ]);
    }
    println!(
        "buffer-size sweep (QSPI 40 MB/s):\n{}",
        report::table(
            &[
                "buffer",
                "segments",
                "rt-mdm latency",
                "fetch-then-compute",
                "overlap hidden"
            ],
            &rows,
        )
    );

    // Sweep 2: bandwidth at fixed 48 KiB buffer.
    let seg = segment_model(&model, &cost, 48 * 1024)?;
    let mut rows = Vec::new();
    for mbps in [10u64, 20, 40, 80, 160, 320] {
        let platform = PlatformConfig {
            ext_mem: ExtMemConfig::from_bandwidth(
                ExtMemKind::Custom,
                base.cpu,
                mbps * 1_000_000,
                Cycles::new(120),
            ),
            ..base.clone()
        };
        let lat = pipeline::isolated_latency(&seg, &platform, Strategy::RtMdm);
        let ideal = pipeline::isolated_latency(&seg, &platform, Strategy::AllInSram);
        let overhead_ppm = (lat.get().saturating_sub(ideal.get())) * 1_000_000 / ideal.get();
        rows.push(vec![
            format!("{mbps} MB/s"),
            report::cycles_as_ms(lat, platform.cpu),
            report::cycles_as_ms(ideal, platform.cpu),
            report::ppm_as_pct(overhead_ppm),
        ]);
    }
    println!(
        "bandwidth sweep (48 KiB buffer):\n{}",
        report::table(
            &[
                "ext-mem bandwidth",
                "rt-mdm latency",
                "all-in-sram",
                "staging overhead"
            ],
            &rows,
        )
    );
    Ok(())
}
