//! Property tests on the external-memory machinery: segmentation
//! coverage, pipeline ordering, SRAM accounting, and whole-framework
//! determinism.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rt_mdm::check::Rule;
use rt_mdm::core::{AdmitError, FrameworkOptions, RtMdm, Strategy, SystemSpec, TaskSpec};
use rt_mdm::dnn::{zoo, CostModel};
use rt_mdm::mcusim::{Cycles, PlatformConfig};
use rt_mdm::xmem::{pipeline, segment_model_capped, PlanError};

fn zoo_model(idx: usize) -> rt_mdm::dnn::Model {
    let all = zoo::all();
    all[idx % all.len()].clone()
}

/// A size within 16 KiB above `2^63` (whose double just passes
/// `u64::MAX`) or below `u64::MAX`.
fn huge(rng: &mut StdRng) -> u64 {
    let near = if rng.gen_bool(0.5) {
        1 << 63
    } else {
        u64::MAX - (1 << 14)
    };
    near + rng.gen_range(0..1u64 << 14)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Segmentation covers every layer exactly once, stays within the
    /// buffer, and conserves bytes and compute — for any model, buffer
    /// size, and compute cap.
    #[test]
    fn segmentation_invariants(
        model_idx in 0usize..6,
        buffer_kb in 1u64..256,
        cap_kcycles in proptest::option::of(50u64..50_000),
    ) {
        let model = zoo_model(model_idx);
        let cost = CostModel::cmsis_nn_m7();
        let cap = cap_kcycles.map(|k| Cycles::new(k * 1000));
        match segment_model_capped(&model, &cost, buffer_kb * 1024, cap) {
            Err(PlanError::LayerTooLarge { bytes, buffer_bytes, .. }) => {
                prop_assert!(bytes > buffer_bytes);
                prop_assert!(model.max_layer_weight_bytes() == bytes || bytes <= model.max_layer_weight_bytes());
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
            Ok(seg) => {
                // Coverage: consecutive, gapless, complete.
                let mut next = 0usize;
                for s in &seg.segments {
                    prop_assert_eq!(s.first_layer, next);
                    prop_assert!(s.last_layer >= s.first_layer);
                    prop_assert!(s.fetch_bytes <= buffer_kb * 1024);
                    next = s.last_layer + 1;
                }
                prop_assert_eq!(next, model.len());
                // Conservation.
                prop_assert_eq!(seg.total_fetch_bytes(), model.total_weight_bytes());
                prop_assert_eq!(seg.total_compute(), cost.model_cost(&model).total_compute);
            }
        }
    }

    /// Strategy ordering of isolated latencies holds for any model,
    /// buffer, and platform preset, over every strategy: whole-DNN
    /// only merges the segments, so in isolation it times exactly as
    /// fetch-then-compute.
    #[test]
    fn pipeline_strategy_ordering(
        model_idx in 0usize..6,
        buffer_kb in 84u64..512, // large enough for every zoo model
        preset in 0usize..4,
    ) {
        let model = zoo_model(model_idx);
        let cost = CostModel::cmsis_nn_m7();
        let platform = PlatformConfig::presets()[preset].clone();
        let seg = segment_model_capped(&model, &cost, buffer_kb * 1024, None).expect("fits");
        // In `Strategy::ALL` order.
        let [rtmdm, naive, whole, ideal] =
            Strategy::ALL.map(|s| pipeline::isolated_latency(&seg, &platform, s));
        prop_assert!(ideal <= rtmdm);
        prop_assert!(rtmdm <= naive);
        prop_assert_eq!(whole, naive);
        // Overlap can at best hide all staging beyond the lead-in.
        prop_assert!(rtmdm >= seg.total_compute());
    }

    /// Tighter compute caps never increase the maximum segment compute.
    #[test]
    fn compute_cap_is_monotone(
        model_idx in 0usize..6,
        cap_a in 100u64..20_000,
        cap_b in 100u64..20_000,
    ) {
        let model = zoo_model(model_idx);
        let cost = CostModel::cmsis_nn_m7();
        let (lo, hi) = if cap_a <= cap_b { (cap_a, cap_b) } else { (cap_b, cap_a) };
        let seg_lo = segment_model_capped(&model, &cost, 1 << 20, Some(Cycles::new(lo * 1000)))
            .expect("fits");
        let seg_hi = segment_model_capped(&model, &cost, 1 << 20, Some(Cycles::new(hi * 1000)))
            .expect("fits");
        prop_assert!(seg_lo.len() >= seg_hi.len());
        prop_assert!(seg_lo.max_segment_compute() <= seg_hi.max_segment_compute());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Admission and the static verifier lay SRAM out alike: over spec
    /// sets `add_task` accepts — every zoo model, default, odd and
    /// near-`u64::MAX` fetch buffers and activation budgets, every
    /// strategy, a forced strategy, the four presets and squeezed SRAM —
    /// `admit` fails on memory exactly when `check` reports RTM004, and
    /// an admitted layout fits the platform's SRAM and reserves each
    /// spec's activation budget and double buffer in full.
    #[test]
    fn admission_and_verifier_agree_on_sram(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let presets = PlatformConfig::presets();
        let mut platform = presets[rng.gen_range(0..presets.len())].clone();
        if rng.gen_bool(0.5) {
            let sram = platform.sram_bytes * rng.gen_range(5..=100u64) / 100;
            platform = PlatformConfig {
                sram_bytes: sram,
                ..platform
            };
        }
        let mut options = FrameworkOptions::default();
        if rng.gen_bool(0.25) {
            options.force_strategy = Some(Strategy::ALL[rng.gen_range(0..Strategy::ALL.len())]);
        }
        // A squeeze below the platform's own minimum is not a framework.
        let fw = RtMdm::with_options(platform.clone(), options.clone());
        prop_assume!(fw.is_ok());
        let mut fw = fw.expect("valid platform");
        for i in 0..rng.gen_range(1..=4usize) {
            let period_us = [20_000u64, 100_000, 500_000][rng.gen_range(0..3usize)];
            let mut spec = TaskSpec::new(
                format!("t{i}"),
                zoo_model(rng.gen_range(0..6usize)),
                period_us,
                period_us,
            )
            .with_strategy(Strategy::ALL[rng.gen_range(0..Strategy::ALL.len())]);
            if rng.gen_bool(0.5) {
                let floor = spec.model.max_layer_weight_bytes();
                spec = spec.with_buffer_bytes((floor + rng.gen_range(0..8192u64)) | 1);
            } else if rng.gen_bool(0.2) {
                // Sizes whose double buffer passes `u64::MAX`.
                spec = spec.with_buffer_bytes(huge(&mut rng));
            }
            if rng.gen_bool(0.25) {
                spec = spec.with_activation_budget(rng.gen_range(1..64 * 1024u64));
            } else if rng.gen_bool(0.2) {
                spec = spec.with_activation_budget(huge(&mut rng));
            }
            // The property ranges over what `add_task` accepts.
            let _ = fw.add_task(spec);
        }
        prop_assume!(!fw.specs().is_empty());
        let mut sys = SystemSpec::with_options(platform.clone(), options);
        for spec in fw.specs() {
            sys.push(spec.clone());
        }
        let rtm004 = sys.check().findings.iter().any(|f| f.rule == Rule::Rtm004);
        let admitted = fw.admit();
        let memory = matches!(admitted, Err(AdmitError::Memory(_)));
        prop_assert_eq!(memory, rtm004, "admit: {:?}", admitted.as_ref().err());
        if let Ok(a) = &admitted {
            prop_assert!(a.sram_total() <= platform.sram_bytes);
            for (row, spec) in a.sram.iter().zip(fw.specs()) {
                prop_assert!(row.activation_bytes >= spec.resolved_activation_bytes());
                let streams = matches!(
                    fw.options().force_strategy.unwrap_or(spec.strategy),
                    Strategy::RtMdm | Strategy::FetchThenCompute
                );
                if streams {
                    prop_assert!(
                        u128::from(row.weight_bytes) >= 2 * u128::from(spec.resolved_buffer_bytes())
                    );
                }
            }
        }
    }
}

#[test]
fn framework_runs_are_deterministic() {
    let build = || {
        let mut fw = RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform");
        fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
            .expect("ic");
        fw
    };
    let a = build().simulate_with(2_000_000, 700_000, 9).expect("run");
    let b = build().simulate_with(2_000_000, 700_000, 9).expect("run");
    assert_eq!(a.result.trace.events(), b.result.trace.events());
    assert_eq!(a.result.stats, b.result.stats);
    // A different seed changes the jittered run.
    let c = build().simulate_with(2_000_000, 700_000, 10).expect("run");
    assert_ne!(a.result.trace.events(), c.result.trace.events());
}

#[test]
fn admission_is_pure() {
    let mut fw = RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform");
    fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
        .expect("kws");
    let a = fw.admit().expect("admit");
    let b = fw.admit().expect("admit");
    assert_eq!(a.order, b.order);
    assert_eq!(a.analysis.response, b.analysis.response);
    assert_eq!(a.occupancy_ppm, b.occupancy_ppm);
}
