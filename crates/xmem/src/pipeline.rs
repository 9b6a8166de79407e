//! Closed-form timing of the fetch/compute pipeline for a job running in
//! isolation (no other tasks). This is the model behind experiment F1 and
//! the per-segment worst-case numbers the schedulability analysis builds
//! on.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, PlatformConfig};

use crate::plan::ModelSegmentation;

/// How a task stages its weights relative to compute: RT-MDM or one
/// of its baselines. Admission (`rtmdm-core`) maps each onto the
/// staging modes and baseline transformations of `rtmdm-sched`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// RT-MDM: segment-level preemption + double-buffered prefetch —
    /// while segment *k* computes, the DMA stages segment *k+1*;
    /// compute and fetch contend on the bus.
    #[default]
    RtMdm,
    /// Baseline B1: fetch a segment, busy-wait the copy, compute it,
    /// strictly alternating with no overlap.
    FetchThenCompute,
    /// Baseline B2: whole-DNN non-preemptive execution with busy-wait
    /// staging (the TinyML-runtime default). In isolation it times as
    /// [`Strategy::FetchThenCompute`]: it only merges the segments.
    WholeDnn,
    /// Baseline B3: all weights resident in SRAM (staging is free; SRAM
    /// accounting still reserves activations only).
    AllInSram,
}

impl Strategy {
    /// Every strategy, in declaration order.
    pub const ALL: [Strategy; 4] = [
        Strategy::RtMdm,
        Strategy::FetchThenCompute,
        Strategy::WholeDnn,
        Strategy::AllInSram,
    ];

    /// The strategy whose [`Display`](std::fmt::Display) name is `name`.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Strategy::RtMdm => "rt-mdm",
            Strategy::FetchThenCompute => "fetch-then-compute",
            Strategy::WholeDnn => "whole-dnn",
            Strategy::AllInSram => "all-in-sram",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock timing of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Segment index the stage computes.
    pub segment: usize,
    /// CPU work retired in this stage (uninflated cycles).
    pub compute_work: Cycles,
    /// DMA work performed during this stage (uninflated cycles): the
    /// *next* segment's fetch under RT-MDM, the *own* segment's fetch
    /// under fetch-then-compute and whole-DNN, zero for all-in-SRAM.
    pub fetch_work: Cycles,
    /// Wall-clock duration of the stage including contention.
    pub stage: Cycles,
    /// Whether the stage's DMA work finishes at or before its compute
    /// (true also when there is nothing to fetch): a hidden fetch adds
    /// no wall time beyond contention; an exposed one stalls the
    /// pipeline until the transfer lands.
    pub fetch_hidden: bool,
}

/// Per-stage timings of a single job in isolation.
///
/// Under [`Strategy::RtMdm`] the list excludes the
/// lead-in fetch of segment 0 (no compute overlaps it); use
/// [`isolated_latency`] for the end-to-end number.
pub fn stage_timings(
    seg: &ModelSegmentation,
    platform: &PlatformConfig,
    strategy: Strategy,
) -> Vec<StageTiming> {
    let n = seg.segments.len();
    let mut out = Vec::with_capacity(n);
    for (k, s) in seg.segments.iter().enumerate() {
        let compute_work = s.compute_cycles;
        match strategy {
            Strategy::RtMdm => {
                let fetch_work = if k + 1 < n {
                    platform
                        .ext_mem
                        .transfer_cycles(seg.segments[k + 1].fetch_bytes)
                } else {
                    Cycles::ZERO
                };
                let overlap = platform.contention.overlap(compute_work, fetch_work);
                out.push(StageTiming {
                    segment: k,
                    compute_work,
                    fetch_work,
                    stage: overlap.stage_finish(),
                    fetch_hidden: overlap.dma_finish <= overlap.cpu_finish,
                });
            }
            Strategy::FetchThenCompute | Strategy::WholeDnn => {
                let fetch_work = platform.ext_mem.transfer_cycles(s.fetch_bytes);
                out.push(StageTiming {
                    segment: k,
                    compute_work,
                    fetch_work,
                    stage: fetch_work + compute_work,
                    fetch_hidden: fetch_work.is_zero(),
                });
            }
            Strategy::AllInSram => out.push(StageTiming {
                segment: k,
                compute_work,
                fetch_work: Cycles::ZERO,
                stage: compute_work,
                fetch_hidden: true,
            }),
        }
    }
    out
}

/// End-to-end latency of one inference in isolation, including the
/// lead-in fetch where the strategy has one.
///
/// # Examples
///
/// ```rust
/// use rtmdm_dnn::{zoo, CostModel};
/// use rtmdm_mcusim::PlatformConfig;
/// use rtmdm_xmem::{segment_model, pipeline, Strategy};
///
/// # fn main() -> Result<(), rtmdm_xmem::PlanError> {
/// let seg = segment_model(&zoo::ds_cnn(), &CostModel::cmsis_nn_m7(), 16 * 1024)?;
/// let p = PlatformConfig::stm32f746_qspi();
/// let ideal = pipeline::isolated_latency(&seg, &p, Strategy::AllInSram);
/// let rtmdm = pipeline::isolated_latency(&seg, &p, Strategy::RtMdm);
/// let naive = pipeline::isolated_latency(&seg, &p, Strategy::FetchThenCompute);
/// assert!(ideal <= rtmdm && rtmdm <= naive);
/// # Ok(())
/// # }
/// ```
pub fn isolated_latency(
    seg: &ModelSegmentation,
    platform: &PlatformConfig,
    strategy: Strategy,
) -> Cycles {
    let stages = stage_timings(seg, platform, strategy);
    let body: Cycles = stages.iter().map(|s| s.stage).sum();
    let lead_in = match strategy {
        Strategy::RtMdm => seg
            .segments
            .first()
            .map(|s| platform.ext_mem.transfer_cycles(s.fetch_bytes))
            .unwrap_or(Cycles::ZERO),
        _ => Cycles::ZERO,
    };
    lead_in + body
}

/// The fraction of staging time hidden by overlap, in percent:
/// `100 * (naive - overlapped) / (naive - ideal)`, clamped to `[0, 100]`.
/// Returns `None` when staging is free (ideal memory), where hiding is
/// undefined.
pub fn overlap_efficiency_pct(seg: &ModelSegmentation, platform: &PlatformConfig) -> Option<u64> {
    let naive = isolated_latency(seg, platform, Strategy::FetchThenCompute);
    let ideal = isolated_latency(seg, platform, Strategy::AllInSram);
    let rtmdm = isolated_latency(seg, platform, Strategy::RtMdm);
    let staging = naive.saturating_sub(ideal);
    if staging.is_zero() {
        return None;
    }
    let hidden = naive.saturating_sub(rtmdm);
    Some((hidden.get() * 100 / staging.get()).min(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::segment_model;
    use rtmdm_dnn::{zoo, CostModel};

    fn seg(buffer: u64) -> ModelSegmentation {
        segment_model(&zoo::resnet8(), &CostModel::cmsis_nn_m7(), buffer).expect("plan")
    }

    #[test]
    fn strategy_ordering_holds_on_every_preset() {
        let s = seg(48 * 1024);
        for p in PlatformConfig::presets() {
            let ideal = isolated_latency(&s, &p, Strategy::AllInSram);
            let rtmdm = isolated_latency(&s, &p, Strategy::RtMdm);
            let naive = isolated_latency(&s, &p, Strategy::FetchThenCompute);
            assert!(ideal <= rtmdm, "{}", p.name);
            assert!(rtmdm <= naive, "{}", p.name);
        }
    }

    #[test]
    fn ideal_memory_collapses_all_strategies() {
        let s = seg(48 * 1024);
        let p = PlatformConfig::ideal_sram();
        let a = isolated_latency(&s, &p, Strategy::AllInSram);
        let b = isolated_latency(&s, &p, Strategy::RtMdm);
        let c = isolated_latency(&s, &p, Strategy::FetchThenCompute);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a, s.total_compute());
    }

    #[test]
    fn overlapped_latency_is_at_least_compute_and_fetch_bounds() {
        let s = seg(40 * 1024);
        let p = PlatformConfig::stm32f746_qspi();
        let l = isolated_latency(&s, &p, Strategy::RtMdm);
        assert!(l >= s.total_compute());
        // Total fetch time is also a lower bound (single DMA channel).
        let total_fetch: Cycles = s
            .segments
            .iter()
            .map(|x| p.ext_mem.transfer_cycles(x.fetch_bytes))
            .sum();
        assert!(l >= total_fetch);
    }

    #[test]
    fn fetch_then_compute_is_exactly_sum_of_parts() {
        let s = seg(40 * 1024);
        let p = PlatformConfig::stm32f746_qspi();
        let expected: Cycles = s
            .segments
            .iter()
            .map(|x| p.ext_mem.transfer_cycles(x.fetch_bytes) + x.compute_cycles)
            .sum();
        assert_eq!(
            isolated_latency(&s, &p, Strategy::FetchThenCompute),
            expected
        );
    }

    #[test]
    fn stage_timings_align_with_segments() {
        let s = seg(40 * 1024);
        let p = PlatformConfig::stm32f746_qspi();
        for strategy in [
            Strategy::RtMdm,
            Strategy::FetchThenCompute,
            Strategy::AllInSram,
        ] {
            let stages = stage_timings(&s, &p, strategy);
            assert_eq!(stages.len(), s.len());
            for (k, st) in stages.iter().enumerate() {
                assert_eq!(st.segment, k);
                assert!(st.stage >= st.compute_work);
            }
        }
        // Last overlapped stage has no next fetch.
        let stages = stage_timings(&s, &p, Strategy::RtMdm);
        assert_eq!(stages.last().unwrap().fetch_work, Cycles::ZERO);
    }

    #[test]
    fn overlap_efficiency_grows_with_segmentation() {
        // A whole-model single segment has nothing to overlap: 0%.
        let model = zoo::resnet8();
        let whole = segment_model(
            &model,
            &CostModel::cmsis_nn_m7(),
            model.total_weight_bytes(),
        )
        .expect("plan");
        let p = PlatformConfig::stm32f746_qspi();
        assert_eq!(whole.len(), 1);
        assert_eq!(overlap_efficiency_pct(&whole, &p), Some(0));
        // Finer segmentation hides a meaningful fraction (the lead-in
        // fetch of segment 0 can never be hidden, so 100% is unreachable).
        let fine = seg(40 * 1024);
        let eff = overlap_efficiency_pct(&fine, &p).expect("staging not free");
        assert!(eff >= 30, "efficiency {eff}%");
        // Ideal memory → undefined.
        assert_eq!(
            overlap_efficiency_pct(&fine, &PlatformConfig::ideal_sram()),
            None
        );
    }

    #[test]
    fn smaller_buffers_mean_more_but_smaller_stages() {
        let coarse = seg(80 * 1024);
        let fine = seg(40 * 1024);
        assert!(fine.len() > coarse.len());
        assert!(fine.max_segment_compute() <= coarse.max_segment_compute());
    }

    #[test]
    fn fetch_hidden_flags_match_strategy_semantics() {
        let s = seg(40 * 1024);
        let p = PlatformConfig::stm32f746_qspi();
        // All-in-SRAM never fetches, so every stage is trivially hidden.
        for st in stage_timings(&s, &p, Strategy::AllInSram) {
            assert!(st.fetch_hidden);
            assert!(st.fetch_work.is_zero());
        }
        // Fetch-then-compute exposes every nonzero fetch by construction.
        for st in stage_timings(&s, &p, Strategy::FetchThenCompute) {
            assert_eq!(st.fetch_hidden, st.fetch_work.is_zero());
        }
        // Overlapped: the flag agrees with the contention model's finish
        // times, and the last stage (no next fetch) is always hidden.
        let stages = stage_timings(&s, &p, Strategy::RtMdm);
        for st in &stages {
            let out = p.contention.overlap(st.compute_work, st.fetch_work);
            assert_eq!(st.fetch_hidden, out.dma_finish <= out.cpu_finish);
        }
        assert!(stages.last().unwrap().fetch_hidden);
        // Ideal memory hides everything (fetches are free).
        let ideal = PlatformConfig::ideal_sram();
        for st in stage_timings(&s, &ideal, Strategy::RtMdm) {
            assert!(st.fetch_hidden);
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        assert_eq!(Strategy::RtMdm.to_string(), "rt-mdm");
        assert_eq!(Strategy::default(), Strategy::RtMdm);
        for s in Strategy::ALL {
            assert_eq!(Strategy::from_name(&s.to_string()), Some(s));
        }
        assert_eq!(Strategy::from_name("nope"), None);
    }
}
