//! Staging race / aliasing detection (`RTM001`–`RTM004`).
//!
//! Under RT-MDM's overlapped staging, a task's weight area is a double
//! buffer of two `buffer_bytes` halves: fetch group `g` streams into
//! half `g mod 2` while the CPU computes group `g − 1` out of the other
//! half, and the fetch of group `g` may only begin once the compute of
//! group `g − 2` has retired its half (the simulator's two-ahead
//! window). [`staging_races`] reconstructs that isolated pipeline
//! schedule from a [`ModelSegmentation`] — per-group DMA-write windows
//! and per-segment CPU-read windows, each tagged with the byte region
//! it touches — and reports every pair where a write window overlaps a
//! read window of intersecting bytes.
//!
//! For a well-formed plan no such pair exists: the window discipline
//! keeps same-half groups temporally disjoint and opposite halves are
//! spatially disjoint. A race therefore implies a spatial violation —
//! in practice a fetch that overruns its declared half (`RTM001`) and
//! thereby spills into the half the previous group is still reading
//! (`RTM002`).
//!
//! [`check_sram_regions`] covers the SRAM layout: the planned weight
//! ping/pong and activation regions must be pairwise disjoint
//! (`RTM003`) and inside the platform's SRAM (`RTM004`).

use rtmdm_mcusim::PlatformConfig;
use rtmdm_xmem::ModelSegmentation;

use crate::diag::{Finding, Rule};

/// A statically detected staging race: a DMA write temporally
/// overlapping a CPU read of the same staging bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingRace {
    /// Segment whose fetch performs the offending DMA write.
    pub write_segment: usize,
    /// Segment whose compute reads the overlapped bytes.
    pub read_segment: usize,
    /// DMA-write window in cycles, half-open.
    pub write_window: (u64, u64),
    /// CPU-read window in cycles, half-open.
    pub read_window: (u64, u64),
    /// Overlapping byte range within the double-buffer area, half-open.
    pub region: (u64, u64),
}

/// One fetch group: a segment with a (possibly zero-byte) fetch plus
/// the zero-fetch continuation slices that reuse its weights.
struct Group {
    first_seg: usize,
    bytes: u64,
    /// `(segment index, inflated compute cycles)` in execution order.
    computes: Vec<(usize, u64)>,
}

fn groups_of(plan: &ModelSegmentation, platform: &PlatformConfig) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (i, s) in plan.segments.iter().enumerate() {
        let cpu = platform.contention.inflate_cpu(s.compute_cycles).get();
        match groups.last_mut() {
            Some(last) if s.fetch_bytes == 0 => last.computes.push((i, cpu)),
            _ => groups.push(Group {
                first_seg: i,
                bytes: s.fetch_bytes,
                computes: vec![(i, cpu)],
            }),
        }
    }
    groups
}

/// Computes every staging race in `plan`'s isolated double-buffered
/// pipeline on `platform`. Empty for well-formed plans.
pub fn staging_races(plan: &ModelSegmentation, platform: &PlatformConfig) -> Vec<StagingRace> {
    let buffer = plan.buffer_bytes;
    if buffer == 0 {
        // Unrealizable plan; flagged RTM012 by the plan pass.
        return Vec::new();
    }
    let groups = groups_of(plan, platform);

    // Isolated pipeline schedule under the two-ahead window: fetch g
    // starts once the DMA is free and compute g−2 has retired its half;
    // compute g starts once its fetch and compute g−1 are done.
    let mut fetch_windows: Vec<(u64, u64)> = Vec::with_capacity(groups.len());
    let mut compute_windows: Vec<Vec<(usize, (u64, u64))>> = Vec::with_capacity(groups.len());
    let mut group_compute_end: Vec<u64> = Vec::with_capacity(groups.len());
    let mut dma_free = 0u64;
    for (g, grp) in groups.iter().enumerate() {
        let dma = if grp.bytes == 0 {
            0
        } else {
            platform
                .contention
                .inflate_dma(platform.ext_mem.transfer_cycles(grp.bytes))
                .get()
        };
        let gate = if g >= 2 { group_compute_end[g - 2] } else { 0 };
        let fs = dma_free.max(gate);
        let fe = fs.saturating_add(dma);
        dma_free = fe;
        fetch_windows.push((fs, fe));
        let mut t = fe.max(if g >= 1 { group_compute_end[g - 1] } else { 0 });
        let mut windows = Vec::with_capacity(grp.computes.len());
        for &(seg, c) in &grp.computes {
            windows.push((seg, (t, t.saturating_add(c))));
            t = t.saturating_add(c);
        }
        compute_windows.push(windows);
        group_compute_end.push(t);
    }

    // A group's byte region within the [0, 2·buffer) staging area; an
    // overrun extends past its half into the other one.
    let region = |g: usize| {
        let off = (g as u64 % 2) * buffer;
        (off, off.saturating_add(groups[g].bytes))
    };

    let mut races = Vec::new();
    for g in 0..groups.len() {
        if groups[g].bytes == 0 {
            continue;
        }
        let (w0, w1) = region(g);
        for (h, windows) in compute_windows.iter().enumerate() {
            if h == g || groups[h].bytes == 0 {
                continue;
            }
            let (r0, r1) = region(h);
            let (o0, o1) = (w0.max(r0), w1.min(r1));
            if o0 >= o1 {
                continue;
            }
            let (f0, f1) = fetch_windows[g];
            for &(seg, (c0, c1)) in windows {
                if f0 < c1 && c0 < f1 {
                    races.push(StagingRace {
                        write_segment: groups[g].first_seg,
                        read_segment: seg,
                        write_window: (f0, f1),
                        read_window: (c0, c1),
                        region: (o0, o1),
                    });
                    break; // one race per (writer, reader-group) pair
                }
            }
        }
    }
    races
}

/// The staging pass: double-buffer overruns (`RTM001`) and DMA/CPU
/// staging races (`RTM002`) of one overlapped-prefetch plan.
pub fn check_staging(plan: &ModelSegmentation, platform: &PlatformConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    if plan.buffer_bytes > 0 {
        for (i, s) in plan.segments.iter().enumerate() {
            if s.fetch_bytes > plan.buffer_bytes {
                out.push(
                    Finding::new(
                        Rule::Rtm001,
                        format!(
                            "fetch of {} B overruns the {} B double-buffer half by {} B",
                            s.fetch_bytes,
                            plan.buffer_bytes,
                            s.fetch_bytes - plan.buffer_bytes
                        ),
                    )
                    .with_model(plan.model.clone())
                    .with_segment(i),
                );
            }
        }
    }
    for race in staging_races(plan, platform) {
        out.push(
            Finding::new(
                Rule::Rtm002,
                format!(
                    "DMA write for segment {} (cycles {}..{}) overlaps CPU reads of segment {} \
                     (cycles {}..{}) over staging bytes {}..{}",
                    race.write_segment,
                    race.write_window.0,
                    race.write_window.1,
                    race.read_segment,
                    race.read_window.0,
                    race.read_window.1,
                    race.region.0,
                    race.region.1
                ),
            )
            .with_model(plan.model.clone())
            .with_segment(race.write_segment),
        );
    }
    out
}

/// One planned SRAM region, as admission lays it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SramRegion {
    /// Region label (e.g. `kws-weights`, `kws-activations`).
    pub label: String,
    /// Byte offset within SRAM.
    pub offset: u64,
    /// Region size in bytes.
    pub bytes: u64,
}

impl SramRegion {
    /// Creates a region record.
    pub fn new(label: impl Into<String>, offset: u64, bytes: u64) -> SramRegion {
        SramRegion {
            label: label.into(),
            offset,
            bytes,
        }
    }
}

/// The SRAM-layout aliasing pass: planned regions must be pairwise
/// disjoint (`RTM003`) and end inside the platform's SRAM (`RTM004`).
pub fn check_sram_regions(regions: &[SramRegion], sram_bytes: u64) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, a) in regions.iter().enumerate() {
        for b in &regions[i + 1..] {
            let o0 = a.offset.max(b.offset);
            let o1 = (a.offset + a.bytes).min(b.offset + b.bytes);
            if o0 < o1 {
                out.push(Finding::new(
                    Rule::Rtm003,
                    format!(
                        "SRAM region `{}` ({}..{}) aliases `{}` ({}..{})",
                        a.label,
                        a.offset,
                        a.offset + a.bytes,
                        b.label,
                        b.offset,
                        b.offset + b.bytes
                    ),
                ));
            }
        }
    }
    let high_water = regions
        .iter()
        .map(|r| r.offset + r.bytes)
        .max()
        .unwrap_or(0);
    if high_water > sram_bytes {
        out.push(Finding::new(
            Rule::Rtm004,
            format!("SRAM plan ends at {high_water} B but the platform has {sram_bytes} B"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::{zoo, CostModel};
    use rtmdm_xmem::segment_model;

    fn platform() -> PlatformConfig {
        PlatformConfig::stm32f746_qspi()
    }

    fn clean_plan() -> ModelSegmentation {
        let model = zoo::ds_cnn();
        let plan = segment_model(&model, &CostModel::cmsis_nn_m7(), 8 * 1024).expect("plan");
        assert!(plan.segments.len() >= 2, "fixture must be multi-segment");
        plan
    }

    #[test]
    fn well_formed_plans_have_no_races() {
        let plan = clean_plan();
        assert!(staging_races(&plan, &platform()).is_empty());
        assert!(check_staging(&plan, &platform()).is_empty());
    }

    #[test]
    fn rtm001_fires_once_on_a_single_overrunning_fetch() {
        let mut plan = clean_plan();
        // Shrink the declared half so exactly the largest fetch overruns.
        let max = plan
            .segments
            .iter()
            .map(|s| s.fetch_bytes)
            .max()
            .unwrap_or(0);
        assert!(
            plan.segments
                .iter()
                .filter(|s| s.fetch_bytes == max)
                .count()
                == 1
        );
        plan.buffer_bytes = max - 1;
        let overruns: Vec<_> = check_staging(&plan, &platform())
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm001)
            .collect();
        assert_eq!(overruns.len(), 1, "{overruns:?}");
        assert!(overruns[0].message.contains("overruns"));
    }

    #[test]
    fn rtm002_fires_when_an_overrun_spills_into_the_live_half() {
        // Three-segment plan: segment 2's fetch is larger than the half,
        // so its DMA write into half 0 spills over into half 1 while the
        // CPU is still computing segment 1 out of it.
        let seg = |index, fetch_bytes| rtmdm_xmem::SegmentPlan {
            index,
            first_layer: index,
            last_layer: index,
            fetch_bytes,
            compute_cycles: rtmdm_mcusim::Cycles::new(100_000),
        };
        let plan = ModelSegmentation {
            model: "synthetic".to_owned(),
            buffer_bytes: 1024,
            segments: vec![seg(0, 512), seg(1, 512), seg(2, 1536)],
        };
        let races = staging_races(&plan, &platform());
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].write_segment, 2);
        assert_eq!(races[0].read_segment, 1);
        let rtm002 = check_staging(&plan, &platform())
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm002)
            .count();
        assert_eq!(rtm002, 1);
    }

    #[test]
    fn tiled_continuations_do_not_race() {
        let model = zoo::resnet8();
        let cap = rtmdm_mcusim::Cycles::new(500_000);
        let plan =
            rtmdm_xmem::segment_model_tiled(&model, &CostModel::cmsis_nn_m7(), 64 * 1024, cap)
                .expect("tiled plan");
        assert!(
            plan.segments.iter().any(|s| s.fetch_bytes == 0),
            "has continuations"
        );
        assert!(check_staging(&plan, &platform()).is_empty());
    }

    #[test]
    fn rtm003_fires_once_on_one_aliased_pair() {
        let regions = vec![
            SramRegion::new("runtime-reserve", 0, 8192),
            SramRegion::new("kws-weights", 8192, 4096),
            SramRegion::new("kws-activations", 10_000, 1024),
        ];
        let findings = check_sram_regions(&regions, 1 << 20);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::Rtm003);
        assert!(findings[0].message.contains("kws-weights"));
    }

    #[test]
    fn rtm004_fires_once_when_the_plan_exceeds_sram() {
        let regions = vec![
            SramRegion::new("runtime-reserve", 0, 8192),
            SramRegion::new("vww-weights", 8192, 120 * 1024),
        ];
        let findings = check_sram_regions(&regions, 64 * 1024);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::Rtm004);
    }
}
