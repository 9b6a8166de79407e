//! Layer→segment fetch planning and the runtime SRAM reserve.

use serde::{Deserialize, Serialize};

use rtmdm_dnn::{CostModel, Model};
use rtmdm_mcusim::Cycles;

use crate::error::PlanError;

/// One fetch segment: a run of consecutive layers whose weights are
/// staged into the fetch buffer with a single DMA transfer and then
/// executed back to back without further external-memory traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentPlan {
    /// Segment index within its model (0-based, execution order).
    pub index: usize,
    /// First layer (node) index covered, inclusive.
    pub first_layer: usize,
    /// Last layer (node) index covered, inclusive.
    pub last_layer: usize,
    /// Parameter bytes the DMA stages for this segment.
    pub fetch_bytes: u64,
    /// Modelled CPU cycles to execute the covered layers.
    pub compute_cycles: Cycles,
}

/// The complete fetch plan of one model under one buffer size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSegmentation {
    /// Name of the segmented model.
    pub model: String,
    /// Fetch-buffer size the plan was computed for.
    pub buffer_bytes: u64,
    /// Segments in execution order.
    pub segments: Vec<SegmentPlan>,
}

impl ModelSegmentation {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the plan is empty (a model with no layers).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total staged bytes per inference.
    pub fn total_fetch_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.fetch_bytes).sum()
    }

    /// Total compute cycles per inference.
    pub fn total_compute(&self) -> Cycles {
        self.segments.iter().map(|s| s.compute_cycles).sum()
    }

    /// The longest single segment's compute cycles — the non-preemptive
    /// blocking this model can impose on higher-priority tasks.
    pub fn max_segment_compute(&self) -> Cycles {
        self.segments
            .iter()
            .map(|s| s.compute_cycles)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// The largest single fetch in bytes.
    pub fn max_fetch_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.fetch_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Checks that every layer of `model` can be staged through a
/// `buffer_bytes` fetch buffer, without running the cost model: the
/// planner's own up-front check.
///
/// # Errors
///
/// - [`PlanError::ZeroBuffer`] if `buffer_bytes == 0`.
/// - [`PlanError::LayerTooLarge`] for the first layer whose weights
///   exceed the buffer.
pub fn check_buffer_fits(model: &Model, buffer_bytes: u64) -> Result<(), PlanError> {
    if buffer_bytes == 0 {
        return Err(PlanError::ZeroBuffer);
    }
    match model
        .nodes()
        .iter()
        .map(|node| &node.layer)
        .find(|layer| layer.weight_bytes() > buffer_bytes)
    {
        Some(layer) => Err(PlanError::LayerTooLarge {
            model: model.name().to_owned(),
            layer: layer.name.clone(),
            bytes: layer.weight_bytes(),
            buffer_bytes,
        }),
        None => Ok(()),
    }
}

/// Splits `model` into fetch segments for a `buffer_bytes` fetch buffer.
///
/// The planner is greedy: it extends the current segment while the
/// accumulated weight bytes fit the buffer, and cuts a new segment
/// otherwise. Weight-less layers (pooling, add, softmax, flatten) never
/// force a cut — they execute from resident activations. Greedy grouping
/// is optimal for minimising segment count under a single-buffer
/// constraint because segments must cover consecutive layers.
///
/// # Errors
///
/// - [`PlanError::ZeroBuffer`] if `buffer_bytes == 0`.
/// - [`PlanError::LayerTooLarge`] if any single layer's weights exceed
///   the buffer.
///
/// # Examples
///
/// ```rust
/// use rtmdm_dnn::{zoo, CostModel};
/// use rtmdm_xmem::segment_model;
///
/// # fn main() -> Result<(), rtmdm_xmem::PlanError> {
/// let seg = segment_model(&zoo::ds_cnn(), &CostModel::cmsis_nn_m7(), 16 * 1024)?;
/// assert!(seg.len() >= 2); // 23 kB of weights cannot fit one 16 kB buffer
/// assert_eq!(seg.total_fetch_bytes(), zoo::ds_cnn().total_weight_bytes());
/// # Ok(())
/// # }
/// ```
pub fn segment_model(
    model: &Model,
    cost: &CostModel,
    buffer_bytes: u64,
) -> Result<ModelSegmentation, PlanError> {
    segment_model_capped(model, cost, buffer_bytes, None)
}

/// Like [`segment_model`], but additionally cuts a segment whenever its
/// accumulated compute would exceed `compute_cap` — bounding the
/// non-preemptive blocking a task can impose on higher-priority tasks.
///
/// A single layer whose compute alone exceeds the cap still forms its
/// own segment (layers are indivisible); callers that need a hard
/// blocking bound should check
/// [`ModelSegmentation::max_segment_compute`] afterwards.
///
/// # Errors
///
/// Same conditions as [`segment_model`].
pub fn segment_model_capped(
    model: &Model,
    cost: &CostModel,
    buffer_bytes: u64,
    compute_cap: Option<Cycles>,
) -> Result<ModelSegmentation, PlanError> {
    check_buffer_fits(model, buffer_bytes)?;
    let costs = cost.model_cost(model);

    let mut segments: Vec<SegmentPlan> = Vec::new();
    let mut first_layer = 0usize;
    let mut acc_bytes = 0u64;
    let mut acc_compute = Cycles::ZERO;
    let mut any_open = false;

    for (idx, layer_cost) in costs.layers.iter().enumerate() {
        let bytes = layer_cost.weight_bytes;
        let over_compute = compute_cap.is_some_and(|cap| acc_compute + layer_cost.compute > cap);
        if any_open && (acc_bytes + bytes > buffer_bytes || over_compute) {
            segments.push(SegmentPlan {
                index: segments.len(),
                first_layer,
                last_layer: idx - 1,
                fetch_bytes: acc_bytes,
                compute_cycles: acc_compute,
            });
            first_layer = idx;
            acc_bytes = 0;
            acc_compute = Cycles::ZERO;
        }
        any_open = true;
        acc_bytes += bytes;
        acc_compute += layer_cost.compute;
    }
    if any_open {
        segments.push(SegmentPlan {
            index: segments.len(),
            first_layer,
            last_layer: costs.layers.len() - 1,
            fetch_bytes: acc_bytes,
            compute_cycles: acc_compute,
        });
    }
    Ok(ModelSegmentation {
        model: model.name().to_owned(),
        buffer_bytes,
        segments,
    })
}

/// Most segments [`segment_model_tiled`] cuts one model into. Slices
/// number `compute / cap`, so a cap far below a layer's compute — a
/// quarter of a microsecond deadline, say — would otherwise allocate
/// millions of them.
pub const MAX_TILED_SEGMENTS: u64 = 4_096;

/// Like [`segment_model_capped`], but additionally **tiles** any segment
/// whose compute still exceeds the cap — splitting its compute into
/// equal preemption-point slices. This lifts the blocking floor of
/// layer-granularity segmentation: every operator in the engine computes
/// output rows independently, so a layer's MAC loop can yield at row
/// boundaries with its weights kept resident.
///
/// Tiling is represented as *continuation segments*: the first slice
/// carries the whole group's fetch bytes, continuations carry zero. The
/// double-buffer discipline stays safe (the simulator's prefetch window
/// advances through zero-byte fetches instantly, and the next real fetch
/// only becomes admissible once the tiled group's buffer half is dead).
/// The covered layer range is repeated on each slice.
///
/// # Errors
///
/// Same conditions as [`segment_model`], and
/// [`PlanError::TooManySegments`] when the tiles would number more than
/// [`MAX_TILED_SEGMENTS`]; that count is taken before any is allocated.
pub fn segment_model_tiled(
    model: &Model,
    cost: &CostModel,
    buffer_bytes: u64,
    compute_cap: Cycles,
) -> Result<ModelSegmentation, PlanError> {
    assert!(!compute_cap.is_zero(), "tiling cap must be positive");
    let base = segment_model_capped(model, cost, buffer_bytes, Some(compute_cap))?;
    let count = base.segments.iter().fold(0u64, |n, seg| {
        n.saturating_add(seg.compute_cycles.get().div_ceil(compute_cap.get()).max(1))
    });
    if count > MAX_TILED_SEGMENTS {
        return Err(PlanError::TooManySegments {
            model: base.model,
            cap: compute_cap.get(),
            segments: count,
        });
    }
    let mut segments = Vec::with_capacity(base.segments.len());
    for seg in base.segments {
        if seg.compute_cycles <= compute_cap {
            segments.push(SegmentPlan {
                index: segments.len(),
                ..seg
            });
            continue;
        }
        let slices = seg.compute_cycles.get().div_ceil(compute_cap.get());
        let mut remaining = seg.compute_cycles;
        for s in 0..slices {
            let slice = if s + 1 == slices {
                remaining
            } else {
                remaining.min(compute_cap)
            };
            remaining = remaining.saturating_sub(slice);
            segments.push(SegmentPlan {
                index: segments.len(),
                first_layer: seg.first_layer,
                last_layer: seg.last_layer,
                fetch_bytes: if s == 0 { seg.fetch_bytes } else { 0 },
                compute_cycles: slice,
            });
        }
    }
    Ok(ModelSegmentation {
        model: base.model,
        buffer_bytes: base.buffer_bytes,
        segments,
    })
}

/// SRAM the runtime keeps for stacks and bookkeeping, placed first in
/// every admission layout.
pub const RUNTIME_RESERVE: u64 = 8 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::zoo;

    fn m7() -> CostModel {
        CostModel::cmsis_nn_m7()
    }

    #[test]
    fn segmentation_covers_every_layer_exactly_once() {
        for model in zoo::all() {
            let seg = segment_model(&model, &m7(), 96 * 1024).expect("plan");
            let mut next = 0usize;
            for s in &seg.segments {
                assert_eq!(s.first_layer, next, "{}", model.name());
                assert!(s.last_layer >= s.first_layer);
                next = s.last_layer + 1;
            }
            assert_eq!(next, model.len(), "{}", model.name());
            assert_eq!(seg.total_fetch_bytes(), model.total_weight_bytes());
        }
    }

    #[test]
    fn every_segment_fits_the_buffer() {
        for buffer in [8 * 1024u64, 16 * 1024, 64 * 1024] {
            for model in zoo::all() {
                match segment_model(&model, &m7(), buffer) {
                    Ok(seg) => {
                        assert!(
                            seg.max_fetch_bytes() <= buffer,
                            "{} @ {buffer}",
                            model.name()
                        );
                    }
                    Err(PlanError::LayerTooLarge { bytes, .. }) => {
                        assert!(bytes > buffer);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }

    #[test]
    fn bigger_buffers_never_increase_segment_count() {
        let model = zoo::mobilenet_v1_025();
        let mut last = usize::MAX;
        for buffer in [72 * 1024u64, 96 * 1024, 128 * 1024, 512 * 1024] {
            let seg = segment_model(&model, &m7(), buffer).expect("plan");
            assert!(seg.len() <= last, "buffer {buffer}");
            last = seg.len();
        }
        // A buffer big enough for the whole model → one segment.
        let whole = segment_model(&model, &m7(), model.total_weight_bytes()).expect("plan");
        assert_eq!(whole.len(), 1);
    }

    #[test]
    fn zero_buffer_is_rejected() {
        assert_eq!(
            segment_model(&zoo::micro_mlp(), &m7(), 0).unwrap_err(),
            PlanError::ZeroBuffer
        );
    }

    #[test]
    fn oversized_layer_is_reported_with_its_name() {
        // The autoencoder's 640×128 dense layer needs >80 kB.
        let err = segment_model(&zoo::autoencoder(), &m7(), 4 * 1024).unwrap_err();
        match err {
            PlanError::LayerTooLarge { layer, bytes, .. } => {
                assert!(bytes > 4 * 1024);
                assert!(layer.starts_with("dense"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn weightless_layers_attach_to_segments() {
        // lenet5 has pools between convs; they must not create
        // zero-fetch segments of their own.
        let seg = segment_model(&zoo::lenet5(), &m7(), 64 * 1024).expect("plan");
        for s in &seg.segments {
            assert!(s.fetch_bytes > 0, "segment {} fetches nothing", s.index);
        }
    }

    #[test]
    fn segment_compute_sums_to_model_compute() {
        let model = zoo::resnet8();
        let seg = segment_model(&model, &m7(), 40 * 1024).expect("plan");
        let total = m7().model_cost(&model).total_compute;
        assert_eq!(seg.total_compute(), total);
    }

    #[test]
    fn tiling_conserves_work_and_respects_the_cap() {
        let model = zoo::resnet8();
        let cap = Cycles::new(500_000); // 2.5 ms at 200 MHz
        let capped = segment_model_capped(&model, &m7(), 40 * 1024, Some(cap)).expect("plan");
        let tiled = segment_model_tiled(&model, &m7(), 40 * 1024, cap).expect("plan");
        // Conservation.
        assert_eq!(tiled.total_compute(), capped.total_compute());
        assert_eq!(tiled.total_fetch_bytes(), capped.total_fetch_bytes());
        // The capped plan is floored by resnet8's widest layer; tiling
        // actually meets the cap.
        assert!(capped.max_segment_compute() > cap);
        assert!(tiled.max_segment_compute() <= cap);
        assert!(tiled.len() > capped.len());
        // Continuation slices carry no fetch.
        let zero_fetch = tiled.segments.iter().filter(|s| s.fetch_bytes == 0).count();
        assert!(zero_fetch > 0);
        // Indices are dense.
        for (i, s) in tiled.segments.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn tiling_is_identity_when_nothing_exceeds_the_cap() {
        let model = zoo::ds_cnn();
        let cap = Cycles::new(50_000_000);
        let capped = segment_model_capped(&model, &m7(), 16 * 1024, Some(cap)).expect("plan");
        let tiled = segment_model_tiled(&model, &m7(), 16 * 1024, cap).expect("plan");
        assert_eq!(capped, tiled);
    }

    #[test]
    fn tiling_refuses_a_cap_that_needs_too_many_segments() {
        let model = zoo::resnet8();
        let total = m7().model_cost(&model).total_compute.get();
        let cap = Cycles::new(20);
        let err = segment_model_tiled(&model, &m7(), 40 * 1024, cap).expect_err("too many");
        match &err {
            PlanError::TooManySegments { segments, cap, .. } => {
                assert!(*segments > MAX_TILED_SEGMENTS && *segments >= total / 20);
                assert_eq!(*cap, 20);
            }
            e => panic!("unexpected error: {e}"),
        }
        assert!(err.to_string().contains("resnet8"), "{err}");
        // Slices of total / (limit / 2) cycles, plus at most one partial
        // slice per base segment, stay within the limit.
        let cap = Cycles::new(total.div_ceil(MAX_TILED_SEGMENTS / 2));
        let tiled = segment_model_tiled(&model, &m7(), 40 * 1024, cap).expect("within the limit");
        assert!(tiled.len() as u64 <= MAX_TILED_SEGMENTS);
    }

    #[test]
    fn max_segment_compute_bounds_each_segment() {
        let seg = segment_model(&zoo::resnet8(), &m7(), 40 * 1024).expect("plan");
        let max = seg.max_segment_compute();
        assert!(seg.segments.iter().all(|s| s.compute_cycles <= max));
        assert!(max > Cycles::ZERO);
    }
}
