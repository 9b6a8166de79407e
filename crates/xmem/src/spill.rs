//! Activation spilling — the extension for models whose feature maps
//! exceed the SRAM activation budget.
//!
//! When a model's peak activation footprint does not fit its SRAM
//! allotment, the framework can spill the producing layer's output to
//! external memory and fetch it back before the consuming layer runs.
//! Spilling converts SRAM pressure into extra external-memory traffic;
//! this module quantifies that trade so admission can price it into the
//! per-segment fetch volume.

use rtmdm_dnn::Model;

/// Plans activation spilling for `model` under an activation budget.
///
/// The policy is the standard greedy one: walk layers in execution
/// order; whenever the transient footprint (input + output of the
/// current layer) exceeds the budget, spill that layer's *output*
/// (it is written to external memory after production and read back
/// before consumption, so only one of the pair is resident at a time).
///
/// A double-buffered deployment needs `input + output` live at once;
/// spilling the output halves the requirement to `max(input, output)`.
/// Layers that still do not fit after spilling are counted too — the
/// caller decides whether to reject the model.
///
/// Returns each spilled layer, in execution order, with its round-trip
/// bytes: the output is written once after production and read once
/// before the next consumer, so `2 × tensor size` of extra traffic.
pub fn plan_spill(model: &Model, budget_bytes: u64) -> Vec<(usize, u64)> {
    let input_of = |idx: usize| -> u64 {
        match model.nodes()[idx].inputs[0] {
            rtmdm_dnn::NodeInput::ModelInput => model.input_shape().len() as u64,
            rtmdm_dnn::NodeInput::Node(id) => model.nodes()[id.0].out_shape.len() as u64,
        }
    };
    model
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(idx, node)| {
            let out_bytes = node.out_shape.len() as u64;
            (input_of(idx) + out_bytes > budget_bytes).then_some((idx, 2 * out_bytes))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::zoo;

    #[test]
    fn generous_budget_never_spills() {
        for model in zoo::all() {
            let budget = 4 * model.max_activation_bytes().max(1);
            assert!(plan_spill(&model, budget).is_empty(), "{}", model.name());
        }
    }

    #[test]
    fn tight_budget_spills_the_big_layers() {
        let model = zoo::mobilenet_v1_025();
        // The 48×48×16 feature map is 36 kB; a 32 kB budget must spill.
        let spilled = plan_spill(&model, 32 * 1024);
        assert!(!spilled.is_empty());
        // Spilled indices are valid and sorted, and each round-trips
        // its output tensor once in each direction.
        assert!(spilled.windows(2).all(|w| w[0].0 < w[1].0));
        for &(layer, bytes) in &spilled {
            assert!(layer < model.len());
            assert_eq!(bytes, 2 * model.nodes()[layer].out_shape.len() as u64);
        }
    }

    #[test]
    fn tighter_budget_spills_more_traffic() {
        let model = zoo::mobilenet_v1_025();
        let traffic = |budget| -> u64 { plan_spill(&model, budget).iter().map(|s| s.1).sum() };
        assert!(traffic(12 * 1024) >= traffic(24 * 1024));
        assert!(traffic(24 * 1024) > 0);
    }
}
