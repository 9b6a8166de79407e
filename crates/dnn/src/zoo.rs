//! Model zoo: architecturally faithful TinyML workloads.
//!
//! These mirror the four MLPerf-Tiny benchmark networks plus two smaller
//! helpers. Weight *values* are deterministic synthetic data (timing and
//! memory behaviour do not depend on learned values), but the layer
//! topologies — and therefore MAC counts, weight-block sizes, and
//! activation footprints — follow the published architectures:
//!
//! | model | task | params (≈) | input |
//! |-------|------|-----------|-------|
//! | [`ds_cnn`] | keyword spotting | 23 k | 49×10×1 MFCC |
//! | [`resnet8`] | image classification | 78 k | 32×32×3 |
//! | [`mobilenet_v1_025`] | visual wake word | 220 k | 96×96×3 |
//! | [`autoencoder`] | anomaly detection | 267 k | 640 features |
//! | [`lenet5`] | digit classification | 61 k | 28×28×1 |
//! | [`micro_mlp`] | sensor classification | 0.7 k | 16 features |

use std::sync::OnceLock;

use crate::builder::ModelBuilder;
use crate::graph::Model;
use crate::layer::Padding;
use crate::tensor::Shape;

/// DS-CNN keyword-spotting network (Hello-Edge "S" variant): one
/// full convolution followed by four depthwise-separable blocks,
/// global average pooling, and a 12-way classifier.
pub fn ds_cnn() -> Model {
    let mut b = ModelBuilder::new("ds-cnn", Shape::new(49, 10, 1)).conv2d(
        64,
        (10, 4),
        (2, 2),
        Padding::Same,
        true,
    );
    for _ in 0..4 {
        b = b.separable(64, (1, 1), true);
    }
    b.global_avg_pool().dense(12, false).softmax().build()
}

/// ResNet-8 (MLPerf-Tiny image classification): a 16-channel stem and
/// three residual stacks at 16/32/64 channels; the widening stacks use
/// 1×1 projection shortcuts.
pub fn resnet8() -> Model {
    ModelBuilder::new("resnet8", Shape::new(32, 32, 3))
        .conv2d(16, (3, 3), (1, 1), Padding::Same, true)
        // Stack 1: identity shortcut, 16 channels.
        .checkpoint()
        .conv2d(16, (3, 3), (1, 1), Padding::Same, true)
        .conv2d(16, (3, 3), (1, 1), Padding::Same, false)
        .add_from_checkpoint(true)
        // Stack 2: stride-2, widen to 32 — projection shortcut.
        .checkpoint()
        .conv2d(32, (3, 3), (2, 2), Padding::Same, true)
        .conv2d(32, (3, 3), (1, 1), Padding::Same, false)
        .add_with_projection((2, 2), true)
        // Stack 3: stride-2, widen to 64 — projection shortcut.
        .checkpoint()
        .conv2d(64, (3, 3), (2, 2), Padding::Same, true)
        .conv2d(64, (3, 3), (1, 1), Padding::Same, false)
        .add_with_projection((2, 2), true)
        .global_avg_pool()
        .dense(10, false)
        .softmax()
        .build()
}

/// MobileNetV1 at width multiplier 0.25 (MLPerf-Tiny visual wake word):
/// a stride-2 stem and 13 depthwise-separable blocks, binary classifier.
pub fn mobilenet_v1_025() -> Model {
    ModelBuilder::new("mobilenet-v1-025", Shape::new(96, 96, 3))
        .conv2d(8, (3, 3), (2, 2), Padding::Same, true)
        .separable(16, (1, 1), true)
        .separable(32, (2, 2), true)
        .separable(32, (1, 1), true)
        .separable(64, (2, 2), true)
        .separable(64, (1, 1), true)
        .separable(128, (2, 2), true)
        .separable(128, (1, 1), true)
        .separable(128, (1, 1), true)
        .separable(128, (1, 1), true)
        .separable(128, (1, 1), true)
        .separable(128, (1, 1), true)
        .separable(256, (2, 2), true)
        .separable(256, (1, 1), true)
        .global_avg_pool()
        .dense(2, false)
        .softmax()
        .build()
}

/// Dense autoencoder (MLPerf-Tiny anomaly detection): 640-feature
/// spectrogram in, symmetric 128/8/128 bottleneck, reconstruction out.
pub fn autoencoder() -> Model {
    ModelBuilder::new("autoencoder", Shape::flat(640))
        .dense(128, true)
        .dense(128, true)
        .dense(128, true)
        .dense(128, true)
        .dense(8, true)
        .dense(128, true)
        .dense(128, true)
        .dense(128, true)
        .dense(128, true)
        .dense(640, false)
        .build()
}

/// Classic LeNet-5 digit classifier (28×28 grayscale).
pub fn lenet5() -> Model {
    ModelBuilder::new("lenet5", Shape::new(28, 28, 1))
        .conv2d(6, (5, 5), (1, 1), Padding::Same, true)
        .max_pool((2, 2), (2, 2))
        .conv2d(16, (5, 5), (1, 1), Padding::Valid, true)
        .max_pool((2, 2), (2, 2))
        .dense(120, true)
        .dense(84, true)
        .dense(10, false)
        .softmax()
        .build()
}

/// A very small MLP for low-rate sensor tasks — useful as the short-period
/// high-priority task in scheduling mixes.
pub fn micro_mlp() -> Model {
    ModelBuilder::new("micro-mlp", Shape::flat(16))
        .dense(16, true)
        .dense(8, true)
        .dense(4, false)
        .build()
}

/// The zoo, built once per process. Building a model synthesizes every
/// weight byte; a clone of a built one only copies a pointer (models
/// share their node storage).
fn table() -> &'static [Model] {
    static ZOO: OnceLock<Vec<Model>> = OnceLock::new();
    ZOO.get_or_init(|| {
        vec![
            micro_mlp(),
            ds_cnn(),
            lenet5(),
            resnet8(),
            mobilenet_v1_025(),
            autoencoder(),
        ]
    })
}

/// Every zoo model, in ascending weight-size order.
pub fn all() -> Vec<Model> {
    table().to_vec()
}

/// Looks a zoo model up by its [`Model::name`].
pub fn by_name(name: &str) -> Option<Model> {
    table().iter().find(|m| m.name() == name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::QuantParams;
    use crate::tensor::Tensor;

    fn weight_kb(m: &Model) -> u64 {
        m.total_weight_bytes() / 1024
    }

    #[test]
    fn parameter_counts_match_published_architectures() {
        // Tolerant bands: synthetic weights, exact architectures.
        assert!(
            (15..35).contains(&weight_kb(&ds_cnn())),
            "ds-cnn {} kB",
            weight_kb(&ds_cnn())
        );
        assert!(
            (60..100).contains(&weight_kb(&resnet8())),
            "resnet8 {} kB",
            weight_kb(&resnet8())
        );
        assert!(
            (180..280).contains(&weight_kb(&mobilenet_v1_025())),
            "mobilenet {} kB",
            weight_kb(&mobilenet_v1_025())
        );
        assert!(
            (230..300).contains(&weight_kb(&autoencoder())),
            "autoencoder {} kB",
            weight_kb(&autoencoder())
        );
        assert!(
            (40..80).contains(&weight_kb(&lenet5())),
            "lenet5 {} kB",
            weight_kb(&lenet5())
        );
        assert!(micro_mlp().total_weight_bytes() < 2048);
    }

    #[test]
    fn output_shapes_match_tasks() {
        assert_eq!(ds_cnn().output_shape().len(), 12);
        assert_eq!(resnet8().output_shape().len(), 10);
        assert_eq!(mobilenet_v1_025().output_shape().len(), 2);
        assert_eq!(autoencoder().output_shape().len(), 640);
        assert_eq!(lenet5().output_shape().len(), 10);
        assert_eq!(micro_mlp().output_shape().len(), 4);
    }

    #[test]
    fn every_model_infers_on_patterned_input() {
        for model in all() {
            let mut input = Tensor::filled_pattern(model.input_shape(), 0xA5);
            input.set_quant(QuantParams::symmetric(0.1));
            let out = model.infer(&input).expect("inference");
            assert_eq!(out.shape(), model.output_shape(), "{}", model.name());
        }
    }

    #[test]
    fn zoo_inference_is_reproducible_golden() {
        // Golden check: a fixed input yields a stable argmax. If kernels
        // or weight generation change, this trips.
        let model = ds_cnn();
        let mut input = Tensor::filled_pattern(model.input_shape(), 0xBEEF);
        input.set_quant(QuantParams::symmetric(0.1));
        let a = model.infer(&input).expect("inference");
        let b = model.infer(&input).expect("inference");
        assert_eq!(a.data(), b.data());
        assert!(a.argmax().is_some());
    }

    #[test]
    fn by_name_round_trips() {
        for model in all() {
            let again = by_name(model.name()).expect("known name");
            assert_eq!(again.name(), model.name());
            assert_eq!(again.total_weight_bytes(), model.total_weight_bytes());
        }
        assert!(by_name("does-not-exist").is_none());
    }

    #[test]
    fn all_is_sorted_by_weight_size() {
        let sizes: Vec<u64> = all().iter().map(Model::total_weight_bytes).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn macs_are_in_expected_ranges() {
        // MobileNet dominates; micro-mlp is trivial.
        assert!(mobilenet_v1_025().total_macs() > 5_000_000);
        assert!(ds_cnn().total_macs() > 1_000_000);
        assert!(micro_mlp().total_macs() < 1_000);
    }
}
