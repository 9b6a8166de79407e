//! Model graphs: sequential chains with residual skip connections.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::kernels;
use crate::layer::{Layer, LayerKind};
use crate::tensor::{Shape, Tensor};

/// Identifier of a node within its model (dense, topological order).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(pub usize);

/// Where a node's operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeInput {
    /// The model's external input tensor.
    ModelInput,
    /// The output of an earlier node.
    Node(NodeId),
}

/// One operator instance in a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id (equals its index in [`Model::nodes`]).
    pub id: NodeId,
    /// The layer (operator + weights).
    pub layer: Layer,
    /// Operand sources: one for most operators, two for `Add`.
    pub inputs: Vec<NodeInput>,
    /// Activation shape this node produces (validated at build time).
    pub out_shape: Shape,
}

/// Inference failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InferError {
    /// The supplied input tensor does not match the model's input shape.
    InputShapeMismatch {
        /// Shape the model expects.
        expected: Shape,
        /// Shape that was supplied.
        got: Shape,
    },
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::InputShapeMismatch { expected, got } => {
                write!(f, "input shape {got} does not match model input {expected}")
            }
        }
    }
}

impl std::error::Error for InferError {}

/// A validated DNN: topologically ordered nodes over one input tensor.
///
/// Models are immutable once built (via
/// [`ModelBuilder`](crate::ModelBuilder)); the last node is the output.
/// The node list (and with it every weight byte) sits behind an [`Arc`],
/// so cloning a model is a reference-count bump, never a weight copy.
///
/// # Examples
///
/// ```rust
/// use rtmdm_dnn::{zoo, Tensor};
///
/// # fn main() -> Result<(), rtmdm_dnn::InferError> {
/// let model = zoo::micro_mlp();
/// let out = model.infer(&Tensor::zeros(model.input_shape()))?;
/// assert_eq!(out.len(), 4);
/// assert!(model.total_weight_bytes() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    input_shape: Shape,
    nodes: Arc<Vec<Node>>,
}

impl Model {
    /// Assembles a model from parts. Intended for
    /// [`ModelBuilder`](crate::ModelBuilder); invariants (topological
    /// order, shape agreement) are the builder's responsibility and are
    /// re-checked with debug assertions.
    pub(crate) fn from_parts(name: String, input_shape: Shape, nodes: Vec<Node>) -> Self {
        debug_assert!(nodes.iter().enumerate().all(|(i, n)| n.id.0 == i
            && n.inputs.iter().all(|inp| match inp {
                NodeInput::ModelInput => true,
                NodeInput::Node(id) => id.0 < i,
            })));
        Model {
            name,
            input_shape,
            nodes: Arc::new(nodes),
        }
    }

    /// The model's name (zoo identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected input activation shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// Output activation shape (the last node's shape).
    pub fn output_shape(&self) -> Shape {
        self.nodes
            .last()
            .map(|n| n.out_shape)
            .unwrap_or(self.input_shape)
    }

    /// All nodes in topological (execution) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of operator nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the model has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total parameter bytes that must be staged from external memory.
    pub fn total_weight_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.layer.weight_bytes()).sum()
    }

    /// Total multiply-accumulate operations per inference.
    pub fn total_macs(&self) -> u64 {
        let mut total = 0u64;
        for node in self.nodes.iter() {
            let in_shape = self.operand_shape(node, 0);
            total += node.layer.kind.macs(in_shape);
        }
        total
    }

    /// The largest single layer's weight block in bytes — the lower bound
    /// on any SRAM fetch buffer that can run this model.
    pub fn max_layer_weight_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.layer.weight_bytes())
            .max()
            .unwrap_or(0)
    }

    /// The largest activation tensor (input or any node output) in bytes;
    /// this must fit in SRAM alongside the weight buffers.
    pub fn max_activation_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.out_shape.len() as u64)
            .chain(std::iter::once(self.input_shape.len() as u64))
            .max()
            .unwrap_or(0)
    }

    /// Shape of `node`'s `idx`-th operand.
    fn operand_shape(&self, node: &Node, idx: usize) -> Shape {
        match node.inputs[idx] {
            NodeInput::ModelInput => self.input_shape,
            NodeInput::Node(id) => self.nodes[id.0].out_shape,
        }
    }

    /// Serializes the model (topology + weights + quantization) to JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` encoding failures (practically
    /// unreachable for this data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a model serialized with [`Model::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the decoding error on malformed input.
    pub fn from_json(json: &str) -> Result<Model, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Runs a full inference, returning the output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputShapeMismatch`] if `input` has the
    /// wrong shape.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, InferError> {
        if input.shape() != self.input_shape {
            return Err(InferError::InputShapeMismatch {
                expected: self.input_shape,
                got: input.shape(),
            });
        }
        let mut outputs: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for node in self.nodes.iter() {
            let fetch = |inp: &NodeInput| -> &Tensor {
                match inp {
                    NodeInput::ModelInput => input,
                    NodeInput::Node(id) => outputs[id.0]
                        .as_ref()
                        .expect("topological order guarantees availability"),
                }
            };
            let out = match node.layer.kind {
                LayerKind::Conv2d { .. } => kernels::conv2d(fetch(&node.inputs[0]), &node.layer),
                LayerKind::DepthwiseConv2d { .. } => {
                    kernels::depthwise_conv2d(fetch(&node.inputs[0]), &node.layer)
                }
                LayerKind::Dense { .. } => kernels::dense(fetch(&node.inputs[0]), &node.layer),
                LayerKind::AvgPool2d { kernel, stride } => {
                    kernels::avg_pool2d(fetch(&node.inputs[0]), kernel, stride)
                }
                LayerKind::MaxPool2d { kernel, stride } => {
                    kernels::max_pool2d(fetch(&node.inputs[0]), kernel, stride)
                }
                LayerKind::GlobalAvgPool => kernels::global_avg_pool(fetch(&node.inputs[0])),
                LayerKind::Add { .. } => {
                    kernels::add(fetch(&node.inputs[0]), fetch(&node.inputs[1]), &node.layer)
                }
                LayerKind::Softmax => kernels::softmax(fetch(&node.inputs[0])),
                LayerKind::Flatten => fetch(&node.inputs[0]).flattened(),
            };
            debug_assert_eq!(
                out.shape(),
                node.out_shape,
                "node {} shape",
                node.layer.name
            );
            outputs[node.id.0] = Some(out);
        }
        // Telemetry: a single relaxed atomic load when the process-wide
        // registry is disabled (the default), so inference benchmarks
        // are unperturbed.
        let g = rtmdm_obs::metrics::global();
        if g.is_enabled() {
            g.add("dnn.inferences", 1);
            g.add("dnn.layers_executed", self.nodes.len() as u64);
            g.add("dnn.macs_executed", self.total_macs());
        }
        Ok(outputs.pop().flatten().unwrap_or_else(|| input.clone()))
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} layers, {} weight bytes, {} MACs)",
            self.name,
            self.nodes.len(),
            self.total_weight_bytes(),
            self.total_macs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::layer::Padding;

    fn tiny_model() -> Model {
        ModelBuilder::new("tiny", Shape::new(4, 4, 1))
            .conv2d(2, (3, 3), (1, 1), Padding::Same, true)
            .global_avg_pool()
            .dense(3, false)
            .build()
    }

    #[test]
    fn shapes_propagate_through_builder() {
        let m = tiny_model();
        assert_eq!(m.input_shape(), Shape::new(4, 4, 1));
        assert_eq!(m.output_shape(), Shape::flat(3));
        assert_eq!(m.len(), 3);
        assert_eq!(m.nodes()[0].out_shape, Shape::new(4, 4, 2));
    }

    #[test]
    fn infer_runs_and_produces_output_shape() {
        let m = tiny_model();
        let out = m.infer(&Tensor::zeros(m.input_shape())).expect("infer");
        assert_eq!(out.shape(), Shape::flat(3));
    }

    #[test]
    fn infer_rejects_wrong_input_shape() {
        let m = tiny_model();
        let err = m.infer(&Tensor::zeros(Shape::new(5, 5, 1))).unwrap_err();
        assert!(matches!(err, InferError::InputShapeMismatch { .. }));
        assert!(err.to_string().contains("5x5x1"));
    }

    #[test]
    fn aggregate_statistics() {
        let m = tiny_model();
        // conv: 2*9*1 weights + 2 biases; dense: 2*3 weights + 3 biases.
        assert_eq!(m.total_weight_bytes(), (18 + 8) as u64 + (6 + 12) as u64);
        assert_eq!(m.total_macs(), (4 * 4 * 2 * 9) as u64 + 6);
        assert!(m.max_layer_weight_bytes() >= 18);
        assert_eq!(m.max_activation_bytes(), 32); // 4×4×2 conv output
    }

    #[test]
    fn inference_is_deterministic() {
        let m = tiny_model();
        let input = Tensor::filled_pattern(m.input_shape(), 5);
        let a = m.infer(&input).expect("infer");
        let b = m.infer(&input).expect("infer");
        assert_eq!(a, b);
    }

    #[test]
    fn residual_model_executes() {
        let m = ModelBuilder::new("res", Shape::new(4, 4, 2))
            .checkpoint()
            .conv2d(2, (3, 3), (1, 1), Padding::Same, true)
            .add_from_checkpoint(true)
            .build();
        // Residual adds require equal operand scales; give the model
        // input the same activation scale the zoo uses internally.
        let mut input = Tensor::filled_pattern(m.input_shape(), 9);
        input.set_quant(crate::quantize::QuantParams::symmetric(0.1));
        let out = m.infer(&input).expect("infer");
        assert_eq!(out.shape(), Shape::new(4, 4, 2));
        // The Add node has two inputs.
        assert_eq!(m.nodes().last().unwrap().inputs.len(), 2);
    }

    #[test]
    fn json_round_trip_preserves_model_and_inference() {
        let m = tiny_model();
        let json = m.to_json().expect("encode");
        let back = Model::from_json(&json).expect("decode");
        assert_eq!(m, back);
        let input = Tensor::filled_pattern(m.input_shape(), 3);
        assert_eq!(
            m.infer(&input).expect("infer"),
            back.infer(&input).expect("infer")
        );
        assert!(Model::from_json("{not json").is_err());
    }

    #[test]
    fn clones_share_node_storage() {
        let m = crate::zoo::autoencoder();
        let c = m.clone();
        assert!(
            Arc::ptr_eq(&m.nodes, &c.nodes),
            "a clone must not copy weights"
        );
        assert_eq!(m, c);
    }

    /// FNV-1a over the serialized bytes: a compact pin of each zoo
    /// model's JSON document.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn zoo_models_round_trip_with_pinned_json_bytes() {
        // Length and digest of each model's `serde_json` document, pinned
        // from the plain-`Vec` node list: shared storage is invisible in
        // the serialized bytes.
        let pinned = [
            ("micro-mlp", 2_532, 0x1b60_903f_e830_fb7b_u64),
            ("ds-cnn", 86_743, 0xb738_c95c_4dd1_7efc),
            ("lenet5", 227_667, 0x94ff_eb0d_bc0f_710d),
            ("resnet8", 288_555, 0x018e_5111_6310_c03e),
            ("mobilenet-v1-025", 782_848, 0x53f6_f263_a75d_e517),
            ("autoencoder", 976_415, 0xce35_4bab_8a1a_0c26),
        ];
        let zoo = crate::zoo::all();
        assert_eq!(zoo.len(), pinned.len());
        for (m, (name, len, digest)) in zoo.iter().zip(pinned) {
            assert_eq!(m.name(), name);
            assert_eq!(&Model::from_content(&m.to_content()).expect("decode"), m);
            let json = m.to_json().expect("encode");
            assert_eq!(
                (json.len(), fnv1a(json.as_bytes())),
                (len, digest),
                "{name}"
            );
        }
    }

    #[test]
    fn display_mentions_name_and_sizes() {
        let s = tiny_model().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("3 layers"));
    }
}
