//! Planning errors.

use std::error::Error;
use std::fmt;

/// Memory planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// A single layer's weights exceed the fetch buffer — no segmentation
    /// can stage it. Grow the buffer (or shrink the model).
    LayerTooLarge {
        /// Model name.
        model: String,
        /// Offending layer name.
        layer: String,
        /// The layer's weight bytes.
        bytes: u64,
        /// The configured fetch-buffer size.
        buffer_bytes: u64,
    },
    /// The fetch buffer size is zero.
    ZeroBuffer,
    /// An SRAM region does not fit in what the layout has left.
    ArenaExhausted {
        /// Region label.
        label: String,
        /// Requested bytes.
        bytes: u64,
        /// Bytes not yet placed (alignment padding not counted).
        free: u64,
    },
    /// Tiling at the compute cap would cut the model into more than
    /// [`MAX_TILED_SEGMENTS`](crate::MAX_TILED_SEGMENTS) segments: the
    /// cap is far too small for the model.
    TooManySegments {
        /// Model name.
        model: String,
        /// The compute cap tiling was asked for, in cycles.
        cap: u64,
        /// Segments tiling at that cap would need.
        segments: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::LayerTooLarge {
                model,
                layer,
                bytes,
                buffer_bytes,
            } => write!(
                f,
                "layer {layer} of {model} needs {bytes} bytes, exceeding the {buffer_bytes}-byte fetch buffer"
            ),
            PlanError::ZeroBuffer => write!(f, "fetch buffer size must be positive"),
            PlanError::ArenaExhausted { label, bytes, free } => write!(
                f,
                "cannot allocate {bytes} bytes for {label}; {free} bytes free"
            ),
            PlanError::TooManySegments {
                model,
                cap,
                segments,
            } => write!(
                f,
                "tiling {model} at a {cap}-cycle compute cap needs {segments} segments, more than the {} allowed",
                crate::MAX_TILED_SEGMENTS
            ),
        }
    }
}

impl Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PlanError::LayerTooLarge {
            model: "resnet8".into(),
            layer: "conv3".into(),
            bytes: 40_000,
            buffer_bytes: 16_384,
        };
        let msg = e.to_string();
        assert!(msg.contains("conv3") && msg.contains("resnet8") && msg.contains("16384"));
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<PlanError>();
    }
}
