//! User-facing task specifications.

use serde::{Deserialize, Serialize};

use rtmdm_dnn::Model;
use rtmdm_sched::MissPolicy;
use rtmdm_xmem::Strategy;

/// Specification of one periodic DNN inference task.
///
/// Times are in microseconds and converted to cycles against the
/// platform clock at admission.
///
/// # Examples
///
/// ```rust
/// use rtmdm_core::TaskSpec;
/// use rtmdm_dnn::zoo;
///
/// let spec = TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000)
///     .with_buffer_bytes(16 * 1024);
/// assert_eq!(spec.name, "kws");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Task name, unique within the framework.
    pub name: String,
    /// The DNN this task runs.
    pub model: Model,
    /// Period in microseconds.
    pub period_us: u64,
    /// Relative deadline in microseconds (≤ period).
    pub deadline_us: u64,
    /// Fetch-buffer size in bytes; `None` selects the smallest buffer
    /// that fits the model's largest layer, rounded up to 4 KiB.
    pub buffer_bytes: Option<u64>,
    /// Execution strategy.
    pub strategy: Strategy,
    /// SRAM budget for this task's activations, in bytes. `None`
    /// reserves the full `2 × max activation`; a smaller budget makes
    /// the framework spill oversized feature maps to external memory
    /// (extra staging traffic priced into the affected segments).
    pub activation_budget_bytes: Option<u64>,
    /// Per-task deadline-miss policy; `None` inherits the framework's
    /// [`FrameworkOptions::miss_policy`](crate::FrameworkOptions::miss_policy).
    pub miss_policy: Option<MissPolicy>,
}

impl TaskSpec {
    /// Creates a spec with the default RT-MDM strategy and automatic
    /// buffer sizing.
    pub fn new(name: impl Into<String>, model: Model, period_us: u64, deadline_us: u64) -> Self {
        TaskSpec {
            name: name.into(),
            model,
            period_us,
            deadline_us,
            buffer_bytes: None,
            strategy: Strategy::RtMdm,
            activation_budget_bytes: None,
            miss_policy: None,
        }
    }

    /// Overrides the fetch-buffer size.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer_bytes = Some(bytes);
        self
    }

    /// Overrides the execution strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps this task's activation SRAM, enabling spilling of oversized
    /// feature maps to external memory.
    pub fn with_activation_budget(mut self, bytes: u64) -> Self {
        self.activation_budget_bytes = Some(bytes);
        self
    }

    /// Overrides the deadline-miss policy for this task only.
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = Some(policy);
        self
    }

    /// The activation SRAM this spec reserves.
    pub fn resolved_activation_bytes(&self) -> u64 {
        self.activation_budget_bytes
            .unwrap_or_else(|| 2 * self.model.max_activation_bytes())
            .max(1)
    }

    /// The buffer size this spec resolves to: the explicit override, or
    /// the model's largest layer rounded up to a 4 KiB multiple.
    pub fn resolved_buffer_bytes(&self) -> u64 {
        self.buffer_bytes.unwrap_or_else(|| {
            let min = self.model.max_layer_weight_bytes().max(1);
            min.div_ceil(4096) * 4096
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::zoo;

    #[test]
    fn auto_buffer_covers_largest_layer() {
        let spec = TaskSpec::new("vww", zoo::mobilenet_v1_025(), 1000, 1000);
        let buf = spec.resolved_buffer_bytes();
        assert!(buf >= spec.model.max_layer_weight_bytes());
        assert_eq!(buf % 4096, 0);
        // Not absurdly larger than needed (within one page).
        assert!(buf < spec.model.max_layer_weight_bytes() + 4096);
    }

    #[test]
    fn explicit_buffer_wins() {
        let spec = TaskSpec::new("kws", zoo::ds_cnn(), 1000, 1000).with_buffer_bytes(12 * 1024);
        assert_eq!(spec.resolved_buffer_bytes(), 12 * 1024);
    }

    #[test]
    fn strategy_builder() {
        let spec = TaskSpec::new("a", zoo::micro_mlp(), 10, 10).with_strategy(Strategy::WholeDnn);
        assert_eq!(spec.strategy, Strategy::WholeDnn);
    }
}
