//! Bounded re-fetch cost accounting for the staging pipeline.
//!
//! The fault environment ([`rtmdm_mcusim::FaultPlan`]) can corrupt a
//! DMA transfer, forcing the whole segment to be fetched again. Faults
//! are transient and tolerated at most [`RetryPolicy::max_retries`]
//! consecutive times per transfer, so the worst-case extra staging cost
//! of a segment — and of a whole job — is a closed-form bound this
//! module computes. The admission analysis charges that bound against a
//! task's slack (retry-budget admission), so a system admitted under a
//! fault plan still meets its deadlines when every tolerated fault
//! actually happens.
//!
//! ## Double-buffer discipline under retries
//!
//! A retried fetch *replaces* the faulted transfer in the two-ahead
//! staging window instead of advancing it: it re-targets the same
//! buffer half, and the DMA queue orders it before the task's next
//! fetch (same `(task, segment)` priority key). The invariant the
//! static verifier checks (`rtmdm-check` RTM001–RTM004) — a fetch never
//! aliases the buffer half the CPU is computing from — is therefore
//! untouched by fault injection: retries add latency, never aliasing.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, ExtMemConfig, FaultPlan};

use crate::plan::ModelSegmentation;

/// Bounded-retry parameters of the staging pipeline, the xmem-side view
/// of a [`FaultPlan`] (which fixes seed and rate as well).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Consecutive re-fetches tolerated per transfer before the
    /// transient-fault model guarantees success.
    pub max_retries: u32,
    /// Worst-case extra bus latency per transfer attempt, in cycles.
    pub jitter_max_cycles: u64,
}

impl RetryPolicy {
    /// The no-retry policy: faults are not modelled, transfers never
    /// re-issue, and every bound in this module collapses to zero.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        jitter_max_cycles: 0,
    };

    /// The staging-side view of a fault plan. An inactive plan maps to
    /// [`RetryPolicy::NONE`] (no faults ⇒ no re-fetch cost, even if the
    /// plan nominally tolerates retries).
    pub fn from_plan(plan: &FaultPlan) -> Self {
        if plan.dma_fault_rate_ppm == 0 && plan.jitter_max_cycles == 0 {
            return RetryPolicy::NONE;
        }
        RetryPolicy {
            max_retries: if plan.dma_fault_rate_ppm > 0 {
                plan.max_retries
            } else {
                0
            },
            jitter_max_cycles: plan.jitter_max_cycles,
        }
    }

    /// Whether this policy adds any staging cost at all.
    pub fn is_none(&self) -> bool {
        self.max_retries == 0 && self.jitter_max_cycles == 0
    }

    /// Worst-case *extra* staging cycles of one transfer whose clean
    /// duration is `transfer`: each of the `max_retries` tolerated
    /// faults re-pays the full transfer plus maximal jitter, and the
    /// final successful attempt still pays its own jitter.
    pub fn worst_case_extra(&self, transfer: Cycles) -> Cycles {
        if self.is_none() {
            return Cycles::ZERO;
        }
        let jitter = self.jitter_max_cycles;
        Cycles::new(
            transfer
                .get()
                .saturating_add(jitter)
                .saturating_mul(u64::from(self.max_retries))
                .saturating_add(jitter),
        )
    }

    /// Worst-case staged duration of one transfer *including* retries:
    /// `transfer + worst_case_extra(transfer)`, saturating.
    pub fn worst_case_transfer(&self, transfer: Cycles) -> Cycles {
        transfer.saturating_add(self.worst_case_extra(transfer))
    }
}

/// Worst-case extra staging cycles a whole job pays under `policy`:
/// the sum of [`RetryPolicy::worst_case_extra`] over every segment of
/// the plan, with transfer durations taken from `ext_mem`.
///
/// This is the *retry budget* the admission test charges against the
/// task's slack: if the response bound plus this budget still meets the
/// deadline, the task survives the worst tolerated fault pattern.
pub fn job_retry_budget(
    seg: &ModelSegmentation,
    ext_mem: &ExtMemConfig,
    policy: &RetryPolicy,
) -> Cycles {
    if policy.is_none() {
        return Cycles::ZERO;
    }
    seg.segments
        .iter()
        .map(|s| {
            let transfer = ext_mem.transfer_cycles(s.fetch_bytes);
            if transfer.is_zero() {
                // Zero-byte segments never touch the DMA: no faults,
                // no jitter.
                Cycles::ZERO
            } else {
                policy.worst_case_extra(transfer)
            }
        })
        .fold(Cycles::ZERO, Cycles::saturating_add)
}

/// Worst-case extra staging cycles for a task described directly by
/// per-segment fetch sizes (the scheduler-level view, where no
/// [`ModelSegmentation`] exists).
pub fn segments_retry_budget(
    fetch_bytes: impl IntoIterator<Item = u64>,
    ext_mem: &ExtMemConfig,
    policy: &RetryPolicy,
) -> Cycles {
    if policy.is_none() {
        return Cycles::ZERO;
    }
    fetch_bytes
        .into_iter()
        .map(|b| {
            let transfer = ext_mem.transfer_cycles(b);
            if transfer.is_zero() {
                Cycles::ZERO
            } else {
                policy.worst_case_extra(transfer)
            }
        })
        .fold(Cycles::ZERO, Cycles::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::{zoo, CostModel};
    use rtmdm_mcusim::PlatformConfig;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            jitter_max_cycles: 10,
        }
    }

    #[test]
    fn none_policy_costs_nothing() {
        assert_eq!(
            RetryPolicy::NONE.worst_case_extra(Cycles::new(5000)),
            Cycles::ZERO
        );
        assert_eq!(
            RetryPolicy::NONE.worst_case_transfer(Cycles::new(5000)),
            Cycles::new(5000)
        );
    }

    #[test]
    fn inactive_plan_maps_to_none() {
        let p = RetryPolicy::from_plan(&FaultPlan::NONE);
        assert!(p.is_none());
        // A plan with retries configured but nothing injected is still
        // free: tolerance without faults costs nothing.
        let idle = FaultPlan {
            seed: 9,
            dma_fault_rate_ppm: 0,
            max_retries: 5,
            jitter_max_cycles: 0,
        };
        assert!(RetryPolicy::from_plan(&idle).is_none());
    }

    #[test]
    fn active_plan_carries_retries_and_jitter() {
        let p = RetryPolicy::from_plan(&FaultPlan {
            seed: 1,
            dma_fault_rate_ppm: 50_000,
            max_retries: 4,
            jitter_max_cycles: 25,
        });
        assert_eq!(p.max_retries, 4);
        assert_eq!(p.jitter_max_cycles, 25);
        // 4 × (1000 + 25) + 25 = 4125.
        assert_eq!(p.worst_case_extra(Cycles::new(1000)), Cycles::new(4125));
    }

    #[test]
    fn jitter_only_plan_still_charges_jitter() {
        let p = RetryPolicy::from_plan(&FaultPlan {
            seed: 1,
            dma_fault_rate_ppm: 0,
            max_retries: 3,
            jitter_max_cycles: 40,
        });
        assert_eq!(p.max_retries, 0, "no faults ⇒ no re-fetches");
        // Extra = 0 retries + final attempt's jitter.
        assert_eq!(p.worst_case_extra(Cycles::new(1000)), Cycles::new(40));
    }

    #[test]
    fn job_budget_sums_per_segment_bounds() {
        let model = zoo::ds_cnn();
        let seg = crate::segment_model(&model, &CostModel::cmsis_nn_m7(), 64 * 1024)
            .expect("segmentable");
        let ext = PlatformConfig::stm32f746_qspi().ext_mem;
        let budget = job_retry_budget(&seg, &ext, &policy());
        let by_hand: Cycles = seg
            .segments
            .iter()
            .map(|s| policy().worst_case_extra(ext.transfer_cycles(s.fetch_bytes)))
            .sum();
        assert_eq!(budget, by_hand);
        assert!(budget > Cycles::ZERO);
        assert_eq!(
            job_retry_budget(&seg, &ext, &RetryPolicy::NONE),
            Cycles::ZERO
        );
    }

    #[test]
    fn segment_budget_matches_byte_level_view() {
        let ext = PlatformConfig::stm32f746_qspi().ext_mem;
        let bytes = [4096u64, 0, 16 * 1024];
        let budget = segments_retry_budget(bytes, &ext, &policy());
        let by_hand = policy().worst_case_extra(ext.transfer_cycles(4096))
            + policy().worst_case_extra(ext.transfer_cycles(16 * 1024));
        // The zero-byte segment contributes nothing.
        assert_eq!(budget, by_hand);
    }
}
