//! Deterministic fault injection for the platform model.
//!
//! Real external-memory MCUs are not fault-free: QSPI/OSPI transfers
//! drop or corrupt bursts under marginal signal integrity, and bus
//! arbitration adds latency jitter. [`FaultPlan`] describes such a
//! failure environment; [`FaultInjector`] turns it into reproducible
//! per-transfer decisions the simulator consults when a DMA transfer
//! completes.
//!
//! ## Determinism guarantee
//!
//! Every decision is a pure function of the plan and the transfer's
//! identity `(task, job, segment, attempt)` — each query seeds a fresh
//! [`StdRng`](rand::rngs::StdRng) from the mixed key and draws one
//! word. No generator state is shared between queries, so decisions are
//! independent of the order in which the simulator asks, of event
//! interleaving, and of thread count: two runs with the same plan see
//! the same fault set, byte for byte.
//!
//! The same construction couples runs across fault rates: a transfer's
//! decision word does not depend on the rate, so the fault set at rate
//! `r₁ < r₂` is a subset of the fault set at `r₂` (common random
//! numbers). Sweeps over the rate therefore degrade monotonically
//! rather than re-rolling every fault.
//!
//! ## Fault model
//!
//! - **Transfer faults** are transient: a faulted DMA transfer
//!   delivered corrupt data and must be re-fetched in full. A given
//!   transfer faults at most [`FaultPlan::max_retries`] consecutive
//!   times, then succeeds — liveness is unconditional and the
//!   worst-case re-fetch cost is bounded by construction.
//! - **Latency jitter** adds up to [`FaultPlan::jitter_max_cycles`]
//!   extra bus cycles to each transfer attempt, drawn uniformly and
//!   keyed like fault decisions.
//!
//! When the plan is inactive ([`FaultPlan::is_active`] is `false`),
//! every query returns its zero value without touching an RNG — the
//! disabled path costs nothing and perturbs nothing.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::time::Cycles;

/// A description of the fault environment a run is subjected to.
///
/// The default plan (and [`FaultPlan::NONE`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault stream, independent of the simulator's
    /// execution-time jitter seed.
    pub seed: u64,
    /// Probability that a DMA transfer attempt faults, in parts per
    /// million. `0` disables transfer faults.
    pub dma_fault_rate_ppm: u64,
    /// Upper bound on *consecutive* faults of one transfer: after this
    /// many failed attempts the next attempt succeeds unconditionally
    /// (transient-fault model, bounded re-fetch cost).
    pub max_retries: u32,
    /// Maximum extra bus latency added to one transfer attempt, in
    /// cycles. `0` disables jitter.
    pub jitter_max_cycles: u64,
}

/// Default number of consecutive faults tolerated per transfer.
pub const DEFAULT_MAX_RETRIES: u32 = 3;

impl FaultPlan {
    /// The fault-free plan: nothing is injected, no RNG is consulted.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 0,
        max_retries: DEFAULT_MAX_RETRIES,
        jitter_max_cycles: 0,
    };

    /// Whether this plan injects anything at all.
    pub const fn is_active(&self) -> bool {
        self.dma_fault_rate_ppm > 0 || self.jitter_max_cycles > 0
    }

    /// Worst-case extra staging cycles of one transfer whose clean
    /// duration is `transfer`: each of the `max_retries` tolerated faults
    /// re-pays the full transfer plus maximal jitter, and the final
    /// successful attempt still pays its own jitter. Retries count only
    /// when faults are injected, so a jitter-only plan charges the
    /// jitter alone and an inactive plan charges nothing. Saturating.
    ///
    /// Admission charges the sum of this bound over a task's nonzero
    /// transfers against its slack (the retry budget).
    pub fn worst_case_extra(&self, transfer: Cycles) -> Cycles {
        let retries = if self.dma_fault_rate_ppm > 0 {
            u64::from(self.max_retries)
        } else {
            0
        };
        let jitter = self.jitter_max_cycles;
        Cycles::new(
            transfer
                .get()
                .saturating_add(jitter)
                .saturating_mul(retries)
                .saturating_add(jitter),
        )
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Decision salts keeping the fault and jitter streams of one transfer
/// attempt independent.
const STREAM_FAULT: u64 = 0x46_41_55_4C_54; // "FAULT"
const STREAM_JITTER: u64 = 0x4A_49_54_54_45_52; // "JITTER"

/// SplitMix64 finalizer folding `v` into a running key.
#[inline]
const fn mix(state: u64, v: u64) -> u64 {
    let mut z = (state ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reproducible fault decisions for a [`FaultPlan`].
///
/// Stateless by design — see the module docs for why keyed decisions
/// (rather than a shared stream) are what makes the injector
/// reproducible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub const fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The plan this injector realizes.
    pub const fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any injection can occur (false ⇒ every query is a
    /// constant-time zero).
    pub const fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// One word of the decision stream for a transfer attempt,
    /// drawn through the vendored [`StdRng`] seeded from the mixed key.
    fn decision_word(&self, stream: u64, task: u64, job: u64, seg: u64, attempt: u64) -> u64 {
        let key = mix(
            mix(mix(mix(mix(self.plan.seed, stream), task), job), seg),
            attempt,
        );
        StdRng::seed_from_u64(key).next_u64()
    }

    /// Whether attempt `attempt` (0-based) of staging `(task, job, seg)`
    /// faults and must be re-fetched.
    ///
    /// Attempts at or beyond [`FaultPlan::max_retries`] never fault:
    /// faults are transient and re-fetching is bounded.
    pub fn transfer_faults(&self, task: usize, job: u64, seg: usize, attempt: u32) -> bool {
        if self.plan.dma_fault_rate_ppm == 0 || attempt >= self.plan.max_retries {
            return false;
        }
        let word = self.decision_word(
            STREAM_FAULT,
            task as u64,
            job,
            seg as u64,
            u64::from(attempt),
        );
        // Modulo keeps the decision word rate-independent, so the fault
        // set only grows as the rate rises (common random numbers).
        word % 1_000_000 < self.plan.dma_fault_rate_ppm.min(1_000_000)
    }

    /// Extra bus latency of attempt `attempt` of staging
    /// `(task, job, seg)`, uniform over `[0, jitter_max_cycles]`.
    pub fn transfer_jitter(&self, task: usize, job: u64, seg: usize, attempt: u32) -> Cycles {
        if self.plan.jitter_max_cycles == 0 {
            return Cycles::ZERO;
        }
        let word = self.decision_word(
            STREAM_JITTER,
            task as u64,
            job,
            seg as u64,
            u64::from(attempt),
        );
        // At `u64::MAX` the interval spans every word.
        match self.plan.jitter_max_cycles.checked_add(1) {
            Some(span) => Cycles::new(word % span),
            None => Cycles::new(word),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(rate: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan {
            seed: 7,
            dma_fault_rate_ppm: rate,
            ..FaultPlan::NONE
        })
    }

    #[test]
    fn inactive_plan_never_faults_or_jitters() {
        let inj = FaultInjector::new(FaultPlan::NONE);
        assert!(!inj.is_active());
        for seg in 0..64 {
            assert!(!inj.transfer_faults(0, 0, seg, 0));
            assert_eq!(inj.transfer_jitter(0, 0, seg, 0), Cycles::ZERO);
        }
        assert_eq!(
            FaultPlan::NONE.worst_case_extra(Cycles::new(1000)),
            Cycles::ZERO
        );
    }

    #[test]
    fn decisions_are_reproducible_and_keyed() {
        let a = injector(500_000);
        let b = injector(500_000);
        let mut distinct = 0;
        for seg in 0..256 {
            assert_eq!(
                a.transfer_faults(1, 2, seg, 0),
                b.transfer_faults(1, 2, seg, 0)
            );
            if a.transfer_faults(1, 2, seg, 0) != a.transfer_faults(1, 3, seg, 0) {
                distinct += 1;
            }
        }
        // Different jobs see different fault patterns.
        assert!(distinct > 0);
    }

    #[test]
    fn fault_sets_grow_monotonically_with_rate() {
        let lo = injector(50_000);
        let hi = injector(400_000);
        for task in 0..4 {
            for job in 0..32 {
                for seg in 0..8 {
                    if lo.transfer_faults(task, job, seg, 0) {
                        assert!(
                            hi.transfer_faults(task, job, seg, 0),
                            "fault set must be a superset at the higher rate"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn retry_bound_caps_consecutive_faults() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            dma_fault_rate_ppm: 1_000_000,
            max_retries: 2,
            jitter_max_cycles: 0,
        });
        // Rate 100%: the first `max_retries` attempts fault, then the
        // bound forces success.
        assert!(inj.transfer_faults(0, 0, 0, 0));
        assert!(inj.transfer_faults(0, 0, 0, 1));
        assert!(!inj.transfer_faults(0, 0, 0, 2));
        assert!(!inj.transfer_faults(0, 0, 0, 99));
    }

    #[test]
    fn observed_fault_frequency_tracks_the_rate() {
        let inj = injector(250_000);
        let n = 4000;
        let faults = (0..n).filter(|&j| inj.transfer_faults(0, j, 0, 0)).count();
        let freq_ppm = faults as u64 * 1_000_000 / n;
        assert!(
            (200_000..=300_000).contains(&freq_ppm),
            "250000 ppm requested, observed {freq_ppm}"
        );
    }

    #[test]
    fn jitter_stays_within_bound_and_varies() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 3,
            dma_fault_rate_ppm: 0,
            max_retries: DEFAULT_MAX_RETRIES,
            jitter_max_cycles: 100,
        });
        assert!(inj.is_active());
        let mut seen_nonzero = false;
        for job in 0..64 {
            let j = inj.transfer_jitter(0, job, 0, 0);
            assert!(j <= Cycles::new(100));
            seen_nonzero |= !j.is_zero();
        }
        assert!(seen_nonzero, "jitter must actually perturb transfers");
    }

    #[test]
    fn worst_case_extra_covers_all_tolerated_faults() {
        let plan = FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 10_000,
            max_retries: 3,
            jitter_max_cycles: 50,
        };
        // 3 retries × (1000 + 50) + final attempt's jitter 50.
        assert_eq!(plan.worst_case_extra(Cycles::new(1000)), Cycles::new(3200));
        // Without faults the retries cost nothing, but jitter still
        // applies to the one attempt; an idle plan charges nothing.
        let jitter_only = FaultPlan {
            dma_fault_rate_ppm: 0,
            ..plan
        };
        assert_eq!(
            jitter_only.worst_case_extra(Cycles::new(1000)),
            Cycles::new(50)
        );
        let idle = FaultPlan {
            jitter_max_cycles: 0,
            ..jitter_only
        };
        assert_eq!(idle.worst_case_extra(Cycles::new(1000)), Cycles::ZERO);
        let saturated = FaultPlan {
            jitter_max_cycles: u64::MAX,
            ..plan
        };
        assert_eq!(saturated.worst_case_extra(Cycles::new(1000)), Cycles::MAX);
    }
}
