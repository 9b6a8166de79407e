//! Configuration advisor: search per-task strategies for the cheapest
//! admissible deployment.
//!
//! A small model may be cheaper to keep resident (its whole parameter
//! set is smaller than a double fetch buffer); a large one must stream.
//! The advisor enumerates per-task strategy assignments
//! (`RtMdm` vs `AllInSram`), keeps those that pass admission, and
//! returns the one using the least SRAM — with the same timing headroom
//! `serve` reports.

use serde::{Deserialize, Serialize};

use rtmdm_xmem::Strategy;

use crate::error::AdmitError;
use crate::framework::{headroom_ppm, DirectHooks, RtMdm};

/// Upper bound on tasks the exhaustive strategy search accepts.
const MAX_TASKS: usize = 12;

/// Outcome of [`RtMdm::optimize`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizeOutcome {
    /// Chosen strategy per task, in insertion order.
    pub strategies: Vec<Strategy>,
    /// SRAM the chosen configuration consumes (bytes).
    pub sram_used: u64,
    /// Critical compute-scaling factor of the chosen configuration
    /// under the fixed-priority, DMA-aware analysis (ppm; ≥ 1 000 000
    /// means real headroom). `0` under any other policy or analysis,
    /// which the scaling search does not run.
    pub scaling_ppm: u64,
    /// Number of assignments that passed admission.
    pub admissible_count: u32,
}

impl RtMdm {
    /// Searches per-task strategy assignments (`RtMdm` / `AllInSram`)
    /// for the admissible configuration with the smallest SRAM
    /// footprint.
    ///
    /// # Errors
    ///
    /// [`AdmitError::NoTasks`] on an empty framework,
    /// [`AdmitError::TooManyTasks`] past the exhaustive-search cap;
    /// propagates platform errors. Returns `Ok(None)` when no
    /// assignment is admissible.
    pub fn optimize(&self) -> Result<Option<OptimizeOutcome>, AdmitError> {
        let n = self.specs().len();
        if n == 0 {
            return Err(AdmitError::NoTasks);
        }
        if n > MAX_TASKS {
            return Err(AdmitError::TooManyTasks {
                count: n,
                max: MAX_TASKS,
            });
        }
        let mut best: Option<OptimizeOutcome> = None;
        let mut admissible = 0u32;
        for mask in 0u32..(1 << n) {
            let mut candidate = self.clone();
            let strategies: Vec<Strategy> = (0..n)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Strategy::AllInSram
                    } else {
                        Strategy::RtMdm
                    }
                })
                .collect();
            candidate.set_strategies(&strategies);
            let (admission, ordered, _) = match candidate.admit_hooked(&DirectHooks) {
                Ok(admitted) => admitted,
                Err((AdmitError::Memory(_), _)) => continue, // does not fit
                Err((e, _)) => return Err(e),
            };
            if !admission.schedulable() {
                continue;
            }
            admissible += 1;
            let sram_used = admission.sram_total();
            if best.as_ref().is_none_or(|b| sram_used < b.sram_used) {
                best = Some(OptimizeOutcome {
                    strategies,
                    sram_used,
                    scaling_ppm: headroom_ppm(&ordered, self.platform(), self.options()),
                    admissible_count: 0, // patched below
                });
            }
        }
        Ok(best.map(|mut b| {
            b.admissible_count = admissible;
            b
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TaskSpec;
    use rtmdm_dnn::zoo;
    use rtmdm_mcusim::PlatformConfig;

    fn fw() -> RtMdm {
        let mut f = RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform");
        f.add_task(TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000))
            .expect("control");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        f.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
            .expect("ic");
        f
    }

    #[test]
    fn optimizer_finds_an_admissible_minimum() {
        let outcome = fw().optimize().expect("search").expect("admissible");
        assert_eq!(outcome.strategies.len(), 3);
        assert!(outcome.admissible_count >= 1);
        assert!(
            outcome.scaling_ppm >= 1_000_000,
            "chosen config has headroom"
        );
        // The tiny control model is cheaper resident than with an 8 KiB
        // double buffer.
        assert_eq!(outcome.strategies[0], Strategy::AllInSram);
    }

    #[test]
    fn chosen_sram_is_minimal_among_candidates() {
        let f = fw();
        let outcome = f.optimize().expect("search").expect("admissible");
        // Brute-force re-check: no admitted assignment is cheaper.
        for mask in 0u32..8 {
            let mut candidate = f.clone();
            let strategies: Vec<Strategy> = (0..3)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Strategy::AllInSram
                    } else {
                        Strategy::RtMdm
                    }
                })
                .collect();
            candidate.set_strategies(&strategies);
            if let Ok(a) = candidate.admit() {
                if a.schedulable() {
                    assert!(a.sram_total() >= outcome.sram_used);
                }
            }
        }
    }

    #[test]
    fn oversized_frameworks_error_instead_of_panicking() {
        let mut f = RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform");
        for i in 0..13 {
            f.add_task(TaskSpec::new(
                format!("t{i}"),
                zoo::micro_mlp(),
                1_000_000,
                1_000_000,
            ))
            .expect("add");
        }
        let err = f.optimize().unwrap_err();
        assert!(matches!(
            err,
            AdmitError::TooManyTasks { count: 13, max: 12 }
        ));
    }

    #[test]
    fn impossible_workloads_yield_none() {
        let mut f = RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform");
        // 10 ms period with 80 ms of work: no strategy helps.
        f.add_task(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000))
            .expect("ic");
        assert!(f.optimize().expect("search").is_none());
    }
}
