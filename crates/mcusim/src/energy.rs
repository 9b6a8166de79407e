//! Platform energy model: joules from traces.
//!
//! Always-on multi-DNN nodes are battery devices; the scheduler's
//! dispatch discipline changes where cycles go (compute, gated idle,
//! DMA) and therefore energy. The model is a simple per-cycle /
//! per-byte accounting — deliberately coarse (datasheet-granularity),
//! but enough to rank strategies: it charges
//!
//! - CPU active cycles (segment execution, from the trace),
//! - CPU idle cycles (everything else up to the horizon; the gated
//!   dispatcher idles in WFI at a fraction of active power),
//! - DMA/external-memory traffic per byte staged,
//! - a base (always-on) floor per cycle.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::time::{Cycles, Frequency};
use crate::trace::{Trace, TraceKind};

/// Per-cycle and per-byte energy coefficients in picojoules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Label for reports.
    pub name: String,
    /// CPU executing a segment, per cycle.
    pub cpu_active_pj: u64,
    /// CPU waiting (WFI / gated idle), per cycle.
    pub cpu_idle_pj: u64,
    /// External-memory read + DMA transport, per byte staged.
    pub ext_read_pj_per_byte: u64,
    /// Always-on floor (regulators, SRAM retention, peripherals), per
    /// cycle.
    pub base_pj: u64,
}

impl EnergyModel {
    /// STM32F7-class numbers at 3.3 V: ≈180 µA/MHz run current
    /// (≈590 pJ/cycle), idle at ≈25 % of run, ≈60 pJ per QSPI byte.
    pub fn stm32f7() -> Self {
        EnergyModel {
            name: "stm32f7".to_owned(),
            cpu_active_pj: 590,
            cpu_idle_pj: 150,
            ext_read_pj_per_byte: 60,
            base_pj: 40,
        }
    }

    /// Accounts a finished trace over `horizon` cycles.
    ///
    /// CPU-active time is the sum of completed segment start/complete
    /// pairs, capped at the horizon; staged bytes come from fetch
    /// events; the rest of the horizon is idle.
    pub fn account(&self, trace: &Trace, horizon: Cycles) -> EnergyReport {
        let active = completed_segment_cycles(trace).min(horizon);
        let idle = horizon.saturating_sub(active);
        let bytes: u64 = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::FetchStarted { bytes, .. } => Some(bytes),
                _ => None,
            })
            .sum();
        EnergyReport {
            model: self.name.clone(),
            horizon,
            cpu_active_pj: active.get().saturating_mul(self.cpu_active_pj),
            cpu_idle_pj: idle.get().saturating_mul(self.cpu_idle_pj),
            ext_mem_pj: bytes.saturating_mul(self.ext_read_pj_per_byte),
            base_pj: horizon.get().saturating_mul(self.base_pj),
            staged_bytes: bytes,
        }
    }
}

/// Total cycles between each segment's start and its completion. A
/// segment still open when the trace ends counts nothing.
fn completed_segment_cycles(trace: &Trace) -> Cycles {
    let mut busy = Cycles::ZERO;
    let mut open = BTreeMap::new();
    for e in trace.events() {
        match e.kind {
            TraceKind::SegmentStarted { task, job, segment } => {
                open.insert((task, job, segment), e.time);
            }
            TraceKind::SegmentCompleted { task, job, segment } => {
                if let Some(start) = open.remove(&(task, job, segment)) {
                    busy += e.time - start;
                }
            }
            _ => {}
        }
    }
    busy
}

/// Energy breakdown of one run, in picojoules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy-model label.
    pub model: String,
    /// Accounted horizon.
    pub horizon: Cycles,
    /// CPU active energy.
    pub cpu_active_pj: u64,
    /// CPU idle energy.
    pub cpu_idle_pj: u64,
    /// External-memory staging energy.
    pub ext_mem_pj: u64,
    /// Always-on floor energy.
    pub base_pj: u64,
    /// Bytes staged over the horizon.
    pub staged_bytes: u64,
}

impl EnergyReport {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> u64 {
        self.cpu_active_pj
            .saturating_add(self.cpu_idle_pj)
            .saturating_add(self.ext_mem_pj)
            .saturating_add(self.base_pj)
    }

    /// Total energy in microjoules (rounded).
    pub fn total_uj(&self) -> u64 {
        self.total_pj() / 1_000_000
    }

    /// Average power in microwatts on a clock.
    pub fn avg_power_uw(&self, cpu: Frequency) -> u64 {
        if self.horizon.is_zero() {
            return 0;
        }
        // pJ * (cycles/s) / cycles = pW → µW by 1e6.
        let pw =
            u128::from(self.total_pj()) * u128::from(cpu.as_hz()) / u128::from(self.horizon.get());
        (pw / 1_000_000) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{JobId, SegmentId, TaskId};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn trace_with(active: u64, bytes: u64) -> Trace {
        let mut t = Trace::new();
        let (task, job, seg) = (TaskId(0), JobId(0), SegmentId(0));
        t.push(
            cy(0),
            TraceKind::FetchStarted {
                task,
                job,
                segment: seg,
                bytes,
            },
        );
        t.push(
            cy(10),
            TraceKind::SegmentStarted {
                task,
                job,
                segment: seg,
            },
        );
        t.push(
            cy(10 + active),
            TraceKind::SegmentCompleted {
                task,
                job,
                segment: seg,
            },
        );
        t
    }

    #[test]
    fn accounting_splits_active_idle_and_bytes() {
        let m = EnergyModel::stm32f7();
        let r = m.account(&trace_with(100, 1024), cy(1000));
        assert_eq!(r.cpu_active_pj, 100 * 590);
        assert_eq!(r.cpu_idle_pj, 900 * 150);
        assert_eq!(r.ext_mem_pj, 1024 * 60);
        assert_eq!(r.base_pj, 1000 * 40);
        assert_eq!(r.staged_bytes, 1024);
        assert_eq!(r.total_pj(), 100 * 590 + 900 * 150 + 1024 * 60 + 1000 * 40);
    }

    #[test]
    fn active_time_counts_completed_segments_capped_at_the_horizon() {
        let m = EnergyModel::stm32f7();
        // Completed pair [10, 110) exceeds a 50-cycle horizon: all active.
        let capped = m.account(&trace_with(100, 0), cy(50));
        assert_eq!(capped.cpu_active_pj, 50 * 590);
        assert_eq!(capped.cpu_idle_pj, 0);
        // A segment the trace never completes counts nothing.
        let mut open = trace_with(100, 0);
        open.push(
            cy(200),
            TraceKind::SegmentStarted {
                task: TaskId(0),
                job: JobId(1),
                segment: SegmentId(0),
            },
        );
        assert_eq!(m.account(&open, cy(1000)).cpu_active_pj, 100 * 590);
    }

    #[test]
    fn busier_traces_cost_more() {
        let m = EnergyModel::stm32f7();
        let light = m.account(&trace_with(100, 0), cy(1000));
        let heavy = m.account(&trace_with(800, 0), cy(1000));
        assert!(heavy.total_pj() > light.total_pj());
    }

    #[test]
    fn staging_costs_energy_even_when_latency_hides_it() {
        let m = EnergyModel::stm32f7();
        let none = m.account(&trace_with(500, 0), cy(1000));
        let staged = m.account(&trace_with(500, 64 * 1024), cy(1000));
        assert_eq!(
            staged.total_pj() - none.total_pj(),
            64 * 1024 * m.ext_read_pj_per_byte
        );
    }

    #[test]
    fn average_power_is_consistent() {
        let m = EnergyModel::stm32f7();
        // Fully idle trace at 200 MHz: power = (idle + base) pJ/cycle ×
        // 200 M cycles/s = 190 pJ × 200 MHz = 38 mW = 38 000 µW.
        let r = m.account(&Trace::new(), cy(200_000_000));
        assert_eq!(r.avg_power_uw(Frequency::mhz(200)), 38_000);
        // Zero horizon → zero power, no division panic.
        let z = m.account(&Trace::new(), Cycles::ZERO);
        assert_eq!(z.avg_power_uw(Frequency::mhz(200)), 0);
    }

    #[test]
    fn total_uj_rounds_down_pj() {
        let r = EnergyReport {
            model: "x".into(),
            horizon: cy(1),
            cpu_active_pj: 1_499_999,
            cpu_idle_pj: 0,
            ext_mem_pj: 0,
            base_pj: 0,
            staged_bytes: 0,
        };
        assert_eq!(r.total_uj(), 1);
    }
}
