//! External-memory transfer costs and shared-bus contention.
//!
//! An MCU staging DNN weights from external memory has two active masters
//! on its bus matrix: the CPU (fetching instructions/activations from
//! SRAM and internal flash) and the DMA engine (streaming weight blocks
//! from QSPI/OSPI memory). When both are active they contend for the bus
//! and each makes less progress per wall-clock cycle. This module models:
//!
//! - [`ExtMemConfig`]: the cost of one DMA transfer — a fixed setup
//!   latency plus an exact-rational cycles-per-byte rate;
//! - [`ContentionModel`]: symmetric inflation factors (parts per million)
//!   applied to CPU work and DMA work while they overlap;
//! - [`ContentionModel::overlap`]: a closed-form solver for "compute `C`
//!   and fetch `F` start together; when does each finish?" used both by
//!   the cycle simulator and (as an upper bound) by the schedulability
//!   analysis.

use serde::{Deserialize, Serialize};

use crate::time::{Cycles, Frequency};

/// One million — the denominator of all parts-per-million factors.
pub(crate) const PPM: u64 = 1_000_000;

/// The technology behind the external weight store.
///
/// The kind is informational (it names rows in result tables); timing is
/// fully determined by the numeric fields of [`ExtMemConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ExtMemKind {
    /// Quad-SPI NOR flash (tens of MB/s, read-only at run time).
    QspiFlash,
    /// Octal-SPI flash (≈2× QSPI bandwidth).
    OctalFlash,
    /// External pseudo-SRAM over octal SPI or FMC.
    Psram,
    /// An idealised memory with zero transfer cost — models the
    /// "everything fits in SRAM" baseline.
    Ideal,
    /// Anything else; timing comes from the numeric fields.
    Custom,
}

impl std::fmt::Display for ExtMemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ExtMemKind::QspiFlash => "qspi-flash",
            ExtMemKind::OctalFlash => "octal-flash",
            ExtMemKind::Psram => "psram",
            ExtMemKind::Ideal => "ideal",
            ExtMemKind::Custom => "custom",
        };
        f.write_str(name)
    }
}

/// Transfer-cost model of the external weight memory.
///
/// A transfer of `n` bytes costs
/// `setup_cycles + ceil(n * cycles_per_byte_num / cycles_per_byte_den)`
/// cycles on an otherwise idle bus. The rational rate keeps the model
/// exact for non-integer cycles-per-byte (e.g. 200 MHz CPU with an
/// 80 MB/s memory is 2.5 cycles per byte).
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{ExtMemConfig, ExtMemKind, Frequency, Cycles};
///
/// let qspi = ExtMemConfig::from_bandwidth(
///     ExtMemKind::QspiFlash,
///     Frequency::mhz(200),
///     40_000_000, // 40 MB/s
///     Cycles::new(120),
/// );
/// // 1 KiB: 120 setup + 1024 * 5 cycles/byte.
/// assert_eq!(qspi.transfer_cycles(1024), Cycles::new(120 + 5 * 1024));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExtMemConfig {
    /// Memory technology label.
    pub kind: ExtMemKind,
    /// Fixed per-transfer latency: DMA channel programming, command
    /// phase, address phase, memory dead time.
    pub setup_cycles: Cycles,
    /// Numerator of the cycles-per-byte rational.
    pub cycles_per_byte_num: u64,
    /// Denominator of the cycles-per-byte rational.
    pub cycles_per_byte_den: u64,
}

impl ExtMemConfig {
    /// Builds a config from a sustained bandwidth in bytes per second at
    /// the given CPU frequency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_second` is zero.
    pub fn from_bandwidth(
        kind: ExtMemKind,
        cpu: Frequency,
        bytes_per_second: u64,
        setup_cycles: Cycles,
    ) -> Self {
        let (num, den) = cpu.cycles_per_byte_ratio(bytes_per_second);
        ExtMemConfig {
            kind,
            setup_cycles,
            cycles_per_byte_num: num,
            cycles_per_byte_den: den,
        }
    }

    /// The idealised zero-cost memory (the all-in-SRAM baseline).
    pub fn ideal() -> Self {
        ExtMemConfig {
            kind: ExtMemKind::Ideal,
            setup_cycles: Cycles::ZERO,
            cycles_per_byte_num: 0,
            cycles_per_byte_den: 1,
        }
    }

    /// Cycles to transfer `bytes` on an otherwise idle bus (no CPU
    /// contention), including the setup latency.
    pub fn transfer_cycles(&self, bytes: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let stream =
            Cycles::new(bytes).mul_ratio_ceil(self.cycles_per_byte_num, self.cycles_per_byte_den);
        self.setup_cycles + stream
    }

    /// Effective bandwidth in bytes per second at the given CPU
    /// frequency, ignoring setup (0 for the ideal memory means
    /// "infinite"; callers should special-case [`ExtMemKind::Ideal`]).
    pub fn bandwidth_bytes_per_second(&self, cpu: Frequency) -> u64 {
        if self.cycles_per_byte_num == 0 {
            return u64::MAX;
        }
        let wide = u128::from(cpu.as_hz()) * u128::from(self.cycles_per_byte_den)
            / u128::from(self.cycles_per_byte_num);
        u64::try_from(wide).unwrap_or(u64::MAX)
    }
}

/// Mutual slowdown of CPU compute and DMA traffic while both use the bus.
///
/// While a DMA transfer is in flight, each cycle of CPU work takes
/// `1 + cpu_inflation_ppm / 1e6` wall cycles, and symmetrically each DMA
/// streaming cycle takes `1 + dma_inflation_ppm / 1e6` wall cycles. The
/// factors are bounded at 1 000 000 ppm (a 2× slowdown) — beyond that the
/// shared-bus abstraction would be the wrong model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ContentionModel {
    /// Extra CPU time while DMA is active, in parts per million.
    pub cpu_inflation_ppm: u32,
    /// Extra DMA time while the CPU is computing, in parts per million.
    pub dma_inflation_ppm: u32,
}

impl ContentionModel {
    /// No contention: CPU and DMA are fully independent (e.g. weights
    /// stream into a dedicated SRAM bank over a private port).
    pub const NONE: ContentionModel = ContentionModel {
        cpu_inflation_ppm: 0,
        dma_inflation_ppm: 0,
    };

    /// A symmetric model where both masters pay the same inflation.
    pub fn symmetric(ppm: u32) -> Self {
        ContentionModel {
            cpu_inflation_ppm: ppm,
            dma_inflation_ppm: ppm,
        }
    }

    /// Worst-case inflated duration of `work` cycles of CPU compute,
    /// assuming DMA is active for the whole duration. Used by the
    /// schedulability analysis as a safe upper bound.
    pub fn inflate_cpu(&self, work: Cycles) -> Cycles {
        work.mul_ratio_ceil(PPM + u64::from(self.cpu_inflation_ppm), PPM)
    }

    /// Worst-case inflated duration of `work` cycles of DMA streaming,
    /// assuming the CPU computes for the whole duration.
    pub fn inflate_dma(&self, work: Cycles) -> Cycles {
        work.mul_ratio_ceil(PPM + u64::from(self.dma_inflation_ppm), PPM)
    }

    /// Solves the overlap of a compute phase of `compute` work-cycles and
    /// a DMA phase of `fetch` work-cycles that start at the same instant.
    ///
    /// While both are active each progresses at its inflated rate; once
    /// one finishes the other continues at full speed. Rounding is chosen
    /// conservatively (finish times round up, work completed rounds
    /// down), so the returned finish times never undercut a real
    /// interleaving with the same parameters.
    ///
    /// # Examples
    ///
    /// ```rust
    /// use rtmdm_mcusim::{ContentionModel, Cycles};
    ///
    /// // 10% mutual slowdown, equal work: both finish at 1.1×.
    /// let m = ContentionModel::symmetric(100_000);
    /// let out = m.overlap(Cycles::new(1000), Cycles::new(1000));
    /// assert_eq!(out.cpu_finish, Cycles::new(1100));
    /// assert_eq!(out.dma_finish, Cycles::new(1100));
    /// ```
    pub fn overlap(&self, compute: Cycles, fetch: Cycles) -> OverlapOutcome {
        let a = PPM + u64::from(self.cpu_inflation_ppm); // cpu cost per work unit (ppm)
        let b = PPM + u64::from(self.dma_inflation_ppm); // dma cost per work unit (ppm)

        if compute.is_zero() {
            return OverlapOutcome {
                cpu_finish: Cycles::ZERO,
                dma_finish: fetch,
            };
        }
        if fetch.is_zero() {
            return OverlapOutcome {
                cpu_finish: compute,
                dma_finish: Cycles::ZERO,
            };
        }

        // Finish times if contention lasted forever.
        let cpu_contended = compute.mul_ratio_ceil(a, PPM);
        let dma_contended = fetch.mul_ratio_ceil(b, PPM);

        if cpu_contended <= dma_contended {
            // CPU finishes first; DMA then continues at full speed.
            let cpu_finish = cpu_contended;
            // Work the DMA completed during the contended interval
            // (round down: conservative, leaves more residual work).
            let done = u128::from(cpu_finish.get()) * u128::from(PPM) / u128::from(b);
            let done = Cycles::new(u64::try_from(done).expect("overlap overflow"));
            let residual = fetch.saturating_sub(done);
            OverlapOutcome {
                cpu_finish,
                dma_finish: cpu_finish + residual,
            }
        } else {
            let dma_finish = dma_contended;
            let done = u128::from(dma_finish.get()) * u128::from(PPM) / u128::from(a);
            let done = Cycles::new(u64::try_from(done).expect("overlap overflow"));
            let residual = compute.saturating_sub(done);
            OverlapOutcome {
                cpu_finish: dma_finish + residual,
                dma_finish,
            }
        }
    }
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::NONE
    }
}

/// Finish times of an overlapped compute/fetch pair (see
/// [`ContentionModel::overlap`]). Both are offsets from the common start
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OverlapOutcome {
    /// When the compute phase retires its last work cycle.
    pub cpu_finish: Cycles,
    /// When the DMA phase streams its last byte.
    pub dma_finish: Cycles,
}

impl OverlapOutcome {
    /// The instant both phases are done — the pipeline-stage length.
    pub fn stage_finish(&self) -> Cycles {
        self.cpu_finish.max(self.dma_finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    #[test]
    fn transfer_cost_is_setup_plus_stream() {
        let m = ExtMemConfig::from_bandwidth(
            ExtMemKind::QspiFlash,
            Frequency::mhz(200),
            50_000_000,
            cy(100),
        );
        // 4 cycles/byte.
        assert_eq!(m.transfer_cycles(256), cy(100 + 1024));
        assert_eq!(m.transfer_cycles(0), Cycles::ZERO);
    }

    #[test]
    fn fractional_cycles_per_byte_round_up() {
        // 200 MHz / 80 MB/s = 2.5 cycles per byte.
        let m = ExtMemConfig::from_bandwidth(
            ExtMemKind::Psram,
            Frequency::mhz(200),
            80_000_000,
            Cycles::ZERO,
        );
        assert_eq!(m.transfer_cycles(2), cy(5));
        assert_eq!(m.transfer_cycles(3), cy(8)); // 7.5 → 8
    }

    #[test]
    fn ideal_memory_is_free() {
        let m = ExtMemConfig::ideal();
        assert_eq!(m.transfer_cycles(1 << 20), Cycles::ZERO);
        assert_eq!(m.bandwidth_bytes_per_second(Frequency::mhz(100)), u64::MAX);
    }

    #[test]
    fn bandwidth_round_trips() {
        let cpu = Frequency::mhz(200);
        let m = ExtMemConfig::from_bandwidth(ExtMemKind::QspiFlash, cpu, 40_000_000, Cycles::ZERO);
        assert_eq!(m.bandwidth_bytes_per_second(cpu), 40_000_000);
    }

    #[test]
    fn overlap_without_contention_is_elementwise() {
        let out = ContentionModel::NONE.overlap(cy(700), cy(300));
        assert_eq!(out.cpu_finish, cy(700));
        assert_eq!(out.dma_finish, cy(300));
        assert_eq!(out.stage_finish(), cy(700));
    }

    #[test]
    fn overlap_cpu_finishes_first_dma_speeds_up_after() {
        // 100% DMA inflation while CPU computes: DMA at half speed.
        let m = ContentionModel {
            cpu_inflation_ppm: 0,
            dma_inflation_ppm: 1_000_000,
        };
        // CPU: 100 cycles. DMA: 100 work cycles.
        // During [0,100): DMA completes 50. Residual 50 at full speed.
        let out = m.overlap(cy(100), cy(100));
        assert_eq!(out.cpu_finish, cy(100));
        assert_eq!(out.dma_finish, cy(150));
    }

    #[test]
    fn overlap_dma_finishes_first_cpu_speeds_up_after() {
        let m = ContentionModel {
            cpu_inflation_ppm: 1_000_000,
            dma_inflation_ppm: 0,
        };
        let out = m.overlap(cy(100), cy(100));
        assert_eq!(out.dma_finish, cy(100));
        assert_eq!(out.cpu_finish, cy(150));
    }

    #[test]
    fn overlap_zero_phases() {
        let m = ContentionModel::symmetric(250_000);
        let a = m.overlap(Cycles::ZERO, cy(40));
        assert_eq!(a.cpu_finish, Cycles::ZERO);
        assert_eq!(a.dma_finish, cy(40));
        let b = m.overlap(cy(40), Cycles::ZERO);
        assert_eq!(b.cpu_finish, cy(40));
        assert_eq!(b.dma_finish, Cycles::ZERO);
    }

    #[test]
    fn overlap_never_exceeds_fully_inflated_bounds() {
        // The analysis uses C*(1+ρc) and F*(1+ρd) as safe bounds; the
        // solver must stay within them.
        let m = ContentionModel {
            cpu_inflation_ppm: 300_000,
            dma_inflation_ppm: 450_000,
        };
        for &(c, f) in &[(1u64, 1u64), (10, 1000), (1000, 10), (12345, 6789)] {
            let out = m.overlap(cy(c), cy(f));
            assert!(out.cpu_finish <= m.inflate_cpu(cy(c)));
            assert!(out.dma_finish <= m.inflate_dma(cy(f)));
            assert!(out.cpu_finish >= cy(c));
            assert!(out.dma_finish >= cy(f));
        }
    }

    #[test]
    fn symmetric_equal_work_finishes_together() {
        let m = ContentionModel::symmetric(100_000);
        let out = m.overlap(cy(1000), cy(1000));
        assert_eq!(out.cpu_finish, out.dma_finish);
        assert_eq!(out.stage_finish(), cy(1100));
    }

    #[test]
    fn ext_mem_kind_display() {
        assert_eq!(ExtMemKind::QspiFlash.to_string(), "qspi-flash");
        assert_eq!(ExtMemKind::Ideal.to_string(), "ideal");
    }
}
