//! Platform configurations: the MCU the framework runs on.

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::time::{Cycles, Frequency};
use crate::xbus::{ContentionModel, ExtMemConfig, ExtMemKind};

/// Minimum SRAM any platform must offer (enough for one tiny buffer).
const MIN_SRAM_BYTES: u64 = 4 * 1024;
/// Maximum supported inflation factor (2× slowdown).
const MAX_INFLATION_PPM: u32 = 1_000_000;

/// Complete description of the simulated MCU platform.
///
/// A `PlatformConfig` bundles everything timing-relevant: CPU clock, SRAM
/// budget, external-memory transfer costs, bus-contention factors, and
/// scheduler overheads. Start from a preset
/// (e.g. [`PlatformConfig::stm32f746_qspi`]) and override fields with
/// struct update, then [`validate`](PlatformConfig::validate) the result.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::PlatformConfig;
///
/// # fn main() -> Result<(), rtmdm_mcusim::ConfigError> {
/// let p = PlatformConfig {
///     sram_bytes: 256 * 1024,
///     ..PlatformConfig::stm32f746_qspi()
/// };
/// p.validate()?;
/// assert_eq!(p.sram_bytes, 256 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Human-readable preset name (appears in result tables).
    pub name: String,
    /// CPU clock.
    pub cpu: Frequency,
    /// On-chip SRAM available to the framework, in bytes.
    pub sram_bytes: u64,
    /// External weight memory.
    pub ext_mem: ExtMemConfig,
    /// CPU/DMA mutual slowdown while overlapped.
    pub contention: ContentionModel,
    /// Scheduler context-switch overhead charged at every segment
    /// boundary where the running task changes.
    pub context_switch_cycles: Cycles,
}

impl PlatformConfig {
    /// STM32F746-class board: 200 MHz Cortex-M7, 320 KiB SRAM, weights in
    /// QSPI NOR flash at ≈40 MB/s, moderate bus contention.
    ///
    /// This is the default evaluation platform of the reproduction.
    pub fn stm32f746_qspi() -> Self {
        let cpu = Frequency::mhz(200);
        PlatformConfig {
            name: "stm32f746-qspi".to_owned(),
            cpu,
            sram_bytes: 320 * 1024,
            ext_mem: ExtMemConfig::from_bandwidth(
                ExtMemKind::QspiFlash,
                cpu,
                40_000_000,
                Cycles::new(120),
            ),
            contention: ContentionModel {
                cpu_inflation_ppm: 150_000, // 15% CPU slowdown under DMA traffic
                dma_inflation_ppm: 100_000, // 10% DMA slowdown under CPU traffic
            },
            context_switch_cycles: Cycles::new(400),
        }
    }

    /// STM32H743-class board: 400 MHz Cortex-M7, 1 MiB SRAM, octal-SPI
    /// PSRAM at ≈200 MB/s, light contention (separate AXI masters).
    pub fn stm32h743_ospi() -> Self {
        let cpu = Frequency::mhz(400);
        PlatformConfig {
            name: "stm32h743-ospi".to_owned(),
            cpu,
            sram_bytes: 1024 * 1024,
            ext_mem: ExtMemConfig::from_bandwidth(
                ExtMemKind::Psram,
                cpu,
                200_000_000,
                Cycles::new(80),
            ),
            contention: ContentionModel {
                cpu_inflation_ppm: 80_000,
                dma_inflation_ppm: 50_000,
            },
            context_switch_cycles: Cycles::new(300),
        }
    }

    /// Low-end Cortex-M4 board: 80 MHz, 128 KiB SRAM, slow QSPI flash at
    /// ≈16 MB/s, heavy contention (single AHB bus).
    pub fn cortex_m4_lowend() -> Self {
        let cpu = Frequency::mhz(80);
        PlatformConfig {
            name: "cortex-m4-lowend".to_owned(),
            cpu,
            sram_bytes: 128 * 1024,
            ext_mem: ExtMemConfig::from_bandwidth(
                ExtMemKind::QspiFlash,
                cpu,
                16_000_000,
                Cycles::new(160),
            ),
            contention: ContentionModel {
                cpu_inflation_ppm: 300_000,
                dma_inflation_ppm: 200_000,
            },
            context_switch_cycles: Cycles::new(500),
        }
    }

    /// The "all weights resident in SRAM" idealisation: identical CPU to
    /// [`PlatformConfig::stm32f746_qspi`] but with a free external memory.
    /// Used as the upper-bound baseline (B3).
    pub fn ideal_sram() -> Self {
        let mut p = PlatformConfig::stm32f746_qspi();
        p.name = "ideal-sram".to_owned();
        p.ext_mem = ExtMemConfig::ideal();
        p.contention = ContentionModel::NONE;
        p
    }

    /// All built-in presets, for sweeps and tables.
    pub fn presets() -> Vec<PlatformConfig> {
        vec![
            PlatformConfig::cortex_m4_lowend(),
            PlatformConfig::stm32f746_qspi(),
            PlatformConfig::stm32h743_ospi(),
            PlatformConfig::ideal_sram(),
        ]
    }

    /// The built-in preset named `name`.
    pub fn preset(name: &str) -> Option<PlatformConfig> {
        PlatformConfig::presets()
            .into_iter()
            .find(|p| p.name == name)
    }

    /// Checks configuration invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the SRAM is too small, the
    /// external-memory rate has a zero denominator, or an inflation
    /// factor exceeds 1 000 000 ppm.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sram_bytes < MIN_SRAM_BYTES {
            return Err(ConfigError::SramTooSmall {
                bytes: self.sram_bytes,
            });
        }
        if self.ext_mem.cycles_per_byte_den == 0 {
            return Err(ConfigError::ZeroBandwidth);
        }
        for ppm in [
            self.contention.cpu_inflation_ppm,
            self.contention.dma_inflation_ppm,
        ] {
            if ppm > MAX_INFLATION_PPM {
                return Err(ConfigError::InflationOutOfRange { ppm });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for p in PlatformConfig::presets() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn presets_are_found_by_name() {
        for p in PlatformConfig::presets() {
            assert_eq!(PlatformConfig::preset(&p.name), Some(p));
        }
        assert_eq!(PlatformConfig::preset("zx81"), None);
    }

    #[test]
    fn tiny_sram_is_rejected() {
        let p = PlatformConfig {
            sram_bytes: 1024,
            ..PlatformConfig::stm32f746_qspi()
        };
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ConfigError::SramTooSmall { bytes: 1024 }));
    }

    #[test]
    fn excessive_inflation_is_rejected() {
        let p = PlatformConfig {
            contention: ContentionModel::symmetric(1_500_000),
            ..PlatformConfig::stm32f746_qspi()
        };
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ConfigError::InflationOutOfRange { .. }));
    }

    #[test]
    fn ideal_platform_has_free_ext_mem() {
        let p = PlatformConfig::ideal_sram();
        assert_eq!(p.ext_mem.transfer_cycles(1 << 20), Cycles::ZERO);
        assert_eq!(p.contention, ContentionModel::NONE);
    }

    #[test]
    fn f746_qspi_costs_are_sensible() {
        let p = PlatformConfig::stm32f746_qspi();
        // 40 MB/s at 200 MHz = 5 cycles/byte; 32 KiB ≈ 164k cycles ≈ 820 µs.
        let t = p.ext_mem.transfer_cycles(32 * 1024);
        assert_eq!(t, Cycles::new(120 + 5 * 32 * 1024));
    }
}
