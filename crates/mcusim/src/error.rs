//! Error types for platform configuration.

use std::error::Error;
use std::fmt;

/// An invalid platform configuration was supplied.
///
/// Returned by [`PlatformConfig::validate`](crate::PlatformConfig::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// SRAM size is zero or too small to hold any fetch buffer.
    SramTooSmall {
        /// Configured SRAM size in bytes.
        bytes: u64,
    },
    /// The external-memory transfer-cost rational has a zero denominator.
    ZeroBandwidth,
    /// A contention inflation factor exceeds the supported maximum
    /// (1 000 000 ppm, i.e. a 2× slowdown).
    InflationOutOfRange {
        /// The offending value in parts per million.
        ppm: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SramTooSmall { bytes } => {
                write!(f, "sram of {bytes} bytes is too small for any fetch buffer")
            }
            ConfigError::ZeroBandwidth => {
                write!(f, "external memory bandwidth rational has zero denominator")
            }
            ConfigError::InflationOutOfRange { ppm } => {
                write!(f, "contention inflation of {ppm} ppm exceeds 1000000 ppm")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msgs = [
            ConfigError::SramTooSmall { bytes: 16 }.to_string(),
            ConfigError::ZeroBandwidth.to_string(),
            ConfigError::InflationOutOfRange { ppm: 2_000_000 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<ConfigError>();
    }
}
