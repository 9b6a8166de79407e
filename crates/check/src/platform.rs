//! Platform sanity (`RTM040`).
//!
//! A thin adapter over [`PlatformConfig::validate`]: configuration
//! invariant violations (undersized SRAM, zero external-memory
//! bandwidth, out-of-range contention inflation) become a single `RTM040` diagnostic so they render and filter like
//! every other rule instead of aborting the pipeline with a bare
//! `Result`.

use rtmdm_mcusim::PlatformConfig;

use crate::diag::{Finding, Rule};

/// The platform pass: maps configuration invariant violations to
/// `RTM040`.
pub fn check_platform(platform: &PlatformConfig) -> Vec<Finding> {
    match platform.validate() {
        Ok(()) => Vec::new(),
        Err(err) => vec![Finding::new(Rule::Rtm040, err.to_string())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for preset in PlatformConfig::presets() {
            assert!(check_platform(&preset).is_empty(), "{}", preset.name);
        }
    }

    #[test]
    fn rtm040_fires_once_on_an_undersized_sram() {
        let platform = PlatformConfig {
            sram_bytes: 1024,
            ..PlatformConfig::stm32f746_qspi()
        };
        let hits = check_platform(&platform);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, Rule::Rtm040);
        assert!(hits[0].message.contains("sram"));
    }
}
