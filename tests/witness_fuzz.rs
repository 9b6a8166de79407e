//! Loading a damaged witness file never panics.
//!
//! `rtmdm check --explore --witness PATH` writes a `rtmdm-witness/1`
//! JSON file, and a user may hand any file back to the loader. This
//! property feeds `serde_json::from_str::<Witness>` three kinds of
//! input — arbitrary bytes, truncations of a real witness file, and
//! one-byte replacements of it — and asserts that parsing returns
//! (`Ok` or `Err`) instead of panicking. The undamaged file must
//! round-trip byte-identically.
//!
//! Only parsing is exercised. Replaying a damaged witness that still
//! parses can run for as long as its period and horizon say: nothing
//! caps them.

use std::sync::OnceLock;

use proptest::prelude::*;

use rt_mdm::check::Witness;
use rt_mdm::core::{ExploreLimits, SystemSpec, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::PlatformConfig;

/// The witness file `rtmdm check --platform stm32f746-qspi --task
/// kws=ds-cnn@30 --task ic=resnet8@100 --explore --jitter 20
/// --fault-rate 20000 --fault-retries 1` writes. Its script holds all
/// three choice kinds: release jitter, execution scale and transfer
/// faults.
fn witness_file() -> &'static str {
    static FILE: OnceLock<String> = OnceLock::new();
    FILE.get_or_init(|| {
        let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
        spec.options.fault.dma_fault_rate_ppm = 20_000;
        spec.options.fault.max_retries = 1;
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 30_000, 30_000));
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 100_000, 100_000));
        let outcome = spec.explore(&ExploreLimits::default(), 800_000);
        let w = outcome
            .witness
            .expect("the overloaded pair yields a witness");
        serde_json::to_string(&w).expect("witness serializes")
    })
}

/// Parses `bytes` as a witness; a panic inside fails the property.
fn parse(bytes: &[u8]) -> Result<Witness, serde_json::Error> {
    serde_json::from_str::<Witness>(&String::from_utf8_lossy(bytes))
}

#[test]
fn undamaged_witness_round_trips_byte_identically() {
    let file = witness_file();
    let back = parse(file.as_bytes()).expect("witness parses");
    assert_eq!(
        serde_json::to_string(&back).expect("witness serializes"),
        file
    );
    let script = serde_json::to_string(&back.script).expect("script serializes");
    for kind in ["ReleaseJitter", "ExecScale", "TransferFault"] {
        assert!(script.contains(kind), "the script lacks a {kind} choice");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000),
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_bytes_never_panic_the_loader(
        bytes in proptest::collection::vec(0u8..=255, 0..513),
    ) {
        let _ = parse(&bytes);
    }

    #[test]
    fn truncated_witness_never_panics_the_loader(cut in 0usize..usize::MAX) {
        let file = witness_file().as_bytes();
        // Every strict prefix is an unterminated JSON value.
        prop_assert!(parse(&file[..cut % file.len()]).is_err());
    }

    #[test]
    fn one_byte_replacement_never_panics_the_loader(
        at in 0usize..usize::MAX,
        byte in 0u8..=255,
        copy_from in proptest::option::of(0usize..usize::MAX),
    ) {
        let mut file = witness_file().as_bytes().to_vec();
        let len = file.len();
        // Half the replacements copy a byte from elsewhere in the file,
        // so the damage keeps to JSON's own alphabet.
        file[at % len] = copy_from.map_or(byte, |from| file[from % len]);
        let _ = parse(&file);
    }
}
