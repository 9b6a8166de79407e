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
//! Only parsing is fuzzed. Replaying a damaged witness that still
//! parses can run for as long as its period and horizon say: nothing
//! caps them.
//!
//! Two directed tests pin the loader's contract on the golden witness:
//! a key that names no field is ignored, so a file written before a
//! field was retired still loads and replays, and a missing field is
//! an error that names it.

use std::sync::OnceLock;

use proptest::prelude::*;

use rt_mdm::check::Witness;
use rt_mdm::core::{ExploreLimits, SystemSpec, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::{PlatformConfig, TraceKind};

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

const GOLDEN: &str = include_str!("golden_witness.json");

/// The golden witness with `from` replaced by `to` in its config.
fn edited_golden(from: &str, to: &str) -> String {
    assert_eq!(GOLDEN.matches(from).count(), 1, "`{from}` is not unique");
    GOLDEN.replace(from, to)
}

/// `(task, job, instant)` of the first deadline miss of `w`'s replay.
fn replayed_miss(w: &Witness) -> (usize, u64, u64) {
    w.replay()
        .trace
        .events()
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::DeadlineMissed { task, job } => Some((task.0, job.0, e.time.get())),
            _ => None,
        })
        .expect("the replay misses a deadline")
}

#[test]
fn unknown_config_key_is_ignored_and_the_witness_still_replays() {
    let golden = parse(GOLDEN.as_bytes()).expect("golden witness parses");
    let extended = edited_golden(
        "\"config\":{",
        "\"config\":{\"retired_field\":{\"any\":[\"value\",1]},",
    );
    let w = parse(extended.as_bytes()).expect("an unknown config key is ignored");
    assert_eq!(w.config, golden.config);
    assert_eq!(
        (w.rule.as_str(), w.task, w.job, w.at),
        ("RTM050", 1, 0, 20_000_000)
    );
    let miss = replayed_miss(&w);
    assert_eq!(miss, (w.task, w.job, w.at));
    assert_eq!(miss, replayed_miss(&golden));
}

#[test]
fn missing_config_field_is_rejected_by_name() {
    let truncated = edited_golden(",\"staging_window\":2", "");
    let err = parse(truncated.as_bytes()).expect_err("every field is required");
    assert!(
        err.to_string().contains("missing field `staging_window`"),
        "unexpected error: {err}"
    );
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
