//! Content-addressed keys for analysis sub-problems.
//!
//! The admission service memoizes whole answers and spec lowerings
//! across a fleet of near-duplicate queries under [`canonical_key`].
//! [`analysis_key`] names one RTA sub-problem; the service no longer
//! caches those, but the repository benchmark still keys on it. Cache
//! keys must be **canonical**: two sub-problems that would produce the
//! same answer must map to the same key, and any observable difference
//! in the inputs must change it. The key is the canonical JSON rendering
//! of every input the answer depends on (the vendored serializer writes
//! struct fields in declaration order and maps in insertion order, so
//! equal values always render to equal bytes), prefixed with a schema
//! tag so keys from different sub-problem kinds (or future layout
//! revisions) can never collide. An input that a short name identifies
//! exactly may be keyed by that name instead of its full rendering: the
//! admission service keys zoo models by name, never by their weight
//! bytes, which no analysis reads.
//!
//! Keys are compared by full string equality — content addressing
//! without a hash function, so there are no collision classes to
//! reason about. Deriving `Hash` on the task/platform types would give
//! a 64-bit digest instead; at fleet scale (`≥100k` queries) a silent
//! collision would cross-wire two admission verdicts, which is exactly
//! the kind of failure a verifier must not have.

use rtmdm_mcusim::PlatformConfig;
use serde::{Content, Serialize};

use crate::analysis::rta::SchedulerMode;
use crate::task::TaskSet;

/// Version tag baked into every key produced by [`analysis_key`] /
/// [`canonical_key`]. Bump when the serialized layout of any keyed
/// type changes so stale persisted keys can never alias fresh ones.
pub const KEY_SCHEMA: &str = "rtmdm-key/1";

/// Canonical key of one RTA sub-problem: the priority-ordered task set,
/// the platform, and the dispatch discipline. Two calls agree exactly
/// when `rta_limited_preemption_with(ts, platform, mode)` is the same
/// computation.
pub fn analysis_key(ts: &TaskSet, platform: &PlatformConfig, mode: SchedulerMode) -> String {
    // The vendored derive does not support lifetime-generic structs, so
    // the key document is assembled as a `Content` map directly; field
    // order is fixed here, which is all canonicalization needs.
    let doc = Content::Map(vec![
        ("mode".to_owned(), mode.to_content()),
        ("platform".to_owned(), platform.to_content()),
        ("tasks".to_owned(), ts.to_content()),
    ]);
    canonical_key("rta", &doc)
}

/// Canonical key of an arbitrary serializable sub-problem, namespaced
/// by `kind` (e.g. `"lower"`, `"check"`, `"headroom"`). The rendering
/// is the vendored serializer's canonical JSON; equal values produce
/// equal keys and distinct kinds can never collide (the kind is length
/// prefixed into the header, so no concatenation ambiguity exists).
pub fn canonical_key<T: Serialize>(kind: &str, value: &T) -> String {
    let body = serde_json::to_string(value).expect("canonical key serialization is infallible");
    format!("{KEY_SCHEMA}:{}:{kind}:{body}", kind.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Segment, SporadicTask, StagingMode};
    use rtmdm_mcusim::Cycles;

    fn resident(name: &str, period: u64, compute: u64) -> SporadicTask {
        SporadicTask::new(
            name,
            Cycles::new(period),
            Cycles::new(period),
            vec![Segment::new(Cycles::new(compute), 0)],
            StagingMode::Resident,
        )
        .expect("valid")
    }

    #[test]
    fn equal_subproblems_share_a_key() {
        let a = TaskSet::from_tasks(vec![resident("t", 100, 10)]);
        let b = TaskSet::from_tasks(vec![resident("t", 100, 10)]);
        let p = PlatformConfig::stm32f746_qspi();
        assert_eq!(
            analysis_key(&a, &p, SchedulerMode::Gated),
            analysis_key(&b, &p, SchedulerMode::Gated)
        );
    }

    #[test]
    fn every_input_dimension_changes_the_key() {
        let ts = TaskSet::from_tasks(vec![resident("t", 100, 10)]);
        let p = PlatformConfig::stm32f746_qspi();
        let base = analysis_key(&ts, &p, SchedulerMode::Gated);
        // Mode.
        assert_ne!(base, analysis_key(&ts, &p, SchedulerMode::WorkConserving));
        // Task content.
        let heavier = TaskSet::from_tasks(vec![resident("t", 100, 11)]);
        assert_ne!(base, analysis_key(&heavier, &p, SchedulerMode::Gated));
        // Task order (priority order is semantic for RTA).
        let two = TaskSet::from_tasks(vec![resident("a", 100, 10), resident("b", 200, 10)]);
        let swapped = TaskSet::from_tasks(vec![resident("b", 200, 10), resident("a", 100, 10)]);
        assert_ne!(
            analysis_key(&two, &p, SchedulerMode::Gated),
            analysis_key(&swapped, &p, SchedulerMode::Gated)
        );
        // Platform.
        let other = PlatformConfig::ideal_sram();
        assert_ne!(base, analysis_key(&ts, &other, SchedulerMode::Gated));
    }

    #[test]
    fn kinds_are_namespaced_without_concatenation_ambiguity() {
        // ("ab", "c"-keyed value) vs ("a", "bc"-keyed value) style
        // collisions are ruled out by the length prefix.
        assert_ne!(canonical_key("ab", &1u64), canonical_key("a", &1u64));
        assert!(canonical_key("rta", &1u64).starts_with("rtmdm-key/1:3:rta:"));
    }
}
