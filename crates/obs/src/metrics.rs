//! Dependency-free metrics: monotonic counters and fixed-bucket log₂
//! histograms, recorded into one process-wide registry ([`global`]).
//!
//! The registry serves instrumentation points that cannot thread state
//! through (the simulator flushes per-run totals here, the DNN engine
//! counts inferences, the explorer its searches). Disabled (the
//! default) a record call costs one relaxed atomic load; all recorded
//! quantities are sums, so totals are identical for any worker-thread
//! count or interleaving.
//!
//! [`Histogram`] is the workspace's one log₂ histogram type: the
//! simulator keeps one per task for response times and flushes it here
//! with [`GlobalRegistry::merge`].
//!
//! Snapshots ([`Snapshot`]) are plain serializable data: experiments
//! diff them to attribute counts, and `run_all` embeds them in
//! `BENCH_run_all.json`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Number of buckets in a [`Histogram`]: one per bit of `u64`, so every
/// representable value has its own bucket and
/// [`Histogram::percentile_upper`] is an upper bound unconditionally.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket logarithmic histogram: bucket `k` counts values in
/// `[2^k, 2^(k+1))`; bucket 0 covers `0..2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation in bucket
    /// `floor(log2(max(value, 1)))`, always in `0..HISTOGRAM_BUCKETS`.
    pub fn record(&mut self, value: u64) {
        self.buckets[64 - value.max(1).leading_zeros() as usize - 1] += 1;
    }

    /// Adds another histogram's counts bucket-wise (exact merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Number of recorded observations, saturating at `u64::MAX`.
    /// Merged histograms (fleet-wide telemetry) can hold more than
    /// `u64::MAX` samples in total; the saturation only affects this
    /// accessor — [`Histogram::percentile_upper`] ranks in `u128` and
    /// stays exact regardless.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// An upper bound on the `pct`-th percentile observation (the
    /// inclusive top of the bucket containing it). Returns `None` when
    /// the histogram is empty, and for `pct == 0`: the 0th percentile
    /// bounds an empty prefix of the samples, so it has no witness
    /// bucket — answering the minimum would silently alias it to
    /// `pct == 1`.
    ///
    /// All rank arithmetic is `u128` end to end: both `total * pct`
    /// and the bucket sum itself can overflow `u64` on merged
    /// long-horizon histograms.
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    pub fn percentile_upper(&self, pct: u64) -> Option<u64> {
        assert!(pct <= 100, "percentile must be at most 100");
        if pct == 0 {
            return None;
        }
        let total: u128 = self.buckets.iter().map(|&c| u128::from(c)).sum();
        if total == 0 {
            return None;
        }
        let target = (total * u128::from(pct)).div_ceil(100);
        let mut seen: u128 = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += u128::from(c);
            if seen >= target {
                // Top of bucket k is 2^(k+1) − 1; the last bucket's top
                // is u64::MAX exactly.
                return Some(2u64.checked_pow(k as u32 + 1).map_or(u64::MAX, |p| p - 1));
            }
        }
        // 1 ≤ pct ≤ 100 gives 0 < target ≤ total, and `seen` reaches
        // `total` exactly on the last bucket.
        unreachable!("percentile rank exceeds histogram total")
    }
}

/// A point-in-time, serializable copy of the registry's contents.
///
/// Names are free-form dotted strings (`"sim.cpu_busy_cycles"`).
/// Snapshots support exact diffing ([`Snapshot::counter_delta`]) so the
/// benchmark harness can attribute counter growth to individual
/// experiments.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotonic counter totals, by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels, by name. Nothing records gauges; the map stays in
    /// the serialized layout of `BENCH_run_all.json`.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram contents, by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Value of the counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Growth of the counter `name` since `earlier` (saturating).
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }
}

/// The process-wide registry (see [`global`]).
///
/// Record calls are no-ops until [`GlobalRegistry::enable`] is called;
/// the disabled fast path is a single relaxed atomic load. Enabled, each
/// call takes a short mutex — instrumentation sites are expected to
/// batch (the simulator flushes one set of totals per run, not per
/// event), so the lock is not on any hot path.
#[derive(Debug, Default)]
pub struct GlobalRegistry {
    enabled: AtomicBool,
    inner: Mutex<Snapshot>,
}

impl GlobalRegistry {
    /// Turns recording on or off. Counts recorded so far are kept.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `record` on the registry contents while recording is on.
    fn record(&self, record: impl FnOnce(&mut Snapshot)) {
        if self.is_enabled() {
            record(&mut self.inner.lock().expect("metrics registry poisoned"));
        }
    }

    /// Adds `delta` to the counter `name` (created at zero on first
    /// use). No-op while disabled.
    pub fn add(&self, name: &str, delta: u64) {
        self.record(|s| match s.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                s.counters.insert(name.to_owned(), delta);
            }
        });
    }

    /// Merges `hist` bucket-wise into the histogram `name` (exact; the
    /// simulator flushes its per-task response histograms here). No-op
    /// while disabled.
    pub fn merge(&self, name: &str, hist: &Histogram) {
        self.record(|s| s.histograms.entry(name.to_owned()).or_default().merge(hist));
    }

    /// A copy of everything recorded so far (works while disabled too).
    pub fn snapshot(&self) -> Snapshot {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .clone()
    }

    /// Clears every recorded value, keeping the enabled state.
    pub fn reset(&self) {
        *self.inner.lock().expect("metrics registry poisoned") = Snapshot::default();
    }
}

/// The process-wide registry. Disabled by default; `run_all` and other
/// telemetry consumers call `global().enable(true)` up front.
pub fn global() -> &'static GlobalRegistry {
    static GLOBAL: OnceLock<GlobalRegistry> = OnceLock::new();
    GLOBAL.get_or_init(GlobalRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(30); // bucket [16, 32)
        }
        h.record(1_000); // bucket [512, 1024)
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile_upper(50), Some(31));
        assert_eq!(h.percentile_upper(100), Some(1023));
        assert_eq!(Histogram::new().percentile_upper(95), None);
    }

    #[test]
    fn histogram_resolves_values_beyond_the_old_saturation_boundary() {
        // Regression: 32 buckets clamped everything ≥ 2^32 into bucket
        // 31, making percentile_upper report 2^32 − 1 for arbitrarily
        // large values — below the recorded observation.
        let mut h = Histogram::new();
        h.record(1u64 << 32);
        assert_eq!(h.percentile_upper(100), Some((1u64 << 33) - 1));
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.percentile_upper(100), Some(u64::MAX));
    }

    #[test]
    fn percentile_rank_survives_huge_counts() {
        // Regression: `total * pct` used to be computed in u64, which
        // overflows once count() exceeds u64::MAX / 100. Populate two
        // buckets whose total sits just under u64::MAX and check both
        // percentile halves resolve to the right bucket tops.
        let mut h = Histogram::new();
        h.buckets[4] = u64::MAX / 100 * 49; // values in [16, 32)
        h.buckets[9] = u64::MAX / 100 * 50; // values in [512, 1024)
        assert!(h.count() > u64::MAX / 100);
        assert_eq!(h.percentile_upper(25), Some(31));
        assert_eq!(h.percentile_upper(100), Some(1023));
        // The 50th percentile falls in the upper bucket (49% below it).
        assert_eq!(h.percentile_upper(50), Some(1023));
    }

    #[test]
    fn percentile_stays_exact_when_count_saturates() {
        // Two full buckets: the true total (2·u64::MAX) overflows u64,
        // so `count()` saturates — but the rank walk is u128 and still
        // resolves each half to the right bucket top.
        let mut h = Histogram::new();
        h.buckets[3] = u64::MAX; // values in [8, 16)
        h.buckets[10] = u64::MAX; // values in [1024, 2048)
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.percentile_upper(50), Some(15));
        assert_eq!(h.percentile_upper(51), Some(2047));
        assert_eq!(h.percentile_upper(100), Some(2047));
    }

    #[test]
    fn percentile_zero_has_no_witness() {
        let mut h = Histogram::new();
        h.record(30);
        assert_eq!(h.percentile_upper(0), None);
        assert_eq!(Histogram::new().percentile_upper(0), None);
    }

    #[test]
    #[should_panic(expected = "percentile must be at most 100")]
    fn percentile_above_100_panics() {
        let mut h = Histogram::new();
        h.record(30);
        let _ = h.percentile_upper(101);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(5);
        b.record(700);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[2], 2);
        assert_eq!(a.buckets()[9], 1);
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let mut snap = Snapshot::default();
        snap.counters.insert("sim.runs".to_owned(), 3);
        snap.gauges.insert("workers".to_owned(), 8);
        snap.histograms
            .entry("lat".to_owned())
            .or_default()
            .record(250);
        assert_eq!(snap.counter("sim.runs"), 3);
        assert_eq!(snap.counter("missing"), 0);
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: Snapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn global_registry_is_gated_by_enable() {
        // Note: the global registry is shared across the test binary;
        // use unique names and restore the disabled state.
        let g = global();
        let mut hist = Histogram::new();
        hist.record(700);
        g.add("test.gated", 5);
        g.merge("test.merged", &hist);
        let off = g.snapshot();
        assert_eq!(off.counter("test.gated"), 0);
        assert!(!off.histograms.contains_key("test.merged"));
        g.enable(true);
        g.add("test.gated", 2);
        g.add("test.gated", 3);
        let mid = g.snapshot();
        g.add("test.gated", 10);
        g.merge("test.merged", &hist);
        g.merge("test.merged", &hist);
        let on = g.snapshot();
        assert_eq!(mid.counter("test.gated"), 5);
        assert_eq!(on.counter_delta(&mid, "test.gated"), 10);
        assert_eq!(on.histograms["test.merged"].buckets()[9], 2);
        g.enable(false);
        g.add("test.gated", 5);
        assert_eq!(g.snapshot().counter("test.gated"), 15);
    }
}
