//! Pieces every workload shares: the seeded generator, the host probe
//! that scales latencies to a reference host, the stage ledger of the
//! traced run, the per-round accumulator and the summary statistics.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// A generator for an independent sub-stream (`seed`, `stream`).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A fixed piece of work that shares no code with the program under
/// test and allocates nothing after construction: hashing, probing,
/// sorting and searching over a 768 KiB working set. Its time tells how
/// fast the host runs ordinary code at the moment.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

impl Calibration {
    const KEYS: usize = 16_384;
    const SLOTS: usize = 65_536;

    pub fn new() -> Calibration {
        Calibration {
            table: vec![0; Self::SLOTS],
            keys: vec![0; Self::KEYS],
            sorted: vec![0; Self::KEYS],
        }
    }

    /// Runs the work once and returns its checksum, which never changes.
    pub fn run(&mut self) -> u64 {
        let mut rng = Rng::new(0xCA11);
        for k in self.keys.iter_mut() {
            *k = rng.next_u64() | 1;
        }
        self.table.fill(0);
        let mask = Self::SLOTS - 1;
        for &k in &self.keys {
            let mut slot = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = k;
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut sum = 0u64;
        for &k in &self.keys {
            let i = self.sorted.binary_search(&k).unwrap_or(0);
            sum = sum.wrapping_add(i as u64 ^ k);
        }
        sum
    }
}

/// Calibration time that defines the reference host (host factor 1).
pub const REFERENCE_CALIBRATION_NS: f64 = 1_000_000.0;

/// Nanoseconds of timed operations between two measurements of the host.
const PROBE_EVERY_NS: u64 = 10_000_000;

/// Tracks how fast the host runs, by timing [`Calibration`] between
/// operations, so each operation's latency can be scaled to the
/// reference host: a latency divided by the host factor of its moment is
/// the latency on a host where the calibration takes exactly
/// [`REFERENCE_CALIBRATION_NS`].
#[derive(Debug)]
pub struct HostProbe {
    cal: Calibration,
    /// Calibration time over the reference at the last measurement.
    factor: f64,
    /// Operation nanoseconds since the last measurement.
    since_ns: u64,
    /// Every factor measured, in order.
    pub factors: Vec<f64>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut p = HostProbe {
            cal: Calibration::new(),
            factor: 1.0,
            since_ns: 0,
            factors: Vec::new(),
        };
        p.measure();
        p
    }

    /// Measures the host now: the faster of two calibration runs (one
    /// interrupt cannot inflate it), over the reference.
    pub fn measure(&mut self) -> f64 {
        let best = (0..2)
            .map(|_| timed(|| std::hint::black_box(self.cal.run())).1)
            .min()
            .expect("two runs");
        self.factor = best as f64 / REFERENCE_CALIBRATION_NS;
        self.since_ns = 0;
        self.factors.push(self.factor);
        self.factor
    }

    /// The host factor for an operation that just took `ns`: the last
    /// measurement before it, averaged with one right after it when a
    /// measurement is due.
    pub fn factor_for(&mut self, ns: u64) -> f64 {
        let before = self.factor;
        self.since_ns += ns;
        if self.since_ns < PROBE_EVERY_NS {
            return before;
        }
        (before + self.measure()) / 2.0
    }
}

/// Wall time of `f`, in nanoseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Per-stage call counts and nanoseconds of the traced run. Each entry
/// times one public call into a layer, made from the benchmark itself.
#[derive(Debug, Default)]
pub struct Ledger {
    stages: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    /// Times `f` as one call of `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ns) = timed(f);
        self.add(stage, 1, ns);
        out
    }

    pub fn add(&mut self, stage: &'static str, calls: u64, ns: u64) {
        let e = self.stages.entry(stage).or_default();
        e.0 += calls;
        e.1 += ns;
    }

    pub fn calls(&self, stage: &str) -> u64 {
        self.stages.get(stage).map_or(0, |e| e.0)
    }

    pub fn ns(&self, stage: &str) -> u64 {
        self.stages.get(stage).map_or(0, |e| e.1)
    }

    /// Total nanoseconds over every stage: the timed intervals are
    /// disjoint, so this is the part of the traced wall the stages
    /// explain.
    pub fn total_ns(&self) -> u64 {
        self.stages.values().map(|e| e.1).sum()
    }
}

/// What one round of a workload did.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-operation `(input key, latency in ns)`: operations on the
    /// same input (a request, configuration, cell or set) share a key.
    /// With a probe, latencies are scaled to the reference host.
    pub latencies: Vec<(u64, f64)>,
    /// Operations attempted and operations whose output check failed.
    pub attempted: u64,
    pub failed: u64,
    /// Host probe for the round; `None` records wall times as they are.
    pub probe: Option<HostProbe>,
}

impl Round {
    /// Records one timed operation on input `key`.
    pub fn op(&mut self, key: u64, ns: u64) {
        let factor = self.probe.as_mut().map_or(1.0, |p| p.factor_for(ns));
        self.latencies.push((key, ns as f64 / factor));
    }

    /// Records one check outcome; a failure is printed to stderr so a
    /// broken run says what broke.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_streams_differ() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut s0 = Rng::stream(7, 0);
        let mut s1 = Rng::stream(7, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn calibration_repeats_and_rounds_scale_by_the_probe() {
        let mut cal = Calibration::new();
        assert_eq!(cal.run(), cal.run());
        let mut r = Round::default();
        r.op(1, 5_000);
        assert_eq!(r.latencies, vec![(1, 5_000.0)], "no probe: wall time");
        let mut probe = HostProbe::new();
        let factor = probe.measure();
        assert!(factor > 0.0);
        r.probe = Some(probe);
        r.op(2, 5_000);
        assert_eq!(r.latencies[1], (2, 5_000.0 / factor));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
