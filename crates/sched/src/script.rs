//! Choice-scripted stepping: the simulator's nondeterminism surfaced
//! as an explicit oracle interface.
//!
//! A default [`simulate`](crate::sim::simulate) run resolves its three
//! sources of nondeterminism internally — per-job execution-time scales
//! from the seeded RNG, release jitter fixed at zero, and per-transfer
//! fault decisions from the [`FaultInjector`](rtmdm_mcusim::FaultInjector).
//! [`simulate_with_oracle`](crate::sim::simulate_with_oracle) instead
//! consults a caller-supplied [`SimOracle`] at every such point, in the
//! exact deterministic order the simulator processes events.
//!
//! Two consumers build on this:
//!
//! - the schedule-space explorer in `rtmdm-check` enumerates the answer
//!   lattice exhaustively, pulling the [`StateHash`] at the queries where
//!   it may merge converging interleavings;
//! - [`ScriptOracle`] replays a recorded answer list verbatim — a
//!   violation witness is a `SimConfig` plus such a script, and replay
//!   reproduces the violating run step for step.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::Cycles;

/// A canonical 128-bit fingerprint of the simulator's dynamic state at
/// a choice point: the derived [`Hash`](std::hash::Hash) of that state
/// fed through a [`StableHash`]. It covers everything that determines
/// future behavior (clocks, job queues, resource occupancy, the pending
/// events in drain order) and nothing that does not (traces,
/// statistics, metrics).
///
/// Equal hashes of states queried at the *same* [`ChoicePoint`] imply
/// identical future behavior under identical future answers, which is
/// what makes visited-state merging during exploration sound — up to
/// the chance that two distinct states collide in both 64-bit lanes of
/// [`StableHash`] at once (the argument, and its limits, are in
/// `DESIGN.md` §2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateHash(
    /// The two [`StableHash`] lanes, `hi` above `lo`.
    pub u128,
);

/// A streaming [`Hasher`] with two independent 64-bit lanes, used to
/// fingerprint simulator state one whole word at a time.
///
/// Each [`mix`](StableHash::mix) step xors the word into each lane,
/// multiplies the lane by its own odd constant and folds the high half
/// back down with an xor-shift. Every one of those operations is a
/// bijection on the lane, so two feeds that differ in exactly one word
/// always end in different states in *both* lanes; the fold lets high
/// input bits reach the low bits that the next multiply spreads. The
/// mixer is fast, not cryptographic: it assumes states are not chosen
/// adversarially.
///
/// As a [`Hasher`], every integer up to 64 bits that a derived
/// [`Hash`](std::hash::Hash) writes (a bool, an enum discriminant, a length prefix) becomes one
/// word (signed ones through their unsigned twins, `std`'s default),
/// and a byte slice is fed as its length followed by 8-byte
/// little-endian words.
///
/// The mixer is written out rather than taken from `std`'s
/// `DefaultHasher`, which gives one 64-bit lane. Exploration reads only
/// fingerprint *equality*, so what must hold across toolchains is that
/// equal states hash equal, not that a digest keeps its value.
#[derive(Debug, Clone)]
pub struct StableHash {
    lo: u64,
    hi: u64,
}

/// Lane multipliers: odd (so the multiply is invertible mod 2⁶⁴) and
/// unrelated to each other, so the lanes decorrelate.
const LO_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const HI_MUL: u64 = 0xbf58_476d_1ce4_e5b9;

impl StableHash {
    /// A fresh hasher.
    #[allow(clippy::new_without_default)]
    pub fn new() -> StableHash {
        StableHash {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x94d0_49bb_1331_11eb,
        }
    }

    /// Feeds one 64-bit word.
    pub fn mix(&mut self, v: u64) {
        self.lo = fold((self.lo ^ v).wrapping_mul(LO_MUL));
        self.hi = fold((self.hi ^ v).wrapping_mul(HI_MUL));
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> StateHash {
        StateHash((u128::from(self.hi) << 64) | u128::from(self.lo))
    }
}

impl Hasher for StableHash {
    /// The low lane; [`StableHash::finish`] gives both.
    fn finish(&self) -> u64 {
        self.lo
    }

    fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// The xor-shift fold of one [`StableHash`] step (a bijection).
fn fold(x: u64) -> u64 {
    x ^ (x >> 32)
}

/// One nondeterministic decision the simulator is about to take.
///
/// The fields identify the decision site exactly (task index in the
/// simulated set's priority order, job id, and — for transfers — the
/// segment and retry attempt), so a recorded script can be audited
/// against the run it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChoicePoint {
    /// The execution-time scale of a job about to enter the system, in
    /// parts per million of WCET. Asked only when
    /// `SimConfig::exec_scale_min_ppm < 1_000_000`; the answer is
    /// clamped into `[min_ppm, 1_000_000]`.
    ExecScale {
        /// Task index.
        task: usize,
        /// Job id within the task.
        job: u64,
        /// Lower clamp, from `SimConfig::exec_scale_min_ppm`.
        min_ppm: u64,
    },
    /// Release jitter of a job: the job enters the system `jitter`
    /// cycles after its nominal release, while its absolute deadline
    /// stays anchored at the nominal release. Asked at every release
    /// when an oracle is attached; answering zero reproduces the
    /// default strictly-periodic arrival.
    ReleaseJitter {
        /// Task index.
        task: usize,
        /// Job id within the task.
        job: u64,
    },
    /// Whether the DMA transfer that just completed delivered corrupt
    /// data and must be re-issued. Asked only while the fault
    /// environment is active (`dma_fault_rate_ppm > 0`) and the attempt
    /// is below the retry budget — attempts at the budget never fault,
    /// mirroring the injector's contract.
    TransferFault {
        /// Task index.
        task: usize,
        /// Owning job id.
        job: u64,
        /// Segment being staged.
        seg: usize,
        /// 0-based retry attempt of the completed transfer.
        attempt: u32,
    },
}

/// An oracle's answer to one [`ChoicePoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Choice {
    /// Execution-time scale in parts per million of WCET.
    ExecScale(u64),
    /// Release jitter in cycles.
    ReleaseJitter(Cycles),
    /// Whether the transfer faulted.
    TransferFault(bool),
}

impl Choice {
    /// The scale answer, or `default` on a kind mismatch (a mismatched
    /// script degrades to the deterministic default rather than
    /// panicking mid-simulation).
    pub fn exec_scale_or(self, default: u64) -> u64 {
        match self {
            Choice::ExecScale(v) => v,
            _ => default,
        }
    }

    /// The jitter answer, or zero on a kind mismatch.
    pub fn release_jitter_or_zero(self) -> Cycles {
        match self {
            Choice::ReleaseJitter(v) => v,
            _ => Cycles::ZERO,
        }
    }

    /// The fault answer, or `false` on a kind mismatch.
    pub fn transfer_fault_or_false(self) -> bool {
        match self {
            Choice::TransferFault(v) => v,
            _ => false,
        }
    }

    /// The deterministic default answer for `point`: WCET scale, zero
    /// jitter, no fault — the spine every exploration starts from.
    pub fn default_for(point: &ChoicePoint) -> Choice {
        match point {
            ChoicePoint::ExecScale { .. } => Choice::ExecScale(1_000_000),
            ChoicePoint::ReleaseJitter { .. } => Choice::ReleaseJitter(Cycles::ZERO),
            ChoicePoint::TransferFault { .. } => Choice::TransferFault(false),
        }
    }
}

/// A recorded `(where, what)` pair — one line of a witness script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedChoice {
    /// The decision site, kept for auditability; replay matches answers
    /// to queries positionally, not by these fields.
    pub point: ChoicePoint,
    /// The answer given.
    pub value: Choice,
}

/// The interface the simulator consults at every nondeterministic
/// point when run through
/// [`simulate_with_oracle`](crate::sim::simulate_with_oracle).
///
/// The simulator asks through [`answer`](SimOracle::answer), which
/// hands the oracle the canonical fingerprint of the simulator's
/// dynamic state *at the query* (settled, so sub-cycle credits are
/// canonical) as a function to call, not a value: hashing walks every
/// job queue and pending event, so an oracle pays for it only where
/// its answer reads it. Replay oracles never do; the explorer's path
/// oracle does at the queries where its path may merge.
pub trait SimOracle {
    /// Answers one decision, given the fingerprint at the query.
    /// Returning a mismatched [`Choice`] kind is tolerated and degrades
    /// to the deterministic default for the point.
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice;

    /// The simulator's entry point: answers one decision, calling
    /// `state` for the fingerprint at the query only if the answer
    /// depends on it (every call returns the same hash). The provided
    /// method fingerprints every query and defers to
    /// [`choose`](SimOracle::choose); an oracle that reads the state at
    /// only some queries, or never, overrides it.
    fn answer(&mut self, point: ChoicePoint, state: &dyn Fn() -> StateHash) -> Choice {
        self.choose(point, state())
    }

    /// Whether the run should end once the instant being processed is
    /// complete. The simulator asks after every processed instant,
    /// passing `violated`: whether the run has recorded a deadline miss
    /// or a staging race up to and including this instant. The provided
    /// answer never stops, so the run reaches the horizon.
    fn stop_after_instant(&self, violated: bool) -> bool {
        let _ = violated;
        false
    }
}

/// A replay oracle: answers queries from a fixed script in order, then
/// the deterministic default once the script is exhausted. This is the
/// witness-replay vehicle — the explorer serializes the choices that
/// led to a violation, and replaying them reproduces the violating run
/// exactly. It never reads the state, so a replay fingerprints nothing.
#[derive(Debug, Clone)]
pub struct ScriptOracle {
    script: Vec<ScriptedChoice>,
    cursor: usize,
}

impl ScriptOracle {
    /// An oracle replaying `script` positionally.
    pub fn new(script: Vec<ScriptedChoice>) -> ScriptOracle {
        ScriptOracle { script, cursor: 0 }
    }

    /// How many script entries were consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor.min(self.script.len())
    }
}

impl SimOracle for ScriptOracle {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        self.answer(point, &|| state)
    }

    fn answer(&mut self, point: ChoicePoint, _state: &dyn Fn() -> StateHash) -> Choice {
        let answer = match self.script.get(self.cursor) {
            Some(entry) => entry.value,
            None => Choice::default_for(&point),
        };
        self.cursor += 1;
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn script_oracle_replays_then_defaults() {
        let script = vec![ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
            value: Choice::ReleaseJitter(Cycles::new(17)),
        }];
        let mut o = ScriptOracle::new(script);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        let h = StateHash(0);
        assert_eq!(o.choose(p, h), Choice::ReleaseJitter(Cycles::new(17)));
        assert_eq!(o.choose(p, h), Choice::ReleaseJitter(Cycles::ZERO));
        assert_eq!(o.consumed(), 1);
    }

    #[test]
    fn mismatched_choice_kinds_degrade_to_defaults() {
        let c = Choice::TransferFault(true);
        assert_eq!(c.exec_scale_or(1_000_000), 1_000_000);
        assert_eq!(c.release_jitter_or_zero(), Cycles::ZERO);
        assert!(c.transfer_fault_or_false());
        assert!(!Choice::ExecScale(5).transfer_fault_or_false());
    }

    #[test]
    fn stable_hash_is_order_sensitive_and_stable() {
        let mut a = StableHash::new();
        a.mix(1);
        a.mix(2);
        let mut b = StableHash::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = StableHash::new();
        c.mix(1);
        c.mix(2);
        assert_eq!(a.finish(), c.finish());
        // The digest is pinned: it must not drift across toolchains.
        assert_eq!(
            a.finish(),
            StateHash(0xe0db_8170_62a8_fc77_9c2d_da1a_e14a_b8c4)
        );
        // As a `Hasher`: None must differ from Some(0) and from the
        // empty feed, and a byte slice's length tells trailing zero
        // bytes apart.
        let hashed = |v: &dyn Fn(&mut StableHash)| {
            let mut h = StableHash::new();
            v(&mut h);
            h.finish()
        };
        let none = hashed(&|h| None::<u64>.hash(h));
        assert_ne!(none, hashed(&|h| Some(0u64).hash(h)));
        assert_ne!(none, StableHash::new().finish());
        assert_ne!(hashed(&|h| h.write(b"ab")), hashed(&|h| h.write(b"ab\0")));
        assert_eq!(hashed(&|h| 7u8.hash(h)), hashed(&|h| h.mix(7)));
        // One flipped input bit, at any position of any word, must move
        // both lanes; swapping two words must be detected.
        let words = [0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX];
        let digest = |ws: &[u64]| {
            let mut h = StableHash::new();
            for &w in ws {
                h.mix(w);
            }
            let d = h.finish().0;
            (d as u64, (d >> 64) as u64)
        };
        let (lo, hi) = digest(&words);
        for pos in 0..words.len() {
            for bit in 0..64 {
                let mut flipped = words;
                flipped[pos] ^= 1 << bit;
                let (flo, fhi) = digest(&flipped);
                assert_ne!(flo, lo, "lo lane missed bit {bit} of word {pos}");
                assert_ne!(fhi, hi, "hi lane missed bit {bit} of word {pos}");
            }
        }
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                let mut swapped = words;
                swapped.swap(i, j);
                assert_ne!(digest(&swapped), (lo, hi), "swap of words {i} and {j}");
            }
        }
    }
}
