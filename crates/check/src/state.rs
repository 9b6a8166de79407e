//! Exploration state: canonical visited-state bookkeeping, choice
//! domains, the path oracle that drives one scripted run, and the
//! replayable violation witness.
//!
//! Each explored path is one simulator run driven by a [`PathOracle`]
//! — a forced prefix of choices replayed positionally, then the
//! deterministic default answer for every further query, with every
//! query logged. A free query with untaken candidates also logs those
//! candidates and the state fingerprint there; no other query
//! fingerprints the state.
//!
//! The [`VisitedSet`] is updated at *merge time* — when the explorer
//! consumes a finished path, it walks the logged free-region queries in
//! order ([`merge_path`]), keyed on the canonical state fingerprint
//! *and* the choice point: once a `(state, point)` pair has been
//! expanded on some path, every alternative at that pair is already
//! scheduled, so a later path reaching it stops branching — the path
//! *merges*. Because paths are consumed in one canonical order, this is
//! step-for-step the same bookkeeping a sequential in-run oracle would
//! do.
//!
//! A merged path also stops *running*. The oracle reads the visited set
//! (it never writes it) and asks the simulator to end the run after the
//! instant in which a free, branching query hits an expanded pair. The
//! cut tail is a tail already checked: the pair's first path answered
//! only defaults from that pair on, equal fingerprints at the same
//! point imply identical futures, that path had no violation (or the
//! search would have ended), and it expanded every pair it reached. The
//! set records, for each pair, the number of queries from it to the end
//! of that first path, so a merged path still counts the full length it
//! would have had. The explorer merges each path before it runs the
//! next, so the merged result is a pure function of the prefix and the
//! merge order, whichever strategy executed the run.
//!
//! Keying on the pair rather than the state alone matters: consecutive
//! choice points within one instant (a release's jitter query followed
//! by its exec-scale query) can observe identical state fingerprints,
//! and merging those would silently drop the second dimension.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_sched::script::{
    Choice, ChoicePoint, ScriptOracle, ScriptedChoice, SimOracle, StateHash,
};
use rtmdm_sched::sim::{simulate_with_oracle, SimConfig, SimResult};
use rtmdm_sched::TaskSet;

/// Version tag of the witness JSON layout.
pub const WITNESS_SCHEMA: &str = "rtmdm-witness/1";

/// The candidate answers the explorer considers at each kind of choice
/// point. The continuous dimensions (execution scale, jitter) are
/// discretized to their interval endpoints; `DESIGN.md` §2.5 spells out
/// why the verdict is exhaustive over this lattice and what that does
/// and does not imply about the continuum.
#[derive(Debug, Clone)]
pub struct Domains {
    /// Lower execution-scale endpoint in ppm of WCET (from
    /// `SimConfig::exec_scale_min_ppm`); the other endpoint is WCET.
    pub exec_scale_min_ppm: u64,
    /// Upper release-jitter endpoint in cycles; the other endpoint is
    /// zero. Zero disables the dimension.
    pub jitter_max_cycles: u64,
    /// Whether transfer-fault queries branch (they only occur when the
    /// config's fault environment is active).
    pub explore_faults: bool,
}

impl Domains {
    /// The candidate answers at `point`, deterministic default first.
    pub fn candidates(&self, point: &ChoicePoint) -> Vec<Choice> {
        match point {
            ChoicePoint::ExecScale { min_ppm, .. } => {
                let min = (*min_ppm).max(self.exec_scale_min_ppm);
                if min >= 1_000_000 {
                    vec![Choice::ExecScale(1_000_000)]
                } else {
                    vec![Choice::ExecScale(1_000_000), Choice::ExecScale(min)]
                }
            }
            ChoicePoint::ReleaseJitter { .. } => {
                if self.jitter_max_cycles == 0 {
                    vec![Choice::ReleaseJitter(Cycles::ZERO)]
                } else {
                    vec![
                        Choice::ReleaseJitter(Cycles::ZERO),
                        Choice::ReleaseJitter(Cycles::new(self.jitter_max_cycles)),
                    ]
                }
            }
            ChoicePoint::TransferFault { .. } => {
                if self.explore_faults {
                    vec![Choice::TransferFault(false), Choice::TransferFault(true)]
                } else {
                    vec![Choice::TransferFault(false)]
                }
            }
        }
    }
}

/// One logged oracle query of an explored run.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The decision site.
    pub point: ChoicePoint,
    /// The answer given on this path.
    pub chosen: Choice,
    /// At a search run's free query with untaken candidates: the
    /// canonical state fingerprint at the query, for merge-time visited
    /// bookkeeping, and the untaken candidate answers (never empty).
    /// Whether they actually branch is decided at merge time against
    /// the visited set. `None` — and no fingerprint computed — in the
    /// forced region (those branch points belong to the run that
    /// scheduled the prefix), at single-candidate points and throughout
    /// a witness replay.
    pub branch: Option<(StateHash, Vec<Choice>)>,
}

/// The shared dominance store: `(state, point)` pairs already expanded,
/// each with its tail length — the number of queries from the pair to
/// the end of the path that first reached it.
///
/// Exact-fingerprint equality is the dominance relation implemented —
/// a state dominates (subsumes) another exactly when their canonical
/// fingerprints at the same choice point are equal, which by the
/// fingerprint's contract implies identical reachable futures.
#[derive(Debug, Default)]
pub struct VisitedSet {
    seen: HashMap<(StateHash, ChoicePoint), usize>,
}

impl VisitedSet {
    /// An empty store.
    pub fn new() -> VisitedSet {
        VisitedSet::default()
    }

    /// Marks `(state, point)` expanded with `tail` queries from it to
    /// the end of its path; `true` when it was novel (a known pair keeps
    /// its first tail).
    pub fn insert(&mut self, state: StateHash, point: ChoicePoint, tail: usize) -> bool {
        match self.seen.entry((state, point)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(tail);
                true
            }
        }
    }

    /// The tail length of an expanded pair, `None` when it is novel.
    pub fn tail(&self, state: StateHash, point: ChoicePoint) -> Option<usize> {
        self.seen.get(&(state, point)).copied()
    }

    /// Number of distinct expanded pairs — the explorer's state count.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been expanded yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// The oracle that drives one explored path: replays the forced prefix
/// positionally, then answers deterministic defaults, logging every
/// query.
///
/// A search run's oracle logs, at each free query with untaken
/// candidates, those candidates and the state fingerprint — the only
/// queries [`merge_path`] reads, so the only ones it fingerprints, once
/// each. It only reads the visited set. It asks the simulator to stop
/// after the instant in which such a query hits an expanded pair — the
/// condition on which [`merge_path`] merges — or in which the run
/// records its first violation, which ends the search. Every other
/// piece of bookkeeping happens when the explorer consumes the log. A
/// witness replay answers [`Choice::default_for`] past its prefix (the
/// first candidate by the [`Domains`] contract), logs only points and
/// answers, fingerprints nothing, and runs to the horizon.
pub struct PathOracle<'a> {
    prefix: Vec<Choice>,
    /// The candidate domains and the visited set a search run merges
    /// into; `None` for a witness replay.
    search: Option<(&'a Domains, &'a VisitedSet)>,
    /// Whether a query hit an expanded pair, ending the run after the
    /// current instant.
    stopped: bool,
    /// Every query of the run, in order.
    pub log: Vec<QueryRecord>,
}

impl<'a> PathOracle<'a> {
    /// A search run's oracle forcing `prefix`, then defaults; the run
    /// stops where the path merges into `visited` or after its first
    /// violating instant.
    pub fn search(prefix: Vec<Choice>, domains: &'a Domains, visited: &'a VisitedSet) -> Self {
        PathOracle::with(prefix, Some((domains, visited)))
    }

    /// A witness replay's oracle forcing `prefix`, then defaults, to the
    /// horizon.
    pub fn replay(prefix: Vec<Choice>) -> Self {
        PathOracle::with(prefix, None)
    }

    fn with(prefix: Vec<Choice>, search: Option<(&'a Domains, &'a VisitedSet)>) -> Self {
        PathOracle {
            prefix,
            search,
            stopped: false,
            log: Vec::new(),
        }
    }
}

impl SimOracle for PathOracle<'_> {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        self.answer(point, &|| state)
    }

    fn answer(&mut self, point: ChoicePoint, state: &dyn Fn() -> StateHash) -> Choice {
        let (chosen, branch) = match (self.prefix.get(self.log.len()), self.search) {
            // Forced region: replay; its branch points were expanded by
            // the run that scheduled this prefix.
            (Some(&forced), _) => (forced, None),
            (None, None) => (Choice::default_for(&point), None),
            (None, Some((domains, visited))) => {
                let mut cands = domains.candidates(&point);
                let chosen = cands.remove(0);
                if cands.is_empty() {
                    (chosen, None)
                } else {
                    let hash = state();
                    self.stopped |= visited.tail(hash, point).is_some();
                    (chosen, Some((hash, cands)))
                }
            }
        };
        self.log.push(QueryRecord {
            point,
            chosen,
            branch,
        });
        chosen
    }

    fn stop_after_instant(&self, violated: bool) -> bool {
        self.stopped || (violated && self.search.is_some())
    }
}

/// What merging one consumed path yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedPath {
    /// Log indices whose branches the explorer must schedule.
    pub expansions: Vec<usize>,
    /// The number of queries the path answers from the start of its log
    /// to the horizon: the log length, or — for a path that merges — the
    /// queries before its merge pair plus that pair's tail length, so a
    /// path cut at its merge pair reports the length of its uncut run.
    pub len: usize,
}

/// Merge-time visited bookkeeping over one consumed path: walks the
/// logged queries in order, expands each novel multi-candidate
/// `(state, point)` pair into `visited`, and stops at the first
/// already-expanded pair — the path *merges*; its remaining subtrees
/// were covered from the pair's first visit.
///
/// The explorer merges each path right after running it, in stack
/// order, so this reproduces exactly the insertions an in-run oracle
/// would have made. A choice point names its task and job (and, for
/// transfers, segment and attempt), so one path never reaches the same
/// pair twice.
pub fn merge_path(log: &[QueryRecord], visited: &mut VisitedSet) -> MergedPath {
    let mut expansions = Vec::new();
    let mut len = log.len();
    for (i, rec) in log.iter().enumerate() {
        let Some((state, _)) = rec.branch else {
            continue;
        };
        match visited.tail(state, rec.point) {
            Some(tail) => {
                len = i + tail;
                break;
            }
            None => expansions.push(i),
        }
    }
    for &i in &expansions {
        if let Some((state, _)) = log[i].branch {
            visited.insert(state, log[i].point, len - i);
        }
    }
    MergedPath { expansions, len }
}

/// Counters of one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Simulator runs executed, one per explored path. A path that
    /// merges into one explored earlier ends its run after the instant
    /// of its merge pair instead of at the horizon, and a violating
    /// path after its first violating instant.
    pub runs: usize,
    /// Distinct canonical `(state, choice-point)` pairs expanded. When
    /// the search ends at a violation, the violating run contributes
    /// only the pairs it reached up to its violating instant.
    pub states: usize,
    /// Oracle queries across all paths, each non-violating path counted
    /// to the horizon: a merged path counts the queries before its merge
    /// pair plus the pair's tail length (see [`MergedPath::len`]), so
    /// the total equals that of running every such path to the end. The
    /// violating path that ends the search counts the queries it asked
    /// up to its violating instant.
    pub transitions: u64,
    /// Whether the schedule space was covered to the horizon. `false`
    /// means the budget cut exploration short — RTM053, never silently
    /// safe.
    pub complete: bool,
}

/// A replayable counterexample: everything needed to reproduce a
/// violating run, self-contained.
///
/// Replaying `script` through [`Witness::replay`] reproduces the
/// violating event at the predicted instant, byte for byte — the
/// cross-validation suite pins this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Witness {
    /// Layout tag, always [`WITNESS_SCHEMA`].
    pub schema: String,
    /// The violated rule's stable ID (`"RTM050"`, `"RTM051"`, `"RTM052"`).
    pub rule: String,
    /// Task index (in the explored set's priority order) of the victim.
    pub task: usize,
    /// Job id of the victim.
    pub job: u64,
    /// Predicted violation instant in cycles.
    pub at: u64,
    /// Dominant interference source of the victim job per the blame
    /// decomposition of the violating run, when attributable (the
    /// victim must complete within the horizon to be decomposable).
    pub dominant_blame: Option<String>,
    /// The explored task set, in the explored priority order.
    pub task_set: TaskSet,
    /// The platform the violation was found on.
    pub platform: PlatformConfig,
    /// The exact simulator configuration of the violating run.
    pub config: SimConfig,
    /// The full choice script of the violating run, in query order.
    pub script: Vec<ScriptedChoice>,
}

impl Witness {
    /// Re-executes the witnessed run and returns its result.
    pub fn replay(&self) -> SimResult {
        let mut oracle = ScriptOracle::new(self.script.clone());
        simulate_with_oracle(&self.task_set, &self.platform, &self.config, &mut oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use rtmdm_mcusim::FaultPlan;
    use rtmdm_sched::sim::Policy;
    use rtmdm_sched::{Segment, SporadicTask, StagingMode};

    fn jitter_domains(max: u64) -> Domains {
        Domains {
            exec_scale_min_ppm: 1_000_000,
            jitter_max_cycles: max,
            explore_faults: false,
        }
    }

    #[test]
    fn single_candidate_points_do_not_branch() {
        let d = jitter_domains(0);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        assert_eq!(d.candidates(&p).len(), 1);
        let mut visited = VisitedSet::new();
        let mut oracle = PathOracle::search(Vec::new(), &d, &visited);
        let c = oracle.choose(p, StateHash(1));
        assert_eq!(c, Choice::ReleaseJitter(Cycles::ZERO));
        assert!(oracle.log[0].branch.is_none());
        let log = oracle.log;
        assert!(merge_path(&log, &mut visited).expansions.is_empty());
        assert!(visited.is_empty(), "non-branching points cost no budget");
    }

    #[test]
    fn novel_branch_points_expand_once() {
        let d = jitter_domains(50);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        let mut visited = VisitedSet::new();
        {
            let mut oracle = PathOracle::search(Vec::new(), &d, &visited);
            assert_eq!(
                oracle.choose(p, StateHash(1)),
                Choice::ReleaseJitter(Cycles::ZERO)
            );
            assert_eq!(
                oracle.log[0].branch,
                Some((StateHash(1), vec![Choice::ReleaseJitter(Cycles::new(50))]))
            );
            assert!(
                !oracle.stop_after_instant(false),
                "a novel pair does not stop the run"
            );
            let log = oracle.log;
            assert_eq!(merge_path(&log, &mut visited).expansions, vec![0]);
        }
        // A second path reaching the same (state, point) merges: its
        // branches are not scheduled, the rest of that path stops
        // expanding — even a novel later pair — and its run stops.
        {
            let mut oracle = PathOracle::search(Vec::new(), &d, &visited);
            oracle.choose(p, StateHash(1));
            assert!(
                oracle.stop_after_instant(false),
                "the merge pair stops the run"
            );
            let later = ChoicePoint::ReleaseJitter { task: 0, job: 1 };
            oracle.choose(later, StateHash(2));
            let log = oracle.log;
            assert!(merge_path(&log, &mut visited).expansions.is_empty());
        }
        assert_eq!(visited.len(), 1);
    }

    #[test]
    fn same_state_different_points_are_distinct() {
        // The regression the pair key exists for: a jitter query and an
        // exec query can see the same fingerprint within one instant.
        let d = Domains {
            exec_scale_min_ppm: 500_000,
            jitter_max_cycles: 50,
            explore_faults: false,
        };
        let mut visited = VisitedSet::new();
        let mut oracle = PathOracle::search(Vec::new(), &d, &visited);
        let jitter = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        let exec = ChoicePoint::ExecScale {
            task: 0,
            job: 0,
            min_ppm: 500_000,
        };
        oracle.choose(jitter, StateHash(7));
        oracle.choose(exec, StateHash(7));
        let log = oracle.log;
        assert_eq!(
            merge_path(&log, &mut visited).expansions,
            vec![0, 1],
            "not merged away"
        );
        assert_eq!(visited.len(), 2);
    }

    #[test]
    fn prefix_region_is_forced_verbatim() {
        let d = jitter_domains(50);
        let forced = vec![Choice::ReleaseJitter(Cycles::new(50))];
        let mut visited = VisitedSet::new();
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        // Even a visited pair does not stop a forced query: the forced
        // region belongs to the run that scheduled the prefix.
        visited.insert(StateHash(3), p, 1);
        let mut oracle = PathOracle::search(forced, &d, &visited);
        assert_eq!(
            oracle.choose(p, StateHash(3)),
            Choice::ReleaseJitter(Cycles::new(50))
        );
        assert!(oracle.log[0].branch.is_none());
        assert!(!oracle.stop_after_instant(false));
        let log = oracle.log;
        let mut unvisited = VisitedSet::new();
        assert!(merge_path(&log, &mut unvisited).expansions.is_empty());
        assert!(unvisited.is_empty(), "forced region does no bookkeeping");
    }

    #[test]
    fn a_search_run_stops_at_its_violation_and_a_replay_does_not() {
        let d = jitter_domains(50);
        let visited = VisitedSet::new();
        let search = PathOracle::search(Vec::new(), &d, &visited);
        assert!(!search.stop_after_instant(false));
        assert!(
            search.stop_after_instant(true),
            "a violation ends the search"
        );
        let mut replay = PathOracle::replay(Vec::new());
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        replay.choose(p, StateHash(1));
        assert!(
            !replay.stop_after_instant(true),
            "a replay runs to the horizon"
        );
        assert_eq!(replay.log[0].chosen, Choice::ReleaseJitter(Cycles::ZERO));
        assert!(
            replay.log[0].branch.is_none(),
            "a replay keeps no search books"
        );
    }

    /// Feeds `oracle` one jitter query per `(job, state)`, stopping
    /// after the first query that asks the run to stop when `cut` is
    /// set (the simulator ends the run after that instant; here every
    /// query is its own instant).
    fn feed(oracle: &mut PathOracle<'_>, queries: &[(u64, u128)], cut: bool) {
        for &(job, state) in queries {
            oracle.choose(
                ChoicePoint::ReleaseJitter { task: 0, job },
                StateHash(state),
            );
            if cut && oracle.stop_after_instant(false) {
                break;
            }
        }
    }

    #[test]
    fn a_path_cut_at_its_merge_pair_reports_its_uncut_length() {
        let d = jitter_domains(50);
        let mut visited = VisitedSet::new();
        // The first path expands four pairs; each records its tail.
        let first = [(0, 10), (1, 11), (2, 12), (3, 13)];
        let mut oracle = PathOracle::search(Vec::new(), &d, &visited);
        feed(&mut oracle, &first, true);
        let log = oracle.log;
        let merged = merge_path(&log, &mut visited);
        assert_eq!(merged.expansions, vec![0, 1, 2, 3]);
        assert_eq!(merged.len, 4);
        assert_eq!(
            visited.tail(
                StateHash(12),
                ChoicePoint::ReleaseJitter { task: 0, job: 2 }
            ),
            Some(2)
        );
        // A second path forces job 0 elsewhere, reaches a novel state
        // at job 1, and converges on the first path's state at job 2:
        // from there its tail is the first path's tail.
        let forced = vec![Choice::ReleaseJitter(Cycles::new(50))];
        let second = [(0, 20), (1, 21), (2, 12), (3, 13)];
        let mut cut = PathOracle::search(forced.clone(), &d, &visited);
        feed(&mut cut, &second, true);
        assert!(cut.stop_after_instant(false));
        assert_eq!(cut.log.len(), 3, "the run ends at its merge pair");
        let mut uncut = PathOracle::search(forced, &d, &visited);
        feed(&mut uncut, &second, false);
        assert_eq!(uncut.log.len(), 4);
        let (cut_log, uncut_log) = (cut.log, uncut.log);
        for (a, b) in cut_log.iter().zip(&uncut_log) {
            assert_eq!(
                (a.point, a.chosen, &a.branch),
                (b.point, b.chosen, &b.branch)
            );
        }
        let mut for_uncut = VisitedSet::new();
        for (i, rec) in log.iter().enumerate() {
            let (state, _) = rec.branch.as_ref().expect("every query branches");
            for_uncut.insert(*state, rec.point, merged.len - i);
        }
        let from_uncut = merge_path(&uncut_log, &mut for_uncut);
        let from_cut = merge_path(&cut_log, &mut visited);
        assert_eq!(from_cut, from_uncut);
        assert_eq!(from_cut.len, uncut_log.len());
        assert_eq!(from_cut.expansions, vec![1]);
        assert_eq!(visited.len(), 5);
        // The novel pair's tail runs to the end of the uncut path.
        assert_eq!(
            visited.tail(
                StateHash(21),
                ChoicePoint::ReleaseJitter { task: 0, job: 1 }
            ),
            Some(3)
        );
    }

    /// The purity contract fork-versus-replay identity rests on: two oracles
    /// with the same prefix and visited set over the same query
    /// sequence produce identical logs — no order dependence.
    #[test]
    fn path_logs_are_a_pure_function_of_the_prefix() {
        let d = jitter_domains(50);
        let visited = VisitedSet::new();
        let drive = || {
            let mut oracle =
                PathOracle::search(vec![Choice::ReleaseJitter(Cycles::new(50))], &d, &visited);
            for job in 0..4 {
                oracle.choose(
                    ChoicePoint::ReleaseJitter { task: 0, job },
                    StateHash(job as u128),
                );
            }
            oracle.log
        };
        let a = drive();
        let b = drive();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.point, x.chosen, &x.branch),
                (y.point, y.chosen, &y.branch)
            );
        }
    }

    #[test]
    fn the_first_candidate_is_the_default_answer() {
        let points = [
            ChoicePoint::ExecScale {
                task: 0,
                job: 0,
                min_ppm: 500_000,
            },
            ChoicePoint::ExecScale {
                task: 0,
                job: 0,
                min_ppm: 1_000_000,
            },
            ChoicePoint::ReleaseJitter { task: 0, job: 0 },
            ChoicePoint::TransferFault {
                task: 0,
                job: 0,
                seg: 0,
                attempt: 0,
            },
        ];
        for exec_scale_min_ppm in [500_000, 1_000_000] {
            for jitter_max_cycles in [0, 50] {
                for explore_faults in [false, true] {
                    let d = Domains {
                        exec_scale_min_ppm,
                        jitter_max_cycles,
                        explore_faults,
                    };
                    for p in &points {
                        assert_eq!(d.candidates(p)[0], Choice::default_for(p), "{p:?}");
                    }
                }
            }
        }
    }

    /// Counts the fingerprints the wrapped path oracle pulls.
    struct Pulls<'a> {
        inner: PathOracle<'a>,
        pulled: Cell<usize>,
    }

    impl SimOracle for Pulls<'_> {
        fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
            self.answer(point, &|| state)
        }

        fn answer(&mut self, point: ChoicePoint, state: &dyn Fn() -> StateHash) -> Choice {
            let pulled = &self.pulled;
            self.inner.answer(point, &|| {
                pulled.set(pulled.get() + 1);
                state()
            })
        }

        fn stop_after_instant(&self, violated: bool) -> bool {
            self.inner.stop_after_instant(violated)
        }
    }

    /// Replays `answers` and records the fingerprint at every query.
    struct Eager {
        script: ScriptOracle,
        hashes: Vec<StateHash>,
    }

    impl SimOracle for Eager {
        fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
            self.hashes.push(state);
            self.script.choose(point, state)
        }
    }

    #[test]
    fn only_branching_search_queries_are_fingerprinted() {
        let task = |name: &str, period: u64, segs: &[u64]| {
            let segs = segs.iter().map(|&c| Segment::new(Cycles::new(c), 2_048));
            SporadicTask::new(
                name,
                Cycles::new(period),
                Cycles::new(period),
                segs.collect(),
                StagingMode::Overlapped,
            )
            .expect("valid task")
        };
        let ts = TaskSet::from_tasks(vec![
            task("a", 60_000, &[4_000, 5_000]),
            task("b", 90_000, &[6_000, 3_000, 2_000]),
        ]);
        let platform = PlatformConfig::stm32f746_qspi();
        let mut cfg = SimConfig::new(Cycles::new(360_000), Policy::FixedPriority);
        cfg.exec_scale_min_ppm = 600_000;
        cfg.fault = FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 1,
            max_retries: 1,
            jitter_max_cycles: 0,
        };
        // Scale queries branch; jitter and fault queries have one
        // candidate each.
        let d = Domains {
            exec_scale_min_ppm: 600_000,
            jitter_max_cycles: 0,
            explore_faults: false,
        };
        let prefix = vec![
            Choice::ReleaseJitter(Cycles::ZERO),
            Choice::ExecScale(600_000),
        ];
        let visited = VisitedSet::new();
        let mut search = Pulls {
            inner: PathOracle::search(prefix.clone(), &d, &visited),
            pulled: Cell::new(0),
        };
        simulate_with_oracle(&ts, &platform, &cfg, &mut search);
        let log = search.inner.log;
        let branching = log.iter().filter(|r| r.branch.is_some()).count();
        assert!(branching > 0 && branching < log.len() - prefix.len());
        assert!(log[..prefix.len()].iter().all(|r| r.branch.is_none()));
        assert_eq!(search.pulled.get(), branching, "one pull per branch point");

        // Each logged fingerprint is the one an eager oracle is shown.
        let answers = log.iter().map(|r| ScriptedChoice {
            point: r.point,
            value: r.chosen,
        });
        let mut eager = Eager {
            script: ScriptOracle::new(answers.collect()),
            hashes: Vec::new(),
        };
        simulate_with_oracle(&ts, &platform, &cfg, &mut eager);
        assert_eq!(eager.hashes.len(), log.len());
        for (rec, &hash) in log.iter().zip(&eager.hashes) {
            if let Some((state, _)) = rec.branch {
                assert_eq!(state, hash);
            }
        }

        let mut replay = Pulls {
            inner: PathOracle::replay(prefix),
            pulled: Cell::new(0),
        };
        simulate_with_oracle(&ts, &platform, &cfg, &mut replay);
        assert_eq!(
            replay.pulled.get(),
            0,
            "a witness replay fingerprints nothing"
        );
        let replayed = replay.inner.log;
        assert!(replayed.iter().all(|r| r.branch.is_none()));
        let answers =
            |log: &[QueryRecord]| log.iter().map(|r| (r.point, r.chosen)).collect::<Vec<_>>();
        assert_eq!(answers(&replayed), answers(&log));
    }
}
