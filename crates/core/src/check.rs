//! Static verification of a full system specification.
//!
//! [`SystemSpec`] bundles everything admission consumes — a platform,
//! framework options, and task specifications — and [`SystemSpec::check`]
//! runs every `rtmdm-check` pass over it in dependency order:
//!
//! 1. **platform** sanity (`RTM040`);
//! 2. per-task **graph** lints (`RTM03x`) and spec-level **timing**
//!    lints (`RTM020`/`RTM021`), which need no platform;
//! 3. per-task **plan** well-formedness (`RTM01x`) and **staging** race
//!    detection (`RTM00x`) over admission's own lowering;
//! 4. the **SRAM layout** admission reads, checked for aliasing and
//!    overflow (`RTM003`/`RTM004`);
//! 5. set-level **admission** lints (`RTM02x`, `RTM041`) reading
//!    admission's occupancy and analysis of the priority-ordered set.
//!
//! [`RtMdm`](crate::RtMdm) wraps a `SystemSpec`, and
//! [`RtMdm::admit`](crate::RtMdm::admit) runs this same pass once and
//! reads its verdict from it: a layout that does not fit is
//! [`AdmitError::Memory`] (ahead of any finding), and any *structural*
//! error refuses admission with [`AdmitError::Check`] (see
//! [`Rule::blocks_admission`](rtmdm_check::Rule::blocks_admission));
//! feasibility lints never block, so an overloaded-but-well-formed set
//! still admits to an unschedulable verdict.

use rtmdm_check::{
    check_model, check_plan, check_platform, check_sram_regions, check_staging, check_taskset,
    check_timing, ExploreLimits, ExploreStats, Finding, Report, Rule, SramRegion, Witness,
};
use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_sched::analysis::{hyperperiod, occupancy_utilization_ppm, AnalysisOutcome};
use rtmdm_sched::assign::{audsley, dm_order, rm_order};
use rtmdm_sched::sim::{Policy, SimConfig};
use rtmdm_sched::{SporadicTask, TaskSet};
use rtmdm_xmem::{ModelSegmentation, PlanError, Strategy, RUNTIME_RESERVE};

use crate::error::AdmitError;
use crate::framework::{
    direct_analysis, scheduler_mode, AdmissionHooks, DirectHooks, FrameworkOptions, Lowered,
    PriorityAssignment, SramRow,
};
use crate::spec::TaskSpec;

/// The result of [`SystemSpec::explore`]: the diagnostic report plus
/// the exploration artifacts when exploration ran.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// All findings — static passes first, exploration verdicts after.
    pub report: Report,
    /// The replayable counterexample behind an `RTM050`–`RTM052`
    /// finding.
    pub witness: Option<Witness>,
    /// Search counters; `None` when exploration did not run (the spec
    /// had blocking structural errors).
    pub explore_stats: Option<ExploreStats>,
}

/// A complete system specification for static verification: the value
/// [`RtMdm`](crate::RtMdm) wraps and admits, but constructible without
/// going through (and being rejected by) `add_task`'s eager validation —
/// the verifier's job is to explain broken specs, not to refuse them.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Target platform (checked, not assumed valid).
    pub platform: PlatformConfig,
    /// Framework options the admission would run with.
    pub options: FrameworkOptions,
    /// Task specifications in insertion order.
    pub tasks: Vec<TaskSpec>,
}

impl SystemSpec {
    /// Creates a spec for `platform` with default options and no tasks.
    pub fn new(platform: PlatformConfig) -> Self {
        SystemSpec::with_options(platform, FrameworkOptions::default())
    }

    /// Creates a spec with explicit options and no tasks.
    pub fn with_options(platform: PlatformConfig, options: FrameworkOptions) -> Self {
        SystemSpec {
            platform,
            options,
            tasks: Vec::new(),
        }
    }

    /// Adds a task specification (no validation — that is `check`'s
    /// job).
    pub fn push(&mut self, spec: TaskSpec) -> &mut Self {
        self.tasks.push(spec);
        self
    }

    /// Runs every static pass and returns the combined report.
    pub fn check(&self) -> Report {
        self.pass(&DirectHooks).report
    }

    /// Lowers every spec as admission does: the set's segment compute
    /// cap is derived once — the explicit option, clamped to at least
    /// one cycle, or a quarter of the shortest deadline — then each spec
    /// goes through `hooks.lower` in insertion order.
    pub(crate) fn lower_all<'a>(
        &'a self,
        hooks: &'a dyn AdmissionHooks,
    ) -> impl Iterator<Item = Result<Lowered, AdmitError>> + 'a {
        let cpu = self.platform.cpu;
        let cap = match self.options.segment_compute_cap_us {
            Some(us) => Some(cpu.cycles_from_micros(us).max(Cycles::new(1))),
            None => self
                .tasks
                .iter()
                .map(|s| cpu.cycles_from_micros(s.deadline_us))
                .min()
                .map(|d| (d / 4).max(Cycles::new(1))),
        };
        self.tasks
            .iter()
            .map(move |spec| hooks.lower(&self.platform, &self.options, spec, cap))
    }

    /// Orders lowered tasks (insertion order) by the configured priority
    /// assignment: the permutation and the reordered set.
    pub(crate) fn order(&self, tasks: Vec<SporadicTask>) -> (Vec<usize>, TaskSet) {
        let ts = TaskSet::from_tasks(tasks);
        let order = match self.options.assignment {
            PriorityAssignment::InsertionOrder => (0..ts.len()).collect(),
            PriorityAssignment::DeadlineMonotonic => dm_order(&ts),
            PriorityAssignment::RateMonotonic => rm_order(&ts),
            PriorityAssignment::Audsley => {
                audsley(&ts, &self.platform, scheduler_mode(&self.options))
                    .unwrap_or_else(|| dm_order(&ts))
            }
        };
        let ordered = ts.reordered(&order);
        (order, ordered)
    }

    /// The one pass over the system: every static pass, plus everything
    /// admission reads — the SRAM layout, and the set lowered, ordered
    /// and analyzed once. Lowering goes through `hooks`, so the
    /// admission service can substitute its lowering memo.
    pub(crate) fn pass(&self, hooks: &dyn AdmissionHooks) -> Pass {
        let mut report = Report::new();

        report.extend(check_platform(&self.platform));

        // Platform-independent passes run unconditionally.
        for spec in &self.tasks {
            report.extend(
                check_model(&spec.model)
                    .into_iter()
                    .map(|f| f.with_task(spec.name.clone())),
            );
            report.extend(check_timing(&spec.name, spec.period_us, spec.deadline_us));
        }
        // Names identify tasks in findings, SRAM regions and traces: a
        // repeated name is reported once, at its first use.
        for (i, spec) in self.tasks.iter().enumerate() {
            let uses = self.tasks[i..]
                .iter()
                .filter(|s| s.name == spec.name)
                .count();
            if uses > 1 && !self.tasks[..i].iter().any(|s| s.name == spec.name) {
                report.push(
                    Finding::new(Rule::Rtm027, format!("{uses} tasks share this name"))
                        .with_task(spec.name.clone()),
                );
            }
        }
        let sram = self.layout_sram();
        if let Err(e) = self.platform.validate() {
            // Cycle conversions and bus timings are meaningless (or
            // divide by zero) on an invalid platform.
            let set = Err(AdmitError::Platform(e));
            return Pass { report, sram, set };
        }

        // Check the plans of each lowered task. Staging-race analysis
        // applies to the pre-spill plan: spill extras are additional
        // staging traffic, not part of the double-buffered weight
        // discipline.
        let mut tasks = Vec::with_capacity(self.tasks.len());
        let mut plans = Vec::with_capacity(self.tasks.len());
        let mut first_error = None;
        for (spec, lowered) in self.tasks.iter().zip(self.lower_all(hooks)) {
            match lowered {
                Ok(lowered) => {
                    report.extend(
                        check_plan(&lowered.pre_plan, &spec.model, &self.options.cost_model)
                            .into_iter()
                            .map(|f| f.with_task(spec.name.clone())),
                    );
                    if lowered.strategy == Strategy::RtMdm {
                        report.extend(
                            check_staging(&lowered.pre_plan, &self.platform)
                                .into_iter()
                                .map(|f| f.with_task(spec.name.clone())),
                        );
                    }
                    tasks.push(lowered.task);
                    plans.push(lowered.plan);
                }
                Err(e) => {
                    // An unrealizable segmentation is a plan error;
                    // timing inconsistencies are already covered by
                    // `check_timing` above.
                    if let AdmitError::Memory(e) = &e {
                        report.push(
                            Finding::new(Rule::Rtm012, e.to_string())
                                .with_task(spec.name.clone())
                                .with_model(spec.model.name().to_owned()),
                        );
                    }
                    first_error.get_or_insert(e);
                }
            }
        }

        // The layout admission places, checked for aliasing and overflow.
        report.extend(match &sram {
            Ok(placement) => check_sram_regions(&placement.regions, self.platform.sram_bytes),
            Err((label, e)) => vec![Finding::new(
                Rule::Rtm004,
                format!("SRAM layout fails at region `{label}`: {e}"),
            )],
        });

        // Set-level lints read admission's analysis, which needs every
        // task lowered.
        let set = match first_error {
            Some(e) => Err(e),
            None if tasks.is_empty() => Err(AdmitError::NoTasks),
            None => {
                let (order, ordered) = self.order(tasks);
                let occupancy_ppm = occupancy_utilization_ppm(&ordered, &self.platform);
                let analysis = direct_analysis(&ordered, &self.platform, &self.options);
                let fp = (self.options.policy != Policy::Edf).then_some(&analysis);
                report.extend(check_taskset(&ordered, &self.platform, occupancy_ppm, fp));
                Ok(AnalyzedSet {
                    order,
                    ordered,
                    plans,
                    analysis,
                    occupancy_ppm,
                })
            }
        };
        Pass { report, sram, set }
    }

    /// Runs the static passes, then — when the spec has no blocking
    /// structural errors — the exhaustive schedule-space explorer over
    /// the lowered, priority-ordered task set under `limits`, with
    /// per-job execution times ranging down to `exec_scale_min_ppm` of
    /// WCET (`1_000_000` pins every job at WCET). The horizon is one
    /// hyperperiod plus the largest deadline, falling back to three
    /// times the largest period when the hyperperiod overflows (a
    /// bounded probe, not full coverage — `RTM025` already flags such
    /// sets), and the staging window is the double buffer's 2.
    ///
    /// Exploration findings (`RTM050`–`RTM053`) are appended to the
    /// report; a violation additionally carries a self-contained
    /// [`Witness`] that replays the violating run byte for byte.
    pub fn explore(&self, limits: &ExploreLimits, exec_scale_min_ppm: u64) -> CheckOutcome {
        let Pass {
            mut report, set, ..
        } = self.pass(&DirectHooks);
        // A structurally broken spec cannot be lowered and simulated;
        // the blocking findings already tell the whole story.
        let Some(AnalyzedSet { ordered, .. }) = set.ok().filter(|_| !report.blocks_admission())
        else {
            return CheckOutcome {
                report,
                witness: None,
                explore_stats: None,
            };
        };
        let config = SimConfig {
            exec_scale_min_ppm,
            work_conserving: self.options.work_conserving,
            fault: self.options.fault,
            attribution: true,
            ..SimConfig::new(auto_horizon(&ordered), self.options.policy)
        };
        let outcome = rtmdm_check::explore(&ordered, &self.platform, &config, limits);
        report.extend(outcome.findings);
        CheckOutcome {
            report,
            witness: outcome.witness,
            explore_stats: Some(outcome.stats),
        }
    }

    /// Lays out SRAM: the runtime reserve, then each task's activation
    /// region and weight region in insertion order, each 8-byte aligned
    /// at the end of the one before (nothing is ever freed, so the
    /// layout is a cursor). Admission reads the rows, the verifier
    /// checks the regions.
    ///
    /// # Errors
    ///
    /// The label of the first region that does not fit, with
    /// [`PlanError::ArenaExhausted`] naming the bytes still free
    /// (alignment padding not counted).
    fn layout_sram(&self) -> Result<SramPlacement, (String, PlanError)> {
        let capacity = self.platform.sram_bytes;
        let (mut cursor, mut used) = (0u64, 0u64);
        let mut regions = Vec::with_capacity(1 + 2 * self.tasks.len());
        let mut place = |label: String, bytes: u64| {
            // A degenerate spec still gets a 1-byte region so layout
            // checking proceeds.
            let bytes = bytes.max(1);
            let fits = |offset: &u64| offset.checked_add(bytes).is_some_and(|end| end <= capacity);
            let Some(offset) = cursor.checked_next_multiple_of(8).filter(fits) else {
                let free = capacity - used;
                return Err((
                    label.clone(),
                    PlanError::ArenaExhausted { label, bytes, free },
                ));
            };
            cursor = offset + bytes;
            used += bytes;
            regions.push(SramRegion::new(label, offset, bytes));
            Ok(bytes)
        };
        place("runtime-reserve".to_owned(), RUNTIME_RESERVE)?;
        let mut rows = Vec::with_capacity(self.tasks.len());
        for spec in &self.tasks {
            let activation_bytes = place(
                format!("{}-activations", spec.name),
                spec.resolved_activation_bytes(),
            )?;
            let weight_bytes = place(
                format!("{}-weights", spec.name),
                weight_region_bytes(&self.options, spec),
            )?;
            rows.push(SramRow {
                task: spec.name.clone(),
                activation_bytes,
                weight_bytes,
            });
        }
        Ok(SramPlacement { rows, regions })
    }
}

/// What [`SystemSpec::pass`] computes: the verifier's report and
/// everything admission reads from it.
pub(crate) struct Pass {
    /// Every static finding.
    pub report: Report,
    /// The SRAM layout, or the label of the first region that does not
    /// fit with its [`PlanError::ArenaExhausted`].
    pub sram: Result<SramPlacement, (String, PlanError)>,
    /// The lowered, ordered and analyzed set, or why there is none: the
    /// platform is invalid, the spec is empty, or a task fails to lower
    /// (the first lowering error, in insertion order).
    pub set: Result<AnalyzedSet, AdmitError>,
}

/// A lowered set in priority order with admission's analysis of it.
pub(crate) struct AnalyzedSet {
    /// Priority permutation over the insertion order.
    pub order: Vec<usize>,
    /// The lowered tasks in priority order.
    pub ordered: TaskSet,
    /// Per-task post-spill segmentation plans, insertion order.
    pub plans: Vec<ModelSegmentation>,
    /// The analysis admission runs (see `direct_analysis`).
    pub analysis: AnalysisOutcome,
    /// Occupancy utilization of the ordered set, in ppm.
    pub occupancy_ppm: u64,
}

/// A placed SRAM layout: admission's per-task rows and the regions the
/// verifier checks.
pub(crate) struct SramPlacement {
    /// Per-task rows, insertion order.
    pub rows: Vec<SramRow>,
    /// Every placed region, the runtime reserve first.
    pub regions: Vec<SramRegion>,
}

/// The SRAM weight region a spec reserves under its effective strategy:
/// a double buffer for streaming strategies, the full parameter
/// footprint for whole-DNN staging and resident weights.
fn weight_region_bytes(options: &FrameworkOptions, spec: &TaskSpec) -> u64 {
    match options.force_strategy.unwrap_or(spec.strategy) {
        Strategy::RtMdm | Strategy::FetchThenCompute => {
            spec.resolved_buffer_bytes().saturating_mul(2)
        }
        Strategy::WholeDnn | Strategy::AllInSram => spec.model.total_weight_bytes().max(1),
    }
}

/// One hyperperiod plus the largest deadline — the synchronous-pattern
/// coverage horizon — or three times the largest period when the
/// hyperperiod overflows the simulation cap, saturating at
/// [`Cycles::MAX`].
fn auto_horizon(ts: &TaskSet) -> Cycles {
    let d_max = ts
        .tasks()
        .iter()
        .map(|t| t.deadline)
        .max()
        .unwrap_or(Cycles::ZERO);
    let p_max = ts
        .tasks()
        .iter()
        .map(|t| t.period)
        .max()
        .unwrap_or(Cycles::ZERO);
    match hyperperiod(ts).and_then(|h| h.checked_add(d_max)) {
        Some(h) => h,
        None => p_max.checked_mul(3).unwrap_or(Cycles::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RtMdm;
    use rtmdm_dnn::zoo;

    fn platform() -> PlatformConfig {
        PlatformConfig::stm32f746_qspi()
    }

    #[test]
    fn shipped_configurations_check_clean() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000));
        let report = spec.check();
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn bad_deadline_is_a_non_blocking_error_free_zone() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 200_000));
        let report = spec.check();
        assert!(report.findings.iter().any(|f| f.rule == Rule::Rtm020));
        assert!(report.blocks_admission());
    }

    #[test]
    fn invalid_platform_reports_rtm040_and_stops() {
        let mut spec = SystemSpec::new(PlatformConfig {
            sram_bytes: 16,
            ..platform()
        });
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        let report = spec.check();
        assert!(report.findings.iter().any(|f| f.rule == Rule::Rtm040));
        assert!(report.findings.iter().all(|f| matches!(
            f.rule,
            Rule::Rtm040 | Rule::Rtm020 | Rule::Rtm021
        ) || f.rule.category()
            == rtmdm_check::Category::Graph));
    }

    #[test]
    fn sram_overflow_is_reported_as_rtm004() {
        let mut spec = SystemSpec::new(PlatformConfig {
            sram_bytes: 48 * 1024,
            ..platform()
        });
        spec.push(
            TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                .with_strategy(Strategy::AllInSram),
        );
        let report = spec.check();
        assert!(
            report.findings.iter().any(|f| f.rule == Rule::Rtm004),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn undersized_buffer_is_reported_as_rtm012() {
        let mut spec = SystemSpec::new(platform());
        spec.push(
            TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                .with_buffer_bytes(4 * 1024),
        );
        let report = spec.check();
        assert!(
            report.findings.iter().any(|f| f.rule == Rule::Rtm012),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn overload_lints_do_not_block_admission() {
        // resnet8 every 10 ms is hopeless but structurally fine: the
        // report carries feasibility lints yet admission still runs to
        // an unschedulable verdict (CLI exit-2 semantics).
        let mut f = RtMdm::new(platform()).expect("platform");
        f.add_task(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000))
            .expect("add");
        let report = f.check();
        assert!(!report.is_clean());
        assert!(!report.blocks_admission(), "{}", report.render_text());
        let admission = f.admit().expect("admission proceeds");
        assert!(!admission.schedulable());
    }

    #[test]
    fn explore_admitted_cell_is_proven_safe() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000));
        let outcome = spec.explore(&ExploreLimits::default(), 1_000_000);
        assert!(
            outcome.report.is_clean(),
            "{}",
            outcome.report.render_text()
        );
        let stats = outcome.explore_stats.expect("exploration ran");
        assert!(stats.complete, "default lattice must be covered");
        assert!(outcome.witness.is_none());
    }

    #[test]
    fn explore_overload_yields_rtm050_with_replayable_witness() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
        let outcome = spec.explore(&ExploreLimits::default(), 1_000_000);
        assert!(
            outcome
                .report
                .findings
                .iter()
                .any(|f| f.rule == Rule::Rtm050),
            "{}",
            outcome.report.render_text()
        );
        assert_replays_miss_at_witness_instant(
            &outcome.witness.expect("violation carries a witness"),
        );
    }

    /// The witness's replay misses its first deadline at `w.at`.
    fn assert_replays_miss_at_witness_instant(w: &Witness) {
        let replay = w.replay();
        let miss = replay
            .trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, rtmdm_mcusim::TraceKind::DeadlineMissed { .. }))
            .expect("replay reproduces the miss");
        assert_eq!(miss.time.get(), w.at);
    }

    #[test]
    fn explore_release_jitter_reaches_a_miss_periodic_releases_do_not() {
        // kws responds in ~19 ms, inside its 25 ms deadline, when it
        // is released on time; released up to 10 ms late, it can
        // complete past the deadline anchored at its nominal release.
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 25_000));
        let periodic = spec.explore(&ExploreLimits::default(), 1_000_000);
        assert!(
            periodic.report.is_clean(),
            "{}",
            periodic.report.render_text()
        );
        assert!(periodic.explore_stats.expect("exploration ran").complete);
        let jittered = spec.explore(
            &ExploreLimits {
                jitter_max_cycles: platform().cpu.cycles_from_micros(10_000).get(),
                ..ExploreLimits::default()
            },
            1_000_000,
        );
        assert!(
            jittered
                .report
                .findings
                .iter()
                .any(|f| f.rule == Rule::Rtm050),
            "{}",
            jittered.report.render_text()
        );
        let w = jittered
            .witness
            .expect("the jittered miss carries a witness");
        assert_eq!(w.rule, "RTM050");
        assert_replays_miss_at_witness_instant(&w);
    }

    #[test]
    fn explore_skips_structurally_broken_specs() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 200_000));
        let outcome = spec.explore(&ExploreLimits::default(), 1_000_000);
        assert!(outcome.report.blocks_admission());
        assert!(outcome.explore_stats.is_none(), "nothing to simulate");
        assert!(outcome.witness.is_none());
    }

    #[test]
    fn repeated_names_are_reported_once_each_and_block_exploration() {
        let mut spec = SystemSpec::new(platform());
        for name in ["t", "u", "t", "t", "u", "v"] {
            spec.push(TaskSpec::new(name, zoo::ds_cnn(), 100_000, 100_000));
        }
        let outcome = spec.explore(&ExploreLimits::default(), 1_000_000);
        let repeats: Vec<_> = outcome
            .report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Rtm027)
            .map(|f| (f.task.as_deref(), f.message.as_str()))
            .collect();
        assert_eq!(
            repeats,
            [
                (Some("t"), "3 tasks share this name"),
                (Some("u"), "2 tasks share this name"),
            ]
        );
        assert!(outcome.report.blocks_admission());
        assert!(outcome.explore_stats.is_none(), "nothing to simulate");
    }

    #[test]
    fn framework_check_matches_system_spec_check() {
        let mut f = RtMdm::new(platform()).expect("platform");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("add");
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        assert_eq!(f.check().to_json(), spec.check().to_json());
    }
}
