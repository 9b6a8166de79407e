//! The RT-MDM framework: admission control and execution.

use serde::{Deserialize, Serialize};

use rtmdm_check::Report;
use rtmdm_dnn::CostModel;
use rtmdm_mcusim::{Cycles, FaultPlan, PlatformConfig};
use rtmdm_mcusim::{EnergyModel, EnergyReport};
use rtmdm_sched::analysis::{
    edf_demand_test, rta_limited_preemption_with, rta_memory_oblivious, AnalysisOutcome,
    SchedulerMode,
};
use rtmdm_sched::baseline;
use rtmdm_sched::sim::{simulate, Policy, SimConfig, SimResult};
use rtmdm_sched::{MissPolicy, Segment, SporadicTask, StagingMode, TaskSet};
use rtmdm_xmem::{check_buffer_fits, ModelSegmentation, RUNTIME_RESERVE};

use crate::check::{AnalyzedSet, SystemSpec};
use crate::error::AdmitError;
use crate::report;
use crate::spec::{Strategy, TaskSpec};

/// How priorities are assigned before analysis and simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum PriorityAssignment {
    /// Deadline-monotonic (the framework default).
    #[default]
    DeadlineMonotonic,
    /// Rate-monotonic.
    RateMonotonic,
    /// The order tasks were added in.
    InsertionOrder,
    /// Audsley's optimal assignment over the RT-MDM analysis; falls
    /// back to deadline-monotonic when no feasible assignment exists
    /// (admission will then report unschedulable).
    Audsley,
}

/// Framework configuration knobs (also the levers of the ablation
/// study, experiment F8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameworkOptions {
    /// CPU/DMA scheduling policy.
    pub policy: Policy,
    /// Priority-assignment rule (fixed-priority policies only).
    pub assignment: PriorityAssignment,
    /// Cost model translating layers into cycles.
    pub cost_model: CostModel,
    /// When `false`, admission uses the memory-oblivious analysis
    /// (ablation (iii): demonstrates unsound admission).
    pub dma_aware_analysis: bool,
    /// When set, every task's strategy is overridden (ablation (i)/(ii):
    /// force `FetchThenCompute` to disable prefetch, `WholeDnn` to
    /// disable segment-level preemption).
    pub force_strategy: Option<Strategy>,
    /// Dispatch discipline: `false` (default) is RT-MDM's priority-gated
    /// non-work-conserving rule; `true` is work-conserving dispatch
    /// (ablation (iv): repeated lower-priority blocking).
    pub work_conserving: bool,
    /// Cap on any segment's compute time, in microseconds. `None`
    /// (default) derives the cap automatically as a quarter of the
    /// shortest deadline in the set, which bounds the non-preemptive
    /// blocking any task can impose.
    pub segment_compute_cap_us: Option<u64>,
    /// When `true` (default), layers whose compute alone exceeds the
    /// segment cap are tiled into row-slices with intra-layer preemption
    /// points, lifting the blocking floor of layer granularity.
    pub tile_oversized_layers: bool,
    /// The fault environment the simulator injects and admission charges
    /// for ([`FaultPlan::NONE`] by default — provably free when
    /// inactive).
    pub fault: FaultPlan,
    /// Framework-wide deadline-miss policy; individual specs can
    /// override it via [`TaskSpec::with_miss_policy`].
    pub miss_policy: MissPolicy,
    /// When `true`, simulation traces carry the causal-attribution
    /// anchor events the blame reconstruction (`rtmdm-obs`) consumes.
    /// `false` (the default) keeps traces byte-identical to
    /// pre-attribution output; stats and metrics are unaffected either
    /// way.
    pub attribution: bool,
}

impl Default for FrameworkOptions {
    fn default() -> Self {
        FrameworkOptions {
            policy: Policy::FixedPriority,
            assignment: PriorityAssignment::DeadlineMonotonic,
            cost_model: CostModel::cmsis_nn_m7(),
            dma_aware_analysis: true,
            force_strategy: None,
            work_conserving: false,
            segment_compute_cap_us: None,
            tile_oversized_layers: true,
            fault: FaultPlan::NONE,
            miss_policy: MissPolicy::Continue,
            attribution: false,
        }
    }
}

/// The RT-MDM framework instance: a platform, a set of DNN task
/// specifications, admission control, and a simulator binding.
///
/// # Examples
///
/// ```rust
/// use rtmdm_core::{RtMdm, TaskSpec};
/// use rtmdm_dnn::zoo;
/// use rtmdm_mcusim::PlatformConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fw = RtMdm::new(PlatformConfig::stm32f746_qspi())?;
/// fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))?;
/// let admission = fw.admit()?;
/// assert!(admission.schedulable());
/// let run = fw.simulate(1_000_000)?;
/// assert_eq!(run.deadline_misses(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RtMdm {
    /// The platform, options, and specs admission runs on — the same
    /// value [`RtMdm::check`] verifies, so nothing is copied to check it.
    sys: SystemSpec,
}

impl RtMdm {
    /// Creates a framework with default options.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::Platform`] if the platform is invalid.
    pub fn new(platform: PlatformConfig) -> Result<Self, AdmitError> {
        RtMdm::with_options(platform, FrameworkOptions::default())
    }

    /// Creates a framework with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::Platform`] if the platform is invalid.
    pub fn with_options(
        platform: PlatformConfig,
        options: FrameworkOptions,
    ) -> Result<Self, AdmitError> {
        RtMdm::try_from(SystemSpec::with_options(platform, options))
    }

    /// The platform this framework targets.
    pub fn platform(&self) -> &PlatformConfig {
        &self.sys.platform
    }

    /// The active options.
    pub fn options(&self) -> &FrameworkOptions {
        &self.sys.options
    }

    /// The task specifications added so far.
    pub fn specs(&self) -> &[TaskSpec] {
        &self.sys.tasks
    }

    /// Adds a DNN task. Fails fast on duplicate names, inconsistent
    /// timing, or a model whose largest layer exceeds its fetch buffer.
    ///
    /// # Errors
    ///
    /// [`AdmitError::DuplicateName`], [`AdmitError::Task`], or
    /// [`AdmitError::Memory`].
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<(), AdmitError> {
        let sys = &mut self.sys;
        if sys.tasks.iter().any(|s| s.name == spec.name) {
            return Err(AdmitError::DuplicateName {
                name: spec.name.clone(),
            });
        }
        // Check the fetch buffer eagerly so the caller learns about an
        // undersized buffer at add time, not at admission.
        check_buffer_fits(&spec.model, spec.resolved_buffer_bytes())?;
        // Validate timing by constructing a throwaway task.
        let period = sys.platform.cpu.cycles_from_micros(spec.period_us);
        let deadline = sys.platform.cpu.cycles_from_micros(spec.deadline_us);
        let _ = SporadicTask::new(
            spec.name.clone(),
            period,
            deadline,
            vec![Segment::new(Cycles::new(1), 0)],
            StagingMode::Resident,
        )?;
        sys.tasks.push(spec);
        Ok(())
    }

    /// Replaces every spec's strategy (advisor support).
    ///
    /// # Panics
    ///
    /// Panics if `strategies.len()` differs from the task count.
    pub(crate) fn set_strategies(&mut self, strategies: &[Strategy]) {
        assert_eq!(strategies.len(), self.sys.tasks.len());
        for (spec, &s) in self.sys.tasks.iter_mut().zip(strategies) {
            spec.strategy = s;
        }
    }

    /// Runs the static verifier over this framework's platform, options,
    /// and task specifications. [`RtMdm::admit`] runs it too and rejects
    /// on error-level structural findings.
    pub fn check(&self) -> Report {
        self.sys.check()
    }

    /// Runs admission control: SRAM layout, static verification, and
    /// the schedulability analysis.
    ///
    /// # Errors
    ///
    /// [`AdmitError::NoTasks`] on an empty framework, memory/task errors
    /// from planning, or [`AdmitError::Check`] when the static verifier
    /// (see [`RtMdm::check`]) reports error-level structural findings.
    /// An admission that *fails the analysis* is not an error — inspect
    /// [`Admission::schedulable`].
    pub fn admit(&self) -> Result<Admission, AdmitError> {
        self.admit_hooked(&DirectHooks)
            .map(|(admission, _, _)| admission)
            .map_err(|(e, _)| e)
    }

    /// [`RtMdm::admit`] with lowering routed through `hooks` (the
    /// admission service substitutes its memoized version),
    /// additionally returning the lowered, priority-ordered task set —
    /// so the caller can run follow-up analyses (e.g. sensitivity)
    /// without re-lowering — and the verifier report, which a refusal
    /// carries too.
    ///
    /// Admission reads everything from one [`SystemSpec`] pass: each
    /// spec is lowered, the set ordered, placed in SRAM and analyzed
    /// once, and the verifier's lints read that same analysis.
    pub(crate) fn admit_hooked(
        &self,
        hooks: &dyn AdmissionHooks,
    ) -> Result<(Admission, TaskSet, Report), (AdmitError, Report)> {
        let sys = &self.sys;
        let pass = sys.pass(hooks);
        let report = pass.report;
        if sys.tasks.is_empty() {
            return Err((AdmitError::NoTasks, report));
        }
        // A set that does not fit fails on memory, not on the findings
        // its layout also produces.
        let sram = match pass.sram {
            Ok(placement) => placement.rows,
            Err((_, e)) => return Err((AdmitError::Memory(e), report)),
        };
        if report.blocks_admission() {
            return Err((AdmitError::Check(report.clone()), report));
        }
        let AnalyzedSet {
            order,
            ordered,
            plans,
            mut analysis,
            occupancy_ppm,
        } = match pass.set {
            Ok(set) => set,
            Err(e) => return Err((e, report)),
        };
        // Retry-budget admission: under an active fault plan each task
        // must still meet its deadline after paying the worst tolerated
        // re-fetch pattern (bounded by `max_retries` per transfer).
        // Resident tasks stage nothing and are immune. EDF yields no
        // per-task bounds, so its verdict cannot be budget-adjusted —
        // a documented limitation of the demand test.
        let fault = &sys.options.fault;
        let retry_budgets: Vec<Cycles> = ordered
            .tasks()
            .iter()
            .map(|t| {
                if t.mode == StagingMode::Resident {
                    return Cycles::ZERO;
                }
                t.segments
                    .iter()
                    .map(|s| sys.platform.ext_mem.transfer_cycles(s.fetch_bytes))
                    .filter(|transfer| !transfer.is_zero())
                    .map(|transfer| fault.worst_case_extra(transfer))
                    .fold(Cycles::ZERO, Cycles::saturating_add)
            })
            .collect();
        if fault.is_active() {
            analysis.schedulable = analysis.schedulable
                && ordered.tasks().iter().enumerate().all(|(p, t)| {
                    analysis
                        .response_of(p)
                        .is_none_or(|r| r.saturating_add(retry_budgets[p]) <= t.deadline)
                });
        }
        let admission = Admission {
            order,
            names: ordered.tasks().iter().map(|t| t.name.clone()).collect(),
            deadlines: ordered.tasks().iter().map(|t| t.deadline).collect(),
            policy: sys.options.policy,
            analysis,
            sram,
            occupancy_ppm,
            plans,
            retry_budgets,
        };
        Ok((admission, ordered, report))
    }

    /// Simulates the task set for `horizon_us` microseconds at
    /// worst-case execution times.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RtMdm::admit`].
    pub fn simulate(&self, horizon_us: u64) -> Result<RunReport, AdmitError> {
        self.simulate_with(horizon_us, 1_000_000, 0)
    }

    /// Simulates with execution-time variation: each job draws a scale
    /// uniformly from `[exec_scale_min_ppm, 1e6]` using `seed`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RtMdm::admit`].
    pub fn simulate_with(
        &self,
        horizon_us: u64,
        exec_scale_min_ppm: u64,
        seed: u64,
    ) -> Result<RunReport, AdmitError> {
        let sys = &self.sys;
        if sys.tasks.is_empty() {
            return Err(AdmitError::NoTasks);
        }
        let tasks = sys
            .lower_all(&DirectHooks)
            .map(|lowered| lowered.map(|l| l.task))
            .collect::<Result<Vec<_>, _>>()?;
        let (_, ordered) = sys.order(tasks);
        let config = SimConfig {
            exec_scale_min_ppm,
            seed,
            work_conserving: sys.options.work_conserving,
            fault: sys.options.fault,
            attribution: sys.options.attribution,
            ..SimConfig::new(
                sys.platform.cpu.cycles_from_micros(horizon_us),
                sys.options.policy,
            )
        };
        let result = simulate(&ordered, &sys.platform, &config);
        Ok(RunReport {
            names: ordered.tasks().iter().map(|t| t.name.clone()).collect(),
            cpu: sys.platform.cpu,
            result,
        })
    }
}

/// Validates a whole system into a framework: the platform first, then
/// each task in insertion order through [`RtMdm::add_task`]'s checks,
/// failing on the first error. The CLI and the admission service both
/// build through it, and [`RtMdm::with_options`] is it on an empty
/// system.
impl TryFrom<SystemSpec> for RtMdm {
    type Error = AdmitError;

    fn try_from(mut sys: SystemSpec) -> Result<RtMdm, AdmitError> {
        sys.platform.validate()?;
        let tasks = std::mem::take(&mut sys.tasks);
        let mut fw = RtMdm { sys };
        for spec in tasks {
            fw.add_task(spec)?;
        }
        Ok(fw)
    }
}

/// One spec lowered to scheduler form: its segmentation before and
/// after activation-spill pricing, plus the strategy-transformed task.
/// Admission reads the post-spill plan and the task; the static
/// verifier reads the pre-spill plan (spill extras are staging traffic,
/// not part of the double-buffered weight discipline). `Clone` so the
/// admission service can hand out cached copies of the artifact.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    /// Segmentation as planned, before spill extras.
    pub pre_plan: ModelSegmentation,
    /// Segmentation with spill traffic priced in (what execution uses).
    pub plan: ModelSegmentation,
    /// The strategy-transformed sporadic task.
    pub task: SporadicTask,
    /// The effective strategy (after any forced override).
    pub strategy: Strategy,
}

/// The substitution point of the admission pipeline: lowering specs to
/// scheduler form. The default implementation computes directly; the
/// admission service overrides it with a content-addressed cache (see
/// `crate::service`) shared across queries. `Sync` because the service
/// shards query batches across worker threads that share one hook
/// instance.
pub(crate) trait AdmissionHooks: Sync {
    /// Lowers one spec (defaults to [`lower_spec`]).
    fn lower(
        &self,
        platform: &PlatformConfig,
        options: &FrameworkOptions,
        spec: &TaskSpec,
        cap: Option<Cycles>,
    ) -> Result<Lowered, AdmitError> {
        lower_spec(platform, options, spec, cap)
    }
}

/// The hook set every one-shot entry point uses: no caching, straight
/// computation.
pub(crate) struct DirectHooks;

impl AdmissionHooks for DirectHooks {}

/// The dispatch discipline the options select.
pub(crate) fn scheduler_mode(options: &FrameworkOptions) -> SchedulerMode {
    if options.work_conserving {
        SchedulerMode::WorkConserving
    } else {
        SchedulerMode::Gated
    }
}

/// The schedulability analysis admission runs on the priority-ordered
/// set, selected by policy and analysis options.
pub(crate) fn direct_analysis(
    ordered: &TaskSet,
    platform: &PlatformConfig,
    options: &FrameworkOptions,
) -> AnalysisOutcome {
    let mode = scheduler_mode(options);
    match options.policy {
        Policy::Edf => AnalysisOutcome {
            // The EDF processor-demand test yields a yes/no verdict,
            // not per-task bounds.
            schedulable: edf_demand_test(ordered, platform),
            response: vec![None; ordered.len()],
        },
        Policy::FixedPriority if options.dma_aware_analysis => {
            rta_limited_preemption_with(ordered, platform, mode)
        }
        Policy::FixedPriority => rta_memory_oblivious(ordered, platform),
        // Policy is non_exhaustive upstream; treat unknown policies
        // like fixed priority.
        _ => rta_limited_preemption_with(ordered, platform, mode),
    }
}

/// Lowers one spec: segmentation (tiled or capped), activation-spill
/// pricing, and the strategy transformation into a [`SporadicTask`].
pub(crate) fn lower_spec(
    platform: &PlatformConfig,
    options: &FrameworkOptions,
    spec: &TaskSpec,
    cap: Option<Cycles>,
) -> Result<Lowered, AdmitError> {
    let pre_plan = match (cap, options.tile_oversized_layers) {
        (Some(cap), true) => rtmdm_xmem::segment_model_tiled(
            &spec.model,
            &options.cost_model,
            spec.resolved_buffer_bytes(),
            cap,
        )?,
        _ => rtmdm_xmem::segment_model_capped(
            &spec.model,
            &options.cost_model,
            spec.resolved_buffer_bytes(),
            cap,
        )?,
    };
    // Activation spilling: a capped activation budget turns oversized
    // feature maps into extra staging traffic, priced into the segment
    // that produces each spilled tensor.
    let mut plan = pre_plan.clone();
    if let Some(budget) = spec.activation_budget_bytes {
        let spill = rtmdm_xmem::spill::plan_spill(&spec.model, budget);
        for &layer in &spill.spilled_layers {
            let extra = 2 * spec.model.nodes()[layer].out_shape.len() as u64;
            if let Some(s) = plan
                .segments
                .iter_mut()
                .find(|s| s.first_layer <= layer && layer <= s.last_layer)
            {
                s.fetch_bytes += extra;
            }
        }
    }
    let segments: Vec<Segment> = plan
        .segments
        .iter()
        .map(|s| Segment::new(s.compute_cycles, s.fetch_bytes))
        .collect();
    let base = SporadicTask::new(
        spec.name.clone(),
        platform.cpu.cycles_from_micros(spec.period_us),
        platform.cpu.cycles_from_micros(spec.deadline_us),
        segments,
        StagingMode::Overlapped,
    )?;
    let strategy = options.force_strategy.unwrap_or(spec.strategy);
    let task = match strategy {
        Strategy::RtMdm => base,
        Strategy::FetchThenCompute => baseline::fetch_then_compute(&base, platform),
        Strategy::WholeDnn => baseline::whole_job(&baseline::fetch_then_compute(&base, platform)),
        Strategy::AllInSram => baseline::resident(&base),
    }
    .with_miss_policy(spec.miss_policy.unwrap_or(options.miss_policy));
    Ok(Lowered {
        pre_plan,
        plan,
        task,
        strategy,
    })
}

/// One SRAM-plan row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramRow {
    /// Task name.
    pub task: String,
    /// Activation scratch bytes.
    pub activation_bytes: u64,
    /// Weight-buffer bytes (double buffer, or full footprint for
    /// whole-DNN/resident strategies).
    pub weight_bytes: u64,
}

/// Outcome of admission control.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Admission {
    /// Priority permutation over the insertion order.
    pub order: Vec<usize>,
    /// Task names in priority order.
    pub names: Vec<String>,
    /// Relative deadlines in priority order.
    pub deadlines: Vec<Cycles>,
    /// Policy the admission was computed for.
    pub policy: Policy,
    /// The schedulability analysis outcome (priority order).
    pub analysis: AnalysisOutcome,
    /// SRAM plan rows (insertion order).
    pub sram: Vec<SramRow>,
    /// Occupancy utilization in ppm.
    pub occupancy_ppm: u64,
    /// Per-task segmentation plans (insertion order).
    pub plans: Vec<ModelSegmentation>,
    /// Worst-case extra staging cycles each task may pay for bounded
    /// re-fetches under the configured fault plan (priority order; all
    /// zero when the plan is inactive).
    pub retry_budgets: Vec<Cycles>,
}

impl Admission {
    /// Whether the task set passed both memory planning and the timing
    /// analysis (with retry budgets charged when a fault plan is
    /// active).
    pub fn schedulable(&self) -> bool {
        self.analysis.schedulable
    }

    /// The retry budget of priority `p`, zero when none was computed
    /// (inactive fault plan, or an admission deserialized from an older
    /// schema).
    pub fn retry_budget_of(&self, p: usize) -> Cycles {
        self.retry_budgets.get(p).copied().unwrap_or(Cycles::ZERO)
    }

    /// Total SRAM the plan consumes (activations + weight buffers +
    /// runtime reserve).
    pub fn sram_total(&self) -> u64 {
        RUNTIME_RESERVE
            + self
                .sram
                .iter()
                .map(|r| r.activation_bytes + r.weight_bytes)
                .sum::<u64>()
    }

    /// Whether priority `p` meets its deadline: its bound plus its retry
    /// budget fits, or — under EDF, which yields no bounds — the
    /// set-level verdict holds.
    pub fn meets(&self, p: usize) -> bool {
        match (self.policy, self.analysis.response_of(p)) {
            (_, Some(r)) => r.saturating_add(self.retry_budget_of(p)) <= self.deadlines[p],
            (Policy::Edf, None) => self.analysis.schedulable,
            (_, None) => false,
        }
    }

    /// Renders the admission report as an ASCII table.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .names
            .iter()
            .enumerate()
            .map(|(p, name)| {
                vec![
                    p.to_string(),
                    name.clone(),
                    self.deadlines[p].to_string(),
                    match (self.policy, self.analysis.response_of(p)) {
                        (_, Some(r)) => r.to_string(),
                        (Policy::Edf, None) => "n/a (edf)".to_owned(),
                        (_, None) => "diverged".to_owned(),
                    },
                    if self.meets(p) { "yes" } else { "NO" }.to_owned(),
                ]
            })
            .collect();
        report::table(&["prio", "task", "deadline", "wcrt-bound", "meets"], &rows)
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Task names in priority order (aligned with stats).
    pub names: Vec<String>,
    /// Clock for time conversions.
    pub cpu: rtmdm_mcusim::Frequency,
    /// Raw simulation result.
    pub result: SimResult,
}

impl RunReport {
    /// Total deadline misses across tasks.
    pub fn deadline_misses(&self) -> u64 {
        self.result.total_misses()
    }

    /// The largest observed response of a task, by name.
    pub fn max_response_of(&self, name: &str) -> Option<Cycles> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(self.result.max_response_of(idx))
    }

    /// Energy accounting of the run under an [`EnergyModel`]. The
    /// report is trace-based: CPU-active cycles from segment events,
    /// staged bytes from fetch events (strategies that busy-wait their
    /// staging show it as CPU-active energy instead).
    pub fn energy(&self, model: &EnergyModel) -> EnergyReport {
        model.account(&self.result.trace, self.result.horizon)
    }

    /// Renders per-task statistics as an ASCII table.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .names
            .iter()
            .zip(&self.result.stats)
            .map(|(name, s)| {
                vec![
                    name.clone(),
                    s.releases.to_string(),
                    s.completions.to_string(),
                    s.misses.to_string(),
                    report::cycles_as_ms(s.max_response, self.cpu),
                    s.preemptions.to_string(),
                ]
            })
            .collect();
        report::table(
            &[
                "task",
                "released",
                "completed",
                "misses",
                "max-response",
                "preempted",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::zoo;
    use rtmdm_xmem::PlanError;

    fn fw() -> RtMdm {
        RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform")
    }

    #[test]
    fn quickstart_flow_admits_and_runs_clean() {
        let mut f = fw();
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("add");
        let admission = f.admit().expect("admit");
        assert!(admission.schedulable(), "{}", admission.to_table());
        let run = f.simulate(1_000_000).expect("simulate");
        assert_eq!(run.deadline_misses(), 0);
        assert!(run.max_response_of("kws").is_some());
        // The analytical bound dominates the observed maximum.
        let bound = admission.analysis.response_of(0).expect("bound");
        assert!(bound >= run.max_response_of("kws").expect("observed"));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut f = fw();
        f.add_task(TaskSpec::new("a", zoo::micro_mlp(), 1_000, 1_000))
            .expect("add");
        let err = f
            .add_task(TaskSpec::new("a", zoo::micro_mlp(), 1_000, 1_000))
            .unwrap_err();
        assert!(matches!(err, AdmitError::DuplicateName { .. }));
    }

    #[test]
    fn undersized_buffer_fails_at_add_time() {
        let mut f = fw();
        let err = f
            .add_task(
                TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                    .with_buffer_bytes(4 * 1024),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            AdmitError::Memory(PlanError::LayerTooLarge { .. })
        ));
    }

    #[test]
    fn bad_timing_fails_at_add_time() {
        let mut f = fw();
        let err = f
            .add_task(TaskSpec::new("a", zoo::micro_mlp(), 1_000, 2_000))
            .unwrap_err();
        assert!(matches!(err, AdmitError::Task(_)));
    }

    #[test]
    fn empty_framework_cannot_admit_or_simulate() {
        let f = fw();
        assert!(matches!(f.admit(), Err(AdmitError::NoTasks)));
        assert!(matches!(f.simulate(1000), Err(AdmitError::NoTasks)));
    }

    #[test]
    fn sram_overflow_is_reported() {
        let platform = PlatformConfig::stm32f746_qspi().with_sram_bytes(48 * 1024);
        let mut f = RtMdm::new(platform).expect("platform");
        f.add_task(
            TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                .with_strategy(Strategy::AllInSram),
        )
        .expect("add");
        let err = f.admit().unwrap_err();
        assert!(matches!(err, AdmitError::Memory(_)), "{err}");
    }

    #[test]
    fn deadline_monotonic_ordering_is_applied() {
        let mut f = fw();
        f.add_task(TaskSpec::new("slow", zoo::lenet5(), 500_000, 500_000))
            .expect("add");
        f.add_task(TaskSpec::new("fast", zoo::micro_mlp(), 10_000, 10_000))
            .expect("add");
        let admission = f.admit().expect("admit");
        assert_eq!(admission.names[0], "fast");
        assert_eq!(admission.order, vec![1, 0]);
    }

    #[test]
    fn forced_strategy_overrides_specs() {
        let options = FrameworkOptions {
            force_strategy: Some(Strategy::WholeDnn),
            ..FrameworkOptions::default()
        };
        let mut f =
            RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("add");
        let run = f.simulate(500_000).expect("simulate");
        // Whole-DNN: exactly one segment per job → no preemptions ever.
        assert_eq!(
            run.result.stats.iter().map(|s| s.preemptions).sum::<u64>(),
            0
        );
    }

    #[test]
    fn memory_oblivious_admission_can_be_fooled() {
        // A fetch-dominated task: staging makes it unschedulable, but
        // the oblivious analysis happily admits it.
        // The autoencoder is fetch-dominated on QSPI: ≈268 kB of weights
        // at 5 cycles/byte is ≈1.4 M cycles of staging versus ≈0.5 M of
        // compute. A 4 ms period (800 k cycles at 200 MHz) leaves room
        // for the compute but not for the staging.
        let platform = PlatformConfig::stm32f746_qspi();
        let period_us = 4_000;
        let mk = |aware: bool| {
            let options = FrameworkOptions {
                dma_aware_analysis: aware,
                ..FrameworkOptions::default()
            };
            let mut f = RtMdm::with_options(platform.clone(), options).expect("platform");
            f.add_task(TaskSpec::new(
                "ae",
                zoo::autoencoder(),
                period_us,
                period_us,
            ))
            .expect("add");
            f.admit().expect("admit")
        };
        assert!(!mk(true).schedulable(), "sound analysis must reject");
        assert!(mk(false).schedulable(), "oblivious analysis admits");
    }

    #[test]
    fn activation_budget_triggers_spilling() {
        // mobilenet's peak feature map is 36 kB; a 32 kB budget forces
        // spilling, which shows up as extra staged bytes and a smaller
        // SRAM reservation.
        let spec_full = TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000);
        let spec_budget = spec_full.clone().with_activation_budget(32 * 1024);
        let fetch_of = |spec: TaskSpec| {
            let mut f = fw();
            f.add_task(spec).expect("add");
            let admission = f.admit().expect("admit");
            (
                admission.plans[0].total_fetch_bytes(),
                admission.sram[0].activation_bytes,
            )
        };
        let (fetch_full, act_full) = fetch_of(spec_full);
        let (fetch_budget, act_budget) = fetch_of(spec_budget);
        assert!(fetch_budget > fetch_full, "spilling adds staging traffic");
        assert!(act_budget < act_full, "budget shrinks the reservation");
        assert_eq!(act_budget, 32 * 1024);
    }

    #[test]
    fn spilled_runs_remain_sound() {
        let mut f = fw();
        f.add_task(
            TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                .with_activation_budget(32 * 1024),
        )
        .expect("add");
        let admission = f.admit().expect("admit");
        assert!(admission.schedulable(), "{}", admission.to_table());
        let run = f.simulate(2_000_000).expect("simulate");
        assert_eq!(run.deadline_misses(), 0);
        let bound = admission.analysis.response_of(0).expect("bound");
        assert!(bound >= run.max_response_of("vww").expect("ran"));
    }

    #[test]
    fn edf_admission_gives_a_verdict_without_bounds() {
        let options = FrameworkOptions {
            policy: rtmdm_sched::sim::Policy::Edf,
            ..FrameworkOptions::default()
        };
        let mut f =
            RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        f.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
            .expect("ic");
        let admission = f.admit().expect("admit");
        assert!(admission.schedulable(), "{}", admission.to_table());
        assert!(admission.analysis.response.iter().all(Option::is_none));
        assert!(admission.to_table().contains("n/a (edf)"));
        // EDF admission is honoured by the EDF runtime.
        let run = f.simulate(2_000_000).expect("simulate");
        assert_eq!(run.deadline_misses(), 0);
    }

    #[test]
    fn tiling_lifts_the_blocking_floor() {
        // A 10 ms control deadline next to resnet8 is infeasible at
        // layer granularity (its widest conv computes for ≈15 ms) but
        // admissible once oversized layers are tiled.
        let build = |tiling: bool| {
            let options = FrameworkOptions {
                tile_oversized_layers: tiling,
                ..FrameworkOptions::default()
            };
            let mut f =
                RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
            f.add_task(TaskSpec::new("control", zoo::micro_mlp(), 10_000, 10_000))
                .expect("control");
            f.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
                .expect("ic");
            f
        };
        assert!(!build(false).admit().expect("admit").schedulable());
        let tiled = build(true);
        let admission = tiled.admit().expect("admit");
        assert!(admission.schedulable(), "{}", admission.to_table());
        let run = tiled.simulate(4_000_000).expect("simulate");
        assert_eq!(run.deadline_misses(), 0);
        // Bound dominance still holds with tiled continuation segments.
        let idx = admission.names.iter().position(|n| n == "control").unwrap();
        let bound = admission.analysis.response_of(idx).expect("bound");
        assert!(bound >= run.max_response_of("control").expect("ran"));
    }

    #[test]
    fn inactive_fault_plan_leaves_admission_untouched() {
        let mk = |fault: FaultPlan| {
            let options = FrameworkOptions {
                fault,
                ..FrameworkOptions::default()
            };
            let mut f =
                RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
            f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
                .expect("add");
            f.admit().expect("admit")
        };
        let plain = mk(FaultPlan::NONE);
        // Zero rate and zero jitter with any seed/retry bound: free.
        let idle = mk(FaultPlan {
            seed: 1234,
            dma_fault_rate_ppm: 0,
            max_retries: 9,
            jitter_max_cycles: 0,
        });
        assert_eq!(plain.to_table(), idle.to_table());
        assert_eq!(plain.analysis, idle.analysis);
        assert!(idle.retry_budgets.iter().all(|b| b.is_zero()));
    }

    #[test]
    fn retry_budget_charges_slack_and_can_flip_admission() {
        let mk = |fault: FaultPlan| {
            let options = FrameworkOptions {
                fault,
                ..FrameworkOptions::default()
            };
            let mut f =
                RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
            f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
                .expect("add");
            f.admit().expect("admit")
        };
        assert!(mk(FaultPlan::NONE).schedulable());
        // A modest plan leaves plenty of slack: still schedulable, but
        // the budget is visible and positive.
        let modest = mk(FaultPlan::with_rate(7, 1_000));
        assert!(modest.schedulable(), "{}", modest.to_table());
        assert!(modest.retry_budget_of(0) > Cycles::ZERO);
        // A pathological plan (huge per-attempt jitter) exhausts the
        // slack: same task set, admission now refuses.
        let harsh = mk(FaultPlan {
            seed: 7,
            dma_fault_rate_ppm: 1_000,
            max_retries: 3,
            jitter_max_cycles: 2_000_000,
        });
        assert!(!harsh.schedulable(), "{}", harsh.to_table());
        assert!(harsh.to_table().contains("NO"));
    }

    #[test]
    fn resident_tasks_carry_no_retry_budget() {
        let options = FrameworkOptions {
            fault: FaultPlan::with_rate(3, 10_000),
            ..FrameworkOptions::default()
        };
        let mut f =
            RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
        f.add_task(
            TaskSpec::new("ctl", zoo::micro_mlp(), 10_000, 10_000)
                .with_strategy(Strategy::AllInSram),
        )
        .expect("ctl");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        let admission = f.admit().expect("admit");
        let ctl = admission.names.iter().position(|n| n == "ctl").unwrap();
        let kws = admission.names.iter().position(|n| n == "kws").unwrap();
        assert_eq!(admission.retry_budget_of(ctl), Cycles::ZERO);
        assert!(admission.retry_budget_of(kws) > Cycles::ZERO);
    }

    #[test]
    fn miss_policy_flows_from_options_and_spec_override() {
        let options = FrameworkOptions {
            miss_policy: MissPolicy::Abort,
            ..FrameworkOptions::default()
        };
        let mut f =
            RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        f.add_task(
            TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000)
                .with_miss_policy(MissPolicy::SkipNextRelease),
        )
        .expect("ic");
        let tasks: Vec<SporadicTask> = f
            .sys
            .lower_all(&DirectHooks)
            .map(|l| l.expect("lowers").task)
            .collect();
        let policy_of = |name: &str| {
            tasks
                .iter()
                .find(|t| t.name == name)
                .map(|t| t.miss_policy)
                .unwrap()
        };
        assert_eq!(policy_of("kws"), MissPolicy::Abort);
        assert_eq!(policy_of("ic"), MissPolicy::SkipNextRelease);
    }

    #[test]
    fn fault_options_thread_into_simulation() {
        let options = FrameworkOptions {
            fault: FaultPlan::with_rate(11, 500_000),
            ..FrameworkOptions::default()
        };
        let mut f =
            RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("add");
        let a = f.simulate(500_000).expect("simulate");
        let b = f.simulate(500_000).expect("simulate");
        assert!(a.result.metrics.injected_faults > 0, "faults must fire");
        assert_eq!(a.result.metrics, b.result.metrics, "seeded ⇒ reproducible");
        assert_eq!(
            a.result.metrics.fetch_retries,
            a.result.metrics.injected_faults
        );
    }

    /// Lowers directly, counting the calls.
    #[derive(Default)]
    struct CountingHooks {
        lowerings: std::sync::atomic::AtomicUsize,
    }

    impl AdmissionHooks for CountingHooks {
        fn lower(
            &self,
            platform: &PlatformConfig,
            options: &FrameworkOptions,
            spec: &TaskSpec,
            cap: Option<Cycles>,
        ) -> Result<Lowered, AdmitError> {
            self.lowerings
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            lower_spec(platform, options, spec, cap)
        }
    }

    #[test]
    fn admission_lowers_each_spec_once() {
        let mut f = fw();
        f.add_task(TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000))
            .expect("control");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("kws");
        f.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
            .expect("ic");
        let hooks = CountingHooks::default();
        let (admission, _, report) = f.admit_hooked(&hooks).expect("admit");
        assert!(admission.schedulable(), "{}", admission.to_table());
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(hooks.lowerings.into_inner(), 3);
    }

    #[test]
    fn admission_table_renders() {
        let mut f = fw();
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("add");
        let admission = f.admit().expect("admit");
        let table = admission.to_table();
        assert!(table.contains("kws"));
        assert!(table.contains("wcrt-bound"));
        let run = f.simulate(500_000).expect("simulate");
        assert!(run.to_table().contains("max-response"));
    }
}
