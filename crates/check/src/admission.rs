//! Admission lints (`RTM020`–`RTM026`, `RTM041`).
//!
//! Spec-level timing sanity ([`check_timing`]) plus set-level
//! schedulability lints over a built, priority-ordered [`TaskSet`]
//! ([`check_taskset`]). The set-level lints read the numbers admission
//! computed for the set — its occupancy utilization and its
//! response-time analysis — add the rate-monotonic bound and the
//! hyperperiod, and report *why* a set is hopeless. They are
//! feasibility verdicts, not structural errors, so none of them block
//! admission (see [`Rule::blocks_admission`]).

use rtmdm_mcusim::PlatformConfig;
use rtmdm_sched::analysis::{hyperperiod, rm_utilization_bound_ppm, AnalysisOutcome, TaskTiming};
use rtmdm_sched::TaskSet;

use crate::diag::{ppm_pct, Finding, Rule};

/// Spec-level timing lints of one task: zero parameters (`RTM021`) and
/// deadline beyond period (`RTM020`). Times are in microseconds.
pub fn check_timing(task: &str, period_us: u64, deadline_us: u64) -> Vec<Finding> {
    let mut out = Vec::new();
    if period_us == 0 || deadline_us == 0 {
        out.push(
            Finding::new(
                Rule::Rtm021,
                format!("period {period_us} us / deadline {deadline_us} us must be nonzero"),
            )
            .with_task(task),
        );
    } else if deadline_us > period_us {
        out.push(
            Finding::new(
                Rule::Rtm020,
                format!("deadline {deadline_us} us exceeds period {period_us} us"),
            )
            .with_task(task),
        );
    }
    out
}

/// Set-level lints over a priority-ordered task set, given the
/// occupancy utilization admission computed for it and its
/// fixed-priority response-time analysis — `None` under EDF, which
/// yields no per-priority bounds and has no rate-monotonic bound.
pub fn check_taskset(
    ts: &TaskSet,
    platform: &PlatformConfig,
    occupancy_ppm: u64,
    fp_analysis: Option<&AnalysisOutcome>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if ts.is_empty() {
        return out;
    }

    for task in ts.tasks() {
        if task.total_compute().is_zero() {
            out.push(
                Finding::new(Rule::Rtm022, "task has zero worst-case execution time")
                    .with_task(task.name.clone()),
            );
        }
        let timing = TaskTiming::derive(task, platform);
        if timing.total_fetch > task.deadline {
            out.push(
                Finding::new(
                    Rule::Rtm041,
                    format!(
                        "staging {} cycles of weights alone exceeds the {} cycle deadline \
                         on this bus",
                        timing.total_fetch, task.deadline
                    ),
                )
                .with_task(task.name.clone()),
            );
        }
    }

    if occupancy_ppm > 1_000_000 {
        out.push(Finding::new(
            Rule::Rtm023,
            format!(
                "occupancy utilization {} exceeds 100% of the platform",
                ppm_pct(occupancy_ppm)
            ),
        ));
    } else if fp_analysis.is_some() && ts.len() >= 2 {
        let bound = rm_utilization_bound_ppm(ts.len());
        if occupancy_ppm > bound {
            out.push(Finding::new(
                Rule::Rtm024,
                format!(
                    "occupancy utilization {} exceeds the {}-task rate-monotonic bound {}",
                    ppm_pct(occupancy_ppm),
                    ts.len(),
                    ppm_pct(bound)
                ),
            ));
        }
    }

    if hyperperiod(ts).is_none() {
        out.push(Finding::new(
            Rule::Rtm025,
            "hyperperiod overflows the exact-analysis cap; period-based arguments \
             (synchronous simulation, demand bounds) are unavailable"
                .to_owned(),
        ));
    }

    if let Some(outcome) = fp_analysis {
        for (i, response) in outcome.response.iter().enumerate() {
            if response.is_none() {
                out.push(
                    Finding::new(
                        Rule::Rtm026,
                        "response-time iteration diverges past the cap (definitely \
                         unschedulable at this priority)",
                    )
                    .with_task(ts.tasks()[i].name.clone()),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::Cycles;
    use rtmdm_sched::analysis::occupancy_utilization_ppm;
    use rtmdm_sched::{Segment, SporadicTask, StagingMode};

    fn platform() -> PlatformConfig {
        PlatformConfig::stm32f746_qspi()
    }

    fn task(name: &str, period: u64, compute: u64, fetch: u64) -> SporadicTask {
        SporadicTask::new(
            name,
            Cycles::new(period),
            Cycles::new(period),
            vec![Segment::new(Cycles::new(compute), fetch)],
            StagingMode::Overlapped,
        )
        .expect("valid task")
    }

    /// Lints `ts` at its own occupancy under `fp_analysis`.
    fn lint(ts: &TaskSet, fp_analysis: Option<&AnalysisOutcome>) -> Vec<Finding> {
        let occupancy = occupancy_utilization_ppm(ts, &platform());
        check_taskset(ts, &platform(), occupancy, fp_analysis)
    }

    /// A fixed-priority analysis that bounds every priority.
    fn bounded(ts: &TaskSet) -> AnalysisOutcome {
        AnalysisOutcome {
            schedulable: true,
            response: vec![Some(Cycles::new(1)); ts.len()],
        }
    }

    #[test]
    fn rtm020_fires_once_on_deadline_beyond_period() {
        let hits = check_timing("kws", 100_000, 200_000);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::Rtm020);
        assert!(check_timing("kws", 100_000, 100_000).is_empty());
    }

    #[test]
    fn rtm021_fires_once_on_zero_timing() {
        let hits = check_timing("kws", 0, 100);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::Rtm021);
    }

    #[test]
    fn rtm022_fires_once_on_zero_wcet() {
        let ts = TaskSet::from_tasks(vec![task("idle", 1_000_000, 0, 0)]);
        let hits: Vec<_> = lint(&ts, Some(&bounded(&ts)))
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm022)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn rtm023_fires_once_on_overload() {
        let ts = TaskSet::from_tasks(vec![task("hog", 100_000, 200_000, 0)]);
        let findings = lint(&ts, Some(&bounded(&ts)));
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Rtm023).collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
    }

    #[test]
    fn rtm024_fires_once_between_rm_bound_and_full_load() {
        // Two tasks whose occupancy (compute plus contention inflation
        // and switch costs) lands between the 2-task rate-monotonic
        // bound (~82.8%) and 100%.
        let ts = TaskSet::from_tasks(vec![
            task("a", 100_000, 38_000, 0),
            task("b", 100_000, 38_000, 0),
        ]);
        let findings = lint(&ts, Some(&bounded(&ts)));
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Rtm024).collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        // Under EDF the RM bound does not apply.
        assert!(lint(&ts, None).iter().all(|f| f.rule != Rule::Rtm024));
    }

    #[test]
    fn rtm025_fires_once_on_an_overflowing_hyperperiod() {
        // Two coprime ~2^21 periods: the lcm exceeds the 2^40 cap.
        let ts = TaskSet::from_tasks(vec![
            task("a", (1 << 21) + 1, 10, 0),
            task("b", (1 << 21) - 1, 10, 0),
        ]);
        let hits: Vec<_> = lint(&ts, Some(&bounded(&ts)))
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm025)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn rtm026_fires_once_per_diverging_task() {
        // A higher-priority task with utilization above 1 makes the
        // victim's interference grow without bound: the analysis gives
        // the victim no bound, and the lint names exactly that priority.
        let ts = TaskSet::from_tasks(vec![
            task("hog", 100_000, 200_000, 0),
            task("victim", 1_000_000, 10_000, 0),
        ]);
        let analysis = AnalysisOutcome {
            schedulable: false,
            response: vec![Some(Cycles::new(200_000)), None],
        };
        let hits: Vec<_> = lint(&ts, Some(&analysis))
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm026)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].task.as_deref(), Some("victim"));
        // EDF yields no per-priority bounds, so nothing diverges.
        assert!(lint(&ts, None).iter().all(|f| f.rule != Rule::Rtm026));
    }

    #[test]
    fn rtm041_fires_once_on_a_fetch_bound_task() {
        // 1 MiB of weights against a 10k-cycle deadline: staging alone
        // cannot finish in time on any realistic bus.
        let ts = TaskSet::from_tasks(vec![task("fetchy", 10_000, 1_000, 1 << 20)]);
        let hits: Vec<_> = lint(&ts, Some(&bounded(&ts)))
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm041)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn comfortable_sets_lint_clean() {
        let ts = TaskSet::from_tasks(vec![
            task("a", 10_000_000, 100_000, 1024),
            task("b", 20_000_000, 200_000, 2048),
        ]);
        let findings = lint(&ts, Some(&bounded(&ts)));
        assert!(findings.is_empty(), "{findings:?}");
    }
}
