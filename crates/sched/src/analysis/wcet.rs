//! Platform-dependent worst-case quantities derived from a task.
//!
//! Everything the analyses need about a task is condensed here:
//! inflated per-segment execution and fetch times, the isolated pipeline
//! latency, total resource occupancy, and the number of points at which
//! the task may self-suspend waiting for the DMA.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, PlatformConfig};

use crate::task::{SporadicTask, StagingMode};

/// Worst-case timing profile of one task on one platform.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTiming {
    /// Inflated per-segment CPU cost `e_k` (context switch + compute at
    /// the worst-case contended rate).
    pub exec: Vec<Cycles>,
    /// Inflated per-segment DMA cost `F_k` (setup + streaming at the
    /// worst-case contended rate); all zero for resident tasks.
    pub fetch: Vec<Cycles>,
    /// Isolated worst-case latency of one job:
    /// `F_1 + Σ_k max(e_k, F_{k+1})` — the double-buffered pipeline with
    /// its unhidden lead-in fetch.
    pub pipeline_latency: Cycles,
    /// Total resource occupancy `Σ e_k + Σ F_k`: every cycle of CPU or
    /// DMA time a job of this task can take away from lower-priority
    /// work.
    pub occupancy: Cycles,
    /// Number of points at which a job may yield the CPU and later
    /// resume: 1 (initial arrival) plus every segment boundary whose
    /// next segment has a non-zero fetch. Even a fetch that is hidden
    /// in isolation can be pushed past its compute window by DMA
    /// interference, so every fetching boundary must be counted. Each
    /// such point exposes the task to one more non-preemptive
    /// lower-priority segment.
    pub resume_points: u64,
    /// Largest single `e_k` — the blocking this task imposes on others.
    pub max_exec_segment: Cycles,
    /// Total DMA work per job, `Σ F_k`.
    pub total_fetch: Cycles,
}

impl TaskTiming {
    /// Derives the timing profile of `task` on `platform`.
    ///
    /// All inflations use the *fully contended* rates
    /// ([`ContentionModel::inflate_cpu`](rtmdm_mcusim::ContentionModel::inflate_cpu)
    /// /
    /// [`inflate_dma`](rtmdm_mcusim::ContentionModel::inflate_dma)),
    /// which upper-bound any actual interleaving the simulator can
    /// produce.
    pub fn derive(task: &SporadicTask, platform: &PlatformConfig) -> TaskTiming {
        let cs = platform.context_switch_cycles;
        let exec: Vec<Cycles> = task
            .segments
            .iter()
            .map(|s| cs + platform.contention.inflate_cpu(s.compute))
            .collect();
        let fetch: Vec<Cycles> = match task.mode {
            StagingMode::Resident => vec![Cycles::ZERO; task.segments.len()],
            StagingMode::Overlapped => task
                .segments
                .iter()
                .map(|s| {
                    platform
                        .contention
                        .inflate_dma(platform.ext_mem.transfer_cycles(s.fetch_bytes))
                })
                .collect(),
        };

        let n = exec.len();
        let mut pipeline = fetch.first().copied().unwrap_or(Cycles::ZERO);
        let mut resume_points = 1u64;
        for k in 0..n {
            let next_fetch = if k + 1 < n {
                fetch[k + 1]
            } else {
                Cycles::ZERO
            };
            pipeline += exec[k].max(next_fetch);
            if !next_fetch.is_zero() {
                resume_points += 1;
            }
        }
        let total_fetch: Cycles = fetch.iter().copied().sum();
        let occupancy = exec.iter().copied().sum::<Cycles>() + total_fetch;
        let max_exec_segment = exec.iter().copied().max().unwrap_or(Cycles::ZERO);
        TaskTiming {
            exec,
            fetch,
            pipeline_latency: pipeline,
            occupancy,
            resume_points,
            max_exec_segment,
            total_fetch,
        }
    }

    /// Release jitter this task exhibits *as an interfering task*:
    /// its latest possible start of resource consumption relative to its
    /// release, bounded by `D − occupancy` under the inductive
    /// assumption that it meets its deadline.
    pub fn interference_jitter(&self, deadline: Cycles) -> Cycles {
        deadline.saturating_sub(self.occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Segment;
    use rtmdm_mcusim::{ContentionModel, PlatformConfig};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn bare_platform() -> PlatformConfig {
        // No contention, no context switch, 1 cycle/byte, no setup: makes
        // hand-computation trivial.
        let mut p = PlatformConfig::stm32f746_qspi();
        p.contention = ContentionModel::NONE;
        p.context_switch_cycles = Cycles::ZERO;
        p.ext_mem.setup_cycles = Cycles::ZERO;
        p.ext_mem.cycles_per_byte_num = 1;
        p.ext_mem.cycles_per_byte_den = 1;
        p
    }

    fn task(segs: &[(u64, u64)], mode: StagingMode) -> SporadicTask {
        SporadicTask::new(
            "t",
            cy(1_000_000),
            cy(1_000_000),
            segs.iter().map(|&(c, b)| Segment::new(cy(c), b)).collect(),
            mode,
        )
        .expect("valid")
    }

    #[test]
    fn pipeline_latency_hand_example() {
        // Segments: (C=100,F=50), (C=100,F=200), (C=100,F=30).
        // P = F1 + max(e1,F2) + max(e2,F3) + max(e3,0)
        //   = 50 + max(100,200) + max(100,30) + 100 = 450.
        let t = task(&[(100, 50), (100, 200), (100, 30)], StagingMode::Overlapped);
        let tt = TaskTiming::derive(&t, &bare_platform());
        assert_eq!(tt.pipeline_latency, cy(450));
        assert_eq!(tt.occupancy, cy(300 + 280));
        // Resume points: initial + the two fetching boundaries
        // (fetches of segments 2 and 3).
        assert_eq!(tt.resume_points, 3);
        assert_eq!(tt.max_exec_segment, cy(100));
    }

    #[test]
    fn resident_task_has_no_fetch() {
        let t = task(&[(100, 50), (200, 70)], StagingMode::Resident);
        let tt = TaskTiming::derive(&t, &bare_platform());
        assert_eq!(tt.pipeline_latency, cy(300));
        assert_eq!(tt.occupancy, cy(300));
        assert_eq!(tt.resume_points, 1);
        assert_eq!(tt.total_fetch, Cycles::ZERO);
    }

    #[test]
    fn context_switch_and_inflation_are_charged() {
        let mut p = bare_platform();
        p.context_switch_cycles = cy(10);
        p.contention = ContentionModel {
            cpu_inflation_ppm: 100_000, // 10%
            dma_inflation_ppm: 500_000, // 50%
        };
        let t = task(&[(100, 100)], StagingMode::Overlapped);
        let tt = TaskTiming::derive(&t, &p);
        assert_eq!(tt.exec[0], cy(10 + 110));
        assert_eq!(tt.fetch[0], cy(150));
        // P = F1 + e1 (single segment, no next fetch).
        assert_eq!(tt.pipeline_latency, cy(150 + 120));
    }

    #[test]
    fn pipeline_latency_never_undercuts_compute_or_fetch_totals() {
        let t = task(
            &[(50, 400), (300, 10), (20, 500), (80, 0)],
            StagingMode::Overlapped,
        );
        let tt = TaskTiming::derive(&t, &bare_platform());
        let total_e: Cycles = tt.exec.iter().copied().sum();
        let total_f: Cycles = tt.fetch.iter().copied().sum();
        assert!(tt.pipeline_latency >= total_e);
        assert!(tt.pipeline_latency >= total_f);
        assert!(tt.pipeline_latency <= tt.occupancy);
    }

    #[test]
    fn interference_jitter_clamps_at_zero() {
        let t = task(&[(500, 0)], StagingMode::Resident);
        let tt = TaskTiming::derive(&t, &bare_platform());
        assert_eq!(tt.interference_jitter(cy(800)), cy(300));
        assert_eq!(tt.interference_jitter(cy(100)), Cycles::ZERO);
    }
}
