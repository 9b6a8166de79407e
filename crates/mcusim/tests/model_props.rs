//! Property tests on the platform model's arithmetic: the contention
//! overlap solver, transfer costs, and the event queue.

use proptest::prelude::*;

use rtmdm_mcusim::{ContentionModel, Cycles, EventQueue, ExtMemConfig, ExtMemKind, Frequency};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The overlap solver's finish times are bracketed by the raw work
    /// (no contention) and the fully inflated durations (contention for
    /// the whole span) — the exact bounds the schedulability analysis
    /// relies on.
    #[test]
    fn overlap_solver_is_bracketed(
        compute in 0u64..5_000_000,
        fetch in 0u64..5_000_000,
        cpu_ppm in 0u32..1_000_000,
        dma_ppm in 0u32..1_000_000,
    ) {
        let m = ContentionModel {
            cpu_inflation_ppm: cpu_ppm,
            dma_inflation_ppm: dma_ppm,
        };
        let out = m.overlap(Cycles::new(compute), Cycles::new(fetch));
        prop_assert!(out.cpu_finish >= Cycles::new(compute));
        prop_assert!(out.dma_finish >= Cycles::new(fetch));
        prop_assert!(out.cpu_finish <= m.inflate_cpu(Cycles::new(compute)));
        prop_assert!(out.dma_finish <= m.inflate_dma(Cycles::new(fetch)));
        prop_assert!(out.stage_finish() >= Cycles::new(compute.max(fetch)));
    }

    /// More work never finishes earlier (monotonicity in both operands).
    #[test]
    fn overlap_solver_is_monotone(
        compute in 0u64..1_000_000,
        fetch in 0u64..1_000_000,
        extra in 1u64..100_000,
        cpu_ppm in 0u32..1_000_000,
        dma_ppm in 0u32..1_000_000,
    ) {
        let m = ContentionModel {
            cpu_inflation_ppm: cpu_ppm,
            dma_inflation_ppm: dma_ppm,
        };
        let base = m.overlap(Cycles::new(compute), Cycles::new(fetch));
        let more_cpu = m.overlap(Cycles::new(compute + extra), Cycles::new(fetch));
        let more_dma = m.overlap(Cycles::new(compute), Cycles::new(fetch + extra));
        prop_assert!(more_cpu.cpu_finish >= base.cpu_finish);
        prop_assert!(more_dma.dma_finish >= base.dma_finish);
        prop_assert!(more_cpu.stage_finish() >= base.stage_finish());
        prop_assert!(more_dma.stage_finish() >= base.stage_finish());
    }

    /// Transfer cost is monotone in bytes and exactly additive in the
    /// streaming part (setup charged once).
    #[test]
    fn transfer_cost_is_monotone_and_superadditive(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        mbps in 1u64..500,
    ) {
        let m = ExtMemConfig::from_bandwidth(
            ExtMemKind::Custom,
            Frequency::mhz(200),
            mbps * 1_000_000,
            Cycles::new(100),
        );
        prop_assert!(m.transfer_cycles(a + b) >= m.transfer_cycles(a.max(b)));
        // Splitting a block pays the setup twice.
        if a > 0 && b > 0 {
            prop_assert!(
                m.transfer_cycles(a) + m.transfer_cycles(b)
                    >= m.transfer_cycles(a + b)
            );
        }
    }

    /// The event queue pops every pushed item exactly once, in
    /// nondecreasing time order, FIFO among ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycles::new(t), i);
        }
        let mut popped = Vec::new();
        let mut last: Option<(Cycles, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO among equal timestamps");
                }
            }
            last = Some((t, i));
            popped.push(i);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// The event queue against a reference model that keeps the pending
    /// events in push order and drains them as a stable sort by time
    /// would. Pushes on few instants (so many ties) interleave with pops;
    /// the queue is cloned partway, both copies take the same further
    /// pushes, and each must drain exactly like its model. A simulator
    /// snapshot that resumes a run relies on the clone half.
    #[test]
    fn event_queue_drains_like_a_stable_sort_across_clones(
        // An op below 8 pushes at that instant; 8 and above pops.
        ops in proptest::collection::vec(0u64..12, 0..120),
        split in 0usize..120,
        tail in proptest::collection::vec(0u64..8, 0..40),
    ) {
        fn drained(mut q: EventQueue<usize>) -> Vec<(Cycles, usize)> {
            std::iter::from_fn(|| q.pop()).collect()
        }
        fn stable_sorted(mut model: Vec<(Cycles, usize)>) -> Vec<(Cycles, usize)> {
            model.sort_by_key(|&(t, _)| t);
            model
        }
        let mut q = EventQueue::new();
        let mut model: Vec<(Cycles, usize)> = Vec::new();
        let mut clone = None;
        for (id, &op) in ops.iter().enumerate() {
            if id == split {
                clone = Some((q.clone(), model.clone()));
            }
            if op < 8 {
                q.push(Cycles::new(op), id);
                model.push((Cycles::new(op), id));
            } else {
                let head = stable_sorted(model.clone()).first().copied();
                if let Some(h) = head {
                    model.retain(|&e| e != h);
                }
                prop_assert_eq!(q.pop(), head);
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| t).min());
        }
        let clone = clone.unwrap_or_else(|| (q.clone(), model.clone()));
        for (mut q, mut model) in [(q, model), clone] {
            for (k, &t) in tail.iter().enumerate() {
                q.push(Cycles::new(t), ops.len() + k);
                model.push((Cycles::new(t), ops.len() + k));
            }
            prop_assert_eq!(drained(q), stable_sorted(model));
        }
    }

    /// Frequency conversions never under-report time (both directions
    /// round up).
    #[test]
    fn time_conversions_round_conservatively(us in 0u64..10_000_000, mhz in 1u64..1000) {
        let f = Frequency::mhz(mhz);
        let cycles = f.cycles_from_micros(us);
        prop_assert!(f.micros_from_cycles(cycles) >= us);
    }
}
