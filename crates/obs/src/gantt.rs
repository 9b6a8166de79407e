//! ASCII Gantt rendering of a [`Timeline`].
//!
//! One row per task (`#` = computing), one aggregate CPU row, and one
//! DMA row (`=` = streaming), all over the same `[0, horizon)` axis so
//! stalls and overlap line up visually. Instant markers overlay the
//! rows: `!` on the DMA row where an injected transfer fault forced a
//! retry, `x` on a task row where the `Abort` miss policy dropped a
//! job, and `s` where `SkipNextRelease` shed a release. Intended for
//! terminals and docs, not for parsing.

use std::fmt::Write as _;

use rtmdm_mcusim::Cycles;

use crate::timeline::Timeline;

/// Renders `timeline` as an ASCII Gantt chart `width` columns wide.
///
/// `task_names` labels task rows by index (tasks beyond the slice fall
/// back to `T{k}`).
///
/// # Panics
///
/// Panics if `width` is zero.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, JobId, SegmentId, TaskId, Trace, TraceKind};
/// use rtmdm_obs::{gantt, Timeline};
///
/// let mut trace = Trace::new();
/// let (t, j, s) = (TaskId(0), JobId(0), SegmentId(0));
/// trace.push(Cycles::new(0), TraceKind::SegmentStarted { task: t, job: j, segment: s });
/// trace.push(Cycles::new(50), TraceKind::SegmentCompleted { task: t, job: j, segment: s });
/// let tl = Timeline::from_trace(&trace, Cycles::new(100));
/// let chart = gantt::render(&tl, 20, &["kws".to_owned()]);
/// assert!(chart.contains("kws"));
/// assert!(chart.contains('#'));
/// ```
pub fn render(timeline: &Timeline, width: usize, task_names: &[String]) -> String {
    assert!(width > 0, "gantt width must be positive");
    let horizon = timeline.horizon();
    let col = |t: Cycles| -> usize {
        if horizon.is_zero() {
            0
        } else {
            ((u128::from(t.get()) * width as u128) / u128::from(horizon.get()))
                .min(width as u128 - 1) as usize
        }
    };
    let paint = |row: &mut [char], start: Cycles, end: Cycles, mark: char| {
        if end <= start {
            return;
        }
        for cell in row
            .iter_mut()
            .take(col(end.saturating_sub(Cycles::new(1))) + 1)
            .skip(col(start))
        {
            *cell = mark;
        }
    };

    let mut labels: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<char>> = Vec::new();

    // Aggregate CPU row, then one row per task, then the DMA row.
    let mut cpu = vec!['.'; width];
    for iv in timeline.cpu_intervals() {
        paint(&mut cpu, iv.start, iv.end, '#');
    }
    labels.push("CPU".to_owned());
    rows.push(cpu);

    let mut task_row = std::collections::BTreeMap::new();
    for &task in timeline.tasks() {
        let mut row = vec!['.'; width];
        for s in timeline.segments().iter().filter(|s| s.task == task) {
            paint(&mut row, s.start, s.end, '#');
        }
        let label = task_names
            .get(task.0)
            .cloned()
            .unwrap_or_else(|| task.to_string());
        labels.push(label);
        task_row.insert(task, rows.len());
        rows.push(row);
    }

    // Miss-policy markers overlay the owning task's row — they mark
    // instants, so they win over segment fill.
    for (markers, glyph) in [(timeline.aborts(), 'x'), (timeline.sheds(), 's')] {
        for &(time, task) in markers {
            if let Some(&r) = task_row.get(&task) {
                rows[r][col(time)] = glyph;
            }
        }
    }

    let mut dma = vec!['.'; width];
    for iv in timeline.dma_intervals() {
        paint(&mut dma, iv.start, iv.end, '=');
    }
    // Fault markers overlay the DMA row: each `!` is a transfer the
    // fault injector forced to retry.
    for &(time, _) in timeline.faults() {
        dma[col(time)] = '!';
    }
    labels.push("DMA".to_owned());
    rows.push(dma);

    let pad = labels.iter().map(String::len).max().unwrap_or(3);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>pad$}  0 .. {} cycles ({} per column)",
        "",
        horizon.get(),
        horizon.get().div_ceil(width as u64),
    );
    for (label, row) in labels.iter().zip(&rows) {
        let _ = writeln!(out, "{label:>pad$} |{}|", row.iter().collect::<String>());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::{JobId, SegmentId, TaskId, Trace, TraceKind};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn trace_two_tasks() -> Trace {
        let mut t = Trace::new();
        for (task, start, end) in [(0usize, 0u64, 50u64), (1, 50, 100)] {
            t.push(
                cy(start),
                TraceKind::SegmentStarted {
                    task: TaskId(task),
                    job: JobId(0),
                    segment: SegmentId(0),
                },
            );
            t.push(
                cy(end),
                TraceKind::SegmentCompleted {
                    task: TaskId(task),
                    job: JobId(0),
                    segment: SegmentId(0),
                },
            );
        }
        t.push(
            cy(100),
            TraceKind::FetchStarted {
                task: TaskId(0),
                job: JobId(1),
                segment: SegmentId(0),
                bytes: 64,
            },
        );
        t.push(
            cy(150),
            TraceKind::FetchCompleted {
                task: TaskId(0),
                job: JobId(1),
                segment: SegmentId(0),
            },
        );
        t
    }

    #[test]
    fn renders_cpu_task_and_dma_rows() {
        let tl = Timeline::from_trace(&trace_two_tasks(), cy(200));
        let chart = render(&tl, 40, &["kws".to_owned(), "vww".to_owned()]);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 5); // header + CPU + 2 tasks + DMA
        assert!(lines[1].trim_start().starts_with("CPU"));
        assert!(lines[2].trim_start().starts_with("kws"));
        assert!(lines[3].trim_start().starts_with("vww"));
        assert!(lines[4].trim_start().starts_with("DMA"));
        assert!(lines[1].contains('#'));
        assert!(lines[4].contains('='));
    }

    #[test]
    fn unnamed_tasks_fall_back_to_ids() {
        let tl = Timeline::from_trace(&trace_two_tasks(), cy(200));
        let chart = render(&tl, 10, &[]);
        assert!(chart.contains("T0"));
        assert!(chart.contains("T1"));
    }

    #[test]
    fn columns_scale_with_time() {
        let tl = Timeline::from_trace(&trace_two_tasks(), cy(200));
        let chart = render(&tl, 4, &[]);
        // Task 0 computes in [0,50) → exactly the first of 4 columns.
        let t0_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("T0"))
            .expect("row");
        assert!(t0_row.contains("|#...|"), "{chart}");
    }

    #[test]
    fn fault_abort_and_shed_markers_pin_their_columns() {
        let mut t = Trace::new();
        let (t0, j0, s0) = (TaskId(0), JobId(0), SegmentId(0));
        t.push(
            cy(0),
            TraceKind::SegmentStarted {
                task: t0,
                job: j0,
                segment: s0,
            },
        );
        t.push(
            cy(30),
            TraceKind::SegmentCompleted {
                task: t0,
                job: j0,
                segment: s0,
            },
        );
        t.push(
            cy(40),
            TraceKind::FetchStarted {
                task: t0,
                job: JobId(1),
                segment: s0,
                bytes: 64,
            },
        );
        t.push(
            cy(45),
            TraceKind::FetchFaulted {
                task: t0,
                job: JobId(1),
                segment: s0,
                attempt: 0,
            },
        );
        t.push(
            cy(45),
            TraceKind::FetchStarted {
                task: t0,
                job: JobId(1),
                segment: s0,
                bytes: 64,
            },
        );
        t.push(
            cy(60),
            TraceKind::FetchCompleted {
                task: t0,
                job: JobId(1),
                segment: s0,
            },
        );
        t.push(cy(70), TraceKind::JobAborted { task: t0, job: j0 });
        t.push(
            cy(90),
            TraceKind::ReleaseShed {
                task: t0,
                job: JobId(2),
            },
        );
        let tl = Timeline::from_trace(&t, cy(100));
        let chart = render(&tl, 10, &[]);
        let row = |prefix: &str| {
            chart
                .lines()
                .find(|l| l.trim_start().starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in {chart}"))
        };
        // Segment [0,30) fills columns 0–2; abort at 70 → column 7;
        // shed at 90 → column 9.
        assert!(row("T0").contains("|###....x.s|"), "{chart}");
        // Fetch [40,60) fills columns 4–5; the fault at 45 overlays
        // column 4.
        assert!(row("DMA").contains("|....!=....|"), "{chart}");
    }

    #[test]
    fn segments_past_the_horizon_paint_nothing() {
        let mut t = trace_two_tasks();
        t.push(
            cy(300),
            TraceKind::JobReleased {
                task: TaskId(0),
                job: JobId(1),
                deadline: cy(400),
            },
        );
        t.push(
            cy(300),
            TraceKind::SegmentStarted {
                task: TaskId(0),
                job: JobId(1),
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(350),
            TraceKind::SegmentCompleted {
                task: TaskId(0),
                job: JobId(1),
                segment: SegmentId(0),
            },
        );
        // A 100-cycle window: T0's second job runs wholly past it. Its
        // release still counts, but its segment is not clamped into
        // the last column, and neither is the fetch at [100, 150).
        let tl = Timeline::from_trace(&t, cy(100));
        assert!(tl.tasks().contains(&TaskId(0)));
        let chart = render(&tl, 10, &[]);
        let row = |prefix: &str| {
            chart
                .lines()
                .find(|l| l.trim_start().starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in {chart}"))
        };
        assert!(row("CPU").contains("|##########|"), "{chart}");
        assert!(row("T0").contains("|#####.....|"), "{chart}");
        assert!(row("T1").contains("|.....#####|"), "{chart}");
        assert!(row("DMA").contains("|..........|"), "{chart}");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let tl = Timeline::from_trace(&Trace::new(), cy(10));
        let _ = render(&tl, 0, &[]);
    }
}
