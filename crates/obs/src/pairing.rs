//! Trace pairing: the one pass that turns a [`Trace`]'s opening and
//! closing events into intervals, and the interval algebra its readers
//! build on.
//!
//! [`pair`] reads the trace once, in order, and hands its reader every
//! interval as its closing event arrives ([`Item::Closed`]), then that
//! event itself unless it only opens intervals ([`Item::Instant`]), and,
//! after the last event, whatever is still open, in opening order
//! ([`Item::Open`], ending at [`Cycles::MAX`]). The rules:
//!
//! - a CPU occupancy runs from `SegmentStarted` to the
//!   `SegmentCompleted` of the same segment and carries the stall of
//!   its `SegmentStalled` (zero without attribution);
//! - a transfer attempt runs from `FetchStarted` to the `FetchCompleted`
//!   or `FetchFaulted` of the same segment; an attempt still open when
//!   its job gets `JobAborted` closes at that instant, since the
//!   simulator cancels the job's transfers without an event of their
//!   own;
//! - a fault episode runs from a transfer's first `FetchFaulted` to its
//!   `FetchCompleted`;
//! - a job runs from `JobReleased` to `JobCompleted` or `JobAborted`;
//! - a fetch wait runs from `FetchWaitBegan` to the job's
//!   `FetchWaitEnded`;
//! - an idle stretch runs from the earliest `CpuIdle` to the next
//!   `CpuIdleEnd`.
//!
//! An opening event for an interval already open is ignored: the first
//! start stands.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, JobId, SegmentId, TaskId, Trace, TraceEvent, TraceKind};

/// A half-open interval of simulation time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interval {
    /// First cycle of the interval.
    pub start: Cycles,
    /// One past the last cycle of the interval.
    pub end: Cycles,
}

impl Interval {
    /// Length of the interval.
    pub fn len(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// What kind of interval a [`Pair`] is (see the module docs' rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Kind {
    Occupancy,
    Attempt,
    Episode,
    Job,
    Wait,
    Idle,
}

/// One interval the pairing rules produce.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pair {
    pub kind: Kind,
    pub task: TaskId,
    pub job: JobId,
    /// The segment of an occupancy, attempt or episode (zero otherwise).
    pub segment: SegmentId,
    pub iv: Interval,
    /// The stall of an occupancy (at most its length) or the bytes of an
    /// attempt; zero otherwise.
    pub amount: u64,
    /// Whether its regular closing event ended it: false for an attempt
    /// a fault or an abort ended, for an aborted job, and while open.
    pub completed: bool,
}

/// What [`pair`] hands its reader.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Item<'a> {
    /// An interval, closed by the event being read.
    Closed(Pair),
    /// An event that does not only open intervals, after what it closed.
    Instant(&'a TraceEvent),
    /// An interval still open when the trace ended; it ends at
    /// [`Cycles::MAX`].
    Open(Pair),
}

type Key = (Kind, TaskId, JobId, SegmentId);

const IDLE: Key = (Kind::Idle, TaskId(0), JobId(0), SegmentId(0));

/// Where the interval `key` is open in `open`.
fn find(open: &[Pair], key: Key) -> Option<usize> {
    open.iter()
        .position(|p| (p.kind, p.task, p.job, p.segment) == key)
}

/// Opens `key` at `start` unless it is open already.
fn begin(open: &mut Vec<Pair>, key: Key, start: Cycles, amount: u64) {
    if find(open, key).is_none() {
        let (kind, task, job, segment) = key;
        let (end, completed) = (Cycles::MAX, false);
        let iv = Interval { start, end };
        open.push(Pair {
            kind,
            task,
            job,
            segment,
            iv,
            amount,
            completed,
        });
    }
}

/// Closes the interval `key` at `end` if it is open; `ok` if its
/// regular closing event ended it.
fn close<'a>(open: &mut Vec<Pair>, key: Key, end: Cycles, ok: bool, f: &mut impl FnMut(Item<'a>)) {
    if let Some(mut p) = find(open, key).map(|i| open.remove(i)) {
        p.iv.end = end;
        p.completed = ok;
        if p.kind == Kind::Occupancy {
            p.amount = p.amount.min(p.iv.len().get());
        }
        f(Item::Closed(p));
    }
}

/// Reads `trace` once and hands every [`Item`] to `f`, in trace order.
pub(crate) fn pair<'a>(trace: &'a Trace, mut f: impl FnMut(Item<'a>)) {
    use Kind::*;
    // Open intervals in opening order. Only a handful are open at a
    // time, so a list beats a map.
    let mut open: Vec<Pair> = Vec::new();
    let f = &mut f;
    for e in trace.events() {
        let (t, s0) = (e.time, SegmentId(0));
        match e.kind {
            TraceKind::SegmentStarted { task, job, segment } => {
                begin(&mut open, (Occupancy, task, job, segment), t, 0);
                continue;
            }
            TraceKind::FetchStarted {
                task,
                job,
                segment,
                bytes,
            } => {
                begin(&mut open, (Attempt, task, job, segment), t, bytes);
                continue;
            }
            TraceKind::JobReleased { task, job, .. } => {
                begin(&mut open, (Job, task, job, s0), t, 0);
                continue;
            }
            TraceKind::FetchWaitBegan { task, job, .. } => {
                begin(&mut open, (Wait, task, job, s0), t, 0);
                continue;
            }
            TraceKind::CpuIdle => {
                begin(&mut open, IDLE, t, 0);
                continue;
            }
            TraceKind::SegmentStalled {
                task,
                job,
                segment,
                stall,
            } => {
                if let Some(i) = find(&open, (Occupancy, task, job, segment)) {
                    open[i].amount = stall.get();
                }
            }
            TraceKind::SegmentCompleted { task, job, segment } => {
                close(&mut open, (Occupancy, task, job, segment), t, true, f);
            }
            TraceKind::FetchCompleted { task, job, segment } => {
                close(&mut open, (Attempt, task, job, segment), t, true, f);
                close(&mut open, (Episode, task, job, segment), t, true, f);
            }
            TraceKind::FetchFaulted {
                task, job, segment, ..
            } => {
                close(&mut open, (Attempt, task, job, segment), t, false, f);
                begin(&mut open, (Episode, task, job, segment), t, 0);
            }
            TraceKind::JobCompleted { task, job, .. } => {
                close(&mut open, (Job, task, job, s0), t, true, f);
            }
            TraceKind::JobAborted { task, job } => {
                let attempt = |p: &Pair| (p.kind, p.task, p.job) == (Attempt, task, job);
                while let Some(segment) = open.iter().find(|p| attempt(p)).map(|p| p.segment) {
                    close(&mut open, (Attempt, task, job, segment), t, false, f);
                }
                close(&mut open, (Job, task, job, s0), t, false, f);
            }
            TraceKind::FetchWaitEnded { task, job, .. } => {
                close(&mut open, (Wait, task, job, s0), t, true, f);
            }
            TraceKind::CpuIdleEnd => close(&mut open, IDLE, t, true, f),
            _ => {}
        }
        f(Item::Instant(e));
    }
    for p in open {
        f(Item::Open(p));
    }
}

/// Sorts and merges overlapping or touching intervals into a disjoint,
/// ascending list; empty intervals are dropped.
pub(crate) fn merge(mut ivs: Vec<Interval>) -> Vec<Interval> {
    ivs.retain(|iv| !iv.is_empty());
    ivs.sort();
    let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

/// Summed length of `ivs`.
pub(crate) fn total(ivs: &[Interval]) -> Cycles {
    ivs.iter().map(Interval::len).sum()
}

/// `a ∩ b` for disjoint ascending interval lists (two-pointer sweep).
pub(crate) fn intersect(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let start = a[i].start.max(b[j].start);
        let end = a[i].end.min(b[j].end);
        if start < end {
            out.push(Interval { start, end });
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// `base − cut` for disjoint ascending interval lists.
pub(crate) fn subtract(base: &[Interval], cut: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut j = 0;
    for b in base {
        let mut start = b.start;
        while j < cut.len() && cut[j].end <= start {
            j += 1;
        }
        for c in cut[j..].iter().take_while(|c| c.start < b.end) {
            if start < c.start {
                let end = c.start;
                out.push(Interval { start, end });
            }
            start = start.max(c.end);
        }
        if start < b.end {
            let end = b.end;
            out.push(Interval { start, end });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn iv(s: u64, e: u64) -> Interval {
        Interval {
            start: cy(s),
            end: cy(e),
        }
    }

    /// Closed intervals arrive at their closing event, before it; the
    /// open rest arrives last, in opening order, ending at `Cycles::MAX`.
    #[test]
    fn items_arrive_in_trace_order_with_the_open_rest_last() {
        let (task, job, segment) = (TaskId(0), JobId(0), SegmentId(0));
        let mut t = Trace::new();
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task,
                job,
                deadline: cy(100),
            },
        );
        t.push(cy(0), TraceKind::SegmentStarted { task, job, segment });
        t.push(
            cy(5),
            TraceKind::FetchStarted {
                task,
                job,
                segment: SegmentId(1),
                bytes: 8,
            },
        );
        t.push(
            cy(20),
            TraceKind::SegmentStalled {
                task,
                job,
                segment,
                stall: cy(50),
            },
        );
        t.push(cy(20), TraceKind::SegmentCompleted { task, job, segment });
        t.push(cy(20), TraceKind::CpuIdle);
        let mut seen = Vec::new();
        pair(&t, |item| {
            seen.push(match item {
                Item::Closed(p) => format!("closed {:?} {:?} {}", p.kind, p.iv, p.amount),
                Item::Instant(e) => format!("at {}", e.time.get()),
                Item::Open(p) => format!("open {:?} {:?} {}", p.kind, p.iv.start, p.iv.end.get()),
            });
        });
        let max = u64::MAX;
        assert_eq!(
            seen,
            [
                "at 20".to_owned(), // SegmentStalled
                // The stall is clamped to the occupancy's length.
                format!("closed Occupancy {:?} 20", iv(0, 20)),
                "at 20".to_owned(), // SegmentCompleted
                format!("open Job {:?} {max}", cy(0)),
                format!("open Attempt {:?} {max}", cy(5)),
                format!("open Idle {:?} {max}", cy(20)),
            ]
        );
    }

    #[test]
    fn a_fault_or_an_abort_ends_an_attempt() {
        let (task, job, segment) = (TaskId(0), JobId(0), SegmentId(0));
        let fetch = |segment| TraceKind::FetchStarted {
            task,
            job,
            segment,
            bytes: 8,
        };
        let mut t = Trace::new();
        t.push(cy(0), fetch(segment));
        t.push(
            cy(10),
            TraceKind::FetchFaulted {
                task,
                job,
                segment,
                attempt: 0,
            },
        );
        t.push(cy(10), fetch(segment));
        t.push(cy(30), TraceKind::FetchCompleted { task, job, segment });
        t.push(cy(30), fetch(SegmentId(1)));
        t.push(cy(35), TraceKind::JobAborted { task, job });
        let mut closed = Vec::new();
        pair(&t, |item| {
            if let Item::Closed(p) = item {
                closed.push((p.kind, p.segment, p.iv, p.completed));
            }
        });
        assert_eq!(
            closed,
            [
                (Kind::Attempt, segment, iv(0, 10), false),
                (Kind::Attempt, segment, iv(10, 30), true),
                (Kind::Episode, segment, iv(10, 30), true),
                (Kind::Attempt, SegmentId(1), iv(30, 35), false),
            ]
        );
    }

    #[test]
    fn merge_handles_overlap_and_touching() {
        let merged = merge(vec![
            iv(10, 20),
            iv(20, 30),
            iv(15, 25),
            iv(40, 40),
            iv(50, 60),
        ]);
        assert_eq!(merged, vec![iv(10, 30), iv(50, 60)]);
        assert_eq!(total(&merged), cy(30));
    }

    #[test]
    fn subtract_carves_gaps() {
        assert_eq!(
            subtract(&[iv(0, 100)], &[iv(10, 20), iv(40, 60)]),
            vec![iv(0, 10), iv(20, 40), iv(60, 100)]
        );
        assert_eq!(subtract(&[iv(0, 10)], &[iv(0, 10)]), vec![]);
        assert_eq!(subtract(&[iv(5, 10)], &[]), vec![iv(5, 10)]);
        // Cut spilling over both edges.
        assert_eq!(subtract(&[iv(10, 20)], &[iv(0, 15)]), vec![iv(15, 20)]);
        // Multiple base intervals against one long cut.
        assert_eq!(
            subtract(&[iv(0, 10), iv(20, 30)], &[iv(5, 25)]),
            vec![iv(0, 5), iv(25, 30)]
        );
    }

    #[test]
    fn intersect_is_exact() {
        assert_eq!(
            intersect(&[iv(0, 10), iv(20, 30)], &[iv(5, 25)]),
            vec![iv(5, 10), iv(20, 25)]
        );
        assert_eq!(intersect(&[iv(0, 10)], &[iv(10, 20)]), vec![]);
    }
}
