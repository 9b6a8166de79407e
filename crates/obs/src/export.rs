//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and
//! line-delimited JSON (JSONL).
//!
//! The Chrome export lays the schedule out on fixed lanes:
//!
//! - `tid 1` (**CPU**): one complete event (`ph: "X"`) per CPU
//!   occupancy — the CPU's view of the schedule;
//! - `tid 2` (**DMA**): one complete event per transfer attempt that
//!   completed, plus instant events for injected transfer faults (a
//!   faulted attempt lies before its `fault` marker);
//! - `tid 10 + k` (one lane per task `k`): one complete event per
//!   finished job (aborted jobs get a release→abort slice instead),
//!   plus instant events (`ph: "i"`) for deadline misses, preemptions,
//!   and shed releases.
//!
//! Timestamps and durations are raw simulation cycles (Perfetto treats
//! them as microseconds; relative magnitudes are what matters).
//! Intervals come from the crate's one
//! [pairing pass](crate#trace-pairing); those left open at the end of the trace are omitted. Export is a
//! pure function of the trace, so output bytes are deterministic.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{TaskId, Trace, TraceKind};

use crate::pairing::{pair, Interval, Item, Kind};
use crate::spans::{SpanFold, SpanKind};

/// Lane (`tid`) of the aggregate CPU row in the Chrome export.
pub const TID_CPU: u64 = 1;
/// Lane (`tid`) of the DMA row in the Chrome export.
pub const TID_DMA: u64 = 2;
/// Lane of task `k` is `TID_TASK_BASE + k` in the Chrome export.
pub const TID_TASK_BASE: u64 = 10;

/// One event in the Chrome trace-event format.
///
/// The subset of fields emitted here (`name`, `cat`, `ph`, `ts`, `dur`,
/// `pid`, `tid`) is what Perfetto's JSON importer needs; instant events
/// carry `dur: 0`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Human-readable slice label.
    pub name: String,
    /// Event category: `segment`, `fetch`, `job`, `miss`, `preempt`,
    /// `fault`, `abort`, or `shed`.
    pub cat: String,
    /// Phase: `X` (complete) or `i` (instant).
    pub ph: String,
    /// Start timestamp in simulation cycles.
    pub ts: u64,
    /// Duration in simulation cycles (0 for instants).
    pub dur: u64,
    /// Process id (always 0 — one simulated MCU).
    pub pid: u64,
    /// Lane id (see [`TID_CPU`], [`TID_DMA`], [`TID_TASK_BASE`]).
    pub tid: u64,
}

/// Root object of a Chrome trace-event file.
#[allow(non_snake_case)]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChromeTrace {
    /// The event list (field name fixed by the Chrome trace format).
    pub traceEvents: Vec<ChromeEvent>,
}

/// Task `k`'s name from the label slice, or `T{k}` beyond it; formats
/// in place, without a copy of the name.
struct Label<'a>(&'a [String], TaskId);

impl std::fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get(self.1 .0) {
            Some(name) => f.write_str(name),
            None => write!(f, "{}", self.1),
        }
    }
}

/// An event of phase `ph` over `iv`: complete (`X`) or instant (`i`).
fn event(name: String, cat: &str, ph: &str, iv: Interval, tid: u64) -> ChromeEvent {
    ChromeEvent {
        name,
        cat: cat.to_owned(),
        ph: ph.to_owned(),
        ts: iv.start.get(),
        dur: iv.len().get(),
        pid: 0,
        tid,
    }
}

/// Appends the Chrome events of one pairing item (see the module docs).
fn export(item: Item, names: &[String], events: &mut Vec<ChromeEvent>) {
    let label = |task| Label(names, task);
    let lane = |task: TaskId| TID_TASK_BASE + task.0 as u64;
    match item {
        Item::Closed(p) => {
            let (task, segment, job) = (p.task, p.segment, p.job);
            let (name, cat, tid) = match p.kind {
                Kind::Occupancy => (format!("{} {segment}", label(task)), "segment", TID_CPU),
                // The `fetch` slice is the attempt that completed; a
                // faulted attempt lies before its `fault` marker, and
                // neither it nor one an abort cancelled is drawn.
                Kind::Attempt if p.completed => {
                    (format!("fetch {} {segment}", label(task)), "fetch", TID_DMA)
                }
                Kind::Job if p.completed => (format!("{} {job}", label(task)), "job", lane(task)),
                Kind::Job => {
                    let name = format!("{} {job} aborted", label(task));
                    (name, "abort", lane(task))
                }
                _ => return,
            };
            events.push(event(name, cat, "X", p.iv, tid));
        }
        Item::Instant(e) => {
            let (start, end) = (e.time, e.time);
            let (name, cat, tid) = match e.kind {
                TraceKind::DeadlineMissed { task, job } => {
                    (format!("miss {} {job}", label(task)), "miss", lane(task))
                }
                TraceKind::Preempted { task, by } => {
                    let name = format!("{} preempted by {}", label(task), label(by));
                    (name, "preempt", lane(task))
                }
                TraceKind::FetchFaulted {
                    task,
                    job,
                    segment,
                    attempt,
                } => {
                    let name = format!("fault {} {job} {segment} attempt {attempt}", label(task));
                    (name, "fault", TID_DMA)
                }
                TraceKind::ReleaseShed { task, job } => {
                    (format!("shed {} {job}", label(task)), "shed", lane(task))
                }
                _ => return,
            };
            events.push(event(name, cat, "i", Interval { start, end }, tid));
        }
        _ => {}
    }
}

/// Converts a trace to the Chrome trace-event object.
///
/// `task_names` labels lanes and slices by task index; tasks beyond the
/// slice fall back to `T{k}`.
pub fn chrome_trace(trace: &Trace, task_names: &[String]) -> ChromeTrace {
    let mut events = Vec::new();
    pair(trace, |item| export(item, task_names, &mut events));
    ChromeTrace {
        traceEvents: events,
    }
}

/// Converts a trace to the Chrome trace-event object with one extra
/// `cat: "blame"` complete event per attributed span, nested under the
/// owning task's lane so each job slice decomposes visually into
/// compute / bus-contention / blocking-fetch / fault-refetch /
/// preempted-by / dispatch-wait (see [`crate::spans`]).
///
/// The base events are exactly those of [`chrome_trace`]; the default
/// export stays byte-identical when this function is not used. The
/// trace is paired once for both.
pub fn chrome_trace_with_blame(trace: &Trace, task_names: &[String]) -> ChromeTrace {
    let mut events = Vec::new();
    let mut spans = SpanFold::default();
    pair(trace, |item| {
        export(item, task_names, &mut events);
        spans.read(item);
    });
    for js in spans.finish() {
        for span in &js.spans {
            let name = match span.kind {
                SpanKind::Compute => "compute".to_owned(),
                SpanKind::BusContention => "bus-contention".to_owned(),
                SpanKind::BlockingFetch => "blocking-fetch".to_owned(),
                SpanKind::FaultRefetch => "fault-refetch".to_owned(),
                SpanKind::DispatchWait => "dispatch-wait".to_owned(),
                SpanKind::Preempted { by } => {
                    format!("preempted by {}", Label(task_names, by))
                }
            };
            let tid = TID_TASK_BASE + js.task.0 as u64;
            events.push(event(name, "blame", "X", span.interval, tid));
        }
    }
    ChromeTrace {
        traceEvents: events,
    }
}

/// Serializes a trace straight to Chrome trace-event JSON text.
pub fn chrome_trace_json(trace: &Trace, task_names: &[String]) -> String {
    serde_json::to_string(&chrome_trace(trace, task_names))
        .expect("chrome trace serialization is infallible")
}

/// Serializes a trace to JSONL: one raw [`rtmdm_mcusim::TraceEvent`]
/// JSON object per line (newline-terminated). Each line round-trips
/// through the vendored serde_json back into a `TraceEvent`.
pub fn jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for e in trace.events() {
        out.push_str(&serde_json::to_string(e).expect("trace event serialization is infallible"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::{Cycles, JobId, SegmentId, TraceEvent};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        let (t0, j0) = (TaskId(0), JobId(0));
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: t0,
                job: j0,
                deadline: cy(200),
            },
        );
        t.push(
            cy(0),
            TraceKind::FetchStarted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
                bytes: 256,
            },
        );
        t.push(
            cy(20),
            TraceKind::FetchCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(20),
            TraceKind::SegmentStarted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(70),
            TraceKind::SegmentCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(
            cy(70),
            TraceKind::JobCompleted {
                task: t0,
                job: j0,
                response: cy(70),
            },
        );
        t.push(
            cy(90),
            TraceKind::Preempted {
                task: t0,
                by: TaskId(1),
            },
        );
        t
    }

    #[test]
    fn one_complete_event_per_segment_pair() {
        let ct = chrome_trace(&sample(), &["kws".to_owned()]);
        let segs: Vec<_> = ct
            .traceEvents
            .iter()
            .filter(|e| e.cat == "segment")
            .collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].ph, "X");
        assert_eq!(segs[0].ts, 20);
        assert_eq!(segs[0].dur, 50);
        assert_eq!(segs[0].tid, TID_CPU);
        assert_eq!(segs[0].name, "kws S0");
    }

    #[test]
    fn lanes_and_categories_are_assigned() {
        let ct = chrome_trace(&sample(), &[]);
        let fetch = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "fetch")
            .expect("fetch lane");
        assert_eq!(fetch.tid, TID_DMA);
        assert_eq!(fetch.dur, 20);
        let job = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "job")
            .expect("job lane");
        assert_eq!(job.tid, TID_TASK_BASE);
        assert_eq!(job.dur, 70);
        assert_eq!(job.name, "T0 J0");
        let preempt = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "preempt")
            .expect("instant");
        assert_eq!(preempt.ph, "i");
        assert_eq!(preempt.dur, 0);
    }

    #[test]
    fn fault_abort_and_shed_events_are_exported() {
        let mut t = Trace::new();
        let (t0, j0) = (TaskId(0), JobId(0));
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: t0,
                job: j0,
                deadline: cy(100),
            },
        );
        t.push(
            cy(0),
            TraceKind::FetchStarted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
                bytes: 256,
            },
        );
        t.push(
            cy(20),
            TraceKind::FetchFaulted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
                attempt: 0,
            },
        );
        t.push(
            cy(20),
            TraceKind::FetchStarted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
                bytes: 256,
            },
        );
        t.push(
            cy(40),
            TraceKind::FetchCompleted {
                task: t0,
                job: j0,
                segment: SegmentId(0),
            },
        );
        t.push(cy(110), TraceKind::JobAborted { task: t0, job: j0 });
        t.push(
            cy(120),
            TraceKind::ReleaseShed {
                task: t0,
                job: JobId(1),
            },
        );
        let ct = chrome_trace(&t, &["kws".to_owned()]);
        let fault = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "fault")
            .expect("fault instant");
        assert_eq!(fault.ph, "i");
        assert_eq!(fault.tid, TID_DMA);
        assert_eq!(fault.name, "fault kws J0 S0 attempt 0");
        // The retry re-opened the fetch: the final slice spans the
        // successful attempt only (20..40).
        let fetch = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "fetch")
            .expect("fetch slice");
        assert_eq!((fetch.ts, fetch.dur), (20, 20));
        let abort = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "abort")
            .expect("abort slice");
        assert_eq!(abort.ph, "X");
        assert_eq!((abort.ts, abort.dur), (0, 110));
        // No `job` slice for the aborted job.
        assert!(ct.traceEvents.iter().all(|e| e.cat != "job"));
        let shed = ct
            .traceEvents
            .iter()
            .find(|e| e.cat == "shed")
            .expect("shed instant");
        assert_eq!(shed.ph, "i");
        assert_eq!(shed.ts, 120);
    }

    #[test]
    fn unpaired_opens_are_omitted() {
        let mut t = Trace::new();
        t.push(
            cy(10),
            TraceKind::SegmentStarted {
                task: TaskId(0),
                job: JobId(0),
                segment: SegmentId(0),
            },
        );
        let ct = chrome_trace(&t, &[]);
        assert!(ct.traceEvents.is_empty());
    }

    #[test]
    fn blame_spans_nest_under_task_lanes() {
        let names = vec!["kws".to_owned()];
        let base = chrome_trace(&sample(), &names);
        let with = chrome_trace_with_blame(&sample(), &names);
        // The base events are exactly the default export's.
        assert_eq!(
            &with.traceEvents[..base.traceEvents.len()],
            &base.traceEvents[..]
        );
        let blame: Vec<_> = with
            .traceEvents
            .iter()
            .filter(|e| e.cat == "blame")
            .collect();
        // Window [0, 70): dispatch-wait [0, 20), compute [20, 70).
        assert_eq!(blame.len(), 2);
        assert_eq!(blame[0].name, "dispatch-wait");
        assert_eq!((blame[0].ts, blame[0].dur), (0, 20));
        assert_eq!(blame[1].name, "compute");
        assert_eq!((blame[1].ts, blame[1].dur), (20, 50));
        assert!(blame.iter().all(|e| e.tid == TID_TASK_BASE && e.ph == "X"));
        // The attributed spans partition the job slice's window.
        let total: u64 = blame.iter().map(|e| e.dur).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn chrome_json_round_trips() {
        let names = vec!["kws".to_owned()];
        let json = chrome_trace_json(&sample(), &names);
        let back: ChromeTrace = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, chrome_trace(&sample(), &names));
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn jsonl_lines_round_trip() {
        let trace = sample();
        let text = jsonl(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), trace.len());
        for (line, original) in lines.iter().zip(trace.events()) {
            let back: TraceEvent = serde_json::from_str(line).expect("parse line");
            assert_eq!(back, *original);
        }
    }
}
