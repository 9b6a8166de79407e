//! The RT-MDM repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path rtbench/Cargo.toml -- \
//!     --workload serve_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload builds its inputs from `--seed` and sets up, then
//! repeats one round of fixed work until `--seconds` have passed,
//! checking every output. `--trace 0` reports the end-to-end metrics,
//! with every time scaled to a reference host by a calibration probe
//! run between operations, and sets up eight more times spread over the
//! run (the median of the nine is `setup_s`); `--trace 1` runs untraced
//! rounds first and then traced rounds that time each call into a
//! layer, and reports the per-layer metrics. The last line of standard
//! output is one JSON
//! object; the lines before it print every metric by name with its unit
//! and the properties of the generated inputs. See `rtbench/README.md`.

mod common;
mod explore;
mod serve;
mod simulate;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{median, peak_rss_mb, percentile, timed, HostProbe, Ledger, Round};

/// One benchmark workload: a fixed round of work over seeded inputs.
pub trait Workload {
    /// Runs one round untraced; only the operations themselves are
    /// timed, output checks run afterwards.
    fn round(&mut self, r: &mut Round);
    /// Prepares the traced rounds (called once, untimed, before them).
    fn begin_trace(&mut self) {}
    /// Runs the same round, timing every stage call into `ledger`
    /// (output checks land under `bench.check`).
    fn traced_round(&mut self, ledger: &mut Ledger, r: &mut Round);
    /// Properties of the generated inputs, printed beside the metrics.
    fn properties(&self) -> Vec<(&'static str, String)>;
    /// Workload-specific per-layer metrics over `rounds` traced rounds;
    /// every per-layer metric not returned here reads 0.
    fn layer_metrics(&self, ledger: &Ledger, rounds: f64) -> Vec<(&'static str, f64)>;
}

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["serve_cold", "serve_fleet", "explore", "simulate"];

/// End-to-end metrics (untraced run), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Stages timed in the traced run: each reports `<stage>.calls` and
/// `<stage>.ms`, both per round.
const STAGES: &[&str] = &[
    "dnn.zoo",
    "service.key",
    "xmem.segment",
    "check.static",
    "analysis.rta",
    "analysis.headroom",
    "framework.admit",
    "service.answer",
    "explore.search",
    "explore.run_path",
    "explore.snapshot",
    "sim.resume",
    "sim.run",
    "obs.spans",
    "obs.blame",
    "obs.export",
    "bench.check",
];

/// Per-layer metrics beyond the stage pairs, with units.
const LAYER_EXTRAS: &[(&str, &str)] = &[
    ("service.unattributed.ms", "ms/round"),
    ("service.answer_hit_ratio", "ratio"),
    ("service.lowering_hit_ratio", "ratio"),
    ("service.analysis_hit_ratio", "ratio"),
    ("service.headroom_hit_ratio", "ratio"),
    ("explore.snapshot_bytes", "bytes/round"),
    ("explore.states", "states/round"),
    ("explore.runs", "runs/round"),
    ("explore.transitions", "trans/round"),
    ("explore.states_per_ktransition", "states/ktrans"),
    ("states_per_s", "states/s"),
    ("conclusive_cells", "cells/round"),
    ("sim.events", "events/round"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.faults_injected", "faults/round"),
    ("sim.fetch_retries", "retries/round"),
    ("sim_cycles_per_s", "cycles/s"),
    ("failed_share", "ratio"),
    ("trace.round_ms", "ms"),
    ("trace.untraced_round_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
];

/// Largest share of the traced round wall the stage ledger may leave
/// unexplained before the traced run counts as failed.
const RECONCILE_TOLERANCE: f64 = 0.05;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for stage in STAGES {
        names.push((format!("{stage}.calls"), "calls/round"));
        names.push((format!("{stage}.ms"), "ms/round"));
    }
    names.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_owned(), u)));
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "serve_cold" => Box::new(serve::Serve::cold(seed)),
        "serve_fleet" => Box::new(serve::Serve::fleet(seed)),
        "explore" => Box::new(explore::Explore::new(seed)),
        "simulate" => Box::new(simulate::Simulate::new(seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// A finite JSON number (non-finite values cannot occur in a valid run;
/// they print as 0 rather than as invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut probe = HostProbe::new();
    // A set-up's time, scaled to the reference host by the probes just
    // before and just after it.
    let scaled_setup = |probe: &mut HostProbe| {
        let before = probe.measure();
        let (w, ns) = timed(|| setup(&args.workload, args.seed));
        let after = probe.measure();
        (w, ns as f64 / 1e9 / ((before + after) / 2.0))
    };
    let (mut w, first_setup_s) = scaled_setup(&mut probe);
    let mut setup_secs = vec![first_setup_s];
    let mut probe = Some(probe);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();

    let mut rounds: Vec<Round> = Vec::new();
    let run_round =
        |w: &mut Box<dyn Workload>, ledger: Option<&mut Ledger>, probe: &mut Option<HostProbe>| {
            let mut r = Round {
                probe: probe.take(),
                ..Round::default()
            };
            let t = Instant::now();
            match ledger {
                Some(l) => w.traced_round(l, &mut r),
                None => w.round(&mut r),
            }
            let wall = t.elapsed().as_secs_f64();
            *probe = r.probe.take();
            (r, wall)
        };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        // Untraced rounds for the first third of the budget, traced
        // rounds for the rest; their wall difference is the tracing
        // overhead.
        let mut untraced = Vec::new();
        loop {
            let (r, wall) = run_round(&mut w, None, &mut None);
            untraced.push(wall);
            rounds.push(r);
            if start.elapsed() >= budget / 3 {
                break;
            }
        }
        w.begin_trace();
        let mut ledger = Ledger::default();
        let mut traced = Vec::new();
        loop {
            let (r, wall) = run_round(&mut w, Some(&mut ledger), &mut None);
            traced.push(wall);
            rounds.push(r);
            if start.elapsed() >= budget {
                break;
            }
        }
        let n = traced.len() as f64;
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        for stage in STAGES {
            values.insert(format!("{stage}.calls"), ledger.calls(stage) as f64 / n);
            values.insert(format!("{stage}.ms"), ledger.ns(stage) as f64 / n / 1e6);
        }
        for (name, v) in w.layer_metrics(&ledger, n) {
            values.insert(name.to_owned(), v);
        }
        let round_ms = traced.iter().sum::<f64>() / n * 1e3;
        let untraced_ms = untraced.iter().sum::<f64>() / untraced.len() as f64 * 1e3;
        let unattributed_ms = round_ms - ledger.total_ns() as f64 / n / 1e6;
        let share = unattributed_ms / round_ms;
        values.insert("trace.round_ms".into(), round_ms);
        values.insert("trace.untraced_round_ms".into(), untraced_ms);
        values.insert("trace.overhead_ms".into(), round_ms - untraced_ms);
        values.insert("trace.unattributed_ms".into(), unattributed_ms);
        values.insert("trace.unattributed_share".into(), share);
        println!(
            "reconciliation: stages {:.3} ms + unattributed {:.3} ms = traced round {:.3} ms \
             (unattributed share {:.4}, tolerance {RECONCILE_TOLERANCE}); \
             tracing overhead {:.3} ms per round over {} traced and {} untraced rounds",
            round_ms - unattributed_ms,
            unattributed_ms,
            round_ms,
            share,
            round_ms - untraced_ms,
            traced.len(),
            untraced.len()
        );
        if share.abs() > RECONCILE_TOLERANCE {
            rounds[0].check(false, || {
                format!("stage ledger leaves {share:.4} of the traced wall unexplained")
            });
        }
        let (attempted, failed) = totals(&rounds);
        values.insert(
            "failed_share".into(),
            failed as f64 / attempted.max(1) as f64,
        );
        for (name, unit) in per_layer_names() {
            let v = values.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        loop {
            let (r, _) = run_round(&mut w, None, &mut probe);
            rounds.push(r);
            // The other set-ups are spread evenly over the run (each
            // result is dropped), so their median does not hang on how
            // fast the shared host was at one moment.
            while setup_secs.len() < SETUPS
                && start.elapsed() >= budget.mul_f64(setup_secs.len() as f64 / SETUPS as f64)
            {
                let p = probe.as_mut().expect("the probe is back after a round");
                setup_secs.push(scaled_setup(p).1);
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        let factors = &probe
            .as_ref()
            .expect("the probe is back after a round")
            .factors;
        println!(
            "host factor: median {:.3}, range {:.3}-{:.3} over {} probes \
             (calibration time over {} ns; every time below is scaled to factor 1)",
            median(factors),
            percentile(factors, 0.0),
            percentile(factors, 100.0),
            factors.len(),
            common::REFERENCE_CALIBRATION_NS
        );
        // Rates and round times follow from the same per-operation
        // latencies as the percentiles.
        let lat_us = typical_latencies_us(&rounds);
        let total_s = lat_us.iter().sum::<f64>() / 1e6;
        let values = [
            median(&setup_secs),
            lat_us.len() as f64 / total_s,
            median(&lat_us),
            percentile(&lat_us, 99.0),
            total_s / rounds.len() as f64,
            peak_rss_mb(),
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_owned(), v, unit));
        }
        let inputs: std::collections::BTreeSet<u64> = rounds
            .iter()
            .flat_map(|r| r.latencies.iter().map(|&(key, _)| key))
            .collect();
        let beyond = lat_us.len() - (lat_us.len() as f64 * 0.99).ceil() as usize;
        println!(
            "samples: {} operations on {} distinct inputs in {} rounds ({} above p99); \
             setups {:?} s",
            lat_us.len(),
            inputs.len(),
            rounds.len(),
            beyond,
            setup_secs
        );
    }

    for (k, v) in w.properties() {
        println!("input {k}: {v}");
    }
    let (attempted, failed) = totals(&rounds);
    println!(
        "failed_share: {failed}/{attempted} = {}",
        num(failed as f64 / attempted.max(1) as f64)
    );
    for (name, v, unit) in &metrics {
        println!("metric {name} = {} {unit}", num(*v));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// Every timed operation's latency in µs (scaled to the reference host),
/// taken as the lower quartile over the run of the operations on the
/// same input. Scaling removes most of the host's slow stretches; the
/// lower quartile drops what is left of them on the slow side, and a
/// mis-timed probe on the fast side, while a change in the program's
/// cost for an input moves every repeat of it.
fn typical_latencies_us(rounds: &[Round]) -> Vec<f64> {
    let mut by_key: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(key, ns) in rounds.iter().flat_map(|r| &r.latencies) {
        by_key.entry(key).or_default().push(ns / 1e3);
    }
    by_key
        .values()
        .flat_map(|v| std::iter::repeat_n(percentile(v, 25.0), v.len()))
        .collect()
}

fn totals(rounds: &[Round]) -> (u64, u64) {
    rounds
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    /// The metric and workload names this program prints are exactly
    /// the ones `BENCHMARK.json` declares, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let doc: Content = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(Content::Seq(items)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            items
                .iter()
                .map(|item| {
                    let s = |k: &str| match item.get(k) {
                        Some(Content::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
