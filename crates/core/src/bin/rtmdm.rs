//! `rtmdm` — command-line front end of the framework.
//!
//! ```text
//! rtmdm platforms
//! rtmdm models
//! rtmdm admit    --platform stm32f746-qspi --task kws=ds-cnn@100 --task ic=resnet8@400
//! rtmdm simulate --platform stm32f746-qspi --task kws=ds-cnn@100 --seconds 2
//! rtmdm optimize --platform stm32f746-qspi --task kws=ds-cnn@100 --task ic=resnet8@400
//! rtmdm trace    --platform stm32f746-qspi --task kws=ds-cnn@100 --out t.json --format chrome
//! rtmdm explain  --platform stm32f746-qspi --task kws=ds-cnn@100 --seconds 2
//! rtmdm check    --platform stm32f746-qspi --task kws=ds-cnn@100 --json --deny-warnings
//! rtmdm serve    --once --input queries.jsonl
//! ```
//!
//! Task syntax: `name=model@period_ms[/deadline_ms][:strategy]` with
//! strategy one of `rt-mdm`, `fetch-then-compute`, `whole-dnn`,
//! `all-in-sram`. The `trace` subcommand simulates like `simulate`,
//! then exports the event trace as Chrome trace-event JSON (load it in
//! Perfetto / `chrome://tracing`) or JSONL, and with `--gantt` renders
//! an ASCII Gantt chart. `--fault-rate PPM` (with `--fault-seed`,
//! `--fault-retries`, `--fault-jitter`) turns on seeded DMA fault
//! injection for `simulate`/`trace`, and `--miss-policy
//! continue|abort|skip-next` selects what the runtime does with jobs
//! that miss their deadline. `--attribution on|off`
//! (default `off`) makes `simulate`/`trace` record the causal anchor
//! events the attribution layer consumes; the default keeps traces
//! byte-identical to previous releases. The `explain` subcommand
//! simulates like `trace` with attribution forced on, then prints the
//! exact six-term response-time decomposition (`response = compute +
//! blocking_fetch + preemption + bus_contention + fault_refetch +
//! dispatch_wait`, conserved cycle-for-cycle): a ranked per-task blame
//! table, per-task response percentiles, and the dominant interference
//! source of every missed job; `--json` emits the machine-readable
//! report instead. The `check` subcommand runs the static
//! verifier without admitting: `--json` emits the machine-readable
//! report, `--deny-warnings` escalates warnings to errors, and
//! `--allow RTM0xx` / `--deny RTM0xx` tune individual rules.
//! `check --explain RTM0xx` prints one rule's severity, category,
//! and description instead of verifying anything (unknown IDs are a
//! usage error). The `serve` subcommand runs the admission service:
//! it reads JSONL admission requests (one JSON object per line) from
//! stdin or `--input PATH`, answers each on stdout (schema
//! `rtmdm-serve/1`), and memoizes whole answers and spec lowerings
//! across queries so fleets of near-identical requests answer from the
//! cache; `--once` reads the whole input and answers it as one
//! sharded batch (input-order output), the default streams
//! line-by-line. Malformed lines produce `"ok":false` error records,
//! not a dead stream; `serve` exits 0 even when some lines were
//! malformed (1 only on I/O failure). A cache-hit summary goes to
//! stderr at EOF. `check --explore` additionally runs the exhaustive
//! schedule-space explorer over the admissible interleavings
//! (`RTM050`–`RTM053`): `--max-states N` bounds the search (the
//! default is 20000; exceeding the bound reports `RTM053`,
//! inconclusive rather than silently safe) and `--witness PATH`
//! writes the replayable counterexample JSON when a violation is
//! reached. `--jitter PCT` (at most 99) lets each job run anywhere
//! down to that fraction below its WCET, in `simulate` as in the
//! explorer. Exit status: 0 on success
//! (schedulable for `admit`, no errors for `check`), 2 when admission
//! or verification rejects, 1 on usage errors.

use std::process::ExitCode;

use rtmdm_core::{report, RtMdm, Strategy, SystemSpec, TaskSpec};
use rtmdm_dnn::zoo;
use rtmdm_mcusim::PlatformConfig;
use rtmdm_obs::Timeline;
use rtmdm_sched::sim::Policy;
use rtmdm_sched::MissPolicy;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rtmdm <platforms|models|admit|simulate|optimize|trace|explain|check|serve> \
         [--platform NAME] [--task name=model@period_ms[/deadline_ms][:strategy]]… \
         [--seconds S] [--jitter PCT] [--seed N] [--edf] [--work-conserving] \
         [--fault-rate PPM] [--fault-seed N] [--fault-retries N] [--fault-jitter CYCLES] \
         [--miss-policy continue|abort|skip-next] [--attribution on|off] \
         [--out PATH] [--format chrome|jsonl] [--gantt] \
         [--json] [--deny-warnings] [--allow RULE] [--deny RULE] [--explain RULE] \
         [--explore] [--max-states N] [--witness PATH] \
         (serve: [--once] [--input PATH])"
    );
    ExitCode::from(1)
}

/// Trace export encodings accepted by `--format`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
}

/// Why argument parsing failed: a malformed invocation (print the
/// usage string) or a specific mistake worth a targeted diagnostic.
enum CliError {
    Usage,
    Msg(String),
}

struct Cli {
    /// The system `--platform`, the option flags and `--task` describe.
    sys: SystemSpec,
    /// Simulated horizon of `simulate`/`trace`/`explain`, from `--seconds`.
    horizon_us: u64,
    jitter_pct: u64,
    seed: u64,
    out: Option<String>,
    format: TraceFormat,
    gantt: bool,
    json: bool,
    deny_warnings: bool,
    allow: Vec<String>,
    deny: Vec<String>,
    explain: Option<String>,
    explore: bool,
    /// The exploration bounds; `--max-states` sets the state budget.
    limits: rtmdm_core::ExploreLimits,
    witness: Option<String>,
}

fn parse_task(arg: &str) -> Option<TaskSpec> {
    // name=model@period_ms[/deadline_ms][:strategy]
    let (name, rest) = arg.split_once('=')?;
    let (model_name, rest) = rest.split_once('@')?;
    let (timing, strategy) = match rest.split_once(':') {
        Some((t, s)) => (t, Some(s)),
        None => (rest, None),
    };
    let (period_ms, deadline_ms) = match timing.split_once('/') {
        Some((p, d)) => (p.parse::<u64>().ok()?, d.parse::<u64>().ok()?),
        None => {
            let p = timing.parse::<u64>().ok()?;
            (p, p)
        }
    };
    let model = zoo::by_name(model_name)?;
    let mut spec = TaskSpec::new(
        name,
        model,
        period_ms.checked_mul(1000)?,
        deadline_ms.checked_mul(1000)?,
    );
    if let Some(s) = strategy {
        spec = spec.with_strategy(Strategy::from_name(s)?);
    }
    Some(spec)
}

/// The next argument parsed as a number, or a usage error.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>) -> Result<T, CliError> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or(CliError::Usage)
}

fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut sys = SystemSpec::new(PlatformConfig::stm32f746_qspi());
    let mut horizon_us = 2_000_000u64;
    let mut jitter_pct = 0u64;
    let mut seed = 0u64;
    let mut out = None;
    let mut format = TraceFormat::Chrome;
    let mut gantt = false;
    let mut json = false;
    let mut deny_warnings = false;
    let mut allow = Vec::new();
    let mut deny = Vec::new();
    let mut explain = None;
    let mut explore = false;
    let mut limits = rtmdm_core::ExploreLimits::default();
    let mut witness = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--platform" => {
                let name = it.next().ok_or(CliError::Usage)?;
                sys.platform = PlatformConfig::preset(name)
                    .ok_or_else(|| CliError::Msg(format!("unknown platform `{name}`")))?;
            }
            "--task" => {
                let spec = it.next().ok_or(CliError::Usage)?;
                sys.tasks.push(parse_task(spec).ok_or(CliError::Usage)?);
            }
            "--seconds" => {
                horizon_us = value::<u64>(&mut it)?
                    .checked_mul(1_000_000)
                    .ok_or(CliError::Usage)?;
            }
            "--jitter" => {
                jitter_pct = value(&mut it)?;
                if jitter_pct > 99 {
                    return Err(CliError::Usage);
                }
            }
            "--seed" => seed = value(&mut it)?,
            "--edf" => sys.options.policy = Policy::Edf,
            "--work-conserving" => sys.options.work_conserving = true,
            "--fault-rate" => sys.options.fault.dma_fault_rate_ppm = value(&mut it)?,
            "--fault-seed" => sys.options.fault.seed = value(&mut it)?,
            "--fault-retries" => sys.options.fault.max_retries = value(&mut it)?,
            "--fault-jitter" => sys.options.fault.jitter_max_cycles = value(&mut it)?,
            "--miss-policy" => {
                let p = it.next().ok_or(CliError::Usage)?;
                sys.options.miss_policy = MissPolicy::from_name(p).ok_or_else(|| {
                    CliError::Msg(format!(
                        "unknown --miss-policy `{p}` (expected `continue`, `abort`, or `skip-next`)"
                    ))
                })?;
            }
            "--attribution" => {
                let v = it.next().ok_or(CliError::Usage)?;
                sys.options.attribution = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => {
                        return Err(CliError::Msg(format!(
                            "unknown --attribution `{v}` (expected `on` or `off`)"
                        )))
                    }
                };
            }
            "--out" => out = Some(it.next().ok_or(CliError::Usage)?.clone()),
            "--format" => {
                let f = it.next().ok_or(CliError::Usage)?;
                format = match f.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "jsonl" => TraceFormat::Jsonl,
                    _ => {
                        return Err(CliError::Msg(format!(
                            "unknown --format `{f}` (expected `chrome` or `jsonl`)"
                        )))
                    }
                };
            }
            "--gantt" => gantt = true,
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--allow" => allow.push(it.next().ok_or(CliError::Usage)?.clone()),
            "--deny" => deny.push(it.next().ok_or(CliError::Usage)?.clone()),
            "--explain" => explain = Some(it.next().ok_or(CliError::Usage)?.clone()),
            "--explore" => explore = true,
            "--max-states" => limits.max_states = value(&mut it)?,
            "--witness" => witness = Some(it.next().ok_or(CliError::Usage)?.clone()),
            _ => return Err(CliError::Usage),
        }
    }
    Ok(Cli {
        sys,
        horizon_us,
        jitter_pct,
        seed,
        out,
        format,
        gantt,
        json,
        deny_warnings,
        allow,
        deny,
        explain,
        explore,
        limits,
        witness,
    })
}

fn cmd_platforms() -> ExitCode {
    let rows: Vec<Vec<String>> = PlatformConfig::presets()
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.cpu.to_string(),
                format!("{} KiB", p.sram_bytes / 1024),
                p.ext_mem.kind.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(&["platform", "cpu", "sram", "ext-mem"], &rows)
    );
    ExitCode::SUCCESS
}

fn cmd_models() -> ExitCode {
    let rows: Vec<Vec<String>> = zoo::all()
        .iter()
        .map(|m| {
            vec![
                m.name().to_owned(),
                m.len().to_string(),
                format!("{} KiB", m.total_weight_bytes() / 1024),
                format!("{}k", m.total_macs() / 1000),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(&["model", "layers", "weights", "MACs"], &rows)
    );
    ExitCode::SUCCESS
}

/// Export a finished run's trace per `--format`/`--out`/`--gantt`.
///
/// The written JSON is re-parsed with the bundled `serde_json` before
/// the command reports success, so a malformed export fails loudly
/// rather than producing a file Perfetto rejects.
fn cmd_trace(cli: &Cli, run: &rtmdm_core::RunReport) -> ExitCode {
    let payload = match cli.format {
        TraceFormat::Chrome => {
            let json = rtmdm_obs::chrome_trace_json(&run.result.trace, &run.names);
            if let Err(e) = serde_json::from_str::<rtmdm_obs::ChromeTrace>(&json) {
                eprintln!("rtmdm: exported JSON failed validation: {e:?}");
                return ExitCode::from(2);
            }
            json
        }
        TraceFormat::Jsonl => {
            let lines = rtmdm_obs::jsonl(&run.result.trace);
            for line in lines.lines() {
                if let Err(e) = serde_json::from_str::<rtmdm_mcusim::TraceEvent>(line) {
                    eprintln!("rtmdm: exported JSONL failed validation: {e:?}");
                    return ExitCode::from(2);
                }
            }
            lines
        }
    };
    match &cli.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &payload) {
                eprintln!("rtmdm: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "wrote {} ({} events, {} bytes)",
                path,
                run.result.trace.len(),
                payload.len()
            );
        }
        None => print!("{payload}"),
    }
    if cli.gantt {
        let tl = Timeline::from_trace(&run.result.trace, run.result.horizon);
        println!("{}", rtmdm_obs::gantt::render(&tl, 72, &run.names));
        let s = tl.summary();
        println!(
            "cpu {} busy / {} idle, dma {} busy, overlap {} of {} horizon",
            s.cpu_busy, s.cpu_idle, s.dma_busy, s.overlap, s.horizon
        );
    }
    ExitCode::SUCCESS
}

/// Machine-readable payload of `rtmdm explain --json`: the validated
/// blame report plus the per-task response percentiles. Round-tripped
/// through the bundled `serde_json` before printing, like the other
/// JSON outputs.
#[derive(serde::Serialize, serde::Deserialize)]
struct ExplainJson {
    percentiles: Vec<TaskPercentiles>,
    blame: rtmdm_obs::BlameReport,
}

/// Response-time percentile upper bounds of one task (log₂-bucket tops
/// from the simulator's response `Histogram`; `None` when no job completed).
#[derive(serde::Serialize, serde::Deserialize)]
struct TaskPercentiles {
    task: String,
    completions: u64,
    p50_upper: Option<u64>,
    p95_upper: Option<u64>,
    p99_upper: Option<u64>,
    max: u64,
}

/// Attribute the finished run and print the blame forensics.
///
/// The conservation invariant (terms sum exactly to each job's
/// response) is validated for every job before anything is printed; a
/// violation is a bug in the reconstruction or the simulator's anchor
/// emission and fails the command.
fn cmd_explain(cli: &Cli, run: &rtmdm_core::RunReport) -> ExitCode {
    let blame = match rtmdm_obs::attribute(&run.result.trace) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("rtmdm: attribution failed: {e}");
            return ExitCode::from(2);
        }
    };
    let name =
        |t: rtmdm_mcusim::TaskId| run.names.get(t.0).cloned().unwrap_or_else(|| t.to_string());
    let percentiles: Vec<TaskPercentiles> = run
        .result
        .stats
        .iter()
        .enumerate()
        .map(|(k, s)| TaskPercentiles {
            task: name(rtmdm_mcusim::TaskId(k)),
            completions: s.completions,
            p50_upper: s.response_hist.percentile_upper(50),
            p95_upper: s.response_hist.percentile_upper(95),
            p99_upper: s.response_hist.percentile_upper(99),
            max: s.max_response.get(),
        })
        .collect();

    if cli.json {
        let payload = ExplainJson { percentiles, blame };
        let json = serde_json::to_string(&payload).expect("explain report serializes");
        if let Err(e) = serde_json::from_str::<ExplainJson>(&json) {
            eprintln!("rtmdm: explain report failed JSON validation: {e:?}");
            return ExitCode::from(2);
        }
        println!("{json}");
        return ExitCode::SUCCESS;
    }

    let dominant = |d: Option<(rtmdm_obs::BlameSource, rtmdm_mcusim::Cycles)>| match d {
        Some((src, c)) => format!("{src} ({c})"),
        None => "none (compute-bound)".to_owned(),
    };

    // Blame table: tasks ranked by misses, then by lost (non-compute)
    // cycles, so the task most in trouble tops the table.
    let mut ranked: Vec<_> = blame.tasks.iter().collect();
    ranked.sort_by_key(|(t, b)| {
        (
            std::cmp::Reverse(b.misses),
            std::cmp::Reverse(b.total().saturating_sub(b.compute)),
            **t,
        )
    });
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .map(|(t, b)| {
            vec![
                name(**t),
                b.jobs.to_string(),
                b.misses.to_string(),
                b.max_response.to_string(),
                b.compute.to_string(),
                b.preemption_total().to_string(),
                b.blocking_fetch.to_string(),
                b.bus_contention.to_string(),
                b.fault_refetch.to_string(),
                b.dispatch_wait.to_string(),
                dominant(b.dominant_interference()),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(
            &[
                "task", "jobs", "miss", "max-resp", "compute", "preempt", "blocking", "bus",
                "refetch", "dispatch", "dominant",
            ],
            &rows,
        )
    );

    let pct_rows: Vec<Vec<String>> = percentiles
        .iter()
        .map(|p| {
            let cy = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
            vec![
                p.task.clone(),
                p.completions.to_string(),
                cy(p.p50_upper),
                cy(p.p95_upper),
                cy(p.p99_upper),
                p.max.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(
            &["task", "done", "p50<=", "p95<=", "p99<=", "max"],
            &pct_rows
        )
    );

    let missed = blame.missed_jobs();
    println!(
        "jobs attributed: {} ({} missed); conservation: exact",
        blame.jobs.len(),
        missed.len()
    );
    const MISS_LIMIT: usize = 12;
    for j in missed.iter().take(MISS_LIMIT) {
        println!(
            "miss {} {}: response {} = compute {} + interference {}, dominant {}",
            name(j.task),
            j.job,
            j.response,
            j.compute,
            j.response.saturating_sub(j.compute),
            dominant(j.dominant_interference()),
        );
    }
    if missed.len() > MISS_LIMIT {
        println!("… and {} more missed jobs", missed.len() - MISS_LIMIT);
    }
    ExitCode::SUCCESS
}

/// Lower-case category label for `check --explain` output.
fn category_name(c: rtmdm_check::Category) -> &'static str {
    match c {
        rtmdm_check::Category::Staging => "staging",
        rtmdm_check::Category::Plan => "plan",
        rtmdm_check::Category::Admission => "admission",
        rtmdm_check::Category::Graph => "graph",
        rtmdm_check::Category::Platform => "platform",
        rtmdm_check::Category::Explore => "exploration",
    }
}

/// `check --explain RTM0xx`: print one rule's metadata and description.
///
/// An unknown ID is a usage error (exit 1), matching `--allow`/`--deny`.
fn cmd_explain_rule(id: &str) -> ExitCode {
    let Some(rule) = rtmdm_check::Rule::from_id(id) else {
        eprintln!("rtmdm: unknown rule `{id}` in --explain");
        return ExitCode::from(1);
    };
    println!(
        "{} ({}, {}, {})",
        rule.id(),
        rule.default_severity(),
        category_name(rule.category()),
        if rule.blocks_admission() {
            "blocks admission"
        } else {
            "non-blocking"
        }
    );
    println!("  {}", rule.summary());
    ExitCode::SUCCESS
}

/// Run the static verifier over the spec without admitting it.
///
/// Unlike the other subcommands, `check` verifies the parsed system as
/// it is, without building an [`RtMdm`] — eager validation there would
/// reject exactly the broken specs the verifier exists to explain. JSON
/// output is re-parsed with the bundled `serde_json` before printing,
/// mirroring the `trace` export validation.
fn cmd_check(cli: &Cli) -> ExitCode {
    if let Some(id) = &cli.explain {
        return cmd_explain_rule(id);
    }
    if cli.sys.tasks.is_empty() {
        eprintln!("rtmdm: at least one --task is required");
        return usage();
    }
    let mut filter = rtmdm_check::RuleFilter::new();
    for id in &cli.allow {
        match rtmdm_check::Rule::from_id(id) {
            Some(rule) => filter = filter.allow(rule),
            None => {
                eprintln!("rtmdm: unknown rule `{id}` in --allow");
                return ExitCode::from(1);
            }
        }
    }
    for id in &cli.deny {
        match rtmdm_check::Rule::from_id(id) {
            Some(rule) => filter = filter.deny(rule),
            None => {
                eprintln!("rtmdm: unknown rule `{id}` in --deny");
                return ExitCode::from(1);
            }
        }
    }
    if cli.deny_warnings {
        filter = filter.deny_warnings(true);
    }
    let outcome = if cli.explore {
        // `--jitter PCT` means the same thing it means for `simulate`:
        // jobs may run anywhere down to this fraction below WCET. The
        // explorer turns that into a per-job execution-time choice
        // dimension.
        cli.sys
            .explore(&cli.limits, 1_000_000 - cli.jitter_pct * 10_000)
    } else {
        rtmdm_core::CheckOutcome {
            report: cli.sys.check(),
            witness: None,
            explore_stats: None,
        }
    };
    let report = filter.apply(&outcome.report);
    // The witness export mirrors the trace export: round-tripped
    // through the bundled `serde_json` before the file is trusted.
    if let Some(path) = &cli.witness {
        match &outcome.witness {
            Some(w) => {
                let json = serde_json::to_string(w).expect("witness serializes");
                if let Err(e) = serde_json::from_str::<rtmdm_check::Witness>(&json) {
                    eprintln!("rtmdm: witness failed JSON validation: {e:?}");
                    return ExitCode::from(2);
                }
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("rtmdm: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("rtmdm: wrote witness to {path}");
            }
            None => eprintln!("rtmdm: no witness to write (no violation reached)"),
        }
    }
    if cli.json {
        let json = report.to_json();
        if let Err(e) = serde_json::from_str::<rtmdm_check::JsonReport>(&json) {
            eprintln!("rtmdm: check report failed JSON validation: {e:?}");
            return ExitCode::from(2);
        }
        println!("{json}");
    } else {
        println!("{}", report.render_text());
        if let Some(stats) = &outcome.explore_stats {
            println!(
                "explored {} states over {} runs ({} transitions): {}",
                stats.states,
                stats.runs,
                stats.transitions,
                if stats.complete {
                    "complete"
                } else if outcome.witness.is_some() {
                    "stopped at first violation"
                } else {
                    "state budget exceeded"
                }
            );
        }
    }
    if report.error_count() > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Feeds JSONL admission requests through one [`rtmdm_core::Service`]:
/// all at once
/// as a sharded batch (`--once`), or line-by-line as they arrive.
/// Blank lines are skipped; every other input line produces exactly
/// one output line (a verdict or an `"ok":false` error record).
fn serve_loop<R: std::io::BufRead>(
    service: &rtmdm_core::Service,
    reader: R,
    once: bool,
) -> std::io::Result<()> {
    use std::io::Write;
    let stdout = std::io::stdout();
    if once {
        let lines: Vec<String> = reader
            .lines()
            .collect::<std::io::Result<Vec<String>>>()?
            .into_iter()
            .filter(|l| !l.trim().is_empty())
            .collect();
        let mut out = stdout.lock();
        for answer in service.answer_batch(lines) {
            writeln!(out, "{answer}")?;
        }
        out.flush()
    } else {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut out = stdout.lock();
            writeln!(out, "{}", service.answer_line(&line))?;
            out.flush()?;
        }
        Ok(())
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut once = false;
    let mut input: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--input" => match it.next() {
                Some(path) => input = Some(path.clone()),
                None => {
                    eprintln!("rtmdm: --input requires a path");
                    return ExitCode::from(1);
                }
            },
            _ => return usage(),
        }
    }
    let service = rtmdm_core::Service::new();
    let result = match &input {
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => serve_loop(&service, std::io::BufReader::new(f), once),
            Err(e) => {
                eprintln!("rtmdm: cannot open {path}: {e}");
                return ExitCode::from(1);
            }
        },
        None => serve_loop(&service, std::io::stdin().lock(), once),
    };
    let stats = service.stats();
    eprintln!(
        "serve: {} queries; reused {} answers, {} lowerings",
        stats.queries, stats.answers_reused, stats.lowerings_reused
    );
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtmdm: {e}");
            ExitCode::from(1)
        }
    }
}

/// Reports why the framework refused the system: exit 2.
fn refused(e: rtmdm_core::AdmitError) -> ExitCode {
    eprintln!("rtmdm: {e}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    match cmd.as_str() {
        "platforms" => return cmd_platforms(),
        "models" => return cmd_models(),
        "serve" => return cmd_serve(&args[1..]),
        "admit" | "simulate" | "optimize" | "trace" | "explain" | "check" => {}
        _ => return usage(),
    }
    let mut cli = match parse(&args[1..]) {
        Ok(cli) => cli,
        Err(CliError::Usage) => return usage(),
        Err(CliError::Msg(m)) => {
            eprintln!("rtmdm: {m}");
            return ExitCode::from(1);
        }
    };
    // Forensics need the causal anchors: explain always records them.
    if cmd == "explain" {
        cli.sys.options.attribution = true;
    }
    // `check` validates its own task requirement so that
    // `check --explain RTM0xx` works without a spec.
    if cmd == "check" {
        return cmd_check(&cli);
    }
    if cli.sys.tasks.is_empty() {
        eprintln!("rtmdm: at least one --task is required");
        return usage();
    }
    let fw = match RtMdm::try_from(cli.sys.clone()) {
        Ok(fw) => fw,
        Err(e) => return refused(e),
    };
    match cmd.as_str() {
        "admit" => match fw.admit() {
            Ok(a) => {
                println!("{}", a.to_table());
                println!("occupancy: {}", report::ppm_as_pct(a.occupancy_ppm));
                println!(
                    "sram: {} / {} bytes",
                    a.sram_total(),
                    fw.platform().sram_bytes
                );
                if a.schedulable() {
                    println!("verdict: SCHEDULABLE");
                    ExitCode::SUCCESS
                } else {
                    println!("verdict: NOT SCHEDULABLE");
                    ExitCode::from(2)
                }
            }
            Err(e) => refused(e),
        },
        "simulate" | "trace" | "explain" => {
            let scale_min = 1_000_000 - cli.jitter_pct * 10_000;
            let run = match fw.simulate_with(cli.horizon_us, scale_min, cli.seed) {
                Ok(run) => run,
                Err(e) => return refused(e),
            };
            match cmd.as_str() {
                "trace" => cmd_trace(&cli, &run),
                "explain" => cmd_explain(&cli, &run),
                _ => {
                    println!("{}", run.to_table());
                    println!("misses: {}", run.deadline_misses());
                    // Only fault/policy runs grow the extra line, so
                    // default invocations stay byte-identical.
                    if fw.options().fault.is_active()
                        || fw.options().miss_policy != MissPolicy::Continue
                    {
                        let m = &run.result.metrics;
                        println!(
                            "faults: {} injected, {} retries ({} refetch cycles), {} shed, {} aborted",
                            m.injected_faults,
                            m.fetch_retries,
                            m.refetch_cycles.get(),
                            m.shed_jobs,
                            m.aborted_jobs
                        );
                    }
                    ExitCode::SUCCESS
                }
            }
        }
        "optimize" => match fw.optimize() {
            Ok(Some(out)) => {
                let rows: Vec<Vec<String>> = fw
                    .specs()
                    .iter()
                    .zip(&out.strategies)
                    .map(|(spec, s)| vec![spec.name.clone(), s.to_string()])
                    .collect();
                println!("{}", report::table(&["task", "strategy"], &rows));
                println!(
                    "sram: {} bytes, headroom: {}, candidates admitted: {}",
                    out.sram_used,
                    report::ppm_as_pct(out.scaling_ppm),
                    out.admissible_count
                );
                ExitCode::SUCCESS
            }
            Ok(None) => {
                println!("no admissible configuration found");
                ExitCode::from(2)
            }
            Err(e) => refused(e),
        },
        _ => usage(),
    }
}
