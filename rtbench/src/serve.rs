//! `serve_cold` and `serve_fleet`: admission queries through
//! [`Service::answer_line`], one client in a closed loop.
//!
//! `serve_cold` answers a seeded list of distinct requests, each on a
//! fresh [`Service`], so the memo caches never help: this is the cost
//! every new configuration and every one-shot `rtmdm admit`/`check`
//! pays. `serve_fleet` feeds one long-lived, pool-warmed [`Service`] a
//! Zipf-like stream over a configuration pool, with a small share of
//! never-seen configurations (cache inserts beside the hits) and of
//! malformed lines (the error-record path).

use std::collections::HashSet;

use rtmdm_core::{FrameworkOptions, RtMdm, Service, Strategy, SystemSpec, TaskSpec};
use rtmdm_dnn::{zoo, Model};
use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_sched::analysis::{
    analysis_key, canonical_key, critical_scaling_ppm, edf_demand_test,
    rta_limited_preemption_with, SchedulerMode,
};
use rtmdm_sched::assign::dm_order;
use rtmdm_sched::sim::Policy;
use rtmdm_sched::{baseline, Segment, SporadicTask, StagingMode, TaskSet};
use serde::{Content, Serialize};

use crate::common::{timed, Ledger, Rng, Round};
use crate::Workload;

/// Requests in one `serve_cold` round.
pub const COLD_REQUESTS: usize = 32;
/// Distinct configurations in the `serve_fleet` pool.
pub const POOL_SIZE: usize = 16;
/// Lines in one `serve_fleet` round.
pub const FLEET_ROUND: usize = 8192;
/// Never-seen configurations in each round of fleet lines, at seeded
/// positions; a fixed count of fixed shape keeps the cold work per round
/// the same.
pub const FRESH_PER_ROUND: usize = 2;
/// Share of fleet lines that are malformed.
pub const MALFORMED_SHARE: f64 = 0.01;
/// Every this many fleet lines, the answer is compared byte for byte
/// with a fresh service's answer to the same line.
const SAMPLE_EVERY: u64 = 1024;

const PLATFORMS: &[&str] = &[
    "cortex-m4-lowend",
    "stm32f746-qspi",
    "stm32h743-ospi",
    "ideal-sram",
];

/// Zoo models with the period range (µs) a task running each gets. The
/// ranges are narrow (+10 %) so a seed moves cache keys and fixed points
/// but rarely a verdict, which would change the work an answer does.
const MODELS: &[(&str, u64, u64)] = &[
    ("micro-mlp", 10_000, 11_000),
    ("ds-cnn", 100_000, 110_000),
    ("lenet5", 100_000, 110_000),
    ("resnet8", 400_000, 440_000),
    ("mobilenet-v1-025", 500_000, 550_000),
    ("autoencoder", 100_000, 110_000),
];

/// Option sets a request may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opt {
    FixedPriority,
    Edf,
    WorkConserving,
    WholeDnn,
}

const OPTS: &[Opt] = &[
    Opt::FixedPriority,
    Opt::Edf,
    Opt::WorkConserving,
    Opt::WholeDnn,
];

impl Opt {
    fn json(self) -> &'static str {
        match self {
            Opt::FixedPriority => r#"{"policy":"fixed-priority"}"#,
            Opt::Edf => r#"{"policy":"edf"}"#,
            Opt::WorkConserving => r#"{"work_conserving":true}"#,
            Opt::WholeDnn => r#"{"force_strategy":"whole-dnn"}"#,
        }
    }

    fn options(self) -> FrameworkOptions {
        let mut o = FrameworkOptions::default();
        match self {
            Opt::FixedPriority => {}
            Opt::Edf => o.policy = Policy::Edf,
            Opt::WorkConserving => o.work_conserving = true,
            Opt::WholeDnn => o.force_strategy = Some(Strategy::WholeDnn),
        }
        o
    }
}

/// One admission request, before it is rendered to a line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub platform: &'static str,
    pub opt: Opt,
    /// `(model, period_us)` per task; task `k` is named `t{k}`.
    pub tasks: Vec<(&'static str, u64)>,
}

impl Request {
    pub fn line(&self, id: &str) -> String {
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(k, (model, period))| {
                format!(r#"{{"name":"t{k}","model":"{model}","period_us":{period}}}"#)
            })
            .collect();
        format!(
            r#"{{"id":"{id}","platform":"{}","options":{},"tasks":[{}]}}"#,
            self.platform,
            self.opt.json(),
            tasks.join(",")
        )
    }
}

/// A request over `models` with seeded periods (whole milliseconds).
fn request(rng: &mut Rng, platform: &'static str, opt: Opt, models: &[&'static str]) -> Request {
    let tasks = models
        .iter()
        .map(|&m| {
            let &(_, lo, hi) = MODELS.iter().find(|(n, _, _)| *n == m).expect("zoo model");
            (m, rng.range(lo / 1000, hi / 1000) * 1000)
        })
        .collect();
    Request {
        platform,
        opt,
        tasks,
    }
}

/// `count` distinct requests, in design order, over a fixed design: request `i` runs on
/// platform `i mod 4` with option set `i/4 mod 4`, its task count cycles
/// through `sizes`, and its models cycle through the zoo, so every model,
/// platform, option set and task count appears equally often. The seed
/// draws every period: it moves verdicts,
/// cache keys and fixed-point iterations, while the mix — and with it
/// the cost of a round — stays the same for every seed.
pub fn requests(rng: &mut Rng, count: usize, sizes: &[usize]) -> Vec<Request> {
    let mut slot = 0;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let size = sizes[(i + i / (PLATFORMS.len() * OPTS.len())) % sizes.len()];
        let models: Vec<&'static str> = (0..size)
            .map(|k| MODELS[(slot + k) % MODELS.len()].0)
            .collect();
        slot += size;
        let platform = PLATFORMS[i % PLATFORMS.len()];
        let opt = OPTS[(i / PLATFORMS.len()) % OPTS.len()];
        let mut req = request(rng, platform, opt, &models);
        while !seen.insert(req.clone()) {
            req.tasks[0].1 += 1000;
        }
        out.push(req);
    }
    out
}

/// What a fleet line is, and what its answer must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A configuration of the pool.
    Pool(usize),
    /// A configuration no earlier line carried.
    Fresh(Request),
    /// A malformed line; the answer is an error record.
    Malformed,
}

#[derive(Debug, Clone)]
pub struct FleetLine {
    pub index: u64,
    pub id: String,
    pub line: String,
    pub kind: Kind,
}

/// The seeded fleet stream: Zipf-like (s = 1) pool ranks, plus fresh and
/// malformed lines at fixed shares.
#[derive(Debug, Clone)]
pub struct FleetStream {
    rng: Rng,
    pub pool: Vec<Request>,
    cdf: Vec<f64>,
    next: u64,
    fresh: u64,
    /// Positions (within the current round) of its fresh lines.
    fresh_at: Vec<usize>,
}

impl FleetStream {
    pub fn new(seed: u64) -> FleetStream {
        let mut rng = Rng::stream(seed, 2);
        let pool = requests(&mut rng, POOL_SIZE, &[1, 2, 3]);
        let weights: Vec<f64> = (1..=POOL_SIZE).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        FleetStream {
            rng,
            pool,
            cdf,
            next: 0,
            fresh: 0,
            fresh_at: Vec::new(),
        }
    }

    pub fn next_line(&mut self) -> FleetLine {
        let index = self.next;
        self.next += 1;
        let id = format!("f{index}");
        let pos = (index % FLEET_ROUND as u64) as usize;
        if pos == 0 {
            // One fresh line in each equal slice of the round.
            let slice = FLEET_ROUND / FRESH_PER_ROUND;
            self.fresh_at = (0..FRESH_PER_ROUND)
                .map(|j| j * slice + self.rng.below(slice as u64) as usize)
                .collect();
        }
        if self.fresh_at.contains(&pos) {
            // The round's j-th fresh line is pool rank j (a variant of a
            // popular configuration, so every round carries the same cold
            // work) with its longest period moved off the whole-millisecond
            // grid every pool period sits on; the offset is unique per
            // fresh line: 1..=999, 1001..=1999, …
            let mut req = self.pool[self.fresh as usize % FRESH_PER_ROUND].clone();
            self.fresh += 1;
            let longest = (0..req.tasks.len())
                .max_by_key(|&t| req.tasks[t].1)
                .expect("pool configurations have tasks");
            req.tasks[longest].1 += self.fresh + (self.fresh - 1) / 999;
            return FleetLine {
                index,
                line: req.line(&id),
                id,
                kind: Kind::Fresh(req),
            };
        }
        let u = self.rng.unit();
        if u < MALFORMED_SHARE {
            let line = match self.rng.below(5) {
                0 => "{not json".to_owned(),
                1 => format!(r#"{{"id":"{id}","tasks":[],"bogus":1}}"#),
                2 => format!(r#"{{"id":"{id}","platform":"zx81","tasks":[]}}"#),
                3 => format!(
                    r#"{{"id":"{id}","tasks":[{{"name":"t","model":"gpt-5","period_us":1}}]}}"#
                ),
                _ => format!(r#"{{"id":"{id}","tasks":[{{"name":"t","model":"ds-cnn"}}]}}"#),
            };
            let id = if line.starts_with("{not") {
                String::new()
            } else {
                id
            };
            return FleetLine {
                index,
                id,
                line,
                kind: Kind::Malformed,
            };
        }
        let v = self.rng.unit();
        let rank = self
            .cdf
            .iter()
            .position(|&c| v < c)
            .unwrap_or(POOL_SIZE - 1);
        FleetLine {
            index,
            line: self.pool[rank].line(&id),
            id,
            kind: Kind::Pool(rank),
        }
    }
}

/// Checks one answer line against what its request must produce: one
/// `rtmdm-serve/1` JSON object echoing `id`, `ok:true` with a verdict
/// for a well-formed request, `ok:false` with an error for a malformed
/// one.
pub fn check_answer(answer: &str, id: &str, well_formed: bool) -> Result<(), String> {
    if answer.contains('\n') {
        return Err("answer spans several lines".to_owned());
    }
    let doc: Content =
        serde_json::from_str(answer).map_err(|e| format!("answer is not JSON: {e:?}"))?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("answer lacks `{k}`"));
    if field("schema")? != &Content::Str(rtmdm_core::SERVE_SCHEMA.to_owned()) {
        return Err("wrong schema".to_owned());
    }
    if field("id")? != &Content::Str(id.to_owned()) {
        return Err(format!("answer does not echo id {id}"));
    }
    if field("ok")? != &Content::Bool(well_formed) {
        return Err(format!("expected ok:{well_formed}"));
    }
    if !well_formed {
        return match field("error")? {
            Content::Str(s) if !s.is_empty() => Ok(()),
            _ => Err("error record without a message".to_owned()),
        };
    }
    let schedulable = match field("schedulable")? {
        Content::Bool(b) => *b,
        _ => return Err("`schedulable` is not a bool".to_owned()),
    };
    let verdict = if schedulable { "admit" } else { "reject" };
    if field("verdict")? != &Content::Str(verdict.to_owned()) {
        return Err("verdict disagrees with `schedulable`".to_owned());
    }
    match field("rta")? {
        Content::Seq(_) => Ok(()),
        _ => Err("`rta` is not a list".to_owned()),
    }
}

/// The cheap per-line check of a fleet answer: the fixed prefix every
/// well-formed or error answer starts with, and a single closing line.
fn check_prefix(answer: &str, id: &str, well_formed: bool) -> bool {
    let prefix = format!(
        r#"{{"schema":"{}","id":"{id}","ok":{well_formed},"#,
        rtmdm_core::SERVE_SCHEMA
    );
    answer.starts_with(&prefix) && answer.ends_with('}') && !answer.contains('\n')
}

/// The content-addressed keys the service computes for one request,
/// grouped by cache.
#[derive(Debug, Default)]
struct Keys {
    lower: Vec<String>,
    analysis: Option<String>,
    headroom: Option<String>,
}

/// Key sets already known to be in the traced service's caches.
#[derive(Debug, Default)]
struct KeySeen {
    lower: HashSet<String>,
    analysis: HashSet<String>,
    headroom: HashSet<String>,
    /// Keys computed for the first time, per cache, since the last
    /// reset — each is one cache miss.
    new: [u64; 3],
}

impl KeySeen {
    fn record(&mut self, keys: Keys, analysed: bool, headroom: bool) {
        for k in keys.lower {
            self.new[0] += u64::from(self.lower.insert(k));
        }
        if let (Some(k), true) = (keys.analysis, analysed) {
            self.new[1] += u64::from(self.analysis.insert(k));
        }
        if let (Some(k), true) = (keys.headroom, headroom) {
            self.new[2] += u64::from(self.headroom.insert(k));
        }
    }
}

/// A request resolved into the framework's types.
struct Resolved {
    platform: PlatformConfig,
    options: FrameworkOptions,
    specs: Vec<TaskSpec>,
}

fn preset(name: &str) -> PlatformConfig {
    PlatformConfig::presets()
        .into_iter()
        .find(|p| p.name == name)
        .expect("generated platforms are presets")
}

/// An answer line as a document (`Null` when it does not parse; the
/// answer check reports that).
fn parse(answer: &str) -> Content {
    serde_json::from_str(answer).unwrap_or(Content::Null)
}

fn resolve(req: &Request, ledger: &mut Ledger) -> Resolved {
    let platform = preset(req.platform);
    let models: Vec<Model> = ledger.time("dnn.zoo", || {
        req.tasks
            .iter()
            .map(|(m, _)| zoo::by_name(m).expect("generated models are in the zoo"))
            .collect()
    });
    let specs = req
        .tasks
        .iter()
        .zip(models)
        .enumerate()
        .map(|(k, ((_, period), model))| TaskSpec::new(format!("t{k}"), model, *period, *period))
        .collect();
    Resolved {
        platform,
        options: req.opt.options(),
        specs,
    }
}

/// The per-segment compute cap admission derives: a quarter of the
/// shortest deadline.
fn compute_cap(platform: &PlatformConfig, specs: &[TaskSpec]) -> Option<Cycles> {
    specs
        .iter()
        .map(|s| platform.cpu.cycles_from_micros(s.deadline_us))
        .min()
        .map(|d| (d / 4).max(Cycles::new(1)))
}

fn mode(options: &FrameworkOptions) -> SchedulerMode {
    if options.work_conserving {
        SchedulerMode::WorkConserving
    } else {
        SchedulerMode::Gated
    }
}

/// Lowers one spec the way admission does, through the public
/// segmentation and baseline-transform calls.
fn lower(
    platform: &PlatformConfig,
    options: &FrameworkOptions,
    spec: &TaskSpec,
    cap: Option<Cycles>,
) -> Option<SporadicTask> {
    let cost = &options.cost_model;
    let buffer = spec.resolved_buffer_bytes();
    let plan = match cap {
        Some(cap) => rtmdm_xmem::segment_model_tiled(&spec.model, cost, buffer, cap),
        None => rtmdm_xmem::segment_model_capped(&spec.model, cost, buffer, None),
    }
    .ok()?;
    let segments = plan
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
    )
    .ok()?;
    let task = match options.force_strategy.unwrap_or(spec.strategy) {
        Strategy::WholeDnn => baseline::whole_job(&baseline::fetch_then_compute(&base, platform)),
        Strategy::FetchThenCompute => baseline::fetch_then_compute(&base, platform),
        Strategy::AllInSram => baseline::resident(&base),
        _ => base,
    };
    Some(task.with_miss_policy(spec.miss_policy.unwrap_or(options.miss_policy)))
}

/// Lowers every spec the way admission does and orders the set
/// deadline-monotonically; `None` when a spec does not lower.
pub fn lower_set(
    platform: &PlatformConfig,
    options: &FrameworkOptions,
    specs: &[TaskSpec],
) -> Option<TaskSet> {
    let cap = compute_cap(platform, specs);
    let tasks = specs
        .iter()
        .map(|s| lower(platform, options, s, cap))
        .collect::<Option<Vec<_>>>()?;
    let ts = TaskSet::from_tasks(tasks);
    Some(ts.reordered(&dm_order(&ts)))
}

/// The service's full-query key document: tasks are keyed by model
/// name and carry every optional field at its default, as the generated
/// lines leave them.
fn query_key(req: &Request, platform: &PlatformConfig, options: &FrameworkOptions) -> String {
    let none = Option::<u64>::None.to_content();
    let task = |k: usize, (model, period): &(&str, u64)| {
        Content::Map(vec![
            ("activation_budget_bytes".to_owned(), none.clone()),
            ("buffer_bytes".to_owned(), none.clone()),
            ("deadline_us".to_owned(), period.to_content()),
            ("miss_policy".to_owned(), Content::Null),
            ("model".to_owned(), Content::Str((*model).to_owned())),
            ("name".to_owned(), Content::Str(format!("t{k}"))),
            ("period_us".to_owned(), period.to_content()),
            ("strategy".to_owned(), Strategy::RtMdm.to_content()),
        ])
    };
    let doc = Content::Map(vec![
        ("options".to_owned(), options.to_content()),
        ("platform".to_owned(), platform.to_content()),
        (
            "tasks".to_owned(),
            Content::Seq(
                req.tasks
                    .iter()
                    .enumerate()
                    .map(|(k, t)| task(k, t))
                    .collect(),
            ),
        ),
    ]);
    canonical_key("query", &doc)
}

/// What the stand-in calls concluded about one request.
struct StandIn {
    /// The analysis verdict on the mirrored lowering, when every task
    /// lowered.
    analysis: Option<bool>,
    /// `RtMdm::admit`'s verdict, or `None` when admission refused the
    /// set outright.
    admit: Option<bool>,
}

/// Times the public call that stands in for each stage of a cold
/// answer, on the same request the service just answered.
fn stand_ins(req: &Request, ledger: &mut Ledger, seen: &mut KeySeen, answer: &Content) -> StandIn {
    let r = resolve(req, ledger);
    let cap = compute_cap(&r.platform, &r.specs);
    let mut keys = Keys::default();
    ledger.time("service.key", || {
        query_key(req, &r.platform, &r.options);
        for spec in &r.specs {
            let doc = Content::Map(vec![
                ("cap".to_owned(), cap.to_content()),
                ("options".to_owned(), r.options.to_content()),
                ("platform".to_owned(), r.platform.to_content()),
                ("spec".to_owned(), spec.to_content()),
            ]);
            keys.lower.push(canonical_key("lower", &doc));
        }
    });
    let lowered = ledger.time("xmem.segment", || {
        lower_set(&r.platform, &r.options, &r.specs)
    });
    let mut spec = SystemSpec::with_options(r.platform.clone(), r.options.clone());
    for s in &r.specs {
        spec.push(s.clone());
    }
    ledger.time("check.static", || spec.check());

    let mut analysis = None;
    let fp_aware = r.options.policy == Policy::FixedPriority && r.options.dma_aware_analysis;
    if let Some(ordered) = lowered {
        let m = mode(&r.options);
        let schedulable = ledger.time("analysis.rta", || match r.options.policy {
            Policy::Edf => edf_demand_test(&ordered, &r.platform),
            _ => rta_limited_preemption_with(&ordered, &r.platform, m).schedulable,
        });
        ledger.time("service.key", || {
            let doc = Content::Map(vec![
                (
                    "dma_aware".to_owned(),
                    Content::Bool(r.options.dma_aware_analysis),
                ),
                ("policy".to_owned(), r.options.policy.to_content()),
                (
                    "rta".to_owned(),
                    Content::Str(analysis_key(&ordered, &r.platform, m)),
                ),
            ]);
            keys.analysis = Some(canonical_key("analysis", &doc));
            if fp_aware && schedulable {
                keys.headroom = Some(format!(
                    "headroom:{}",
                    analysis_key(&ordered, &r.platform, m)
                ));
            }
        });
        if fp_aware && schedulable {
            ledger.time("analysis.headroom", || {
                critical_scaling_ppm(&ordered, &r.platform, m)
            });
        }
        analysis = Some(schedulable);
    }
    let admit = ledger.time("framework.admit", || {
        let mut fw = RtMdm::with_options(r.platform.clone(), r.options.clone()).ok()?;
        for s in &r.specs {
            fw.add_task(s.clone()).ok()?;
        }
        fw.admit().ok().map(|a| a.schedulable())
    });
    // The service looks the analysis (and headroom) keys up only when
    // admission reached the analysis, which is when its answer carries
    // an RTA table.
    let analysed = matches!(answer.get("rta"), Some(Content::Seq(rows)) if !rows.is_empty());
    let admitted = answer.get("schedulable") == Some(&Content::Bool(true));
    seen.record(keys, analysed, analysed && admitted && fp_aware);
    StandIn { analysis, admit }
}

/// Cross-checks the stand-in verdicts against the service's answer.
fn check_stand_in(s: &StandIn, answer: &Content) -> Result<(), String> {
    let schedulable = answer.get("schedulable") == Some(&Content::Bool(true));
    let analysed = matches!(answer.get("rta"), Some(Content::Seq(rows)) if !rows.is_empty());
    if let (true, Some(a)) = (analysed, s.analysis) {
        if a != schedulable {
            return Err(format!("analysis says {a}, service says {schedulable}"));
        }
    }
    if let Some(a) = s.admit {
        if a != schedulable {
            return Err(format!("RtMdm::admit says {a}, service says {schedulable}"));
        }
    }
    Ok(())
}

/// Cache-statistics deltas over the traced rounds.
#[derive(Debug, Default)]
struct HitCounts {
    queries: u64,
    answers: u64,
    lowerings: u64,
    analyses: u64,
    headrooms: u64,
}

pub struct Serve {
    cold: bool,
    /// `serve_cold`: the round's requests.
    requests: Vec<Request>,
    /// `serve_fleet`: the stream and its long-lived service.
    stream: FleetStream,
    service: Service,
    seen: KeySeen,
    hits: HitCounts,
    /// Each pool configuration's platform and options, resolved once
    /// for the traced hit path.
    pool_resolved: Vec<(PlatformConfig, FrameworkOptions)>,
    /// Input properties over every line answered so far.
    lines: u64,
    fresh_lines: u64,
    malformed_lines: u64,
}

impl Serve {
    pub fn cold(seed: u64) -> Serve {
        // Builds the zoo (the service's model table is built once per
        // process, on its first query; the warm-up query below pays it).
        let _ = zoo::all();
        let mut rng = Rng::stream(seed, 1);
        let mut requests = requests(&mut rng, COLD_REQUESTS, &[1, 2, 3, 4]);
        // The warm-up answers the design's first four requests (one to
        // four tasks, the same models for every seed) on fresh services,
        // so set-up cost does not depend on the order the seed draws.
        for (i, q) in requests.iter().take(4).enumerate() {
            let _ = Service::new().answer_line(&q.line(&format!("warm{i}")));
        }
        rng.shuffle(&mut requests);
        Serve {
            cold: true,
            requests,
            ..Serve::empty(seed)
        }
    }

    pub fn fleet(seed: u64) -> Serve {
        let _ = zoo::all();
        let mut s = Serve::empty(seed);
        s.service = warmed(&s.stream.pool);
        s
    }

    fn empty(seed: u64) -> Serve {
        Serve {
            cold: false,
            requests: Vec::new(),
            stream: FleetStream::new(seed),
            service: Service::new(),
            seen: KeySeen::default(),
            hits: HitCounts::default(),
            pool_resolved: Vec::new(),
            lines: 0,
            fresh_lines: 0,
            malformed_lines: 0,
        }
    }

    fn cold_round(&mut self, mut ledger: Option<&mut Ledger>, r: &mut Round) {
        let lines: Vec<String> = self
            .requests
            .iter()
            .enumerate()
            .map(|(i, q)| q.line(&format!("c{i}")))
            .collect();
        let mut answers = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            let (answer, ns) = match ledger.as_deref_mut() {
                Some(l) => {
                    let (a, ns) = timed(|| Service::new().answer_line(line));
                    l.add("service.answer", 1, ns);
                    (a, ns)
                }
                None => timed(|| Service::new().answer_line(line)),
            };
            r.op(i as u64, ns);
            answers.push(answer);
        }
        for (i, (req, answer)) in self.requests.iter().zip(&answers).enumerate() {
            r.attempted += 1;
            let id = format!("c{i}");
            match ledger.as_deref_mut() {
                None => {
                    let ok = check_answer(answer, &id, true);
                    r.check(ok.is_ok(), || format!("{id}: {ok:?}: {answer}"));
                }
                Some(l) => {
                    let (ok, ns) = timed(|| check_answer(answer, &id, true));
                    l.add("bench.check", 1, ns);
                    r.check(ok.is_ok(), || format!("{id}: {ok:?}: {answer}"));
                    let doc = l.time("bench.check", || parse(answer));
                    let mut seen = KeySeen::default();
                    let s = stand_ins(req, l, &mut seen, &doc);
                    let (ok, ns) = timed(|| check_stand_in(&s, &doc));
                    l.add("bench.check", 1, ns);
                    r.check(ok.is_ok(), || format!("{id}: {ok:?}"));
                }
            }
        }
        self.lines += lines.len() as u64;
    }

    fn fleet_round(&mut self, mut ledger: Option<&mut Ledger>, r: &mut Round) {
        let batch: Vec<FleetLine> = (0..FLEET_ROUND).map(|_| self.stream.next_line()).collect();
        let mut answers = Vec::with_capacity(batch.len());
        let mut fresh = 0;
        for item in &batch {
            let before = self.service.stats();
            let (answer, ns) = timed(|| self.service.answer_line(&item.line));
            // A round's j-th fresh line is always a variant of pool rank
            // j, so fresh lines of the same j count as one input.
            let key = match item.kind {
                Kind::Pool(rank) => rank as u64,
                Kind::Malformed => POOL_SIZE as u64,
                Kind::Fresh(_) => {
                    fresh += 1;
                    (POOL_SIZE + fresh) as u64
                }
            };
            r.op(key, ns);
            if let Some(l) = ledger.as_deref_mut() {
                l.add("service.answer", 1, ns);
                let after = self.service.stats();
                self.hits.queries += after.queries - before.queries;
                self.hits.answers += after.answers_reused - before.answers_reused;
                self.hits.lowerings += after.lowerings_reused - before.lowerings_reused;
                self.hits.analyses += after.analyses_reused - before.analyses_reused;
                self.hits.headrooms += after.headrooms_reused - before.headrooms_reused;
                let hit = after.answers_reused > before.answers_reused;
                let missed = match &item.kind {
                    Kind::Pool(rank) if hit => {
                        let (platform, options) = &self.pool_resolved[*rank];
                        let req = &self.stream.pool[*rank];
                        l.time("service.key", || query_key(req, platform, options));
                        None
                    }
                    Kind::Pool(rank) => Some(&self.stream.pool[*rank]),
                    Kind::Fresh(req) => Some(req),
                    Kind::Malformed => None,
                };
                if let Some(req) = missed {
                    let doc = l.time("bench.check", || parse(&answer));
                    let s = stand_ins(req, l, &mut self.seen, &doc);
                    let (ok, ns) = timed(|| check_stand_in(&s, &doc));
                    l.add("bench.check", 1, ns);
                    r.check(ok.is_ok(), || format!("{}: {ok:?}", item.id));
                }
            }
            answers.push(answer);
        }
        let check = |r: &mut Round| {
            for (item, answer) in batch.iter().zip(&answers) {
                r.attempted += 1;
                let well_formed = item.kind != Kind::Malformed;
                r.check(check_prefix(answer, &item.id, well_formed), || {
                    format!("{}: malformed answer {answer}", item.id)
                });
                if item.index % SAMPLE_EVERY == 0 || !well_formed && item.index % 8 == 0 {
                    let ok = check_answer(answer, &item.id, well_formed);
                    r.check(ok.is_ok(), || format!("{}: {ok:?}: {answer}", item.id));
                    let fresh = Service::new().answer_line(&item.line);
                    r.check(&fresh == answer, || {
                        format!("{}: fleet answer differs from a fresh service's", item.id)
                    });
                }
            }
        };
        match ledger {
            Some(l) => l.time("bench.check", || check(r)),
            None => check(r),
        }
        self.lines += batch.len() as u64;
        for item in &batch {
            match item.kind {
                Kind::Fresh(_) => self.fresh_lines += 1,
                Kind::Malformed => self.malformed_lines += 1,
                Kind::Pool(_) => {}
            }
        }
    }
}

/// A service that has answered every pool configuration once.
fn warmed(pool: &[Request]) -> Service {
    let service = Service::new();
    for (i, req) in pool.iter().enumerate() {
        let _ = service.answer_line(&req.line(&format!("warm{i}")));
    }
    service
}

impl Workload for Serve {
    fn round(&mut self, r: &mut Round) {
        if self.cold {
            self.cold_round(None, r);
        } else {
            self.fleet_round(None, r);
        }
    }

    fn begin_trace(&mut self) {
        if self.cold {
            return;
        }
        // Hit ratios need to know which keys the traced service already
        // holds: start the traced rounds on a freshly warmed service
        // whose keys are all recorded.
        self.service = Service::new();
        let mut scratch = Ledger::default();
        for (i, req) in self.stream.pool.iter().enumerate() {
            let answer = self.service.answer_line(&req.line(&format!("warm{i}")));
            stand_ins(req, &mut scratch, &mut self.seen, &parse(&answer));
        }
        self.seen.new = [0; 3];
        self.pool_resolved = self
            .stream
            .pool
            .iter()
            .map(|q| (preset(q.platform), q.opt.options()))
            .collect();
    }

    fn traced_round(&mut self, ledger: &mut Ledger, r: &mut Round) {
        if self.cold {
            self.cold_round(Some(ledger), r);
        } else {
            self.fleet_round(Some(ledger), r);
        }
    }

    fn properties(&self) -> Vec<(&'static str, String)> {
        let lines = self.lines.max(1) as f64;
        if self.cold {
            let tasks: Vec<usize> = self.requests.iter().map(|q| q.tasks.len()).collect();
            let mut mix: Vec<String> = MODELS
                .iter()
                .map(|(m, _, _)| {
                    let n: usize = self
                        .requests
                        .iter()
                        .map(|q| q.tasks.iter().filter(|t| t.0 == *m).count())
                        .sum();
                    format!("{m}={n}")
                })
                .collect();
            mix.sort();
            vec![
                (
                    "requests per round (all distinct)",
                    self.requests.len().to_string(),
                ),
                (
                    "tasks per request (1/2/3/4)",
                    (1..=4)
                        .map(|k| tasks.iter().filter(|&&t| t == k).count().to_string())
                        .collect::<Vec<_>>()
                        .join("/"),
                ),
                ("model mix (task slots)", mix.join(" ")),
            ]
        } else {
            let fresh = self.fresh_lines as f64 / lines;
            let malformed = self.malformed_lines as f64 / lines;
            vec![
                ("lines answered", self.lines.to_string()),
                (
                    "repeat share (pool configurations)",
                    format!("{:.4}", 1.0 - fresh - malformed),
                ),
                (
                    "fresh share (never-seen configurations)",
                    format!("{fresh:.4}"),
                ),
                ("malformed share", format!("{malformed:.4}")),
                (
                    "distinct configurations",
                    (POOL_SIZE as u64 + self.fresh_lines).to_string(),
                ),
            ]
        }
    }

    fn layer_metrics(&self, ledger: &Ledger, rounds: f64) -> Vec<(&'static str, f64)> {
        let ms = |s: &str| ledger.ns(s) as f64 / rounds / 1e6;
        let unattributed = ms("service.answer")
            - ms("service.key")
            - ms("check.static")
            - ms("analysis.rta")
            - ms("analysis.headroom");
        let mut out = vec![("service.unattributed.ms", unattributed)];
        if !self.cold {
            let h = &self.hits;
            let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
            out.extend([
                (
                    "service.answer_hit_ratio",
                    h.answers as f64 / h.queries.max(1) as f64,
                ),
                (
                    "service.lowering_hit_ratio",
                    ratio(h.lowerings, self.seen.new[0]),
                ),
                (
                    "service.analysis_hit_ratio",
                    ratio(h.analyses, self.seen.new[1]),
                ),
                (
                    "service.headroom_hit_ratio",
                    ratio(h.headrooms, self.seen.new[2]),
                ),
            ]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_requests_are_deterministic_distinct_and_balanced() {
        let a = requests(&mut Rng::stream(5, 1), COLD_REQUESTS, &[1, 2, 3, 4]);
        let b = requests(&mut Rng::stream(5, 1), COLD_REQUESTS, &[1, 2, 3, 4]);
        assert_eq!(a, b);
        let distinct: HashSet<String> = a.iter().map(|q| q.line("x")).collect();
        assert_eq!(distinct.len(), COLD_REQUESTS);
        for k in 1..=4 {
            assert_eq!(
                a.iter().filter(|q| q.tasks.len() == k).count(),
                COLD_REQUESTS / 4
            );
        }
        let c = requests(&mut Rng::stream(6, 1), COLD_REQUESTS, &[1, 2, 3, 4]);
        assert_ne!(a, c, "another seed gives other inputs");
    }

    #[test]
    fn fleet_stream_is_deterministic_and_hits_its_shares() {
        let lines = 6 * FLEET_ROUND;
        let mut a = FleetStream::new(9);
        let mut b = FleetStream::new(9);
        let mut fresh = 0;
        let mut malformed = 0;
        let mut fresh_lines = HashSet::new();
        for _ in 0..lines {
            let (x, y) = (a.next_line(), b.next_line());
            assert_eq!(x.line, y.line);
            match &x.kind {
                Kind::Fresh(req) => {
                    fresh += 1;
                    assert!(
                        fresh_lines.insert(req.clone()),
                        "fresh configs never repeat"
                    );
                    assert!(!a.pool.contains(req));
                }
                Kind::Malformed => malformed += 1,
                Kind::Pool(_) => {}
            }
        }
        assert_eq!(fresh, lines / FLEET_ROUND * FRESH_PER_ROUND);
        let share = malformed as f64 / lines as f64;
        assert!(
            (share - MALFORMED_SHARE).abs() < MALFORMED_SHARE * 0.15,
            "{share}"
        );
    }

    #[test]
    fn checker_accepts_real_answers_and_flags_corrupted_ones() {
        let stream = FleetStream::new(3);
        let line = stream.pool[0].line("q1");
        let good = Service::new().answer_line(&line);
        assert_eq!(check_answer(&good, "q1", true), Ok(()));
        assert!(check_prefix(&good, "q1", true));
        let corrupted = [
            good.replace("rtmdm-serve/1", "rtmdm-serve/2"),
            good.replace("\"q1\"", "\"q2\""),
            good.replace("\"ok\":true", "\"ok\":false"),
            good.replacen("\"schedulable\":", "\"schedulable\":!", 1),
            good[..good.len() - 1].to_owned(),
            format!("{good}\n{good}"),
        ];
        for bad in &corrupted {
            assert!(check_answer(bad, "q1", true).is_err(), "{bad}");
        }
        let error = Service::new().answer_line(r#"{"id":"e","tasks":0}"#);
        assert_eq!(check_answer(&error, "e", false), Ok(()));
        assert!(check_answer(&error, "e", true).is_err());
        assert!(check_prefix(&error, "e", false));
        assert!(!check_prefix(&error, "e", true));
    }
}
