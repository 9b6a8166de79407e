//! Admission-as-a-service: batch/online admission queries over a
//! content-addressed answer cache.
//!
//! The `rtmdm serve` subcommand feeds JSONL admission requests (one
//! JSON object per line) through a [`Service`]. A fleet of
//! near-identical device configurations asks the same questions over
//! and over, so the service memoizes whole answers under a canonical
//! key ([`rtmdm_sched::analysis::canonical_key`]) and answers repeats
//! from the cache. It also memoizes spec lowerings: one admission lowers
//! each spec once, so the memo hits only across queries that share a
//! spec (and the set-derived segment cap). The RTA fixed point and the
//! headroom search are recomputed on every answer miss: keying them
//! costs more than computing them.
//!
//! # Wire format
//!
//! Request (one per line; unknown fields are rejected, not ignored):
//!
//! ```json
//! {"id":"q1","platform":"stm32f746-qspi",
//!  "options":{"policy":"fixed-priority","work_conserving":false},
//!  "tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}
//! ```
//!
//! Response (schema [`SERVE_SCHEMA`]): `id` echo, `ok`, `verdict`
//! (`admit`/`reject`), the RTA table, occupancy and headroom in ppm,
//! and the static verifier's findings. Malformed lines produce an
//! error record (`ok: false` with an `error` message) instead of
//! killing the stream — the never-silently-fail counterpart of RTM053.
//!
//! # The cache-correctness invariant
//!
//! Responses carry **no** marker distinguishing a cache hit from a
//! fresh computation, and every cached value is the exact value the
//! direct computation produces. Warm answers are therefore
//! byte-identical to cold ones, which is what makes sharding a batch
//! across worker threads over one shared cache safe: output depends
//! only on input order, never on thread count or arrival order
//! (`RTMDM_THREADS=1` and `=8` produce identical bytes).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rtmdm_dnn::zoo;
use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_sched::analysis::{canonical_key, critical_scaling_ppm};
use rtmdm_sched::sim::Policy;
use rtmdm_sched::{MissPolicy, TaskSet};
use serde::{Content, Serialize};

use crate::check::SystemSpec;
use crate::error::AdmitError;
use crate::framework::{
    lower_spec, scheduler_mode, AdmissionHooks, FrameworkOptions, Lowered, PriorityAssignment,
    RtMdm,
};
use crate::spec::{Strategy, TaskSpec};

pub use rtmdm_check::JsonReport;

/// Schema tag stamped into every response line.
pub const SERVE_SCHEMA: &str = "rtmdm-serve/1";

/// Takes a shared read lock, recovering the guard if a previous holder
/// panicked. Every cached value is immutable once inserted, so a
/// poisoned map is still internally consistent — dropping the whole
/// cache over a worker panic would only cost recomputation, not
/// correctness.
fn read<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive write lock (see [`read`] for poison recovery).
/// Held only for the insert itself, never across a computation.
fn write<T>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(PoisonError::into_inner)
}

/// Monotone hit counters, updated with relaxed atomics (they are
/// telemetry, never part of an answer).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    answers_reused: AtomicU64,
    lowerings_reused: AtomicU64,
}

/// A point-in-time snapshot of the service's cache telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lines answered (including error records).
    pub queries: u64,
    /// Full queries answered straight from the response cache.
    pub answers_reused: u64,
    /// Spec lowerings (segmentation + strategy transform) reused.
    pub lowerings_reused: u64,
    /// Always 0: the service no longer memoizes analyses. Kept only
    /// because the repository benchmark still reads it; goes once it
    /// stops.
    pub analyses_reused: u64,
    /// Always 0: the service no longer memoizes headroom searches.
    /// Kept only because the repository benchmark still reads it; goes
    /// once it stops.
    pub headrooms_reused: u64,
}

/// One fully parsed admission request.
#[derive(Debug, Clone)]
struct ParsedRequest {
    id: String,
    platform: PlatformConfig,
    options: FrameworkOptions,
    tasks: Vec<TaskSpec>,
}

/// One row of the response's RTA table (priority order).
#[derive(Debug, Clone, Serialize)]
struct RtaRow {
    priority: usize,
    task: String,
    deadline_cycles: u64,
    wcrt_cycles: Option<u64>,
    meets: bool,
}

/// The id-independent part of an answer — exactly what the response
/// cache stores. Re-serialized per query with the request's own `id`,
/// so a cache hit still echoes the right identifier.
#[derive(Debug, Clone)]
struct Answer {
    verdict: &'static str,
    schedulable: bool,
    reject_reason: Option<String>,
    occupancy_ppm: u64,
    headroom_ppm: u64,
    rta: Vec<RtaRow>,
    findings: JsonReport,
}

/// A successful (well-formed request) response line.
#[derive(Debug, Serialize)]
struct Response {
    schema: String,
    id: String,
    ok: bool,
    verdict: String,
    schedulable: bool,
    reject_reason: Option<String>,
    occupancy_ppm: u64,
    headroom_ppm: u64,
    rta: Vec<RtaRow>,
    findings: JsonReport,
}

/// An error record for a malformed request line.
#[derive(Debug, Serialize)]
struct ErrorRecord {
    schema: String,
    id: String,
    ok: bool,
    error: String,
}

/// The admission service: a shared, content-addressed memo of whole
/// answers and of spec lowerings.
///
/// All methods take `&self`; the caches are interior-mutable behind
/// reader-writer locks, so one `Service` can be shared by the worker
/// threads of a sharded batch, and the warm path — a fleet of repeats
/// hitting keys that are already cached — takes only shared read
/// locks, never serializing the workers behind one another. The write
/// lock is held for the insert alone, never across a computation. Two
/// workers racing on the same missing key may both compute it — the
/// computation is deterministic, so whichever insert lands first wins
/// and both return the same value.
///
/// # Examples
///
/// ```rust
/// use rtmdm_core::Service;
///
/// let service = Service::new();
/// let line = r#"{"id":"q1","tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
/// let cold = service.answer_line(line);
/// let warm = service.answer_line(line);
/// assert_eq!(cold, warm, "warm answers are byte-identical to cold");
/// assert!(cold.contains("\"verdict\":\"admit\""));
/// ```
#[derive(Debug, Default)]
pub struct Service {
    /// `canonical_key("lower", …)` of platform, options, one task spec
    /// ([`task_key_content`]) and the set-derived cap → lowered spec.
    /// Only successful lowerings are cached; errors are rare and cheap
    /// to recompute (and [`AdmitError`] is deliberately not `Clone`).
    lowerings: RwLock<HashMap<String, Lowered>>,
    /// Normalized request (id stripped) → finished answer.
    answers: RwLock<HashMap<String, Answer>>,
    stats: Counters,
}

impl Service {
    /// Creates an empty service.
    pub fn new() -> Service {
        Service::default()
    }

    /// Answers one JSONL request line. Always returns exactly one JSON
    /// response line: a verdict for well-formed requests, an error
    /// record (`ok: false`) for malformed ones. Never panics on bad
    /// input and never terminates the stream.
    pub fn answer_line(&self, line: &str) -> String {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        match parse_request(line) {
            Err((id, error)) => to_json(&ErrorRecord {
                schema: SERVE_SCHEMA.to_owned(),
                id,
                ok: false,
                error,
            }),
            Ok(req) => {
                let answer = self.answer_for(&req);
                to_json(&Response {
                    schema: SERVE_SCHEMA.to_owned(),
                    id: req.id.clone(),
                    ok: true,
                    verdict: answer.verdict.to_owned(),
                    schedulable: answer.schedulable,
                    reject_reason: answer.reject_reason,
                    occupancy_ppm: answer.occupancy_ppm,
                    headroom_ppm: answer.headroom_ppm,
                    rta: answer.rta,
                    findings: answer.findings,
                })
            }
        }
    }

    /// Answers a batch of request lines, sharded across the
    /// `RTMDM_THREADS` worker pool. Results come back in input order
    /// regardless of which worker answered which line.
    pub fn answer_batch(&self, lines: Vec<String>) -> Vec<String> {
        rtmdm_par::par_map_seeded(lines, |line| self.answer_line(&line))
    }

    /// [`Service::answer_batch`] with an explicit worker count,
    /// bypassing `RTMDM_THREADS` (the determinism gate compares
    /// one-thread output against many-thread output byte for byte).
    pub fn answer_batch_with_threads(&self, threads: usize, lines: Vec<String>) -> Vec<String> {
        rtmdm_par::par_map_with_threads(threads, lines, |line| self.answer_line(&line))
    }

    /// Snapshot of the cache telemetry.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            queries: self.stats.queries.load(Ordering::Relaxed),
            answers_reused: self.stats.answers_reused.load(Ordering::Relaxed),
            lowerings_reused: self.stats.lowerings_reused.load(Ordering::Relaxed),
            analyses_reused: 0,
            headrooms_reused: 0,
        }
    }

    /// The answer for a parsed request, via the full-query cache.
    fn answer_for(&self, req: &ParsedRequest) -> Answer {
        let key = request_key(req);
        if let Some(hit) = read(&self.answers).get(&key).cloned() {
            self.stats.answers_reused.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let answer = self.evaluate(req);
        write(&self.answers)
            .entry(key)
            .or_insert_with(|| answer.clone());
        answer
    }

    /// Runs the admission pipeline with the memoizing lowering hook
    /// installed.
    fn evaluate(&self, req: &ParsedRequest) -> Answer {
        let hooks = CachedHooks { service: self };
        let mut fw = match RtMdm::with_options(req.platform.clone(), req.options.clone()) {
            Ok(fw) => fw,
            Err(e) => return self.rejected(req, &hooks, e),
        };
        for spec in &req.tasks {
            if let Err(e) = fw.add_task(spec.clone()) {
                return self.rejected(req, &hooks, e);
            }
        }
        match fw.admit_hooked(&hooks) {
            Ok((admission, ordered, report)) => {
                let schedulable = admission.schedulable();
                let headroom_ppm = if schedulable {
                    headroom_ppm(&ordered, &req.platform, &req.options)
                } else {
                    0
                };
                Answer {
                    verdict: if schedulable { "admit" } else { "reject" },
                    schedulable,
                    reject_reason: (!schedulable)
                        .then(|| "schedulability analysis rejected the set".to_owned()),
                    occupancy_ppm: admission.occupancy_ppm,
                    headroom_ppm,
                    rta: rta_rows(&admission),
                    findings: report.to_json_report(),
                }
            }
            Err(e) => self.rejected(req, &hooks, e),
        }
    }

    /// The answer for a request admission refuses outright (memory,
    /// timing, blocking findings, …). The static verifier still runs —
    /// through the same caching hooks — so the caller gets findings
    /// explaining *why*, not just an error string.
    fn rejected(&self, req: &ParsedRequest, hooks: &dyn AdmissionHooks, e: AdmitError) -> Answer {
        let findings = match &e {
            AdmitError::Check(report) => report.to_json_report(),
            _ => {
                let sys = SystemSpec {
                    platform: req.platform.clone(),
                    options: req.options.clone(),
                    tasks: req.tasks.clone(),
                };
                sys.pass(hooks).report.to_json_report()
            }
        };
        Answer {
            verdict: "reject",
            schedulable: false,
            reject_reason: Some(e.to_string()),
            occupancy_ppm: 0,
            headroom_ppm: 0,
            rta: Vec::new(),
            findings,
        }
    }
}

/// Headroom: the largest uniform WCET scaling (ppm) the RT-MDM analysis
/// still admits. Only meaningful for the analysis the binary search runs
/// ([`critical_scaling_ppm`] is fixed-priority, dma-aware); other
/// policies report zero.
fn headroom_ppm(ordered: &TaskSet, platform: &PlatformConfig, options: &FrameworkOptions) -> u64 {
    if options.policy != Policy::FixedPriority || !options.dma_aware_analysis {
        return 0;
    }
    critical_scaling_ppm(ordered, platform, scheduler_mode(options))
}

/// The memoizing [`AdmissionHooks`] implementation: lowering consults
/// the service's cache before computing.
struct CachedHooks<'a> {
    service: &'a Service,
}

impl AdmissionHooks for CachedHooks<'_> {
    fn lower(
        &self,
        platform: &PlatformConfig,
        options: &FrameworkOptions,
        spec: &TaskSpec,
        cap: Option<Cycles>,
    ) -> Result<Lowered, AdmitError> {
        // The cap is derived from the *whole* spec set (shortest
        // deadline), so it is an input of this sub-problem, not a
        // function of `spec` alone. The cost model that prices each
        // layer rides in `options`.
        let doc = Content::Map(vec![
            ("cap".to_owned(), cap.to_content()),
            ("options".to_owned(), options.to_content()),
            ("platform".to_owned(), platform.to_content()),
            ("spec".to_owned(), task_key_content(spec)),
        ]);
        let key = canonical_key("lower", &doc);
        if let Some(hit) = read(&self.service.lowerings).get(&key).cloned() {
            self.service
                .stats
                .lowerings_reused
                .fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let lowered = lower_spec(platform, options, spec, cap)?;
        write(&self.service.lowerings).insert(key, lowered.clone());
        Ok(lowered)
    }
}

/// The key document of one task spec, shared by the full-query and the
/// lowering keys: every resolved field, with the model keyed on its zoo
/// *name* rather than its layer list.
///
/// Sound because parsing only ever resolves models from the zoo table,
/// where names are a bijection, and nothing keyed here depends on weight
/// values — lowering reads layer shapes and byte counts. Serializing the
/// model instead would put every weight byte into the key (~1 MB for the
/// autoencoder). The exhaustive destructuring makes a new `TaskSpec`
/// field a compile error here until it joins the key.
fn task_key_content(spec: &TaskSpec) -> Content {
    let TaskSpec {
        name,
        model,
        period_us,
        deadline_us,
        buffer_bytes,
        strategy,
        activation_budget_bytes,
        miss_policy,
    } = spec;
    Content::Map(vec![
        (
            "activation_budget_bytes".to_owned(),
            activation_budget_bytes.to_content(),
        ),
        ("buffer_bytes".to_owned(), buffer_bytes.to_content()),
        ("deadline_us".to_owned(), deadline_us.to_content()),
        ("miss_policy".to_owned(), miss_policy.to_content()),
        ("model".to_owned(), Content::Str(model.name().to_owned())),
        ("name".to_owned(), Content::Str(name.clone())),
        ("period_us".to_owned(), period_us.to_content()),
        ("strategy".to_owned(), strategy.to_content()),
    ])
}

/// Canonical full-query key: the resolved request with the `id`
/// stripped, so textual variations (field order, defaults spelled out
/// or omitted) of the same question share one cache entry.
fn request_key(req: &ParsedRequest) -> String {
    let doc = Content::Map(vec![
        ("options".to_owned(), req.options.to_content()),
        ("platform".to_owned(), req.platform.to_content()),
        (
            "tasks".to_owned(),
            Content::Seq(req.tasks.iter().map(task_key_content).collect()),
        ),
    ]);
    canonical_key("query", &doc)
}

/// RTA table rows with [`crate::Admission::to_table`]'s verdict per
/// priority ([`crate::Admission::meets`]).
fn rta_rows(a: &crate::Admission) -> Vec<RtaRow> {
    a.names
        .iter()
        .enumerate()
        .map(|(p, name)| RtaRow {
            priority: p,
            task: name.clone(),
            deadline_cycles: a.deadlines[p].get(),
            wcrt_cycles: a.analysis.response_of(p).map(Cycles::get),
            meets: a.meets(p),
        })
        .collect()
}

/// Serializes a response value. Infallible for the derived response
/// types (no maps with non-string keys, no NaN floats).
fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("response serialization is infallible")
}

// ---------------------------------------------------------------------
// Request parsing.
//
// The derived `Deserialize` of the vendored serde requires every field
// to be present, which is wrong for a wire format full of optional
// knobs — so requests are parsed by hand from the raw `Content` tree,
// with unknown fields rejected (a typo'd option silently meaning "use
// the default" would be an unsound admission service).
// ---------------------------------------------------------------------

/// One-word description of a content node, for error messages.
fn kind_of(c: &Content) -> &'static str {
    match c {
        Content::Null => "null",
        Content::Bool(_) => "bool",
        Content::U64(_) | Content::I64(_) => "integer",
        Content::F64(_) => "float",
        Content::Str(_) => "string",
        Content::Seq(_) => "array",
        Content::Map(_) => "object",
    }
}

fn want_str<'c>(v: &'c Content, field: &str) -> Result<&'c str, String> {
    match v {
        Content::Str(s) => Ok(s),
        other => Err(format!(
            "field `{field}` must be a string, found {}",
            kind_of(other)
        )),
    }
}

fn want_u64(v: &Content, field: &str) -> Result<u64, String> {
    match v {
        Content::U64(n) => Ok(*n),
        other => Err(format!(
            "field `{field}` must be a non-negative integer, found {}",
            kind_of(other)
        )),
    }
}

fn want_bool(v: &Content, field: &str) -> Result<bool, String> {
    match v {
        Content::Bool(b) => Ok(*b),
        other => Err(format!(
            "field `{field}` must be a boolean, found {}",
            kind_of(other)
        )),
    }
}

fn parse_policy(v: &Content) -> Result<Policy, String> {
    match want_str(v, "options.policy")? {
        "fixed-priority" => Ok(Policy::FixedPriority),
        "edf" => Ok(Policy::Edf),
        other => Err(format!(
            "unknown policy `{other}` (known: fixed-priority, edf)"
        )),
    }
}

fn parse_assignment(v: &Content) -> Result<PriorityAssignment, String> {
    match want_str(v, "options.assignment")? {
        "deadline-monotonic" => Ok(PriorityAssignment::DeadlineMonotonic),
        "rate-monotonic" => Ok(PriorityAssignment::RateMonotonic),
        "insertion-order" => Ok(PriorityAssignment::InsertionOrder),
        "audsley" => Ok(PriorityAssignment::Audsley),
        other => Err(format!(
            "unknown assignment `{other}` (known: deadline-monotonic, \
             rate-monotonic, insertion-order, audsley)"
        )),
    }
}

/// `names` rendered as the "known" list of an error message.
fn known<T: ToString>(names: impl IntoIterator<Item = T>) -> String {
    let names: Vec<String> = names.into_iter().map(|n| n.to_string()).collect();
    names.join(", ")
}

fn parse_strategy(v: &Content, field: &str) -> Result<Strategy, String> {
    let name = want_str(v, field)?;
    Strategy::from_name(name).ok_or_else(|| {
        format!(
            "unknown strategy `{name}` (known: {})",
            known(Strategy::ALL)
        )
    })
}

fn parse_miss_policy(v: &Content, field: &str) -> Result<MissPolicy, String> {
    let name = want_str(v, field)?;
    MissPolicy::from_name(name).ok_or_else(|| {
        format!(
            "unknown miss policy `{name}` (known: {})",
            known(MissPolicy::ALL)
        )
    })
}

fn parse_platform(v: &Content) -> Result<PlatformConfig, String> {
    let name = want_str(v, "platform")?;
    PlatformConfig::preset(name).ok_or_else(|| {
        let presets = PlatformConfig::presets();
        format!(
            "unknown platform `{name}` (known: {})",
            known(presets.iter().map(|p| &p.name))
        )
    })
}

fn parse_options(v: &Content) -> Result<FrameworkOptions, String> {
    let Content::Map(entries) = v else {
        return Err(format!(
            "field `options` must be an object, found {}",
            kind_of(v)
        ));
    };
    let mut options = FrameworkOptions::default();
    for (key, value) in entries {
        match key.as_str() {
            "policy" => options.policy = parse_policy(value)?,
            "assignment" => options.assignment = parse_assignment(value)?,
            "dma_aware_analysis" => {
                options.dma_aware_analysis = want_bool(value, "options.dma_aware_analysis")?;
            }
            "work_conserving" => {
                options.work_conserving = want_bool(value, "options.work_conserving")?;
            }
            "force_strategy" => {
                options.force_strategy = Some(parse_strategy(value, "options.force_strategy")?);
            }
            "segment_compute_cap_us" => {
                options.segment_compute_cap_us =
                    Some(want_u64(value, "options.segment_compute_cap_us")?);
            }
            "tile_oversized_layers" => {
                options.tile_oversized_layers = want_bool(value, "options.tile_oversized_layers")?;
            }
            "miss_policy" => {
                options.miss_policy = parse_miss_policy(value, "options.miss_policy")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(options)
}

/// The model zoo, built once. [`zoo::by_name`] constructs the model's
/// layer list on every call, which is far too slow for the per-query
/// hot path; a lookup against this table plus a clone is a pointer copy
/// (models share their immutable node storage).
fn zoo_table() -> &'static [rtmdm_dnn::Model] {
    static ZOO: OnceLock<Vec<rtmdm_dnn::Model>> = OnceLock::new();
    ZOO.get_or_init(zoo::all)
}

/// Resolves a zoo model by name from the memoized table.
fn zoo_model(name: &str) -> Option<rtmdm_dnn::Model> {
    zoo_table().iter().find(|m| m.name() == name).cloned()
}

fn parse_task(v: &Content, index: usize) -> Result<TaskSpec, String> {
    let Content::Map(entries) = v else {
        return Err(format!(
            "tasks[{index}] must be an object, found {}",
            kind_of(v)
        ));
    };
    let mut name = None;
    let mut model = None;
    let mut period_us = None;
    let mut deadline_us = None;
    let mut buffer_bytes = None;
    let mut activation_budget_bytes = None;
    let mut strategy = None;
    let mut miss_policy = None;
    for (key, value) in entries {
        let field = format!("tasks[{index}].{key}");
        match key.as_str() {
            "name" => name = Some(want_str(value, &field)?.to_owned()),
            "model" => {
                let model_name = want_str(value, &field)?;
                model = Some(zoo_model(model_name).ok_or_else(|| {
                    let known: Vec<String> =
                        zoo_table().iter().map(|m| m.name().to_owned()).collect();
                    format!("unknown model `{model_name}` (known: {})", known.join(", "))
                })?);
            }
            "period_us" => period_us = Some(want_u64(value, &field)?),
            "deadline_us" => deadline_us = Some(want_u64(value, &field)?),
            "buffer_bytes" => buffer_bytes = Some(want_u64(value, &field)?),
            "activation_budget_bytes" => {
                activation_budget_bytes = Some(want_u64(value, &field)?);
            }
            "strategy" => strategy = Some(parse_strategy(value, &field)?),
            "miss_policy" => miss_policy = Some(parse_miss_policy(value, &field)?),
            other => return Err(format!("unknown task field `{other}` in tasks[{index}]")),
        }
    }
    let name = name.ok_or_else(|| format!("tasks[{index}] is missing required field `name`"))?;
    let model = model.ok_or_else(|| format!("tasks[{index}] is missing required field `model`"))?;
    let period_us =
        period_us.ok_or_else(|| format!("tasks[{index}] is missing required field `period_us`"))?;
    let mut spec = TaskSpec::new(name, model, period_us, deadline_us.unwrap_or(period_us));
    if let Some(bytes) = buffer_bytes {
        spec = spec.with_buffer_bytes(bytes);
    }
    if let Some(bytes) = activation_budget_bytes {
        spec = spec.with_activation_budget(bytes);
    }
    if let Some(s) = strategy {
        spec = spec.with_strategy(s);
    }
    if let Some(p) = miss_policy {
        spec = spec.with_miss_policy(p);
    }
    Ok(spec)
}

/// Parses one request line. On error, returns the request `id` (when
/// the line was at least valid JSON with a readable `id`) plus the
/// message, so the error record can still be correlated.
fn parse_request(line: &str) -> Result<ParsedRequest, (String, String)> {
    let doc: Content = serde_json::from_str(line.trim())
        .map_err(|e| (String::new(), format!("invalid JSON: {e}")))?;
    let Content::Map(entries) = &doc else {
        return Err((
            String::new(),
            format!("request must be a JSON object, found {}", kind_of(&doc)),
        ));
    };
    let id = match doc.get("id") {
        None => String::new(),
        Some(Content::Str(s)) => s.clone(),
        Some(Content::U64(n)) => n.to_string(),
        Some(other) => {
            return Err((
                String::new(),
                format!("field `id` must be a string, found {}", kind_of(other)),
            ));
        }
    };
    let fail = |msg: String| (id.clone(), msg);
    for (key, _) in entries {
        if !matches!(key.as_str(), "id" | "platform" | "options" | "tasks") {
            return Err(fail(format!("unknown request field `{key}`")));
        }
    }
    let platform = match doc.get("platform") {
        None => PlatformConfig::stm32f746_qspi(),
        Some(v) => parse_platform(v).map_err(&fail)?,
    };
    let options = match doc.get("options") {
        None => FrameworkOptions::default(),
        Some(v) => parse_options(v).map_err(&fail)?,
    };
    let tasks_doc = doc
        .get("tasks")
        .ok_or_else(|| fail("missing required field `tasks`".to_owned()))?;
    let Content::Seq(items) = tasks_doc else {
        return Err(fail(format!(
            "field `tasks` must be an array, found {}",
            kind_of(tasks_doc)
        )));
    };
    let tasks = items
        .iter()
        .enumerate()
        .map(|(i, item)| parse_task(item, i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(&fail)?;
    Ok(ParsedRequest {
        id,
        platform,
        options,
        tasks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(id: &str, tasks: &str) -> String {
        format!(r#"{{"id":"{id}","platform":"stm32f746-qspi","tasks":[{tasks}]}}"#)
    }

    const KWS: &str = r#"{"name":"kws","model":"ds-cnn","period_us":100000}"#;

    #[test]
    fn well_formed_query_admits_with_rta_table() {
        let s = Service::new();
        let out = s.answer_line(&line("q1", KWS));
        assert!(out.contains(r#""schema":"rtmdm-serve/1""#), "{out}");
        assert!(out.contains(r#""id":"q1""#), "{out}");
        assert!(out.contains(r#""ok":true"#), "{out}");
        assert!(out.contains(r#""verdict":"admit""#), "{out}");
        assert!(out.contains(r#""task":"kws""#), "{out}");
        assert!(out.contains(r#""meets":true"#), "{out}");
    }

    #[test]
    fn warm_answers_are_byte_identical_to_cold() {
        let s = Service::new();
        let q = line("q1", KWS);
        let cold = s.answer_line(&q);
        let warm = s.answer_line(&q);
        assert_eq!(cold, warm);
        assert_eq!(s.stats().answers_reused, 1);
    }

    #[test]
    fn textual_variants_of_one_question_share_the_cache_but_echo_their_id() {
        let s = Service::new();
        // Same question: different id, explicit default deadline, and
        // reordered fields.
        let a = s.answer_line(&line("a", KWS));
        let b = s.answer_line(
            r#"{"tasks":[{"period_us":100000,"model":"ds-cnn","name":"kws","deadline_us":100000}],"platform":"stm32f746-qspi","id":"b"}"#,
        );
        assert_eq!(s.stats().answers_reused, 1, "normalized key must match");
        assert!(a.contains(r#""id":"a""#));
        assert!(b.contains(r#""id":"b""#));
        assert_eq!(a.replace(r#""id":"a""#, r#""id":"b""#), b);
    }

    #[test]
    fn single_task_mutation_reuses_unchanged_lowerings() {
        let s = Service::new();
        let two = r#"{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000}"#;
        let three = r#"{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000},{"name":"ae","model":"autoencoder","period_us":400000}"#;
        s.answer_line(&line("base", two));
        let before = s.stats().lowerings_reused;
        s.answer_line(&line("grown", three));
        // kws and ic lower identically in the grown set (the derived
        // segment cap is the same 25 ms), so both come from the cache.
        assert!(
            s.stats().lowerings_reused >= before + 2,
            "stats: {:?}",
            s.stats()
        );
    }

    #[test]
    fn memo_keys_stay_small_for_every_zoo_model_and_platform() {
        // Keys name zoo models instead of serializing them; a key that
        // grows with a model's weight bytes (~1 MB for the autoencoder)
        // would dominate every cold answer and the memo's footprint.
        const MAX_KEY_BYTES: usize = 8 * 1024;
        let s = Service::new();
        for platform in PlatformConfig::presets() {
            for model in zoo_table() {
                s.answer_line(&format!(
                    r#"{{"id":"k","platform":"{}","tasks":[{{"name":"a","model":"{}","period_us":1000000}},{{"name":"b","model":"micro-mlp","period_us":50000}}]}}"#,
                    platform.name,
                    model.name()
                ));
            }
        }
        let longest = [
            (
                "lowerings",
                read(&s.lowerings).keys().map(String::len).max(),
            ),
            ("answers", read(&s.answers).keys().map(String::len).max()),
        ];
        for (map, longest) in longest {
            let longest = longest.unwrap_or_else(|| panic!("{map} memo is empty"));
            assert!(longest < MAX_KEY_BYTES, "{map} key of {longest} bytes");
        }
    }

    #[test]
    fn overload_rejects_with_reason_and_infeasible_request_gets_findings() {
        let s = Service::new();
        let out = s.answer_line(&line(
            "over",
            r#"{"name":"ae","model":"autoencoder","period_us":4000}"#,
        ));
        assert!(out.contains(r#""verdict":"reject""#), "{out}");
        assert!(out.contains(r#""schedulable":false"#), "{out}");
        let out = s.answer_line(
            r#"{"id":"tight","tasks":[{"name":"vww","model":"mobilenet-v1-025","period_us":500000,"buffer_bytes":4096}]}"#,
        );
        assert!(out.contains(r#""verdict":"reject""#), "{out}");
        assert!(out.contains("memory planning"), "{out}");
    }

    #[test]
    fn malformed_lines_get_error_records_not_panics() {
        let s = Service::new();
        for (bad, needle) in [
            ("{not json", "invalid JSON"),
            ("[1,2,3]", "must be a JSON object"),
            (
                r#"{"id":"x","tasks":[],"bogus":1}"#,
                "unknown request field",
            ),
            (r#"{"id":"x"}"#, "missing required field `tasks`"),
            (
                r#"{"id":"x","platform":"zx81","tasks":[]}"#,
                "unknown platform",
            ),
            (
                r#"{"id":"x","tasks":[{"name":"t","model":"gpt-5","period_us":1}]}"#,
                "unknown model",
            ),
            (
                r#"{"id":"x","options":{"polciy":"edf"},"tasks":[]}"#,
                "unknown option",
            ),
            (
                r#"{"id":"x","tasks":[{"name":"t","model":"ds-cnn"}]}"#,
                "missing required field `period_us`",
            ),
        ] {
            let out = s.answer_line(bad);
            assert!(out.contains(r#""ok":false"#), "{bad} -> {out}");
            assert!(out.contains(needle), "{bad} -> {out}");
        }
        // The id is still echoed when the line was readable JSON.
        let out = s.answer_line(r#"{"id":"x","tasks":0}"#);
        assert!(out.contains(r#""id":"x""#), "{out}");
    }

    #[test]
    fn deeply_nested_lines_get_error_records_not_stack_overflows() {
        let s = Service::new();
        for open in ["[", r#"{"a":"#] {
            let out = s.answer_line(&open.repeat(100_000));
            assert!(out.contains(r#""ok":false"#), "{out}");
            assert!(out.contains("nesting deeper than 128"), "{out}");
        }
    }

    #[test]
    fn empty_task_list_is_a_reject_not_a_crash() {
        let s = Service::new();
        let out = s.answer_line(r#"{"id":"none","tasks":[]}"#);
        assert!(out.contains(r#""ok":true"#), "{out}");
        assert!(out.contains(r#""verdict":"reject""#), "{out}");
        assert!(out.contains("no tasks"), "{out}");
    }

    #[test]
    fn options_parse_and_change_the_answer() {
        let s = Service::new();
        let aware = s.answer_line(
            r#"{"id":"q","tasks":[{"name":"ae","model":"autoencoder","period_us":4000}]}"#,
        );
        let oblivious = s.answer_line(
            r#"{"id":"q","options":{"dma_aware_analysis":false},"tasks":[{"name":"ae","model":"autoencoder","period_us":4000}]}"#,
        );
        assert!(aware.contains(r#""verdict":"reject""#), "{aware}");
        assert!(oblivious.contains(r#""verdict":"admit""#), "{oblivious}");
        let edf = s.answer_line(
            r#"{"id":"q","options":{"policy":"edf"},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#,
        );
        assert!(edf.contains(r#""verdict":"admit""#), "{edf}");
        assert!(edf.contains(r#""headroom_ppm":0"#), "{edf}");
    }

    #[test]
    fn batches_preserve_input_order_at_any_thread_count() {
        let s = Service::new();
        let lines: Vec<String> = (0..12)
            .map(|i| {
                line(
                    &format!("q{i}"),
                    // Two distinct questions interleaved.
                    if i % 2 == 0 {
                        KWS
                    } else {
                        r#"{"name":"ic","model":"resnet8","period_us":400000}"#
                    },
                )
            })
            .collect();
        let one = s.answer_batch_with_threads(1, lines.clone());
        let many = s.answer_batch_with_threads(8, lines.clone());
        assert_eq!(one, many, "thread count must not change output bytes");
        for (i, out) in one.iter().enumerate() {
            assert!(out.contains(&format!(r#""id":"q{i}""#)), "{out}");
        }
    }

    #[test]
    fn headroom_is_positive_for_admitted_sets_and_repeats_hit_the_answer_cache() {
        let s = Service::new();
        let q = line("h", KWS);
        let out = s.answer_line(&q);
        let ppm: u64 = out
            .split(r#""headroom_ppm":"#)
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("headroom field present");
        assert!(
            ppm >= 1_000_000,
            "an admitted set tolerates at least identity scaling: {out}"
        );
        // The repeat under a new id is served whole from the answer
        // cache, headroom included; headroom itself is never memoized.
        let again = s.answer_line(&line("h2", KWS));
        assert_eq!(s.stats().answers_reused, 1);
        assert_eq!(again, out.replace(r#""id":"h""#, r#""id":"h2""#));
    }
}
