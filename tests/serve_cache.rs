//! Integration gate for the admission service's cache-correctness
//! invariant:
//!
//! > A warm answer (served from the content-addressed cache) is
//! > byte-identical to the cold answer (computed by a fresh service
//! > with every cache empty) for the same request line — across random
//! > task sets, platforms, analysis options, and single-task
//! > mutations — and a batch's bytes never depend on the worker count.
//!
//! This is what makes `rtmdm serve` sound: responses carry no
//! hit-versus-miss marker, so the only way the invariant can hold is
//! for both memo levels (spec lowerings and whole answers) to cache the
//! exact value the direct computation produces.
//!
//! The same generator also feeds the robustness gate: arbitrary bytes
//! and single-byte damage to valid lines never panic the service, and
//! every line still gets exactly one JSON answer carrying `ok`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rt_mdm::check::Rule;
use rt_mdm::core::{
    AdmitError, FrameworkOptions, PriorityAssignment, RtMdm, Service, Strategy, TaskSpec,
};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::PlatformConfig;
use rt_mdm::sched::sim::Policy;
use rt_mdm::sched::MissPolicy;
use serde::Content;

const PLATFORMS: &[&str] = &[
    "cortex-m4-lowend",
    "stm32f746-qspi",
    "stm32h743-ospi",
    "ideal-sram",
];

const MODELS: &[&str] = &[
    "micro-mlp",
    "ds-cnn",
    "lenet5",
    "resnet8",
    "mobilenet-v1-025",
    "autoencoder",
];

const PERIODS_US: &[u64] = &[20_000, 50_000, 100_000, 200_000, 500_000];

fn pick<'a, T: ?Sized>(rng: &mut StdRng, pool: &'a [&'a T]) -> &'a T {
    pool[rng.gen_range(0..pool.len())]
}

const ASSIGNMENTS: &[&str] = &[
    "deadline-monotonic",
    "rate-monotonic",
    "insertion-order",
    "audsley",
];

const MISS_POLICIES: &[&str] = &["continue", "abort", "skip-next"];

/// Renders one random well-formed request line. The drawn space covers
/// every platform preset, every zoo model, both policies, every priority
/// assignment, the dma-awareness, work-conserving and tiling ablations,
/// explicit segment caps, miss policies, explicit and defaulted
/// deadlines, and occasional buffer/activation-budget overrides. The
/// assignment, miss-policy, tiling and cap options let two different
/// requests share one ordered task set, or one set yield two answers.
fn random_request(rng: &mut StdRng, id: &str) -> String {
    let platform = pick(rng, PLATFORMS);
    let mut options = Vec::new();
    if rng.gen_bool(0.3) {
        options.push(r#""policy":"edf""#.to_owned());
    }
    if rng.gen_bool(0.5) {
        options.push(format!(r#""assignment":"{}""#, pick(rng, ASSIGNMENTS)));
    }
    if rng.gen_bool(0.3) {
        options.push(r#""dma_aware_analysis":false"#.to_owned());
    }
    if rng.gen_bool(0.3) {
        options.push(r#""work_conserving":true"#.to_owned());
    }
    if rng.gen_bool(0.3) {
        options.push(r#""tile_oversized_layers":false"#.to_owned());
    }
    if rng.gen_bool(0.3) {
        options.push(format!(
            r#""segment_compute_cap_us":{}"#,
            [1_000u64, 5_000, 25_000][rng.gen_range(0..3usize)]
        ));
    }
    if rng.gen_bool(0.3) {
        options.push(format!(r#""miss_policy":"{}""#, pick(rng, MISS_POLICIES)));
    }
    let n_tasks = rng.gen_range(1..=3usize);
    let tasks: Vec<String> = (0..n_tasks)
        .map(|i| {
            let model = pick(rng, MODELS);
            let period = PERIODS_US[rng.gen_range(0..PERIODS_US.len())];
            let mut fields = vec![
                format!(r#""name":"t{i}""#),
                format!(r#""model":"{model}""#),
                format!(r#""period_us":{period}"#),
            ];
            if rng.gen_bool(0.5) {
                let deadline = period * rng.gen_range(60..=100u64) / 100;
                fields.push(format!(r#""deadline_us":{deadline}"#));
            }
            if rng.gen_bool(0.25) {
                fields.push(format!(
                    r#""buffer_bytes":{}"#,
                    4096 * rng.gen_range(1..=8u64)
                ));
            }
            if rng.gen_bool(0.25) {
                fields.push(format!(
                    r#""activation_budget_bytes":{}"#,
                    1024 * rng.gen_range(8..=64u64)
                ));
            }
            if rng.gen_bool(0.2) {
                fields.push(format!(r#""miss_policy":"{}""#, pick(rng, MISS_POLICIES)));
            }
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    format!(
        r#"{{"id":"{id}","platform":"{platform}","options":{{{}}},"tasks":[{}]}}"#,
        options.join(","),
        tasks.join(",")
    )
}

/// Mutates one task of a request line: a different period (the nearest
/// cache-relevant perturbation — everything but that one task's
/// lowering should be reusable).
fn mutate_period(line: &str, new_period: u64) -> String {
    let start = line.find(r#""period_us":"#).expect("request has a period") + 12;
    let end = start
        + line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("digits end");
    format!("{}{}{}", &line[..start], new_period, &line[end..])
}

fn str_of(v: &Content) -> &str {
    match v {
        Content::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn u64_of(v: &Content) -> u64 {
    match v {
        Content::U64(n) => *n,
        other => panic!("expected an integer, found {other:?}"),
    }
}

fn bool_of(v: &Content) -> bool {
    match v {
        Content::Bool(b) => *b,
        other => panic!("expected a boolean, found {other:?}"),
    }
}

/// The framework a [`random_request`] line describes, built through the
/// public API with the wire format's defaults — independent of the
/// service's own parser.
fn framework_of(line: &str) -> Result<RtMdm, AdmitError> {
    let doc: Content = serde_json::from_str(line).expect("generated lines are JSON");
    let platform = PlatformConfig::preset(str_of(doc.get("platform").expect("platform")))
        .expect("generated platforms are presets");
    let mut options = FrameworkOptions::default();
    if let Some(Content::Map(entries)) = doc.get("options") {
        for (key, value) in entries {
            match key.as_str() {
                "policy" => {
                    assert_eq!(str_of(value), "edf");
                    options.policy = Policy::Edf;
                }
                "assignment" => {
                    options.assignment = match str_of(value) {
                        "deadline-monotonic" => PriorityAssignment::DeadlineMonotonic,
                        "rate-monotonic" => PriorityAssignment::RateMonotonic,
                        "insertion-order" => PriorityAssignment::InsertionOrder,
                        "audsley" => PriorityAssignment::Audsley,
                        other => panic!("unknown assignment {other}"),
                    }
                }
                "dma_aware_analysis" => options.dma_aware_analysis = bool_of(value),
                "work_conserving" => options.work_conserving = bool_of(value),
                "tile_oversized_layers" => options.tile_oversized_layers = bool_of(value),
                "segment_compute_cap_us" => options.segment_compute_cap_us = Some(u64_of(value)),
                "miss_policy" => {
                    options.miss_policy = MissPolicy::from_name(str_of(value)).expect("policy");
                }
                other => panic!("unknown option {other}"),
            }
        }
    }
    let mut fw = RtMdm::with_options(platform, options)?;
    let Some(Content::Seq(tasks)) = doc.get("tasks") else {
        panic!("tasks is an array");
    };
    for task in tasks {
        let field = |key: &str| task.get(key);
        let period = u64_of(field("period_us").expect("period"));
        let model = zoo::by_name(str_of(field("model").expect("model"))).expect("zoo model");
        let deadline = field("deadline_us").map_or(period, u64_of);
        let mut spec = TaskSpec::new(
            str_of(field("name").expect("name")),
            model,
            period,
            deadline,
        );
        if let Some(v) = field("buffer_bytes") {
            spec = spec.with_buffer_bytes(u64_of(v));
        }
        if let Some(v) = field("activation_budget_bytes") {
            spec = spec.with_activation_budget(u64_of(v));
        }
        if let Some(v) = field("strategy") {
            spec = spec.with_strategy(Strategy::from_name(str_of(v)).expect("strategy"));
        }
        if let Some(v) = field("miss_policy") {
            spec = spec.with_miss_policy(MissPolicy::from_name(str_of(v)).expect("policy"));
        }
        fw.add_task(spec)?;
    }
    Ok(fw)
}

/// The id is echoed verbatim; strip it so responses to the same
/// question under different ids can be compared.
fn strip_id(answer: &str) -> String {
    let start = answer.find(r#""id":"#).expect("answer has an id");
    let end = answer[start..].find(',').expect("id is not last") + start;
    format!("{}{}", &answer[..start], &answer[end + 1..])
}

fn cold(line: &str) -> String {
    Service::new().answer_line(line)
}

/// Answers `bytes` (decoded as lossy UTF-8, the way a line reader
/// would hand them over) and checks the answer is one JSON line whose
/// `ok` field is a boolean.
fn answers_one_json_line(bytes: &[u8]) -> Result<(), TestCaseError> {
    let line = String::from_utf8_lossy(bytes);
    let answer = cold(&line);
    prop_assert!(!answer.contains('\n'), "multi-line answer to {:?}", line);
    let parsed = serde_json::from_str::<Content>(&answer);
    let ok = parsed.as_ref().ok().and_then(|v| v.get("ok"));
    prop_assert!(
        matches!(ok, Some(Content::Bool(_))),
        "answer to {:?} is not JSON carrying a boolean ok: {}",
        line,
        answer
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Warm answers are byte-identical to cold ones across random
    /// requests and single-task mutations, including re-asking after
    /// the mutation (a full-answer cache hit).
    #[test]
    fn warm_equals_cold_under_mutation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_request(&mut rng, "q-base");
        let mutated = mutate_period(&base, 1_000_000);

        let service = Service::new();
        let warm_base_first = service.answer_line(&base);
        let warm_mut = service.answer_line(&mutated);
        let warm_base_again = service.answer_line(&base);

        prop_assert_eq!(&warm_base_first, &cold(&base), "first ask vs cold");
        prop_assert_eq!(&warm_mut, &cold(&mutated), "mutated ask vs cold");
        prop_assert_eq!(&warm_base_again, &warm_base_first, "cache hit changed bytes");

        let stats = service.stats();
        prop_assert_eq!(stats.queries, 3);
        prop_assert!(stats.answers_reused >= 1, "third ask must hit the answer cache");
    }

    /// One batch, two worker counts, byte-identical output vectors:
    /// results depend on input order only, never on which thread
    /// answered which line.
    #[test]
    fn thread_count_never_changes_bytes(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines = Vec::new();
        for i in 0..4 {
            let line = random_request(&mut rng, &format!("q-{i}"));
            // Duplicates (fresh ids) exercise hit-vs-miss races between
            // workers; the malformed line exercises error records.
            lines.push(line.clone());
            lines.push(line.replace(r#""id":"q-"#, r#""id":"dup-"#));
        }
        lines.push("{not json".to_owned());

        let one = Service::new().answer_batch_with_threads(1, lines.clone());
        let eight = Service::new().answer_batch_with_threads(8, lines.clone());
        prop_assert_eq!(&one, &eight, "worker count changed batch bytes");
        prop_assert_eq!(one.len(), lines.len());
        prop_assert!(one.last().unwrap().contains(r#""ok":false"#));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The service answers exactly what `RtMdm::admit` decides — the
    /// verdict, the occupancy and every RTA row — and on fixed-priority
    /// sets the verifier's RTM026 names exactly the priorities the
    /// admission analysis leaves without a bound (EDF: none).
    #[test]
    fn service_matches_admission_and_rtm026_matches_its_bounds(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = random_request(&mut rng, "q");
        let answer: Content = serde_json::from_str(&cold(&line)).expect("answer is JSON");
        let verdict = str_of(answer.get("verdict").expect("verdict")).to_owned();
        let occupancy = u64_of(answer.get("occupancy_ppm").expect("occupancy"));
        let Some(Content::Seq(rows)) = answer.get("rta") else {
            panic!("rta is an array: {line}");
        };
        let admitted = framework_of(&line).and_then(|fw| fw.admit().map(|a| (fw, a)));
        let Ok((fw, admission)) = admitted else {
            prop_assert_eq!(verdict, "reject");
            prop_assert_eq!(occupancy, 0);
            prop_assert!(rows.is_empty());
            return Ok(());
        };
        let expected = if admission.schedulable() { "admit" } else { "reject" };
        prop_assert_eq!(verdict, expected, "{}", line);
        prop_assert_eq!(occupancy, admission.occupancy_ppm);
        prop_assert_eq!(rows.len(), admission.names.len());
        for (p, row) in rows.iter().enumerate() {
            let wcrt = admission
                .analysis
                .response_of(p)
                .map_or(Content::Null, |r| Content::U64(r.get()));
            prop_assert_eq!(row.get("priority"), Some(&Content::U64(p as u64)));
            prop_assert_eq!(row.get("task"), Some(&Content::Str(admission.names[p].clone())));
            prop_assert_eq!(
                row.get("deadline_cycles"),
                Some(&Content::U64(admission.deadlines[p].get()))
            );
            prop_assert_eq!(row.get("wcrt_cycles"), Some(&wcrt));
            prop_assert_eq!(row.get("meets"), Some(&Content::Bool(admission.meets(p))));
        }

        let diverged: Vec<String> = fw
            .check()
            .findings
            .into_iter()
            .filter(|f| f.rule == Rule::Rtm026)
            .map(|f| f.task.expect("RTM026 names its task"))
            .collect();
        let unbounded: Vec<String> = if admission.policy == Policy::Edf {
            Vec::new()
        } else {
            (0..admission.names.len())
                .filter(|&p| admission.analysis.response_of(p).is_none())
                .map(|p| admission.names[p].clone())
                .collect()
        };
        prop_assert_eq!(diverged, unbounded, "{}", line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes up to 512 long never panic the service.
    #[test]
    fn arbitrary_bytes_get_one_json_answer(
        bytes in proptest::collection::vec(0u8..=255, 0..513),
    ) {
        answers_one_json_line(&bytes)?;
    }

    /// A valid request line cut short at any byte, or with one byte
    /// replaced — by an arbitrary byte, or by a byte copied from
    /// elsewhere in the line, which often keeps the line well-formed
    /// and reaches validation past the parser — never panics the
    /// service.
    #[test]
    fn damaged_requests_get_one_json_answer(
        seed in 0u64..u64::MAX,
        at in 0usize..usize::MAX,
        from in 0usize..usize::MAX,
        byte in 0u8..=255,
        damage in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut line = random_request(&mut rng, "q").into_bytes();
        let at = at % line.len();
        match damage {
            0 => line.truncate(at),
            1 => line[at] = byte,
            _ => line[at] = line[from % line.len()],
        }
        answers_one_json_line(&line)?;
    }
}

/// Two textual spellings of one question (different ids, defaults
/// spelled out) share a cache entry, and each response still echoes
/// its own id.
#[test]
fn equivalent_requests_share_answers_across_ids() {
    let a = r#"{"id":"alpha","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
    let b = r#"{"id":"beta","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000,"deadline_us":100000}]}"#;
    let service = Service::new();
    let ra = service.answer_line(a);
    let rb = service.answer_line(b);
    assert!(ra.contains(r#""id":"alpha""#));
    assert!(rb.contains(r#""id":"beta""#));
    assert_eq!(strip_id(&ra), strip_id(&rb));
    assert_eq!(service.stats().answers_reused, 1);
}

/// A malformed line in the middle of a batch yields exactly one error
/// record and leaves the neighbouring answers untouched.
#[test]
fn malformed_lines_do_not_poison_the_batch() {
    let good = r#"{"id":"ok","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
    let lines = vec![
        good.to_owned(),
        r#"{"id":"bad","platform":"no-such-board","options":{},"tasks":[]}"#.to_owned(),
        "]]]".to_owned(),
        good.to_owned(),
    ];
    let service = Service::new();
    let out = service.answer_batch(lines);
    assert_eq!(out.len(), 4);
    assert_eq!(out[0], out[3]);
    assert!(out[0].contains(r#""ok":true"#));
    assert!(out[1].contains(r#""ok":false"#) && out[1].contains("no-such-board"));
    assert!(out[2].contains(r#""ok":false"#));
    assert_eq!(out[0], cold(good));
}
