//! The diagnostics engine: rules, severities, findings, reports, and
//! per-rule filters.
//!
//! Every diagnostic the verifier can emit is declared here with a
//! stable identifier (`RTM0xx`), a default severity, the category of
//! invariant it guards, and whether an Error-level instance blocks
//! framework admission. Rule IDs are part of the tool's contract: they
//! appear verbatim in the JSON schema (see [`SCHEMA`]) and may be
//! referenced by `--allow` / `--deny` flags, so they are never reused
//! or renumbered.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Version tag of the JSON report layout ([`Report::to_json`]).
pub const SCHEMA: &str = "rtmdm-check/1";

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but not provably wrong; fails only under `--deny-warnings`.
    Warn,
    /// A proven violation of a checked invariant.
    Error,
}

impl Severity {
    /// Lower-case name used in JSON and text renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The family of invariant a rule guards (also the rule-ID decade).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Double-buffer staging races and SRAM aliasing (`RTM00x`).
    Staging,
    /// Segmentation-plan well-formedness (`RTM01x`).
    Plan,
    /// Admission and schedulability lints (`RTM02x`).
    Admission,
    /// DNN graph consistency (`RTM03x`).
    Graph,
    /// Platform configuration sanity (`RTM04x`).
    Platform,
    /// Exhaustive schedule-space exploration verdicts (`RTM05x`).
    Explore,
}

macro_rules! rules {
    ($( $variant:ident = $id:literal, $sev:ident, $cat:ident, $blocking:literal, $summary:literal; )+) => {
        /// Every diagnostic the verifier can emit, by stable identifier.
        ///
        /// IDs are grouped by decade: `RTM00x` staging/aliasing, `RTM01x`
        /// plan well-formedness, `RTM02x` admission, `RTM03x` graph,
        /// `RTM04x` platform, `RTM05x` schedule-space exploration.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Rule {
            $( #[doc = $summary] $variant, )+
        }

        impl Rule {
            /// Every rule, in ID order (drives the README rule table).
            pub const ALL: &'static [Rule] = &[ $( Rule::$variant, )+ ];

            /// The stable `RTM0xx` identifier.
            pub fn id(self) -> &'static str {
                match self { $( Rule::$variant => $id, )+ }
            }

            /// Severity the rule fires at unless a filter escalates it.
            pub fn default_severity(self) -> Severity {
                match self { $( Rule::$variant => Severity::$sev, )+ }
            }

            /// The invariant family the rule belongs to.
            pub fn category(self) -> Category {
                match self { $( Rule::$variant => Category::$cat, )+ }
            }

            /// Whether an Error-level finding of this rule is *structural*
            /// — a malformed spec, plan, graph, or platform — and must
            /// reject framework admission outright. Feasibility verdicts
            /// (over-utilization, diverging RTA, fetch-bound deadlines)
            /// are deliberately non-blocking: they remain the
            /// schedulability analysis's own answer, which callers may
            /// legitimately probe with infeasible sets.
            pub fn blocks_admission(self) -> bool {
                match self { $( Rule::$variant => $blocking, )+ }
            }

            /// One-line description of what the rule detects.
            pub fn summary(self) -> &'static str {
                match self { $( Rule::$variant => $summary, )+ }
            }

            /// Parses an `RTM0xx` identifier (as accepted by
            /// `--allow`/`--deny`).
            pub fn from_id(id: &str) -> Option<Rule> {
                match id { $( $id => Some(Rule::$variant), )+ _ => None }
            }
        }
    };
}

rules! {
    Rtm001 = "RTM001", Error, Staging, true,
        "a segment's fetch overruns its double-buffer half, spilling into the live half";
    Rtm002 = "RTM002", Error, Staging, true,
        "a DMA-write window overlaps a CPU-read window of the same staging bytes";
    Rtm003 = "RTM003", Error, Staging, true,
        "two SRAM regions alias (weight ping/pong overlapping activations or another task)";
    Rtm004 = "RTM004", Error, Staging, true,
        "the SRAM plan does not fit the platform's SRAM";
    Rtm010 = "RTM010", Error, Plan, true,
        "the segmentation plan is empty or its segment indices are not dense and ordered";
    Rtm011 = "RTM011", Error, Plan, true,
        "segment layer ranges are not contiguous in execution order";
    Rtm012 = "RTM012", Error, Plan, true,
        "the plan is unrealizable: zero staging buffer, or a layer exceeding the buffer";
    Rtm013 = "RTM013", Error, Plan, true,
        "plan compute/fetch totals are inconsistent with the cost model";
    Rtm020 = "RTM020", Error, Admission, true,
        "a task's deadline exceeds its period";
    Rtm021 = "RTM021", Error, Admission, true,
        "a task has a zero period or deadline";
    Rtm022 = "RTM022", Warn, Admission, false,
        "a task has zero worst-case execution time";
    Rtm023 = "RTM023", Error, Admission, false,
        "occupancy utilization exceeds 100%";
    Rtm024 = "RTM024", Warn, Admission, false,
        "occupancy utilization exceeds the rate-monotonic bound under fixed priorities";
    Rtm025 = "RTM025", Warn, Admission, false,
        "the hyperperiod overflows; exact period-based arguments are unavailable";
    Rtm026 = "RTM026", Error, Admission, false,
        "the response-time fixed point diverges (definitely unschedulable)";
    Rtm027 = "RTM027", Error, Admission, true,
        "two or more tasks share a name";
    Rtm030 = "RTM030", Error, Graph, true,
        "tensor shapes disagree across a graph edge";
    Rtm031 = "RTM031", Warn, Graph, false,
        "a layer's output is never consumed and is not the model output";
    Rtm032 = "RTM032", Error, Graph, true,
        "a quantization parameter is out of range";
    Rtm033 = "RTM033", Warn, Graph, false,
        "a zero-MAC layer still stages weights";
    Rtm040 = "RTM040", Error, Platform, true,
        "the platform configuration is invalid";
    Rtm041 = "RTM041", Error, Platform, false,
        "staging a job's weights alone exceeds the task's deadline on this bus";
    Rtm050 = "RTM050", Error, Explore, false,
        "exhaustive exploration reached a deadline miss under some admissible interleaving";
    Rtm051 = "RTM051", Error, Explore, true,
        "exhaustive exploration reached a double-buffer staging race";
    Rtm052 = "RTM052", Error, Explore, false,
        "the DMA retry budget is insufficient on some explored fault path";
    Rtm053 = "RTM053", Warn, Explore, false,
        "exploration exceeded its state budget before covering the space; the verdict is inconclusive, not safe";
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: a rule instance anchored to a location in the spec.
///
/// The locus fields (`task`, `model`, `segment`, `layer`) are the
/// verifier's span equivalent — each is filled when the finding can be
/// pinned to that granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Effective severity (the rule default, unless a filter escalated).
    pub severity: Severity,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
    /// Task name the finding is about, when known.
    pub task: Option<String>,
    /// Model name the finding is about, when known.
    pub model: Option<String>,
    /// Segment index within the task's plan, when applicable.
    pub segment: Option<usize>,
    /// Layer (node) index within the model, when applicable.
    pub layer: Option<usize>,
}

impl Finding {
    /// Creates a finding at the rule's default severity.
    pub fn new(rule: Rule, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            severity: rule.default_severity(),
            message: message.into(),
            task: None,
            model: None,
            segment: None,
            layer: None,
        }
    }

    /// Anchors the finding to a task.
    pub fn with_task(mut self, task: impl Into<String>) -> Finding {
        self.task = Some(task.into());
        self
    }

    /// Anchors the finding to a model.
    pub fn with_model(mut self, model: impl Into<String>) -> Finding {
        self.model = Some(model.into());
        self
    }

    /// Anchors the finding to a plan segment.
    pub fn with_segment(mut self, segment: usize) -> Finding {
        self.segment = Some(segment);
        self
    }

    /// Anchors the finding to a model layer.
    pub fn with_layer(mut self, layer: usize) -> Finding {
        self.layer = Some(layer);
        self
    }

    /// The locus rendered for the text format, e.g. `task kws, segment 3`.
    fn locus(&self) -> String {
        let mut parts = Vec::new();
        if let Some(t) = &self.task {
            parts.push(format!("task {t}"));
        }
        if let Some(m) = &self.model {
            parts.push(format!("model {m}"));
        }
        if let Some(s) = self.segment {
            parts.push(format!("segment {s}"));
        }
        if let Some(l) = self.layer {
            parts.push(format!("layer {l}"));
        }
        parts.join(", ")
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let locus = self.locus();
        if locus.is_empty() {
            write!(f, "{}[{}] {}", self.severity, self.rule, self.message)
        } else {
            write!(
                f,
                "{}[{}] {}: {}",
                self.severity, self.rule, locus, self.message
            )
        }
    }
}

/// The outcome of a verification run: every finding, in pass order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in the deterministic order the passes emitted them.
    pub findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Appends a batch of findings (typically one pass's output).
    pub fn extend(&mut self, findings: impl IntoIterator<Item = Finding>) {
        self.findings.extend(findings);
    }

    /// Number of Error-level findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of Warn-level findings.
    pub fn warning_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether any Error-level finding is of a rule that must reject
    /// framework admission (see [`Rule::blocks_admission`]).
    pub fn blocks_admission(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == Severity::Error && f.rule.blocks_admission())
    }

    /// The machine-readable document (schema [`SCHEMA`]) as a value, for
    /// callers that embed it in a larger document.
    pub fn to_json_report(&self) -> JsonReport {
        JsonReport {
            schema: SCHEMA.to_owned(),
            errors: self.error_count(),
            warnings: self.warning_count(),
            findings: self.findings.iter().map(JsonFinding::from).collect(),
        }
    }

    /// Renders the machine-readable JSON document (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_json_report()).expect("report serialization is infallible")
    }

    /// Renders the human-readable listing, one finding per line plus a
    /// summary tail.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

/// Serialized form of a [`Finding`] (stable JSON field order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonFinding {
    /// Stable rule ID, e.g. `"RTM020"`.
    pub rule: String,
    /// `"error"`, `"warn"`, or `"info"`.
    pub severity: String,
    /// Human-readable message.
    pub message: String,
    /// Task locus, when known.
    pub task: Option<String>,
    /// Model locus, when known.
    pub model: Option<String>,
    /// Segment locus, when known.
    pub segment: Option<usize>,
    /// Layer locus, when known.
    pub layer: Option<usize>,
}

impl From<&Finding> for JsonFinding {
    fn from(f: &Finding) -> JsonFinding {
        JsonFinding {
            rule: f.rule.id().to_owned(),
            severity: f.severity.as_str().to_owned(),
            message: f.message.clone(),
            task: f.task.clone(),
            model: f.model.clone(),
            segment: f.segment,
            layer: f.layer,
        }
    }
}

/// Serialized form of a [`Report`]; also the type the CLI re-parses
/// exported JSON through before printing it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonReport {
    /// Schema tag, always [`SCHEMA`].
    pub schema: String,
    /// Error-level finding count.
    pub errors: usize,
    /// Warn-level finding count.
    pub warnings: usize,
    /// The findings, in emission order.
    pub findings: Vec<JsonFinding>,
}

/// Per-rule allow/deny policy applied after the passes run.
///
/// `allow` drops a rule's findings entirely; `deny` (or the blanket
/// `deny_warnings`) escalates Warn-level findings to Error so they fail
/// the run.
#[derive(Debug, Clone, Default)]
pub struct RuleFilter {
    allowed: BTreeSet<Rule>,
    denied: BTreeSet<Rule>,
    deny_warnings: bool,
}

impl RuleFilter {
    /// A filter that passes everything through unchanged.
    pub fn new() -> RuleFilter {
        RuleFilter::default()
    }

    /// Suppresses all findings of `rule`.
    pub fn allow(mut self, rule: Rule) -> RuleFilter {
        self.allowed.insert(rule);
        self
    }

    /// Escalates `rule` findings to Error severity.
    pub fn deny(mut self, rule: Rule) -> RuleFilter {
        self.denied.insert(rule);
        self
    }

    /// Escalates every Warn-level finding to Error.
    pub fn deny_warnings(mut self, yes: bool) -> RuleFilter {
        self.deny_warnings = yes;
        self
    }

    /// Applies the policy, producing the filtered report.
    pub fn apply(&self, report: &Report) -> Report {
        let findings = report
            .findings
            .iter()
            .filter(|f| !self.allowed.contains(&f.rule))
            .map(|f| {
                let mut f = f.clone();
                if f.severity == Severity::Warn
                    && (self.deny_warnings || self.denied.contains(&f.rule))
                {
                    f.severity = Severity::Error;
                }
                f
            })
            .collect();
        Report { findings }
    }
}

/// Formats parts-per-million as a percentage with two decimals.
pub(crate) fn ppm_pct(ppm: u64) -> String {
    format!("{}.{:02}%", ppm / 10_000, (ppm % 10_000) / 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip_and_match_categories() {
        for &rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
            let decade = rule.id().as_bytes()[4] - b'0';
            let expected = match rule.category() {
                Category::Staging => 0,
                Category::Plan => 1,
                Category::Admission if rule == Rule::Rtm041 => 4,
                Category::Admission => 2,
                Category::Graph => 3,
                Category::Platform => 4,
                Category::Explore => 5,
            };
            assert_eq!(decade, expected, "{rule} decade");
        }
        assert_eq!(Rule::from_id("RTM999"), None);
    }

    #[test]
    fn feasibility_rules_never_block_admission() {
        for rule in [
            Rule::Rtm022,
            Rule::Rtm023,
            Rule::Rtm024,
            Rule::Rtm026,
            Rule::Rtm041,
            // Exploration feasibility verdicts mirror the analytic ones:
            // a reachable miss or an insufficient retry budget is the
            // analysis's answer, not a malformed spec. The reachable
            // *race* (RTM051) is structural and blocks below.
            Rule::Rtm050,
            Rule::Rtm052,
            Rule::Rtm053,
        ] {
            assert!(!rule.blocks_admission(), "{rule}");
        }
        for rule in [
            Rule::Rtm001,
            Rule::Rtm010,
            Rule::Rtm020,
            Rule::Rtm027,
            Rule::Rtm030,
            Rule::Rtm040,
            Rule::Rtm051,
        ] {
            assert!(rule.blocks_admission(), "{rule}");
        }
    }

    #[test]
    fn json_report_round_trips() {
        let mut report = Report::new();
        report.push(
            Finding::new(Rule::Rtm020, "deadline 200000 us exceeds period 100000 us")
                .with_task("kws"),
        );
        let json = report.to_json();
        let parsed: JsonReport = serde_json::from_str(&json).expect("round trip");
        assert_eq!(parsed, report.to_json_report());
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.errors, 1);
        assert_eq!(parsed.warnings, 0);
        assert_eq!(parsed.findings[0].rule, "RTM020");
        assert_eq!(parsed.findings[0].task.as_deref(), Some("kws"));
        assert_eq!(parsed.findings[0].segment, None);
    }

    #[test]
    fn filter_allows_and_escalates() {
        let mut report = Report::new();
        report.push(Finding::new(Rule::Rtm024, "over the RM bound"));
        report.push(Finding::new(Rule::Rtm031, "dead layer"));
        let allowed = RuleFilter::new().allow(Rule::Rtm031).apply(&report);
        assert_eq!(allowed.findings.len(), 1);
        assert_eq!(allowed.findings[0].rule, Rule::Rtm024);
        let denied = RuleFilter::new().deny_warnings(true).apply(&report);
        assert_eq!(denied.error_count(), 2);
        let one = RuleFilter::new().deny(Rule::Rtm024).apply(&report);
        assert_eq!(one.error_count(), 1);
        assert_eq!(one.warning_count(), 1);
    }

    #[test]
    fn text_rendering_names_the_locus() {
        let f = Finding::new(Rule::Rtm001, "overrun")
            .with_task("kws")
            .with_segment(3);
        assert_eq!(f.to_string(), "error[RTM001] task kws, segment 3: overrun");
    }
}
