//! Rule-registry contract tests.
//!
//! Two guarantees, both enforced against the single source of truth in
//! `crates/check/src/diag.rs`:
//!
//! 1. **ID stability** — the golden list below is the published rule
//!    surface: stable IDs, default severities, and blocking behavior.
//!    Rule IDs are contractual (they appear in JSON reports and in
//!    `--allow`/`--deny`/`--explain` flags), so this list only ever
//!    grows; changing or removing an entry is a breaking change that
//!    must be made deliberately, here, in the same commit.
//!
//! 2. **Doc drift** — the README rule table is rendered from the
//!    registry and diffed cell-for-cell, so the docs cannot silently
//!    fall behind a new or reworded rule.

use rt_mdm::check::{Rule, Severity};

/// The published rule surface: `(id, default severity, blocks admission)`.
///
/// Append-only. A new rule lands here with its README row in the same
/// commit; nothing is ever renumbered or reused.
const GOLDEN: &[(&str, Severity, bool)] = &[
    ("RTM001", Severity::Error, true),
    ("RTM002", Severity::Error, true),
    ("RTM003", Severity::Error, true),
    ("RTM004", Severity::Error, true),
    ("RTM010", Severity::Error, true),
    ("RTM011", Severity::Error, true),
    ("RTM012", Severity::Error, true),
    ("RTM013", Severity::Error, true),
    ("RTM020", Severity::Error, true),
    ("RTM021", Severity::Error, true),
    ("RTM022", Severity::Warn, false),
    ("RTM023", Severity::Error, false),
    ("RTM024", Severity::Warn, false),
    ("RTM025", Severity::Warn, false),
    ("RTM026", Severity::Error, false),
    ("RTM027", Severity::Error, true),
    ("RTM030", Severity::Error, true),
    ("RTM031", Severity::Warn, false),
    ("RTM032", Severity::Error, true),
    ("RTM033", Severity::Warn, false),
    ("RTM040", Severity::Error, true),
    ("RTM041", Severity::Error, false),
    ("RTM050", Severity::Error, false),
    ("RTM051", Severity::Error, true),
    ("RTM052", Severity::Error, false),
    ("RTM053", Severity::Warn, false),
];

#[test]
fn rule_registry_matches_the_golden_list_exactly() {
    let actual: Vec<(&str, Severity, bool)> = Rule::ALL
        .iter()
        .map(|r| (r.id(), r.default_severity(), r.blocks_admission()))
        .collect();
    assert_eq!(
        actual, GOLDEN,
        "the rule registry diverged from the golden list; rule IDs, default \
         severities, and blocking behavior are contractual — if this change is \
         deliberate, update the golden list (append-only) and the README table"
    );
}

#[test]
fn rule_ids_are_sorted_and_unique() {
    let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "Rule::ALL must stay in sorted ID order");
}

#[test]
fn every_rule_round_trips_through_from_id_and_explains() {
    for &rule in Rule::ALL {
        assert_eq!(Rule::from_id(rule.id()), Some(rule));
        assert!(
            !rule.summary().is_empty(),
            "{rule} has no description for --explain"
        );
    }
}

/// Renders the README rule-table row of one rule, exactly as the
/// README is expected to contain it.
fn readme_row(rule: Rule) -> String {
    format!(
        "| {} | {} | {} | {} |",
        rule.id(),
        rule.default_severity(),
        if rule.blocks_admission() { "yes" } else { "no" },
        rule.summary()
    )
}

#[test]
fn readme_rule_table_matches_the_registry() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(readme_path).expect("README.md at the repo root");
    let documented: Vec<&str> = readme
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("| RTM"))
        .collect();
    let rendered: Vec<String> = Rule::ALL.iter().map(|&r| readme_row(r)).collect();
    assert_eq!(
        documented.len(),
        rendered.len(),
        "README documents {} rules, the registry has {} — keep the table in \
         lockstep with crates/check/src/diag.rs",
        documented.len(),
        rendered.len()
    );
    for (doc, gen) in documented.iter().zip(&rendered) {
        assert_eq!(
            *doc, gen,
            "README rule row drifted from the registry (left: README, right: \
             rendered from diag.rs)"
        );
    }
}
