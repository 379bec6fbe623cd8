//! Allowlist semantics: an entry that suppresses nothing must fail the
//! run with a diagnosis that tells the maintainer exactly what to fix —
//! stale (nothing at that site), wrong rule (site has a finding under a
//! different rule), or witness mismatch (rule and site match but the
//! pinned `via` step is not on the finding's witness path).

use std::path::PathBuf;
use xlint::{analyze_sources, apply_allowlist, parse_allowlist_text, AllowIssue};

/// A two-file workspace with exactly one interprocedural finding:
/// `caller` holds `g` across `mid`, which reaches `sync_all` in
/// another file.
fn analysis() -> xlint::Analysis {
    let a = "pub fn caller(s: &Store) {\n    let g = s.state.lock();\n    mid(s);\n    drop(g);\n}\n\nfn mid(s: &Store) {\n    slow_io(s);\n}\n";
    let b = "pub fn slow_io(s: &Store) {\n    s.file.sync_all();\n}\n";
    analyze_sources(&[
        (PathBuf::from("crates/app/src/a.rs"), a.to_owned()),
        (PathBuf::from("crates/app/src/b.rs"), b.to_owned()),
    ])
}

#[test]
fn matching_entry_suppresses_and_reports_no_issues() {
    let analysis = analysis();
    assert_eq!(analysis.findings.len(), 1);
    let entries = parse_allowlist_text(
        "guard-across-blocking crates/app/src/a.rs \"mid(s);\" via \"slow_io\" fsync is deliberate here\n",
    )
    .unwrap();
    let outcome = apply_allowlist(&analysis, &entries);
    assert!(outcome.real.is_empty());
    assert_eq!(outcome.suppressed.len(), 1);
    assert!(outcome.issues.is_empty());
}

#[test]
fn stale_entry_fails_with_remove_it_message() {
    let analysis = analysis();
    let entries = parse_allowlist_text(
        "guard-across-blocking crates/app/src/a.rs \"no_such_call()\" was fixed long ago\n",
    )
    .unwrap();
    let outcome = apply_allowlist(&analysis, &entries);
    assert_eq!(outcome.real.len(), 1, "nothing suppressed");
    assert_eq!(outcome.issues.len(), 1);
    assert!(matches!(outcome.issues[0], AllowIssue::Stale { .. }));
    let msg = outcome.issues[0].render();
    assert!(msg.contains("stale allowlist entry"), "{msg}");
    assert!(msg.contains("matches nothing — remove it"), "{msg}");
}

#[test]
fn wrong_rule_entry_names_the_actual_rule() {
    let analysis = analysis();
    let entries = parse_allowlist_text(
        "metrics-drift crates/app/src/a.rs \"mid(s);\" justified under the wrong family\n",
    )
    .unwrap();
    let outcome = apply_allowlist(&analysis, &entries);
    assert_eq!(outcome.real.len(), 1);
    assert_eq!(outcome.issues.len(), 1);
    assert!(matches!(outcome.issues[0], AllowIssue::WrongRule { .. }));
    let msg = outcome.issues[0].render();
    assert!(msg.contains("names the wrong rule"), "{msg}");
    assert!(msg.contains("`guard-across-blocking`"), "{msg}");
    assert!(msg.contains("fix the rule name"), "{msg}");
}

#[test]
fn witness_mismatch_entry_points_at_the_via_clause() {
    let analysis = analysis();
    let entries = parse_allowlist_text(
        "guard-across-blocking crates/app/src/a.rs \"mid(s);\" via \"SomeOtherFn\" pinned to a path that no longer exists\n",
    )
    .unwrap();
    let outcome = apply_allowlist(&analysis, &entries);
    assert_eq!(outcome.real.len(), 1);
    assert_eq!(outcome.issues.len(), 1);
    assert!(matches!(
        outcome.issues[0],
        AllowIssue::WitnessMismatch { .. }
    ));
    let msg = outcome.issues[0].render();
    assert!(msg.contains("matches no step"), "{msg}");
    assert!(msg.contains("update the `via` step"), "{msg}");
}

#[test]
fn the_three_diagnoses_are_distinct() {
    let analysis = analysis();
    let entries = parse_allowlist_text(concat!(
        "guard-across-blocking crates/app/src/a.rs \"no_such_call()\" stale\n",
        "metrics-drift crates/app/src/a.rs \"mid(s);\" wrong family\n",
        "guard-across-blocking crates/app/src/a.rs \"mid(s);\" via \"SomeOtherFn\" wrong path\n",
    ))
    .unwrap();
    let outcome = apply_allowlist(&analysis, &entries);
    assert_eq!(outcome.issues.len(), 3);
    let msgs: Vec<String> = outcome.issues.iter().map(AllowIssue::render).collect();
    assert!(msgs[0].contains("remove it"));
    assert!(msgs[1].contains("wrong rule"));
    assert!(msgs[2].contains("witness clause"));
    // Pairwise distinct diagnostics.
    assert_ne!(msgs[0], msgs[1]);
    assert_ne!(msgs[1], msgs[2]);
    assert_ne!(msgs[0], msgs[2]);
}

#[test]
fn parse_rejects_missing_justification_and_quoting() {
    assert!(parse_allowlist_text("guard-across-blocking a.rs \"snippet\"\n").is_err());
    assert!(parse_allowlist_text("guard-across-blocking a.rs snippet why\n").is_err());
    assert!(parse_allowlist_text("guard-across-blocking a.rs \"s\" via step why\n").is_err());
    assert!(parse_allowlist_text("# comment\n\n").unwrap().is_empty());
}
