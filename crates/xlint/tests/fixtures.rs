//! Golden tests: run the full analyzer over each fixture workspace in
//! `tests/fixtures/<case>/` and compare the rendered findings (witness
//! paths included) against the case's `expected.txt`.
//!
//! Regenerate a golden by running the test with
//! `XLINT_BLESS=1 cargo test -p xlint --test fixtures` after verifying
//! the new output by eye.

use std::path::Path;

fn run_case(name: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let analysis = xlint::analyze(&root);
    assert!(analysis.scanned > 0, "case {name}: no files scanned");
    let mut got = String::new();
    for (finding, _) in &analysis.findings {
        got.push_str(&finding.to_string());
        got.push('\n');
    }
    let golden = root.join("expected.txt");
    if std::env::var_os("XLINT_BLESS").is_some() {
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("case {name}: missing {}: {e}", golden.display()));
    assert_eq!(
        got.trim(),
        expected.trim(),
        "case {name}: findings drifted from expected.txt \
         (run with XLINT_BLESS=1 to regenerate after reviewing)"
    );
}

/// Reactor event loop reaching a tracked lock and a blocking call via a
/// tick/step call-graph cycle and a cross-file helper.
#[test]
fn reactor_blocking_fixture() {
    run_case("reactor_blocking");
}

/// Inline hooks (`invoke_now`) are roots of their own: one that takes a
/// blocking `read()` and one that reaches a remote `.call(` are
/// reported; one that only `try_read`s is not.
#[test]
fn reactor_hook_fixture() {
    run_case("reactor_hook");
}

/// A method called on a parameter or `let` declared with a workspace
/// type, or on a `self` field, resolves to that type's methods: a hook's
/// helper reading a `&Store` does not reach the servant's same-name
/// method that takes the store's guard; a `let` declared as the servant
/// does, and is reported.
#[test]
fn typed_receiver_fixture() {
    run_case("typed_receiver");
}

/// `module::f(…)` resolves to the `f` of that module: a hook writing
/// through `reply::write_reply` does not reach `reactor::write_reply`,
/// which takes a send guard; one calling `reactor::write_reply` does.
#[test]
fn module_path_fixture() {
    run_case("module_path");
}

/// Healthy counters beside ones nothing ever increments, in a
/// written-out struct and in a `counter_set!` declaration.
#[test]
fn metrics_drift_fixture() {
    run_case("metrics_drift");
}

/// A guard held across a two-hop cross-file chain ending in fsync.
#[test]
fn guard_transitive_fixture() {
    run_case("guard_transitive");
}

/// Stoplist negative: `v.push(1)` under a guard must not resolve to a
/// same-name method that blocks. Zero findings expected.
#[test]
fn clean_fixture() {
    run_case("clean");
}

/// Federated fan-out-merge: holding the merge lock across the shipping
/// wave is flagged (the wire round trips happen under the guard, via
/// `ship_wave -> ship_one -> invoke`); the ship-then-merge shape the
/// real executor uses stays quiet.
#[test]
fn fed_fanout_fixture() {
    run_case("fed_fanout");
}
