//! The seeded bins' outputs against their committed goldens in
//! `results/`, byte for byte, one test per family.
//!
//! * The ten figure and experiment bins print no timings, so each run
//!   must equal `results/<bin>.txt`.
//! * The chaos and federated-chaos replays run each seed twice: the two
//!   transcripts must be equal (anything else is nondeterminism), and
//!   the first must equal `results/<family>-<seed>.txt`.
//!
//! A change that moves an output re-records its golden and says why.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the bins run there, as from a checkout.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Run `exe` with `args` from the repository root and return its stdout.
fn run(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .current_dir(root())
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{exe}: stdout is not UTF-8: {e}"))
}

/// Panic, naming the first differing line, unless `actual` is exactly
/// what `what` expected.
fn assert_same(what: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let line = (0..e.len().max(a.len()))
        .find(|&i| e.get(i) != a.get(i))
        .unwrap_or(e.len());
    panic!(
        "{what} differs at line {} ({} expected lines, {} actual):\n  expected: {:?}\n  actual:   {:?}",
        line + 1,
        e.len(),
        a.len(),
        e.get(line),
        a.get(line)
    );
}

/// The committed golden `results/<name>.txt`.
fn golden(name: &str) -> String {
    let path = root().join("results").join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn figure_and_experiment_bins_match_their_goldens() {
    let bins = [
        ("fig1_topology", env!("CARGO_BIN_EXE_fig1_topology")),
        (
            "fig2_implementation",
            env!("CARGO_BIN_EXE_fig2_implementation"),
        ),
        ("fig3_layers", env!("CARGO_BIN_EXE_fig3_layers")),
        ("fig4_browse", env!("CARGO_BIN_EXE_fig4_browse")),
        ("fig5_document", env!("CARGO_BIN_EXE_fig5_document")),
        ("fig6_query", env!("CARGO_BIN_EXE_fig6_query")),
        (
            "exp1_discovery_scaling",
            env!("CARGO_BIN_EXE_exp1_discovery_scaling"),
        ),
        ("exp4_churn", env!("CARGO_BIN_EXE_exp4_churn")),
        ("exp5_translation", env!("CARGO_BIN_EXE_exp5_translation")),
        ("exp6_ablation", env!("CARGO_BIN_EXE_exp6_ablation")),
    ];
    for (name, exe) in bins {
        assert_same(name, &golden(name), &run(exe, &[]));
    }
}

/// Replay each seed twice: the runs must agree, and the first must be
/// the golden `results/<family>-<seed>.txt`.
fn replays_are_deterministic_and_match_their_goldens(family: &str, exe: &str) {
    for seed in ["1999", "2026"] {
        let first = run(exe, &[seed]);
        let second = run(exe, &[seed]);
        assert_same(&format!("{family} {seed}, second run"), &first, &second);
        let name = format!("{family}-{seed}");
        assert_same(&name, &golden(&name), &first);
    }
}

#[test]
fn chaos_replays_are_deterministic_and_match_their_goldens() {
    replays_are_deterministic_and_match_their_goldens("chaos", env!("CARGO_BIN_EXE_chaos_replay"));
}

#[test]
fn fed_chaos_replays_are_deterministic_and_match_their_goldens() {
    replays_are_deterministic_and_match_their_goldens(
        "fed-chaos",
        env!("CARGO_BIN_EXE_fed_chaos_replay"),
    );
}
