//! E11 — the cost of durability and the speed of recovery.
//!
//! Three measurements over the relstore durable tier:
//!
//! * **WAL overhead** — per-transaction commit latency for single-row
//!   INSERT transactions on three backends: in-memory (no WAL at all),
//!   durable on [`SimVfs`] (WAL + checkpoints, RAM-backed), and durable
//!   on [`DiskVfs`] (real files, real fsync). The in-memory column is
//!   the floor; the gap to the durable columns is what the paper's
//!   "databases may come and go" availability story costs per commit.
//! * **Group commit** — the same row count committed in batches of 32
//!   per transaction: one log force amortized over 32 ops.
//! * **Recovery time** — after `n` commits, the instance is crashed
//!   (`simulate_crash`) and reopened; we time `reopen()` and report how
//!   many WAL records the REDO pass replayed. Run at three pinned
//!   checkpoint cadences to show recovery time tracks the WAL since the
//!   last checkpoint, not database size, and once under the default
//!   rule (a checkpoint once the WAL is as long as the last snapshot),
//!   which the three backends above also run under.
//!
//! Results print as a table and land in `BENCH_durability.json`;
//! EXPERIMENTS.md records them as E11. `--quick` shrinks the row counts
//! for CI smoke runs.

use std::sync::Arc;
use std::time::Instant;
use webfindit_bench::{header, percentile};
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::{Database, Dialect};

fn create_schema(db: &mut Database) {
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner TEXT)")
        .expect("create accounts");
}

/// Time `n` autocommit INSERTs; returns (p50_us, p95_us, total_s).
fn time_inserts(db: &mut Database, n: usize, base: i64) -> (f64, f64, f64) {
    let mut lat = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n as i64 {
        let t = Instant::now();
        db.execute(&format!(
            "INSERT INTO accounts VALUES ({}, {}, 'holder-{}')",
            base + i,
            i % 1000,
            i
        ))
        .expect("insert");
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total = start.elapsed().as_secs_f64();
    (percentile(&lat, 50.0), percentile(&lat, 95.0), total)
}

/// Time `n` INSERTs committed in explicit transactions of `batch` rows;
/// returns (p50_us per row, p95_us per row, total_s).
fn time_batched(db: &mut Database, n: usize, batch: usize, base: i64) -> (f64, f64, f64) {
    let mut lat = Vec::new();
    let start = Instant::now();
    let mut i = 0i64;
    while (i as usize) < n {
        let t = Instant::now();
        db.begin().expect("begin");
        for _ in 0..batch.min(n - i as usize) {
            db.execute(&format!(
                "INSERT INTO accounts VALUES ({}, {}, 'holder-{}')",
                base + i,
                i % 1000,
                i
            ))
            .expect("insert");
            i += 1;
        }
        db.commit().expect("commit");
        lat.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    let total = start.elapsed().as_secs_f64();
    (percentile(&lat, 50.0), percentile(&lat, 95.0), total)
}

struct BackendResult {
    name: &'static str,
    auto_p50: f64,
    auto_p95: f64,
    auto_total: f64,
    batch_p50: f64,
    batch_p95: f64,
    batch_total: f64,
    wal_appends: u64,
    wal_flushes: u64,
}

fn run_backend(name: &'static str, mut db: Database, n: usize) -> BackendResult {
    create_schema(&mut db);
    let (auto_p50, auto_p95, auto_total) = time_inserts(&mut db, n, 0);
    let (batch_p50, batch_p95, batch_total) = time_batched(&mut db, n, 32, n as i64);
    let stats = db.storage_stats().unwrap_or_default();
    BackendResult {
        name,
        auto_p50,
        auto_p95,
        auto_total,
        batch_p50,
        batch_p95,
        batch_total,
        wal_appends: stats.wal_appends,
        wal_flushes: stats.wal_flushes,
    }
}

struct RecoveryResult {
    checkpoints: u64,
    commits_since_checkpoint: u64,
    recover_ms: f64,
    redo: u64,
    undo: u64,
}

/// Commit `n` rows at a pinned checkpoint cadence (`None`: the default
/// rule), leave one transaction in flight, crash, and time recovery.
fn run_recovery(checkpoint_every: Option<u32>, n: usize) -> RecoveryResult {
    let vfs = SimVfs::new();
    let mut db = Database::open_vfs(
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        "exp11",
        Dialect::Canonical,
    )
    .expect("open");
    if let Some(every) = checkpoint_every {
        db.set_checkpoint_every(every);
    }
    create_schema(&mut db);
    // A checkpoint runs first thing in the statement that owes it, so
    // the commits before that statement are the ones it folded in.
    let mut folded = 0;
    for i in 0..n as i64 {
        let prior = db.storage_stats().unwrap_or_default();
        db.execute(&format!("INSERT INTO accounts VALUES ({i}, {i}, 'r')"))
            .expect("insert");
        if db.storage_stats().unwrap_or_default().checkpoints > prior.checkpoints {
            folded = prior.commits;
        }
    }
    let before = db.storage_stats().unwrap_or_default();
    // Crash with a transaction in flight. Under commit-time logging its
    // records never reach the WAL, so the UNDO column stays 0 unless a
    // crash tears the tail of a commit batch — losing in-flight work is
    // free by construction, not by replay effort.
    db.begin().expect("begin");
    db.execute("INSERT INTO accounts VALUES (-1, 0, 'loser')")
        .expect("insert loser");
    db.simulate_crash();
    let t = Instant::now();
    db.reopen().expect("recover");
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let after = db.storage_stats().unwrap_or_default();
    assert_eq!(
        db.execute("SELECT COUNT(*) c FROM accounts")
            .unwrap()
            .rows()
            .unwrap()
            .rows[0][0],
        webfindit_relstore::Datum::Int(n as i64),
        "recovery restores exactly the committed rows"
    );
    RecoveryResult {
        checkpoints: before.checkpoints,
        commits_since_checkpoint: before.commits - folded,
        recover_ms,
        redo: after.recovery_redo - before.recovery_redo,
        undo: after.recovery_undo - before.recovery_undo,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 500 } else { 10_000 };

    header("E11", "durability cost (WAL + fsync) and recovery time");
    println!("transactions per backend: {n}\n");

    // Backends. The disk backend lives under target/ so repeated runs
    // (and the repo) stay clean.
    let disk_root = std::path::Path::new("target/bench_exp11_disk");
    let _ = std::fs::remove_dir_all(disk_root);
    std::fs::create_dir_all(disk_root).expect("mkdir disk root");

    let results = vec![
        run_backend("in-memory", Database::new("exp11", Dialect::Canonical), n),
        run_backend(
            "durable/sim",
            Database::open_vfs(SimVfs::new() as Arc<dyn Vfs>, "exp11", Dialect::Canonical)
                .expect("open sim"),
            n,
        ),
        run_backend(
            "durable/disk",
            Database::open(disk_root.join("db"), "exp11", Dialect::Canonical).expect("open disk"),
            n,
        ),
    ];

    println!(
        "{:<13} | {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9} | {:>11} {:>10}",
        "backend",
        "auto p50",
        "auto p95",
        "total s",
        "batch p50",
        "batch p95",
        "total s",
        "wal appends",
        "log syncs"
    );
    for r in &results {
        println!(
            "{:<13} | {:>9.1}u {:>9.1}u {:>9.2} | {:>9.1}u {:>9.1}u {:>9.2} | {:>11} {:>10}",
            r.name,
            r.auto_p50,
            r.auto_p95,
            r.auto_total,
            r.batch_p50,
            r.batch_p95,
            r.batch_total,
            r.wal_appends,
            r.wal_flushes
        );
    }

    // Recovery at three pinned checkpoint cadences, then at the default
    // rule.
    let rec_n = if quick { 300 } else { 5_000 };
    let cadences: [u32; 3] = [32, 256, 1_000_000];
    println!("\nrecovery after {rec_n} commits (crash with one in-flight transaction):");
    println!(
        "{:<18} | {:>11} | {:>9} {:>6} | {:>11} {:>13}",
        "checkpoint every", "recover ms", "redo", "undo", "checkpoints", "since last"
    );
    let row = |label: &str, r: &RecoveryResult| {
        println!(
            "{:<18} | {:>11.2} | {:>9} {:>6} | {:>11} {:>13}",
            label, r.recover_ms, r.redo, r.undo, r.checkpoints, r.commits_since_checkpoint
        );
    };
    let mut recoveries = Vec::new();
    for every in cadences {
        let r = run_recovery(Some(every), rec_n);
        row(&every.to_string(), &r);
        recoveries.push((every, r));
    }
    let default_rule = run_recovery(None, rec_n);
    row("default rule", &default_rule);

    let _ = std::fs::remove_dir_all(disk_root);

    let backends_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"autocommit_p50_us\": {:.1}, \
                 \"autocommit_p95_us\": {:.1}, \"autocommit_total_s\": {:.3}, \
                 \"batch32_p50_us\": {:.1}, \"batch32_p95_us\": {:.1}, \
                 \"batch32_total_s\": {:.3}, \"wal_appends\": {}, \"wal_flushes\": {}}}",
                r.name,
                r.auto_p50,
                r.auto_p95,
                r.auto_total,
                r.batch_p50,
                r.batch_p95,
                r.batch_total,
                r.wal_appends,
                r.wal_flushes
            )
        })
        .collect();
    let recovery_json = |r: &RecoveryResult| {
        format!(
            "\"commits_since_checkpoint\": {}, \"recover_ms\": {:.2}, \
             \"redo_records\": {}, \"undo_records\": {}",
            r.commits_since_checkpoint, r.recover_ms, r.redo, r.undo
        )
    };
    let recoveries_json: Vec<String> = recoveries
        .iter()
        .map(|(every, r)| {
            format!(
                "    {{\"checkpoint_every\": {every}, {}}}",
                recovery_json(r)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"E11\",\n  \"transactions\": {n},\n  \"quick\": {quick},\n  \
         \"backends\": [\n{}\n  ],\n  \"recovery_commits\": {rec_n},\n  \"recoveries\": [\n{}\n  ],\n  \
         \"default_rule\": {{\"checkpoints\": {}, {}}}\n}}\n",
        backends_json.join(",\n"),
        recoveries_json.join(",\n"),
        default_rule.checkpoints,
        recovery_json(&default_rule)
    );
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("\nwrote BENCH_durability.json");
}
