//! The database engine: catalog, statement execution, transactions.
//!
//! A [`Database`] is one simulated vendor instance (the paper's "Oracle
//! database at RBH", "mSQL database at CentreLink", …). It owns its
//! tables, enforces its [`Dialect`]'s feature set, and executes parsed
//! statements with:
//!
//! * **statement atomicity** — a multi-row `INSERT` that fails half-way
//!   undoes the rows it already wrote;
//! * **explicit transactions** — `BEGIN`/`COMMIT`/`ROLLBACK` over one
//!   list of [`Change`]s: ROLLBACK undoes it newest first, COMMIT writes
//!   it to the WAL (durable databases).
//!
//! A database is either purely in-memory ([`Database::new`], the fast
//! path — byte-identical behavior to before the durable tier existed)
//! or durable ([`Database::open`]/[`Database::open_vfs`]/
//! [`Database::make_durable`]): every statement's changes then also
//! reach the WAL as ARIES-style records (redo + undo images) before the
//! statement is acknowledged, the log is forced at commit, checkpoints write
//! double-buffered page snapshots, and open-time recovery replays the
//! log to the last committed state. A crash —
//! real or injected via [`Database::arm_crash_point`] — leaves the
//! instance dead ([`RelError::Unavailable`]) until
//! [`Database::reopen`] recovers it.

use crate::dialect::Dialect;
use crate::exec::{execute_plan_into, execute_select_into, ExecMetrics, ResultSet, RowSink};
use crate::expr::{eval, eval_true, EvalContext, Expr};
use crate::file_mgr::{DiskVfs, PageFileMgr, Vfs};
use crate::plan::plan_pk_point;
use crate::recovery::{self, Meta};
use crate::sql::ast::Statement;
use crate::sql::parse_statement;
use crate::storage::Table;
use crate::types::{Datum, Row};
use crate::wal::{Change, CrashInjector, CrashPoint, LogMgr, WalRecord};
use crate::{RelError, RelResult};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A query produced rows.
    Rows(ResultSet),
    /// DML affected this many rows.
    Count(usize),
    /// DDL or transaction control completed.
    Done,
}

impl ExecOutcome {
    /// The result set, if this outcome carries one.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            ExecOutcome::Rows(rs) => Some(rs),
            _ => None,
        }
    }

    /// The affected-row count, if this outcome carries one.
    pub fn count(&self) -> Option<usize> {
        match self {
            ExecOutcome::Count(n) => Some(*n),
            _ => None,
        }
    }
}

/// A transaction id, handed out in order from 1 and stored in the WAL
/// and the meta slots.
type TxId = u64;

/// The open transaction.
#[derive(Debug)]
struct Txn {
    /// Its changes in order: what ROLLBACK undoes newest first and
    /// COMMIT writes to the WAL.
    changes: Vec<Change>,
    /// The id its WAL records carry (`None` in memory).
    wal_tx: Option<TxId>,
}

/// Cumulative durable-tier counters (zeroed for in-memory databases).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// WAL records appended.
    pub wal_appends: u64,
    /// Bytes appended to the WAL (frame headers included).
    pub wal_bytes: u64,
    /// Log forces (fsync at commit / checkpoint barriers).
    pub wal_flushes: u64,
    /// Snapshot pages written by checkpoints.
    pub pages_flushed: u64,
    /// Checkpoints taken (snapshot + meta flip + WAL compaction).
    pub checkpoints: u64,
    /// Transactions committed durably.
    pub commits: u64,
    /// Transactions rolled back (live `ROLLBACK`, not recovery).
    pub rollbacks: u64,
    /// Op records re-applied by recovery REDO passes.
    pub recovery_redo: u64,
    /// Op records reversed by recovery UNDO passes.
    pub recovery_undo: u64,
    /// Torn WAL tails truncated during recovery.
    pub torn_tail_truncations: u64,
    /// Recoveries that fell back past an unreadable snapshot.
    pub snapshot_fallbacks: u64,
}

/// The fewest commits between two automatic checkpoints.
const CHECKPOINT_MIN_COMMITS: u32 = 32;

/// The durable tier attached to a [`Database`] opened with
/// [`Database::open`]/[`Database::open_vfs`]/[`Database::make_durable`].
#[derive(Debug)]
struct Storage {
    vfs: Arc<dyn Vfs>,
    log: LogMgr,
    /// The id the next transaction gets.
    next_tx: TxId,
    injector: CrashInjector,
    /// Set when a crash (injected or simulated) killed this instance;
    /// every call fails with [`RelError::Unavailable`] until reopen.
    dead: bool,
    epoch: u64,
    active_gen: u8,
    commits_since_ckpt: u32,
    /// `Some(n)`: a checkpoint every `n` commits, as pinned by
    /// [`Database::set_checkpoint_every`]. `None`: the default rule of
    /// [`Storage::owes_checkpoint`].
    checkpoint_every: Option<u32>,
    /// Bytes of the last snapshot this instance wrote.
    snapshot_len: u64,
    stats: StorageStats,
}

impl Storage {
    fn new(vfs: Arc<dyn Vfs>, wal_tail: u64, next_tx: u64, epoch: u64, active_gen: u8) -> Storage {
        let log = LogMgr::new(Arc::clone(&vfs), recovery::WAL_FILE, wal_tail);
        Storage {
            vfs,
            log,
            next_tx,
            injector: CrashInjector::default(),
            dead: false,
            epoch,
            active_gen,
            commits_since_ckpt: 0,
            checkpoint_every: None,
            snapshot_len: 0,
            stats: StorageStats::default(),
        }
    }

    /// [`Database::owes_checkpoint`], outside a transaction. The size
    /// term keeps a large database from rewriting its whole snapshot
    /// every 32 commits: checkpoints write at most about as many bytes
    /// as the log does, and replay stays bounded by one snapshot's
    /// worth of WAL.
    fn owes_checkpoint(&self) -> bool {
        !self.dead
            && match self.checkpoint_every {
                Some(every) => self.commits_since_ckpt >= every,
                None => {
                    self.commits_since_ckpt >= CHECKPOINT_MIN_COMMITS
                        && self.log.tail() >= self.snapshot_len
                }
            }
    }

    fn crash(&mut self, point: CrashPoint) -> RelError {
        self.dead = true;
        RelError::Unavailable(format!("crash injected at {point}"))
    }

    fn append(&mut self, rec: &WalRecord<'_>) -> RelResult<()> {
        let before = self.log.tail();
        self.log.append(rec)?;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += self.log.tail() - before;
        Ok(())
    }

    /// Append a non-commit record, honoring the after-WAL-append
    /// crash point.
    fn append_op(&mut self, rec: &WalRecord<'_>) -> RelResult<()> {
        self.append(rec)?;
        if self.injector.hit(CrashPoint::AfterWalAppend) {
            return Err(self.crash(CrashPoint::AfterWalAppend));
        }
        Ok(())
    }

    fn force_log(&mut self) -> RelResult<()> {
        self.log.flush()?;
        self.stats.wal_flushes += 1;
        Ok(())
    }

    fn begin(&mut self) -> TxId {
        let tx = self.next_tx;
        self.next_tx += 1;
        tx
    }

    /// Write transaction `tx`'s changes — `Begin`, the ops, then
    /// `Commit` — and force the log. The engine is strictly no-steal
    /// (uncommitted data never reaches a page), so nothing before the
    /// commit point needs to be on disk, and a rolled-back transaction
    /// never touches the log at all. This is what makes recovery's
    /// physical slot-level UNDO sound: the only loser records that can
    /// exist are a torn tail batch, which no committed record ever
    /// follows. The ack invariant the crash harness relies on: the
    /// commit record only becomes durable on paths that go on to
    /// acknowledge the COMMIT, so "caller saw Ok" ⟺ "recovery replays
    /// the transaction". `AfterWalAppend` can fire on the Begin/op
    /// appends (leaving a loser tail batch for recovery's UNDO pass),
    /// `PreCommitRecord` fires after the ops but *before* the commit
    /// append, and no crash point sits between the commit append and
    /// the fsync. A failed append or fsync kills the instance as a crash
    /// does: the log may end in a partial batch, or in a commit record
    /// that could still reach the disk, so nothing may be appended behind
    /// it and memory may neither keep nor undo the transaction.
    fn commit(&mut self, tx: TxId, changes: &[Change]) -> RelResult<()> {
        let res = self.write_commit(tx, changes);
        if res.is_err() {
            self.dead = true;
        }
        res
    }

    fn write_commit(&mut self, tx: TxId, changes: &[Change]) -> RelResult<()> {
        self.append_op(&WalRecord::Begin { tx })?;
        for change in changes {
            let change = Cow::Borrowed(change);
            self.append_op(&WalRecord::Op { tx, change })?;
        }
        if self.injector.hit(CrashPoint::PreCommitRecord) {
            return Err(self.crash(CrashPoint::PreCommitRecord));
        }
        self.append(&WalRecord::Commit { tx })?;
        self.force_log()?;
        self.stats.commits += 1;
        self.commits_since_ckpt += 1;
        Ok(())
    }

    /// Write a checkpoint: snapshot every table into the inactive
    /// generation (the mid-page-flush crash point sits between page
    /// writes), flip the meta slot, then compact the WAL. A crash
    /// anywhere in between recovers from the previous snapshot + log —
    /// the active generation is never written in place.
    fn checkpoint(&mut self, tables: &HashMap<String, Table>) -> RelResult<()> {
        let target = 1 - (self.active_gen & 1);
        // The last snapshot's length, with room for the tables to have
        // grown by an eighth without the buffer reallocating.
        let reserve = self.snapshot_len + self.snapshot_len / 8;
        let stream = recovery::encode_snapshot(tables, reserve as usize);
        let mgr = PageFileMgr::new(Arc::clone(&self.vfs), recovery::snap_file(target));
        let (injector, stats) = (&mut self.injector, &mut self.stats);
        let mut crashed = false;
        let res = recovery::write_snapshot(&mgr, &stream, || {
            stats.pages_flushed += 1;
            if injector.hit(CrashPoint::MidPageFlush) {
                crashed = true;
                return Err(RelError::Unavailable(
                    "crash injected at mid-page-flush".into(),
                ));
            }
            Ok(())
        });
        if crashed {
            return Err(self.crash(CrashPoint::MidPageFlush));
        }
        res?;
        self.epoch += 1;
        recovery::write_meta(
            &self.vfs,
            &Meta {
                epoch: self.epoch,
                active_gen: target,
                watermark: self.log.tail(),
                next_tx: self.next_tx,
            },
        )?;
        self.active_gen = target;
        // Compact: the snapshot now reflects the whole log. A crash
        // between the reset and the second meta write is safe — the
        // stale watermark merely points past an empty log.
        self.log.reset()?;
        self.epoch += 1;
        recovery::write_meta(
            &self.vfs,
            &Meta {
                epoch: self.epoch,
                active_gen: target,
                watermark: 0,
                next_tx: self.next_tx,
            },
        )?;
        self.stats.checkpoints += 1;
        self.commits_since_ckpt = 0;
        self.snapshot_len = stream.len() as u64;
        Ok(())
    }
}

/// Cumulative write-side statistics. A query's own counts are its
/// [`ExecMetrics`]; a shared [`Database::select`] bumps nothing here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Statements successfully executed through
    /// [`Database::execute_stmt`].
    pub statements: u64,
    /// Rows written (inserted + updated + deleted).
    pub rows_written: u64,
}

/// One simulated relational database instance.
#[derive(Debug)]
pub struct Database {
    name: String,
    dialect: Dialect,
    tables: HashMap<String, Table>,
    txn: Option<Txn>,
    stats: DbStats,
    last_exec: Option<ExecMetrics>,
    /// `None` for the in-memory fast path; `Some` once the durable
    /// tier is attached.
    storage: Option<Storage>,
}

/// Evaluation context rejecting all column references (INSERT values).
struct ConstOnly;

impl EvalContext<'_> for ConstOnly {
    fn column(&self, _t: Option<&str>, name: &str) -> RelResult<&'static Datum> {
        Err(RelError::Unsupported(format!(
            "column reference {name} in a constant context"
        )))
    }
}

impl Database {
    /// Create an empty in-memory database named `name` speaking
    /// `dialect` (the fast path — no durability).
    pub fn new(name: impl Into<String>, dialect: Dialect) -> Database {
        Database {
            name: name.into(),
            dialect,
            tables: HashMap::new(),
            txn: None,
            stats: DbStats::default(),
            last_exec: None,
            storage: None,
        }
    }

    /// Open (or create) a durable database rooted at directory `path`,
    /// recovering to the last committed state.
    pub fn open(
        path: impl Into<std::path::PathBuf>,
        name: impl Into<String>,
        dialect: Dialect,
    ) -> RelResult<Database> {
        let vfs = Arc::new(DiskVfs::new(path)?) as Arc<dyn Vfs>;
        Database::open_vfs(vfs, name, dialect)
    }

    /// Open (or create) a durable database on an arbitrary [`Vfs`]
    /// (the crash harness uses [`crate::file_mgr::SimVfs`] here),
    /// recovering to the last committed state.
    pub fn open_vfs(
        vfs: Arc<dyn Vfs>,
        name: impl Into<String>,
        dialect: Dialect,
    ) -> RelResult<Database> {
        let r = recovery::recover(&vfs)?;
        let mut st = Storage::new(vfs, r.wal_tail, r.next_tx, r.epoch, r.active_gen);
        st.stats.recovery_redo = r.stats.redo;
        st.stats.recovery_undo = r.stats.undo;
        st.stats.torn_tail_truncations = r.stats.torn_tail_truncations;
        st.stats.snapshot_fallbacks = r.stats.snapshot_fallbacks;
        let mut db = Database {
            name: name.into(),
            dialect,
            tables: r.tables,
            txn: None,
            stats: DbStats::default(),
            last_exec: None,
            storage: Some(st),
        };
        // Compact on open so recovery replays at most what was logged
        // since one checkpoint, not the database's whole history.
        db.checkpoint()?;
        Ok(db)
    }

    /// Attach the durable tier to a database built in memory (e.g. by
    /// the healthcare data generators), writing its current state as
    /// the initial checkpoint. The target `vfs` must be fresh.
    pub fn make_durable(&mut self, vfs: Arc<dyn Vfs>) -> RelResult<()> {
        if self.txn.is_some() {
            return Err(RelError::TransactionState(
                "cannot attach durable storage inside a transaction".into(),
            ));
        }
        if self.storage.is_some() {
            return Err(RelError::Storage("database is already durable".into()));
        }
        self.storage = Some(Storage::new(vfs, 0, 1, 0, 1));
        self.checkpoint()
    }

    /// True once the durable tier is attached.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// True when a crash (injected or simulated) killed this instance;
    /// every operation fails until [`Database::reopen`].
    pub fn is_crashed(&self) -> bool {
        self.storage.as_ref().is_some_and(|st| st.dead)
    }

    /// The durable tier's Vfs, if attached.
    pub fn vfs(&self) -> Option<Arc<dyn Vfs>> {
        self.storage.as_ref().map(|st| Arc::clone(&st.vfs))
    }

    /// Durable-tier counters (`None` for in-memory databases).
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|st| st.stats)
    }

    /// Arm a one-shot crash: the `n`-th future occurrence (1-based) of
    /// `point` kills the storage stack mid-operation.
    pub fn arm_crash_point(&mut self, point: CrashPoint, n: u64) {
        if let Some(st) = &mut self.storage {
            st.injector.arm(point, n);
        }
    }

    /// Pin the checkpoint cadence to exactly one checkpoint every
    /// `every` commits, whatever the WAL's or the snapshot's size, in
    /// place of the default rule (see [`Database::owes_checkpoint`]).
    /// Tests use small values to exercise the snapshot path and to place
    /// checkpoints at known commits; experiments use large ones to
    /// isolate WAL cost.
    pub fn set_checkpoint_every(&mut self, every: u32) {
        if let Some(st) = &mut self.storage {
            st.checkpoint_every = Some(every.max(1));
        }
    }

    /// Kill a durable instance as a crash would: volatile state is
    /// gone, every call errs until [`Database::reopen`]. Returns false
    /// (and does nothing) for in-memory databases — they have no disk
    /// image to come back from.
    pub fn simulate_crash(&mut self) -> bool {
        let Some(st) = &mut self.storage else {
            return false;
        };
        st.dead = true;
        self.tables = HashMap::new();
        self.txn = None;
        true
    }

    /// Recover a durable instance from its Vfs (after a crash, or to
    /// prove recovery idempotent on a healthy instance). Cumulative
    /// storage counters carry over; recovery counters accumulate.
    pub fn reopen(&mut self) -> RelResult<()> {
        let old = self
            .storage
            .take()
            .ok_or_else(|| RelError::Storage("reopen on an in-memory database".into()))?;
        let r = recovery::recover(&old.vfs)?;
        let mut st = Storage::new(
            Arc::clone(&old.vfs),
            r.wal_tail,
            r.next_tx,
            r.epoch,
            r.active_gen,
        );
        st.checkpoint_every = old.checkpoint_every;
        st.stats = old.stats;
        st.stats.recovery_redo += r.stats.redo;
        st.stats.recovery_undo += r.stats.undo;
        st.stats.torn_tail_truncations += r.stats.torn_tail_truncations;
        st.stats.snapshot_fallbacks += r.stats.snapshot_fallbacks;
        self.tables = r.tables;
        self.txn = None;
        self.storage = Some(st);
        self.checkpoint()
    }

    /// Write a checkpoint now (snapshot + meta flip + WAL compaction).
    /// No-op for in-memory databases; an error inside a transaction.
    pub fn checkpoint(&mut self) -> RelResult<()> {
        if self.txn.is_some() {
            return Err(RelError::TransactionState(
                "cannot checkpoint inside a transaction".into(),
            ));
        }
        let Some(st) = self.storage.as_mut() else {
            return Ok(());
        };
        if st.dead {
            return Err(RelError::Unavailable("database crashed; reopen it".into()));
        }
        let res = st.checkpoint(&self.tables);
        self.forget_if_crashed();
        res
    }

    /// The instance name (e.g. `"Royal Brisbane Hospital"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The vendor dialect this instance enforces.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Execution metrics from the most recent SELECT, if any.
    pub fn last_exec_metrics(&self) -> Option<&ExecMetrics> {
        self.last_exec.as_ref()
    }

    /// Borrow the whole catalog (read-only), e.g. for planning a
    /// statement against the live tables.
    pub fn tables(&self) -> &HashMap<String, Table> {
        &self.tables
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Borrow a table's metadata.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// True while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Bulk-create a table and load rows into it, bypassing SQL parsing.
    ///
    /// Used by gateway compensation (staging remote tables locally) and
    /// by the healthcare data generators. Rows are validated against the
    /// schema exactly as `INSERT` would.
    pub fn import_table(
        &mut self,
        schema: crate::schema::TableSchema,
        rows: Vec<Row>,
    ) -> RelResult<usize> {
        if self.tables.contains_key(&schema.name) {
            return Err(RelError::TableExists(schema.name));
        }
        let mut table = Table::new(schema);
        let n = table.insert_all(rows)?;
        let mut log = self.recording().then(Vec::new);
        if let Some(log) = &mut log {
            log.push(Change::CreateTable {
                schema: table.schema.clone(),
            });
            log.extend(table.scan().map(|(slot, row)| Change::Insert {
                table: table.schema.name.clone(),
                slot,
                row: row.clone(),
            }));
        }
        self.tables.insert(table.schema.name.clone(), table);
        self.stats.rows_written += n as u64;
        self.record(log)?;
        Ok(n)
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> RelResult<ExecOutcome> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(&stmt)
    }

    /// `BEGIN` (convenience wrapper for the connect layer).
    pub fn begin(&mut self) -> RelResult<()> {
        self.execute_stmt(&Statement::Begin).map(|_| ())
    }

    /// `COMMIT` (convenience wrapper for the connect layer).
    pub fn commit(&mut self) -> RelResult<()> {
        self.execute_stmt(&Statement::Commit).map(|_| ())
    }

    /// `ROLLBACK` (convenience wrapper for the connect layer).
    pub fn rollback(&mut self) -> RelResult<()> {
        self.execute_stmt(&Statement::Rollback).map(|_| ())
    }

    /// Checkpoint (outside any transaction) once enough commits have
    /// accumulated. Runs as a statement *prefix* — never inside the
    /// COMMIT path — so a mid-page-flush crash can only fail a
    /// statement that has not yet touched memory or the log, keeping
    /// "COMMIT acknowledged ⟺ transaction durable" exact.
    fn maybe_checkpoint(&mut self) -> RelResult<()> {
        if self.owes_checkpoint() {
            self.checkpoint()
        } else {
            Ok(())
        }
    }

    /// True when the next statement through [`Database::execute_stmt`]
    /// takes a checkpoint first: outside a transaction, once at least 32
    /// commits have passed since the last checkpoint and the WAL written
    /// since then is as long as that checkpoint's snapshot, or every `n`
    /// commits after [`Database::set_checkpoint_every`]. A caller
    /// choosing between that and the shared [`Database::select`] sends a
    /// SELECT that owes one through `execute_stmt`, so checkpoints (and
    /// the crash points inside them) fall on the same statement either
    /// way.
    pub fn owes_checkpoint(&self) -> bool {
        self.txn.is_none() && self.storage.as_ref().is_some_and(Storage::owes_checkpoint)
    }

    /// Run a SELECT without changing anything, so readers can share the
    /// database: a crashed instance is `Unavailable`, then the dialect
    /// gates what the query may use. [`Database::execute_stmt`] runs its
    /// SELECTs through here; unlike it, `select` takes no owed
    /// checkpoint and leaves [`Database::last_exec_metrics`] alone, and
    /// returns the metrics instead. It collects what
    /// [`Database::select_into`] hands its sink.
    pub fn select(&self, stmt: &Statement) -> RelResult<(ResultSet, ExecMetrics)> {
        ResultSet::collect(|rs| self.select_into(stmt, rs))
    }

    /// [`Database::select`] with its rows handed to `sink` as the
    /// executor produces them (column names first) instead of
    /// collected. The same checks run first, so a crashed database or a
    /// construct the dialect lacks fails before the sink sees anything.
    pub fn select_into<E, S>(&self, stmt: &Statement, sink: &mut S) -> Result<ExecMetrics, E>
    where
        E: From<RelError>,
        S: RowSink<E> + ?Sized,
    {
        self.check_available()?;
        self.dialect.check(stmt)?;
        match stmt {
            Statement::Select(s) => execute_select_into(s, &self.tables, sink),
            _ => {
                Err(RelError::Unsupported("only a SELECT runs on a shared database".into()).into())
            }
        }
    }

    /// [`Database::select_into`] for a primary-key point probe, the one
    /// SELECT whose cost is bounded by one index lookup. Any other
    /// statement is `None`, and its sink has seen nothing; what a probe
    /// answers, an error included, is what `select_into` answers.
    pub fn select_point_into<E, S>(
        &self,
        stmt: &Statement,
        sink: &mut S,
    ) -> Option<Result<ExecMetrics, E>>
    where
        E: From<RelError>,
        S: RowSink<E> + ?Sized,
    {
        let Statement::Select(select) = stmt else {
            return None;
        };
        if let Err(e) = self.check_available() {
            return Some(Err(e.into()));
        }
        // The point plan raises nothing, so checking the dialect after it
        // keeps `select_into`'s order of errors.
        let plan = plan_pk_point(select, &self.tables)?;
        if let Err(e) = self.dialect.check(stmt) {
            return Some(Err(e.into()));
        }
        Some(execute_plan_into(&plan, &self.tables, sink))
    }

    /// A crashed database answers nothing until it is reopened.
    fn check_available(&self) -> RelResult<()> {
        if self.is_crashed() {
            return Err(RelError::Unavailable("database crashed; reopen it".into()));
        }
        Ok(())
    }

    /// Drop the volatile state once a storage call has crashed.
    fn forget_if_crashed(&mut self) {
        if self.is_crashed() {
            self.tables = HashMap::new();
            self.txn = None;
        }
    }

    /// Run `f` on the durable tier (a no-op in memory).
    fn on_storage(&mut self, f: impl FnOnce(&mut Storage) -> RelResult<()>) -> RelResult<()> {
        let res = self.storage.as_mut().map_or(Ok(()), f);
        self.forget_if_crashed();
        res
    }

    /// True when a statement's changes are kept: inside a transaction,
    /// for ROLLBACK and COMMIT, and on a durable database, for the WAL.
    fn recording(&self) -> bool {
        self.txn.is_some() || self.storage.is_some()
    }

    /// Keep one successful statement's changes (`None` when not
    /// [`Database::recording`]): in the open transaction, or committed
    /// as a transaction of their own on a durable database.
    fn record(&mut self, log: Option<Vec<Change>>) -> RelResult<()> {
        let Some(changes) = log.filter(|c| !c.is_empty()) else {
            return Ok(());
        };
        match &mut self.txn {
            Some(txn) => {
                txn.changes.extend(changes);
                Ok(())
            }
            None => self.on_storage(|st| {
                let tx = st.begin();
                st.commit(tx, &changes)
            }),
        }
    }

    /// Execute an already-parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Statement) -> RelResult<ExecOutcome> {
        if self.is_crashed() {
            return Err(RelError::Unavailable("database crashed; reopen it".into()));
        }
        self.maybe_checkpoint()?;
        let mut log = self.recording().then(Vec::new);
        let outcome = match stmt {
            Statement::Select(_) => {
                let (rs, m) = self.select(stmt)?;
                self.last_exec = Some(m);
                ExecOutcome::Rows(rs)
            }
            Statement::Explain(s) => {
                let plan = crate::exec::explain_select(s, &self.tables)?;
                ExecOutcome::Rows(crate::exec::ResultSet {
                    columns: vec!["plan".to_string()],
                    rows: plan
                        .into_iter()
                        .map(|line| vec![Datum::Text(line)])
                        .collect(),
                })
            }
            Statement::CreateTable(schema) => {
                if self.tables.contains_key(&schema.name) {
                    return Err(RelError::TableExists(schema.name.clone()));
                }
                self.tables
                    .insert(schema.name.clone(), Table::new(schema.clone()));
                if let Some(log) = &mut log {
                    log.push(Change::CreateTable {
                        schema: schema.clone(),
                    });
                }
                ExecOutcome::Done
            }
            Statement::DropTable { name, if_exists } => {
                let lower = name.to_ascii_lowercase();
                match self.tables.remove(&lower) {
                    Some(t) => {
                        if let Some(log) = &mut log {
                            log.push(Change::DropTable { table: Box::new(t) });
                        }
                        ExecOutcome::Done
                    }
                    None if *if_exists => ExecOutcome::Done,
                    None => return Err(RelError::NoSuchTable(lower)),
                }
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                let lower = table.to_ascii_lowercase();
                let t = self
                    .tables
                    .get_mut(&lower)
                    .ok_or_else(|| RelError::NoSuchTable(lower.clone()))?;
                let (ci, _) = t.schema.column(column)?;
                t.create_index(name, ci)?;
                if let Some(log) = &mut log {
                    log.push(Change::CreateIndex {
                        table: lower,
                        name: name.to_ascii_lowercase(),
                        column: ci,
                    });
                }
                ExecOutcome::Done
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.run_insert(table, columns.as_deref(), rows, &mut log)?,
            Statement::Update {
                table,
                assignments,
                filter,
            } => self.run_update(table, assignments, filter.as_ref(), &mut log)?,
            Statement::Delete { table, filter } => {
                self.run_delete(table, filter.as_ref(), &mut log)?
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(RelError::TransactionState(
                        "transaction already open".into(),
                    ));
                }
                self.txn = Some(Txn {
                    changes: Vec::new(),
                    wal_tx: self.storage.as_mut().map(Storage::begin),
                });
                ExecOutcome::Done
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .as_ref()
                    .ok_or(RelError::TransactionState("no open transaction".into()))?;
                if let (Some(tx), Some(st)) = (txn.wal_tx, self.storage.as_mut()) {
                    let res = st.commit(tx, &txn.changes);
                    self.forget_if_crashed();
                    res?;
                }
                self.txn = None;
                ExecOutcome::Done
            }
            Statement::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or(RelError::TransactionState("no open transaction".into()))?;
                for change in txn.changes.into_iter().rev() {
                    recovery::undo(&mut self.tables, change);
                }
                if let Some(st) = &mut self.storage {
                    st.stats.rollbacks += 1;
                }
                ExecOutcome::Done
            }
        };
        self.record(log)?;
        self.stats.statements += 1;
        Ok(outcome)
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        value_rows: &[Vec<Expr>],
        log: &mut Option<Vec<Change>>,
    ) -> RelResult<ExecOutcome> {
        let lower = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&lower)
            .ok_or(RelError::NoSuchTable(lower.clone()))?;

        // Map written columns to schema positions.
        let positions: Vec<usize> = match columns {
            Some(cols) => {
                let mut ps = Vec::with_capacity(cols.len());
                for c in cols {
                    ps.push(t.schema.column(c)?.0);
                }
                ps
            }
            None => (0..t.schema.arity()).collect(),
        };

        let mut inserted: Vec<usize> = Vec::new();
        let mut insert_all = || -> RelResult<()> {
            for exprs in value_rows {
                if exprs.len() != positions.len() {
                    return Err(RelError::ArityMismatch {
                        expected: positions.len(),
                        found: exprs.len(),
                    });
                }
                let mut row = vec![Datum::Null; t.schema.arity()];
                for (i, e) in exprs.iter().enumerate() {
                    row[positions[i]] = eval(e, &ConstOnly)?.into_owned();
                }
                inserted.push(t.insert(row)?);
            }
            Ok(())
        };
        if let Err(e) = insert_all() {
            // Statement atomicity: roll back this statement's rows.
            for slot in inserted {
                t.delete_slot(slot);
            }
            return Err(e);
        }
        let n = inserted.len();
        if let Some(log) = log {
            // The redo image is read back after insertion so it holds
            // the coerced row exactly as stored.
            log.extend(inserted.into_iter().filter_map(|slot| {
                Some(Change::Insert {
                    table: lower.clone(),
                    slot,
                    row: t.row(slot)?.clone(),
                })
            }));
        }
        self.stats.rows_written += n as u64;
        Ok(ExecOutcome::Count(n))
    }

    fn run_update(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
        log: &mut Option<Vec<Change>>,
    ) -> RelResult<ExecOutcome> {
        let lower = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&lower)
            .ok_or(RelError::NoSuchTable(lower.clone()))?;
        let columns = t.schema.column_names();

        // Resolve assignment targets first.
        let mut targets = Vec::with_capacity(assignments.len());
        for (col, e) in assignments {
            targets.push((t.schema.column(col)?.0, e));
        }

        // Phase 1: decide which slots match and compute the new rows.
        let mut changes: Vec<(usize, Row)> = Vec::new();
        for (slot, row) in t.scan() {
            let ctx = crate::expr::SingleRow {
                columns: &columns,
                row,
            };
            let keep = match filter {
                None => true,
                Some(f) => eval_true(f, &ctx)?,
            };
            if !keep {
                continue;
            }
            let mut new_row = row.clone();
            for (pos, e) in &targets {
                new_row[*pos] = eval(e, &ctx)?.into_owned();
            }
            changes.push((slot, new_row));
        }

        // Phase 2: apply, undoing on mid-statement failure.
        let mut applied: Vec<(usize, Row)> = Vec::new();
        for (slot, new_row) in changes {
            match t.update_slot(slot, new_row) {
                Ok(old) => applied.push((slot, old)),
                Err(e) => {
                    for (s, old) in applied.into_iter().rev() {
                        let _ = t.update_slot(s, old);
                    }
                    return Err(e);
                }
            }
        }
        let n = applied.len();
        if let Some(log) = log {
            // The after-image is read back post-update so it is the
            // coerced row exactly as stored.
            log.extend(applied.into_iter().filter_map(|(slot, old)| {
                Some(Change::Update {
                    table: lower.clone(),
                    slot,
                    old,
                    new: t.row(slot)?.clone(),
                })
            }));
        }
        self.stats.rows_written += n as u64;
        Ok(ExecOutcome::Count(n))
    }

    fn run_delete(
        &mut self,
        table: &str,
        filter: Option<&Expr>,
        log: &mut Option<Vec<Change>>,
    ) -> RelResult<ExecOutcome> {
        let lower = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&lower)
            .ok_or(RelError::NoSuchTable(lower.clone()))?;
        let columns = t.schema.column_names();

        let mut victims: Vec<usize> = Vec::new();
        for (slot, row) in t.scan() {
            let ctx = crate::expr::SingleRow {
                columns: &columns,
                row,
            };
            let doomed = match filter {
                None => true,
                Some(f) => eval_true(f, &ctx)?,
            };
            if doomed {
                victims.push(slot);
            }
        }
        let mut n = 0;
        for slot in victims {
            if let Some(row) = t.delete_slot(slot) {
                n += 1;
                if let Some(log) = log {
                    log.push(Change::Delete {
                        table: lower.clone(),
                        slot,
                        row,
                    });
                }
            }
        }
        self.stats.rows_written += n as u64;
        Ok(ExecOutcome::Count(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital_db() -> Database {
        let mut db = Database::new("RBH", Dialect::Oracle);
        db.execute(
            "CREATE TABLE medical_students (student_id INT PRIMARY KEY, \
             name TEXT NOT NULL, course TEXT, year INT)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO medical_students VALUES \
             (1, 'J. Chen', 'MBBS', 3), (2, 'A. Patel', 'MBBS', 5), (3, 'T. Nguyen', 'Nursing', 2)",
        )
        .unwrap();
        db
    }

    #[test]
    fn the_papers_section5_query() {
        let mut db = hospital_db();
        let out = db.execute("select * from medical_students").unwrap();
        let rs = out.rows().unwrap();
        assert_eq!(rs.columns, vec!["student_id", "name", "course", "year"]);
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn insert_returns_count_and_updates_stats() {
        let mut db = hospital_db();
        let out = db
            .execute("INSERT INTO medical_students VALUES (4, 'New', 'MBBS', 1)")
            .unwrap();
        assert_eq!(out.count(), Some(1));
        assert_eq!(db.stats().rows_written, 4); // 3 seed + 1
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let mut db = hospital_db();
        // Second row collides with pk 1 → whole statement rolls back.
        let err = db
            .execute("INSERT INTO medical_students VALUES (9, 'X', 'c', 1), (1, 'Dup', 'c', 1)")
            .unwrap_err();
        assert!(matches!(err, RelError::DuplicateKey(_)));
        let rs = db.execute("SELECT COUNT(*) FROM medical_students").unwrap();
        assert_eq!(rs.rows().unwrap().rows[0][0], Datum::Int(3));
    }

    #[test]
    fn update_with_self_reference() {
        let mut db = hospital_db();
        let out = db
            .execute("UPDATE medical_students SET year = year + 1 WHERE course = 'MBBS'")
            .unwrap();
        assert_eq!(out.count(), Some(2));
        let rs = db
            .execute("SELECT year FROM medical_students WHERE student_id = 1")
            .unwrap();
        assert_eq!(rs.rows().unwrap().rows[0][0], Datum::Int(4));
    }

    #[test]
    fn delete_with_filter() {
        let mut db = hospital_db();
        let out = db
            .execute("DELETE FROM medical_students WHERE year < 3")
            .unwrap();
        assert_eq!(out.count(), Some(1));
        assert_eq!(db.table("medical_students").unwrap().len(), 2);
    }

    #[test]
    fn transaction_rollback_restores_everything() {
        let mut db = hospital_db();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO medical_students VALUES (10, 'Tmp', 'c', 1)")
            .unwrap();
        db.execute("UPDATE medical_students SET year = 99").unwrap();
        db.execute("DELETE FROM medical_students WHERE student_id = 2")
            .unwrap();
        db.execute("CREATE TABLE scratch (x INT)").unwrap();
        db.execute("ROLLBACK").unwrap();

        assert!(db.table("scratch").is_none());
        let rs = db
            .execute("SELECT student_id, year FROM medical_students ORDER BY student_id")
            .unwrap();
        let rows = &rs.rows().unwrap().rows;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Datum::Int(1), Datum::Int(3)]);
        assert_eq!(rows[1], vec![Datum::Int(2), Datum::Int(5)]);
    }

    #[test]
    fn transaction_commit_keeps_changes() {
        let mut db = hospital_db();
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM medical_students").unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(db.table("medical_students").unwrap().len(), 0);
        assert!(!db.in_transaction());
    }

    #[test]
    fn rollback_of_drop_table_restores_data() {
        let mut db = hospital_db();
        db.execute("BEGIN").unwrap();
        db.execute("DROP TABLE medical_students").unwrap();
        assert!(db.table("medical_students").is_none());
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.table("medical_students").unwrap().len(), 3);
    }

    #[test]
    fn transaction_state_errors() {
        let mut db = hospital_db();
        assert!(matches!(
            db.execute("COMMIT"),
            Err(RelError::TransactionState(_))
        ));
        db.execute("BEGIN").unwrap();
        assert!(matches!(
            db.execute("BEGIN"),
            Err(RelError::TransactionState(_))
        ));
    }

    #[test]
    fn dialect_gating_applies() {
        let mut db = Database::new("CentreLink", Dialect::MSql);
        db.execute("CREATE TABLE t (x INT)").unwrap();
        assert!(matches!(
            db.execute("SELECT COUNT(*) FROM t"),
            Err(RelError::Unsupported(_))
        ));
        // Canonical engine runs it fine.
        let mut db2 = Database::new("x", Dialect::Canonical);
        db2.execute("CREATE TABLE t (x INT)").unwrap();
        db2.execute("SELECT COUNT(*) FROM t").unwrap();
    }

    #[test]
    fn create_index_and_use() {
        let mut db = hospital_db();
        db.execute("CREATE INDEX ms_course ON medical_students (course)")
            .unwrap();
        assert!(matches!(
            db.execute("CREATE INDEX ms_course ON medical_students (course)"),
            Err(RelError::IndexExists(_))
        ));
        let rs = db
            .execute("SELECT name FROM medical_students WHERE course = 'MBBS' ORDER BY name")
            .unwrap();
        assert_eq!(rs.rows().unwrap().rows.len(), 2);
    }

    #[test]
    fn insert_with_column_subset_fills_nulls() {
        let mut db = Database::new("x", Dialect::Canonical);
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO t (a) VALUES (1)").unwrap();
        let rs = db.execute("SELECT * FROM t").unwrap();
        assert_eq!(
            rs.rows().unwrap().rows[0],
            vec![Datum::Int(1), Datum::Null, Datum::Null]
        );
    }

    #[test]
    fn insert_values_must_be_constant() {
        let mut db = Database::new("x", Dialect::Canonical);
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(db.execute("INSERT INTO t VALUES (b)").is_err());
    }

    /// Count the rows of a one-row table whose text matches `pattern`,
    /// on a 2 MiB-stack thread, waiting at most ten seconds.
    fn like_count_within_deadline(text: String, pattern: String) -> Datum {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut db = Database::new("x", Dialect::Canonical);
                db.execute("CREATE TABLE t (v TEXT)").unwrap();
                db.execute(&format!("INSERT INTO t VALUES ('{text}')"))
                    .unwrap();
                let sql = format!("SELECT COUNT(*) FROM t WHERE v LIKE '{pattern}'");
                let answer = db
                    .execute(&sql)
                    .map(|out| out.rows().unwrap().rows[0][0].clone());
                tx.send(answer).expect("the test awaits the answer");
            })
            .unwrap();
        let answer = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the query answers within its deadline");
        worker.join().expect("the query thread returns");
        answer.unwrap()
    }

    /// A recursive matcher takes one stack frame per pattern character,
    /// so 200 000 `%` overflow a 2 MiB stack and abort the process.
    #[test]
    fn a_long_run_of_percent_signs_matches_on_a_small_stack() {
        assert_eq!(
            like_count_within_deadline("ward".into(), "%".repeat(200_000)),
            Datum::Int(1)
        );
    }

    /// A recursive matcher retries every split of the text at every
    /// `%`, which takes exponential time on this pattern.
    #[test]
    fn many_percent_signs_before_a_mismatch_finish_quickly() {
        assert_eq!(
            like_count_within_deadline("a".repeat(60), "%a%a%a%a%a%a%a%a%a%ab".into()),
            Datum::Int(0)
        );
    }

    // ---- durable tier ---------------------------------------------------

    use crate::file_mgr::SimVfs;

    fn durable_db(vfs: &Arc<SimVfs>) -> Database {
        durable_db_on(Arc::clone(vfs) as Arc<dyn Vfs>)
    }

    /// Two beds in a durable database on `vfs`.
    fn durable_db_on(vfs: Arc<dyn Vfs>) -> Database {
        let mut db = Database::open_vfs(vfs, "RBH", Dialect::Canonical).unwrap();
        beds(&mut db);
        db
    }

    /// The two beds of [`durable_db`] in memory.
    fn hospital_twin() -> Database {
        let mut db = Database::new("RBH", Dialect::Canonical);
        beds(&mut db);
        db
    }

    fn beds(db: &mut Database) {
        db.execute("CREATE TABLE beds (id INT PRIMARY KEY, loc TEXT)")
            .unwrap();
        db.execute("INSERT INTO beds VALUES (1, 'ward A'), (2, 'ward B')")
            .unwrap();
    }

    fn count(db: &mut Database, sql: &str) -> i64 {
        match db.execute(sql).unwrap().rows().unwrap().rows[0][0] {
            Datum::Int(n) => n,
            ref d => panic!("expected int, got {d:?}"),
        }
    }

    #[test]
    fn import_table_rollback_leaves_no_table() {
        let schema = || {
            crate::schema::TableSchema::new(
                "staged",
                vec![crate::schema::Column::new("id", crate::types::DataType::Int).primary_key()],
            )
        };
        let vfs = SimVfs::new();
        for mut db in [hospital_db(), durable_db(&vfs)] {
            db.begin().unwrap();
            db.import_table(schema(), vec![vec![Datum::Int(1)], vec![Datum::Int(2)]])
                .unwrap();
            assert_eq!(db.table("staged").unwrap().len(), 2);
            db.rollback().unwrap();
            assert!(db.table("staged").is_none(), "durable: {}", db.is_durable());
            if db.is_durable() {
                db.checkpoint().unwrap();
                db.reopen().unwrap();
                assert!(db.table("staged").is_none());
                assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
            }
            // The name is free again.
            db.import_table(schema(), vec![vec![Datum::Int(3)]])
                .unwrap();
        }
    }

    #[test]
    fn durable_data_survives_crash_and_power_loss() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        assert!(db.is_durable());
        assert!(db.simulate_crash());
        assert!(matches!(
            db.execute("SELECT * FROM beds"),
            Err(RelError::Unavailable(_))
        ));
        vfs.power_loss(42); // unsynced writes (maybe) gone
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
    }

    #[test]
    fn uncommitted_transaction_rolls_back_across_crash() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO beds VALUES (3, 'ward C')").unwrap();
        db.execute("UPDATE beds SET loc = 'hijacked' WHERE id = 1")
            .unwrap();
        // Crash before COMMIT.
        db.simulate_crash();
        vfs.power_loss(7);
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
        let rs = db.execute("SELECT loc FROM beds WHERE id = 1").unwrap();
        assert_eq!(
            rs.rows().unwrap().rows[0][0],
            Datum::Text("ward A".into()),
            "loser update reversed"
        );
    }

    #[test]
    fn committed_transaction_survives_power_loss() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM beds WHERE id = 2").unwrap();
        db.execute("INSERT INTO beds VALUES (9, 'icu')").unwrap();
        db.execute("COMMIT").unwrap();
        db.simulate_crash();
        vfs.power_loss(1234);
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds WHERE id = 9"), 1);
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds WHERE id = 2"), 0);
    }

    #[test]
    fn pre_commit_record_crash_makes_the_transaction_a_loser() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO beds VALUES (5, 'ward E')").unwrap();
        db.arm_crash_point(CrashPoint::PreCommitRecord, 1);
        assert!(matches!(
            db.execute("COMMIT"),
            Err(RelError::Unavailable(_))
        ));
        assert!(db.is_crashed());
        vfs.power_loss(99);
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds WHERE id = 5"), 0);
        let st = db.storage_stats().unwrap();
        assert!(st.recovery_undo > 0 || st.recovery_redo > 0);
    }

    #[test]
    fn after_wal_append_crash_kills_the_statement() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.arm_crash_point(CrashPoint::AfterWalAppend, 2);
        // Auto-commit statement: Begin append (hit 1) + op append (hit 2).
        assert!(matches!(
            db.execute("INSERT INTO beds VALUES (7, 'ward G')"),
            Err(RelError::Unavailable(_))
        ));
        vfs.power_loss(3);
        db.reopen().unwrap();
        // No commit record → the insert must not survive.
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds WHERE id = 7"), 0);
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
    }

    #[test]
    fn mid_page_flush_crash_leaves_previous_checkpoint_valid() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.arm_crash_point(CrashPoint::MidPageFlush, 1);
        assert!(matches!(db.checkpoint(), Err(RelError::Unavailable(_))));
        vfs.power_loss(55);
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
    }

    /// A [`SimVfs`] whose `n`-th WAL write (or fsync, when `syncs`) after
    /// [`FailingVfs::arm`] fails before it reaches the inner store.
    #[derive(Debug)]
    struct FailingVfs {
        inner: Arc<SimVfs>,
        syncs: bool,
        /// Calls left until the failing one; 0 when disarmed.
        left: std::sync::atomic::AtomicU64,
    }

    impl FailingVfs {
        fn arm(&self, n: u64) {
            self.left.store(n, std::sync::atomic::Ordering::SeqCst);
        }

        fn hit(&self, sync: bool, file: &str) -> RelResult<()> {
            use std::sync::atomic::Ordering::SeqCst;
            let counted = sync == self.syncs && file == recovery::WAL_FILE;
            if counted && self.left.fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1)) == Ok(1) {
                return Err(RelError::Storage(format!("{file}: injected I/O error")));
            }
            Ok(())
        }
    }

    impl Vfs for FailingVfs {
        fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> RelResult<usize> {
            self.inner.read_at(file, offset, buf)
        }
        fn write_at(&self, file: &str, offset: u64, data: &[u8]) -> RelResult<()> {
            self.hit(false, file)?;
            self.inner.write_at(file, offset, data)
        }
        fn len(&self, file: &str) -> RelResult<u64> {
            self.inner.len(file)
        }
        fn sync(&self, file: &str) -> RelResult<()> {
            self.hit(true, file)?;
            self.inner.sync(file)
        }
        fn truncate(&self, file: &str, len: u64) -> RelResult<()> {
            self.inner.truncate(file, len)
        }
    }

    /// A failed WAL write or fsync inside COMMIT kills the instance: the
    /// COMMIT errs, every later statement (ROLLBACK too) is
    /// `Unavailable`, and a reopen recovers the acknowledged commits. A
    /// failed write leaves no commit record, so they are exactly what
    /// comes back; after a failed fsync the commit record may still be
    /// on disk, so the failed transaction comes back whole or not at all.
    /// Every WAL write and every fsync of the script fails once in turn.
    #[test]
    fn a_failed_commit_write_kills_the_instance() {
        let script: [&[&str]; 5] = [
            &["INSERT INTO beds VALUES (3, 'ward C')"],
            &[
                "BEGIN",
                "INSERT INTO beds VALUES (4, 'ward D')",
                "UPDATE beds SET loc = 'moved' WHERE id = 1",
                "COMMIT",
            ],
            &["DELETE FROM beds WHERE id = 2"],
            &["BEGIN", "INSERT INTO beds VALUES (5, 'ward E')", "COMMIT"],
            &["UPDATE beds SET loc = 'ward Z' WHERE id = 3"],
        ];
        let rows = |db: &mut Database| {
            db.execute("SELECT id, loc FROM beds ORDER BY id")
                .unwrap()
                .rows()
                .unwrap()
                .rows
                .clone()
        };
        for syncs in [false, true] {
            for n in 1.. {
                let vfs = Arc::new(FailingVfs {
                    inner: SimVfs::new(),
                    syncs,
                    left: Default::default(),
                });
                let mut db = durable_db_on(Arc::clone(&vfs) as Arc<dyn Vfs>);
                // `acked` runs what was acknowledged, `whole` also the
                // transaction whose COMMIT failed.
                let (mut acked, mut whole) = (hospital_twin(), hospital_twin());
                vfs.arm(n);
                let mut failed = false;
                for txn in script {
                    for (i, sql) in txn.iter().enumerate() {
                        whole.execute(sql).unwrap();
                        match db.execute(sql) {
                            Ok(_) => {}
                            Err(e) => {
                                assert_eq!(i + 1, txn.len(), "{sql}: only a commit writes the WAL");
                                assert!(matches!(e, RelError::Storage(_)), "{sql}: {e}");
                                failed = true;
                            }
                        }
                    }
                    if failed {
                        break;
                    }
                    for sql in txn.iter() {
                        acked.execute(sql).unwrap();
                    }
                }
                if !failed {
                    assert!(n > 1, "the script writes the WAL");
                    break;
                }
                assert!(db.is_crashed(), "n = {n}, syncs = {syncs}");
                for sql in [
                    "SELECT COUNT(*) FROM beds",
                    "ROLLBACK",
                    "INSERT INTO beds VALUES (9, 'late')",
                ] {
                    assert!(
                        matches!(db.execute(sql), Err(RelError::Unavailable(_))),
                        "{sql} ran on a dead instance"
                    );
                }
                db.reopen().unwrap();
                let recovered = rows(&mut db);
                let (acked, whole) = (rows(&mut acked), rows(&mut whole));
                if syncs {
                    assert!(
                        recovered == acked || recovered == whole,
                        "n = {n}: {recovered:?}"
                    );
                } else {
                    assert_eq!(recovered, acked, "n = {n}: a failed write came back");
                }
            }
        }
    }

    #[test]
    fn make_durable_persists_an_in_memory_build() {
        let mut db = hospital_db();
        assert!(!db.is_durable());
        let vfs = SimVfs::new();
        db.make_durable(Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
        assert!(db.is_durable());
        db.execute("INSERT INTO medical_students VALUES (4, 'New', 'MBBS', 1)")
            .unwrap();
        db.simulate_crash();
        vfs.power_loss(8);
        db.reopen().unwrap();
        assert_eq!(
            count(&mut db, "SELECT COUNT(*) FROM medical_students"),
            4,
            "seed rows from the checkpoint plus the logged insert"
        );
    }

    #[test]
    fn automatic_checkpoints_compact_the_wal() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.set_checkpoint_every(2);
        for i in 10..20 {
            db.execute(&format!("INSERT INTO beds VALUES ({i}, 'w')"))
                .unwrap();
        }
        let st = db.storage_stats().unwrap();
        assert!(st.checkpoints >= 3, "cadence-driven checkpoints: {st:?}");
        assert!(st.pages_flushed > 0);
        assert!(st.wal_appends > 0);
        // WAL was compacted recently: far smaller than total appends imply.
        let wal_len = vfs.len("wal").unwrap();
        assert!(
            wal_len < st.wal_bytes,
            "wal {wal_len} should be compacted below lifetime bytes {}",
            st.wal_bytes
        );
        db.simulate_crash();
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 12);
    }

    #[test]
    fn reopen_is_idempotent_on_a_healthy_database() {
        let vfs = SimVfs::new();
        let mut db = durable_db(&vfs);
        db.reopen().unwrap();
        db.reopen().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM beds"), 2);
    }

    #[test]
    fn in_memory_fast_path_has_no_durable_surface() {
        let mut db = hospital_db();
        assert!(!db.is_durable());
        assert!(!db.is_crashed());
        assert!(db.storage_stats().is_none());
        assert!(db.vfs().is_none());
        assert!(!db.simulate_crash());
        assert!(db.checkpoint().is_ok(), "checkpoint is a no-op in memory");
        assert!(matches!(db.reopen(), Err(RelError::Storage(_))));
        // Data untouched by all of the above.
        assert_eq!(db.table("medical_students").unwrap().len(), 3);
    }
}
