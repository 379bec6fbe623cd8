//! A minimal lock-table transaction manager.
//!
//! Behind the connect layer, readers share a database (a SELECT takes
//! `&Database`) and everything that writes holds it alone, so the lock
//! table's job is not concurrency control between threads — it is
//! conflict *accounting* between the logical transactions that
//! interleave through one session (and a guard rail for any future
//! engine with concurrent writers). Locks are
//! table-granular and exclusive; a transaction touching a table locked
//! by another live transaction gets [`RelError::LockConflict`]
//! immediately (no-wait policy — the simplest deadlock-free choice).

use crate::{RelError, RelResult};
use std::collections::HashMap;

/// A transaction id, monotonically assigned by [`TxManager::begin`].
pub type TxId = u64;

/// Allocates transaction ids and tracks table-granular exclusive locks.
#[derive(Debug)]
pub struct TxManager {
    next: TxId,
    /// table name (lowercase) -> holder.
    locks: HashMap<String, TxId>,
}

impl TxManager {
    /// A manager whose first transaction id will be `first`.
    pub fn new(first: TxId) -> TxManager {
        TxManager {
            next: first.max(1),
            locks: HashMap::new(),
        }
    }

    /// The id the next [`TxManager::begin`] will hand out.
    pub fn next_tx(&self) -> TxId {
        self.next
    }

    /// Start a transaction.
    pub fn begin(&mut self) -> TxId {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Take (or re-take) the exclusive lock on `table` for `tx`.
    /// No-wait: a conflicting holder is an immediate error.
    pub fn lock(&mut self, tx: TxId, table: &str) -> RelResult<()> {
        match self.locks.get(table) {
            Some(&holder) if holder != tx => Err(RelError::LockConflict(format!(
                "table '{table}' is locked by transaction {holder} (wanted by {tx})"
            ))),
            _ => {
                self.locks.insert(table.to_string(), tx);
                Ok(())
            }
        }
    }

    /// Drop every lock `tx` holds (commit or rollback).
    pub fn release(&mut self, tx: TxId) {
        self.locks.retain(|_, holder| *holder != tx);
    }

    /// Number of tables currently locked (test hook).
    pub fn locked_tables(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic_and_resumable() {
        let mut txm = TxManager::new(7);
        assert_eq!(txm.begin(), 7);
        assert_eq!(txm.begin(), 8);
        assert_eq!(txm.next_tx(), 9);
        // Zero start is bumped so tx id 0 never exists.
        assert_eq!(TxManager::new(0).next_tx(), 1);
    }

    #[test]
    fn exclusive_locks_conflict_and_release() {
        let mut txm = TxManager::new(1);
        let a = txm.begin();
        let b = txm.begin();
        txm.lock(a, "beds").unwrap();
        txm.lock(a, "beds").unwrap(); // re-entrant for the holder
        assert!(matches!(
            txm.lock(b, "beds"),
            Err(RelError::LockConflict(_))
        ));
        txm.lock(b, "wards").unwrap();
        assert_eq!(txm.locked_tables(), 2);
        txm.release(a);
        txm.lock(b, "beds").unwrap();
        txm.release(b);
        assert_eq!(txm.locked_tables(), 0);
    }
}
