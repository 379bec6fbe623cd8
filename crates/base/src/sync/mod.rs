//! Poison-free lock wrappers over `std::sync`, instrumented for
//! concurrency analysis.
//!
//! The workspace treats a panic while holding a lock as an isolated
//! event (servant panics are already caught at the dispatch boundary),
//! so lock poisoning is noise: these wrappers recover the guard from a
//! poisoned lock instead of propagating an error. The API mirrors the
//! subset of `parking_lot` the codebase uses: `lock()`, `read()`, and
//! `write()` return guards directly.
//!
//! Because every lock in the workspace flows through this module, it is
//! also the single chokepoint for the opt-in **lock-order deadlock
//! detector** (see [`detect`], compiled in by the `deadlock-detect`
//! feature). With the feature on, every acquisition is registered
//! against a per-thread held-lock stack and a global acquired-before
//! graph; inconsistent acquisition orders (potential ABBA deadlocks)
//! and locks held across declared blocking regions (socket sends,
//! reply waits) are recorded as [`detect::Violation`]s that tests can
//! drain and assert empty. Without the feature the wrappers compile to
//! the plain poison-free shims with no bookkeeping.

pub mod detect;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};

/// A mutual-exclusion lock whose `lock` ignores poisoning.
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "deadlock-detect")]
    meta: detect::LockMeta,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "deadlock-detect")]
            meta: detect::LockMeta::new(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Wrap `value` in a mutex registered under a stable site label.
    ///
    /// Without an explicit label the detector names a lock after its
    /// first acquisition site; long-lived locks created in constructors
    /// read better under a curated name (`"orb::MuxConn.writer"`).
    pub fn new_labeled(value: T, label: &'static str) -> Self {
        let m = Mutex::new(value);
        #[cfg(feature = "deadlock-detect")]
        m.meta.set_label(label);
        #[cfg(not(feature = "deadlock-detect"))]
        let _ = label;
        m
    }

    /// Exempt this lock from the hold-across-blocking rules, with a
    /// one-line justification (surfaced by [`detect::exemptions`]).
    ///
    /// The few deliberate holds in the workspace — e.g. the writer
    /// mutex that serializes whole-frame socket writes — declare
    /// themselves here; everything else that is held into a
    /// [`detect::blocking_region`] is flagged. Exempt locks still
    /// participate in lock-order (ABBA) analysis.
    pub fn allow_hold_across_blocking(self, justification: &'static str) -> Self {
        #[cfg(feature = "deadlock-detect")]
        self.meta.set_exempt(justification);
        #[cfg(not(feature = "deadlock-detect"))]
        let _ = justification;
        self
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poisoning.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "deadlock-detect")]
        let id = self.meta.pre_acquire(detect::AcquireKind::Blocking);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "deadlock-detect")]
        detect::post_acquire(id);
        MutexGuard {
            #[cfg(feature = "deadlock-detect")]
            id,
            inner,
        }
    }

    /// Try to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        // A try-acquire cannot block, so it can never close a live
        // deadlock cycle; it is registered as held (so later blocking
        // acquisitions see it) but not cycle-checked itself.
        #[cfg(feature = "deadlock-detect")]
        let id = self.meta.pre_acquire(detect::AcquireKind::Try);
        #[cfg(feature = "deadlock-detect")]
        detect::post_acquire(id);
        Some(MutexGuard {
            #[cfg(feature = "deadlock-detect")]
            id,
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "deadlock-detect")]
    id: u64,
    inner: sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(feature = "deadlock-detect")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        detect::on_release(self.id);
    }
}

/// A reader-writer lock whose `read`/`write` ignore poisoning.
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "deadlock-detect")]
    meta: detect::LockMeta,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap `value` in a new rwlock.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "deadlock-detect")]
            meta: detect::LockMeta::new(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Wrap `value` in an rwlock registered under a stable site label
    /// (see [`Mutex::new_labeled`]).
    pub fn new_labeled(value: T, label: &'static str) -> Self {
        let l = RwLock::new(value);
        #[cfg(feature = "deadlock-detect")]
        l.meta.set_label(label);
        #[cfg(not(feature = "deadlock-detect"))]
        let _ = label;
        l
    }

    /// Exempt this lock from the hold-across-blocking rules (see
    /// [`Mutex::allow_hold_across_blocking`]).
    pub fn allow_hold_across_blocking(self, justification: &'static str) -> Self {
        #[cfg(feature = "deadlock-detect")]
        self.meta.set_exempt(justification);
        #[cfg(not(feature = "deadlock-detect"))]
        let _ = justification;
        self
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, recovering from poisoning.
    ///
    /// For analysis purposes a read acquisition is treated like any
    /// other: readers still deadlock against writers under inconsistent
    /// ordering, so read edges participate fully in the
    /// acquired-before graph.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "deadlock-detect")]
        let id = self.meta.pre_acquire(detect::AcquireKind::Blocking);
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "deadlock-detect")]
        detect::post_acquire(id);
        RwLockReadGuard {
            #[cfg(feature = "deadlock-detect")]
            id,
            inner,
        }
    }

    /// Try to take a shared read guard without blocking: `None` while a
    /// writer holds the lock (or, as std decides, waits for it).
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        // As for `Mutex::try_lock`: held from here on, never cycle-checked.
        #[cfg(feature = "deadlock-detect")]
        let id = self.meta.pre_acquire(detect::AcquireKind::Try);
        #[cfg(feature = "deadlock-detect")]
        detect::post_acquire(id);
        Some(RwLockReadGuard {
            #[cfg(feature = "deadlock-detect")]
            id,
            inner,
        })
    }

    /// Acquire an exclusive write guard, recovering from poisoning.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "deadlock-detect")]
        let id = self.meta.pre_acquire(detect::AcquireKind::Blocking);
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "deadlock-detect")]
        detect::post_acquire(id);
        RwLockWriteGuard {
            #[cfg(feature = "deadlock-detect")]
            id,
            inner,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "deadlock-detect")]
    id: u64,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(feature = "deadlock-detect")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        detect::on_release(self.id);
    }
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "deadlock-detect")]
    id: u64,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(feature = "deadlock-detect")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        detect::on_release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A poisoned lock must still hand out guards.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn try_read_fails_under_a_writer_and_shares_with_a_reader() {
        let l = RwLock::new(1);
        let w = l.write();
        assert!(l.try_read().is_none(), "a held writer refuses a reader");
        drop(w);
        let r = l.read();
        assert_eq!(l.try_read().map(|g| *g), Some(1), "readers share");
        drop(r);
        assert!(l.try_read().is_some());
    }

    #[test]
    fn labeled_constructors_behave_like_plain_ones() {
        let m = Mutex::new_labeled(5, "test.mutex").allow_hold_across_blocking("unit test");
        assert_eq!(*m.lock(), 5);
        let l = RwLock::new_labeled(vec![1], "test.rwlock");
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }
}
