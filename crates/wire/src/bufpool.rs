//! A reusable byte-buffer pool for the CDR encode path.
//!
//! Every GIOP encode used to allocate (and later free) a fresh `Vec<u8>`
//! per message — twice, in fact: once for the CDR body and once for the
//! assembled frame. Under the reactor core an ORB encodes on every
//! request it serves, so those allocations become the dominant
//! per-message cost after the syscalls themselves. [`BufPool`] keeps a
//! bounded shelf of retired buffers; [`PooledBuf`] is a frame that
//! returns its storage to the shelf on drop, so steady-state traffic
//! recycles the same handful of allocations.
//!
//! The pool is deliberately simple: a mutex-guarded stack. Encoding is
//! measured in microseconds and the critical section is a `Vec::pop` /
//! `Vec::push`, so contention is negligible next to the allocator work
//! it avoids. Buffers that grew beyond [`BufPool::max_retained`] are
//! dropped instead of shelved, so one multi-megabyte reply cannot pin
//! its high-water allocation forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webfindit_base::sync::Mutex;

/// Default bound on how many retired buffers the pool shelves.
const DEFAULT_MAX_POOLED: usize = 64;
/// Default bound on the capacity a shelved buffer may retain.
const DEFAULT_MAX_RETAINED: usize = 256 * 1024;

/// A bounded shelf of reusable byte buffers.
#[derive(Debug)]
pub struct BufPool {
    shelf: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
    max_retained: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_POOLED, DEFAULT_MAX_RETAINED)
    }
}

impl BufPool {
    /// A pool shelving at most `max_pooled` buffers, each retaining at
    /// most `max_retained` bytes of capacity.
    pub fn new(max_pooled: usize, max_retained: usize) -> Self {
        BufPool {
            shelf: Mutex::new_labeled(Vec::new(), "wire::BufPool.shelf"),
            max_pooled: max_pooled.max(1),
            max_retained: max_retained.max(4096),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A shared default-sized pool.
    pub fn shared() -> Arc<BufPool> {
        Arc::new(BufPool::default())
    }

    /// Take a cleared buffer from the shelf, or allocate a fresh one.
    pub fn take(&self) -> Vec<u8> {
        match self.shelf.lock().pop() {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(256)
            }
        }
    }

    /// Return a buffer to the shelf (dropped if the shelf is full or the
    /// buffer grew beyond the retention bound).
    pub fn give(&self, buf: Vec<u8>) {
        if buf.capacity() > self.max_retained {
            return;
        }
        let mut shelf = self.shelf.lock();
        if shelf.len() < self.max_pooled {
            shelf.push(buf);
        }
    }

    /// `(hits, misses)` — how often `take` reused a shelved buffer.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Buffers currently shelved.
    pub fn shelved(&self) -> usize {
        self.shelf.lock().len()
    }
}

/// An encoded frame backed by pool storage; returns it on drop.
///
/// Dereferences to the frame bytes, so it drops into any API taking
/// `&[u8]` (e.g. `FramedTcp::send_frame`).
#[derive(Debug)]
pub struct PooledBuf {
    buf: Option<Vec<u8>>,
    pool: Arc<BufPool>,
}

impl PooledBuf {
    /// Wrap `buf`, to be returned to `pool` when this handle drops.
    pub fn new(buf: Vec<u8>, pool: Arc<BufPool>) -> Self {
        PooledBuf {
            buf: Some(buf),
            pool,
        }
    }

    /// Detach the bytes from the pool (they will not be recycled).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.take().expect("buffer present until drop")
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.buf.as_deref().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give(buf);
        }
    }
}

/// An outgoing frame in either pooled or plain storage, so send queues
/// can carry both without forcing an allocation policy on callers.
#[derive(Debug)]
pub enum FrameBuf {
    /// Pool-backed storage, recycled when the frame is fully written.
    Pooled(PooledBuf),
    /// Ordinary owned bytes.
    Plain(Vec<u8>),
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            FrameBuf::Pooled(b) => b,
            FrameBuf::Plain(v) => v,
        }
    }
}

impl From<PooledBuf> for FrameBuf {
    fn from(b: PooledBuf) -> Self {
        FrameBuf::Pooled(b)
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> Self {
        FrameBuf::Plain(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_recycles() {
        let pool = BufPool::shared();
        let mut a = pool.take();
        a.extend_from_slice(b"hello");
        let ptr = a.as_ptr();
        pool.give(a);
        assert_eq!(pool.shelved(), 1);
        let b = pool.take();
        assert_eq!(b.as_ptr(), ptr, "same allocation reused");
        assert!(b.is_empty(), "recycled buffer is cleared");
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn oversized_buffers_not_retained() {
        let pool = BufPool::new(4, 4096);
        pool.give(Vec::with_capacity(1 << 20));
        assert_eq!(pool.shelved(), 0);
    }

    #[test]
    fn shelf_is_bounded() {
        let pool = BufPool::new(2, 4096);
        for _ in 0..5 {
            pool.give(Vec::with_capacity(64));
        }
        assert_eq!(pool.shelved(), 2);
    }

    #[test]
    fn pooled_buf_returns_on_drop() {
        let pool = BufPool::shared();
        {
            let mut v = pool.take();
            v.extend_from_slice(&[1, 2, 3]);
            let framed = PooledBuf::new(v, Arc::clone(&pool));
            assert_eq!(&framed[..], &[1, 2, 3]);
        }
        assert_eq!(pool.shelved(), 1);
    }

    #[test]
    fn into_vec_detaches() {
        let pool = BufPool::shared();
        let framed = PooledBuf::new(vec![9], Arc::clone(&pool));
        let v = framed.into_vec();
        assert_eq!(v, vec![9]);
        assert_eq!(pool.shelved(), 0);
    }
}
