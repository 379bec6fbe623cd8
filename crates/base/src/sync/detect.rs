//! Opt-in lock-order and hold-across-blocking detector.
//!
//! Compiled in by the `deadlock-detect` feature; without it every entry
//! point here is a zero-cost stub so callers (and tests) can link
//! unconditionally. The detector is deliberately built on raw
//! `std::sync` primitives — it must never recurse into the wrappers it
//! instruments.
//!
//! Model: each [`crate::sync::Mutex`]/[`crate::sync::RwLock`] gets a
//! process-unique id on first acquisition plus a site label (explicit
//! via `new_labeled`, else the first acquisition's `file:line`). Each
//! thread keeps a stack of held lock ids; each blocking acquisition
//! records acquired-before edges `held → new` in a global graph and is
//! rejected (reported, not blocked) if the reverse path already exists
//! — the classic ABBA inversion. [`blocking_region`] brackets
//! operations that can block indefinitely on the network (socket
//! send/recv, connect, reply waits); holding a non-exempt lock when
//! entering one, or acquiring a lock inside one, is reported.
//!
//! Reports are deduplicated globally by site pair / site+region, pushed
//! to a process-wide list that tests drain via [`take_violations`], and
//! tallied in [`counters`], which a trace renders like any counter set.

/// Classification of a detector report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two locks are acquired in inconsistent order on different code
    /// paths — a potential ABBA deadlock.
    LockOrderCycle,
    /// A non-exempt lock was held while entering a blocking region.
    HoldAcrossBlocking,
    /// A lock was acquired while inside a blocking region.
    AcquireInBlocking,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::LockOrderCycle => "lock-order-cycle",
            ViolationKind::HoldAcrossBlocking => "hold-across-blocking",
            ViolationKind::AcquireInBlocking => "acquire-in-blocking",
        };
        f.write_str(s)
    }
}

/// One deduplicated detector report.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// One-line human-readable description naming the sites involved.
    pub message: String,
    /// Supporting context: thread name, the labels of every lock held
    /// at the time, and a captured backtrace.
    pub detail: String,
}

crate::counter_set! {
    /// Monotonic totals of reports since process start (not reset by
    /// [`take_violations`]); always zero without the feature.
    pub struct DetectMetrics => Counters {
        /// Count of [`ViolationKind::LockOrderCycle`] reports.
        counter lock_order_cycles "lock-order cycles",
        /// Count of hold-across / acquire-in blocking-region reports.
        counter blocking_violations "blocking violations",
    }
}

/// Whether the detector was compiled into this build.
pub const fn enabled() -> bool {
    cfg!(feature = "deadlock-detect")
}

#[cfg(feature = "deadlock-detect")]
mod imp {
    use super::{Counters, DetectMetrics, Violation, ViolationKind};
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// How an acquisition can wait.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum AcquireKind {
        /// May block indefinitely — participates in cycle and
        /// blocking-region checks.
        Blocking,
        /// `try_lock` — fails fast, so it can never close a deadlock
        /// cycle; registered as held but not checked.
        Try,
    }

    /// Per-lock detector state embedded in each wrapper. All fields are
    /// const-initializable so `Mutex::new` stays `const fn`.
    pub struct LockMeta {
        id: AtomicU64,
        label: OnceLock<&'static str>,
        exempt: OnceLock<&'static str>,
    }

    struct LockInfo {
        label: String,
        exempt: Option<&'static str>,
    }

    struct State {
        registry: Mutex<HashMap<u64, LockInfo>>,
        /// Acquired-before graph: `held → newly acquired`.
        edges: Mutex<HashMap<u64, HashSet<u64>>>,
        reported: Mutex<HashSet<String>>,
        violations: Mutex<Vec<Violation>>,
        totals: DetectMetrics,
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    static STATE: OnceLock<State> = OnceLock::new();

    fn state() -> &'static State {
        STATE.get_or_init(|| State {
            registry: Mutex::new(HashMap::new()),
            edges: Mutex::new(HashMap::new()),
            reported: Mutex::new(HashSet::new()),
            violations: Mutex::new(Vec::new()),
            totals: DetectMetrics::default(),
        })
    }

    thread_local! {
        /// Lock ids currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        /// Blocking-region sites this thread is currently inside.
        static REGION: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    impl Default for LockMeta {
        fn default() -> Self {
            Self::new()
        }
    }

    impl LockMeta {
        /// Fresh, unregistered per-lock state (const so `Mutex::new`
        /// stays a `const fn`).
        pub const fn new() -> Self {
            LockMeta {
                id: AtomicU64::new(0),
                label: OnceLock::new(),
                exempt: OnceLock::new(),
            }
        }

        /// Record a curated site label for this lock (first call wins).
        pub fn set_label(&self, label: &'static str) {
            let _ = self.label.set(label);
            // Re-registering under the curated name if the lock was
            // already acquired under its first-site name.
            let id = self.id.load(Ordering::Relaxed);
            if id != 0 {
                if let Ok(mut reg) = state().registry.lock() {
                    if let Some(info) = reg.get_mut(&id) {
                        info.label = label.to_string();
                    }
                }
            }
        }

        /// Exempt this lock from blocking-region rules with a
        /// justification (first call wins).
        pub fn set_exempt(&self, justification: &'static str) {
            let _ = self.exempt.set(justification);
            let id = self.id.load(Ordering::Relaxed);
            if id != 0 {
                if let Ok(mut reg) = state().registry.lock() {
                    if let Some(info) = reg.get_mut(&id) {
                        info.exempt = Some(justification);
                    }
                }
            }
        }

        /// Register this lock (first time) and run the pre-acquisition
        /// checks; returns the lock's process-unique id.
        #[track_caller]
        pub fn pre_acquire(&self, kind: AcquireKind) -> u64 {
            let loc = Location::caller();
            let id = self.ensure_registered(loc);
            if kind == AcquireKind::Blocking {
                check_acquire_in_region(id);
                check_and_record_order(id);
            }
            id
        }

        fn ensure_registered(&self, loc: &Location<'_>) -> u64 {
            let existing = self.id.load(Ordering::Acquire);
            if existing != 0 {
                return existing;
            }
            let candidate = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            match self
                .id
                .compare_exchange(0, candidate, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    let label = match self.label.get() {
                        Some(l) => (*l).to_string(),
                        None => format!("{}:{}", loc.file(), loc.line()),
                    };
                    let exempt = self.exempt.get().copied();
                    if let Ok(mut reg) = state().registry.lock() {
                        reg.insert(candidate, LockInfo { label, exempt });
                    }
                    candidate
                }
                Err(winner) => winner,
            }
        }
    }

    fn label_of(id: u64) -> String {
        state()
            .registry
            .lock()
            .ok()
            .and_then(|reg| reg.get(&id).map(|i| i.label.clone()))
            .unwrap_or_else(|| format!("lock#{id}"))
    }

    fn is_exempt(id: u64) -> bool {
        state()
            .registry
            .lock()
            .ok()
            .and_then(|reg| reg.get(&id).map(|i| i.exempt.is_some()))
            .unwrap_or(false)
    }

    fn held_labels(held: &[u64]) -> String {
        if held.is_empty() {
            return "none".to_string();
        }
        held.iter()
            .map(|&h| label_of(h))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    fn report(kind: ViolationKind, dedup_key: String, message: String, held: &[u64]) {
        let st = state();
        {
            let mut seen = match st.reported.lock() {
                Ok(s) => s,
                Err(e) => e.into_inner(),
            };
            if !seen.insert(dedup_key) {
                return;
            }
        }
        match kind {
            ViolationKind::LockOrderCycle => &st.totals.lock_order_cycles,
            _ => &st.totals.blocking_violations,
        }
        .fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current();
        let detail = format!(
            "thread={} held=[{}]\nbacktrace:\n{}",
            thread.name().unwrap_or("<unnamed>"),
            held_labels(held),
            std::backtrace::Backtrace::force_capture()
        );
        let violation = Violation {
            kind,
            message,
            detail,
        };
        let mut v = match st.violations.lock() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        };
        v.push(violation);
    }

    /// Flag acquiring a lock while inside a blocking region.
    fn check_acquire_in_region(id: u64) {
        let region = REGION
            .try_with(|r| r.borrow().last().copied())
            .ok()
            .flatten();
        let Some(site) = region else { return };
        if is_exempt(id) {
            return;
        }
        let held = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        report(
            ViolationKind::AcquireInBlocking,
            format!("acq-in-region:{}@{}", label_of(id), site),
            format!(
                "lock `{}` acquired inside blocking region `{}`",
                label_of(id),
                site
            ),
            &held,
        );
    }

    /// Record `held → id` edges and flag any pre-existing reverse path
    /// (an inconsistent acquisition order between the two sites).
    fn check_and_record_order(id: u64) {
        let held = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        if held.is_empty() {
            return;
        }
        let st = state();
        let mut edges = match st.edges.lock() {
            Ok(e) => e,
            Err(e) => e.into_inner(),
        };
        for &h in &held {
            if h == id {
                continue; // re-entrant same-lock id (rwlock read twice)
            }
            if path_exists(&edges, id, h) {
                let (a, b) = (label_of(id), label_of(h));
                drop(edges);
                report(
                    ViolationKind::LockOrderCycle,
                    format!("cycle:{a}<->{b}"),
                    format!(
                        "inconsistent lock order: `{b}` then `{a}` here, but `{a}` then `{b}` elsewhere"
                    ),
                    &held,
                );
                edges = match st.edges.lock() {
                    Ok(e) => e,
                    Err(e) => e.into_inner(),
                };
            }
            edges.entry(h).or_default().insert(id);
        }
    }

    /// Depth-first reachability `from → … → to` in the acquired-before
    /// graph.
    fn path_exists(edges: &HashMap<u64, HashSet<u64>>, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Mark `id` as held by the current thread.
    pub fn post_acquire(id: u64) {
        let _ = HELD.try_with(|h| h.borrow_mut().push(id));
    }

    /// Remove the most recent hold of `id` (guards may be dropped out
    /// of acquisition order).
    pub fn on_release(id: u64) {
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&x| x == id) {
                h.remove(pos);
            }
        });
    }

    /// Enter a blocking region for the duration of `f`.
    pub fn blocking_region<R>(site: &'static str, f: impl FnOnce() -> R) -> R {
        let held = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        for &id in &held {
            if is_exempt(id) {
                continue;
            }
            report(
                ViolationKind::HoldAcrossBlocking,
                format!("hold-across:{}@{}", label_of(id), site),
                format!(
                    "lock `{}` held while entering blocking region `{}`",
                    label_of(id),
                    site
                ),
                &held,
            );
        }
        let entered = REGION.try_with(|r| r.borrow_mut().push(site)).is_ok();
        struct Pop(bool);
        impl Drop for Pop {
            fn drop(&mut self) {
                if self.0 {
                    let _ = REGION.try_with(|r| {
                        r.borrow_mut().pop();
                    });
                }
            }
        }
        let _pop = Pop(entered);
        f()
    }

    /// Drain all accumulated violations.
    pub fn take_violations() -> Vec<Violation> {
        let mut v = match state().violations.lock() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        };
        std::mem::take(&mut *v)
    }

    /// Monotonic report totals.
    pub fn counters() -> Counters {
        state().totals.snapshot()
    }

    /// Every registered lock that declared a hold-across-blocking
    /// exemption, as `(label, justification)` pairs.
    pub fn exemptions() -> Vec<(String, String)> {
        let reg = match state().registry.lock() {
            Ok(r) => r,
            Err(e) => e.into_inner(),
        };
        let mut out: Vec<(String, String)> = reg
            .values()
            .filter_map(|i| i.exempt.map(|j| (i.label.clone(), j.to_string())))
            .collect();
        out.sort();
        out
    }
}

#[cfg(feature = "deadlock-detect")]
pub use imp::{
    blocking_region, counters, exemptions, on_release, post_acquire, take_violations, AcquireKind,
    LockMeta,
};

#[cfg(not(feature = "deadlock-detect"))]
mod stub {
    use super::{Counters, Violation};

    /// Enter a blocking region for the duration of `f` (no-op without
    /// the `deadlock-detect` feature).
    #[inline(always)]
    pub fn blocking_region<R>(_site: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Drain all accumulated violations (always empty without the
    /// `deadlock-detect` feature).
    #[inline(always)]
    pub fn take_violations() -> Vec<Violation> {
        Vec::new()
    }

    /// Monotonic report totals (always zero without the feature).
    #[inline(always)]
    pub fn counters() -> Counters {
        Counters::default()
    }

    /// Declared exemptions (always empty without the feature).
    #[inline(always)]
    pub fn exemptions() -> Vec<(String, String)> {
        Vec::new()
    }
}

#[cfg(not(feature = "deadlock-detect"))]
pub use stub::{blocking_region, counters, exemptions, take_violations};
