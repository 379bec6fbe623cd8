//! Fixture: two healthy counters and one dead one in a written-out
//! struct; one healthy and one dead in a `counter_set!` declaration.

pub struct FooMetrics {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub ghosts: AtomicU64,
}

impl FooMetrics {
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_miss(&self) {
        // Wrapped method chain: still counts as recorded.
        self.misses
            .fetch_add(1, Ordering::Relaxed);
    }
}

counter_set! {
    /// Declared through the macro.
    pub struct BarMetrics => BarSnapshot {
        /// Bumped below.
        counter sent "sent",
        /// Never bumped.
        peak phantoms "phantoms",
    }
}

pub fn record_sent(m: &BarMetrics) {
    m.sent.fetch_add(1, Ordering::Relaxed);
}
