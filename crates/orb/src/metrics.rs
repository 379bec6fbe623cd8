//! Per-ORB traffic counters.
//!
//! The scalability experiments (E1, E4, E6) quantify discovery cost in
//! *IIOP round-trips* and *bytes marshalled* — the same units the paper
//! argues about qualitatively. Counters are lock-free atomics so that
//! the measurement does not perturb the measured path.
//!
//! This set holds only what the communication layer itself increments
//! (`orb.rs`, `channel.rs`, `reactor.rs`, `naming.rs`); the layers
//! above declare their own sets next to the code that bumps them.

use std::sync::atomic::{AtomicU64, Ordering};
use webfindit_base::counter_set;

counter_set! {
    /// Traffic counters for one ORB instance.
    pub struct OrbMetrics => OrbSnapshot {
        /// GIOP Requests sent by this ORB acting as a client.
        counter requests_sent "requests sent",
        /// GIOP Requests served by this ORB's adapter (arrived via IIOP).
        counter requests_served "requests served",
        /// Of those, requests answered on the reactor thread that read
        /// them, without the dispatch pool.
        counter requests_inline "requests inline",
        /// Invocations short-circuited because the target servant is local.
        counter local_dispatches "local dispatches",
        /// Bytes of GIOP frames written to transports.
        counter bytes_sent "bytes out",
        /// Bytes of GIOP frames read from transports.
        counter bytes_received "bytes in",
        /// Replies carrying exceptions (user or system) sent by this ORB.
        counter exceptions_sent "exceptions",
        /// LocateRequest probes served.
        counter locates_served "locates",
        /// Remote requests currently awaiting a reply.
        gauge in_flight "in-flight",
        /// Calls that hit their deadline before the reply arrived.
        counter timeouts "timeouts",
        /// Transparent retries of provably-unprocessed requests.
        counter retries "retries",
        /// Multiplexed connections evicted (desync, unexpected message
        /// kind, or pruned after death).
        counter evictions "evictions",
        /// Replies that arrived after their caller had given up.
        counter late_replies "late replies",
        /// Circuit breakers tripped open (too many consecutive failures).
        counter breaker_opened "breaker opened",
        /// Half-open probe invocations admitted through an open breaker.
        counter breaker_probes "breaker probes",
        /// Breakers re-closed after a successful half-open probe.
        counter breaker_closed "breaker closed",
        /// Calls rejected immediately because the endpoint's breaker was open.
        counter breaker_rejections "breaker rejected",
        /// Naming resolutions answered from the client-side IOR cache
        /// without touching the wire.
        counter ior_cache_hits "ior cache hits",
        /// Naming resolutions that missed the IOR cache (expired, absent,
        /// or uncached) and went to the naming service.
        counter ior_cache_misses "ior cache misses",
        /// IOR cache entries dropped because an invocation on the cached
        /// reference failed (or its endpoint's breaker opened).
        counter ior_cache_invalidations "ior cache invalidations",
        /// Replies whose encoded body exceeded the fragment threshold and
        /// were streamed as an initial frame plus `Fragment` continuations.
        counter fragmented_replies "fragmented replies",
        /// Continuation `Fragment` frames sent by the reactor core.
        counter fragments_sent "fragments sent",
        /// Fragment trains reassembled into complete messages by the
        /// client channel's leaders.
        counter fragments_reassembled "fragments reassembled",
        /// Times the reactor paused reading a connection because its write
        /// queue crossed the backpressure high-water mark.
        counter backpressure_pauses "backpressure pauses",
    }
}

impl OrbMetrics {
    pub(crate) fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn gauge_sub(&self, gauge: &AtomicU64, n: u64) {
        gauge.fetch_sub(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_orb_counter_is_listed_once_under_its_label() {
        let m = OrbMetrics::default();
        let table = [
            (&m.requests_sent, "requests sent"),
            (&m.requests_served, "requests served"),
            (&m.requests_inline, "requests inline"),
            (&m.local_dispatches, "local dispatches"),
            (&m.bytes_sent, "bytes out"),
            (&m.bytes_received, "bytes in"),
            (&m.exceptions_sent, "exceptions"),
            (&m.locates_served, "locates"),
            (&m.in_flight, "in-flight"),
            (&m.timeouts, "timeouts"),
            (&m.retries, "retries"),
            (&m.evictions, "evictions"),
            (&m.late_replies, "late replies"),
            (&m.breaker_opened, "breaker opened"),
            (&m.breaker_probes, "breaker probes"),
            (&m.breaker_closed, "breaker closed"),
            (&m.breaker_rejections, "breaker rejected"),
            (&m.ior_cache_hits, "ior cache hits"),
            (&m.ior_cache_misses, "ior cache misses"),
            (&m.ior_cache_invalidations, "ior cache invalidations"),
            (&m.fragmented_replies, "fragmented replies"),
            (&m.fragments_sent, "fragments sent"),
            (&m.fragments_reassembled, "fragments reassembled"),
            (&m.backpressure_pauses, "backpressure pauses"),
        ];
        for (i, (counter, _)) in table.iter().enumerate() {
            m.add(counter, i as u64 + 1);
        }
        let expected: Vec<_> = table.iter().map(|(_, label)| *label).zip(1..).collect();
        assert_eq!(m.snapshot().iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn snapshot_delta() {
        let m = OrbMetrics::default();
        m.add(&m.requests_sent, 3);
        m.add(&m.bytes_sent, 100);
        let s1 = m.snapshot();
        m.add(&m.requests_sent, 2);
        let s2 = m.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.requests_sent, 2);
        assert_eq!(d.bytes_sent, 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let m = OrbMetrics::default();
        m.add(&m.in_flight, 3);
        m.gauge_sub(&m.in_flight, 2);
        assert_eq!(m.snapshot().in_flight, 1);
        // A falling gauge saturates in `since` instead of underflowing.
        let high = m.snapshot();
        m.gauge_sub(&m.in_flight, 1);
        assert_eq!(m.snapshot().since(&high).in_flight, 0);
    }
}
