//! Graceful-degradation vocabulary shared by discovery and federated
//! query execution.
//!
//! Sites are autonomous: they crash and leave without telling anyone.
//! Both the metadata traversal ([`crate::discovery`]) and the federated
//! data fan-out ([`crate::fedquery`]) keep the answer they can compute
//! from the reachable subtree and report what they had to skip — in the
//! same shape, so callers reason about partial answers uniformly.

use crate::WebfinditError;
use webfindit_orb::OrbError;

/// A site that could not be consulted (its co-database during
/// discovery, or its ISI during a federated fan-out).
///
/// Non-empty `degraded` lists mean the surrounding answer covers only
/// the surviving subtree of the federation; `reason` tells the user
/// which repository to blame and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFailure {
    /// The unreachable site.
    pub site: String,
    /// Distance at which the probe failed: the BFS level for discovery,
    /// always 0 for a federated fan-out (members are direct targets).
    pub distance: usize,
    /// Rendered cause (naming failure, connect refusal, deadline, …).
    pub reason: String,
}

/// Render a probe failure deterministically.
///
/// Whether a dead endpoint surfaces as "cannot resolve" or "circuit
/// breaker open" depends on how many probes hit it first — under
/// parallel fanout that is a scheduling race. Both mean the same thing
/// to the caller (the endpoint is unreachable), so they canonicalize to
/// one string and parallel output stays byte-identical to serial. The
/// breaker-vs-direct distinction is still observable in
/// [`webfindit_orb::OrbMetrics`].
pub fn degrade_reason(e: &WebfinditError) -> String {
    match e {
        WebfinditError::Orb(
            OrbError::UnknownHost { host, port } | OrbError::CircuitOpen { host, port },
        ) => format!("endpoint {host}:{port} unreachable"),
        other => other.to_string(),
    }
}

/// True when `e` is a circuit breaker refusing the call locally. In a
/// parallel wave that can be a lost half-open race rather than a dead
/// endpoint, so it is the one failure `crate::wave` re-runs.
pub(crate) fn is_breaker_rejection(e: &WebfinditError) -> bool {
    matches!(e, WebfinditError::Orb(OrbError::CircuitOpen { .. }))
}
