//! Layered execution traces — the instrumented view of Figure 3.
//!
//! A [`Trace`] collects timestamped events tagged with the WebFINDIT
//! layer they occurred in, so a query's journey (query layer →
//! communication layer → metadata layer → data layer and back) can be
//! printed exactly as the paper's layer diagram describes it.

use std::fmt;
use std::time::Instant;

/// The four layers of the WebFINDIT architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Browser + query processor.
    Query,
    /// ORBs and IIOP.
    Communication,
    /// Co-database servers.
    Metadata,
    /// Databases and information source interfaces.
    Data,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Query => "query",
            Layer::Communication => "communication",
            Layer::Metadata => "meta-data",
            Layer::Data => "data",
        };
        f.write_str(s)
    }
}

/// One trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Which layer produced it.
    pub layer: Layer,
    /// What happened.
    pub message: String,
    /// Microseconds since the trace began.
    pub at_micros: u128,
}

/// An ordered event collector.
pub struct Trace {
    started: Instant,
    events: Vec<TraceEvent>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Start an empty trace.
    pub fn new() -> Trace {
        Trace {
            started: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Record an event in `layer`.
    pub fn event(&mut self, layer: Layer, message: impl Into<String>) {
        self.events.push(TraceEvent {
            layer,
            message: message.into(),
            at_micros: self.started.elapsed().as_micros(),
        });
    }

    /// Record an event in `layer` annotated with a counter set: every
    /// `(label, value)` pair of a `counter_set!` snapshot's `iter()`,
    /// in declaration order, as `message [label value, label value]`.
    /// Each layer passes the set it owns — the ORB's traffic counters,
    /// discovery's fan-out and cache counters, the coordinator's
    /// federated counters, a site's data-layer counters — so a
    /// rendered trace shows every statistic that layer records.
    pub fn counters(
        &mut self,
        layer: Layer,
        message: impl Into<String>,
        counters: impl IntoIterator<Item = (&'static str, u64)>,
    ) {
        let listed: Vec<String> = counters
            .into_iter()
            .map(|(label, value)| format!("{label} {value}"))
            .collect();
        self.event(layer, format!("{} [{}]", message.into(), listed.join(", ")));
    }

    /// The collected events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that occurred in `layer`.
    pub fn in_layer(&self, layer: Layer) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.layer == layer).collect()
    }

    /// Render as an indented layer transcript (indentation depth encodes
    /// the layer: query < communication < metadata/data).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let indent = match e.layer {
                Layer::Query => 0,
                Layer::Communication => 1,
                Layer::Metadata | Layer::Data => 2,
            };
            out.push_str(&"  ".repeat(indent));
            out.push_str(&format!("[{}] {}\n", e.layer, e.message));
        }
        out
    }
}

/// Test support for the modules that declare a counter set: give every
/// counter in `table` a distinct value, then check that the snapshot
/// `list`s each one exactly once under its label, in table order, and
/// that a trace renders exactly that listing.
#[cfg(test)]
pub(crate) fn assert_listed_and_rendered_once<I>(
    table: &[(&std::sync::atomic::AtomicU64, &'static str)],
    list: impl Fn() -> I,
) where
    I: Iterator<Item = (&'static str, u64)>,
{
    let mut expected = Vec::new();
    for ((counter, label), value) in table.iter().zip(1..) {
        counter.store(value, std::sync::atomic::Ordering::Relaxed);
        expected.push((*label, value));
    }
    assert_eq!(list().collect::<Vec<_>>(), expected);
    let mut t = Trace::new();
    t.counters(Layer::Query, "set", list());
    let rendered = t.render();
    let bracket = rendered.trim_end().strip_prefix("[query] set [").unwrap();
    let pairs: Vec<&str> = bracket.strip_suffix(']').unwrap().split(", ").collect();
    let wanted: Vec<String> = expected.iter().map(|(l, v)| format!("{l} {v}")).collect();
    assert_eq!(pairs, wanted);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_order_and_layer() {
        let mut t = Trace::new();
        t.event(Layer::Query, "parse");
        t.event(Layer::Communication, "GIOP request");
        t.event(Layer::Metadata, "co-database lookup");
        t.event(Layer::Data, "SQL execution");
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.in_layer(Layer::Communication).len(), 1);
        let rendered = t.render();
        assert!(rendered.contains("[query] parse"));
        assert!(rendered.contains("    [data] SQL execution"));
        // Monotonic timestamps.
        let times: Vec<u128> = t.events().iter().map(|e| e.at_micros).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn counters_render_each_pair_once_in_order() {
        let mut t = Trace::new();
        t.counters(
            Layer::Data,
            "SQL executed by the wrapper",
            [("rows scanned", 40), ("index hits", 3), ("undo", 1)],
        );
        assert_eq!(
            t.render(),
            "    [data] SQL executed by the wrapper [rows scanned 40, index hits 3, undo 1]\n"
        );
    }
}
