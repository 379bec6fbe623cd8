//! Spans the harness records around its own calls into a layer.
//!
//! A span carries its name, the op it belongs to, its parent span and
//! its start and end. The traced run enters the stack at successive
//! depths with the same inputs, so a depth's span names the next
//! shallower depth's span of the same op as its parent, and a layer's
//! self time is its span's duration minus its children's durations.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its result and the span's id.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (out, self.spans.len() as u32 - 1)
    }

    /// Record a span the caller timed itself.
    pub fn add(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        started: Instant,
        took: std::time::Duration,
    ) -> u32 {
        let start_ns = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
        });
        self.spans.len() as u32 - 1
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self times of every span called `name`, in recording order.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let all = self_times_us(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Per span: its duration minus the durations of its direct children.
/// May be negative, because a child here is a separate execution.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_us();
        }
    }
    own
}
