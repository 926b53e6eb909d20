//! In-memory span recorder for the traced run and the replay.
//!
//! Spans are recorded by the benchmark's own thread around its calls into
//! the system (push, poll, send, finish) and around each layer of the
//! single-thread replay. They stay in memory and are written out once the
//! run ends, so recording costs two clock reads and a `Vec` push.

use std::time::Instant;

use lora_sim::json_object;
use lora_sim::JsonValue;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`push`, `replay.detect`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder; a disabled one only runs the wrapped calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that stays open until [`Tracer::close`]; returns its id
    /// (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if self.enabled {
            let t = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: t,
                end_ns: t,
                parent,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// Duration of the span recorded last, seconds (0 when disabled).
    pub fn last_s(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::secs)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    json_object! {
                        "name" => s.name,
                        "start_ns" => s.start_ns,
                        "end_ns" => s.end_ns,
                        "parent" => s.parent.map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                    }
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None);
        t.span("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let child_s = t.last_s();
        t.close(root);
        assert!(child_s >= 0.02);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.total_s("root") >= child_s);
        assert_eq!(t.total_s("none"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("root", None);
        assert_eq!(t.span("x", Some(root), || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
