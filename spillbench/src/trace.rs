//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a workspace crate: a name, start and end (nanoseconds since the
//! recorder was created), the parent span, and the id of the unit of work
//! they belong to — one id per `(pass, module, function)`. Nothing is
//! written while recording; [`Recorder::to_json`] serializes the spans
//! once the run has ended.

use spillopt_driver::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifies the unit of work a span belongs to. `function` is `None`
/// for module-level spans (parsing, interpretation of a module's train
/// runs, insertion, printing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkId {
    /// Pass number within the run (`0` is the set-up pass).
    pub pass: usize,
    /// Module index within the pass.
    pub module: usize,
    /// Function index within the module, if the span is per function.
    pub function: Option<usize>,
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `regalloc.color`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    /// The unit of work the span belongs to.
    pub id: WorkId,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Inclusive and self time of one span name, summed over all its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_ns: u64,
}

/// Records nested spans. A disabled recorder runs the closures without
/// reading the clock, so the same replay code serves untraced checks.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Indices (into `spans`) of the currently open spans; their end is
    /// filled in when they close.
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, id: WorkId, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Turns span recording on or off (closures still run when off).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name inclusive and self times.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Sum of the durations of top-level spans: the traced wall time.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Total inclusive milliseconds of spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// The spans as a JSON array (written out when the run ends).
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", Json::str(s.name))
                        .with("start_ns", Json::UInt(s.start_ns))
                        .with("end_ns", Json::UInt(s.end_ns))
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        )
                        .with("pass", Json::UInt(s.id.pass as u64))
                        .with("module", Json::UInt(s.id.module as u64))
                        .with(
                            "function",
                            s.id.function.map_or(Json::Null, |f| Json::UInt(f as u64)),
                        )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        let id = WorkId {
            pass: 1,
            module: 0,
            function: Some(0),
        };
        rec.span("outer", id, |rec| {
            rec.span("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let times = rec.layer_times();
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.root_ns(), outer.total_ns);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let id = WorkId {
            pass: 0,
            module: 0,
            function: None,
        };
        let v = rec.span("x", id, |_| 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }
}
