//! The traced run's spans.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions (the program itself carries no
//! instrumentation), kept in memory, and written once when the run ends.
//! A layer's self time is its spans' duration minus their child spans'
//! durations; every caller records children one after another inside
//! their parent.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `gpu-sim.run_epoch`.
    pub name: &'static str,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One layer's totals over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed span duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The spans of one run, in memory until [`SpanLog::write`].
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log; span times count from now.
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a span and returns its index, for children to name as
    /// their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span { name, start_ns: ns(start), end_ns: ns(end), parent };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Durations of the spans named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Mean duration of the spans named `name`, in ms (0 without spans).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Summed duration of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per-layer totals, in order of first appearance.
    pub fn layers(&self) -> Vec<Layer> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut layers: Vec<Layer> = Vec::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let total = s.duration_ns();
            let own = total - kids.iter().map(|&k| self.spans[k].duration_ns()).sum::<u64>();
            match layers.iter_mut().find(|l| l.name == s.name) {
                Some(l) => {
                    l.count += 1;
                    l.total_ns += total;
                    l.self_ns += own;
                }
                None => {
                    layers.push(Layer { name: s.name, count: 1, total_ns: total, self_ns: own })
                }
            }
        }
        layers
    }

    /// Writes the layer totals and every span to `path` as JSON.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let layers = self.layers();
        let index = |name: &str| layers.iter().position(|l| l.name == name).unwrap_or(0);
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"layers\": [");
        for (i, l) in layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                l.name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
        out.push_str(
            "], \"span_fields\": [\"layer\", \"start_ns\", \"end_ns\", \"parent\"], \"spans\": [",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(out, "{sep}[{}, {}, {}, {parent}]", index(s.name), s.start_ns, s.end_ns);
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut log = SpanLog::new();
        let t = log.origin;
        let at = |ns| t + Duration::from_nanos(ns);
        let step = log.push("step", at(0), at(100), None);
        log.push("a", at(10), at(30), Some(step));
        log.push("b", at(30), at(50), Some(step));
        log.push("c", at(60), at(70), Some(step));
        log.push("step", at(200), at(210), None); // no children
        let layers = log.layers();
        assert_eq!(layers[0], Layer { name: "step", count: 2, total_ns: 110, self_ns: 50 + 10 });
        assert_eq!(layers[1], Layer { name: "a", count: 1, total_ns: 20, self_ns: 20 });
        assert_eq!(layers.len(), 4);
        assert_eq!(log.total_ns("b"), 20);
        assert!((log.mean_ms("step") - 55e-6).abs() < 1e-12);
        assert_eq!(log.mean_ms("missing"), 0.0);
    }

    #[test]
    fn written_once_as_json() {
        let mut log = SpanLog::new();
        let t = log.origin;
        let p = log.push("outer", t, t + Duration::from_micros(5), None);
        log.push("inner", t, t + Duration::from_micros(2), Some(p));
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces").join("unit-test.json");
        log.write(&path, "unit", 7).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains(
            "\"name\": \"outer\", \"count\": 1, \"total_ms\": 0.005, \"self_ms\": 0.003"
        ));
        assert!(text.contains("[[0, 0, 5000, -1], [1, 0, 2000, 0]]"), "{text}");
    }
}
