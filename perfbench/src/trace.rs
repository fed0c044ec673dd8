//! Spans recorded from the benchmark's own code around each call into a
//! layer. Spans stay in memory and are written out once, at the end.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: what was called, when, what caused it, and which
/// request it served (0 when it served none in particular).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording it as span `name` under `parent` for `request`.
    /// `f` receives the span's id so nested calls can name it as parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.record(Span { id, parent, request, name, start_ns: start, end_ns: end });
        out
    }

    /// Records a span whose ends were timed by the caller (for example a
    /// request sent by one thread and answered on another).
    pub fn record_interval(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.record(Span { id, parent: 0, request, name, start_ns: ns(start), end_ns: ns(end) });
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Durations in µs of every span called `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Writes the first `limit` spans, one JSON object per line; returns
    /// how many were written.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter().take(limit) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len().min(limit))
    }
}

/// Self time of each span: its duration minus the union of the intervals
/// its direct children cover. Returned per span id, in µs.
pub fn self_times_us(spans: &[Span]) -> Vec<(u64, f64)> {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
    for c in spans.iter().filter(|c| c.parent != 0) {
        children.entry(c.parent).or_default().push(c);
    }
    spans
        .iter()
        .map(|p| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&p.id)
                .into_iter()
                .flatten()
                .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (p.id, (p.end_ns - p.start_ns - covered) as f64 / 1e3)
        })
        .collect()
}

impl Tracer {
    /// Self times (µs) of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let wanted: std::collections::HashSet<u64> =
            spans.iter().filter(|s| s.name == name).map(|s| s.id).collect();
        let related: Vec<Span> = spans
            .iter()
            .filter(|s| wanted.contains(&s.id) || wanted.contains(&s.parent))
            .copied()
            .collect();
        self_times_us(&related)
            .into_iter()
            .filter(|(id, _)| wanted.contains(id))
            .map(|(_, t)| t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 0, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 µs; children 10..30 and 20..50 overlap (union 40 µs)
        // and 60..70; a grandchild does not count against the parent.
        let k = 1000;
        let spans = [
            span(1, 0, 0, 100 * k),
            span(2, 1, 10 * k, 30 * k),
            span(3, 1, 20 * k, 50 * k),
            span(4, 1, 60 * k, 70 * k),
            span(5, 4, 61 * k, 62 * k),
        ];
        let t = self_times_us(&spans);
        assert_eq!(t[0], (1, 50.0));
        assert_eq!(t[3], (4, 9.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", 0, 0, |id| id), 0);
        assert_eq!(t.len(), 0);
        let t = Tracer::new(true);
        let inner = t.span("outer", 0, 7, |id| t.span("inner", id, 7, |_| id));
        assert_eq!(t.len(), 2);
        assert_eq!(t.durations_us("outer").len(), 1);
        assert_eq!(t.self_times_us("outer").len(), 1);
        assert!(inner > 0);
    }
}
