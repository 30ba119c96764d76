//! The benchmark's own spans, opened around each call into a layer.
//!
//! Spans live in memory while the workload runs and are written out as
//! JSON lines when it ends. A disabled tracer records nothing and runs the
//! wrapped call directly, so the untraced run measures the program alone.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's creation;
/// `parent` 0 marks a root, `request` 0 work that belongs to no request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id (0 when disabled), for a span recorded later with
    /// [`record`](Self::record) whose children are recorded first.
    pub fn next_id(&self) -> u64 {
        if !self.on {
            return 0;
        }
        // Relaxed: ids only need to be unique; they publish no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that it can parent spans of its own.
    pub fn span<T>(&self, name: &str, parent: u64, request: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// Records a span whose bounds the caller measured.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The part of `[start, end)` not covered by any of `children`, which may
/// overlap each other and stick out of the parent.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start.min(end)) - covered
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Durations in seconds of the spans named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Summed duration in seconds of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    durations_s(spans, name).iter().sum()
}

/// Per span name: count, total and self seconds, sorted by self time.
pub fn summary(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&str, (usize, f64, f64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns() as f64 * 1e-9;
        e.2 += selfs.get(&s.id).copied().unwrap_or(0) as f64 * 1e-9;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n.to_string(), c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        assert_eq!(self_time_ns(0, 100, &[]), 100);
        assert_eq!(self_time_ns(0, 100, &[(10, 30)]), 80);
        // Overlapping children count their union once: [10, 50) covered.
        assert_eq!(self_time_ns(0, 100, &[(10, 30), (20, 50)]), 60);
        // Nested child inside another.
        assert_eq!(self_time_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns(10, 20, &[(0, 15), (18, 40)]), 3);
        // Disjoint, unsorted, and one entirely outside.
        assert_eq!(self_time_ns(0, 100, &[(70, 80), (0, 10), (200, 300)]), 80);
        // Fully covered.
        assert_eq!(self_time_ns(0, 100, &[(0, 60), (50, 100)]), 0);
    }

    #[test]
    fn self_times_only_subtract_direct_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 40, 70),
            span(4, 2, 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, |id| id + 5), 5);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", 0, 7, |id| t.span("inner", id, 7, |id2| (id, id2)));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, inner.0);
        assert_eq!(spans[0].id, inner.1);
        assert!(spans.iter().all(|s| s.request == 7));
    }
}
