//! Spans recorded from the benchmark's own code around each call into a
//! layer's public functions, kept in memory and written out at the end as
//! Chrome trace-event JSON, plus the per-layer self-time table.
//!
//! With tracing off a span costs one branch and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no span" (tracing off, or root).
pub type SpanId = u64;

/// One finished span.
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    thread: u64,
}

/// In-memory span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` makes every span a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named `layer.call` under `parent`; it ends when the guard
    /// drops.
    pub fn span(&self, name: &'static str, parent: SpanId) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent,
                name,
                start: None,
            };
        }
        SpanGuard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Called from `Drop`, so it must not panic: a recorder poisoned by a
    /// panicking thread drops the span.
    fn record(&self, span: Span) {
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Chrome trace-event JSON of every recorded span; `meta` goes into
    /// `otherData`.
    pub fn chrome_json(&self, workload: &str, run: &str, meta: &[(&str, String)]) -> String {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let layer = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \
                 \"workload\": \"{workload}\", \"run\": \"{run}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                s.parent
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n], \"otherData\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"))
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}\n");
        out
    }

    /// Self time per span name over every tree rooted at a span named
    /// `root`: a span's duration minus the part its children cover. The
    /// roots' own self time is returned as `residual`; the rows plus the
    /// residual add up to `total`, the summed root durations.
    pub fn self_times(&self, root: &str) -> SelfTimes {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let up: BTreeMap<SpanId, (SpanId, &str)> =
            spans.iter().map(|s| (s.id, (s.parent, s.name))).collect();
        let under_root = |s: &Span| {
            let (mut parent, mut name) = (s.parent, s.name);
            loop {
                if name == root {
                    return true;
                }
                match up.get(&parent) {
                    Some(&(p, n)) => (parent, name) = (p, n),
                    None => return false,
                }
            }
        };
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut table = SelfTimes::default();
        for s in spans.iter().filter(|s| under_root(s)) {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let own_s = own as f64 / 1e9;
            if s.name == root {
                table.total += dur as f64 / 1e9;
                table.residual += own_s;
            } else {
                *table.rows.entry(s.name).or_default() += own_s;
            }
        }
        table
    }
}

/// Result of [`Tracer::self_times`].
#[derive(Default)]
pub struct SelfTimes {
    /// Summed self seconds per span name.
    pub rows: BTreeMap<&'static str, f64>,
    /// Self seconds of the roots (time in no traced call).
    pub residual: f64,
    /// Summed duration of the roots.
    pub total: f64,
}

impl SelfTimes {
    /// Move `secs` of `from`'s self time into a derived row `to` (a split
    /// the benchmark knows from the layer's own stats, not from a span).
    pub fn split(&mut self, from: &'static str, to: &'static str, secs: f64) {
        *self.rows.entry(from).or_default() -= secs;
        *self.rows.entry(to).or_default() += secs;
    }

    /// The table as text: one row per layer call, the residual, and the
    /// total they add up to.
    pub fn render(&self) -> String {
        let mut out = String::from("self time by layer (traced operations):\n");
        let total = self.total.max(f64::MIN_POSITIVE);
        for (name, s) in &self.rows {
            writeln!(out, "  {name:<28} {s:>12.6} s  {:>6.2}%", 100.0 * s / total)
                .expect("writing to a String cannot fail");
        }
        let sum: f64 = self.rows.values().sum::<f64>() + self.residual;
        writeln!(
            out,
            "  {:<28} {:>12.6} s  {:>6.2}%\n  {:<28} {:>12.6} s  (parts + residual = {sum:.6} s)",
            "residual",
            self.residual,
            100.0 * self.residual / total,
            "total",
            self.total
        )
        .expect("writing to a String cannot fail");
        out
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// This span's id, to parent child spans under it (0 with tracing off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let t = self.tracer;
        let start_ns = start.duration_since(t.epoch).as_nanos() as u64;
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        t.record(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns,
            end_ns,
            thread: thread_number(),
        });
    }
}

/// A small stable number for the calling thread (Chrome's `tid`).
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_plus_residual_add_up() {
        let t = Tracer::new(true);
        {
            let op = t.span("op", 0);
            let a = t.span("tensor.gram", op.id());
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(a);
            let _b = t.span("tensor.ttm", op.id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let tab = t.self_times("op");
        let sum: f64 = tab.rows.values().sum::<f64>() + tab.residual;
        assert!((sum - tab.total).abs() < 1e-9, "{sum} vs {}", tab.total);
        assert!(tab.rows["tensor.gram"] >= 0.002);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("op", 0).id(), 0);
        assert_eq!(t.self_times("op").total, 0.0);
    }
}
