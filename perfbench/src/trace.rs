//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API (the program itself is not instrumented further). A span
//! records its name, its parent (so the spans of one trial hang off that
//! trial's root span), its start and end, and the heap allocations the
//! thread made inside it (counted by
//! `emerge_obs::alloccount::CountingAllocator`, the benchmark binary's
//! global allocator). Spans stay in memory until the run ends; then
//! [`Tracer::layers`] folds them into per-layer totals, where a layer's
//! self time is its span time minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use emerge_obs::alloccount::allocations;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

/// Records spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// An open span, closed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(usize);

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Closed spans.
    pub calls: u64,
    /// Total span time, nanoseconds.
    pub total_ns: u64,
    /// Span time not covered by child spans, nanoseconds.
    pub self_ns: u64,
    /// Allocations inside the span and not inside a child span.
    pub self_allocs: u64,
}

impl Layer {
    /// Mean span time per call, microseconds (0 without calls).
    pub fn total_us(&self) -> f64 {
        per_call(self.total_ns as f64 / 1e3, self.calls)
    }

    /// Mean self time per call, microseconds (0 without calls).
    pub fn self_us(&self) -> f64 {
        per_call(self.self_ns as f64 / 1e3, self.calls)
    }

    /// Mean self allocations per call (0 without calls).
    pub fn allocs_per_call(&self) -> f64 {
        per_call(self.self_allocs as f64, self.calls)
    }
}

/// `total ÷ calls`, or 0 without calls.
pub fn per_call(total: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total / calls as f64
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let rec = SpanRec {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: allocations(),
        };
        self.spans.push(rec);
        self.open.push(idx);
        Open(idx)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let end = self.now_ns();
        let allocs = allocations();
        let popped = self.open.pop();
        assert_eq!(popped, Some(span.0), "spans must close innermost first");
        let rec = &mut self.spans[span.0];
        rec.end_ns = end;
        rec.allocs = allocs.wrapping_sub(rec.allocs);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Folds every closed span into per-layer totals keyed by name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for rec in &self.spans {
            if let Some(p) = rec.parent {
                child_ns[p] += rec.end_ns - rec.start_ns;
                child_allocs[p] += rec.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, rec) in self.spans.iter().enumerate() {
            let total = rec.end_ns - rec.start_ns;
            let layer = out.entry(rec.name).or_default();
            layer.calls += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(child_ns[i]);
            layer.self_allocs += rec.allocs.saturating_sub(child_allocs[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_total() {
        let mut t = Tracer::new();
        let root = t.enter("trial");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        let layers = t.layers();
        let (root, a, b) = (layers["trial"], layers["a"], layers["b"]);
        assert_eq!(root.calls, 1);
        assert_eq!(root.self_ns + a.total_ns + b.total_ns, root.total_ns);
        assert!(a.self_ns >= 2_000_000 && b.self_ns >= 1_000_000);
    }
}
