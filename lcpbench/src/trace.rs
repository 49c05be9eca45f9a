//! In-memory span recorder for the traced run, and per-layer self time.
//!
//! Spans are recorded only here, in the benchmark, around its calls into
//! each layer's public functions. A span's name is `layer.function`;
//! root spans are named `run.*` and their self time is the explicit
//! `unattributed` bucket. Spans of one cell or request share a
//! correlation id.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Enclosing span, 0 for roots.
    pub parent: u64,
    /// Cell or request id shared by all spans of that unit.
    pub corr: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. The parent is `parent` when given (a span
    /// opened on another thread), else this thread's innermost open span.
    pub fn span<R>(
        &self,
        name: &'static str,
        corr: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_with_id(name, corr, parent, |_| f())
    }

    /// [`Self::span`] that also hands `f` the new span's id, so work it
    /// fans out to other threads can name it as their parent.
    pub fn span_with_id<R>(
        &self,
        name: &'static str,
        corr: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent =
            parent.unwrap_or_else(|| STACK.with(|s| s.borrow().last().copied().unwrap_or(0)));
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking span")
            .push(Span {
                name,
                id,
                parent,
                corr,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Per-layer self time of a span forest.
pub struct SelfTimes {
    /// Self nanoseconds per layer (the name's prefix before the first
    /// `.`); the roots' self time is under `unattributed`.
    pub by_layer: HashMap<&'static str, u64>,
    /// Summed self time of every span (busy thread time).
    pub total_self_ns: u64,
    /// Summed wall time of the root spans.
    pub root_wall_ns: u64,
    /// Summed self time of the root spans.
    pub root_self_ns: u64,
    /// Count and summed wall time per span name.
    pub by_name: HashMap<&'static str, (u64, u64)>,
}

impl SelfTimes {
    /// Share of the roots' wall time covered by some layer's span.
    pub fn attributed_share(&self) -> f64 {
        crate::stats::ratio(
            (self.root_wall_ns - self.root_self_ns) as f64,
            self.root_wall_ns as f64,
        )
    }

    /// Share of all self time spent in `layer`.
    pub fn layer_share(&self, layer: &str) -> f64 {
        crate::stats::ratio(
            self.by_layer.get(layer).copied().unwrap_or(0) as f64,
            self.total_self_ns as f64,
        )
    }

    /// `(count, mean wall ns)` of the spans called `name`.
    pub fn mean_ns(&self, name: &str) -> (u64, f64) {
        let (count, total) = self.by_name.get(name).copied().unwrap_or((0, 0));
        (count, crate::stats::ratio(total as f64, count as f64))
    }

    /// Summed wall time of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0, |&(_, t)| t) as f64 / 1e9
    }
}

/// Self time = a span's duration minus the part of it covered by the
/// union of its children's intervals (children may run in parallel on
/// other threads).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = SelfTimes {
        by_layer: HashMap::new(),
        total_self_ns: 0,
        root_wall_ns: 0,
        root_self_ns: 0,
        by_name: HashMap::new(),
    };
    for s in spans {
        let wall = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
        let own = wall - covered;
        let root = s.name.starts_with("run.");
        let layer = if root {
            "unattributed"
        } else {
            s.name.split('.').next().unwrap_or(s.name)
        };
        *out.by_layer.entry(layer).or_default() += own;
        out.total_self_ns += own;
        if root {
            out.root_wall_ns += wall;
            out.root_self_ns += own;
        }
        let e = out.by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += wall;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Writes the spans as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"corr\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.corr, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            corr: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two overlapping children 10..50 and 40..70
        // (union 60) and a grandchild 20..30 inside the first.
        let spans = [
            span("run.pass", 1, 0, 0, 100),
            span("harness.a", 2, 1, 10, 50),
            span("engine.b", 3, 1, 40, 70),
            span("engine.c", 4, 2, 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t.by_layer["unattributed"], 40);
        assert_eq!(t.by_layer["harness"], 30);
        assert_eq!(t.by_layer["engine"], 30 + 10);
        assert_eq!(t.root_wall_ns, 100);
        assert!((t.attributed_share() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let tracer = Tracer::new();
        tracer.span_with_id("run.x", 9, None, |root| {
            tracer.span("layer.y", 9, None, || {});
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("layer.z", 9, Some(root), || {}));
            });
        });
        let spans = tracer.take();
        let root = spans.iter().find(|s| s.name == "run.x").expect("root");
        assert!(spans
            .iter()
            .filter(|s| s.name != "run.x")
            .all(|s| s.parent == root.id && s.corr == 9));
    }
}
