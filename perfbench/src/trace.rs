//! In-memory spans and allocation counting for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the library's public functions, and written out when the run ends.
//! Every span has a name, a start, an end and a parent; spans of one
//! campaign cell, transfer group or served job share a `group` id.

use bea_core::telemetry::JsonObject;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a process-wide count of allocation calls
/// (`alloc`, `alloc_zeroed` and `realloc`; frees are not counted).
pub struct CountingAlloc;

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One timed interval. Times are microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The cell, transfer group or job the span belongs to (`0`: none).
    pub group: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Work items the span covered (images for detector calls).
    pub items: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Collects spans in memory; cheap enough to share across worker threads.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// A fresh span id (never `0`).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span with a known id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        group: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let span =
            Span { id, parent, name, group, start_us: self.us(start), end_us: self.us(end), items };
        self.spans.lock().expect("span buffer lock poisoned by a panicking recorder").push(span);
    }

    /// Records a span under a fresh id and returns the id.
    pub fn record(
        &self,
        parent: u64,
        name: &'static str,
        group: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> u64 {
        let id = self.id();
        self.record_with_id(id, parent, name, group, start, end, items);
        id
    }

    /// Records a span whose times are already in microseconds.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock poisoned by a panicking recorder").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned by a panicking recorder").clone()
    }

    /// Moves every span under `parent` when it lies inside one of the
    /// `container` spans of the same group, e.g. detector calls under
    /// the generation that made them. Spans outside every container keep
    /// their parent.
    pub fn reparent(&self, child: &str, container: &str) {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        let containers: Vec<(u64, u64, f64, f64)> = spans
            .iter()
            .filter(|s| s.name == container)
            .map(|s| (s.group, s.id, s.start_us, s.end_us))
            .collect();
        for span in spans.iter_mut().filter(|s| s.name == child) {
            if let Some(&(_, id, _, _)) = containers
                .iter()
                .find(|(g, _, a, b)| *g == span.group && *a <= span.start_us && span.end_us <= *b)
            {
                span.parent = id;
            }
        }
    }
}

/// Checks that every child lies inside its parent, that self times are
/// non-negative, and that each group of `group_name` spans has exactly
/// one span (one id per cell or job).
pub fn check_nesting(spans: &[Span], group_names: &[&str]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".into());
    }
    // Float rounding of the microsecond conversion; far below any span.
    const SLACK_US: f64 = 1e-3;
    for span in spans {
        if span.end_us + SLACK_US < span.start_us {
            return Err(format!("span {} ({}) ends before it starts", span.id, span.name));
        }
        if span.parent == 0 {
            continue;
        }
        let Some(parent) = by_id.get(&span.parent) else {
            return Err(format!("span {} ({}) has a missing parent", span.id, span.name));
        };
        if span.start_us + SLACK_US < parent.start_us || span.end_us > parent.end_us + SLACK_US {
            return Err(format!(
                "span {} ({}) [{:.1}, {:.1}] lies outside its parent {} ({}) [{:.1}, {:.1}]",
                span.id,
                span.name,
                span.start_us,
                span.end_us,
                parent.id,
                parent.name,
                parent.start_us,
                parent.end_us
            ));
        }
    }
    for (id, self_ms) in self_times(spans) {
        if self_ms < -1e-6 {
            return Err(format!("span {id} has negative self time {self_ms} ms"));
        }
    }
    for name in group_names {
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for span in spans.iter().filter(|s| s.name == *name) {
            *seen.entry(span.group).or_default() += 1;
            if span.group == 0 {
                return Err(format!("{name} span {} has no group id", span.id));
            }
        }
        if let Some((group, n)) = seen.iter().find(|(_, n)| **n != 1) {
            return Err(format!("group {group} has {n} {name} spans, expected one"));
        }
    }
    Ok(())
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> Vec<(u64, f64)> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push((span.start_us, span.end_us));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0.0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut current: Option<(f64, f64)> = None;
                for &(a, b) in intervals.iter() {
                    let (a, b) = (a.max(span.start_us), b.min(span.end_us));
                    if b <= a {
                        continue;
                    }
                    current = match current {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = current {
                    covered += cb - ca;
                }
            }
            (span.id, (span.end_us - span.start_us - covered) / 1e3)
        })
        .collect()
}

/// Total and self time per span name, in milliseconds, sorted by name.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let self_ms: HashMap<u64, f64> = self_times(spans).into_iter().collect();
    let mut totals: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.ms();
        entry.2 += self_ms.get(&span.id).copied().unwrap_or(0.0);
    }
    totals.into_iter().map(|(name, (n, total, own))| (name, n, total, own)).collect()
}

/// One JSON line per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let self_ms: HashMap<u64, f64> = self_times(spans).into_iter().collect();
    let mut out = String::new();
    for span in spans {
        out.push_str(
            &JsonObject::new()
                .integer("id", span.id)
                .integer("parent", span.parent)
                .string("name", span.name)
                .integer("group", span.group)
                .float("start_us", span.start_us)
                .float("end_us", span.end_us)
                .float("self_ms", self_ms.get(&span.id).copied().unwrap_or(0.0))
                .integer("items", span.items)
                .finish(),
        );
        out.push('\n');
    }
    out
}
