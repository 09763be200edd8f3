//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span has a name (`layer.call`), a start, an end, its parent, and the
//! item it belongs to (one machine or network job). Spans are kept in
//! memory and reduced when the run ends: a layer's self time is its
//! spans' durations minus the parts their child spans cover, and the
//! item root spans' own self time is the `core.unattributed` remainder.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of every item; its self time is what no layer
/// span covers.
pub const ROOT: &str = "core.unattributed";

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Item (job) the span belongs to.
    pub item: u32,
}

/// Collects spans and layer counters; a disabled recorder records
/// nothing, so the untraced run shares the code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: u32,
    counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder that keeps spans and counters when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.item += 1;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            item: self.item,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Closes every span left open by a panic inside an item.
    pub fn unwind(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let c = self.counters.entry(name).or_insert(0.0);
            *c = c.max(v);
        }
    }

    /// Hands out the recorded spans and counters and starts afresh.
    pub fn take(&mut self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        self.item = 0;
        (
            std::mem::take(&mut self.spans),
            std::mem::take(&mut self.counters),
        )
    }
}

/// Self time per span name, and the traced total they must add up to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Nanoseconds of self time per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of the item root spans' durations.
    pub total_ns: u64,
}

/// Reduces spans to self times and checks that they reconcile: every
/// child lies inside its parent, children do not overlap, and self times
/// add up exactly to the traced total.
///
/// # Errors
///
/// The first span that breaks nesting, or a sum that does not add up.
pub fn breakdown(spans: &[Span]) -> Result<Breakdown, String> {
    let mut children_ns = vec![0u64; spans.len()];
    let mut last_child_end = vec![None::<u64>; spans.len()];
    let mut out = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        match s.parent {
            None => out.total_ns += s.end - s.start,
            Some(p) => {
                let ps = spans
                    .get(p)
                    .filter(|_| p < i)
                    .ok_or_else(|| format!("span {i} `{}` has a bad parent", s.name))?;
                if s.start < ps.start || s.end > ps.end || s.item != ps.item {
                    return Err(format!(
                        "span {i} `{}` escapes its parent `{}`",
                        s.name, ps.name
                    ));
                }
                if last_child_end[p].is_some_and(|e| s.start < e) {
                    return Err(format!("span {i} `{}` overlaps a sibling", s.name));
                }
                last_child_end[p] = Some(s.end);
                children_ns[p] += s.end - s.start;
            }
        }
    }
    for (s, child) in spans.iter().zip(&children_ns) {
        *out.self_ns.entry(s.name).or_insert(0) += (s.end - s.start) - child;
    }
    let sum: u64 = out.self_ns.values().sum();
    if sum != out.total_ns {
        return Err(format!(
            "self times add up to {sum} ns, traced total is {} ns",
            out.total_ns
        ));
    }
    Ok(out)
}
