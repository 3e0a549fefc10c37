//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed in thread CPU nanoseconds and
//! linked to the span that caused it. Spans carry the key of the program
//! or cell they belong to and the round they ran in, so a layer's cost is
//! aggregated the same way as the end-to-end time: best round per key,
//! summed over keys.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

use crate::host::thread_cpu_ns;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `"snap.resume"`.
    pub name: &'static str,
    /// Program or cell the span belongs to.
    pub key: usize,
    /// Round it ran in.
    pub round: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Thread CPU time at entry, ns.
    pub start_ns: u64,
    /// Thread CPU time at exit, ns.
    pub end_ns: u64,
}

/// Records spans while enabled; a disabled tracer only runs the closures.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Key stamped on spans opened from now on.
    pub key: usize,
    /// Round stamped on spans opened from now on.
    pub round: usize,
}

impl Tracer {
    /// A tracer that records only while `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            key: self.key,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns: thread_cpu_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = thread_cpu_ns();
        out
    }

    /// Seconds spent in spans named `name` with a key in `keys`: per key,
    /// the round with the least total time in them, summed over keys.
    pub fn best_secs(&self, name: &str, keys: Range<usize>) -> f64 {
        let mut per_round: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && keys.contains(&s.key))
        {
            *per_round.entry((s.key, s.round)).or_default() += s.end_ns - s.start_ns;
        }
        let mut best: BTreeMap<usize, u64> = BTreeMap::new();
        for ((key, _), ns) in per_round {
            best.entry(key)
                .and_modify(|b| *b = (*b).min(ns))
                .or_insert(ns);
        }
        best.values().sum::<u64>() as f64 / 1e9
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"key\": {}, \"round\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.key, s.round, s.start_ns, s.end_ns
            );
        }
        out
    }
}
