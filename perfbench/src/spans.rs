//! In-memory spans of the traced mode.
//!
//! Each span has a name, a start, an end, its parent span and the run
//! (repetition) it belongs to. Spans are recorded by the benchmark around
//! its calls into the program's public functions, kept in memory, and
//! written out when the benchmark ends. A span's self time is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::clock::{self, Stamp};
use crate::stats::median;

/// One closed (or still open) span; times are seconds from the log origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span times, e.g. `core.schedule`.
    pub name: &'static str,
    /// Run (repetition) the span belongs to.
    pub run: u32,
    /// Index of the enclosing span, `None` for a run's root.
    pub parent: Option<usize>,
    /// Start, seconds from the log origin.
    pub start: f64,
    /// End, seconds from the log origin.
    pub end: f64,
}

/// Spans of one benchmark process.
#[derive(Debug)]
pub struct SpanLog {
    origin: Stamp,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose time origin is now.
    pub fn new() -> Self {
        Self {
            origin: clock::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn at(&self, t: Stamp) -> f64 {
        clock::secs_between(self.origin, t)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.at(clock::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.at(clock::now());
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Adds a closed span timed by the caller, as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Stamp, end: Stamp) {
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start,
            end,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`SpanLog::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time((s.start, s.end), c))
            .collect()
    }

    /// Per run, the summed self time of each span name.
    pub fn self_by_run(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.run).or_default().entry(s.name).or_insert(0.0) += st;
        }
        out
    }

    /// Median over measured runs (run 0 is a warm-up) of the summed self
    /// time of spans named `name`; 0 when no run has such a span.
    pub fn median_self(&self, name: &str) -> f64 {
        let per_run: Vec<f64> = self
            .self_by_run()
            .iter()
            .filter(|(&run, _)| run > 0)
            .map(|(_, m)| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_run).unwrap_or(0.0)
    }

    /// Median over measured runs of the share of each run's root span that
    /// the self times of its descendants cover.
    pub fn coverage(&self) -> f64 {
        let mut roots: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            if s.parent.is_none() && s.run > 0 {
                let e = roots.entry(s.run).or_insert((0.0, 0.0));
                e.0 += s.end - s.start;
                e.1 += st;
            }
        }
        let shares: Vec<f64> = roots.values().map(|&(dur, own)| 1.0 - own / dur).collect();
        median(&shares).unwrap_or(0.0)
    }

    /// The spans as JSON, self times included.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(self.self_times())
            .enumerate()
            .map(|(id, (s, self_s))| {
                json!({
                    "id": id,
                    "name": s.name,
                    "run": s.run,
                    "parent": s.parent,
                    "start_s": s.start,
                    "end_s": s.end,
                    "self_s": self_s,
                })
            })
            .collect();
        json!({ "spans": spans })
    }
}

/// Duration of `span` minus the length of the union of `children`, each
/// clipped to the span. Overlapping children (spans from concurrent work)
/// are counted once.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    ((hi - lo) - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            run: 0,
            parent,
            start,
            end,
        }
    }

    fn log_of(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            origin: clock::now(),
            run: 0,
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_time((1.0, 4.0), &[]), 3.0);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Union of [1,4] and [2,6] is [1,6]: 5 covered out of 10.
        assert_eq!(self_time((0.0, 10.0), &[(2.0, 6.0), (1.0, 4.0)]), 5.0);
        // A child inside another adds nothing.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]), 2.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        assert_eq!(self_time((2.0, 6.0), &[(7.0, 9.0)]), 4.0);
        assert_eq!(self_time((2.0, 6.0), &[(0.0, 10.0)]), 0.0);
    }

    #[test]
    fn nested_spans_only_subtract_direct_children() {
        // run [0,10] > sim [1,9] > sched [2,5], [4,6] (overlapping).
        let log = log_of(vec![
            span("run", None, 0.0, 10.0),
            span("sim", Some(0), 1.0, 9.0),
            span("sched", Some(1), 2.0, 5.0),
            span("sched", Some(1), 4.0, 6.0),
        ]);
        let st = log.self_times();
        assert_eq!(st, vec![2.0, 4.0, 3.0, 2.0]);
        let by_name = &log.self_by_run()[&0];
        assert_eq!(by_name["run"], 2.0);
        assert_eq!(by_name["sim"], 4.0);
        assert_eq!(by_name["sched"], 5.0);
        // Self times of a tree without overlaps add up to the root duration;
        // here the overlap [4,5] is counted in both sched spans.
        assert_eq!(st.iter().sum::<f64>(), 11.0);
    }

    #[test]
    fn enter_exit_and_record_build_the_tree() {
        let mut log = SpanLog::new();
        log.set_run(3);
        let root = log.enter("run");
        let t0 = clock::now();
        let child = log.enter("sim");
        log.record("sched", t0, clock::now());
        log.exit(child);
        log.exit(root);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(child));
        assert!(s.iter().all(|x| x.run == 3 && x.end >= x.start));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn exit_out_of_order_panics() {
        let mut log = SpanLog::new();
        let a = log.enter("a");
        let _b = log.enter("b");
        log.exit(a);
    }
}
