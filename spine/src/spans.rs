//! In-memory spans recorded by the benchmark around its calls into
//! each layer (choosing-metrics §4).
//!
//! A span is a name, the layer it is charged to, start and end in
//! nanoseconds since the tracer's origin, the span that caused it, and
//! the job it belongs to.  Spans are only recorded in the traced run: a
//! disabled tracer reads no clock and stores nothing, so the plain run
//! that yields the end-to-end numbers pays one branch per call site.
//! Spans inside the program are a later change (ROADMAP item 4); where
//! the program already reports durations (the per-superstep sink, the
//! `status` op's queue and run times) the benchmark lays them out as
//! child spans of the call that produced them.

use std::time::Instant;

use serde::Content;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same span list.
    pub parent: Option<usize>,
    /// Shared by all spans of one job or update (0 = none).
    pub job: u64,
}

/// A per-thread span recorder; all tracers of a run share one origin so
/// their spans merge onto one time line.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
        }
    }

    /// A recording tracer on the time line that starts at `origin`.
    pub fn on(origin: Instant) -> Self {
        Tracer {
            origin: Some(origin),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Open a span; close it with [`Tracer::end`].  Returns a handle
    /// that is meaningless (and ignored) when the tracer is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        if !self.enabled() {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.enabled() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Lay `durations_ns` out back to back as children of `parent`,
    /// starting `offset_ns` into it — for durations the program reports
    /// without absolute times.  Children are clipped to the parent.
    /// Returns the offset after the last child.
    pub fn children(
        &mut self,
        parent: usize,
        offset_ns: u64,
        parts: &[(&'static str, &'static str, u64)],
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let (p_start, p_end, job) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.job)
        };
        let mut at = p_start + offset_ns;
        for &(name, layer, ns) in parts {
            let start_ns = at.min(p_end);
            let end_ns = (at + ns).min(p_end);
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns,
                parent: Some(parent),
                job,
            });
            at += ns;
        }
        at - p_start
    }

    /// A child of `parent` covering all of it: for a call whose inside
    /// the program reports nothing about.
    pub fn cover(&mut self, parent: usize, name: &'static str, layer: &'static str) {
        if self.enabled() {
            let p = &self.spans[parent];
            let child = Span {
                name,
                layer,
                parent: Some(parent),
                ..p.clone()
            };
            self.spans.push(child);
        }
    }

    /// Name the job a span belongs to once the server has said so
    /// (children laid out afterwards inherit it).
    pub fn set_job(&mut self, id: usize, job: u64) {
        if self.enabled() {
            self.spans[id].job = job;
        }
    }

    /// Length of a closed span (0 when the tracer is off).
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Handle of the span recorded last.
    pub fn last(&self) -> usize {
        self.spans.len().saturating_sub(1)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append per-thread span lists to `root` (whose first span is the
/// phase's root span), re-basing parent indices; a thread's parentless
/// spans become children of the root span.
pub fn merge_under(root: Vec<Span>, lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = root;
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None if base > 0 => Some(0),
                None => None,
            };
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in k.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds, in first-seen order.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, acc)) => *acc += ns,
            None => out.push((s.layer, ns)),
        }
    }
    out
}

/// The span list as a JSON tree for `out/<workload>.trace.json`.
pub fn to_content(spans: &[Span]) -> Content {
    let self_ns = self_times(spans);
    Content::Seq(
        spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(i, (s, own))| {
                Content::Map(vec![
                    ("id".to_string(), Content::U64(i as u64)),
                    ("name".to_string(), Content::Str(s.name.to_string())),
                    ("layer".to_string(), Content::Str(s.layer.to_string())),
                    ("start_ns".to_string(), Content::U64(s.start_ns)),
                    ("end_ns".to_string(), Content::U64(s.end_ns)),
                    ("self_ns".to_string(), Content::U64(own)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Content::Null, |p| Content::U64(p as u64)),
                    ),
                    ("job".to_string(), Content::U64(s.job)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            // Overlaps the first child by 10: the union is 10..60.
            span("b", 30, 60, Some(0)),
            span("c", 35, 38, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 27, 3]);
        assert_eq!(layer_self_ns(&spans), vec![("a", 50), ("b", 57), ("c", 3)]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a", 100, 200, None), span("b", 50, 150, Some(0))];
        assert_eq!(self_times(&spans)[0], 50);
        let all = vec![span("a", 100, 200, None), span("b", 0, 900, Some(0))];
        assert_eq!(self_times(&all)[0], 0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", "l", None, 1);
        t.end(id);
        assert_eq!(t.children(id, 0, &[("y", "l", 5)]), 0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn laid_out_children_stay_inside_and_in_order() {
        let mut t = Tracer::on(Instant::now());
        let id = t.begin("call", "engine", None, 7);
        t.end(id);
        // Force a known parent interval.
        t.spans[id].start_ns = 1000;
        t.spans[id].end_ns = 1100;
        let next = t.children(id, 10, &[("scan", "bsp", 30), ("compute", "bsp", 500)]);
        assert_eq!(next, 540);
        let spans = t.into_spans();
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1010, 1040));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1040, 1100));
        assert_eq!(spans[2].job, 7);
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn merge_rebases_parents_and_adopts_orphans() {
        let root = vec![span("bench", 0, 100, None)];
        let a = vec![span("a", 0, 10, None), span("b", 1, 2, Some(0))];
        let b = vec![span("a", 20, 30, None), span("b", 21, 22, Some(0))];
        let m = merge_under(root, vec![a, b]);
        assert_eq!(m[0].parent, None);
        assert_eq!(m[1].parent, Some(0));
        assert_eq!(m[2].parent, Some(1));
        assert_eq!(m[3].parent, Some(0));
        assert_eq!(m[4].parent, Some(3));
        assert_eq!(self_times(&m)[0], 80);
    }
}
