//! Recording per-iteration phase counts during algorithm execution.

use serde::{Deserialize, Serialize};

use crate::PhaseCounts;

/// One recorded phase: an iteration/superstep/level of an algorithm.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct PhaseRecord {
    /// Phase label, e.g. `"superstep"` or `"level"`.
    pub label: String,
    /// Iteration index within the label (superstep number, BFS level…).
    pub step: u64,
    /// The operation counts of this phase.
    pub counts: PhaseCounts,
    /// Free-form measured quantity (active vertices, messages, frontier
    /// size) for figures that plot counts rather than times.
    pub observed: u64,
}

/// Collects [`PhaseRecord`]s as an algorithm runs.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct Recorder {
    /// The recorded phases, in execution order.
    pub records: Vec<PhaseRecord>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Record a phase.
    pub fn push(&mut self, label: &str, step: u64, counts: PhaseCounts, observed: u64) {
        self.records.push(PhaseRecord {
            label: label.to_string(),
            step,
            counts,
            observed,
        });
    }

    /// All records with the given label, in order.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a PhaseRecord> {
        self.records.iter().filter(move |r| r.label == label)
    }

    /// Sum of all counts (for whole-run predictions).
    pub fn total(&self) -> PhaseCounts {
        self.records
            .iter()
            .fold(PhaseCounts::default(), |acc, r| acc.merge(&r.counts))
    }

    /// Number of distinct steps under a label.
    pub fn steps(&self, label: &str) -> u64 {
        self.with_label(label).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut r = Recorder::new();
        r.push("superstep", 0, PhaseCounts::with_items(10), 10);
        r.push("superstep", 1, PhaseCounts::with_items(5), 5);
        r.push("setup", 0, PhaseCounts::with_items(1), 0);
        assert_eq!(r.with_label("superstep").count(), 2);
        assert_eq!(r.steps("superstep"), 2);
        assert_eq!(r.steps("setup"), 1);
        assert_eq!(r.steps("missing"), 0);
    }

    #[test]
    fn total_merges_counts() {
        let mut r = Recorder::new();
        let mut a = PhaseCounts::with_items(10);
        a.reads = 100;
        let mut b = PhaseCounts::with_items(20);
        b.writes = 7;
        r.push("x", 0, a, 0);
        r.push("y", 0, b, 0);
        let t = r.total();
        assert_eq!(t.reads, 100);
        assert_eq!(t.writes, 7);
        assert_eq!(t.items, 20);
    }

    #[test]
    fn records_serialize_to_json() {
        let mut r = Recorder::new();
        r.push("superstep", 0, PhaseCounts::with_items(4), 4);
        let s = serde_json::to_string(&r).unwrap();
        let back: Recorder = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }
}
