//! Charging formulas for the BSP message-exchange phase.
//!
//! The runtime in `xmt-bsp` executes exchanges for real on the host and
//! reports *what it did* (message counts, word widths, gather probes);
//! this module maps each exchange design onto [`PhaseCounts`] so the
//! calibrated XMT model can price them.  Two designs are charged:
//!
//! * a **shared queue** — every message pays a fetch-and-add on one hot
//!   word (the paper's §VII warning);
//! * **per-worker outboxes** — no hot word, but grouping the merged
//!   outboxes by destination still costs one uncontended atomic per
//!   message (the per-destination count).
//!
//! The charge prices the XMT port, not the host: the host's outbox
//! exchange groups without atomics (DESIGN.md §17), the model's pays one
//! per message, which is what Table I and Figs. 1–4 rest on.
//!
//! Pull-mode delivery replaces the exchange entirely: the next superstep
//! gathers from neighbor state, so the boundary only pays a state
//! snapshot ([`charge_pull_exchange`]) and the gather probes are charged
//! to the compute phase ([`charge_pull_gather`]).

use crate::PhaseCounts;

/// The message-exchange designs the model knows how to price.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Per-worker outboxes merged at the boundary; destination grouping
    /// uses one uncontended atomic per message.
    PerThreadOutbox,
    /// One shared queue behind a single fetch-and-add cursor: identical
    /// traffic plus one hotspot operation per message.
    SharedQueue,
}

/// Charge moving `messages` messages of `msg_words` words each through
/// an exchange of kind `kind`, grouping them into an inbox over `n`
/// vertices.
///
/// All kinds pay the enqueue writes (destination + payload), the prefix
/// sum over the vertex range, the per-word scatter read+write and one
/// atomic count per message; the queue adds one hotspot op per message.
pub fn charge_push_exchange(
    c: &mut PhaseCounts,
    kind: ExchangeKind,
    messages: u64,
    msg_words: u64,
    n: u64,
) {
    let w = msg_words.max(1);
    c.writes += messages * (w + 1); // enqueue payload + destination
    c.reads += messages * (w + 1); // scatter read
    c.writes += messages * w; // scatter write
    c.alu_ops += 2 * n; // prefix sum over offsets
    c.reads += n;
    c.writes += n;
    match kind {
        ExchangeKind::PerThreadOutbox => {
            c.atomics += messages; // per-destination count
        }
        ExchangeKind::SharedQueue => {
            c.atomics += messages; // per-destination count
            c.hotspot_ops += messages; // the shared cursor
        }
    }
    c.barriers += 2; // end of compute, end of exchange
}

/// Charge a superstep boundary that hands delivery to pull mode: no
/// inbox is built; the runtime snapshots the `n` vertex states
/// (`state_words` words each) so the next superstep's gathers read a
/// consistent pre-superstep view.
pub fn charge_pull_exchange(c: &mut PhaseCounts, n: u64, state_words: u64) {
    let w = state_words.max(1);
    c.reads += n * w;
    c.writes += n * w;
    c.barriers += 2; // end of compute, end of snapshot
}

/// Charge a pull-mode gather executed during compute: `probes` neighbor
/// inspections (adjacency read + state read), of which `hits` produced a
/// message of `msg_words` words that was folded into the accumulator.
pub fn charge_pull_gather(c: &mut PhaseCounts, probes: u64, hits: u64, msg_words: u64) {
    let w = msg_words.max(1);
    c.reads += probes * (1 + w); // neighbor id + neighbor state
    c.alu_ops += probes + hits; // liveness test + combine fold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_queue_adds_the_hotspot_only() {
        let mut outbox = PhaseCounts::default();
        let mut queue = PhaseCounts::default();
        charge_push_exchange(&mut outbox, ExchangeKind::PerThreadOutbox, 500, 2, 64);
        charge_push_exchange(&mut queue, ExchangeKind::SharedQueue, 500, 2, 64);
        assert_eq!(queue.hotspot_ops, 500);
        assert_eq!(outbox.hotspot_ops, 0);
        assert_eq!(queue.reads, outbox.reads);
        assert_eq!(queue.writes, outbox.writes);
        assert_eq!(queue.atomics, outbox.atomics);
        assert_eq!(outbox.atomics, 500);
    }

    #[test]
    fn pull_boundary_is_independent_of_message_volume() {
        let mut c = PhaseCounts::default();
        charge_pull_exchange(&mut c, 1000, 1);
        assert_eq!(c.reads, 1000);
        assert_eq!(c.writes, 1000);
        assert_eq!(c.atomics, 0);
        assert_eq!(c.barriers, 2);
    }

    #[test]
    fn pull_gather_charges_probes_and_folds() {
        let mut c = PhaseCounts::default();
        charge_pull_gather(&mut c, 100, 40, 1);
        assert_eq!(c.reads, 200); // adjacency + state per probe
        assert_eq!(c.alu_ops, 140); // probe test + one fold per hit
        assert_eq!(c.writes, 0);
    }
}
