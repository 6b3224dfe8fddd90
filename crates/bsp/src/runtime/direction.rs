//! The delivery decision: whether the next superstep receives shipped
//! messages (push) or an inbox gathered from neighbor state (pull).
//!
//! Everything here is a pure function of the run's configuration, the
//! program's capabilities and a handful of per-superstep counts, so the
//! push/pull choice can be read — and tested — without running a
//! superstep.

use serde::{Deserialize, Serialize};
use xmt_graph::{BEAMER_ALPHA, BEAMER_BETA};

use super::BspConfig;
#[cfg(doc)]
use crate::program::VertexProgram;

/// How messages reach the next superstep's `compute`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Delivery {
    /// Classic Pregel: senders ship messages through the transport and
    /// the runtime groups them into an inbox.
    Push,
    /// Receivers gather: on supersteps with traffic, each vertex's inbox
    /// is the fold of `pull_from` over its neighbors' states, gathered at
    /// the boundary instead of shipped.  Requires the program to implement
    /// [`VertexProgram::pull_from`] and to have a combiner; otherwise the
    /// runtime silently stays in push mode.
    Pull,
    /// Per-superstep choice.  For programs that expose a settled
    /// predicate ([`VertexProgram::supports_bottom_up`]) the decision is
    /// Beamer-style direction optimization: switch to bottom-up
    /// gathering when the frontier's edges times 15 outgrow the
    /// unexplored edges, and back to push when the frontier thins below
    /// 1/18 of the vertices.  Other pull-capable programs use the plain
    /// density rule: pull when the next superstep's active set is at
    /// least half the vertices.  Either way push wins on small
    /// frontiers where an O(V) gather would dwarf the few real messages,
    /// pull wins when traffic approaches O(E) and shipping it costs more
    /// than re-reading neighbor state.
    Auto,
}

/// The density rule of `Delivery::Auto` for pull-capable programs
/// without a settled predicate: pull when the next superstep's active
/// set is at least this fraction of the vertices.
const PULL_THRESHOLD: f64 = 0.5;

/// The per-run constants of the delivery decision.
#[derive(Clone, Copy, Debug)]
pub(super) struct Policy {
    delivery: Delivery,
    /// The program has a gather rule and a combiner to fold the gathered
    /// messages with; without both, `Delivery::Pull`/`Auto` silently
    /// degrade to push.
    pub supports_pull: bool,
    /// Pull supersteps gather bottom-up: the program additionally has a
    /// settled predicate (the visited set the probe loop early-exits
    /// against).
    pub bottom_up: bool,
    /// `Auto` decides by Beamer alpha/beta hysteresis: a bottom-up
    /// capable program.  Every other program on the `Auto` path uses
    /// the plain [`PULL_THRESHOLD`] density rule.
    pub beamer: bool,
}

/// What the exchange phase knows about the next superstep's frontier
/// when it decides that superstep's delivery.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Frontier {
    /// Vertices that will run compute next superstep: distinct message
    /// destinations ∪ stayed-awake vertices.
    pub est_active: u64,
    /// Beamer m_f: edges incident on those vertices (only needed, and
    /// only computed, on a push boundary).
    pub frontier_edges: u64,
    /// Beamer m_u: edges of vertices not yet settled.
    pub unexplored_edges: u64,
    /// Vertices in the graph.
    pub num_vertices: u64,
}

impl Policy {
    pub(super) fn new(config: &BspConfig, supports_pull: bool, supports_bottom_up: bool) -> Self {
        let bottom_up = supports_pull && supports_bottom_up;
        Policy {
            delivery: config.delivery,
            supports_pull,
            bottom_up,
            beamer: config.delivery == Delivery::Auto && bottom_up,
        }
    }

    /// `Auto` on a pull-capable program: the only case that needs a
    /// next-frontier estimate.
    pub(super) fn estimates(&self) -> bool {
        self.delivery == Delivery::Auto && self.supports_pull
    }

    /// Whether the next superstep may pull at all: only a program with a
    /// gather rule, and only when there is traffic to replace.  A stop or
    /// the superstep limit plays no part: the checkpoint of a boundary
    /// records whether its inbox was gathered.
    pub(super) fn pull_candidate(&self, shipped: u64) -> bool {
        self.supports_pull && shipped > 0
    }

    /// Whether the next superstep pulls, given that it may
    /// (`candidate`) and whether the current one did (`pulling`).
    pub(super) fn pull_next(&self, candidate: bool, pulling: bool, next: &Frontier) -> bool {
        if !candidate {
            return false;
        }
        let n = next.num_vertices as f64;
        match self.delivery {
            Delivery::Push => false,
            Delivery::Pull => true,
            // Hysteresis exit: stay bottom-up until the frontier thins
            // below n / beta.
            Delivery::Auto if self.beamer && pulling => next.est_active as f64 * BEAMER_BETA >= n,
            // Enter bottom-up when the frontier's edges outweigh the
            // unexplored edges / alpha.
            Delivery::Auto if self.beamer => {
                next.frontier_edges as f64 * BEAMER_ALPHA > next.unexplored_edges as f64
            }
            Delivery::Auto => next.est_active as f64 >= PULL_THRESHOLD * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auto() -> BspConfig {
        BspConfig {
            delivery: Delivery::Auto,
            ..BspConfig::default()
        }
    }

    /// A bottom-up capable program under `config`.
    fn beamer(config: &BspConfig) -> Policy {
        Policy::new(config, true, true)
    }

    const N: u64 = 1800;

    #[test]
    fn enters_bottom_up_iff_frontier_edges_times_alpha_exceed_unexplored() {
        let p = beamer(&auto()); // alpha 15
        assert!(p.beamer);
        let at = |frontier_edges, unexplored_edges| Frontier {
            est_active: 1,
            frontier_edges,
            unexplored_edges,
            num_vertices: N,
        };
        assert!(!p.pull_next(true, false, &at(10, 151)));
        assert!(!p.pull_next(true, false, &at(10, 150)), "strict inequality");
        assert!(p.pull_next(true, false, &at(10, 149)));
        // The frontier's size plays no part in entering.
        assert!(!p.pull_next(
            true,
            false,
            &Frontier {
                est_active: N,
                ..at(10, 151)
            }
        ));
    }

    #[test]
    fn stays_bottom_up_until_est_active_times_beta_drops_below_n() {
        let p = beamer(&auto()); // beta 18, N / 18 = 100
        let at = |est_active| Frontier {
            est_active,
            // Would never *enter* bottom-up: exit ignores the edge counts.
            frontier_edges: 0,
            unexplored_edges: u64::MAX,
            num_vertices: N,
        };
        assert!(p.pull_next(true, true, &at(101)));
        assert!(
            p.pull_next(true, true, &at(100)),
            "stay at exactly n / beta"
        );
        assert!(!p.pull_next(true, true, &at(99)));
    }

    #[test]
    fn never_a_candidate_without_traffic() {
        let p = beamer(&auto());
        assert!(p.pull_candidate(1));
        assert!(!p.pull_candidate(0), "shipped == 0");
        // A program without a gather rule is never a candidate.
        assert!(!Policy::new(&auto(), false, true).pull_candidate(1));
        // And a non-candidate never pulls, whatever the frontier says.
        let dense = Frontier {
            est_active: N,
            frontier_edges: u64::MAX,
            unexplored_edges: 0,
            num_vertices: N,
        };
        for pulling in [false, true] {
            assert!(!p.pull_next(false, pulling, &dense));
            assert!(p.pull_next(true, pulling, &dense));
        }
    }

    #[test]
    fn without_a_settled_predicate_auto_pulls_at_half_the_vertices() {
        let plain = Policy::new(&auto(), true, false);
        assert!(!plain.beamer && !plain.bottom_up);
        let at = |est_active| Frontier {
            est_active,
            // Beamer would enter here; the density rule must not look.
            frontier_edges: u64::MAX,
            unexplored_edges: 0,
            num_vertices: N,
        };
        // No hysteresis: the same threshold entering and staying.
        for pulling in [false, true] {
            assert!(!plain.pull_next(true, pulling, &at(N / 2 - 1)));
            assert!(plain.pull_next(true, pulling, &at(N / 2)));
        }
        // A settled predicate moves the program to the Beamer rule, which
        // does not look at the active count when entering.
        let p = beamer(&auto());
        assert!(p.beamer && p.bottom_up);
        assert!(!p.pull_next(
            true,
            false,
            &Frontier {
                frontier_edges: 0,
                unexplored_edges: 1,
                ..at(N)
            }
        ));
    }

    #[test]
    fn static_deliveries_ignore_the_frontier() {
        let sparse = Frontier {
            num_vertices: N,
            ..Frontier::default()
        };
        let push = beamer(&BspConfig::default());
        assert!(!push.pull_next(true, false, &sparse));
        let pull = beamer(&BspConfig {
            delivery: Delivery::Pull,
            ..BspConfig::default()
        });
        assert!(pull.pull_next(true, false, &sparse));
        assert!(!pull.estimates() && !push.estimates());
        assert!(beamer(&auto()).estimates());
        assert!(!Policy::new(&auto(), false, false).estimates());
    }
}
