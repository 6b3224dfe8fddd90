//! Algorithm 2: breadth-first search in the BSP model.
//!
//! Paper §IV: the source sets distance 0 in superstep 0 and broadcasts;
//! every vertex receiving a message checks whether it improves its
//! distance, and broadcasts its new distance on improvement.  Unlike the
//! shared-memory algorithm — which enqueues each newly discovered vertex
//! exactly once — the BSP variant "must send messages to every vertex
//! that could possibly be on the frontier.  Those that are not will
//! discard the messages."  The per-superstep message count (an order of
//! magnitude above the true frontier after the apex) is Figure 2.

use xmt_graph::{Csr, VertexId, NO_VERTEX};
use xmt_model::Recorder;

use crate::program::{Combiner, Context, VertexProgram};
use crate::runtime::{run_bsp, BspConfig, BspResult};

/// Message: (sender's distance, sender id). Combined by minimum distance
/// so the tree parent is the best-known predecessor.
type Msg = (u64, VertexId);

/// Per-vertex state: distance from the source and BFS-tree parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsState {
    /// Hop count from the source (`u64::MAX` until discovered).
    pub dist: u64,
    /// Tree parent (`NO_VERTEX` until discovered; source parents itself).
    pub parent: VertexId,
}

struct MinDistCombiner;

impl Combiner<Msg> for MinDistCombiner {
    fn combine(&self, a: Msg, b: Msg) -> Msg {
        a.min(b)
    }
}

/// The Algorithm-2 vertex program.
pub struct BfsProgram {
    /// BFS source vertex.
    pub source: VertexId,
}

impl VertexProgram for BfsProgram {
    type State = BfsState;
    type Message = Msg;

    fn init(&self, _v: VertexId) -> BfsState {
        BfsState {
            dist: u64::MAX,
            parent: NO_VERTEX,
        }
    }

    fn compute(&self, ctx: &mut Context<'_, Msg>, state: &mut BfsState, msgs: &[Msg]) {
        let mut vote = false;
        for &(d, sender) in msgs {
            if d + 1 < state.dist {
                state.dist = d + 1;
                state.parent = sender;
                vote = true;
            }
        }
        if ctx.superstep() == 0 {
            if ctx.vertex() == self.source {
                state.dist = 0;
                state.parent = self.source;
                let msg = (0, self.source);
                ctx.send_to_neighbors(msg);
            }
        } else if vote {
            let msg = (state.dist, ctx.vertex());
            ctx.send_to_neighbors(msg);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<&dyn Combiner<Msg>> {
        Some(&MinDistCombiner)
    }

    /// Pull rule: a discovered neighbor offers its distance (what it
    /// broadcast when it was discovered).  Re-offering old distances is
    /// safe — `d + 1 < dist` rejects anything that is not a strict
    /// improvement — and the tree parent stays exact because a vertex at
    /// depth *k* only ever gathers offers from depth *k − 1* the
    /// superstep it is discovered.
    fn pull_from(&self, _g: &Csr, u: VertexId, state: &BfsState) -> Option<Msg> {
        (state.dist != u64::MAX).then_some((state.dist, u))
    }

    fn supports_pull(&self) -> bool {
        true
    }

    /// A discovered vertex is settled: BFS distances only ever tighten
    /// at discovery time, and level-synchrony means every settled
    /// neighbor of an undiscovered vertex offers the same (current)
    /// depth — so the first offer is as good as the combined fold, and
    /// the bottom-up probe may early-exit.
    fn is_settled(&self, state: &BfsState) -> bool {
        state.dist != u64::MAX
    }

    fn supports_bottom_up(&self) -> bool {
        true
    }
}

/// Distances, parents and superstep statistics from a BSP BFS.
pub struct BspBfsOutput {
    /// The underlying BSP run (states hold dist+parent).
    pub result: BspResult<BfsState>,
}

impl BspBfsOutput {
    /// Distance array view.
    pub fn dist(&self) -> Vec<u64> {
        self.result.states.iter().map(|s| s.dist).collect()
    }

    /// Parent array view.
    pub fn parent(&self) -> Vec<VertexId> {
        self.result.states.iter().map(|s| s.parent).collect()
    }
}

/// Run Algorithm 2 with the default runtime configuration.
pub fn bsp_bfs(g: &Csr, source: VertexId, rec: Option<&mut Recorder>) -> BspBfsOutput {
    bsp_bfs_with_config(g, source, BspConfig::default(), rec)
}

/// Run Algorithm 2 with an explicit runtime configuration.
pub fn bsp_bfs_with_config(
    g: &Csr,
    source: VertexId,
    config: BspConfig,
    rec: Option<&mut Recorder>,
) -> BspBfsOutput {
    assert!(source < g.num_vertices(), "source out of range");
    let result = run_bsp(g, &BfsProgram { source }, config, rec);
    BspBfsOutput { result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{binary_tree, disjoint_cliques, grid, path, ring};
    use xmt_graph::validate::{reference_bfs, validate_bfs};

    #[test]
    fn distances_validate_on_structured_graphs() {
        for el in [path(30), ring(17), grid(6, 7), binary_tree(63)] {
            let g = build_undirected(&el);
            let out = bsp_bfs(&g, 0, None);
            validate_bfs(&g, 0, &out.dist(), &out.parent()).unwrap();
        }
    }

    #[test]
    fn matches_reference_and_shared_memory() {
        let el = xmt_graph::gen::er::gnm(2000, 6000, 9);
        let g = build_undirected(&el);
        let out = bsp_bfs(&g, 3, None);
        let (ref_dist, _) = reference_bfs(&g, 3);
        assert_eq!(out.dist(), ref_dist);
        let shared = graphct::bfs(&g, 3);
        assert_eq!(out.dist(), shared.dist);
    }

    #[test]
    fn unreachable_vertices_keep_infinite_distance() {
        let g = build_undirected(&disjoint_cliques(2, 5));
        let out = bsp_bfs(&g, 0, None);
        for v in 5..10 {
            assert_eq!(out.dist()[v], u64::MAX);
            assert_eq!(out.parent()[v], NO_VERTEX);
        }
    }

    #[test]
    fn messages_match_edges_incident_on_frontier() {
        // Fig. 2's definition: "a message is generated for every neighbor
        // of a vertex on the frontier, or alternatively every edge
        // incident on the frontier."
        let g = build_undirected(&binary_tree(127));
        let out = bsp_bfs(&g, 0, None);
        let shared = graphct::bfs(&g, 0);
        // In superstep s the newly discovered frontier (level s) sends to
        // all its neighbors.
        for (s, &frontier) in shared.frontier_sizes.iter().enumerate() {
            let stat = out.result.superstep_stats[s];
            // Sum of degrees of that frontier:
            let expected: u64 = level_degree_sum(&g, &shared.dist, s as u64);
            assert_eq!(
                stat.messages_sent, expected,
                "superstep {s}: frontier {frontier}"
            );
        }
    }

    fn level_degree_sum(g: &xmt_graph::Csr, dist: &[u64], level: u64) -> u64 {
        (0..g.num_vertices())
            .filter(|&v| dist[v as usize] == level)
            .map(|v| g.degree(v))
            .sum()
    }

    #[test]
    fn superstep_count_is_eccentricity_plus_winddown() {
        let g = build_undirected(&path(12));
        let out = bsp_bfs(&g, 0, None);
        // 11 levels of discovery + the final superstep with no updates.
        assert!(out.result.supersteps >= 12);
        validate_bfs(&g, 0, &out.dist(), &out.parent()).unwrap();
    }

    #[test]
    fn bfs_from_each_source_is_consistent() {
        let g = build_undirected(&ring(9));
        for s in 0..9u64 {
            let out = bsp_bfs(&g, s, None);
            validate_bfs(&g, s, &out.dist(), &out.parent()).unwrap();
        }
    }

    #[test]
    fn beamer_auto_switches_bottom_up_and_back() {
        use crate::runtime::Delivery;
        // A dense-enough random graph: the BFS apex frontier touches
        // most edges, so Beamer's alpha rule must flip to bottom-up at
        // the apex and beta must flip back as the frontier drains.
        let el = xmt_graph::gen::er::gnm(4000, 40_000, 7);
        let g = build_undirected(&el);
        let cfg = BspConfig {
            delivery: Delivery::Auto,
            ..Default::default()
        };
        let beamer = bsp_bfs_with_config(&g, 0, cfg, None);
        let push = bsp_bfs(&g, 0, None);
        let (ref_dist, _) = reference_bfs(&g, 0);

        // Distances exact under every direction schedule; parents form a
        // valid tree (bottom-up picks the first settled neighbor, not
        // necessarily the min-id one).
        assert_eq!(beamer.dist(), ref_dist);
        assert_eq!(push.dist(), ref_dist);
        validate_bfs(&g, 0, &beamer.dist(), &beamer.parent()).unwrap();

        let stats = &beamer.result.superstep_stats;
        assert!(stats.iter().any(|s| s.pulled), "apex never went bottom-up");
        assert!(!stats[0].pulled, "superstep 0 has nothing to gather");
        // Hysteresis, not flapping: the bottom-up supersteps form one
        // contiguous block around the apex (push → pull → push, with the
        // trailing push block possibly empty when discovery completes
        // while still dense — the bottom-up active set then drains to
        // nothing and the run quiesces without a wind-down superstep).
        let pulled: Vec<bool> = stats.iter().map(|s| s.pulled).collect();
        let flips = pulled.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips <= 2, "direction flapping: {pulled:?}");
        // The direction switch is the whole point: boundary traffic at
        // the apex collapses versus static push.
        let push_apex = push
            .result
            .superstep_stats
            .iter()
            .map(|s| s.messages_sent)
            .max()
            .unwrap();
        let beamer_apex = stats.iter().map(|s| s.messages_sent).max().unwrap();
        assert!(
            beamer_apex * 2 < push_apex,
            "beamer apex {beamer_apex} not below static-push apex {push_apex}"
        );
        // Bottom-up early exit: probes on pulled supersteps stay below
        // the full gather bound (sum of all degrees).
        let total_arcs = g.num_arcs();
        for s in stats.iter().filter(|s| s.pulled) {
            assert!(s.pull_probes < total_arcs);
        }
    }

    #[test]
    fn static_pull_uses_the_bottom_up_probe_path() {
        use crate::runtime::Delivery;
        // BFS now advertises a settled predicate, so static Pull
        // supersteps probe unvisited vertices with early exit instead of
        // the full fold.  Distances must stay exact and probes must stay
        // below the full-gather bound.
        let el = xmt_graph::gen::er::gnm(1500, 12_000, 11);
        let g = build_undirected(&el);
        let out = bsp_bfs_with_config(
            &g,
            2,
            BspConfig {
                delivery: Delivery::Pull,
                ..Default::default()
            },
            None,
        );
        let (ref_dist, _) = reference_bfs(&g, 2);
        assert_eq!(out.dist(), ref_dist);
        validate_bfs(&g, 2, &out.dist(), &out.parent()).unwrap();
        let total_arcs = g.num_arcs();
        assert!(out.result.superstep_stats.iter().any(|s| s.pulled));
        for s in out.result.superstep_stats.iter().filter(|s| s.pulled) {
            assert!(
                s.pull_probes < total_arcs,
                "no early exit: {}",
                s.pull_probes
            );
        }
    }
}
