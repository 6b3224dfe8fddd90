//! Algorithm 1: connected components in the BSP model.
//!
//! Paper §III: each vertex starts as its own component; every superstep,
//! active vertices fold incoming labels with min and re-broadcast on
//! improvement.  Because a message sent in superstep *s* is seen in
//! *s + 1*, vertices compute on stale data and convergence takes at
//! least 2× the iterations of the shared-memory algorithm (13 vs 6 on
//! the paper's RMAT graph).

use xmt_graph::{Csr, VertexId};
use xmt_model::Recorder;

use crate::program::{Combiner, Context, MinCombiner, VertexProgram};
use crate::runtime::{run_bsp, BspConfig, BspResult};

/// The Algorithm-1 vertex program.
pub struct CcProgram;

impl VertexProgram for CcProgram {
    type State = VertexId;
    type Message = VertexId;

    fn init(&self, v: VertexId) -> VertexId {
        v
    }

    fn compute(&self, ctx: &mut Context<'_, VertexId>, label: &mut VertexId, msgs: &[VertexId]) {
        // Lines 1-5: fold incoming labels.
        let mut vote = false;
        for &m in msgs {
            if m < *label {
                *label = m;
                vote = true;
            }
        }
        // Lines 6-13: broadcast on the first superstep or on improvement.
        if ctx.superstep() == 0 || vote {
            let l = *label;
            ctx.send_to_neighbors(l);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<&dyn Combiner<VertexId>> {
        Some(&MinCombiner)
    }

    /// Pull rule: a neighbor always offers its current label.  This is a
    /// superset of what push delivers (only *improved* labels are sent),
    /// which is safe because the min fold is monotone — stale labels are
    /// no-ops.
    fn pull_from(&self, _g: &Csr, _u: VertexId, label: &VertexId) -> Option<VertexId> {
        Some(*label)
    }

    fn supports_pull(&self) -> bool {
        true
    }
}

/// Run Algorithm 1 with the default runtime configuration.
pub fn bsp_connected_components(g: &Csr, rec: Option<&mut Recorder>) -> BspResult<VertexId> {
    bsp_connected_components_with_config(g, BspConfig::default(), rec)
}

/// Run Algorithm 1 with an explicit runtime configuration.
pub fn bsp_connected_components_with_config(
    g: &Csr,
    config: BspConfig,
    rec: Option<&mut Recorder>,
) -> BspResult<VertexId> {
    run_bsp(g, &CcProgram, config, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{bridged_cliques, disjoint_cliques, path, ring, star};
    use xmt_graph::validate::validate_components;

    #[test]
    fn labels_validate_on_structured_graphs() {
        for el in [path(40), ring(25), star(30), disjoint_cliques(4, 6)] {
            let g = build_undirected(&el);
            let r = bsp_connected_components(&g, None);
            assert!(!r.hit_superstep_limit);
            validate_components(&g, &r.states).unwrap();
        }
    }

    #[test]
    fn matches_shared_memory_result() {
        let el = xmt_graph::gen::er::gnm(1500, 2500, 21);
        let g = build_undirected(&el);
        let bsp = bsp_connected_components(&g, None);
        let shared = graphct::connected_components(&g);
        assert_eq!(bsp.states, shared);
    }

    #[test]
    fn needs_more_supersteps_than_shared_memory_iterations() {
        // The paper's stale-data argument: BSP convergence is at least
        // diameter-bound; shared memory propagates within an iteration.
        let g = build_undirected(&path(64));
        let mut bsp_rec = Recorder::new();
        let r = bsp_connected_components(&g, Some(&mut bsp_rec));
        let mut ct_rec = Recorder::new();
        let labels =
            graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut ct_rec));
        assert_eq!(r.states, labels);
        assert!(
            r.supersteps >= 2 * ct_rec.steps("iteration"),
            "BSP {} vs shared {}",
            r.supersteps,
            ct_rec.steps("iteration")
        );
    }

    #[test]
    fn message_volume_shrinks_as_labels_converge() {
        // Fig. 1's narrative: almost the whole graph churns early; only a
        // small fraction is still improving late.  (Active-receiver
        // counts decay more slowly on dense small graphs because any
        // sender with hub neighbors re-activates many vertices, so the
        // declining quantity is the message volume.)
        let p = xmt_graph::gen::rmat::RmatParams::graph500(10);
        let el = xmt_graph::gen::rmat::rmat_edges(&p, 5);
        let g = build_undirected(&el);
        let r = bsp_connected_components(&g, None);
        validate_components(&g, &r.states).unwrap();
        let stats = &r.superstep_stats;
        assert!(stats.len() >= 4);
        let early = stats[0].messages_sent;
        let late = stats[stats.len() - 2].messages_sent;
        assert!(
            late * 4 < early,
            "late supersteps should send a small fraction: early={early} late={late}"
        );
        // Quiescence: the final superstep sends nothing.
        assert_eq!(stats.last().unwrap().messages_sent, 0);
    }

    #[test]
    fn bridged_cliques_converge_to_zero() {
        let g = build_undirected(&bridged_cliques(8));
        let r = bsp_connected_components(&g, None);
        assert!(r.states.iter().all(|&l| l == 0));
    }

    #[test]
    fn message_volume_starts_near_arc_count() {
        let g = build_undirected(&ring(100));
        let r = bsp_connected_components(&g, None);
        // Superstep 0: every vertex broadcasts to every neighbor.
        assert_eq!(r.superstep_stats[0].messages_sent, g.num_arcs());
    }
}
