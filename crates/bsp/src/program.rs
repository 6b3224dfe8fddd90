//! The vertex-program abstraction (Pregel's `Compute()` API).

use xmt_graph::{Csr, VertexId};
use xmt_par::MarkScratch;

use crate::transport::{BroadcastSink, Outbox};

/// Optional message combiner (Pregel §3.2): folds messages addressed to
/// the same vertex into one.  Must be commutative and associative.
pub trait Combiner<M>: Sync {
    /// Combine two messages for the same destination.
    fn combine(&self, a: M, b: M) -> M;
}

/// Minimum-combiner for ordered messages (used by components and BFS).
pub struct MinCombiner;

impl<M: Ord> Combiner<M> for MinCombiner {
    fn combine(&self, a: M, b: M) -> M {
        a.min(b)
    }
}

/// Sum-combiner for `f64` messages (used by PageRank).
pub struct SumCombiner;

impl Combiner<f64> for SumCombiner {
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Ablation wrapper: run a program with its combiner disabled, so every
/// raw message reaches `compute` (Pregel §3.2 presents combining as an
/// optional optimization; this wrapper measures what it buys).
///
/// Correctness requirement: the wrapped program's `compute` must fold
/// messages itself in a way consistent with the combiner (all the
/// programs in [`crate::algorithms`] do).
pub struct WithoutCombiner<P>(pub P);

impl<P: VertexProgram> VertexProgram for WithoutCombiner<P> {
    type State = P::State;
    type Message = P::Message;

    fn init(&self, v: VertexId) -> P::State {
        self.0.init(v)
    }

    fn compute(
        &self,
        ctx: &mut Context<'_, P::Message>,
        state: &mut P::State,
        messages: &[P::Message],
    ) {
        self.0.compute(ctx, state, messages)
    }

    fn combiner(&self) -> Option<&dyn Combiner<P::Message>> {
        None
    }
}

/// A vertex-centric program: per-vertex state, a message type, and the
/// compute function run for every active vertex each superstep.
pub trait VertexProgram: Sync {
    /// Per-vertex state, kept between supersteps (Pregel: "vertices...
    /// maintain state between iterations").
    type State: Clone + Send + Sync + 'static;
    /// Message payload. `Copy` keeps the exchange buffers flat;
    /// `PartialEq` lets debug builds check the first-sender promise of
    /// [`supports_bottom_up`](Self::supports_bottom_up).
    type Message: Copy + Send + Sync + PartialEq + 'static;

    /// Initial state of vertex `v` before superstep 0.
    fn init(&self, v: VertexId) -> Self::State;

    /// The per-vertex kernel, run once per superstep while the vertex is
    /// active.  `messages` holds everything addressed to this vertex in
    /// the previous superstep (already combined if a combiner is
    /// configured).
    fn compute(
        &self,
        ctx: &mut Context<'_, Self::Message>,
        state: &mut Self::State,
        messages: &[Self::Message],
    );

    /// Optional message combiner.
    fn combiner(&self) -> Option<&dyn Combiner<Self::Message>> {
        None
    }

    /// The message vertex `u` (with state `state`) would offer a
    /// neighbor this superstep, for pull-mode delivery: on dense
    /// supersteps the runtime may skip shipping pushed messages and
    /// instead have each vertex gather `pull_from` over its neighbors,
    /// folding the results with the combiner.
    ///
    /// Contract (see `runtime::Delivery`): the value must equal what the
    /// vertex would have sent to every neighbor via `send_to_neighbors`
    /// after its last compute, or `None` if it (possibly) did not send.
    /// Returning a *superset* of the pushed messages is allowed only for
    /// programs whose compute is idempotent under stale re-delivery
    /// (monotone folds like min-label and BFS distances).  So every
    /// message of a program that implements this is one neighbor
    /// broadcast per sender and superstep; see
    /// [`supports_pull`](Self::supports_pull).
    fn pull_from(&self, graph: &Csr, u: VertexId, state: &Self::State) -> Option<Self::Message> {
        let _ = (graph, u, state);
        None
    }

    /// Whether [`pull_from`](Self::pull_from) is implemented and honors
    /// its contract.  Pull delivery additionally requires a combiner.
    ///
    /// The broadcast contract: a program that returns `true` here and
    /// has a combiner sends *only* with
    /// [`Context::send_to_neighbors`], at most once per vertex and
    /// superstep.  The runtime relies on it to record each broadcast once
    /// per sender instead of once per arc (DESIGN.md §17,
    /// "Broadcasts"); a `send_to`, a `send_all_to` or a second broadcast
    /// on a recorded superstep fails a debug assertion that names the
    /// program (release builds ship it, correct for any exact combiner).
    fn supports_pull(&self) -> bool {
        false
    }

    /// Whether `state` is *settled*: the vertex has reached its final
    /// value, [`pull_from`](Self::pull_from) will offer a message from
    /// now on, and no future message can improve it.  Drives the
    /// bottom-up (Beamer) gather: settled vertices skip the gather, and
    /// unsettled ones may stop probing at the first settled neighbor
    /// that offers a message.
    ///
    /// Contract (for [`supports_bottom_up`](Self::supports_bottom_up)
    /// programs): once settled, always settled; and for an unsettled
    /// vertex, any single neighbor offer folded alone must drive
    /// `compute` to the same state as the full combined fold would.
    /// BFS satisfies this because the frontier is level-synchronous:
    /// every settled neighbor of an undiscovered vertex sits at the
    /// current depth, so all offers produce the same distance.
    ///
    /// The same promise covers recorded broadcasts (DESIGN.md §17,
    /// "Broadcasts"): on any superstep, the combiner's fold over the
    /// messages a receiver's broadcasting neighbors sent, in row order,
    /// is the message of the first of them — so the exchange's gather
    /// stops at a row's first sender.  BFS's senders of one superstep all
    /// broadcast `(level, own id)` at one level, and rows ascend, so the
    /// minimum is the first.  Debug builds check the promise on every
    /// row such a gather reads and fail an assertion naming the program.
    fn is_settled(&self, state: &Self::State) -> bool {
        let _ = state;
        false
    }

    /// Whether [`is_settled`](Self::is_settled) is implemented and the
    /// first-offer contract above holds, for pull offers and recorded
    /// broadcasts alike, enabling bottom-up gathering, Beamer alpha/beta
    /// switching under `Delivery::Auto`, and broadcast gathers that stop
    /// at a row's first sender.
    fn supports_bottom_up(&self) -> bool {
        false
    }
}

/// Everything a vertex may do during `compute`.
///
/// One context exists per worker; the runtime re-points it at each vertex
/// of the worker's current chunk.
pub struct Context<'a, M> {
    pub(crate) graph: &'a Csr,
    pub(crate) superstep: u64,
    pub(crate) vertex: VertexId,
    pub(crate) outbox: &'a mut Outbox<M>,
    /// Where `send_to_neighbors` records on a superstep that keeps
    /// broadcasts once per sender; `None` ships them as pairs.
    pub(crate) broadcasts: Option<&'a BroadcastSink<'a, M>>,
    /// Arcs the recorded broadcasts stand for (the senders' degrees).
    pub(crate) broadcast_arcs: u64,
    /// The program's type name, for the broadcast-contract assertions.
    pub(crate) program: &'static str,
    pub(crate) marks: &'a mut MarkScratch,
    pub(crate) halt: bool,
    pub(crate) agg_u64: u64,
    pub(crate) agg_f64: f64,
    pub(crate) prev_agg_u64: u64,
    pub(crate) prev_agg_f64: f64,
    pub(crate) num_vertices: u64,
    pub(crate) extra_reads: u64,
    pub(crate) extra_alu: u64,
}

impl<'a, M: Copy> Context<'a, M> {
    /// Current superstep number (0-based).
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The vertex this compute call is for.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Total vertices in the graph.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// The vertex's neighbors (Pregel: "the vertex implicitly knows its
    /// neighbors").
    pub fn neighbors(&self) -> &'a [VertexId] {
        self.graph.neighbors(self.vertex)
    }

    /// Out-degree of this vertex.
    pub fn degree(&self) -> u64 {
        self.graph.degree(self.vertex)
    }

    /// Out-degree of an arbitrary vertex `u` — one shared-memory read
    /// of the CSR offsets (callers modeling cost should
    /// [`charge_reads`](Self::charge_reads) it).  Lets programs order
    /// vertices by `(degree, id)` rank, e.g. the degree-ordered
    /// candidate pruning in triangle counting.
    pub fn degree_of(&self, u: VertexId) -> u64 {
        self.graph.degree(u)
    }

    /// The worker's mark array, sized for the graph: mark a vertex set,
    /// answer each membership question with one load, unmark the set.
    /// What the simulated machine would pay is the caller's to charge.
    pub fn marks(&mut self) -> &mut MarkScratch {
        self.marks
    }

    /// Send `msg` to an arbitrary vertex, delivered next superstep.
    pub fn send_to(&mut self, dst: VertexId, msg: M) {
        debug_assert!(dst < self.num_vertices, "message to nonexistent vertex");
        self.assert_not_recording("send_to");
        self.outbox.pairs.push((dst, msg));
    }

    /// Send every message of `msgs` to `dst`, delivered next superstep
    /// in slice order: as many messages as `msgs.len()` calls of
    /// [`send_to`](Self::send_to), but shipped as one run, so the
    /// destination travels once and each message costs only its payload.
    ///
    /// A destination receives the messages sent to it with `send_to` (and
    /// [`send_to_neighbors`](Self::send_to_neighbors)) first and those of
    /// its runs after, each group in the active list's order (DESIGN.md
    /// §17).
    pub fn send_all_to(&mut self, dst: VertexId, msgs: &[M]) {
        debug_assert!(dst < self.num_vertices, "message to nonexistent vertex");
        self.assert_not_recording("send_all_to");
        self.outbox.push_run(dst, msgs);
    }

    /// Send `msg` to every neighbor.
    ///
    /// On a superstep that records broadcasts (see
    /// [`VertexProgram::supports_pull`]) this writes `msg` once, for the
    /// exchange to deliver to every neighbor; otherwise it queues one
    /// pair per neighbor.  Either way each neighbor receives `msg` in the
    /// same place of its fold.
    pub fn send_to_neighbors(&mut self, msg: M) {
        if let Some(sink) = self.broadcasts {
            // SAFETY: the runtime points this context at one active
            // vertex of the graph per compute call, and active vertices
            // are distinct; the record is sized for the graph.
            let first = unsafe { sink.record(self.vertex, msg) };
            debug_assert!(
                first,
                "{}: a second send_to_neighbors from vertex {} in one superstep breaks the \
                 broadcast contract of a pull-capable program",
                self.program, self.vertex
            );
            if first {
                self.broadcast_arcs += self.degree();
                return;
            }
        }
        for &n in self.graph.neighbors(self.vertex) {
            self.outbox.pairs.push((n, msg));
        }
    }

    /// A program under the broadcast contract sends nothing but
    /// neighbor broadcasts while the runtime records them.
    fn assert_not_recording(&self, send: &str) {
        debug_assert!(
            self.broadcasts.is_none(),
            "{}: {send} on a superstep that records neighbor broadcasts; a program with \
             supports_pull() and a combiner sends only with send_to_neighbors",
            self.program
        );
    }

    /// Vote to halt: the vertex stays inactive until a message arrives.
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }

    /// Withdraw a halt vote made earlier in this compute call.
    pub fn stay_active(&mut self) {
        self.halt = false;
    }

    /// Add to the global u64 sum aggregator (visible next superstep).
    pub fn aggregate_u64(&mut self, value: u64) {
        self.agg_u64 += value;
    }

    /// Add to the global f64 sum aggregator (visible next superstep).
    pub fn aggregate_f64(&mut self, value: f64) {
        self.agg_f64 += value;
    }

    /// Value of the u64 aggregator summed over the *previous* superstep.
    pub fn prev_aggregate_u64(&self) -> u64 {
        self.prev_agg_u64
    }

    /// Value of the f64 aggregator summed over the *previous* superstep.
    pub fn prev_aggregate_f64(&self) -> f64 {
        self.prev_agg_f64
    }

    /// Report `n` algorithm-specific memory reads beyond what the runtime
    /// counts (e.g. binary-search probes); feeds the performance model.
    pub fn charge_reads(&mut self, n: u64) {
        self.extra_reads += n;
    }

    /// Report `n` algorithm-specific ALU operations.
    pub fn charge_alu(&mut self, n: u64) {
        self.extra_alu += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::star;

    fn ctx_on<'a>(g: &'a Csr, outbox: &'a mut Outbox<u64>, v: VertexId) -> Context<'a, u64> {
        Context {
            graph: g,
            superstep: 3,
            vertex: v,
            outbox,
            broadcasts: None,
            broadcast_arcs: 0,
            program: "test",
            // Leaked: a test context has no frame to borrow one from.
            marks: Box::leak(Box::default()),
            halt: false,
            agg_u64: 0,
            agg_f64: 0.0,
            prev_agg_u64: 17,
            prev_agg_f64: 2.5,
            num_vertices: g.num_vertices(),
            extra_reads: 0,
            extra_alu: 0,
        }
    }

    #[test]
    fn send_to_neighbors_fans_out() {
        let g = build_undirected(&star(5));
        let mut outbox = Outbox::default();
        {
            let mut ctx = ctx_on(&g, &mut outbox, 0);
            assert_eq!(ctx.degree(), 4);
            ctx.send_to_neighbors(99);
        }
        assert_eq!(outbox.pairs.len(), 4);
        assert!(outbox.pairs.iter().all(|&(_, m)| m == 99));
    }

    #[test]
    fn send_to_targets_one_vertex() {
        let g = build_undirected(&star(5));
        let mut outbox = Outbox::default();
        {
            let mut ctx = ctx_on(&g, &mut outbox, 2);
            ctx.send_to(4, 7);
        }
        assert_eq!(outbox.pairs, vec![(4, 7)]);
    }

    #[test]
    fn send_all_to_queues_one_run_and_an_empty_one_nothing() {
        let g = build_undirected(&star(5));
        let mut outbox = Outbox::default();
        {
            let mut ctx = ctx_on(&g, &mut outbox, 2);
            ctx.send_all_to(4, &[7, 8, 9]);
            ctx.send_all_to(3, &[]);
            ctx.send_to(4, 1);
        }
        assert_eq!(outbox.runs, vec![(4, 3)]);
        assert_eq!(outbox.payloads, vec![7, 8, 9]);
        assert_eq!(outbox.pairs, vec![(4, 1)]);
        assert_eq!(outbox.messages(), 4);
    }

    #[test]
    fn halt_votes_toggle() {
        let g = build_undirected(&star(3));
        let mut outbox = Outbox::default();
        let mut ctx = ctx_on(&g, &mut outbox, 1);
        assert!(!ctx.halt);
        ctx.vote_to_halt();
        assert!(ctx.halt);
        ctx.stay_active();
        assert!(!ctx.halt);
    }

    #[test]
    fn aggregators_accumulate_and_expose_previous() {
        let g = build_undirected(&star(3));
        let mut outbox = Outbox::default();
        let mut ctx = ctx_on(&g, &mut outbox, 1);
        ctx.aggregate_u64(5);
        ctx.aggregate_u64(6);
        ctx.aggregate_f64(0.5);
        assert_eq!(ctx.agg_u64, 11);
        assert_eq!(ctx.agg_f64, 0.5);
        assert_eq!(ctx.prev_aggregate_u64(), 17);
        assert_eq!(ctx.prev_aggregate_f64(), 2.5);
    }

    #[test]
    fn min_combiner_takes_minimum() {
        let c = MinCombiner;
        assert_eq!(Combiner::<u64>::combine(&c, 3, 9), 3);
        assert_eq!(Combiner::<u64>::combine(&c, 9, 3), 3);
    }
}
