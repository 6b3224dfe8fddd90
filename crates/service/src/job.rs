//! The job model: what a client submits, what the scheduler tracks, and
//! what an interrupted run leaves behind.  A cut job keeps only its
//! [`StoredCheckpoint`]; the warmed superstep frame stays with the
//! scheduler worker that ran it, until it idles ([`crate::engine::FrameSlot`]).

use std::any::Any;
use std::sync::Arc;

use xmt_bsp::BspConfig;
use xmt_graph::{Csr, IntersectStrategy, VertexId};

/// Monotonically increasing job identifier.
pub type JobId = u64;

/// Which kernel a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Connected components (paper Alg. 1; min-label flood).
    Cc,
    /// Breadth-first search (paper Alg. 2).
    Bfs,
    /// PageRank (the Pregel staple).
    Pagerank,
    /// Triangle counting (paper Alg. 3).
    Triangles,
}

impl Algorithm {
    /// Every algorithm, one per variant (the scheduler keeps a latency
    /// series per algorithm and engine, indexed by discriminant).
    pub(crate) const ALL: [Algorithm; 4] = [
        Algorithm::Cc,
        Algorithm::Bfs,
        Algorithm::Pagerank,
        Algorithm::Triangles,
    ];

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "cc" | "components" => Some(Algorithm::Cc),
            "bfs" => Some(Algorithm::Bfs),
            "pagerank" | "pr" => Some(Algorithm::Pagerank),
            "triangles" | "tc" => Some(Algorithm::Triangles),
            _ => None,
        }
    }

    /// The canonical wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Cc => "cc",
            Algorithm::Bfs => "bfs",
            Algorithm::Pagerank => "pagerank",
            Algorithm::Triangles => "triangles",
        }
    }
}

/// Which implementation serves the job: the vertex-centric BSP runtime
/// (checkpointable, cancellable at superstep boundaries), the
/// shared-memory GraphCT kernels (run to completion once started), or an
/// answer maintained incrementally on a dynamic graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The vertex-centric BSP runtime on the guided executor, charging
    /// no cost model.  One engine under three wire names — `bsp`, `sim`
    /// and `native` — and every reply says `bsp`.
    Bsp,
    /// The shared-memory GraphCT-style kernels.
    GraphCt,
    /// Incrementally maintained answers on a dynamic graph: the result
    /// is captured at admission from the stinger-maintained state (the
    /// job runs zero supersteps).  Valid only for `cc`/`triangles` on a
    /// graph registered with `dynamic: true`.
    Incremental,
}

impl Engine {
    /// The name the frozen benchmark (`spine/src/probes.rs`) admits its
    /// registry probes under; the one BSP engine.
    #[expect(
        non_upper_case_globals,
        reason = "the frozen spine spells it as a variant"
    )]
    pub const Native: Engine = Engine::Bsp;

    /// Every engine, one per variant (see [`Algorithm::ALL`]).
    pub(crate) const ALL: [Engine; 3] = [Engine::Bsp, Engine::GraphCt, Engine::Incremental];

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "bsp" | "sim" | "native" => Some(Engine::Bsp),
            "graphct" | "shared" => Some(Engine::GraphCt),
            "incremental" | "inc" => Some(Engine::Incremental),
            _ => None,
        }
    }

    /// The canonical wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Bsp => "bsp",
            Engine::GraphCt => "graphct",
            Engine::Incremental => "incremental",
        }
    }
}

/// A validated, ready-to-run job description (the protocol layer turns a
/// wire `JobRequest` into one of these).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Kernel to run.
    pub algorithm: Algorithm,
    /// Implementation to run it on.
    pub engine: Engine,
    /// Registry name of the target graph.
    pub graph: String,
    /// BFS source vertex.
    pub source: VertexId,
    /// PageRank damping factor.
    pub damping: f64,
    /// PageRank convergence tolerance.
    pub tolerance: f64,
    /// Adjacency-intersection kernel of a GraphCT triangle job (the BSP
    /// `TcProgram` always prunes candidates by degree rank and never
    /// reads it).
    pub intersect: IntersectStrategy,
    /// Full BSP runtime configuration (carried over the wire).
    pub config: BspConfig,
    /// Scheduling priority: higher runs first; FIFO within a level.
    pub priority: u8,
    /// Wall-clock budget from submission; on expiry the run is cut at
    /// the next superstep boundary and checkpointed.
    pub deadline_ms: Option<u64>,
}

/// Job lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// On a worker.
    Running,
    /// Finished; the result is available.
    Completed,
    /// The engine errored (bad checkpoint, panic...).
    Failed,
    /// Cancelled by request; a checkpoint is stored if it was mid-run.
    Cancelled,
    /// The deadline expired; a checkpoint is stored if it was mid-run.
    TimedOut,
    /// `max_supersteps` cut the run; the checkpoint is stored.
    Interrupted,
}

impl JobState {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
            JobState::Interrupted => "interrupted",
        }
    }

    /// Whether the job will make no further progress on its own.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// A completed job's output.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Per-vertex component labels (`cc`).
    Labels(Vec<VertexId>),
    /// Distances and BFS-tree parents (`bfs`).
    Bfs {
        /// Hop counts (`u64::MAX` = unreachable).
        dist: Vec<u64>,
        /// Tree parents (`NO_VERTEX` = unreachable).
        parent: Vec<VertexId>,
    },
    /// Per-vertex ranks (`pagerank`).
    Ranks(Vec<f64>),
    /// Global triangle count (`triangles`).
    Triangles(u64),
}

/// The graph handle a job computes against, resolved at admission.
///
/// For a static registration this is just the registry's `Arc<Csr>`
/// (epoch 0).  For a dynamic graph it is an immutable *snapshot* of a
/// specific epoch: update batches landing after admission create new
/// epochs and never touch this CSR, so the job — across deadline cuts,
/// checkpoints and resumes, which all travel this same handle — observes
/// exactly the graph that existed when it was admitted.
#[derive(Clone, Debug)]
pub struct JobGraph {
    /// The immutable CSR the engines execute against.  `None` for an
    /// `incremental` job, whose answer needs no graph, and in the
    /// scheduler's record of a job that can no longer run or be resumed
    /// (so a finished job does not pin its epoch's snapshot).
    pub csr: Option<Arc<Csr>>,
    /// Vertices of the graph at `epoch` (what a BFS source is checked
    /// against).
    pub num_vertices: u64,
    /// The snapshot epoch the job observes (0 for static graphs).
    pub epoch: u64,
    /// For the `incremental` engine: the answer captured atomically at
    /// admission from the stinger-maintained state.  The worker returns
    /// it as the job output without invoking an engine.
    pub precomputed: Option<JobOutput>,
}

impl JobGraph {
    /// A job computing against `csr` as of `epoch`.
    pub fn snapshot(csr: Arc<Csr>, epoch: u64) -> Self {
        JobGraph {
            num_vertices: csr.num_vertices(),
            csr: Some(csr),
            epoch,
            precomputed: None,
        }
    }
}

impl From<Arc<Csr>> for JobGraph {
    fn from(csr: Arc<Csr>) -> Self {
        JobGraph::snapshot(csr, 0)
    }
}

/// What an interrupted BSP job leaves behind: the partial vertex states
/// plus the runtime's [`ResumePoint`](xmt_bsp::ResumePoint), boxed as the
/// program's [`Snapshot`](xmt_bsp::runtime::Snapshot).  A follow-up
/// `resume` request turns it back into a job that continues the
/// computation exactly.
#[derive(Debug)]
pub struct StoredCheckpoint {
    /// The algorithm whose run was cut.  The engine checks it before
    /// unboxing, so a checkpoint resumes only its own algorithm even
    /// where two programs' snapshots would share one Rust type.
    pub(crate) algorithm: Algorithm,
    /// The superstep the resumed run would execute next.
    pub(crate) superstep: u64,
    /// The program's `Snapshot`.
    pub(crate) snapshot: Box<dyn Any + Send>,
}
