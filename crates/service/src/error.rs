//! Typed service errors, stable across the wire.
//!
//! Every error a request can provoke has a machine-readable code (what
//! clients branch on — e.g. back off on `queue_full`) and a human
//! message.  Admission-control rejections are errors *by design*: a full
//! queue answers immediately instead of accepting unbounded work.

use std::fmt;

/// Everything that can go wrong between a request arriving and a job
/// reaching a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Admission control: the job queue is at capacity.  The client
    /// should back off and retry; nothing was enqueued.
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The named graph is not in the registry.
    GraphNotFound { name: String },
    /// The graph alone exceeds the registry's memory budget; no amount
    /// of eviction can make it fit.
    GraphTooLarge {
        name: String,
        bytes: usize,
        budget: usize,
    },
    /// A `register_graph` whose build would need more than the
    /// registry's memory budget (nothing was generated), or an update
    /// batch that would grow the graph past it even with every other
    /// entry evicted (nothing was applied).
    BudgetExceeded {
        name: String,
        bytes: usize,
        budget: usize,
    },
    /// The operation needs a dynamic (streaming) graph but the named
    /// entry is a static registration.
    NotDynamic { name: String },
    /// No job with this id (never existed, or evicted).
    JobNotFound { id: u64 },
    /// A resume request for a job that holds no checkpoint (it
    /// completed, failed, or was cut before the first superstep).
    NoCheckpoint { id: u64 },
    /// The job exists but is not in a state the operation applies to.
    WrongState { id: u64, state: String },
    /// A tuning parameter in the submitted `BspConfig` fails validation
    /// (non-finite or negative numeric knob, unknown intersect
    /// strategy...); nothing was enqueued.  Distinct from `BadRequest`
    /// so clients can tell a malformed envelope from a well-formed
    /// request carrying an unusable config.
    InvalidConfig {
        /// The offending `BspConfig` field name.
        field: &'static str,
        /// Why the value was rejected (includes the value itself).
        reason: String,
    },
    /// The request is malformed (unknown op/algorithm, missing field,
    /// out-of-range parameter...).
    BadRequest { message: String },
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
    /// The job ran but the engine failed (bad checkpoint shape, panic in
    /// a vertex program...).
    Internal { message: String },
}

impl ServiceError {
    /// The stable machine-readable code clients dispatch on.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::QueueFull { .. } => "queue_full",
            ServiceError::GraphNotFound { .. } => "graph_not_found",
            ServiceError::GraphTooLarge { .. } => "graph_too_large",
            ServiceError::BudgetExceeded { .. } => "budget_exceeded",
            ServiceError::NotDynamic { .. } => "not_dynamic",
            ServiceError::JobNotFound { .. } => "job_not_found",
            ServiceError::NoCheckpoint { .. } => "no_checkpoint",
            ServiceError::WrongState { .. } => "wrong_state",
            ServiceError::InvalidConfig { .. } => "invalid_config",
            ServiceError::BadRequest { .. } => "bad_request",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "job queue full ({capacity} jobs); retry later")
            }
            ServiceError::GraphNotFound { name } => write!(f, "graph `{name}` not registered"),
            ServiceError::GraphTooLarge {
                name,
                bytes,
                budget,
            } => write!(
                f,
                "graph `{name}` needs {bytes} bytes but the registry budget is {budget}"
            ),
            ServiceError::BudgetExceeded {
                name,
                bytes,
                budget,
            } => write!(
                f,
                "graph `{name}` would need {bytes} bytes, past the {budget}-byte registry \
                 budget; nothing was changed"
            ),
            ServiceError::NotDynamic { name } => write!(
                f,
                "graph `{name}` is a static registration; register it with `dynamic: true` \
                 to accept updates"
            ),
            ServiceError::JobNotFound { id } => write!(f, "no job {id}"),
            ServiceError::NoCheckpoint { id } => write!(f, "job {id} holds no checkpoint"),
            ServiceError::WrongState { id, state } => {
                write!(f, "job {id} is {state}; operation does not apply")
            }
            ServiceError::InvalidConfig { field, reason } => {
                write!(f, "config field `{field}`: {reason}")
            }
            ServiceError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}
