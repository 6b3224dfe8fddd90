//! The wire protocol: newline-delimited JSON, one request per line, one
//! response per line.
//!
//! Requests are parsed *leniently*: a raw [`Content`] tree is dispatched
//! on its `op` field and every other field is optional with a sane
//! default (the compat serde derive is strict, so request parsing is by
//! hand; responses are built as `Content` trees directly).  Every
//! response carries `"status": "ok"` or `"status": "error"` with a
//! stable machine-readable `code` from [`ServiceError::code`].
//!
//! ```text
//! → {"op":"register_graph","name":"r10","kind":"rmat","scale":10}
//! ← {"status":"ok","graph":{"name":"r10","vertices":1024,...}}
//! → {"op":"submit","algorithm":"cc","graph":"r10"}
//! ← {"status":"ok","job_id":1}
//! → {"op":"result","job_id":1,"wait_ms":5000}
//! ← {"status":"ok","job_id":1,"supersteps":7,"result":{"labels":[...]}}
//! ```

use serde::{Content, Deserialize};

use xmt_bsp::BspConfig;
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::gen::{er, structured};
use xmt_graph::{Csr, IntersectStrategy};

use crate::error::ServiceError;
use crate::job::{Algorithm, Engine, JobId, JobOutput, JobSpec};
use crate::registry::{GraphEntryInfo, RegistryStats};
use crate::scheduler::{JobSnapshot, SchedulerStats};
use crate::streaming::UpdateOutcome;

/// A parsed, validated client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Build a graph server-side and register it.
    RegisterGraph {
        /// Registry name.
        name: String,
        /// Generator description.
        spec: GraphSpec,
        /// Register as a dynamic (streaming) entry that accepts
        /// `update` batches.
        dynamic: bool,
    },
    /// Apply an edge insert/delete batch to a dynamic graph.
    Update {
        /// Registry name of the target (dynamic) graph.
        graph: String,
        /// Undirected edges to insert, as `[u, v]` pairs.
        insert: Vec<(u64, u64)>,
        /// Undirected edges to delete, as `[u, v]` pairs.
        delete: Vec<(u64, u64)>,
    },
    /// Drop a graph from the registry.
    UnregisterGraph {
        /// Registry name.
        name: String,
    },
    /// List registered graphs.
    ListGraphs,
    /// Submit a job.
    Submit {
        /// Validated job description.
        spec: JobSpec,
    },
    /// Resubmit an interrupted job from its stored checkpoint.
    Resume {
        /// The interrupted job.
        job_id: JobId,
        /// Fresh deadline for the continuation (`None` = none).
        deadline_ms: Option<u64>,
    },
    /// A job's lifecycle snapshot.
    Status {
        /// Target job.
        job_id: JobId,
    },
    /// A completed job's output, optionally waiting for it to finish.
    Result {
        /// Target job.
        job_id: JobId,
        /// Poll up to this long for the job to reach a terminal state.
        wait_ms: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Target job.
        job_id: JobId,
    },
    /// A terminal job's per-superstep trace (`job_id`), or a dynamic
    /// graph's applied-batch trace (`graph`).  Exactly one target.
    Trace {
        /// Target job, for a per-superstep trace.
        job_id: Option<JobId>,
        /// Target dynamic graph, for an update-batch trace.
        graph: Option<String>,
    },
    /// Snapshots of all jobs.
    ListJobs,
    /// Scheduler/registry counters and latency histograms.
    Stats,
    /// Drain and stop the server.
    Shutdown,
}

/// A server-side graph build recipe (`register_graph`).
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// Generator: `rmat`, `path`, `ring`, `star`, `grid`, or `gnm`.
    pub kind: String,
    /// RMAT scale (log2 vertices).
    pub scale: u32,
    /// RMAT edges per vertex.
    pub edge_factor: u64,
    /// Vertex count for `path`/`ring`/`star`/`gnm`; rows for `grid`.
    pub n: u64,
    /// Edge count for `gnm`; columns for `grid`.
    pub m: u64,
    /// Generator seed.
    pub seed: u64,
}

/// Build the CSR a [`GraphSpec`] describes, for registration as `name` in
/// a registry of `budget_bytes` (0 = unbounded).
///
/// The spec is sized before anything is generated: a degenerate or
/// overflowing size is a `bad_request`, and a build whose peak — the
/// edge list at 16 bytes an edge, both arcs of every edge at 8 bytes
/// each, and the `n + 1` offsets — exceeds the budget is
/// `budget_exceeded`.
pub fn build_graph(name: &str, spec: &GraphSpec, budget_bytes: usize) -> Result<Csr, ServiceError> {
    let (vertices, edges) = spec_size(spec)?;
    let bytes = edges
        .checked_mul(16 + 2 * 8)
        .and_then(|b| b.checked_add(vertices.checked_add(1)?.checked_mul(8)?))
        .filter(|&b| b <= isize::MAX as u64)
        .ok_or_else(|| bad("graph size overflows"))?;
    if budget_bytes > 0 && bytes > budget_bytes as u64 {
        return Err(ServiceError::BudgetExceeded {
            name: name.to_string(),
            bytes: bytes as usize,
            budget: budget_bytes,
        });
    }
    let edges = match spec.kind.as_str() {
        "rmat" => rmat_edges(
            &RmatParams {
                edge_factor: spec.edge_factor.clamp(1, 64),
                ..RmatParams::graph500(spec.scale)
            },
            spec.seed,
        ),
        "path" => structured::path(spec.n),
        "ring" => structured::ring(spec.n),
        "star" => structured::star(spec.n),
        "grid" => structured::grid(spec.n, spec.m.max(1)),
        // `spec_size` rejected every other kind.
        _ => er::gnm(spec.n, spec.m, spec.seed),
    };
    Ok(build_undirected(&edges))
}

/// Vertices and (at most) edges of the graph a spec generates.
fn spec_size(spec: &GraphSpec) -> Result<(u64, u64), ServiceError> {
    let n = spec.n;
    let kind = spec.kind.as_str();
    match kind {
        "rmat" if spec.scale == 0 || spec.scale > 24 => Err(bad("rmat scale must be in 1..=24")),
        "rmat" => {
            let n = 1u64 << spec.scale;
            Ok((n, n * spec.edge_factor.clamp(1, 64)))
        }
        "ring" if n < 3 => Err(bad("a ring needs n >= 3")),
        "path" | "star" | "grid" | "gnm" if n == 0 => Err(bad(&format!("a {kind} needs n >= 1"))),
        "path" | "star" => Ok((n, n - 1)),
        "ring" => Ok((n, n)),
        "grid" => {
            let vertices = n
                .checked_mul(spec.m.max(1))
                .ok_or_else(|| bad("grid size overflows"))?;
            Ok((vertices, vertices.saturating_mul(2)))
        }
        "gnm" => Ok((n, spec.m)),
        other => Err(bad(&format!("unknown graph kind `{other}`"))),
    }
}

fn bad(message: &str) -> ServiceError {
    ServiceError::BadRequest {
        message: message.to_string(),
    }
}

/// Look up an optional field; missing or `null` is `None`, a present
/// field of the wrong shape is a `bad_request`.
fn opt<T: Deserialize>(c: &Content, name: &str) -> Result<Option<T>, ServiceError> {
    match c {
        Content::Map(entries) => match entries.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, Content::Null)) => Ok(None),
            Some((_, v)) => T::from_content(v)
                .map(Some)
                .map_err(|e| bad(&format!("field `{name}`: {e}"))),
        },
        _ => Err(bad("request must be a JSON object")),
    }
}

fn req<T: Deserialize>(c: &Content, name: &str) -> Result<T, ServiceError> {
    opt(c, name)?.ok_or_else(|| bad(&format!("missing field `{name}`")))
}

/// Parse one request line (already JSON-decoded into a tree).
pub fn parse_request(c: &Content) -> Result<Request, ServiceError> {
    let op: String = req(c, "op")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "register_graph" => Ok(Request::RegisterGraph {
            name: req(c, "name")?,
            spec: GraphSpec {
                kind: opt(c, "kind")?.unwrap_or_else(|| "rmat".to_string()),
                scale: opt(c, "scale")?.unwrap_or(10),
                edge_factor: opt(c, "edge_factor")?.unwrap_or(16),
                n: opt(c, "n")?.unwrap_or(1024),
                m: opt(c, "m")?.unwrap_or(4096),
                seed: opt(c, "seed")?.unwrap_or(1),
            },
            dynamic: opt(c, "dynamic")?.unwrap_or(false),
        }),
        "update" => {
            let insert: Vec<(u64, u64)> = opt(c, "insert")?.unwrap_or_default();
            let delete: Vec<(u64, u64)> = opt(c, "delete")?.unwrap_or_default();
            if insert.is_empty() && delete.is_empty() {
                return Err(bad("update needs a non-empty `insert` or `delete` list"));
            }
            Ok(Request::Update {
                graph: req(c, "graph")?,
                insert,
                delete,
            })
        }
        "unregister_graph" => Ok(Request::UnregisterGraph {
            name: req(c, "name")?,
        }),
        "list_graphs" => Ok(Request::ListGraphs),
        "submit" => Ok(Request::Submit {
            spec: parse_job_spec(c)?,
        }),
        "resume" => Ok(Request::Resume {
            job_id: req(c, "job_id")?,
            deadline_ms: opt(c, "deadline_ms")?,
        }),
        "status" => Ok(Request::Status {
            job_id: req(c, "job_id")?,
        }),
        "result" => Ok(Request::Result {
            job_id: req(c, "job_id")?,
            wait_ms: opt(c, "wait_ms")?.unwrap_or(0),
        }),
        "cancel" => Ok(Request::Cancel {
            job_id: req(c, "job_id")?,
        }),
        "trace" => {
            let job_id: Option<JobId> = opt(c, "job_id")?;
            let graph: Option<String> = opt(c, "graph")?;
            match (&job_id, &graph) {
                (None, None) => Err(bad("trace needs a `job_id` or a `graph`")),
                (Some(_), Some(_)) => Err(bad("trace takes `job_id` or `graph`, not both")),
                _ => Ok(Request::Trace { job_id, graph }),
            }
        }
        "list_jobs" => Ok(Request::ListJobs),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(&format!("unknown op `{other}`"))),
    }
}

fn parse_job_spec(c: &Content) -> Result<JobSpec, ServiceError> {
    let algorithm: String = req(c, "algorithm")?;
    let algorithm = Algorithm::parse(&algorithm)
        .ok_or_else(|| bad(&format!("unknown algorithm `{algorithm}`")))?;
    let engine: Option<String> = opt(c, "engine")?;
    let engine = match engine {
        None => Engine::Bsp,
        Some(name) => Engine::parse(&name).ok_or_else(|| {
            bad(&format!(
                "unknown engine `{name}` (expected `bsp`/`sim`/`native`, `graphct`/`shared`, \
                 or `incremental`/`inc`)"
            ))
        })?,
    };
    // `config` takes a full serialized BspConfig (strict, all fields);
    // `max_supersteps` alone is the common-case shortcut.
    let mut config = parse_config(c)?;
    if let Some(max) = opt::<u64>(c, "max_supersteps")? {
        config.max_supersteps = max;
    }
    let intersect = match opt::<String>(c, "intersect")? {
        None => IntersectStrategy::default(),
        Some(name) => {
            IntersectStrategy::parse(&name).ok_or_else(|| ServiceError::InvalidConfig {
                field: "intersect",
                reason: format!("unknown intersect strategy `{name}` (expected `merge` or `hash`)"),
            })?
        }
    };
    Ok(JobSpec {
        algorithm,
        engine,
        graph: req(c, "graph")?,
        source: opt(c, "source")?.unwrap_or(0),
        damping: opt(c, "damping")?.unwrap_or(0.85),
        tolerance: opt(c, "tolerance")?.unwrap_or(1e-7),
        intersect,
        config,
        priority: opt(c, "priority")?.unwrap_or(0),
        deadline_ms: opt(c, "deadline_ms")?,
    })
}

/// The request's `config` object as a [`BspConfig`], the default when
/// absent.  Every key must be a `BspConfig` field and every field must
/// be there: a misspelt or retired key, or a retired variant name, is an
/// `invalid_config` naming it instead of a job that silently runs on
/// the defaults.
fn parse_config(c: &Content) -> Result<BspConfig, ServiceError> {
    const FIELDS: [&str; 4] = ["transport", "active_set", "delivery", "max_supersteps"];
    let Some(tree) = opt::<Content>(c, "config")? else {
        return Ok(BspConfig::default());
    };
    let Content::Map(entries) = &tree else {
        return Err(bad("field `config`: expected an object"));
    };
    if let Some((key, _)) = entries.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
        return Err(ServiceError::InvalidConfig {
            field: "config",
            reason: format!(
                "unknown key `{key}` (a config has `{}`)",
                FIELDS.join("`, `")
            ),
        });
    }
    fn field<T: Deserialize>(tree: &Content, name: &'static str) -> Result<T, ServiceError> {
        serde::get_field(tree, name).map_err(|e| ServiceError::InvalidConfig {
            field: name,
            reason: e.to_string(),
        })
    }
    Ok(BspConfig {
        transport: field(&tree, "transport")?,
        active_set: field(&tree, "active_set")?,
        delivery: field(&tree, "delivery")?,
        max_supersteps: field(&tree, "max_supersteps")?,
    })
}

/// Tiny ordered-map builder for response trees.
pub struct Obj(Vec<(String, Content)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    /// Append a field.
    pub fn put(mut self, key: &str, value: Content) -> Self {
        self.0.push((key.to_string(), value));
        self
    }

    /// Finish into a [`Content::Map`].
    pub fn done(self) -> Content {
        Content::Map(self.0)
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// `{"status":"ok"}`, ready for more fields.
pub fn ok() -> Obj {
    Obj::new().put("status", str("ok"))
}

/// An error response tree for `err`.
pub fn error_response(err: &ServiceError) -> Content {
    Obj::new()
        .put("status", str("error"))
        .put("code", str(err.code()))
        .put("message", str(&err.to_string()))
        .done()
}

/// `Content::Str` shorthand.
pub fn str(s: &str) -> Content {
    Content::Str(s.to_string())
}

/// `Content::U64` shorthand.
pub fn u64v(v: u64) -> Content {
    Content::U64(v)
}

/// A graph registry row as a response tree.
pub fn graph_content(info: &GraphEntryInfo) -> Content {
    Obj::new()
        .put("name", str(&info.name))
        .put("vertices", u64v(info.vertices))
        .put("edges", u64v(info.edges))
        .put("bytes", u64v(info.bytes))
        .put("dynamic", Content::Bool(info.dynamic))
        .put("epoch", u64v(info.epoch))
        .done()
}

/// An applied update batch's outcome as a response tree.
pub fn update_content(graph: &str, outcome: &UpdateOutcome) -> Content {
    Obj::new()
        .put("graph", str(graph))
        .put("epoch", u64v(outcome.epoch))
        .put("inserted", u64v(outcome.inserted))
        .put("deleted", u64v(outcome.deleted))
        .put("edges", u64v(outcome.edges))
        .put("bytes", u64v(outcome.bytes))
        .done()
}

/// A dynamic graph's applied-batch trace as a response tree.  The
/// series is empty when the `trace` feature is off.
pub fn update_trace_content(trace: &xmt_trace::UpdateTrace) -> Content {
    Obj::new()
        .put("graph", str(&trace.graph))
        .put(
            "updates",
            Content::Seq(
                trace
                    .updates
                    .iter()
                    .map(|u| {
                        Obj::new()
                            .put("epoch", u64v(u.epoch))
                            .put("inserted", u64v(u.inserted))
                            .put("deleted", u64v(u.deleted))
                            .put("edges_after", u64v(u.edges_after))
                            .put("bytes_after", u64v(u.bytes_after))
                            .put("apply_ns", u64v(u.apply_ns))
                            .done()
                    })
                    .collect(),
            ),
        )
        .done()
}

/// A job snapshot as a response tree.
pub fn job_content(snap: &JobSnapshot) -> Content {
    let mut obj = Obj::new()
        .put("job_id", u64v(snap.id))
        .put("state", str(snap.state.name()))
        .put("algorithm", str(snap.algorithm))
        .put("engine", str(snap.engine))
        .put("graph", str(&snap.graph))
        .put("priority", u64v(snap.priority as u64))
        .put("queued_ms", u64v(snap.queued_ms))
        .put("running_ms", u64v(snap.running_ms))
        .put("supersteps", u64v(snap.supersteps))
        .put("epoch", u64v(snap.epoch))
        .put("has_checkpoint", Content::Bool(snap.has_checkpoint));
    if let Some(err) = &snap.error {
        obj = obj.put("error", str(err));
    }
    obj.done()
}

/// A job output as a response tree (`labels` / `dist`+`parent` /
/// `ranks`).
pub fn output_content(output: &JobOutput) -> Content {
    match output {
        JobOutput::Labels(labels) => Obj::new()
            .put(
                "labels",
                Content::Seq(labels.iter().map(|&l| Content::U64(l)).collect()),
            )
            .done(),
        JobOutput::Bfs { dist, parent } => Obj::new()
            .put(
                "dist",
                Content::Seq(dist.iter().map(|&d| Content::U64(d)).collect()),
            )
            .put(
                "parent",
                Content::Seq(parent.iter().map(|&p| Content::U64(p)).collect()),
            )
            .done(),
        JobOutput::Ranks(ranks) => Obj::new()
            .put(
                "ranks",
                Content::Seq(ranks.iter().map(|&r| Content::F64(r)).collect()),
            )
            .done(),
        JobOutput::Triangles(count) => Obj::new().put("triangles", u64v(*count)).done(),
    }
}

/// A job's per-superstep trace as a response tree.  Phase timings ride
/// as nanoseconds.
pub fn trace_content(trace: &xmt_trace::JobTrace) -> Content {
    Obj::new()
        .put("label", str(&trace.label))
        .put(
            "supersteps",
            Content::Seq(
                trace
                    .supersteps
                    .iter()
                    .map(|t| {
                        Obj::new()
                            .put("superstep", u64v(t.superstep))
                            .put("active", u64v(t.active))
                            .put("messages_sent", u64v(t.messages_sent))
                            .put("messages_generated", u64v(t.messages_generated))
                            .put("messages_delivered", u64v(t.messages_delivered))
                            .put("halt_votes", u64v(t.halt_votes))
                            .put("pulled", Content::Bool(t.pulled))
                            .put("pull_probes", u64v(t.pull_probes))
                            .put("bytes_deposited", u64v(t.bytes_deposited))
                            .put("scan_ns", u64v(t.scan_ns))
                            .put("compute_ns", u64v(t.compute_ns))
                            .put("exchange_ns", u64v(t.exchange_ns))
                            .put("total_ns", u64v(t.total_ns))
                            .done()
                    })
                    .collect(),
            ),
        )
        .done()
}

/// Scheduler + registry stats as a response tree.
pub fn stats_content(stats: &SchedulerStats, registry: &RegistryStats) -> Content {
    Obj::new()
        .put("workers", u64v(stats.workers as u64))
        .put("queue_capacity", u64v(stats.queue_capacity as u64))
        .put("queue_depth", u64v(stats.queue_depth as u64))
        .put("submitted", u64v(stats.submitted))
        .put("rejected", u64v(stats.rejected))
        .put(
            "jobs_by_state",
            Content::Map(
                stats
                    .jobs_by_state
                    .iter()
                    .map(|(name, count)| (name.to_string(), Content::U64(*count)))
                    .collect(),
            ),
        )
        .put(
            "latencies",
            Content::Seq(
                stats
                    .latencies
                    .iter()
                    .map(|s| {
                        Obj::new()
                            .put("label", str(&s.label))
                            .put("completed", u64v(s.completed))
                            .put("mean_ms", Content::F64(s.mean_ms))
                            .put("p50_ms", Content::F64(s.p50_ms))
                            .put("p99_ms", Content::F64(s.p99_ms))
                            .put("max_ms", Content::F64(s.max_ms))
                            .done()
                    })
                    .collect(),
            ),
        )
        .put(
            "registry",
            Obj::new()
                .put("graphs", u64v(registry.graphs as u64))
                .put("dynamic_graphs", u64v(registry.dynamic_graphs as u64))
                .put("used_bytes", u64v(registry.used_bytes as u64))
                .put("budget_bytes", u64v(registry.budget_bytes as u64))
                .put("evictions", u64v(registry.evictions))
                .put("batches_applied", u64v(registry.batches_applied))
                .put("edges_inserted", u64v(registry.edges_inserted))
                .put("edges_deleted", u64v(registry.edges_deleted))
                .put("snapshot_epochs_live", u64v(registry.snapshot_epochs_live))
                .done(),
        )
        .done()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, ServiceError> {
        let tree: Content = serde_json::from_str(line).expect("valid json");
        parse_request(&tree)
    }

    #[test]
    fn minimal_submit_fills_defaults() {
        let req = parse(r#"{"op":"submit","algorithm":"cc","graph":"g"}"#).unwrap();
        let Request::Submit { spec } = req else {
            panic!("wrong op");
        };
        assert_eq!(spec.algorithm, Algorithm::Cc);
        assert_eq!(spec.engine, Engine::Bsp);
        assert_eq!(spec.graph, "g");
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.config, BspConfig::default());
    }

    #[test]
    fn engine_names_parse_and_rejections_list_them() {
        for (name, engine) in [
            ("bsp", Engine::Bsp),
            ("sim", Engine::Bsp),
            ("native", Engine::Bsp),
            ("graphct", Engine::GraphCt),
            ("shared", Engine::GraphCt),
            ("incremental", Engine::Incremental),
            ("inc", Engine::Incremental),
        ] {
            let line =
                format!(r#"{{"op":"submit","algorithm":"cc","engine":"{name}","graph":"g"}}"#);
            let Request::Submit { spec } = parse(&line).unwrap() else {
                panic!("wrong op");
            };
            assert_eq!(spec.engine, engine, "engine name `{name}`");
        }
        // One BSP engine, whatever it was asked for as: replies say `bsp`.
        assert_eq!(Engine::parse("native").map(|e| e.name()), Some("bsp"));
        assert_eq!(Engine::parse("sim").map(|e| e.name()), Some("bsp"));
        let err =
            parse(r#"{"op":"submit","algorithm":"cc","engine":"warp","graph":"g"}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let msg = err.to_string();
        for expected in [
            "warp",
            "bsp",
            "sim",
            "native",
            "graphct",
            "shared",
            "incremental",
        ] {
            assert!(msg.contains(expected), "`{msg}` missing `{expected}`");
        }
    }

    #[test]
    fn update_op_parses_pair_lists() {
        let req = parse(r#"{"op":"update","graph":"g","insert":[[0,1],[1,2]],"delete":[[3,4]]}"#)
            .unwrap();
        let Request::Update {
            graph,
            insert,
            delete,
        } = req
        else {
            panic!("wrong op");
        };
        assert_eq!(graph, "g");
        assert_eq!(insert, vec![(0, 1), (1, 2)]);
        assert_eq!(delete, vec![(3, 4)]);

        // One-sided batches are fine; empty ones are not.
        assert!(parse(r#"{"op":"update","graph":"g","delete":[[0,1]]}"#).is_ok());
        assert_eq!(
            parse(r#"{"op":"update","graph":"g"}"#).unwrap_err().code(),
            "bad_request"
        );
    }

    #[test]
    fn register_graph_dynamic_flag_defaults_off() {
        let Request::RegisterGraph { dynamic, .. } =
            parse(r#"{"op":"register_graph","name":"g","kind":"path","n":8}"#).unwrap()
        else {
            panic!("wrong op");
        };
        assert!(!dynamic);
        let Request::RegisterGraph { dynamic, .. } =
            parse(r#"{"op":"register_graph","name":"g","kind":"path","n":8,"dynamic":true}"#)
                .unwrap()
        else {
            panic!("wrong op");
        };
        assert!(dynamic);
    }

    #[test]
    fn trace_targets_a_job_xor_a_graph() {
        assert!(matches!(
            parse(r#"{"op":"trace","job_id":3}"#).unwrap(),
            Request::Trace {
                job_id: Some(3),
                graph: None,
            }
        ));
        let Request::Trace { job_id, graph } = parse(r#"{"op":"trace","graph":"g"}"#).unwrap()
        else {
            panic!("wrong op");
        };
        assert_eq!(job_id, None);
        assert_eq!(graph.as_deref(), Some("g"));
        assert_eq!(
            parse(r#"{"op":"trace"}"#).unwrap_err().code(),
            "bad_request"
        );
        assert_eq!(
            parse(r#"{"op":"trace","job_id":1,"graph":"g"}"#)
                .unwrap_err()
                .code(),
            "bad_request"
        );
    }

    #[test]
    fn triangles_output_serializes_as_a_count() {
        let tree = output_content(&JobOutput::Triangles(42));
        let json = serde_json::to_string(&tree).unwrap();
        assert_eq!(json, r#"{"triangles":42}"#);
    }

    #[test]
    fn full_config_rides_the_wire() {
        use xmt_bsp::{ActiveSetStrategy, Delivery, Transport};
        let config = BspConfig {
            transport: Transport::SingleQueue,
            active_set: ActiveSetStrategy::Worklist,
            delivery: Delivery::Auto,
            max_supersteps: 3,
        };
        let json = serde_json::to_string(&config).unwrap();
        let line = format!(
            r#"{{"op":"submit","algorithm":"pagerank","engine":"graphct","graph":"g","config":{json},"priority":5,"deadline_ms":250}}"#
        );
        let Request::Submit { spec } = parse(&line).unwrap() else {
            panic!("wrong op");
        };
        assert_eq!(spec.engine, Engine::GraphCt);
        assert_eq!(spec.config, config);
        assert_eq!(spec.priority, 5);
        assert_eq!(spec.deadline_ms, Some(250));
        // The top-level shortcut wins over the object's value.
        let line = format!(
            r#"{{"op":"submit","algorithm":"cc","graph":"g","config":{json},"max_supersteps":9}}"#
        );
        let Request::Submit { spec } = parse(&line).unwrap() else {
            panic!("wrong op");
        };
        assert_eq!(spec.config.max_supersteps, 9);
    }

    /// A `submit` whose `config` object is `body`.
    fn submit_with_config(body: &str) -> Result<Request, ServiceError> {
        parse(&format!(
            r#"{{"op":"submit","algorithm":"cc","graph":"g","config":{{{body}}}}}"#
        ))
    }

    const FOUR: &str = r#""transport":"PerThreadOutbox","active_set":"DenseScan","delivery":"Push","max_supersteps":10"#;

    #[test]
    fn unknown_config_keys_are_invalid_config_not_dropped() {
        assert!(submit_with_config(FOUR).is_ok());
        // A typo, a key that never existed, the three retired tuning
        // knobs, and `intersect`, which is a job field now.
        for key in [
            "trasnport",
            "no_such_knob",
            "pull_threshold",
            "beamer_alpha",
            "beamer_beta",
            "intersect",
        ] {
            let err = submit_with_config(&format!(r#"{FOUR},"{key}":1"#)).unwrap_err();
            assert_eq!(err.code(), "invalid_config", "key `{key}`");
            let ServiceError::InvalidConfig { field, reason } = &err else {
                panic!("wrong variant");
            };
            assert_eq!(*field, "config");
            assert!(reason.contains(&format!("`{key}`")), "{reason}");
        }
    }

    #[test]
    fn retired_variant_names_and_missing_fields_are_invalid_config() {
        let err = submit_with_config(&FOUR.replace("PerThreadOutbox", "Bucketed")).unwrap_err();
        assert_eq!(err.code(), "invalid_config");
        let ServiceError::InvalidConfig { field, reason } = &err else {
            panic!("wrong variant");
        };
        assert_eq!(*field, "transport");
        assert!(reason.contains("Bucketed"), "{reason}");
        // The object stays strict: all four fields or none.
        let err = submit_with_config(r#""transport":"SingleQueue""#).unwrap_err();
        assert_eq!(err.code(), "invalid_config");
        assert!(err.to_string().contains("active_set"), "{err}");
        // Not an object at all is a malformed envelope.
        let err = parse(r#"{"op":"submit","algorithm":"cc","graph":"g","config":7}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn intersect_shortcut_sets_strategy() {
        // Top-level field, lowercase CLI spelling.
        let Request::Submit { spec } =
            parse(r#"{"op":"submit","algorithm":"tc","graph":"g","intersect":"hash"}"#).unwrap()
        else {
            panic!("wrong op");
        };
        assert_eq!(spec.intersect, IntersectStrategy::Hash);
        // Default when absent.
        let Request::Submit { spec } =
            parse(r#"{"op":"submit","algorithm":"tc","graph":"g"}"#).unwrap()
        else {
            panic!("wrong op");
        };
        assert_eq!(spec.intersect, IntersectStrategy::Hash);
        // The line the benchmark sends.
        let Request::Submit { spec } = parse(
            r#"{"op":"submit","algorithm":"triangles","engine":"graphct","graph":"g","intersect":"merge"}"#,
        )
        .unwrap() else {
            panic!("wrong op");
        };
        assert_eq!(spec.intersect, IntersectStrategy::Merge);
    }

    #[test]
    fn unknown_intersect_strategy_is_invalid_config() {
        // `binsearch` and `auto` were strategies until they were retired;
        // they are now as unknown as any other name.
        for name in ["quadratic", "binsearch", "BinSearch", "auto"] {
            let line =
                format!(r#"{{"op":"submit","algorithm":"tc","graph":"g","intersect":"{name}"}}"#);
            let err = parse(&line).unwrap_err();
            assert_eq!(err.code(), "invalid_config");
            let ServiceError::InvalidConfig { field, reason } = &err else {
                panic!("wrong variant");
            };
            assert_eq!(*field, "intersect");
            assert!(reason.contains(name), "{reason}");
        }
    }

    #[test]
    fn unknown_op_and_missing_fields_are_bad_requests() {
        assert_eq!(parse(r#"{"op":"nope"}"#).unwrap_err().code(), "bad_request");
        assert_eq!(
            parse(r#"{"op":"submit","graph":"g"}"#).unwrap_err().code(),
            "bad_request"
        );
        assert_eq!(
            parse(r#"{"op":"status"}"#).unwrap_err().code(),
            "bad_request"
        );
    }

    #[test]
    fn graph_specs_build() {
        let spec = GraphSpec {
            kind: "path".to_string(),
            scale: 0,
            edge_factor: 0,
            n: 5,
            m: 0,
            seed: 0,
        };
        assert_eq!(build_graph("g", &spec, 0).unwrap().num_vertices(), 5);
        let rmat = GraphSpec {
            kind: "rmat".to_string(),
            scale: 6,
            edge_factor: 4,
            n: 0,
            m: 0,
            seed: 7,
        };
        assert_eq!(build_graph("g", &rmat, 0).unwrap().num_vertices(), 64);
        let nope = GraphSpec {
            kind: "torus".to_string(),
            ..spec
        };
        assert_eq!(
            build_graph("g", &nope, 0).unwrap_err().code(),
            "bad_request"
        );
    }

    /// A spec of `kind` with the given sizes; the rest as the wire defaults.
    fn spec(kind: &str, n: u64, m: u64) -> GraphSpec {
        GraphSpec {
            kind: kind.to_string(),
            scale: 10,
            edge_factor: 16,
            n,
            m,
            seed: 1,
        }
    }

    fn code_of(spec: &GraphSpec, budget: usize) -> &'static str {
        build_graph("x", spec, budget).unwrap_err().code()
    }

    #[test]
    fn a_ring_below_three_vertices_is_a_bad_request() {
        for n in 0..3 {
            assert_eq!(code_of(&spec("ring", n, 0), 0), "bad_request", "n = {n}");
        }
        assert_eq!(
            build_graph("x", &spec("ring", 3, 0), 0)
                .unwrap()
                .num_edges(),
            3
        );
    }

    #[test]
    fn an_empty_star_or_gnm_is_a_bad_request() {
        for kind in ["star", "gnm", "path", "grid"] {
            assert_eq!(code_of(&spec(kind, 0, 4), 0), "bad_request", "{kind}");
        }
        assert_eq!(
            build_graph("x", &spec("star", 1, 0), 0)
                .unwrap()
                .num_vertices(),
            1
        );
    }

    #[test]
    fn a_grid_whose_size_overflows_is_a_bad_request() {
        let err = build_graph("x", &spec("grid", 1 << 33, 1 << 33), 0).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        assert!(err.to_string().contains("overflows"), "{err}");
        // Vertices that fit but bytes that do not.
        assert_eq!(code_of(&spec("grid", 1 << 31, 1 << 31), 0), "bad_request");
        assert_eq!(code_of(&spec("gnm", 8, u64::MAX / 8), 0), "bad_request");
    }

    #[test]
    fn a_build_past_the_budget_is_refused_before_it_is_generated() {
        // RMAT scale 24 at edge factor 64 would be 2^30 edges: 32 GiB of
        // edge list and arcs, refused without being generated.
        let big = GraphSpec {
            scale: 24,
            edge_factor: 64,
            ..spec("rmat", 0, 0)
        };
        let err = build_graph("big", &big, 64 << 20).unwrap_err();
        let ServiceError::BudgetExceeded {
            name,
            bytes,
            budget,
        } = &err
        else {
            panic!("wrong variant: {err:?}");
        };
        assert_eq!((name.as_str(), *budget), ("big", 64 << 20));
        assert_eq!(*bytes, (1 << 30) * 32 + ((1 << 24) + 1) * 8);
        for kind in ["path", "star", "gnm"] {
            assert_eq!(
                code_of(&spec(kind, 1 << 40, 1 << 40), 1 << 30),
                "budget_exceeded"
            );
        }
        // The projection is exact at the boundary: path(5) is 4 edges.
        let path = spec("path", 5, 0);
        let need = 4 * 32 + 6 * 8;
        assert_eq!(code_of(&path, need - 1), "budget_exceeded");
        assert!(build_graph("x", &path, need).is_ok());
    }

    #[test]
    fn error_responses_carry_stable_codes() {
        let tree = error_response(&ServiceError::QueueFull { capacity: 4 });
        let json = serde_json::to_string(&tree).unwrap();
        assert!(json.contains(r#""code":"queue_full""#), "{json}");
        assert!(json.contains(r#""status":"error""#), "{json}");
    }
}
