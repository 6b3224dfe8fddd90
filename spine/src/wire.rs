//! The client side of the wire protocol as the benchmark drives it: a
//! loopback server, a connection that hands back raw response lines (so
//! decoding can be timed apart from the round trip), and decoders from
//! a result tree back to a [`JobOutput`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;

use serde::Content;
use xmt_service::client::{field, field_str, field_u64};
use xmt_service::{JobOutput, Server, ServiceConfig};

use crate::spans::Tracer;

/// The server both service workloads run against (ISSUE: 2 workers,
/// queue 32, no memory budget).
pub const SERVER: ServiceConfig = ServiceConfig {
    workers: 2,
    queue_capacity: 32,
    memory_budget_bytes: 0,
};

/// How long a `result` request may wait server-side.  Far above any
/// job here; a job that outlives it is counted as failed.
pub const RESULT_WAIT_MS: u64 = 120_000;

/// A spawned loopback server; [`Live::stop`] shuts it down over the
/// wire and joins it.
pub struct Live {
    pub addr: String,
    thread: JoinHandle<()>,
}

impl Live {
    pub fn start() -> Live {
        let server = Server::bind("127.0.0.1:0", SERVER).expect("bind loopback");
        Live {
            addr: server.local_addr().to_string(),
            thread: server.spawn(),
        }
    }

    /// Start a server and register one graph on it over the wire (the
    /// server generates and builds it): a service workload's set-up.
    pub fn with_graph(register_line: &str) -> Live {
        let live = Live::start();
        Conn::open(&live.addr)
            .call(register_line)
            .expect("register the workload's graph");
        live
    }

    /// Send `shutdown` and wait for the accept loop, the connection
    /// threads and the scheduler workers to end.  Every other
    /// connection must be closed first: the server joins them.
    pub fn stop(self) {
        let mut conn = Conn::open(&self.addr);
        conn.send(r#"{"op":"shutdown"}"#);
        let _ = conn.recv();
        drop(conn);
        self.thread.join().expect("server thread");
    }
}

/// One connection; one request line out, one response line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Conn {
            writer: stream,
            reader,
        }
    }

    pub fn send(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("write request");
    }

    /// The next raw response line (without the newline).
    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection");
        line.truncate(line.trim_end().len());
        line
    }

    /// Send, receive, decode; `Err` carries the server's error code.
    pub fn call(&mut self, line: &str) -> Result<Content, String> {
        self.send(line);
        decode(&self.recv())
    }
}

/// Parse a response line; an `error` status becomes `Err(code: message)`.
pub fn decode(line: &str) -> Result<Content, String> {
    let tree: Content =
        serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))?;
    match field_str(&tree, "status") {
        Some("ok") => Ok(tree),
        _ => Err(format!(
            "{}: {}",
            field_str(&tree, "code").unwrap_or("no_status"),
            field_str(&tree, "message").unwrap_or("")
        )),
    }
}

pub fn result_line(job_id: u64) -> String {
    format!(r#"{{"op":"result","job_id":{job_id},"wait_ms":{RESULT_WAIT_MS}}}"#)
}

fn u64s(tree: &Content, name: &str) -> Option<Vec<u64>> {
    match field(tree, name)? {
        Content::Seq(items) => items
            .iter()
            .map(|i| match i {
                Content::U64(v) => Some(*v),
                Content::I64(v) => u64::try_from(*v).ok(),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// Turn a decoded `result` response back into the job's output.
pub fn output_of(response: &Content) -> Result<JobOutput, String> {
    if xmt_service::client::field_bool(response, "timed_out") == Some(true) {
        return Err("result wait timed out".to_string());
    }
    let result = field(response, "result").ok_or("response has no result")?;
    if let Some(labels) = u64s(result, "labels") {
        return Ok(JobOutput::Labels(labels));
    }
    if let (Some(dist), Some(parent)) = (u64s(result, "dist"), u64s(result, "parent")) {
        return Ok(JobOutput::Bfs { dist, parent });
    }
    if let Some(count) = field_u64(result, "triangles") {
        return Ok(JobOutput::Triangles(count));
    }
    if let Some(Content::Seq(items)) = field(result, "ranks") {
        let ranks: Option<Vec<f64>> = items
            .iter()
            .map(|i| match i {
                Content::F64(v) => Some(*v),
                Content::U64(v) => Some(*v as f64),
                Content::I64(v) => Some(*v as f64),
                _ => None,
            })
            .collect();
        return ranks
            .map(JobOutput::Ranks)
            .ok_or_else(|| "non-numeric rank".to_string());
    }
    Err("result of unknown shape".to_string())
}

/// One job served start to finish on a connection of its own turn.
pub struct Served {
    pub output: Result<JobOutput, String>,
    pub id: Option<u64>,
    /// The span that waited for the result line; [`lay_out_run`] fills
    /// it in from the server's own account.
    pub wait_span: usize,
}

/// Submit `line`, wait for the job, decode its output, with a span per
/// step under a `job` span.  On a dynamic graph `submit` is where the
/// registry materializes the epoch snapshot (or, for the incremental
/// engine, captures the answer), so the step is charged to the registry.
pub fn serve(
    conn: &mut Conn,
    tracer: &mut Tracer,
    parent: Option<usize>,
    job: u64,
    line: &str,
) -> Served {
    let span = tracer.begin("job", "service.client", parent, job);
    let submit = tracer.begin("submit", "service.registry", Some(span), job);
    let accepted = conn.call(line);
    tracer.end(submit);
    let id = accepted
        .as_ref()
        .ok()
        .and_then(|tree| field_u64(tree, "job_id"));
    let wait_span = tracer.begin("result", "service.server", Some(span), job);
    let raw = id.map(|id| {
        conn.send(&result_line(id));
        conn.recv()
    });
    tracer.end(wait_span);
    let decoding = tracer.begin("decode", "service.client", Some(span), job);
    let output = match raw {
        Some(raw) => decode(&raw).and_then(|tree| output_of(&tree)),
        None => Err(format!("submit refused: {accepted:?}")),
    };
    tracer.end(decoding);
    tracer.end(span);
    Served {
        output,
        id,
        wait_span,
    }
}

/// Submit a job, wait for it, return its output: for set-up and
/// end-state checks, which record no spans.
pub fn run_job(conn: &mut Conn, submit: &str) -> Result<JobOutput, String> {
    serve(conn, &mut Tracer::off(), None, 0, submit).output
}

/// The server's account of a finished job (`status`): whole
/// milliseconds queued and running, and the epoch it computed against.
pub struct JobStatus {
    pub queued_ms: u64,
    pub running_ms: u64,
    pub epoch: u64,
}

pub fn status(conn: &mut Conn, id: u64) -> Option<JobStatus> {
    let tree = conn
        .call(&format!(r#"{{"op":"status","job_id":{id}}}"#))
        .ok()?;
    let job = field(&tree, "job")?;
    Some(JobStatus {
        queued_ms: field_u64(job, "queued_ms")?,
        running_ms: field_u64(job, "running_ms")?,
        epoch: field_u64(job, "epoch")?,
    })
}

/// Lay the job's queue wait and run out at the start of the span that
/// waited for its result; what that span keeps as self time is
/// delivery (encode, socket write and read).
pub fn lay_out_run(
    tracer: &mut Tracer,
    wait_span: usize,
    status: &JobStatus,
    run_layer: &'static str,
) {
    tracer.children(
        wait_span,
        0,
        &[
            (
                "queue_wait",
                "service.scheduler",
                status.queued_ms * 1_000_000,
            ),
            ("run", run_layer, status.running_ms * 1_000_000),
        ],
    );
}

/// The edge count `list_graphs` reports for the first registered graph.
pub fn listed_edges(conn: &mut Conn) -> Option<u64> {
    let tree = conn.call(r#"{"op":"list_graphs"}"#).ok()?;
    match field(&tree, "graphs")? {
        Content::Seq(graphs) => field_u64(graphs.first()?, "edges"),
        _ => None,
    }
}

/// `(epoch, apply_ns)` of a dynamic graph's recent batches, through the
/// `trace` op (the server keeps a bounded window).
pub fn applied_batches(conn: &mut Conn, graph: &str) -> Vec<(u64, u64)> {
    let Ok(tree) = conn.call(&format!(r#"{{"op":"trace","graph":"{graph}"}}"#)) else {
        return Vec::new();
    };
    match field(&tree, "trace").and_then(|t| field(t, "updates")) {
        Some(Content::Seq(updates)) => updates
            .iter()
            .filter_map(|u| Some((field_u64(u, "epoch")?, field_u64(u, "apply_ns")?)))
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_separates_ok_from_error() {
        assert!(decode(r#"{"status":"ok","job_id":3}"#).is_ok());
        let err = decode(r#"{"status":"error","code":"queue_full","message":"full"}"#).unwrap_err();
        assert!(err.starts_with("queue_full"));
        assert!(decode("not json").is_err());
    }

    #[test]
    fn outputs_round_trip_through_result_trees() {
        let tree = decode(
            r#"{"status":"ok","job_id":1,"timed_out":false,"supersteps":2,"result":{"dist":[0,1],"parent":[0,0]}}"#,
        )
        .unwrap();
        assert_eq!(
            output_of(&tree).unwrap(),
            JobOutput::Bfs {
                dist: vec![0, 1],
                parent: vec![0, 0]
            }
        );
        let tree = decode(r#"{"status":"ok","result":{"ranks":[0.25,1.0e-3]}}"#).unwrap();
        assert_eq!(
            output_of(&tree).unwrap(),
            JobOutput::Ranks(vec![0.25, 1.0e-3])
        );
        let tree = decode(r#"{"status":"ok","timed_out":true,"job":{}}"#).unwrap();
        assert!(output_of(&tree).is_err());
    }
}
