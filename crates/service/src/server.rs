//! The service core and its TCP front end.
//!
//! [`Service`] glues the graph registry to the job scheduler and
//! dispatches parsed [`Request`]s — it is fully usable in-process (the
//! tests and the demo drive it without a socket).  [`Server`] puts it
//! behind a `TcpListener`: one thread per connection, newline-delimited
//! JSON in, newline-delimited JSON out.  Reads use a short timeout so
//! connection threads notice shutdown instead of blocking forever; the
//! accept loop is unblocked by a self-connect.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Content;

use crate::error::ServiceError;
use crate::job::JobState;
use crate::protocol::{
    build_graph, error_response, graph_content, job_content, ok, output_content, parse_request,
    stats_content, trace_content, update_content, update_trace_content, Request,
};
use crate::registry::GraphRegistry;
use crate::scheduler::{Scheduler, SchedulerConfig};

/// Service sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Scheduler worker threads.
    pub workers: usize,
    /// Job queue capacity (admission control bound).
    pub queue_capacity: usize,
    /// Registry memory budget in bytes (0 = unbounded).
    pub memory_budget_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            memory_budget_bytes: 0,
        }
    }
}

/// Registry + scheduler behind one request-dispatch surface.
pub struct Service {
    registry: GraphRegistry,
    scheduler: Scheduler,
}

impl Service {
    /// Build a service with the given sizing.
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            registry: GraphRegistry::new(config.memory_budget_bytes),
            scheduler: Scheduler::new(SchedulerConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
            }),
        }
    }

    /// The graph registry (for in-process embedding).
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The job scheduler (for in-process embedding).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Dispatch one request to an `ok` response tree or a typed error.
    pub fn handle(&self, request: &Request) -> Result<Content, ServiceError> {
        match request {
            Request::Ping => Ok(ok().done()),
            Request::RegisterGraph {
                name,
                spec,
                dynamic,
            } => {
                let graph = build_graph(name, spec, self.registry.budget_bytes())?;
                let info = if *dynamic {
                    self.registry.register_dynamic(name, graph)?
                } else {
                    self.registry.register(name, graph)?
                };
                Ok(ok().put("graph", graph_content(&info)).done())
            }
            Request::Update {
                graph,
                insert,
                delete,
            } => {
                let outcome = self.registry.update(graph, insert, delete)?;
                Ok(ok().put("update", update_content(graph, &outcome)).done())
            }
            Request::UnregisterGraph { name } => {
                let removed = self.registry.unregister(name);
                Ok(ok().put("removed", Content::Bool(removed)).done())
            }
            Request::ListGraphs => Ok(ok()
                .put(
                    "graphs",
                    Content::Seq(self.registry.list().iter().map(graph_content).collect()),
                )
                .done()),
            Request::Submit { spec } => {
                // `admit` resolves the graph to an epoch snapshot (and,
                // for the incremental engine, the answer itself) under
                // the graph lock — the job is isolated from every batch
                // that lands after this point.
                let graph = self
                    .registry
                    .admit(&spec.graph, spec.algorithm, spec.engine)?;
                let id = self.scheduler.submit(spec.clone(), graph)?;
                Ok(ok().put("job_id", Content::U64(id)).done())
            }
            Request::Resume {
                job_id,
                deadline_ms,
            } => {
                let (id, from_superstep) = self.scheduler.resume(*job_id, *deadline_ms)?;
                Ok(ok()
                    .put("job_id", Content::U64(id))
                    .put("resumed_from", Content::U64(*job_id))
                    .put("from_superstep", Content::U64(from_superstep))
                    .done())
            }
            Request::Status { job_id } => {
                let snap = self.scheduler.status(*job_id)?;
                Ok(ok().put("job", job_content(&snap)).done())
            }
            Request::Result { job_id, wait_ms } => {
                let (snap, timed_out) = self
                    .scheduler
                    .wait_terminal(*job_id, Duration::from_millis(*wait_ms))?;
                if timed_out {
                    // The *wait* expired with the job still live — a
                    // different condition from the job itself reaching
                    // the `timed_out` terminal state, so it rides as an
                    // explicit field instead of masquerading as an error.
                    return Ok(ok()
                        .put("timed_out", Content::Bool(true))
                        .put("job", job_content(&snap))
                        .done());
                }
                match snap.state {
                    JobState::Completed => {
                        let (output, supersteps) = self.scheduler.output(*job_id)?;
                        Ok(ok()
                            .put("job_id", Content::U64(*job_id))
                            .put("timed_out", Content::Bool(false))
                            .put("supersteps", Content::U64(supersteps))
                            .put("result", output_content(&output))
                            .done())
                    }
                    JobState::Failed => match self.scheduler.output(*job_id) {
                        Err(stored) => Err(stored),
                        Ok(_) => Err(ServiceError::Internal {
                            message: format!("failed job {job_id} has an output"),
                        }),
                    },
                    other => Err(ServiceError::WrongState {
                        id: *job_id,
                        state: other.name().to_string(),
                    }),
                }
            }
            Request::Trace { job_id, graph } => match (job_id, graph) {
                (Some(id), _) => {
                    let trace = self.scheduler.trace(*id)?;
                    Ok(ok().put("trace", trace_content(&trace)).done())
                }
                (None, Some(name)) => {
                    let trace = self.registry.update_trace(name)?;
                    Ok(ok().put("trace", update_trace_content(&trace)).done())
                }
                // parse_request rejects the neither-target shape.
                (None, None) => Err(ServiceError::BadRequest {
                    message: "trace needs a `job_id` or a `graph`".to_string(),
                }),
            },
            Request::Cancel { job_id } => {
                let state = self.scheduler.cancel(*job_id)?;
                Ok(ok()
                    .put("state", Content::Str(state.name().to_string()))
                    .done())
            }
            Request::ListJobs => Ok(ok()
                .put(
                    "jobs",
                    Content::Seq(self.scheduler.list().iter().map(job_content).collect()),
                )
                .done()),
            Request::Stats => Ok(ok()
                .put(
                    "stats",
                    // Both snapshots are single-lock-coherent; see
                    // GraphRegistry::stats for the torn-read shape this
                    // replaced.
                    stats_content(&self.scheduler.stats(), &self.registry.stats()),
                )
                .done()),
            // The TCP layer intercepts Shutdown to stop the accept loop;
            // in-process callers get an acknowledgement.
            Request::Shutdown => Ok(ok().done()),
        }
    }

    /// Stop the scheduler (cancels queued work, joins workers).
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
    }
}

/// A running TCP server around a [`Service`].
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            service: Arc::new(Service::new(config)),
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for in-process inspection while serving).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Serve until a `shutdown` request arrives.  Blocks; see
    /// [`Server::spawn`] for a background thread.
    pub fn run(self) {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&self.stop);
            let addr = self.addr;
            #[expect(
                clippy::expect_used,
                reason = "spawn fails only on OS resource exhaustion; serving cannot go on"
            )]
            let handle = std::thread::Builder::new()
                .name("svc-conn".to_string())
                .spawn(move || serve_connection(stream, &service, &stop, addr))
                .expect("spawn connection thread");
            // Reap finished connections first, so the list is bounded by
            // live connections rather than by connections ever accepted.
            connections.retain(|h| !h.is_finished());
            connections.push(handle);
        }
        for handle in connections {
            let _ = handle.join();
        }
        self.service.shutdown();
    }

    /// Serve on a background thread; returns the join handle.
    pub fn spawn(self) -> JoinHandle<()> {
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS resource exhaustion, at startup"
        )]
        std::thread::Builder::new()
            .name("svc-accept".to_string())
            .spawn(move || self.run())
            .expect("spawn server thread")
    }
}

fn serve_connection(
    stream: TcpStream,
    service: &Service,
    stop: &AtomicBool,
    server_addr: SocketAddr,
) {
    // Short read timeouts let the thread poll the stop flag instead of
    // parking forever on an idle client.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // One-line responses must not sit in the Nagle buffer waiting for a
    // delayed ACK; without this every request/response pair costs ~40ms
    // on loopback regardless of the work done.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            // A timed-out read_line leaves the bytes it already consumed
            // in `line`; the next pass appends the rest of the request,
            // so `line` is cleared only once a complete line was taken.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => return,
        }
        let parsed = (!line.trim().is_empty()).then(|| {
            serde_json::from_str::<Content>(&line)
                .map_err(|e| ServiceError::BadRequest {
                    message: format!("invalid json: {e}"),
                })
                .and_then(|tree| parse_request(&tree))
        });
        line.clear();
        let Some(parsed) = parsed else {
            continue;
        };
        let is_shutdown = matches!(parsed, Ok(Request::Shutdown));
        let response = match parsed.and_then(|req| service.handle(&req)) {
            Ok(content) => content,
            Err(err) => error_response(&err),
        };
        let json = serde_json::to_string(&response).unwrap_or_else(|_| {
            r#"{"status":"error","code":"internal","message":"unserializable response"}"#
                .to_string()
        });
        let _ = writeln!(writer, "{json}");
        let _ = writer.flush();
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a self-connect.
            let _ = TcpStream::connect(server_addr);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::field_u64;
    use crate::job::{Algorithm, Engine, JobOutput, JobSpec};
    use xmt_bsp::{ActiveSetStrategy, BspConfig};
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::path;

    fn cc_on(graph: &str, deadline_ms: Option<u64>) -> Request {
        Request::Submit {
            spec: JobSpec {
                algorithm: Algorithm::Cc,
                engine: Engine::Bsp,
                graph: graph.to_string(),
                source: 0,
                damping: 0.85,
                tolerance: 1e-7,
                intersect: xmt_graph::IntersectStrategy::Auto,
                // One superstep per hop of a path, each O(frontier).
                config: BspConfig {
                    active_set: ActiveSetStrategy::Worklist,
                    max_supersteps: 1_000_000,
                    ..BspConfig::default()
                },
                priority: 0,
                deadline_ms,
            },
        }
    }

    #[test]
    fn a_rejected_resume_keeps_its_checkpoint() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            memory_budget_bytes: 0,
        });
        let scheduler = service.scheduler();
        let wait = Duration::from_secs(60);
        let submit = |request: &Request| {
            let reply = service.handle(request).unwrap();
            field_u64(&reply, "job_id").unwrap()
        };
        let registry = service.registry();
        registry
            .register("p", build_undirected(&path(1_000)))
            .unwrap();
        registry
            .register("long", build_undirected(&path(16_000)))
            .unwrap();

        let cut = submit(&cc_on("p", Some(1)));
        let (snap, _) = scheduler.wait_terminal(cut, wait).unwrap();
        assert_eq!(snap.state, JobState::TimedOut);
        // Occupy the one worker, then fill the one queue slot.
        let blocker = submit(&cc_on("long", None));
        scheduler
            .wait_job(blocker, wait, |s| s.state != JobState::Queued)
            .unwrap();
        let filler = submit(&cc_on("p", None));
        let resume = Request::Resume {
            job_id: cut,
            deadline_ms: None,
        };
        assert_eq!(
            service.handle(&resume).unwrap_err(),
            ServiceError::QueueFull { capacity: 1 }
        );
        assert!(scheduler.status(cut).unwrap().has_checkpoint);
        // A resume that can never succeed says why, full queue or not.
        let resume_of = |job_id| Request::Resume {
            job_id,
            deadline_ms: None,
        };
        assert_eq!(
            service.handle(&resume_of(999)).unwrap_err(),
            ServiceError::JobNotFound { id: 999 }
        );
        assert!(matches!(
            service.handle(&resume_of(blocker)).unwrap_err(),
            ServiceError::WrongState { state, .. } if state == "running"
        ));
        // Cancelled while queued, so it holds no checkpoint.
        let cancelled = filler;
        scheduler.cancel(cancelled).unwrap();
        let filler = submit(&cc_on("p", None));
        assert_eq!(
            service.handle(&resume_of(cancelled)).unwrap_err(),
            ServiceError::NoCheckpoint { id: cancelled }
        );

        scheduler.cancel(filler).unwrap();
        let reply = service.handle(&resume).unwrap();
        let resumed = field_u64(&reply, "job_id").unwrap();
        assert_eq!(field_u64(&reply, "resumed_from"), Some(cut));
        assert_eq!(field_u64(&reply, "from_superstep"), Some(snap.supersteps));
        scheduler.cancel(blocker).unwrap();
        let (snap, _) = scheduler.wait_terminal(resumed, wait).unwrap();
        assert_eq!(snap.state, JobState::Completed, "err={:?}", snap.error);
        match scheduler.output(resumed).unwrap() {
            (JobOutput::Labels(labels), _) => assert!(labels.iter().all(|&l| l == 0)),
            (other, _) => panic!("cc job returned {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn request_split_across_the_read_timeout_is_reassembled() {
        let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let addr = server.local_addr();
        let serving = server.spawn();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(br#"{"op":"pi"#).unwrap();
        // Longer than the connection thread's 100 ms read timeout.
        std::thread::sleep(Duration::from_millis(250));
        stream.write_all(b"ng\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains(r#""status":"ok""#), "{response}");

        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        serving.join().unwrap();
    }
}
