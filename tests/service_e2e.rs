//! End-to-end tests for the graph-analytics service: a real TCP server
//! on loopback, driven through the newline-delimited JSON protocol, with
//! every result checked against a direct `run_bsp` on the same graph.

use std::thread;

use serde::Content;
use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp::{run_bsp, ActiveSetStrategy, BspConfig};
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::er;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::Csr;
use xmt_service::client::{field, field_bool, field_str, field_u64};
use xmt_service::server::MAX_REQUEST_BYTES;
use xmt_service::{Client, Server, ServiceConfig};

const RMAT_SCALE: u32 = 8;
const RMAT_SEED: u64 = 3;
const GNM_N: u64 = 600;
const GNM_M: u64 = 2_000;
const GNM_SEED: u64 = 5;

fn start_server(config: ServiceConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (addr, server.spawn())
}

fn rmat_graph() -> Csr {
    let params = RmatParams {
        edge_factor: 8,
        ..RmatParams::graph500(RMAT_SCALE)
    };
    build_undirected(&rmat_edges(&params, RMAT_SEED))
}

fn gnm_graph() -> Csr {
    build_undirected(&er::gnm(GNM_N, GNM_M, GNM_SEED))
}

fn register_both(client: &mut Client) {
    let r = client
        .request_line(&format!(
            r#"{{"op":"register_graph","name":"rmat","kind":"rmat","scale":{RMAT_SCALE},"edge_factor":8,"seed":{RMAT_SEED}}}"#
        ))
        .expect("register rmat");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    let r = client
        .request_line(&format!(
            r#"{{"op":"register_graph","name":"gnm","kind":"gnm","n":{GNM_N},"m":{GNM_M},"seed":{GNM_SEED}}}"#
        ))
        .expect("register gnm");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
}

/// Submit a job and wait for its result tree.
fn run_job(client: &mut Client, job_json: &str) -> Content {
    let r = client.request_line(job_json).expect("submit");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    let id = field_u64(&r, "job_id").expect("job id");
    let r = client
        .request_line(&format!(
            r#"{{"op":"result","job_id":{id},"wait_ms":120000}}"#
        ))
        .expect("result");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    r
}

fn labels_of(response: &Content) -> Vec<u64> {
    let result = field(response, "result").expect("result field");
    seq_u64(field(result, "labels").expect("labels"))
}

fn seq_u64(c: &Content) -> Vec<u64> {
    match c {
        Content::Seq(items) => items
            .iter()
            .map(|i| match i {
                Content::U64(v) => *v,
                Content::I64(v) => *v as u64,
                other => panic!("non-integer element {other:?}"),
            })
            .collect(),
        other => panic!("expected seq, found {other:?}"),
    }
}

fn seq_f64(c: &Content) -> Vec<f64> {
    match c {
        Content::Seq(items) => items
            .iter()
            .map(|i| match i {
                Content::F64(v) => *v,
                Content::U64(v) => *v as f64,
                Content::I64(v) => *v as f64,
                other => panic!("non-float element {other:?}"),
            })
            .collect(),
        other => panic!("expected seq, found {other:?}"),
    }
}

#[test]
fn serves_all_three_kernels_matching_direct_runs() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    register_both(&mut client);

    let rmat = rmat_graph();
    let config = BspConfig::default();

    // CC on the RMAT graph.
    let r = run_job(
        &mut client,
        r#"{"op":"submit","algorithm":"cc","graph":"rmat"}"#,
    );
    let direct = run_bsp(&rmat, &CcProgram, config, None);
    assert_eq!(labels_of(&r), direct.states);

    // `native` (and `sim`) are spellings of the one BSP engine: same
    // answer, and every reply calls it `bsp`.
    let r = run_job(
        &mut client,
        r#"{"op":"submit","algorithm":"cc","engine":"native","graph":"rmat"}"#,
    );
    assert_eq!(labels_of(&r), direct.states);
    let id = field_u64(&r, "job_id").expect("job id");
    let r = client
        .request_line(&format!(r#"{{"op":"status","job_id":{id}}}"#))
        .expect("status");
    let job = field(&r, "job").expect("job");
    assert_eq!(field_str(job, "engine"), Some("bsp"), "{r:?}");

    // BFS from vertex 1.
    let r = run_job(
        &mut client,
        r#"{"op":"submit","algorithm":"bfs","graph":"rmat","source":1}"#,
    );
    let direct = run_bsp(&rmat, &BfsProgram { source: 1 }, config, None);
    let result = field(&r, "result").expect("result");
    let dist = seq_u64(field(result, "dist").expect("dist"));
    let parent = seq_u64(field(result, "parent").expect("parent"));
    assert_eq!(
        dist,
        direct.states.iter().map(|s| s.dist).collect::<Vec<_>>()
    );
    assert_eq!(
        parent,
        direct.states.iter().map(|s| s.parent).collect::<Vec<_>>()
    );

    // PageRank: f64s round-trip JSON exactly (`{:?}` formatting), so the
    // wire result must be bit-identical to the direct run.
    let r = run_job(
        &mut client,
        r#"{"op":"submit","algorithm":"pagerank","graph":"rmat"}"#,
    );
    let direct = run_bsp(
        &rmat,
        &PagerankProgram {
            damping: 0.85,
            tolerance: 1e-7,
        },
        config,
        None,
    );
    let result = field(&r, "result").expect("result");
    assert_eq!(
        seq_f64(field(result, "ranks").expect("ranks")),
        direct.states
    );

    let r = client
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("shutdown");
    assert_eq!(field_str(&r, "status"), Some("ok"));
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn serves_concurrent_jobs_on_two_graphs() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 4,
        queue_capacity: 32,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    register_both(&mut client);

    let config = BspConfig::default();
    let cc_rmat = run_bsp(&rmat_graph(), &CcProgram, config, None).states;
    let cc_gnm = run_bsp(&gnm_graph(), &CcProgram, config, None).states;

    // 12 jobs across both graphs from 4 client threads at once.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            let cc_rmat = cc_rmat.clone();
            let cc_gnm = cc_gnm.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for i in 0..3 {
                    let (graph, expect) = if (t + i) % 2 == 0 {
                        ("rmat", &cc_rmat)
                    } else {
                        ("gnm", &cc_gnm)
                    };
                    let r = run_job(
                        &mut client,
                        &format!(r#"{{"op":"submit","algorithm":"cc","graph":"{graph}"}}"#),
                    );
                    assert_eq!(&labels_of(&r), expect, "thread {t} job {i}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // A BFS source outside the graph is refused at submit, typed, on
    // every engine — not run to an all-unreachable answer or a panic.
    for engine in ["bsp", "graphct"] {
        let r = client
            .request_line(&format!(
                r#"{{"op":"submit","algorithm":"bfs","engine":"{engine}","graph":"gnm","source":{GNM_N}}}"#
            ))
            .expect("submit");
        assert_eq!(field_str(&r, "status"), Some("error"), "{engine}: {r:?}");
        assert_eq!(field_str(&r, "code"), Some("invalid_config"), "{engine}");
        let message = field_str(&r, "message").expect("message");
        assert!(message.contains("`source`"), "{engine}: {message}");
    }

    // The stats endpoint saw all of it.
    let r = client.request_line(r#"{"op":"stats"}"#).expect("stats");
    let stats = field(&r, "stats").expect("stats tree");
    assert!(field_u64(stats, "submitted").expect("submitted") >= 12);
    assert_eq!(field_u64(stats, "workers"), Some(4));

    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn rejects_jobs_when_the_queue_is_full() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    let r = client
        .request_line(r#"{"op":"register_graph","name":"long","kind":"path","n":16000}"#)
        .expect("register");
    assert_eq!(field_str(&r, "status"), Some("ok"));

    // Long jobs: worklist active set, uncapped supersteps.
    let cfg = serde_json::to_string(&BspConfig {
        active_set: ActiveSetStrategy::Worklist,
        max_supersteps: 1_000_000,
        ..BspConfig::default()
    })
    .expect("serialize config");
    let submit = format!(r#"{{"op":"submit","algorithm":"cc","graph":"long","config":{cfg}}}"#);

    let mut rejected = 0;
    let mut admitted = Vec::new();
    for _ in 0..12 {
        let r = client.request_line(&submit).expect("submit");
        match field_str(&r, "status") {
            Some("ok") => admitted.push(field_u64(&r, "job_id").expect("id")),
            Some("error") => {
                assert_eq!(field_str(&r, "code"), Some("queue_full"), "{r:?}");
                rejected += 1;
            }
            other => panic!("bad status {other:?}"),
        }
    }
    assert!(rejected > 0, "queue never filled");
    assert!(admitted.len() >= 2);
    for id in admitted {
        let _ = client.request_line(&format!(r#"{{"op":"cancel","job_id":{id}}}"#));
    }
    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn unbuildable_graph_specs_are_typed_rejections_on_a_live_connection() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        memory_budget_bytes: 64 << 20,
    });
    let mut client = Client::connect(&addr).expect("connect");
    for (spec, code) in [
        (r#""kind":"ring","n":2"#, "bad_request"),
        (r#""kind":"star","n":0"#, "bad_request"),
        (r#""kind":"gnm","n":0,"m":5"#, "bad_request"),
        (
            r#""kind":"grid","n":8589934592,"m":8589934592"#,
            "bad_request",
        ),
        (
            r#""kind":"rmat","scale":24,"edge_factor":64"#,
            "budget_exceeded",
        ),
        (r#""kind":"path","n":1099511627776"#, "budget_exceeded"),
    ] {
        let r = client
            .request_line(&format!(r#"{{"op":"register_graph","name":"x",{spec}}}"#))
            .expect("a reply, not a dropped connection");
        assert_eq!(field_str(&r, "code"), Some(code), "{spec}: {r:?}");
        // The same connection still answers.
        let r = client.request_line(r#"{"op":"ping"}"#).expect("ping");
        assert_eq!(field_str(&r, "status"), Some("ok"), "after {spec}");
    }
    let r = client
        .request_line(r#"{"op":"list_graphs"}"#)
        .expect("list");
    assert_eq!(field(&r, "graphs"), Some(&Content::Seq(Vec::new())));
    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn expired_result_wait_is_flagged_not_errored() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    let r = client
        .request_line(r#"{"op":"register_graph","name":"long","kind":"path","n":16000}"#)
        .expect("register");
    assert_eq!(field_str(&r, "status"), Some("ok"));

    let cfg = serde_json::to_string(&BspConfig {
        active_set: ActiveSetStrategy::Worklist,
        max_supersteps: 1_000_000,
        ..BspConfig::default()
    })
    .expect("serialize config");
    let r = client
        .request_line(&format!(
            r#"{{"op":"submit","algorithm":"cc","graph":"long","config":{cfg}}}"#
        ))
        .expect("submit");
    let id = field_u64(&r, "job_id").expect("id");

    // A wait far shorter than the run: the response must be an *ok*
    // with `timed_out: true` and a live job snapshot — the wait
    // expiring is not a job failure and must not read as one.
    let r = client
        .request_line(&format!(r#"{{"op":"result","job_id":{id},"wait_ms":30}}"#))
        .expect("result");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    assert_eq!(field_bool(&r, "timed_out"), Some(true), "{r:?}");
    let job = field(&r, "job").expect("job snapshot rides along");
    let state = field_str(job, "state").expect("state");
    assert!(state == "queued" || state == "running", "{state}");

    // A completed job's result carries the flag as false.
    let _ = client.request_line(&format!(r#"{{"op":"cancel","job_id":{id}}}"#));
    let r = client
        .request_line(r#"{"op":"register_graph","name":"small","kind":"path","n":64}"#)
        .expect("register small");
    assert_eq!(field_str(&r, "status"), Some("ok"));
    let r = client
        .request_line(r#"{"op":"submit","algorithm":"cc","graph":"small"}"#)
        .expect("submit small");
    let small_id = field_u64(&r, "job_id").expect("id");
    let r = client
        .request_line(&format!(
            r#"{{"op":"result","job_id":{small_id},"wait_ms":120000}}"#
        ))
        .expect("result");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    assert_eq!(field_bool(&r, "timed_out"), Some(false), "{r:?}");

    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn trace_op_returns_per_superstep_records() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    register_both(&mut client);

    let r = client
        .request_line(r#"{"op":"submit","algorithm":"cc","graph":"rmat"}"#)
        .expect("submit");
    let id = field_u64(&r, "job_id").expect("id");
    let r = client
        .request_line(&format!(
            r#"{{"op":"result","job_id":{id},"wait_ms":120000}}"#
        ))
        .expect("result");
    let supersteps = field_u64(&r, "supersteps").expect("supersteps");

    let r = client
        .request_line(&format!(r#"{{"op":"trace","job_id":{id}}}"#))
        .expect("trace");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    let trace = field(&r, "trace").expect("trace tree");
    assert_eq!(field_str(trace, "label"), Some("cc/bsp"));
    let Some(Content::Seq(records)) = field(trace, "supersteps") else {
        panic!("trace.supersteps missing");
    };
    // The root test build enables the service's default `trace`
    // feature, so the series is the full per-superstep profile.
    assert_eq!(records.len() as u64, supersteps, "{r:?}");
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(field_u64(rec, "superstep"), Some(i as u64));
        assert!(field_u64(rec, "total_ns").expect("total_ns") > 0);
        assert!(field_u64(rec, "active").expect("active") > 0);
        // CC sends single `(dst, label)` pairs of 16 bytes only.
        let generated = field_u64(rec, "messages_generated").expect("messages_generated");
        assert_eq!(field_u64(rec, "bytes_deposited"), Some(16 * generated));
    }
    // First superstep: every vertex is active and casts no halt vote
    // until it converges; the series must show the active set shrink.
    let first_active = field_u64(&records[0], "active").unwrap();
    let last_active = field_u64(records.last().unwrap(), "active").unwrap();
    assert!(first_active >= last_active);

    // Tracing a job that is not terminal is a wrong_state error.
    let cfg = serde_json::to_string(&BspConfig {
        active_set: ActiveSetStrategy::Worklist,
        max_supersteps: 1_000_000,
        ..BspConfig::default()
    })
    .expect("serialize config");
    let r = client
        .request_line(r#"{"op":"register_graph","name":"long","kind":"path","n":16000}"#)
        .expect("register");
    assert_eq!(field_str(&r, "status"), Some("ok"));
    let r = client
        .request_line(&format!(
            r#"{{"op":"submit","algorithm":"cc","graph":"long","config":{cfg}}}"#
        ))
        .expect("submit long");
    let live = field_u64(&r, "job_id").expect("id");
    let r = client
        .request_line(&format!(r#"{{"op":"trace","job_id":{live}}}"#))
        .expect("trace live");
    assert_eq!(field_str(&r, "code"), Some("wrong_state"), "{r:?}");
    let _ = client.request_line(&format!(r#"{{"op":"cancel","job_id":{live}}}"#));

    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn timed_out_job_resumes_to_completion_over_the_wire() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    let r = client
        .request_line(r#"{"op":"register_graph","name":"long","kind":"path","n":16000}"#)
        .expect("register");
    assert_eq!(field_str(&r, "status"), Some("ok"));

    let cfg = serde_json::to_string(&BspConfig {
        active_set: ActiveSetStrategy::Worklist,
        max_supersteps: 1_000_000,
        ..BspConfig::default()
    })
    .expect("serialize config");

    // Submit with a deadline far shorter than the ~16k-superstep run.
    let r = client
        .request_line(&format!(
            r#"{{"op":"submit","algorithm":"cc","graph":"long","config":{cfg},"deadline_ms":10}}"#
        ))
        .expect("submit");
    let id = field_u64(&r, "job_id").expect("id");

    // `result` waits, then reports the timeout as a wrong_state error.
    let r = client
        .request_line(&format!(
            r#"{{"op":"result","job_id":{id},"wait_ms":120000}}"#
        ))
        .expect("result");
    assert_eq!(field_str(&r, "status"), Some("error"));
    assert_eq!(field_str(&r, "code"), Some("wrong_state"), "{r:?}");

    let r = client
        .request_line(&format!(r#"{{"op":"status","job_id":{id}}}"#))
        .expect("status");
    let job = field(&r, "job").expect("job");
    assert_eq!(field_str(job, "state"), Some("timed_out"), "{r:?}");
    assert_eq!(field(job, "has_checkpoint"), Some(&Content::Bool(true)));
    let cut_at = field_u64(job, "supersteps").expect("supersteps");
    assert!(cut_at >= 1);

    // Resume (no deadline this time) and run to completion.
    let r = client
        .request_line(&format!(r#"{{"op":"resume","job_id":{id}}}"#))
        .expect("resume");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    assert_eq!(field_u64(&r, "from_superstep"), Some(cut_at));
    let resumed = field_u64(&r, "job_id").expect("resumed id");

    let r = client
        .request_line(&format!(
            r#"{{"op":"result","job_id":{resumed},"wait_ms":120000}}"#
        ))
        .expect("resumed result");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    let labels = labels_of(&r);
    assert_eq!(labels.len(), 16_000);
    assert!(labels.iter().all(|&l| l == 0), "path is one component");

    // The checkpoint moved with the resume: a second resume is refused.
    let r = client
        .request_line(&format!(r#"{{"op":"resume","job_id":{id}}}"#))
        .expect("second resume");
    assert_eq!(field_str(&r, "code"), Some("no_checkpoint"), "{r:?}");

    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn an_overlong_request_line_is_rejected_and_closes_only_its_connection() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // A line of exactly the cap, newline included, is served.
    let list = r#"{"op":"list_graphs"}"#;
    let padded = format!("{}{list}", " ".repeat(MAX_REQUEST_BYTES - 1 - list.len()));
    let r = client.request_line(&padded).expect("list");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    // One byte more is one typed rejection, then the connection closes.
    let r = client
        .request_line(&"x".repeat(MAX_REQUEST_BYTES))
        .expect("a reply");
    assert_eq!(field_str(&r, "code"), Some("bad_request"), "{r:?}");
    let message = field_str(&r, "message").expect("message");
    assert!(
        message.ends_with(&format!("request line exceeds {MAX_REQUEST_BYTES} bytes")),
        "{message}"
    );
    assert!(client.request_line(list).is_err());

    let mut client = Client::connect(&addr).expect("a second connection");
    let r = client.request_line(list).expect("list");
    assert_eq!(field_str(&r, "status"), Some("ok"), "{r:?}");
    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}
