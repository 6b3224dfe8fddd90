//! End-to-end tests for the streaming subsystem over the wire: dynamic
//! registration, `update` batches, snapshot-isolated analytics, the
//! incremental engine, budget re-accounting, and the streaming stats
//! and trace surfaces — all through a real TCP server on loopback.

use std::thread;

use serde::Content;
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::structured::path;
use xmt_graph::ops::RankDag;
use xmt_graph::validate::reference_components;
use xmt_service::client::{field, field_bool, field_str, field_u64};
use xmt_service::{Client, Server, ServiceConfig};

fn start_server(config: ServiceConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (addr, server.spawn())
}

fn unbounded() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        memory_budget_bytes: 0,
    }
}

fn request(client: &mut Client, line: &str) -> Content {
    client.request_line(line).expect("request")
}

fn ok(client: &mut Client, line: &str) -> Content {
    let r = request(client, line);
    assert_eq!(field_str(&r, "status"), Some("ok"), "{line} -> {r:?}");
    r
}

/// Submit a job line, wait for its result tree.
fn run_job(client: &mut Client, job_json: &str) -> Content {
    let r = ok(client, job_json);
    let id = field_u64(&r, "job_id").expect("job id");
    ok(
        client,
        &format!(r#"{{"op":"result","job_id":{id},"wait_ms":120000}}"#),
    )
}

fn labels_of(response: &Content) -> Vec<u64> {
    let result = field(response, "result").expect("result field");
    let Some(Content::Seq(items)) = field(result, "labels") else {
        panic!("labels missing in {response:?}");
    };
    items
        .iter()
        .map(|i| match i {
            Content::U64(v) => *v,
            Content::I64(v) => *v as u64,
            other => panic!("non-integer label {other:?}"),
        })
        .collect()
}

fn triangles_of(response: &Content) -> u64 {
    let result = field(response, "result").expect("result field");
    field_u64(result, "triangles").expect("triangles field")
}

fn shutdown(mut client: Client, server: thread::JoinHandle<()>) {
    let _ = client.request_line(r#"{"op":"shutdown"}"#);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn update_batches_flow_through_the_wire() {
    let (addr, server) = start_server(unbounded());
    let mut client = Client::connect(&addr).expect("connect");

    // A 12-vertex path, registered dynamic.
    let r = ok(
        &mut client,
        r#"{"op":"register_graph","name":"d","kind":"path","n":12,"dynamic":true}"#,
    );
    let g = field(&r, "graph").expect("graph info");
    assert_eq!(field_bool(g, "dynamic"), Some(true));
    assert_eq!(field_u64(g, "epoch"), Some(0));
    assert_eq!(field_u64(g, "edges"), Some(11));

    // Close two triangles and cut the path in half.
    let r = ok(
        &mut client,
        r#"{"op":"update","graph":"d","insert":[[0,2],[1,3]],"delete":[[6,7]]}"#,
    );
    let u = field(&r, "update").expect("update outcome");
    assert_eq!(field_u64(u, "epoch"), Some(1));
    assert_eq!(field_u64(u, "inserted"), Some(2));
    assert_eq!(field_u64(u, "deleted"), Some(1));
    assert_eq!(field_u64(u, "edges"), Some(12));

    // Expected state, computed directly.
    let mut expect =
        xmt_bsp_repro::stinger::StreamingAnalytics::from_csr(&build_undirected(&path(12)));
    expect
        .apply_batch(&xmt_service::edge_ops(&[(0, 2), (1, 3)], &[(6, 7)]))
        .expect("in-range batch");
    let csr = expect.graph().to_csr();
    let want_labels = reference_components(&csr);
    let want_triangles = xmt_bsp_repro::graphct::count_triangles(&csr);
    assert_eq!(want_triangles, 2, "test graph should hold two triangles");

    // Every engine answers against the post-batch snapshot, and the
    // incremental engine agrees with the recomputing ones.
    for engine in ["incremental", "bsp", "graphct"] {
        let r = run_job(
            &mut client,
            &format!(r#"{{"op":"submit","algorithm":"cc","engine":"{engine}","graph":"d"}}"#),
        );
        assert_eq!(labels_of(&r), want_labels, "cc on `{engine}` diverged");
        let r = run_job(
            &mut client,
            &format!(
                r#"{{"op":"submit","algorithm":"triangles","engine":"{engine}","graph":"d"}}"#
            ),
        );
        assert_eq!(
            triangles_of(&r),
            want_triangles,
            "triangles on `{engine}` diverged"
        );
    }

    // The incremental answer costs zero supersteps and reports the
    // admission epoch in its snapshot.
    let r = ok(
        &mut client,
        r#"{"op":"submit","algorithm":"cc","engine":"inc","graph":"d"}"#,
    );
    let id = field_u64(&r, "job_id").expect("job id");
    let r = ok(
        &mut client,
        &format!(r#"{{"op":"result","job_id":{id},"wait_ms":120000}}"#),
    );
    assert_eq!(field_u64(&r, "supersteps"), Some(0), "{r:?}");
    let r = ok(&mut client, &format!(r#"{{"op":"status","job_id":{id}}}"#));
    let job = field(&r, "job").expect("job");
    assert_eq!(field_u64(job, "epoch"), Some(1));

    // Streaming counters ride the stats op.
    let r = ok(&mut client, r#"{"op":"stats"}"#);
    let stats = field(&r, "stats").expect("stats");
    let registry = field(stats, "registry").expect("registry");
    assert_eq!(field_u64(registry, "dynamic_graphs"), Some(1));
    assert_eq!(field_u64(registry, "batches_applied"), Some(1));
    assert_eq!(field_u64(registry, "edges_inserted"), Some(2));
    assert_eq!(field_u64(registry, "edges_deleted"), Some(1));
    assert!(field_u64(registry, "snapshot_epochs_live").expect("gauge") >= 1);

    // The graph-targeted trace lists the applied batch.
    let r = ok(&mut client, r#"{"op":"trace","graph":"d"}"#);
    let trace = field(&r, "trace").expect("trace");
    assert_eq!(field_str(trace, "graph"), Some("d"));
    let Some(Content::Seq(updates)) = field(trace, "updates") else {
        panic!("trace.updates missing: {r:?}");
    };
    // The root test build enables the service's `trace` feature.
    assert_eq!(updates.len(), 1, "{r:?}");
    assert_eq!(field_u64(&updates[0], "epoch"), Some(1));
    assert_eq!(field_u64(&updates[0], "inserted"), Some(2));
    assert_eq!(field_u64(&updates[0], "deleted"), Some(1));

    // Static graphs refuse updates and the incremental engine, typed.
    let _ = ok(
        &mut client,
        r#"{"op":"register_graph","name":"s","kind":"path","n":12}"#,
    );
    let r = request(
        &mut client,
        r#"{"op":"update","graph":"s","insert":[[0,2]]}"#,
    );
    assert_eq!(field_str(&r, "code"), Some("not_dynamic"), "{r:?}");
    let r = request(
        &mut client,
        r#"{"op":"submit","algorithm":"cc","engine":"incremental","graph":"s"}"#,
    );
    assert_eq!(field_str(&r, "code"), Some("not_dynamic"), "{r:?}");

    // Out-of-range endpoints are a bad_request, not a panic.
    let r = request(
        &mut client,
        r#"{"op":"update","graph":"d","insert":[[0,999]]}"#,
    );
    assert_eq!(field_str(&r, "code"), Some("bad_request"), "{r:?}");

    shutdown(client, server);
}

#[test]
fn snapshot_isolation_holds_across_deadline_checkpoint_resume() {
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        memory_budget_bytes: 0,
    });
    let mut client = Client::connect(&addr).expect("connect");
    let _ = ok(
        &mut client,
        r#"{"op":"register_graph","name":"d","kind":"path","n":16000,"dynamic":true}"#,
    );

    // A CC run long enough (one superstep per hop) to guarantee the
    // 10 ms deadline cuts it mid-flight.
    let cfg = serde_json::to_string(&xmt_bsp::BspConfig {
        active_set: xmt_bsp::ActiveSetStrategy::Worklist,
        max_supersteps: 1_000_000,
        ..xmt_bsp::BspConfig::default()
    })
    .expect("serialize config");
    let r = ok(
        &mut client,
        &format!(
            r#"{{"op":"submit","algorithm":"cc","graph":"d","config":{cfg},"deadline_ms":10}}"#
        ),
    );
    let id = field_u64(&r, "job_id").expect("job id");
    let r = request(
        &mut client,
        &format!(r#"{{"op":"result","job_id":{id},"wait_ms":120000}}"#),
    );
    assert_eq!(field_str(&r, "code"), Some("wrong_state"), "{r:?}");
    let r = ok(&mut client, &format!(r#"{{"op":"status","job_id":{id}}}"#));
    let job = field(&r, "job").expect("job");
    assert_eq!(field_str(job, "state"), Some("timed_out"), "{r:?}");
    assert_eq!(field_u64(job, "epoch"), Some(0));

    // While the job sits checkpointed, a batch splits the path in two.
    // The post-batch graph has a second component rooted at 8001.
    let r = ok(
        &mut client,
        r#"{"op":"update","graph":"d","delete":[[8000,8001]]}"#,
    );
    let u = field(&r, "update").expect("update outcome");
    assert_eq!(field_u64(u, "epoch"), Some(1));
    assert_eq!(field_u64(u, "deleted"), Some(1));

    // Resume: the continuation must finish against the PRE-batch
    // snapshot — one component, every label 0 — even though the
    // registry's current epoch no longer contains that graph.
    let r = ok(&mut client, &format!(r#"{{"op":"resume","job_id":{id}}}"#));
    let resumed = field_u64(&r, "job_id").expect("resumed id");
    let r = ok(
        &mut client,
        &format!(r#"{{"op":"result","job_id":{resumed},"wait_ms":120000}}"#),
    );
    let labels = labels_of(&r);
    assert_eq!(labels.len(), 16_000);
    assert!(
        labels.iter().all(|&l| l == 0),
        "resumed job observed the mid-run batch"
    );
    let r = ok(
        &mut client,
        &format!(r#"{{"op":"status","job_id":{resumed}}}"#),
    );
    let job = field(&r, "job").expect("job");
    assert_eq!(
        field_u64(job, "epoch"),
        Some(0),
        "resume re-admitted against a newer epoch"
    );

    // A job admitted AFTER the batch sees the split graph.
    let r = run_job(
        &mut client,
        &format!(r#"{{"op":"submit","algorithm":"cc","graph":"d","config":{cfg}}}"#),
    );
    let labels = labels_of(&r);
    assert!(
        labels[..=8000].iter().all(|&l| l == 0) && labels[8001..].iter().all(|&l| l == 8001),
        "post-batch job did not see the new epoch"
    );

    // ... and the incremental engine agrees instantly.
    let r = run_job(
        &mut client,
        r#"{"op":"submit","algorithm":"cc","engine":"incremental","graph":"d"}"#,
    );
    let inc = labels_of(&r);
    assert!(inc[..=8000].iter().all(|&l| l == 0) && inc[8001..].iter().all(|&l| l == 8001));

    shutdown(client, server);
}

#[test]
fn update_budget_rejections_are_typed_and_apply_nothing() {
    // Budget: room for the dynamic path plus a hair, so a densifying
    // batch trips the re-cost.
    let n = 64u64;
    let seed_cost = {
        // Mirror of the service's deterministic dynamic cost model:
        // analytics state + one CSR snapshot and its rank DAG (see
        // DESIGN.md §13).
        let vec_header = std::mem::size_of::<Vec<u64>>();
        let m = (n - 1) as usize;
        let dag = RankDag::footprint_bytes(n, n - 1);
        n as usize * vec_header
            + 2 * m * 8
            + 2 * n as usize * 8
            + (n as usize + 1) * 8
            + 2 * m * 8
            + dag
    };
    let (addr, server) = start_server(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        memory_budget_bytes: seed_cost + 64,
    });
    let mut client = Client::connect(&addr).expect("connect");
    let _ = ok(
        &mut client,
        &format!(r#"{{"op":"register_graph","name":"d","kind":"path","n":{n},"dynamic":true}}"#),
    );

    // ~2k new edges cost far more than the 64 spare bytes.
    let inserts: Vec<String> = (0..n)
        .flat_map(|u| (u + 2..n).map(move |v| format!("[{u},{v}]")))
        .collect();
    let r = request(
        &mut client,
        &format!(
            r#"{{"op":"update","graph":"d","insert":[{}]}}"#,
            inserts.join(",")
        ),
    );
    assert_eq!(field_str(&r, "code"), Some("budget_exceeded"), "{r:?}");

    // Nothing was applied: the graph still answers as the seed path.
    let r = ok(&mut client, r#"{"op":"list_graphs"}"#);
    let Some(Content::Seq(graphs)) = field(&r, "graphs") else {
        panic!("graphs missing: {r:?}");
    };
    assert_eq!(field_u64(&graphs[0], "edges"), Some(n - 1));
    assert_eq!(field_u64(&graphs[0], "epoch"), Some(0));

    // A batch that fits under the budget still lands afterwards.
    let r = ok(
        &mut client,
        r#"{"op":"update","graph":"d","insert":[[0,2]]}"#,
    );
    let u = field(&r, "update").expect("update outcome");
    assert_eq!(field_u64(u, "inserted"), Some(1));
    assert_eq!(field_u64(u, "epoch"), Some(1));

    shutdown(client, server);
}
