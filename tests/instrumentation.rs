//! Pins the instrumentation formulas the performance model consumes —
//! every figure depends on these counts, so changes must be deliberate.

use xmt_bsp_repro::bsp::algorithms::components::CcProgram;
use xmt_bsp_repro::bsp::runtime::{run_bsp, BspConfig};
use xmt_bsp_repro::bsp::{ActiveSetStrategy, Transport};
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::structured::{clique, path, star};
use xmt_bsp_repro::graphct;
use xmt_bsp_repro::model::Recorder;

#[test]
fn bsp_superstep_zero_counts_on_a_star() {
    // star(5): center 0 with 4 leaves; 8 arcs.
    let g = build_undirected(&star(5));
    let mut rec = Recorder::new();
    let r = run_bsp(&g, &CcProgram, BspConfig::default(), Some(&mut rec));
    assert!(!r.hit_superstep_limit);

    // Superstep 0: all 5 vertices active, each broadcasts its label to
    // every neighbor => messages == arcs == 8.
    assert_eq!(r.superstep_stats[0].active, 5);
    assert_eq!(r.superstep_stats[0].messages_sent, 8);

    let ss0 = rec.with_label("superstep").next().unwrap();
    assert_eq!(ss0.step, 0);
    assert_eq!(ss0.observed, 8);
    // items = max(active, messages).
    assert_eq!(ss0.counts.items, 8);
    // reads = 2*active + delivered(0) + sent; writes = 2*active.
    assert_eq!(ss0.counts.reads, 2 * 5 + 8);
    assert_eq!(ss0.counts.writes, 2 * 5);

    // Exchange 0: per message (1 word): 2 enqueue writes + 1 scatter
    // write + n offset writes; items = max(n, messages).
    let ex0 = rec.with_label("exchange").next().unwrap();
    assert_eq!(ex0.counts.items, 8);
    assert_eq!(ex0.counts.writes, 8 * 2 + 8 + 5);
    assert_eq!(ex0.counts.reads, 8 * 2 + 5);
    // Outbox transport: the only hotspot ops are the chunk claims of the
    // self-scheduled loop (<= one per item), never per-message.
    assert!(ex0.counts.hotspot_ops <= ex0.counts.items);
    assert_eq!(ex0.counts.barriers, 2);
}

#[test]
fn dense_scan_charges_the_whole_vertex_set_every_superstep() {
    let g = build_undirected(&path(100));
    let mut rec = Recorder::new();
    run_bsp(&g, &CcProgram, BspConfig::default(), Some(&mut rec));
    for scan in rec.with_label("scan") {
        assert_eq!(scan.counts.items, 100);
        assert_eq!(scan.counts.reads, 300, "3 reads per vertex");
    }
}

#[test]
fn worklist_scan_charges_only_the_active_set() {
    let g = build_undirected(&path(100));
    let mut rec = Recorder::new();
    run_bsp(
        &g,
        &CcProgram,
        BspConfig {
            active_set: ActiveSetStrategy::Worklist,
            ..Default::default()
        },
        Some(&mut rec),
    );
    // After superstep 0 the active set shrinks; scans must track it.
    let scans: Vec<_> = rec.with_label("scan").collect();
    assert!(scans.iter().skip(1).any(|s| s.counts.items < 100));
    for s in &scans {
        assert_eq!(s.counts.reads, s.observed, "1 read per active vertex");
    }
}

#[test]
fn single_queue_charges_one_hotspot_op_per_message() {
    // The difference between the two transports' exchange hotspot charge
    // must be exactly the message count (the §VII fetch-add per message);
    // loop-claim overhead is identical on both sides and cancels.
    let g = build_undirected(&clique(10));
    let mut outbox_rec = Recorder::new();
    run_bsp(&g, &CcProgram, BspConfig::default(), Some(&mut outbox_rec));
    let mut queue_rec = Recorder::new();
    run_bsp(
        &g,
        &CcProgram,
        BspConfig {
            transport: Transport::SingleQueue,
            ..Default::default()
        },
        Some(&mut queue_rec),
    );
    for (a, b) in outbox_rec
        .with_label("exchange")
        .zip(queue_rec.with_label("exchange"))
    {
        assert_eq!(a.observed, b.observed, "same messages either way");
        assert_eq!(
            b.counts.hotspot_ops - a.counts.hotspot_ops,
            b.observed,
            "queue pays one hotspot op per message"
        );
    }
}

#[test]
fn graphct_cc_iteration_counts_are_edge_proportional() {
    let g = build_undirected(&path(50)); // 98 arcs
    let mut rec = Recorder::new();
    graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut rec));
    let first = rec.with_label("iteration").next().unwrap();
    // Hook sweep reads: n (own labels) + arcs (neighbor labels) + the
    // compress pass (>= 2n).
    assert!(first.counts.reads >= 50 + 98 + 100);
    assert_eq!(first.counts.items, 98, "items = arcs");
    assert_eq!(first.counts.barriers, 2, "hook + compress");
}

#[test]
fn graphct_bfs_level_counts_match_the_frontier() {
    let g = build_undirected(&star(50));
    let mut rec = Recorder::new();
    let r = graphct::bfs_with(&g, 0, &mut graphct::Ctx::recording(&mut rec));
    assert_eq!(r.frontier_sizes, vec![1, 49]);
    let levels: Vec<_> = rec.with_label("level").collect();
    // The hub frontier carries half the arcs, so the Beamer alpha rule
    // flips level 0 bottom-up: 49 unvisited leaves each probe their one
    // neighbor against the frontier bitmap and discover themselves.
    assert_eq!(levels[0].observed, 1);
    assert_eq!(
        levels[0].counts.atomics,
        49 + 1,
        "queue cursor per discovery plus one frontier-bitmap set"
    );
    assert!(
        levels[0].counts.hotspot_ops >= 49,
        "queue cursor per discovery (plus loop claims)"
    );
    // Level 1: everything is visited; the beta rule keeps the dense
    // frontier bottom-up, but no probes run and nothing is discovered.
    // The only atomics are the 49 frontier-bitmap sets.
    assert_eq!(levels[1].observed, 49);
    assert_eq!(levels[1].counts.atomics, 49);
}

#[test]
fn tc_write_counts_separate_the_two_models() {
    // K6: 20 triangles, 15 edges. The BSP variant writes per message;
    // the paper-faithful merge kernel writes once per triangle.
    let g = build_undirected(&clique(6));
    let mut ct_rec = Recorder::new();
    let tri = graphct::count_triangles_idorder(&g, &mut graphct::Ctx::recording(&mut ct_rec));
    assert_eq!(tri, 20);
    let ct_writes: u64 = ct_rec.records.iter().map(|r| r.counts.writes).sum();
    assert_eq!(ct_writes, 20, "one write per triangle");

    let mut bsp_rec = Recorder::new();
    let bsp_tri =
        xmt_bsp_repro::bsp::algorithms::triangles::bsp_count_triangles(&g, Some(&mut bsp_rec));
    assert_eq!(bsp_tri, 20);
    let bsp_writes: u64 = bsp_rec.records.iter().map(|r| r.counts.writes).sum();
    assert!(
        bsp_writes > 5 * ct_writes,
        "BSP writes {bsp_writes} must dwarf shared {ct_writes}"
    );
}
