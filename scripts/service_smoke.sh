#!/usr/bin/env bash
# Smoke test for the graph-analytics service: start `serve` on an
# ephemeral loopback port, drive it with `client` (register a small RMAT
# graph, run connected components, check the result arrives), then shut
# it down and verify the server exits cleanly.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -q -p xmt-service --bin serve --bin client

out="$(mktemp -d)"
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$out"' EXIT

target/release/serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$out/serve.log" 2>&1 &
server_pid=$!

# The server prints `listening on <addr>` once bound.
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^listening on //p' "$out/serve.log" | head -n1)"
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$out/serve.log"; echo "server died"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$out/serve.log"; echo "server never bound"; exit 1; }
echo "serve bound on $addr"

# Register, submit, and fetch a CC result plus its superstep trace —
# once with the engine left out and once under the `native` spelling of
# the same BSP engine; `client` exits non-zero on any error response.
target/release/client --addr "$addr" \
    '{"op":"ping"}' \
    '{"op":"register_graph","name":"smoke","kind":"rmat","scale":8,"edge_factor":8,"seed":1}' \
    '{"op":"submit","algorithm":"cc","graph":"smoke"}' \
    '{"op":"result","job_id":1,"wait_ms":60000}' \
    '{"op":"trace","job_id":1}' \
    '{"op":"submit","algorithm":"cc","graph":"smoke","engine":"native"}' \
    '{"op":"result","job_id":2,"wait_ms":60000}' \
    '{"op":"trace","job_id":2}' \
    '{"op":"stats"}' \
    >"$out/client.log"

grep -q '"labels":\[' "$out/client.log" || { cat "$out/client.log"; echo "no CC result"; exit 1; }
echo "CC result received"

# The default build has tracing on: both traces must carry per-superstep
# records with real timings, and both call the engine `bsp`.
[ "$(grep -c '"trace":{"label":"cc/bsp"' "$out/client.log")" -eq 2 ] \
    || { cat "$out/client.log"; echo "expected two cc/bsp traces"; exit 1; }
grep -q '"total_ns":' "$out/client.log" || { cat "$out/client.log"; echo "trace has no timings"; exit 1; }
echo "superstep traces received (bsp, and native as its alias)"

# Streaming path: register a dynamic graph, land an update batch, then
# check that a post-update full recompute (bsp) and the incrementally
# maintained answer both see the batch, and that the update trace and
# registry counters recorded it.
target/release/client --addr "$addr" \
    '{"op":"register_graph","name":"dyn","kind":"path","n":16,"dynamic":true}' \
    '{"op":"update","graph":"dyn","insert":[[0,8]],"delete":[[3,4]]}' \
    '{"op":"submit","algorithm":"cc","graph":"dyn","engine":"native"}' \
    '{"op":"result","job_id":3,"wait_ms":60000}' \
    '{"op":"submit","algorithm":"cc","graph":"dyn","engine":"incremental"}' \
    '{"op":"result","job_id":4,"wait_ms":60000}' \
    '{"op":"trace","graph":"dyn"}' \
    '{"op":"stats"}' \
    >"$out/stream.log"

grep -q '"inserted":1' "$out/stream.log" || { cat "$out/stream.log"; echo "update batch did not land"; exit 1; }
# Path 0-..-15 minus (3,4) plus (0,8) stays one component: every label 0.
grep -q '"labels":\[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\]' "$out/stream.log" \
    || { cat "$out/stream.log"; echo "post-update CC wrong"; exit 1; }
grep -q '"updates":\[' "$out/stream.log" || { cat "$out/stream.log"; echo "no update trace"; exit 1; }
grep -q '"batches_applied":1' "$out/stream.log" || { cat "$out/stream.log"; echo "stats missed the batch"; exit 1; }
echo "streaming update + post-update CC verified (bsp + incremental)"

target/release/client --addr "$addr" '{"op":"shutdown"}' >/dev/null

# Clean shutdown: the server process must exit on its own.
for _ in $(seq 1 50); do
    kill -0 "$server_pid" 2>/dev/null || { echo "server shut down cleanly"; exit 0; }
    sleep 0.1
done
echo "server did not exit after shutdown"
exit 1
