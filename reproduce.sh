#!/bin/sh
# Regenerate every artifact of the reproduction into $OUT (default
# results/): the JSON/CSV files, one transcript per artifact
# ($OUT/<artifact>.txt) and $OUT/manifest.json (commit, per-artifact scale
# and wall time, worker and hardware thread counts, and each file no
# artifact writes any more, with the commit that last wrote it).  Then the
# test and bench transcripts.  Pass extra flags (e.g. --scale 20) through
# $FLAGS.
set -e
FLAGS=${FLAGS:-}
OUT=${OUT:-results}

cargo build --workspace --release
mkdir -p "$OUT"
commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- crates Cargo.toml Cargo.lock || commit="$commit-dirty"
tmp=$(mktemp -d)
# shellcheck disable=SC2086
cargo run -q --release -p xmt-bench --bin repro -- all --out "$OUT" $FLAGS \
  > "$tmp/out" 2> "$tmp/log" || { cat "$tmp/log"; exit 1; }
awk -v out="$OUT" '/^== [a-z0-9_]+ ==$/ { f = out "/" $2 ".txt"; next } { print > f }' "$tmp/out"
cat "$tmp/log"

artifacts=$(awk '/^repro: / { printf "    {\"name\": \"%s\", \"scale\": %s, \"seconds\": %s}\n", $2, $4, $6 }' \
  "$tmp/log" | sed '$!s/$/,/')
dated=$(for f in "$OUT"/*; do
  name=$(basename "$f")
  [ "$name" = manifest.json ] && continue
  grep -qxF "wrote $f" "$tmp/log" && continue
  grep -q "^repro: ${name%.txt} " "$tmp/log" && continue
  printf '    {"file": "%s", "last_written_at": "%s"}\n' "$name" "$(git log -1 --format=%h -- "$f" 2>/dev/null)"
done | sed '$!s/$/,/')
cat > "$OUT/manifest.json" <<JSON
{
  "commit": "$commit",
  "xmt_par_threads": ${XMT_PAR_THREADS:-null},
  "host_threads": $(nproc),
  "artifacts": [
$artifacts
  ],
  "dated": [
$dated
  ]
}
JSON
rm -rf "$tmp"
echo "wrote $OUT/manifest.json"

cargo test --workspace 2>&1 | tee test_output.txt | tail -n 3
cargo bench --workspace 2>&1 | tee bench_output.txt | tail -n 3
echo "done: see $OUT/, test_output.txt, bench_output.txt"
