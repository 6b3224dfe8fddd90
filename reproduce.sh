#!/bin/sh
# Regenerate artifacts of the reproduction into $OUT (default results/):
# the JSON/CSV files, one transcript per artifact ($OUT/<artifact>.txt)
# and $OUT/manifest.json.  Pass extra flags (e.g. --scale 20) through
# $FLAGS.
#
#   ./reproduce.sh                          every artifact, then the test
#                                           and bench transcripts
#   ./reproduce.sh fig4 ablation_intersect  only the named artifacts
#
# The manifest has one entry per artifact: the commit whose tree wrote
# it ("-dirty" when crates/ or the cargo files had uncommitted changes),
# its scale, wall time, worker and hardware thread counts, and the files
# it wrote.  A run replaces the entries of the artifacts it ran and keeps
# the others as they are.  "dated" lists each file in $OUT that no entry
# names, with the commit that last changed it.
set -e
FLAGS=${FLAGS:-}
OUT=${OUT:-results}

cargo build --workspace --release
mkdir -p "$OUT"
commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- crates Cargo.toml Cargo.lock || commit="$commit-dirty"
tmp=$(mktemp -d)
for name in ${@:-all}; do
  # shellcheck disable=SC2086
  cargo run -q --release -p xmt-bench --bin repro -- "$name" --out "$OUT" $FLAGS \
    >> "$tmp/out" 2>> "$tmp/log" || { cat "$tmp/log"; exit 1; }
done
awk -v out="$OUT" '/^== [a-z0-9_]+ ==$/ { f = out "/" $2 ".txt"; next } { print > f }' "$tmp/out"
cat "$tmp/log"

python3 - "$OUT" "$commit" "${XMT_PAR_THREADS:-}" "$(nproc)" "$tmp/log" <<'PY'
import json, os, subprocess, sys

out, commit, threads, host_threads, log = sys.argv[1:]
path = os.path.join(out, "manifest.json")
entries = []
if os.path.exists(path):
    with open(path) as f:
        entries = json.load(f)["artifacts"]
# repro prints "wrote <file>" for each file of an artifact, then
# "repro: <name> scale <s> seconds <t>".
fresh, written = {}, []
with open(log) as f:
    for line in f:
        words = line.split()
        if words[:1] == ["wrote"]:
            written.append(os.path.basename(words[1]))
        elif words[:1] == ["repro:"] and len(words) == 6:
            name = words[1]
            fresh[name] = {
                "name": name,
                "commit": commit,
                "scale": int(words[3]),
                "seconds": float(words[5]),
                "xmt_par_threads": int(threads) if threads else None,
                "host_threads": int(host_threads),
                "files": sorted(set(written + [name + ".txt"])),
            }
            written = []
entries = [fresh.pop(e["name"], e) for e in entries] + list(fresh.values())
named = {f for e in entries for f in e["files"]} | {"manifest.json"}
dated = []
for name in sorted(os.listdir(out)):
    if name not in named:
        last = subprocess.run(
            ["git", "log", "-1", "--format=%h", "--", os.path.join(out, name)],
            capture_output=True, text=True,
        ).stdout.strip()
        dated.append({"file": name, "last_written_at": last})
with open(path, "w") as f:
    f.write('{\n  "artifacts": [\n')
    f.write(",\n".join("    " + json.dumps(e) for e in entries))
    f.write('\n  ],\n  "dated": [\n')
    f.write(",\n".join("    " + json.dumps(d) for d in dated))
    f.write("\n  ]\n}\n")
PY
rm -rf "$tmp"
echo "wrote $OUT/manifest.json"

# The transcripts describe the whole tree; a run of named artifacts
# leaves them alone.
[ $# -gt 0 ] && exit 0
cargo test --workspace 2>&1 | tee test_output.txt | tail -n 3
cargo bench --workspace 2>&1 | tee bench_output.txt | tail -n 3
echo "done: see $OUT/, test_output.txt, bench_output.txt"
