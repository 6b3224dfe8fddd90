#!/bin/sh
# Regenerate every artifact of the reproduction into results/ and the two
# output transcripts. Pass extra flags (e.g. --scale 20) through $FLAGS.
set -e
FLAGS=${FLAGS:-}
OUT=${OUT:-results}

cargo build --workspace --release

# Every binary under crates/bench/src/bin (CI asserts the two lists agree).
BINS="table1 fig1 fig2 fig3 fig4 fig_service
      ablation_exchange ablation_labelprop ablation_combiner
      ablation_activeset ablation_intersect ablation_direction
      graph500 related_work calibrate"

for bin in $BINS; do
  echo "== $bin =="
  cargo run --release -p xmt-bench --bin "$bin" -- --out "$OUT" $FLAGS \
    > "$OUT/$bin.txt" 2>&1
  tail -n 3 "$OUT/$bin.txt"
done

cargo test --workspace 2>&1 | tee test_output.txt | tail -n 3
cargo bench --workspace 2>&1 | tee bench_output.txt | tail -n 3
echo "done: see $OUT/, test_output.txt, bench_output.txt"
