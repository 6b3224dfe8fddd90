#!/usr/bin/env bash
# Run cargo on the benchmark spine (`spine/Cargo.toml`, a package outside
# the workspace) with the given cargo subcommand and arguments, then put
# back `spine/Cargo.lock` as it was: resolving the spine rewrites the
# committed lock file.  The lock is restored however cargo exits, and the
# exit status is cargo's.
#
#   scripts/spine.sh test --release --offline
#   scripts/spine.sh run --release --offline --quiet -- --workload bsp-batch --seed 1 --seconds 1 --trace 0
set -euo pipefail

cd "$(dirname "$0")/.."
cmd="${1:?usage: scripts/spine.sh <cargo subcommand> [args...]}"
shift
saved="$(mktemp)"
cp spine/Cargo.lock "$saved"
trap 'cp "$saved" spine/Cargo.lock; rm -f "$saved"' EXIT
cargo "$cmd" --manifest-path spine/Cargo.toml "$@"
