#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Run it from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload fig3-cold --seed 1 --seconds 20 --trace 0
#
# Go's build cache, module cache and temporary files are kept under
# .bench_build/ as well, so the run reads and writes only inside the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root; no Go module found in $root" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
