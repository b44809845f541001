#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the root of the
# checkout, passing every argument through:
#
#   bash perfbench/run.sh --workload tso7-a1 --seed 1 --seconds 60 --trace 0
#
# Build outputs, the Go build cache, the go command's config and telemetry
# files (under XDG_CONFIG_HOME), temporary files and run scratch all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
