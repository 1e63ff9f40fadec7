#!/usr/bin/env bash
# Builds the benchmark and the permit daemon from this checkout, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload vod --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache and temporary files included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The Go command's config, telemetry, module and build caches and
# temporary files all go under $out.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOCACHE="$out/gocache" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/3golpermitd" ./cmd/3golpermitd

exec "$out/bin/perfbench" --permitd "$out/bin/3golpermitd" --out "$out" "$@"
