#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload cache-replay --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/perfbench"
# The go command's caches, module path and telemetry all stay in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off CGO_ENABLED=0
commit=unknown
if [ -e .git ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
go -C perfbench build -buildvcs=false -ldflags "-X main.commit=$commit" \
	-o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" "$@"
