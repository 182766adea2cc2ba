#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload kv-put --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build
# cache and the benchmark's data directories stay under .bench_build/ in
# the current directory, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" || ! -d "$root/internal/daemon" ]]; then
	echo "e2ebench: run from the repository root (go.mod, internal/ and e2ebench/ must all be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
