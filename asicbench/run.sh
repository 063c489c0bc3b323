#!/usr/bin/env bash
# Builds the benchmark and paperfigs from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash asicbench/run.sh --workload design --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# go command's config and telemetry directory, temporary files, binaries,
# paperfigs output and trace files. Build output goes to stderr, so the
# result JSON stays the last stdout line.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/asicbench" ./asicbench 1>&2
go build -o "$out/paperfigs" ./cmd/paperfigs 1>&2
exec "$out/asicbench" --root . --build "$out" "$@"
