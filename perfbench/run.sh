#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments.
# Run from the repository root: bash perfbench/run.sh --workload cs-int ...
# The build cache, binary, temp files and traces all stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$TMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
# Freed heap pages go back to the OS lazily (MADV_FREE), so every sort does
# not re-fault its ~100 MB of buffers; on a virtual machine those faults are
# the largest source of run-to-run noise measured.
GODEBUG=madvdontneed=0 exec "$out/perfbench" "$@"
