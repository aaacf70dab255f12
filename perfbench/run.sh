#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4-fastgm16 --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, CPU profiles)
# stays in .bench_build under the root. Build errors go to standard error
# and end the script with a non-zero code before anything is run.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
