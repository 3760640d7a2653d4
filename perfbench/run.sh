#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Arguments go to the benchmark unchanged, e.g.
#
#   bash perfbench/run.sh --workload wire-small --seed 1 --seconds 8 --trace 0
#
# Build output and the Go build cache stay in .bench_build at the root
# of the checkout. A run refused because the process's spin-loop
# calibration came out off nominal is retried in a fresh process.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

rc=0
for attempt in 1 2 3 4 5; do
	"$out/perfbench" "$@" && exit 0 || rc=$?
	[ "$rc" -eq 75 ] || exit "$rc"
	echo "run.sh: attempt $attempt refused by the spin calibration check; retrying" >&2
done
exit "$rc"
