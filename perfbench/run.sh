#!/usr/bin/env bash
# Builds the frame-path benchmark and the daemons it drives (rpxd, rpxgw,
# rpxpolicy) from this checkout's sources, then runs one measurement.
#
#   bash perfbench/run.sh --workload relay-qvga --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ at the
# checkout root. The last line of standard output is the JSON result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rpxd" ]]; then
	echo "perfbench: $root is not a checkout of the rpx module" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
	cd "$root"
	go build -buildvcs=false -o "$out/bin/" ./cmd/rpxd ./cmd/rpxgw ./cmd/rpxpolicy
	cd "$root/perfbench"
	go build -buildvcs=false -o "$out/bin/perfbench" .
) >&2

# The benchmark and every daemon it starts share one CPU (the first this
# shell may use): the frame path is a chain of hand-offs between processes,
# and letting the scheduler place them differently from run to run moves
# the latencies more than most changes to the code would. Go sizes
# GOMAXPROCS from the affinity mask, so each process runs one P.
cpu=
if command -v taskset >/dev/null; then
	cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //; s/[-,].*//') || cpu=
fi
if [[ "$cpu" =~ ^[0-9]+$ ]] && taskset -c "$cpu" true 2>/dev/null; then
	exec taskset -c "$cpu" "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
fi
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
