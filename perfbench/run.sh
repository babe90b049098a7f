#!/usr/bin/env bash
# Builds wdptd and perfbench from the checkout this script sits
# in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload enumerate --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, goes under
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root, so a run
# reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/wdptd ]; then
	echo "perfbench: no wdpt module (go.mod, cmd/wdptd) at $(pwd)" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
if ! command -v go >/dev/null 2>&1; then
	# The default install prefix of the Go distribution.
	PATH=$PATH:/usr/local/go/bin
fi
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$HOME" "$GOTMPDIR" "$out/bin"
# With telemetry on or local, every go command may fork a detached upload
# process that outlives it; "go telemetry off" forks none and turns it off
# for the commands below.
go telemetry off
go build -o "$out/bin/wdptd" ./cmd/wdptd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -wdptd "$out/bin/wdptd" -out "$out" "$@"
