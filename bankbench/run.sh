#!/usr/bin/env bash
# Builds the benchmark driver and hybrid-shardd from this checkout's
# sources, then runs the driver with the given arguments:
#
#   bash bankbench/run.sh --workload bank-mem --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binaries, the data
# directories of each run (removed when the run ends) and the span files
# of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hybrid-shardd" || ! -f "$root/bankbench/go.mod" ]]; then
	echo "bankbench: run from the repository root (go.mod, cmd/hybrid-shardd and bankbench/ not found here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/spans"
# The Go tool keeps its cache, module path, temporary files and telemetry
# counters under .bench_build too, ignores user-level go env settings and
# never downloads a toolchain or module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOSUMDB=off

(cd "$root/bankbench" && go build -o "$out/bankbench" .)
go build -o "$out/hybrid-shardd" ./cmd/hybrid-shardd

sha=unknown
if [[ -e "$root/.git" ]]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bankbench" -shardd "$out/hybrid-shardd" -tmp "$out/tmp" -spans "$out/spans" -git-sha "$sha" "$@"
