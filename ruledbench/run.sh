#!/usr/bin/env bash
# Builds ruled and the benchmark from source, then runs one benchmark
# invocation. Run it from the repository root:
#
#   bash ruledbench/run.sh --workload bank_rw --seed 1 --seconds 10 --trace 0
#
# --trace 0 runs the wire-level benchmark (ruledbench); --trace 1 runs
# the traced in-process replay (ruledtrace). Any other arguments pass
# through. Build outputs, the Go build cache and run directories all
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"

prog=ruledbench
args=()
while (($#)); do
	if [[ $1 == --trace || $1 == -trace ]] && (($# > 1)); then
		[[ $2 == 1 ]] && prog=ruledtrace
		[[ $2 == 1 || $2 == 0 ]] || { echo "run.sh: --trace takes 0 or 1" >&2; exit 2; }
		shift 2
		continue
	fi
	args+=("$1")
	shift
done

go build -o "$build/bin/ruled" ./cmd/ruled
(cd ruledbench && go build -o "$build/bin/$prog" "./cmd/$prog")
exec "$build/bin/$prog" -ruled "$build/bin/ruled" -work "$build/work" ${args[@]+"${args[@]}"}
