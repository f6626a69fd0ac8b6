#!/usr/bin/env bash
# Builds the benchmark driver and the simulator binaries (qcloudsim,
# ppotrain) from the source tree, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds, generates or
# writes lands under $CARGO_TARGET_DIR (default .bench_build), including
# the Go build cache, so a run touches nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d cmd/qcloudsim ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/qcloudsim and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go -C perfbench build -buildvcs=false -o "$build/bin/" . repro/cmd/qcloudsim repro/cmd/ppotrain

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/perfbench" "$@"
