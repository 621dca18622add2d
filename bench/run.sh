#!/usr/bin/env bash
# The driver's command: `go run ./bench` with everything the Go toolchain
# writes (build cache, temporary files, module path, configuration) kept
# inside the checkout, under .bench_build/. Run from the repository root; the
# arguments go to the benchmark unchanged.
set -eu
# Without the program there is nothing to measure: say so before the
# toolchain is started at all.
if [ ! -f go.mod ] || [ ! -d cmd/mced ]; then
	echo "bench/run.sh: run from the root of the mce repository (go.mod, cmd/mced not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
# With a configuration directory of its own the go command would find no
# telemetry state and start its daily "** telemetry **" sidecar, a detached
# process that outlives the run. The mode file turns that off; it is the only
# switch there is (GOTELEMETRY in the environment is read-only).
echo off >"$build/config/go/telemetry/mode"
exec go run ./bench "$@"
