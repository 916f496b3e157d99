#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload log|bulk|sweep --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, the build cache and the
# toolchain's own state (GOPATH, its scratch directory, the config dir its
# telemetry counters live in) go to .bench_build/ at the root, so nothing
# is written outside the checkout.
set -euo pipefail
root=$(pwd)
# A harness may name the build directory through CARGO_TARGET_DIR, the
# usual build-output variable; .bench_build is the default.
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
