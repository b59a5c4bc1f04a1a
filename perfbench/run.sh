#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload whatif-hot --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, module cache, temporary
# build files, toolchain config) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. The build fails, and the script exits
# non-zero, when the repository's Go sources are not next to this directory.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOENV=off \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
