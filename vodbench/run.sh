#!/usr/bin/env bash
# Builds and runs the serving benchmark from the root of a source checkout:
#
#   bash vodbench/run.sh --workload zap --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and trace file stays under the checkout's
# .bench_build directory (or $CARGO_TARGET_DIR when set). The build needs the
# vodcast module one directory up, so a tree holding only this directory
# fails to build and exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/out"

# Keep the toolchain's caches, telemetry and temporaries inside the checkout
# and make sure nothing is ever fetched.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTELEMETRY=off
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git --git-dir="$root/.git" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/vodbench" .)
exec "$build/vodbench" --out "$build/out" "$@"
