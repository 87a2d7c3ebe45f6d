#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload census-exact --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, binary,
# temporary data dirs, span files) stays under .bench_build/ in the
# repository root, and module downloads are disabled: the benchmark needs
# nothing beyond the standard library and this repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/mochy-bench" .)
cd "$root"
exec "$out/mochy-bench" --workdir "$out" "$@"
