#!/usr/bin/env bash
# Builds the ledger binary from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, module cache, its
# own config) is pointed into .bench_build/ so a run reads and writes
# only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$build/ledger" .)
cd "$root"
exec "$build/ledger" "$@"
