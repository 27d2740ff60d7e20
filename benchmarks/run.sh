#!/usr/bin/env bash
# Builds ncmark from source into .bench_build/ and runs it with the arguments
# given. Run from the repository root. Everything the Go tool writes — build
# cache, temporary files, module cache, its own configuration — is pointed
# inside .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmarks/ncmark -o "$build/ncmark" .
exec "$build/ncmark" "$@"
