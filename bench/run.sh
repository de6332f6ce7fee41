#!/bin/bash
# Builds the benchmark from the checkout it is started in and runs it with
# the arguments given. Everything the build leaves behind (the binary, the
# go build cache, the go command's own state) stays under .bench_build in
# that checkout, so two checkouts never share a cache and nothing is written
# outside them. In a directory without the stack's sources the build fails
# and so does this script, before anything is measured.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
