#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it from the repository root.
# Every build artefact, Go cache and temporary file stays under
# .bench_build/ in the current directory, which must be the root of a
# source checkout:
#
#   bash bench/e2e/run.sh --workload ingest --seed 1 --seconds 18 --trace 0
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The module has no dependencies to fetch: forbid any download. The XDG
# directories keep the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C bench/e2e -o "$out/e2e" .
exec "$out/e2e" -root "$root" -work "$out/e2e-run" "$@"
