#!/usr/bin/env bash
# Builds the allocbench harness and the allocserve daemon from the
# checkout it runs in, then runs one measurement:
#
#   bash allocbench/run.sh --workload serve-cold --seed 1 --seconds 22 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the per-run scratch files live under .bench_build/ in that
# root, so nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/allocbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

cd "$root/allocbench"
go build -o "$out/allocbench" .
go build -o "$out/allocserve" repro/cmd/allocserve
cd "$root"
exec "$out/allocbench" -daemon "$out/allocserve" -workdir "$out/run" "$@"
