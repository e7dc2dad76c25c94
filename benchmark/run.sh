#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds mrmark and runs it with the
# driver's arguments. The Go build cache, and the usage counters the go
# command keeps under the user's configuration directory, are kept inside
# the benchmark's own out/ directory, so that a run writes nothing outside
# its checkout; mrmark builds the server binaries and the probe binary it
# needs into out/bin with the same settings.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/out/gocache" XDG_CONFIG_HOME="$PWD/out/config" GOFLAGS=-buildvcs=false
mkdir -p out/bin
go build -o out/bin/mrmark ./cmd/mrmark
exec out/bin/mrmark "$@"
