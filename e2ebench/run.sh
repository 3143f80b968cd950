#!/bin/sh
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	sh e2ebench/run.sh --workload hotspot --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory (Go build cache, GOPATH, Go's config directory,
# temporary files, the binary, span dumps). The benchmark module replaces the `repro` module with the parent
# directory, so the build fails (and nothing is printed on stdout) when the
# program sources are not there.
set -eu
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$bench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
