#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it,
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload verify-6n --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache, temporary files and the program's work
# space all stay under .bench_build/ in the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# The commit is read only where the checkout is itself a git work tree:
# the build does no VCS stamping, so nothing above the checkout is read.
commit=unknown
if [ -e "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
  commit=$rev
  git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit+=+modified
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build/work" --commit "$commit" "$@"
