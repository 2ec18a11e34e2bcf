#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository. The build goes to
# .bench_build (or $CARGO_TARGET_DIR when set), so it never touches a
# developer's _build; the shared dune cache is off, so nothing is
# written outside the checkout. Build output goes to stderr; the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f lib/core/cluster.ml ] || [ ! -f perfbench/dune ]; then
  echo "perfbench/run.sh: run me from the root of a full checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" \
  --profile release --display quiet -j 2 perfbench/rbftbench.exe >&2

# Keep freed memory in the process rather than handing it back to the
# system, so that timed set-ups after a simulation do not fault their
# memory in again (see setup_s in rbftbench.ml).
export GLIBC_TUNABLES=glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432
exec "$build_dir/default/perfbench/rbftbench.exe" "$@"
