#!/usr/bin/env bash
# Same-seed history check in one command: builds tools/sim_hashes at
# <base-rev> (in a temporary git worktree) and at the working tree, each in
# its own build directory, runs both, and prints the diff of their outputs
# and the count of runs whose line changed.
#
#   ci/sim_hashes_diff.sh <base-rev>
#
# A refactor must report "0 of 96 runs changed". A change that alters
# protocol behaviour on purpose reports its count; that is information, not
# a failure. The script exits non-zero only when a sim_hashes build fails or
# a sim_hashes run itself fails (a driver status that is not OK). A base that
# predates tools/ gets the working tree's copy, as TESTING.md describes.
# Temporary files live under $TMPDIR (default /tmp) and are removed on exit.

set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
base_rev="$1"
repo="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$repo" rev-parse --verify "${base_rev}^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/sim_hashes_diff.XXXXXX")"
cleanup() {
  git -C "$repo" worktree remove --force "$work/base" >/dev/null 2>&1 || true
  git -C "$repo" worktree prune >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$repo" worktree add --detach "$work/base" "$base_sha" >/dev/null 2>&1
if [ ! -f "$work/base/tools/sim_hashes.cc" ]; then
  cp -r "$repo/tools" "$work/base/"
  grep -q 'add_subdirectory(tools)' "$work/base/CMakeLists.txt" ||
    echo 'add_subdirectory(tools)' >> "$work/base/CMakeLists.txt"
fi

jobs="$(nproc 2>/dev/null || echo 2)"
build() {  # <source dir> <build dir> <log>
  if ! { cmake -S "$1" -B "$2" && cmake --build "$2" -j "$jobs" --target sim_hashes; } \
      >"$3" 2>&1; then
    tail -n 40 "$3" >&2
    echo "sim_hashes_diff: building sim_hashes in $1 failed" >&2
    return 1
  fi
}
build "$work/base" "$work/build-base" "$work/build-base.log"
build "$repo" "$work/build-head" "$work/build-head.log"

status=0
"$work/build-base/tools/sim_hashes" 2>/dev/null >"$work/before.txt" || {
  echo "sim_hashes_diff: sim_hashes failed at $base_rev" >&2
  status=1
}
"$work/build-head/tools/sim_hashes" 2>/dev/null >"$work/after.txt" || {
  echo "sim_hashes_diff: sim_hashes failed on the working tree" >&2
  status=1
}

diff "$work/before.txt" "$work/after.txt" || true
runs="$(wc -l <"$work/after.txt")"
changed="$(grep -cvxFf "$work/before.txt" "$work/after.txt" || true)"
echo "sim_hashes: ${changed} of ${runs} runs changed against ${base_rev}"
exit "$status"
