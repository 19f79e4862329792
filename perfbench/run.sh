#!/usr/bin/env bash
# Build the benchmark and the caffeine CLI from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload paper-ota|wide-ota|serve-mix \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository.  Build output goes
# to stderr; the last line of stdout is the result object.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout: keep it out.
DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe ./bin/caffeine_cli.exe 1>&2

# With address randomization off (setarch -R) the heap lands at the same
# addresses every run; otherwise transparent huge page alignment moves
# peak RSS by tens of MB from run to run.  Without setarch the benchmark
# runs as is.
launch=()
if command -v setarch >/dev/null && setarch "$(uname -m)" -R true 2>/dev/null; then
  launch=(setarch "$(uname -m)" -R)
fi

# serve-mix is pinned to the last core, with its server child (it
# inherits the mask): client and server hand each request over on one
# core, and the host-speed reference is timed on that core.  Unpinned,
# the hand-over crossed cores and its latency followed the host more
# than the reference did.  The other workloads run unpinned: pinned,
# paper-ota's serving metrics spread more from run to run.
workload=
args=("$@")
for ((i = 0; i < ${#args[@]} - 1; i++)); do
  [[ ${args[i]} == --workload ]] && workload=${args[i + 1]}
done
if [[ $workload == serve-mix ]] && command -v taskset >/dev/null && command -v nproc >/dev/null \
  && (($(nproc) > 1)) && taskset -c "$(($(nproc) - 1))" true 2>/dev/null; then
  launch+=(taskset -c "$(($(nproc) - 1))")
fi

# The commit for the run envelope; a checkout without .git has none.
commit=unknown
if [[ -e .git ]]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "${launch[@]}" ./_build/default/perfbench/perfbench.exe \
  --cli ./_build/default/bin/caffeine_cli.exe --commit "$commit" --nproc "$(nproc)" "$@"
