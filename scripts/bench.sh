#!/usr/bin/env sh
# Run the benchmark suite and record machine-readable results, so the perf
# trajectory is tracked PR over PR (BENCH_<pr>.json at the repo root).
#
# Usage (from the repository root):
#   scripts/bench.sh                    # fast subset, 1 op each -> BENCH_8.json
#   BENCH_OUT=BENCH_9.json scripts/bench.sh
#   BENCH_SHORT=1 scripts/bench.sh      # FlowChip only
#   BENCH_PATTERN='Benchmark' BENCH_TIME=2s scripts/bench.sh   # everything, timed
set -eu

# BenchmarkPrepare also matches BenchmarkPrepareWarmCache: cold Prepare and
# the warm plan-cache load are tracked side by side.
# BenchmarkCampaignThroughput tracks fleet chips/s two ways — in-process
# manager vs HTTP loopback — so service overhead is visible PR over PR.
# BenchmarkCoordinatorThroughput tracks sharded chips/s across 1/2/4
# loopback daemons, so the coordinator's scaling is visible PR over PR.
BENCH_PATTERN="${BENCH_PATTERN:-BenchmarkFlowChip|BenchmarkEngineRunChips|BenchmarkPrepare|BenchmarkAblationAlignSolver|BenchmarkCampaignThroughput|BenchmarkCoordinatorThroughput}"
BENCH_PKGS=". ./fleet ./fleet/coord"

# Short mode: the online flow only, BenchmarkFlowChip (per-chip ns/op +
# allocs/op). The CI bench-regression job gates it same-machine with
# scripts/bench_ab.sh.
if [ "${BENCH_SHORT:-}" = 1 ]; then
  BENCH_PATTERN='BenchmarkFlowChip'
  BENCH_PKGS="."
fi

BENCH_TIME="${BENCH_TIME:-1x}"
BENCH_OUT="${BENCH_OUT:-BENCH_8.json}"
BENCH_LABEL="${BENCH_LABEL:-${BENCH_OUT%.json}}"

# shellcheck disable=SC2086 — BENCH_PKGS is a deliberate word list.
go test -run '^$' -bench "$BENCH_PATTERN" -benchtime "$BENCH_TIME" $BENCH_PKGS |
  tee /dev/stderr |
  go run ./cmd/benchjson -label "$BENCH_LABEL" -o "$BENCH_OUT"
