#!/usr/bin/env sh
# Same-runner A/B of the online-flow benchmarks: run them in a base
# checkout and in this one, interleaved over 5 rounds of -count 1, and
# record one report per side for `benchjson -baseline` to gate on the
# ratio of medians. Interleaving spreads a shared runner's slow phases
# over both sides instead of charging them to one, and the side that runs
# first alternates by round, so a drift within a round does not always
# land on the same side.
#
# Usage (from the repository root):
#   git worktree add --detach /tmp/base <base-commit>
#   scripts/bench_ab.sh /tmp/base /tmp/ab    # -> /tmp/ab/base.json, /tmp/ab/head.json
#   go run ./cmd/benchjson -baseline /tmp/ab/base.json -bench FlowChip/s9234 /tmp/ab/head.json
#
# BENCH_TIME (default 1s) sets -benchtime, as in scripts/bench.sh.
set -eu

base=$1
out=$2
benchtime="${BENCH_TIME:-1s}"

# bench runs the gated benchmarks once in the current directory.
bench() {
  go test -run '^$' -bench '^BenchmarkFlowChip$/^(s9234|usb_funct)$' -benchtime "$benchtime" -count 1 .
  go test -run '^$' -bench '^BenchmarkFlowChipBatched$/^s9234$/^k8$' -benchtime "$benchtime" -count 1 .
}

mkdir -p "$out"
: > "$out/base.txt"
: > "$out/head.txt"
for i in 1 2 3 4 5; do
  echo "bench_ab: round $i/5" >&2
  if [ $((i % 2)) -eq 1 ]; then
    (cd "$base" && bench) >> "$out/base.txt"
    bench >> "$out/head.txt"
  else
    bench >> "$out/head.txt"
    (cd "$base" && bench) >> "$out/base.txt"
  fi
done
go run ./cmd/benchjson -label base -o "$out/base.json" < "$out/base.txt"
go run ./cmd/benchjson -label head -o "$out/head.json" < "$out/head.txt"
