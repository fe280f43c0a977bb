#!/usr/bin/env bash
# Emits the resampling-engine benchmark results as BENCH_resample.json so
# the perf trajectory is tracked across PRs (CI uploads it as an
# artifact).
#
# Usage:
#   scripts/bench_resample.sh [output.json]            # runs the benchmarks
#   scripts/bench_resample.sh output.json existing.txt # parses a prior run
#   BENCHTIME=5x scripts/bench_resample.sh             # more iterations
#
# The second form lets CI reuse the smoke step's `go test -bench` output
# instead of running the benchmarks twice. The JSON is a flat array:
#   {"name": ..., "iterations": N, "ns_per_op": ..., "bytes_per_op": ...,
#    "allocs_per_op": ...}
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_resample.json}"
input="${2:-}"
benchtime="${BENCHTIME:-1x}"
pattern='BenchmarkEpsilonBootstrap|BenchmarkMultinomialDraw|BenchmarkEpsilonCredible|BenchmarkBootstrap$'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
if [[ -n "$input" ]]; then
  cp "$input" "$raw"
else
  go test -run 'xxx' -bench "$pattern" -benchmem -benchtime "$benchtime" . ./internal/resample | tee "$raw"
fi

awk -v pat="^(${pattern})" '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
  name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
  # Strip the -GOMAXPROCS suffix Go appends on multi-core hosts so
  # names join across runners with different core counts.
  sub(/-[0-9]+$/, "", name)
  if (name !~ pat) next
  for (i = 3; i <= NF; i++) {
    if ($(i+1) == "ns/op")     ns = $i
    if ($(i+1) == "B/op")      bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
  }
  if (ns == "") next
  if (!first) printf(",\n")
  first = 0
  printf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
  if (bytes != "")  printf(", \"bytes_per_op\": %s", bytes)
  if (allocs != "") printf(", \"allocs_per_op\": %s", allocs)
  printf("}")
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"
