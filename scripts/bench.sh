#!/usr/bin/env bash
# Tiered bench harness: runs the criterion suite and distills the
# report lines into machine-readable JSON so perf is diffable across
# PRs (check the emitted file into the PR description, not the repo).
#
#   scripts/bench.sh [kick-tires|full] [output.json]
#
# kick-tires (default) runs the four benches that gate the hot paths
# touched most often — the engine cache, the live append path, the
# sharded scatter-gather coordinator, and the §1.4 rectangle grid —
# in a couple of minutes; full runs the entire suite.
#
# Every tier also runs serve_throughput twice — once with metrics
# recording on (the always-on default) and once with
# OPTRULES_METRICS=off — and emits the per-bench deltas under
# "metrics_overhead", so the observability tax on warm serving stays a
# number, not a guess (the budget is 5%).
set -euo pipefail
cd "$(dirname "$0")/.."

tier="${1:-kick-tires}"
out="${2:-BENCH_PR10.json}"

case "$tier" in
  kick-tires)
    benches=(engine_cache append_throughput coord_scatter_gather region2d)
    ;;
  full)
    benches=(confidence support hull bucketing sample_size parallel
             engine_cache concurrent_engine batch_plan serve_throughput
             append_throughput durability coord_scatter_gather region2d)
    ;;
  *)
    echo "usage: $0 [kick-tires|full] [output.json]" >&2
    exit 2
    ;;
esac

git_rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
raw="$(mktemp)"
raw_on="$(mktemp)"
raw_off="$(mktemp)"
trap 'rm -f "$raw" "$raw_on" "$raw_off"' EXIT

for bench in "${benches[@]}"; do
  echo "== $bench" >&2
  cargo bench -q -p optrules-bench --bench "$bench" 2>&1 | tee -a "$raw" >&2
done

echo "== serve_throughput (metrics on)" >&2
cargo bench -q -p optrules-bench --bench serve_throughput 2>&1 | tee "$raw_on" >&2
echo "== serve_throughput (metrics off)" >&2
OPTRULES_METRICS=off cargo bench -q -p optrules-bench --bench serve_throughput 2>&1 \
  | tee "$raw_off" >&2

# Report lines look like:
#   group/name/param   time:   242.2201 µs  (3312 iters)  thrpt: ...
extract() {
  awk '
    / time: / {
      name = $1
      for (i = 1; i <= NF; i++) if ($i == "time:") { t = $(i + 1); unit = $(i + 2) }
      ns = t + 0
      if (unit ~ /^ms/)                     ns *= 1e6
      else if (unit ~ /^µs/ || unit ~ /^us/) ns *= 1e3
      else if (unit ~ /^ns/)                 ns *= 1
      else if (unit ~ /^s/)                  ns *= 1e9
      printf "%s %.1f\n", name, ns
    }
  ' "$1"
}

{
  printf '{\n  "tier": "%s",\n  "git": "%s",\n  "results": [\n' "$tier" "$git_rev"
  extract "$raw" | awk '
    { printf "%s    {\"name\": \"%s\", \"time_ns\": %s}", sep, $1, $2; sep = ",\n" }
    END { if (sep != "") printf "\n" }
  '
  printf '  ],\n  "metrics_overhead": [\n'
  # Both runs execute the same benches in the same order, so a
  # positional join is exact.
  paste <(extract "$raw_on") <(extract "$raw_off") | awk '
    {
      pct = ($4 > 0) ? 100 * ($2 - $4) / $4 : 0
      printf "%s    {\"name\": \"%s\", \"metrics_on_ns\": %s, \"metrics_off_ns\": %s, \"overhead_pct\": %.2f}", \
        sep, $1, $2, $4, pct
      sep = ",\n"
    }
    END { if (sep != "") printf "\n" }
  '
  printf '  ]\n}\n'
} > "$out"
echo "wrote $out ($(grep -c time_ns "$out") results)" >&2
