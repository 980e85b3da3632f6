#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the result
#       object BENCHMARK.json describes (this is what the driver calls)
#   bench/run.sh [--seed N] [--seconds S] [--repeat K]
#       every workload, untraced then traced; prints every metric by
#       name with its unit and writes bench/out/ledger.json. With
#       --repeat, K back-to-back sets, each compared with the first.
#   bench/run.sh --smoke
#       the same with 2 s windows, tagged "tier":"smoke": a sub-minute
#       wiring check whose numbers `compare` refuses
#   bench/run.sh compare A.json B.json
#       per workload x end-to-end metric: both values, the relative
#       difference, the bound; exits non-zero beyond a bound
#
# Builds the release `optrules` binary from the checkout it runs in
# and the ledger (a package of its own under bench/) into one target
# directory, honouring CARGO_TARGET_DIR. Reads and writes only inside
# the checkout: scratch data lives under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f Cargo.toml || ! -d crates/core || ! -f bench/Cargo.toml ]]; then
  echo "bench/run.sh: $(pwd) is not an optrules checkout (no Cargo.toml + crates/)" >&2
  exit 3
fi

target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$(pwd)/$target"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --bin optrules >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2

export LEDGER_OPTRULES="$target/release/optrules"
export LEDGER_OUT="$(pwd)/bench/out"
export LEDGER_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
ledger="$target/release/ledger"
mkdir -p "$LEDGER_OUT"

if [[ "${1:-}" == compare ]]; then
  shift
  exec "$ledger" compare "$@"
fi

mode=all
repeat=1
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) mode=run; args+=("$1" "$2"); shift 2 ;;
    --smoke) args+=(--smoke 1); shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --*) args+=("$1" "${2:?flag $1 expects a value}"); shift 2 ;;
    *) echo "bench/run.sh: unexpected argument $1" >&2; exit 2 ;;
  esac
done

if [[ "$mode" == run ]]; then
  exec "$ledger" run "${args[@]}"
fi

if [[ "$repeat" -le 1 ]]; then
  exec "$ledger" all "${args[@]}"
fi

status=0
for ((k = 1; k <= repeat; k++)); do
  "$ledger" all "${args[@]}" --out "$LEDGER_OUT/ledger-$k.json" || status=1
  if ((k > 1)); then
    "$ledger" compare "$LEDGER_OUT/ledger-1.json" "$LEDGER_OUT/ledger-$k.json" || status=1
  fi
done
exit "$status"
