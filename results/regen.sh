#!/usr/bin/env bash
# Regenerates every simulator artifact under results/ from the code:
#
#   results/regen.sh
#
# Builds the jet-bench bins once (release), then runs each simulator bin
# from the repository root, up to one per CPU at a time (each writes its
# own files). A bin's stdout is its committed `.txt`; the bins that commit
# only a BENCH_*.json keep stdout and stderr in a log that is printed if
# they fail. The simulator is deterministic, so on a clean checkout the
# regenerated files equal the committed ones byte for byte: CI (job
# `sim-artifacts`) runs this script and fails unless
# `git status --porcelain -- results/` is empty afterwards.
#
# `abl1_tasklets_vs_threads` is left out: it times real threads on the
# wall clock, so its `.txt` is captured by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

# bin, and the results/ file its stdout is committed as (- for none).
# Longest first, so the tail of the schedule is short bins.
runs=(
  "fig9_latency_distribution fig9_latency_distribution.txt"
  "fig8_scaleout_latency fig8.txt"
  "fig10_throughput_scaling fig10_throughput_scaling.txt"
  "fig_keyscale -"
  "fig12_latency_10node fig12_latency_10node.txt"
  "fig11_latency_5node fig11_latency_5node.txt"
  "fig7_throughput_vs_latency fig7.txt"
  "abl3_guarantees abl3_guarantees.txt"
  "fig13_fault_tolerance_latency fig13_fault_tolerance_latency.txt"
  "abl2_gc_pauses abl2_gc_pauses.txt"
  "fig_tenant_stress -"
  "sec77_multitenancy sec77_multitenancy.txt"
  "abl4_receive_window abl4_receive_window.txt"
  "fig_autoscale -"
  "rec_failover rec_failover.txt"
)

cargo build --release -q -p jet-bench --bins
bins="${CARGO_TARGET_DIR:-target}/release"
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

# Start from a results/ holding only what is written by hand, so a file
# that no bin writes any more shows up as deleted in `git status`.
find results -maxdepth 1 -type f ! -name README.md ! -name regen.sh \
  ! -name abl1_tasklets_vs_threads.txt -delete

run() {
  local bin=$1 out=$2 start=$SECONDS status=0
  if [ "$out" = - ]; then
    "$bins/$bin" >"$logs/$bin.log" 2>&1 || status=$?
  else
    "$bins/$bin" >"results/$out" 2>"$logs/$bin.log" || status=$?
  fi
  if [ "$status" = 0 ]; then
    printf 'ok    %-32s %4d s\n' "$bin" $((SECONDS - start))
  else
    printf 'FAIL  %-32s %4d s (exit %d)\n' "$bin" $((SECONDS - start)) "$status"
    tail -n 30 "$logs/$bin.log"
    touch "$logs/$bin.failed"
  fi
}

for r in "${runs[@]}"; do
  while [ "$(jobs -rp | wc -l)" -ge "$(nproc)" ]; do wait -n || true; done
  run $r &
done
wait

if compgen -G "$logs/*.failed" >/dev/null; then
  echo "regen: failed after $SECONDS s" >&2
  exit 1
fi
echo "regen: ${#runs[@]} bins in $SECONDS s"
