#!/usr/bin/env bash
# Second-seed smoke test: runs every workload once, untraced and traced,
# at a seed other than the default 7, and fails unless every run's checks
# pass. Run from the repository root: bash perfbench/smoke.sh [seed]
set -euo pipefail
seed="${1:-11}"
status=0
for workload in train-s025 loop-w8 serve-advise; do
  for trace in 0 1; do
    # serve-advise needs 1,000 latency samples for its p99: about 13 s.
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds 16 --trace "$trace" | tail -n 1)
    case "$result" in
      '{"correct":true,'*) echo "ok   $workload seed $seed trace $trace" ;;
      *) echo "FAIL $workload seed $seed trace $trace: $result"; status=1 ;;
    esac
  done
done
exit "$status"
