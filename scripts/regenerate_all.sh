#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the extension
# experiments, recording JSON under results/.
#
# Usage: scripts/regenerate_all.sh [tiny|quick|full]
set -euo pipefail
scale="${1:-quick}"

cargo build --release -p ema-bench

bins=(table1 table2 table3 fig3 ablation seq_sweep per_variable hyperparams cluster_compare)
for bin in "${bins[@]}"; do
    echo "=== $bin (--scale $scale) ==="
    "./target/release/$bin" --scale "$scale"
    echo
done
