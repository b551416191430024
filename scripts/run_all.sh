#!/bin/sh
# Regenerates every table and figure. Logs to results/logs/<id>.log and
# JSON to results/<id>.json. APOLLO_SCALE can trade fidelity vs time.
# Exits non-zero, naming them, if any binary failed: its results/<id>.json
# is then the previous run's.
set -x
mkdir -p results/logs
failed=""
run() {
  bin=$1; scale=${2:-1}
  env APOLLO_SCALE="$scale" ${3:+APOLLO_NUM_THREADS=$3} \
    cargo run -q --release -p apollo-bench --bin "$bin" \
    > "results/logs/$bin.log" 2>&1 || failed="$failed $bin"
}
# Analytic (instant)
run table1_memory
run fig1_memory
run fig1_throughput
run claims_system
run kernel_table 1 1  # measured, ~10 s; third argument: APOLLO_NUM_THREADS
# Training-based, most important first
run table2_pretrain "$APOLLO_SCALE_T2"
run fig5_projection_rank
run table3_llama7b
run fig2_llama7b
run fig3_structured_lr
run fig4_ratio
run fig6_curves
run fig7_longcontext
run fig9_svd_spikes
run table4_commonsense
run table5_mmlu
run table6_quantized
run table7_granularity
run ablations
if [ -n "$failed" ]; then
  echo "run_all: failed:$failed" >&2
  exit 1
fi
