#!/usr/bin/env bash
# Full offline CI gate: formatting, lints, build, and every test in the
# workspace (including the vendored dependency shims).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no process numerics mode (the relaxed tier is the INT8 backend)"
# The mode, its env var and its flag were deleted; nothing may bring them
# back. (Bracketed so that this line does not match itself.)
if grep -rnE '[N]umericsMode|APOLLO_[N]UMERICS|--[n]umerics' crates scripts README.md .claude; then
    echo "a process-wide numerics mode is back"; exit 1
fi

echo "== one paper binary (no per-artefact env vars or scripts)"
# The artefacts take --scale and --out; the env vars and the script that
# steered one binary per artefact were deleted. (Bracketed as above.)
if grep -rnE 'APOLLO_[S]CALE|APOLLO_[R]ESULTS|[r]un_all\.sh' crates scripts README.md .claude; then
    echo "a per-artefact env var or the run-all script is back"; exit 1
fi

echo "== no scratch pool (a buffer is a Vec its owner drops)"
# The thread-local buffer pool and its API were deleted; nothing may bring
# them back. (Bracketed as above.)
if grep -rnE '[s]cratch::|take_[s]tale|take_[z]eroed|pooled_[c]opy|zeros_[e]xact' crates; then
    echo "the scratch pool or one of its calls is back"; exit 1
fi

echo "== no replica team (data-parallel slots and shards are fork-join)"
# The lock-step team, its poisonable barrier and its per-replica thread knob
# were deleted; nothing may bring them back. (Bracketed as above.)
if grep -rnE '[T]eamBarrier|[P]anicGuard|threads_[p]er_replica|threads-[p]er-replica' crates; then
    echo "the replica team or its thread knob is back"; exit 1
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
# apollo-tensor also denies clippy::undocumented_unsafe_blocks (lib.rs):
# every `unsafe` block or impl it keeps carries its `// SAFETY:` argument.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
# --workspace so the vendored shims build too; the CLI the smoke stages
# below run is a default member, so a bare `cargo build` builds it as well.
cargo build --release --workspace

echo "== paper binary: the analytic artefacts equal results/ byte for byte"
PAPER_TMP="$(mktemp -d)"
./target/release/paper table1_memory fig1_memory claims_system --out "$PAPER_TMP" >/dev/null
for id in table1_memory fig1_memory claims_system; do
    cmp "$PAPER_TMP/$id.json" "results/$id.json"
done
rm -rf "$PAPER_TMP"

echo "== cargo test --workspace (tier-1's suites plus the vendored shims)"
# Tier-1's bare `cargo test` runs the root package and every crate (the
# workspace's default members); --workspace adds the vendored shims.
cargo test -q --workspace

echo "== standing benchmark (own workspace: unit tests + all four workloads, ops_failed=0)"
# benchmark/ is a workspace of its own, so the --workspace stages above
# never compile it and an apollo-optim API break would go unseen. Its
# optstep workload also replays each step's fused kernels and projector
# draws by hand from outside the crate; any drift in the per-tensor kernel
# sequence or in the `seed + i` derivation counts as a failed op. Its
# decode-batch workload checks one batched result in 16 byte-for-byte
# against serial `generate`, which pins the small-m GEMM and the
# position-major attention loops from outside the workspace. pretrain and
# serve-http check their outputs the same way. pretrain runs traced: its
# hand-split loop copies gradients off the tape (`collect_grads`) while
# `pretrain()` moves them (`take_grads`), and only the traced pass compares
# the two runs' losses bit for bit. These runs are correctness smokes: no
# timing is compared here, that is the pipeline's own run of this benchmark
# against the parent commit.
cargo test -q --release --manifest-path benchmark/Cargo.toml
for run in "optstep 1 0" "decode-batch 2 0" "pretrain 2 1" "serve-http 3 0"; do
    read -r workload seconds trace <<<"$run"
    BENCH_OUT="$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 11 --seconds "$seconds" --trace "$trace")"
    echo "$BENCH_OUT"
    grep -q "^== $workload .* ops_failed=0 " <<<"$BENCH_OUT" \
        || { echo "benchmark $workload reported failed ops"; exit 1; }
    if [ "$workload" = optstep ]; then
        # APOLLO-Mini's step against AdamW's, from the same process so the
        # box's speed cancels: rank-1 projection is a gemv and the lift is
        # two passes, so more than 2x means a full-rank pass crept back in
        # (3.0x before the scratch-free apply, 1.3x after; 0.9-1.6 run to run).
        awk '$1 == "apollo_mini_step_ms_p50" { mini = $2 }
             $1 == "adamw_step_ms_p50" { adamw = $2 }
             END {
                 if (mini == "" || adamw == "") { print "optstep printed no step medians"; exit 1 }
                 printf "apollo_mini / adamw step = %.2f\n", mini / adamw
                 if (mini > 2 * adamw) { print "APOLLO-Mini step exceeds 2x AdamW"; exit 1 }
             }' <<<"$BENCH_OUT"
    fi
done

echo "== trace smoke run (pretrain --trace-out + trace-check)"
TRACE_TMP="$(mktemp -d)"
# A check that fails while an `apollo serve` started below is up exits the
# script before the server's drain: stop and reap every background job this
# shell still has (only the servers run in the background), then remove the
# files they wrote.
stop_servers_and_clean() {
    local pid
    for pid in $(jobs -p); do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$TRACE_TMP"
}
trap stop_servers_and_clean EXIT
./target/release/apollo pretrain --model test-tiny --optimizer apollo \
    --steps 30 --batch 2 --seed 7 \
    --trace-out "$TRACE_TMP/trace.jsonl" --profile
# Every line must parse and each step's phase times must sum to (at most)
# the recorded step total.
./target/release/apollo trace-check --trace "$TRACE_TMP/trace.jsonl"

echo "== generation smoke run (pretrain --save + generate, thread-invariant)"
# Train a throwaway checkpoint, then stream tokens from it twice at
# different kernel thread counts: the KV-cached decode is bit-identical
# across thread counts, so the two outputs must match byte-for-byte.
./target/release/apollo pretrain --model test-tiny --optimizer apollo \
    --steps 10 --batch 2 --seed 7 --save "$TRACE_TMP/gen.ckpt"
GEN_ARGS=(generate --resume "$TRACE_TMP/gen.ckpt" --prompt-ids "5,9,2,14"
          --max-new-tokens 24 --temperature 0.8 --top-k 16 --seed 11)
APOLLO_NUM_THREADS=1 ./target/release/apollo "${GEN_ARGS[@]}" \
    >"$TRACE_TMP/gen1.txt"
APOLLO_NUM_THREADS=4 ./target/release/apollo "${GEN_ARGS[@]}" \
    >"$TRACE_TMP/gen4.txt"
cmp "$TRACE_TMP/gen1.txt" "$TRACE_TMP/gen4.txt"
# A flag the subcommand never reads stops the run instead of being ignored.
if ./target/release/apollo pretrain --model test-tiny --stepz 3 --steps 2 2>/dev/null; then
    echo "pretrain accepted the unknown flag --stepz"; exit 1
fi
# The population search was removed: its subcommand is an error.
if SEARCH_ERR=$(./target/release/apollo search 2>&1); then
    echo "apollo search still runs"; exit 1
fi
grep -q 'unknown subcommand' <<<"$SEARCH_ERR"
# Every optimizer `apollo list` names plans memory through the one method
# table, and an unknown name's error lists the valid ones.
for method in $(./target/release/apollo list \
    | awk '/^OPTIMIZERS/ { on = 1; $1 = "" } /^TASKS/ { on = 0 } on'); do
    ./target/release/apollo memory --method "$method" >/dev/null
done
if METHOD_ERR=$(./target/release/apollo memory --method adamx 2>&1); then
    echo "apollo memory accepted the unknown method adamx"; exit 1
fi
grep -q 'apollo-mini' <<<"$METHOD_ERR"

echo "== fine-tuning smoke run (finetune on that checkpoint, thread-invariant)"
# The Tables 4-5 protocol on the same throwaway checkpoint, for the first
# task `apollo list` names, at 1 and 4 kernel threads. Fine-tuning is
# bit-identical across thread counts, so the result line (accuracy and
# final loss) must match byte for byte once its trailing wall time is cut.
FT_TASK="$(./target/release/apollo list | awk '$1 == "TASKS" { print $2 }')"
for t in 1 4; do
    APOLLO_NUM_THREADS=$t ./target/release/apollo finetune \
        --checkpoint "$TRACE_TMP/gen.ckpt" --task "$FT_TASK" --steps 6 \
        | grep "^$FT_TASK: " | sed 's/, [0-9.]*s$//' >"$TRACE_TMP/ft$t.txt"
    [ -s "$TRACE_TMP/ft$t.txt" ] || { echo "finetune at $t threads printed no result"; exit 1; }
done
cmp "$TRACE_TMP/ft1.txt" "$TRACE_TMP/ft4.txt"

echo "== relaxed backend (INT8 weights + BF16 cache: ULP sweep, tolerance, generation)"
# The exact stages above are untouched: this stage runs the relaxed tier,
# which is the quantized backend and nothing else, in release mode — its
# kernels' ULP envelopes vs the exact loops and end-to-end generation
# through the quantized backend.
cargo test -q --release -p apollo-tensor --test fast_numerics
cargo test -q --release -p apollo-infer --test quantized_generation
# The one cached walk under both contracts, in release mode (where the
# vectoriser could legally diverge): bitwise vs the graph forward on the
# exact tier, bitwise batch-/chunk-invariance on the INT8 tier, and the
# INT8 tier's tolerance vs its exact oracle.
cargo test -q --release -p apollo-nn --test decode_equivalence --test quantized_decode
# INT8-decode generation smoke through the CLI: the group-128 INT8
# weights + BF16 KV cache path must stream in-vocab tokens and be
# thread-invariant (seeded sampling; every relaxed op of the walk runs
# per row, whatever the kernel pool does), so 1 and 4 threads must match
# byte-for-byte as the exact tier's pair above does.
APOLLO_NUM_THREADS=1 ./target/release/apollo "${GEN_ARGS[@]}" --int8-decode \
    >"$TRACE_TMP/gen_int8_a.txt"
APOLLO_NUM_THREADS=4 ./target/release/apollo "${GEN_ARGS[@]}" --int8-decode \
    >"$TRACE_TMP/gen_int8_b.txt"
cmp "$TRACE_TMP/gen_int8_a.txt" "$TRACE_TMP/gen_int8_b.txt"
[ -s "$TRACE_TMP/gen_int8_a.txt" ] || { echo "int8 generate printed nothing"; exit 1; }

echo "== replica-invariance smoke run (ddp at 1/2/4 replicas, bit-identical)"
# The DDP driver must produce bit-identical losses at every replica count
# (fixed virtual-slot tree reduction). Train the same tiny proxy three
# times and compare the full-bit "final loss" lines byte-for-byte.
for r in 1 2 4; do
    ./target/release/apollo pretrain --model test-tiny --optimizer apollo \
        --steps 12 --batch 4 --seed 7 --replicas "$r" 2>/dev/null \
        | grep '^final loss' >"$TRACE_TMP/ddp$r.txt"
    [ -s "$TRACE_TMP/ddp$r.txt" ] || { echo "ddp run at $r replicas printed no loss"; exit 1; }
done
cmp "$TRACE_TMP/ddp1.txt" "$TRACE_TMP/ddp2.txt"
cmp "$TRACE_TMP/ddp1.txt" "$TRACE_TMP/ddp4.txt"
# One step pipeline: the serial entry point is the one-replica, one-slot
# round of the same loop, and prints the same full-bit line. (Not the line
# above: that is four slots of one sequence, this is one slot of four, and
# the slot count is part of the arithmetic.)
./target/release/apollo pretrain --model test-tiny --optimizer apollo \
    --steps 12 --batch 4 --seed 7 2>/dev/null \
    | grep '^final loss' >"$TRACE_TMP/serial.txt"
./target/release/apollo pretrain --model test-tiny --optimizer apollo \
    --steps 12 --batch 4 --seed 7 --replicas 1 --virtual-slots 1 2>/dev/null \
    | grep '^final loss' >"$TRACE_TMP/ddp1x1.txt"
[ -s "$TRACE_TMP/serial.txt" ] || { echo "serial run printed no loss"; exit 1; }
cmp "$TRACE_TMP/serial.txt" "$TRACE_TMP/ddp1x1.txt"
# The guard stage under --replicas: a spike factor of 1 flags any loss above
# its rolling mean, the skip policy drops that step, and every replica must
# reach the same verdict from the published per-parameter flags.
for r in 1 2; do
    ./target/release/apollo pretrain --model test-tiny --optimizer apollo \
        --steps 16 --batch 4 --seed 7 --lr 0.3 --replicas "$r" \
        --recovery skip --spike-factor 1.0 2>/dev/null \
        | grep '^final loss\|^faults' >"$TRACE_TMP/ddp-skip$r.txt"
done
grep -q ' 1 spike | recovery: 1 skipped' "$TRACE_TMP/ddp-skip2.txt"
cmp "$TRACE_TMP/ddp-skip1.txt" "$TRACE_TMP/ddp-skip2.txt"
# The floor replay under --replicas: the rollback policy restores its
# in-memory floor (step 10) at every spike, and the step-15 spike recurs
# after each rollback. Replaying the clean steps before it must not reset the
# consecutive-fault count, so the run aborts at the limit instead of rolling
# back forever (timeout), and every replica count replays the same bits.
for r in 1 2; do
    timeout 60 ./target/release/apollo pretrain --model test-tiny --optimizer apollo \
        --steps 16 --batch 4 --seed 7 --lr 0.3 --replicas "$r" \
        --recovery rollback --spike-factor 1.0 2>/dev/null \
        | grep '^final loss\|^faults' >"$TRACE_TMP/ddp-rollback$r.txt"
done
grep -q ' 8 rollbacks | ABORTED' "$TRACE_TMP/ddp-rollback2.txt"
cmp "$TRACE_TMP/ddp-rollback1.txt" "$TRACE_TMP/ddp-rollback2.txt"

echo "== serve smoke run (loopback server + fault-injected loadgen + drain)"
# A server thread that panicked (the scheduler worker's admission invariant,
# or any connection handler) fails the stage even when every reply the load
# generator saw was clean. The panic hook prints "thread '…' panicked at" to
# the server's stderr.
fail_on_panics() {
    if grep -n 'panicked' "$1"; then
        echo "a server thread panicked (matching lines of $1 above)"; exit 1
    fi
}
# Bring up the HTTP front-end on a loopback ephemeral port, drive it with
# the deterministic load generator at the default fault mix (slow-loris,
# mid-stream disconnects, malformed requests, bursts), then signal a
# graceful drain. --expect-clean fails on any transport error or any
# fault probe that got the wrong status code; `apollo serve` itself exits
# non-zero if the drain had to force-abandon a request; trace-check
# validates every serve.* event the run emitted. --prefill-chunk is the
# prompt rows of a whole tick, checked against the trace below.
./target/release/apollo serve --resume "$TRACE_TMP/gen.ckpt" --prefill-chunk 8 \
    --addr 127.0.0.1:0 --addr-file "$TRACE_TMP/serve.addr" \
    --shutdown-file "$TRACE_TMP/serve.stop" \
    --trace-out "$TRACE_TMP/serve_trace.jsonl" 2>"$TRACE_TMP/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -f "$TRACE_TMP/serve.addr" ] && break
    sleep 0.1
done
[ -f "$TRACE_TMP/serve.addr" ] || {
    echo "serve never published its address"
    cat "$TRACE_TMP/serve.log"
    exit 1
}
./target/release/apollo loadgen --addr "$(cat "$TRACE_TMP/serve.addr")" \
    --requests 30 --rate 100 --faults default --expect-clean
touch "$TRACE_TMP/serve.stop"
wait "$SERVE_PID" || { cat "$TRACE_TMP/serve.log"; exit 1; }
fail_on_panics "$TRACE_TMP/serve.log"
./target/release/apollo trace-check --trace "$TRACE_TMP/serve_trace.jsonl"
# Stall-free ticks: no tick prefilled more than its 8 prompt rows, and
# decode rows rode the same pass as prompt rows at least once.
awk '/"InferStep"/ {
        match($0, /"prefill_rows":[0-9]+/); p = substr($0, RSTART + 15, RLENGTH - 15) + 0
        match($0, /"decode_rows":[0-9]+/); d = substr($0, RSTART + 14, RLENGTH - 14) + 0
        if (p > 8) { print "a tick prefilled " p " prompt rows under --prefill-chunk 8"; bad = 1 }
        if (p > 0 && d > 0) shared++
     }
     END {
        if (!shared) { print "no tick carried prompt rows and decode rows together"; bad = 1 }
        exit bad
     }' "$TRACE_TMP/serve_trace.jsonl"

echo "== multi-tenant serve smoke (3 adapters, prefix cache, /stats)"
# Derive three LoRA adapter checkpoints from the generation checkpoint,
# serve them over the shared base with a radix-tree prefix cache, and
# drive prefix-heavy traffic: 80% of requests open with a shared
# 48-token prefix and every request names one of the three tenants.
# --expect-clean fails on any transport error; the drain report must
# show nonzero prefix-cache hits; trace-check validates the serve.* and
# infer.prefix.* events the run emitted.
for i in 0 1 2; do
    ./target/release/apollo make-adapter --resume "$TRACE_TMP/gen.ckpt" \
        --out "$TRACE_TMP/tenant$i.ckpt" --rank 4 --seed "$((100 + i))"
done
# One overwritten byte in a copy of an adapter and of the base snapshot:
# `eval` refuses the file with exit 1 and names the checksum (a panic would
# exit 101), and `serve` refuses it as an adapter before it starts.
for f in tenant0 gen; do
    BAD="$TRACE_TMP/bad-$f.ckpt"
    cp "$TRACE_TMP/$f.ckpt" "$BAD"
    printf '\xff' | dd of="$BAD" bs=1 seek="$(($(stat -c %s "$BAD") / 2))" \
        conv=notrunc status=none
    status=0
    EVAL_ERR=$(./target/release/apollo eval --checkpoint "$BAD" --seqs 1 2>&1) || status=$?
    [ "$status" = 1 ] || { echo "eval of a corrupt $f.ckpt exited $status, not 1"; exit 1; }
    grep -q checksum <<<"$EVAL_ERR" || { echo "eval of a corrupt $f.ckpt: $EVAL_ERR"; exit 1; }
    status=0
    timeout 30 ./target/release/apollo serve --resume "$TRACE_TMP/gen.ckpt" \
        --adapters "t=$BAD" --addr 127.0.0.1:0 2>/dev/null || status=$?
    [ "$status" = 1 ] || { echo "serve with a corrupt adapter exited $status, not 1"; exit 1; }
done
./target/release/apollo serve --resume "$TRACE_TMP/gen.ckpt" \
    --adapters "tenant0=$TRACE_TMP/tenant0.ckpt,tenant1=$TRACE_TMP/tenant1.ckpt,tenant2=$TRACE_TMP/tenant2.ckpt" \
    --prefix-cache-mb 8 \
    --addr 127.0.0.1:0 --addr-file "$TRACE_TMP/mt.addr" \
    --shutdown-file "$TRACE_TMP/mt.stop" \
    --trace-out "$TRACE_TMP/mt_trace.jsonl" 2>"$TRACE_TMP/mt_serve.log" &
MT_PID=$!
for _ in $(seq 1 100); do
    [ -f "$TRACE_TMP/mt.addr" ] && break
    sleep 0.1
done
[ -f "$TRACE_TMP/mt.addr" ] || {
    echo "multi-tenant serve never published its address"
    cat "$TRACE_TMP/mt_serve.log"
    exit 1
}
./target/release/apollo loadgen --addr "$(cat "$TRACE_TMP/mt.addr")" \
    --requests 40 --rate 100 --prompt-len 56 --max-new-tokens 8 \
    --prefix-reuse 0.8 --prefix-len 48 --adapters 3 --expect-clean
# GET /stats over a raw socket: the counters must be live mid-run.
MT_HOST="$(cut -d: -f1 "$TRACE_TMP/mt.addr")"
MT_PORT="$(cut -d: -f2 "$TRACE_TMP/mt.addr")"
mt_stats() {
    exec 3<>"/dev/tcp/$MT_HOST/$MT_PORT"
    printf 'GET /stats HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$MT_HOST" >&3
    cat <&3 >"$1"
    exec 3<&- 3>&-
}
mt_stats "$TRACE_TMP/mt_stats.txt"
grep -q '"prefix_cache"' "$TRACE_TMP/mt_stats.txt"
grep -q '"adapters"' "$TRACE_TMP/mt_stats.txt"
# One-off prompts must not buy KV: the prefix cache keeps a span's KV only
# once a second request has shared it, so 20 prompts that share nothing
# leave `cached_bytes` where the shared-prefix traffic put it. The run seed
# differs from the first loadgen's: the same seed would re-send its
# unprefixed prompts verbatim, and a repeat is what the cache should keep.
cached_bytes() { grep -o '"cached_bytes":[0-9]*' "$1" | cut -d: -f2; }
MT_CACHED="$(cached_bytes "$TRACE_TMP/mt_stats.txt")"
./target/release/apollo loadgen --addr "$(cat "$TRACE_TMP/mt.addr")" \
    --requests 20 --seed 1 --prefix-reuse 0 --prompt-len 56 --max-new-tokens 8 \
    --adapters 3 --expect-clean
mt_stats "$TRACE_TMP/mt_stats_oneoff.txt"
MT_CACHED_AFTER="$(cached_bytes "$TRACE_TMP/mt_stats_oneoff.txt")"
[ -n "$MT_CACHED" ] && [ -n "$MT_CACHED_AFTER" ] \
    && [ $((2 * MT_CACHED_AFTER)) -lt $((3 * MT_CACHED)) ] || {
    echo "one-off prompts grew the prefix cache from $MT_CACHED to $MT_CACHED_AFTER bytes"
    exit 1
}
touch "$TRACE_TMP/mt.stop"
wait "$MT_PID"
fail_on_panics "$TRACE_TMP/mt_serve.log"
# Drain report: the prefix cache must have served real hits.
grep -Eq 'infer\.prefix\.hits +[1-9]' "$TRACE_TMP/mt_serve.log" || {
    echo "multi-tenant run recorded no prefix-cache hits"
    cat "$TRACE_TMP/mt_serve.log"
    exit 1
}
./target/release/apollo trace-check --trace "$TRACE_TMP/mt_trace.jsonl"

echo "== GEMM, fused-kernel, counter-draw and gradient bit-identity (release mode)"
# The fused single-pass kernels must stay bitwise equal to the staged
# references at every thread count, and the lane-unrolled fill of the
# projection draw to its scalar definition. Debug-mode runs are covered by
# the workspace suite above; release mode is what the benches and users
# run, and is where the vectorizer could legally diverge if a kernel broke
# the float-op-order contract. For the GEMM this build (release +
# target-cpu=native) is also the one where the autovectorised array tile
# and the explicit 16-lane tile both live: kernel_equivalence holds each
# row band to the naive loop's bits on whichever the probe and the band's
# row count select, simd_golden the relaxed tier's pinned AVX2 bits.
cargo test -q --release -p apollo-tensor --test fused_equivalence \
    --test kernel_equivalence --test simd_golden
cargo test -q --release -p apollo-tensor --lib rng::
cargo test -q --release -p apollo-autograd training_loop_fused
# Rope, residual adds and cross-entropy through a whole network, against
# finite differences.
cargo test -q --release -p apollo-autograd --test network_gradcheck
# One forward+backward's loss and gradient bits (grad_golden), and the tape
# holding only what backward reads: at forward end it stays under the
# keep-everything tape less the values no backward arm reads, and the
# heap's rise during backward under half of it (backward_memory).
cargo test -q --release -p apollo-nn --test grad_golden --test backward_memory
# Table 1 as a measured row: after steps 1 and 3 on the optstep tensors the
# heap AdamW, APOLLO, APOLLO-Mini, GaLore, Adam-mini and SGD-M hold equals their
# state_bytes() within per-tensor headers and the published scaling factors
# (state_memory; its own counting allocator).
cargo test -q --release -p apollo-optim --test state_memory

echo "== baseline x86-64 build (no target-cpu=native): bit and envelope suites"
# Everything above was compiled for the host CPU (.cargo/config.toml); an
# empty RUSTFLAGS overrides that, so this is the code a portable binary
# ships: SSE2 everywhere except the `#[target_feature]` entries — the
# relaxed tier's avx2+fma kernels and the exact GEMM's avx512f tile — which
# the runtime probes still select. It is the only stage that enters them
# from SSE2-compiled code (the 16-lane tile with no edit here: the probe is
# the same call in both builds), and the one that holds .cargo/config.toml
# to its claim that bits do not depend on the target CPU:
# kernel_equivalence, fused_equivalence, simd_golden, step_golden and
# grad_golden carry the same constants here as in the native stages.
RUSTFLAGS= cargo test -q --release -p apollo-tensor -p apollo-optim \
    --target-dir target/x86-64-baseline
RUSTFLAGS= cargo test -q --release -p apollo-nn --test grad_golden \
    --target-dir target/x86-64-baseline

echo "CI green."
