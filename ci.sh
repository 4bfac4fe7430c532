#!/bin/sh
# CI entry point: the tier-1 verify, run fully offline (the hermetic-build
# policy — see DESIGN.md §3 — means no registry access is ever needed),
# plus formatting. Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

# The test suite runs twice: once serial (DEFCON_THREADS=1) and once on 4
# worker threads. The determinism contract (DESIGN.md §4) says reports and
# traces are the same bytes at every thread count — each launch is one
# serial walk, and parallelism runs only across independent items — so the
# golden-report and equivalence tests fail on any divergence, and a pass at
# both counts is the contract's CI enforcement.
# The root integration suites include tests/fault_injection.rs, so every
# armed-fault degradation path is also exercised at both thread counts.
for threads in 1 4; do
    export DEFCON_THREADS="$threads"

    echo "==> cargo test -q --offline (root integration suites, DEFCON_THREADS=$threads)"
    cargo test -q --offline

    echo "==> cargo test --workspace -q --offline (all member crates, DEFCON_THREADS=$threads)"
    cargo test --workspace -q --offline

    # Golden-trace conformance (DESIGN.md §8), called out explicitly: the
    # DEFCON_TRACE output must match the blessed snapshots byte for byte at
    # one thread and at four. (The suite pins its own child thread counts,
    # so running it under both ambient values also proves the ambient env
    # leaks nothing into the trace.)
    echo "==> golden-trace conformance (obs_golden, DEFCON_THREADS=$threads)"
    cargo test -q --offline -p defcon-bench --test obs_golden

    # Serving suite, called out explicitly (DESIGN.md §9): the differential
    # tests prove response bytes are invariant to worker count and cache
    # temperature, the cache-key property tests pin the content address,
    # and the serving golden holds the 16-request session trace exact.
    echo "==> serving differential + cache-key suites (DEFCON_THREADS=$threads)"
    cargo test -q --offline --test serving_equivalence
    cargo test -q --offline --test serving_cache_props
    cargo test -q --offline -p defcon-bench --test serving_golden

    # Cross-backend table golden (DESIGN.md §13): the repro_backends tiny
    # report must match the blessed snapshot byte for byte. Both timing
    # models are closed-form deterministic, so this holds at any ambient
    # thread count (the test pins its own child to DEFCON_THREADS=1).
    echo "==> backends golden table (DEFCON_THREADS=$threads)"
    cargo test -q --offline -p defcon-bench --test backends_golden

    # Chaos soak (DESIGN.md §12), called out explicitly: multi-hundred-
    # request sessions under an armed probabilistic fault plan must hold
    # the session invariants (none lost, accounting balance, legal breaker
    # walks) and replay byte-identically — at both ambient thread counts.
    echo "==> chaos-soak invariant suite (DEFCON_THREADS=$threads)"
    cargo test -q --offline --test chaos_soak

    # Operator-family conformance (DESIGN.md §10), called out explicitly:
    # every {DCNv1, DCNv2, DCNv3} × {software, tex2D, tex2D++} cell against
    # its CPU reference, the two reduction identities bytewise, and report
    # bytes equal across thread counts — at both ambient values.
    echo "==> operator-family differential conformance (DEFCON_THREADS=$threads)"
    cargo test -q --offline --test operator_conformance

    # Cross-backend conformance (DESIGN.md §13), called out explicitly:
    # gpusim and accel must produce byte-identical functional outputs for
    # every family × kernel-path cell, and the accel tile scheduler's
    # property suite (exact coverage, halo monotonicity, buffer bounds,
    # visit-order invariance) must hold — at both ambient thread counts.
    echo "==> cross-backend conformance + accel scheduler properties (DEFCON_THREADS=$threads)"
    cargo test -q --offline --test backend_conformance
    cargo test -q --offline -p defcon-accel
done
unset DEFCON_THREADS

# Allocation ratchet, called out explicitly: with no trace armed, every
# obs:: entry point stays allocation-free (one relaxed atomic load on the
# hot path); tracing blocks of every kernel family allocates nothing; and
# binding a layered texture borrows the input instead of copying it. Runs
# the whole zero_alloc binary so a regression names itself in CI.
echo "==> allocation ratchet (zero_alloc)"
cargo test -q --offline --test zero_alloc

# Trace goldens, end to end on the release binaries: two back-to-back
# traced runs must each write the blessed DEFCON_TRACE file byte for byte
# (the logical clock makes timestamps a pure function of the event
# sequence). The simulator sweep runs at DEFCON_TINY; the trainers run at
# DEFCON_FAST: Table I, the Fig. 5 bound sweep and Table V train the
# detector, whose traces log every epoch's mean loss at full precision, and
# Fig. 6's interval search logs every search step's losses. They are the
# end-to-end pin of the deformable forward and backward the nn layers train
# through. Each golden was blessed at DEFCON_THREADS=1 and equals the run at 2.
trace_twice() {
    bin="$1" golden="crates/bench/tests/golden/$2"
    shift 2
    trace="$(mktemp)"
    for run in 1 2; do
        echo "==> DEFCON_TRACE golden (release $bin, $*, run $run)"
        # Each run starts from an empty file, so a run that writes no
        # trace fails the cmp instead of passing on the last run's bytes.
        : > "$trace"
        env "$@" DEFCON_THREADS=1 DEFCON_TRACE="$trace" "./target/release/$bin" > /dev/null
        cmp "$trace" "$golden" || {
            echo "trace golden FAIL: $bin DEFCON_TRACE output (run $run) differs from $golden" >&2
            exit 1
        }
    done
    rm -f "$trace"
}
trace_twice repro_table2_xavier table2_trace.json DEFCON_TINY=1
trace_twice repro_table1 table1_fast_trace.json DEFCON_FAST=1
trace_twice repro_fig5_boundary fig5_boundary_fast_trace.json DEFCON_FAST=1
trace_twice repro_fig6_interval fig6_interval_fast_trace.json DEFCON_FAST=1
trace_twice repro_table5 table5_fast_trace.json DEFCON_FAST=1

# Full-size byte gates, end to end on the release binaries: each repro's
# DEFCON_JSON line at the paper's shapes must equal its golden, at one
# thread and with the independent rows or networks mapped on two workers.
# Table III's line holds every printed cell's ms as f64 bits plus their FNV
# digest (blessed from the code before the launch memo); the others hold
# every printed cell as a round-trip f64. A debug `cargo test` at these
# shapes would take many minutes, so the gates run here instead.
full_golden() {
    bin="$1" golden="crates/bench/tests/golden/$2"
    line="$(mktemp)"
    for threads in 1 2; do
        echo "==> full-size golden (release $bin, DEFCON_THREADS=$threads)"
        DEFCON_THREADS="$threads" DEFCON_JSON=1 "./target/release/$bin" \
            | tail -n 1 > "$line"
        cmp "$line" "$golden" || {
            echo "golden FAIL: $bin report at DEFCON_THREADS=$threads differs from $golden" >&2
            exit 1
        }
    done
    rm -f "$line"
}
full_golden repro_table3_endtoend table3_endtoend.json
full_golden repro_table2_xavier table2_xavier_full.json
full_golden repro_table4_2080ti table4_2080ti_full.json
full_golden repro_fig10_counters fig10_counters_full.json
full_golden repro_backends backends_table_full.json
full_golden repro_fig8_tilesearch fig8_tilesearch_full.json
full_golden repro_fig9_algo_opts fig9_algo_opts_full.json
full_golden repro_fig7_speedup fig7_speedup_full.json

echo "==> cargo check --all-targets --offline (benches + bins compile)"
cargo check --all-targets --offline

# The repository benchmark (BENCHMARK.json) is a package of its own under
# perfbench/ that calls the library's public API. Building it and running
# its unit tests here makes a change to a name it calls fail CI instead of
# the benchmark run.
echo "==> perfbench build + unit tests"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Unwrap/panic ratchet over the fallible-API modules (DESIGN.md §"Fault
# injection & graceful degradation"): these files expose typed-DefconError
# APIs, so a *new* unwrap()/panic! is a regression. The counts below are
# the blessed baselines (tests included); if you removed some, lower the
# number here — never raise it without a DESIGN.md note.
echo "==> unwrap()/panic! ratchet on converted fallible-API modules"
check_ratchet() {
    file="$1" max_unwrap="$2" max_panic="$3"
    unwraps=$(grep -c "unwrap()" "$file" || true)
    panics=$(grep -c "panic!" "$file" || true)
    if [ "$unwraps" -gt "$max_unwrap" ] || [ "$panics" -gt "$max_panic" ]; then
        echo "ratchet FAIL: $file has $unwraps unwrap() (max $max_unwrap)," \
             "$panics panic! (max $max_panic)" >&2
        exit 1
    fi
}
check_ratchet crates/support/src/ckpt.rs     14 0
check_ratchet crates/support/src/env.rs       0 0
check_ratchet crates/core/src/lut.rs          6 0
check_ratchet crates/core/src/search.rs       2 1
check_ratchet crates/core/src/autotune.rs     4 0
check_ratchet crates/core/src/pipeline.rs     0 0
check_ratchet crates/core/src/serve.rs        0 2
check_ratchet crates/core/src/chaos.rs        0 0
check_ratchet crates/gpusim/src/device.rs     4 0
check_ratchet crates/gpusim/src/engine.rs     5 0
check_ratchet crates/gpusim/src/report_cache.rs 0 0
check_ratchet crates/gpusim/src/texture.rs    1 0
check_ratchet crates/kernels/src/op.rs        3 0
check_ratchet crates/kernels/src/im2col.rs    1 0
check_ratchet crates/kernels/src/fused.rs     1 0
check_ratchet crates/kernels/src/backend.rs   4 0
check_ratchet crates/accel/src/lib.rs         7 0
check_ratchet crates/models/src/trainer.rs    1 0
check_ratchet crates/models/src/zoo.rs        1 1
check_ratchet crates/nn/src/optim.rs          0 0

# Hot-path throughput bars (DESIGN.md §11). The hot-path byte gate (the
# tiny-layer launch reports at 1 and 4 engine threads plus counters +
# latency fingerprints, against digests frozen from the deleted
# pre-optimization path) runs in tests/frozen_oracles.rs with the root
# suites above. The full hot_path bench times each shipped kernel on the
# 550x550 layer in blocks per reference-loop second, checks every timed
# pass's fingerprint against its frozen digest, and asserts the bars over
# the pre-optimization rates frozen in BENCH_hotpath.json: software im2col
# DCNv1 >= 1.5x, fused tex2D DCNv1 >= 1.4x. Hardware-gated: on a starved
# single-CPU container the timed run is skipped (the byte gate still ran).
# DEFCON_BENCH_OUT keeps the committed BENCH_hotpath.json untouched in CI.
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
    echo "==> hot_path throughput bars over frozen pre-optimization rates (full layer, $cores cores)"
    hot_out="$(mktemp)"
    DEFCON_BENCH_OUT="$hot_out" \
        cargo bench --offline -p defcon-bench --bench hot_path
    rm -f "$hot_out"
else
    echo "==> hot_path throughput bars: skipped ($cores core(s) — starved container)"
fi

# Serving-report determinism: two serving-bench runs must agree byte for
# byte on everything except the trailing "timing" object (wall-clock is
# the only nondeterministic field by design — see DESIGN.md §9). The
# bench itself also asserts cold/warm/fresh digest equality internally.
echo "==> BENCH_serving.json report determinism (two runs, timing stripped)"
serve_a="$(mktemp)" serve_b="$(mktemp)"
DEFCON_TINY=1 DEFCON_BENCH_OUT="$serve_a" \
    cargo bench --offline -p defcon-bench --bench serving > /dev/null
DEFCON_TINY=1 DEFCON_BENCH_OUT="$serve_b" \
    cargo bench --offline -p defcon-bench --bench serving > /dev/null
sed 's/"timing":.*$//' "$serve_a" > "$serve_a.stripped"
sed 's/"timing":.*$//' "$serve_b" > "$serve_b.stripped"
cmp "$serve_a.stripped" "$serve_b.stripped" || {
    echo "serving determinism FAIL: report bytes differ between runs" >&2
    exit 1
}
rm -f "$serve_a" "$serve_b" "$serve_a.stripped" "$serve_b.stripped"

# Whole-network report determinism: the e2e bench simulates perfbench's
# three Table III cells and writes BENCH_e2e.json — cell totals as f64
# bits, their digest and the launch memo's hits/misses per network under
# "report", wall ms per network under the trailing "timing". Two runs
# must agree byte for byte once "timing" is stripped.
echo "==> BENCH_e2e.json report determinism (two runs, timing stripped)"
e2e_a="$(mktemp)" e2e_b="$(mktemp)"
DEFCON_BENCH_OUT="$e2e_a" cargo bench --offline -p defcon-bench --bench e2e > /dev/null
DEFCON_BENCH_OUT="$e2e_b" cargo bench --offline -p defcon-bench --bench e2e > /dev/null
sed 's/"timing":.*$//' "$e2e_a" > "$e2e_a.stripped"
sed 's/"timing":.*$//' "$e2e_b" > "$e2e_b.stripped"
cmp "$e2e_a.stripped" "$e2e_b.stripped" || {
    echo "e2e determinism FAIL: report bytes differ between runs" >&2
    exit 1
}
rm -f "$e2e_a" "$e2e_b" "$e2e_a.stripped" "$e2e_b.stripped"

# Chaos-summary golden, end to end on the release binary: the whole chaos
# session — outcomes, fault log, breaker walk, digest — is a pure function
# of the seed (DESIGN.md §12), so the default seed's DEFCON_FAST summary
# must equal its golden at one thread and at four. The binary also
# asserts the session invariants internally before printing anything.
chaos_golden="crates/bench/tests/golden/chaos_summary.json"
chaos_out="$(mktemp)"
for threads in 1 4; do
    echo "==> repro_chaos summary golden (release, DEFCON_THREADS=$threads)"
    DEFCON_THREADS="$threads" DEFCON_FAST=1 DEFCON_BENCH_OUT="$chaos_out" \
        ./target/release/repro_chaos > /dev/null
    cmp "$chaos_out" "$chaos_golden" || {
        echo "chaos golden FAIL: summary at DEFCON_THREADS=$threads differs from $chaos_golden" >&2
        exit 1
    }
done
rm -f "$chaos_out"

# Family-ablation golden (Table V analogue, DESIGN.md §10): the bench
# byte-compares its report against the blessed golden internally; here two
# back-to-back runs at one thread must also agree byte for byte (the report
# is digest/counter/latency-model only — no wall-clock), and so must a run
# at four threads.
echo "==> ablation Table V golden (byte determinism at 1 thread and at 4)"
abl_a="$(mktemp)" abl_b="$(mktemp)" abl_4="$(mktemp)"
DEFCON_TINY=1 DEFCON_THREADS=1 DEFCON_BENCH_OUT="$abl_a" \
    cargo bench --offline -p defcon-bench --bench ablations > /dev/null
DEFCON_TINY=1 DEFCON_THREADS=1 DEFCON_BENCH_OUT="$abl_b" \
    cargo bench --offline -p defcon-bench --bench ablations > /dev/null
cmp "$abl_a" "$abl_b" || {
    echo "ablation determinism FAIL: Table V report differs between runs" >&2
    exit 1
}
DEFCON_TINY=1 DEFCON_THREADS=4 DEFCON_BENCH_OUT="$abl_4" \
    cargo bench --offline -p defcon-bench --bench ablations > /dev/null
cmp "$abl_a" "$abl_4" || {
    echo "ablation determinism FAIL: Table V report differs at DEFCON_THREADS=4" >&2
    exit 1
}
rm -f "$abl_a" "$abl_b" "$abl_4"

# Backends-table determinism, end to end on the release binary: the
# cross-backend sweep (gpusim trace replay + accel integer cycle model)
# is a pure function of the code, so two back-to-back release runs must
# write byte-identical report JSON (DESIGN.md §13).
echo "==> repro_backends report byte-determinism (two release runs)"
back_a="$(mktemp)" back_b="$(mktemp)"
DEFCON_TINY=1 DEFCON_THREADS=1 DEFCON_BENCH_OUT="$back_a" \
    ./target/release/repro_backends > /dev/null
DEFCON_TINY=1 DEFCON_THREADS=1 DEFCON_BENCH_OUT="$back_b" \
    ./target/release/repro_backends > /dev/null
cmp "$back_a" "$back_b" || {
    echo "backends determinism FAIL: report JSON differs between runs" >&2
    exit 1
}
rm -f "$back_a" "$back_b"

echo "CI OK"
