#!/usr/bin/env bash
# Tier-1 verification: everything must pass fully offline (deps are
# vendored under vendor/, see the workspace Cargo.toml).
#
#   fmt        — first-party crates are rustfmt-clean
#   build      — workspace compiles, all targets
#   test       — every crate's suite plus the root integration tests
#   clippy     — first-party crates lint clean with -D warnings
#                (vendored drop-ins are excluded: their code is kept
#                 close to upstream and only has to compile)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every cargo command that resolves dependencies runs with --locked, so a
# manifest edit that would rewrite Cargo.lock or perfbench/Cargo.lock
# fails here instead of silently changing a lockfile. perfbench/ is the
# benchmark's own package, and its lockfile changes only with it.

FIRST_PARTY=(simcpu simos pfmlib papi workloads telemetry perftool jsonw metricsd simtrace hetero-papi)

# `tier1.sh --sched-smoke`: just the scheduler-tournament gate plus the
# tick hot-path floor — the fast loop while iterating on a scheduler.
if [[ "${1:-}" == "--sched-smoke" ]]; then
    echo "== sched smoke: tournament (quick, emits BENCH_sched.json) =="
    # Hard gates inside schedbench: bit-identical Serial replay
    # (drift == 0), capacity beats cfs on the Table II straggler
    # scenario, thermal beats cfs on the Table IV inversion scenario.
    cargo run --offline --locked --release -p bench-harness --bin schedbench -- --quick
    echo "== sched smoke: tick hot path floor =="
    cargo run --offline --locked --release -p bench-harness --bin tickbench -- --quick
    echo "tier1 --sched-smoke: OK"
    exit 0
fi

# `tier1.sh --query-smoke`: just the history/SLO/tracing gate — the
# fast loop while iterating on the observability stack.
if [[ "${1:-}" == "--query-smoke" ]]; then
    echo "== query smoke: history + SLO + causal tracing =="
    # Hard gates inside: QueryRange answers match the clients' local
    # accounting ±0, and an untraced control serves the same reads and
    # p99; the impossible p99 SLO breaches with an exemplar trace id
    # that resolves to recorded spans; the Perfetto export validates
    # with flow arrows; queries/s clears the floor.
    cargo run --offline --locked --release -p metricsd --bin loadgen -- \
        --query-smoke --floor-queries 20000
    echo "tier1 --query-smoke: OK"
    exit 0
fi

echo "== fmt (first-party, --check) =="
fmt_args=()
for c in "${FIRST_PARTY[@]}"; do fmt_args+=(-p "$c"); done
cargo fmt "${fmt_args[@]}" --check

echo "== build (offline, all targets) =="
cargo build --offline --locked --workspace --all-targets

echo "== test (offline, full workspace) =="
cargo test --offline --locked --workspace

echo "== perfbench helper tests (builds the benchmark) =="
# perfbench is a package of its own (outside the workspace) that the
# benchmark in BENCHMARK.json runs. Building and testing it here makes a
# change that breaks its build, or drifts its emitted metric names and
# units from BENCHMARK.json's (one of its helper tests checks that),
# fail tier 1 instead of the benchmark run.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== clippy (first-party, -D warnings) =="
args=()
for c in "${FIRST_PARTY[@]}"; do args+=(-p "$c"); done
cargo clippy --offline --locked "${args[@]}" --all-targets -- -D warnings

echo "== event validation (Röhl matrix, emits BENCH_validation.json) =="
# Hard gates inside: every analytic kernel × core type × hardware+software
# event lands in its closed-form bounds on the correct core type's PMU
# row, and software events stay exact (ReadQuality::Ok) under hotplug and
# NMI counter theft while hardware reads degrade. Set VALIDATION_QUICK=1
# for the quick subset: the instruction count shrinks but the full
# kernel × core-type × event matrix shape is kept.
VALIDATION_QUICK="${VALIDATION_QUICK:-}" cargo test --offline --locked --test event_validation

echo "== bench (compile only) =="
cargo bench --offline --locked --workspace --no-run

echo "== tick throughput and hot path floor (quick, emits BENCH_tick.json) =="
# Perf *baseline* per preset: ticks/sec of `tick()` (the median of 5
# timed windows, with the slowest and fastest) and the plan-cache hit
# rate per preset (with host_cpus) land in BENCH_tick.json for later
# changes to diff. Most of its ticks replay each CPU's last tick; the
# reference that executes every slice is the uncached oracle behind the
# kernel's `plan_cache_equals_uncached` proptest, run by the test step
# above.
# Hard gate inside: the `finishing_phases` row (raptor_lake_i7_13700,
# phases that finish every tick) must stay at or above the ticks/s the
# uncached path recorded before the plan cache, or the run exits
# nonzero and fails tier1. Its kernel boots from
# `KernelConfig::default()`, which traces nothing, so this doubles as
# the trace-overhead gate: the disabled flight recorder (one branch per
# record site) must stay within noise of the pre-simtrace floor.
cargo run --offline --locked --release -p bench-harness --bin tickbench -- --quick

echo "== metricsd load smoke (quick, emits BENCH_metricsd.json) =="
# Hard gates inside: the fleet's counter digest is bit-identical across
# its 3 reps AND equal to a serial single-client reference; the
# deliberately slow consumer must be evicted while zero healthy sessions
# are; the 100k session high-fanout phase must keep every sampled client
# mirror CRC-synced with zero evictions. Performance gate (best-of-3
# reps): per-core reads/s must clear a floor set at ~1/6 of the
# measured rate to absorb slow CI hosts. The query phase additionally
# gates the observability stack: QueryRange answers ±0 vs local
# accounting, an untraced control serving the same reads and p99, SLO
# breach exemplars resolving to recorded spans, a validated flow-linked
# Perfetto export, and a queries/s floor.
cargo run --offline --locked --release -p metricsd --bin loadgen -- --quick \
    --floor-per-core 200000 --floor-queries 20000

echo "== scheduler tournament (quick, emits BENCH_sched.json) =="
# Hard gates inside: bit-identical Serial replay (drift == 0); the
# capacity-aware scheduler must beat CfsLike on the Table II straggler
# scenario and the thermal-steering one must beat it on the Table IV
# inversion scenario — the paper pathologies stay reproduced AND fixed.
cargo run --offline --locked --release -p bench-harness --bin schedbench -- --quick

echo "== metricsd chaos smoke (quick, emits BENCH_chaos.json) =="
# Hard gates inside: with deterministic transport fault injection
# (resets, stalls, short writes, truncation, bit flips, delays) and
# deliberate server overload, a resilient-client fleet must end with
# counter digests bit-identical to the fault-free reference, zero lost
# or duplicated RPCs, zero lost sessions — and every ledger (injector,
# client, daemon self-metrics) must agree where the link is loss-free.
cargo run --offline --locked --release -p metricsd --bin chaosbench -- --quick

echo "== full-scale reproduction check (every paper table and figure) =="
# Hard gate: reruns the whole paper-experiment suite at full scale
# (HPL_SCALE=1, N_RUNS=3, OPI_SCALE=1) in a temp dir and diffs it
# against the committed results/: every CSV byte for byte, every table's
# text with its `wrote` lines removed. Any difference exits nonzero.
# About 3-4 min on 2 vCPUs.
./run_experiments.sh --check

echo "tier1: OK"
