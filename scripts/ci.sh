#!/usr/bin/env bash
# Hermetic CI gate for the rkd workspace.
#
# The build is fully offline by policy: every dependency is a workspace
# member and the dependency closure must stay that way (see README.md
# "Hermetic build"). Each step below passes --offline so any accidental
# registry dependency fails fast instead of silently resolving on a
# networked machine.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "==> rkdbench quick self-test (benchmark builds against the current API, oracles pass)"
cargo test --release --offline --manifest-path rkdbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> bench_obs smoke (observability overhead gate + BENCH_obs.json)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    RKD_BENCH_OBS_JSON="$PWD/BENCH_obs.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_obs | tee /tmp/rkd_bench_obs.out
if ! grep -q 'paired_default_vs_off.*PASS' /tmp/rkd_bench_obs.out; then
    echo "ERROR: observability overhead gate failed (default config > 5% on fire())" >&2
    exit 1
fi
if ! grep -q 'span_gate armed_vs_off.*PASS' /tmp/rkd_bench_obs.out; then
    echo "ERROR: span overhead gate failed (armed-but-unsampled spans > 1% on the 8-table pipeline)" >&2
    exit 1
fi
test -s BENCH_obs.json || { echo "ERROR: BENCH_obs.json was not written" >&2; exit 1; }
grep -q '"span_overhead"' BENCH_obs.json \
    || { echo "ERROR: BENCH_obs.json missing the span_overhead section" >&2; exit 1; }

echo "==> bench_tables smoke (indexed lookup scaling gates + BENCH_tables.json)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    RKD_BENCH_TABLES_JSON="$PWD/BENCH_tables.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_tables | tee /tmp/rkd_bench_tables.out
if ! grep -q 'speedup_gate lpm_4096.*PASS' /tmp/rkd_bench_tables.out; then
    echo "ERROR: LPM indexed lookup gate failed (< 5x over linear scan at 4096 entries)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate ternary_4096.*PASS' /tmp/rkd_bench_tables.out; then
    echo "ERROR: Ternary indexed lookup gate failed (< 5x over linear scan at 4096 entries)" >&2
    exit 1
fi
test -s BENCH_tables.json || { echo "ERROR: BENCH_tables.json was not written" >&2; exit 1; }

echo "==> bench_vm smoke (optimizer O0-vs-opt gate + BENCH_opt.json)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    RKD_BENCH_OPT_JSON="$PWD/BENCH_opt.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_vm | tee /tmp/rkd_bench_vm.out
if ! grep -q 'speedup_gate opt_const_pipeline.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: optimizer gate failed (< 1.2x median over O0 on the constant-heavy pipeline)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate chain_fuse_pipeline.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: chain-fusion gate failed (< 2x over O0 on the 8-table resolvable chain)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate chain_fuse_churn.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: adversarial churn floor failed (fusability-toggling churn cost exceeded the 0.1x bound)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate chain_fuse_reval.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: revalidation churn floor failed (same-dispatch entry churn pushed fused below O0)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate loop_fold.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: loop-aware folding gate failed (< 1.2x over O0 on the invariant-heavy loop)" >&2
    exit 1
fi
test -s BENCH_opt.json || { echo "ERROR: BENCH_opt.json was not written" >&2; exit 1; }
for section in '"chain_fuse_pipeline"' '"chain_fuse_churn"' '"chain_fuse_reval"' '"loop_fold"'; do
    grep -q "$section" BENCH_opt.json \
        || { echo "ERROR: BENCH_opt.json missing the $section section" >&2; exit 1; }
done

echo "==> bench_parallel smoke (sharded scaling gate + BENCH_parallel.json)"
RKD_BENCH_PARALLEL_JSON="$PWD/BENCH_parallel.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_parallel | tee /tmp/rkd_bench_parallel.out
# The 4-shard speedup gate is adaptive: enforced on hosts with >= 4
# CPUs, reported as SKIP(cpus=N) on smaller ones. Both are fine; a
# bare FAIL is not.
if ! grep -qE 'speedup_gate parallel_4x.*(PASS|SKIP)' /tmp/rkd_bench_parallel.out; then
    echo "ERROR: sharded scaling gate failed (< 2.5x at 4 shards on a >= 4 CPU host)" >&2
    exit 1
fi
# Skew smoke: the zipf balanced-vs-fixed gate is adaptive the same way
# (enforced with >= 4 CPUs, SKIP below), and the SPSC ingress handoff
# comparison must have run (its speedup line is informational).
if ! grep -qE 'skew_gate balanced_vs_fixed.*(PASS|SKIP)' /tmp/rkd_bench_parallel.out; then
    echo "ERROR: zipf skew gate failed (balanced replay regressed vs fixed partition)" >&2
    exit 1
fi
grep -q 'ingress_speedup' /tmp/rkd_bench_parallel.out \
    || { echo "ERROR: SPSC ingress handoff benchmark did not run" >&2; exit 1; }
test -s BENCH_parallel.json || { echo "ERROR: BENCH_parallel.json was not written" >&2; exit 1; }
for section in '"ingress"' '"skew"' '"stages"'; do
    grep -q "$section" BENCH_parallel.json \
        || { echo "ERROR: BENCH_parallel.json missing the $section section" >&2; exit 1; }
done

echo "==> example: lean_monitoring (end-to-end datapath observability)"
cargo run -q --release --offline --example lean_monitoring >/dev/null

echo "==> recovery smoke: kill-and-replay differential + journal edge cases"
cargo test -q --release --offline --test recovery \
    || { echo "ERROR: crash-recovery suite failed (snapshot/journal drifted from the live machine)" >&2; exit 1; }

echo "==> persistent-server smoke: one loop, 100+ sequential scrapes, clean stop"
cargo test -q --release --offline --test obs_export persistent_server \
    || { echo "ERROR: persistent metrics server loopback test failed" >&2; exit 1; }

echo "==> exporter smoke: loopback scrape serves the expected metric families"
cargo run -q --release --offline --example metrics_scrape | tee /tmp/rkd_metrics_scrape.out >/dev/null
for family in rkd_machine_events_total rkd_hook_fires_total rkd_hook_latency_ns_bucket \
    rkd_model_predictions_total rkd_model_outcomes_total rkd_model_window_accuracy_permille \
    rkd_model_drift_suspected; do
    if ! grep -q "^$family" /tmp/rkd_metrics_scrape.out; then
        echo "ERROR: metric family $family missing from the /metrics scrape" >&2
        exit 1
    fi
done
grep -q '^scrape ok$' /tmp/rkd_metrics_scrape.out \
    || { echo "ERROR: metrics_scrape example did not complete" >&2; exit 1; }

echo "==> example: online_drift (closed-loop drift detection via model telemetry)"
cargo run -q --release --offline --example online_drift >/dev/null

echo "==> trace smoke: span tracing end to end, Chrome trace dumped and non-empty"
RKD_TRACE_OUT=/tmp/rkd_trace_flight.json \
    cargo run -q --release --offline --example trace_flight | tee /tmp/rkd_trace_flight.out >/dev/null
grep -q '^trace ok$' /tmp/rkd_trace_flight.out \
    || { echo "ERROR: trace_flight example did not complete" >&2; exit 1; }
test -s /tmp/rkd_trace_flight.json \
    || { echo "ERROR: trace_flight wrote no Chrome trace JSON" >&2; exit 1; }

echo "==> dependency closure must be workspace-only"
external=$(cargo tree --offline --workspace --edges normal,build,dev \
    | grep -oE '[a-z0-9_-]+ v[0-9][0-9.]*' | sort -u | grep -v '^rkd' || true)
if [ -n "$external" ]; then
    echo "ERROR: external crates crept into the dependency tree:" >&2
    echo "$external" >&2
    exit 1
fi

echo "CI OK"
