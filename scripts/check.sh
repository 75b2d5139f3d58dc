#!/usr/bin/env bash
# Repo health gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# Refuse to run at all with CRAT_BLESS set: the golden tier below
# would silently re-bless its snapshots instead of gating them, and
# an exported blessing variable almost always means a different
# terminal than the developer thinks. Blessing must be explicit:
#   CRAT_BLESS=1 cargo test --test golden_suite
if [ -n "${CRAT_BLESS:-}" ]; then
  echo "error: CRAT_BLESS is set; the golden tier would re-bless instead of gate." >&2
  echo "       Unset it (unset CRAT_BLESS) and re-run scripts/check.sh." >&2
  exit 1
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
# Also enforces the robustness gate: crat-core and crat-cli carry
# crate-level `deny(clippy::unwrap_used, clippy::expect_used)` on
# non-test code (DESIGN.md §7), so a stray unwrap fails this step.
cargo clippy --workspace --all-targets -- -D warnings

# One run of every package's unit and integration tests, not only the
# root package's. Each target runs once, here; the tiers it holds:
# - Member-crate tiers: crat-sim's decoded-vs-reference equivalence
#   tier, the crat-sim/crat-core unit tests, and the allocator
#   property suites.
# - Fault-injection tier (crat-core `fault_injection`, crat-ptx
#   `parser_fuzz`): 200+ deterministic seeded scenarios (mutated PTX,
#   adversarial launches, starved allocator budgets, injected worker
#   panics, expired budgets); a panic or hang anywhere in the pipeline
#   fails here.
# - Bank-model tier (`bank_differential`, crat-regalloc
#   `knapsack_props`): the shared-memory bank-conflict model must be
#   invisible when disabled (bit-identical to the reference interpreter
#   across the whole suite) and conservative when enabled (matches the
#   reference across schedulers and spill layouts, attribution sums to
#   cycles, serialization only adds cycles); the knapsack property
#   suite checks the layout-aware §5.3 solver against a brute-force
#   oracle.
# - Persistent-store tier (crat-core `store_faults` and
#   `store_codec_props`, `store_warm_restart`, `store_cross_process`):
#   seeded torn writes, truncations, bit flips, stale versions and
#   injected ENOSPC (every damaged record quarantined and recomputed
#   bit-identically), the record-codec properties, the 24-app
#   warm-restart differential, and the real-subprocess cache-sharing
#   test.
# - Golden-baseline gate (`golden_suite`): a snapshot run is only a
#   gate when nothing can rewrite the snapshots, which the CRAT_BLESS
#   refusal at the top of this script guarantees. Regenerate
#   intentional drift with
#     CRAT_BLESS=1 cargo test --test golden_suite
#   and commit the updated tests/golden/*.json.
# The build comes first so that the bound covers the run alone:
# `timeout` turns a wedged test (e.g. a store lock-retry loop gone
# wrong) into a loud failure. The run takes ~2 min with warm builds on
# a 2-core box; the bound is 5x that.
echo "== cargo test -q --workspace"
cargo test -q --workspace --no-run
timeout 600 cargo test -q --workspace

# The bank-layout probe exercises the end-to-end pipeline on the
# bank-study apps under every layout policy.
echo "== bank-layout probe"
cargo run -q --release --example bank_layout_probe > /dev/null

# Benchmark tier: `benchmark/` is a Cargo workspace of its own, so
# `cargo test --workspace` above skips its unit tests, and nothing else
# runs its output checks. Two of those checks guard the engine's keys:
# on `store-warm` every simulation must be a store hit and
# `store_hits` must equal the records the fill wrote, and the trace's
# store-backed replay must simulate nothing. `--seconds 0` runs the
# minimum (100 calls). Each run's last line is its result object.
echo "== benchmark tier (unit tests + checked short runs)"
cargo test -q --manifest-path benchmark/Cargo.toml
bench=(cargo run --release --offline -q --manifest-path benchmark/Cargo.toml --)
for args in "run optimize-static --seconds 0" "run store-warm --seconds 0" "trace store-warm"; do
  # shellcheck disable=SC2086 # word-split the subcommand on purpose
  last=$("${bench[@]}" $args | tail -n 1)
  if ! echo "$last" | grep -Eq '"correct": ?true'; then
    echo "benchmark $args did not report correct: true"
    echo "$last"
    exit 1
  fi
  echo "benchmark $args: correct"
done

# Slow tier (full-size grids; minutes in debug): cargo test -q -- --ignored

echo "== cargo bench --no-run"
cargo bench --workspace --no-run

# Throughput tier: the decoded path must stay well ahead of the
# reference interpreter (crat_sim::reference) on the probe mix. Both
# are timed in this run, rep by rep on the same app, so the ratio
# holds on any machine: measured 4.3-4.6x on a 2-core box, 4.56x on
# the original one (see the EXPERIMENTS.md throughput history). The
# 3.0x bound leaves headroom for noise; a fall back to scalar-era
# rates (2.18x) fails loudly.
# `--micro` also prints the scheduler-overhead microkernel numbers
# (empty-ALU issue cost, stall-heavy fast-forward) for the log.
echo "== sim-throughput smoke test (decoded/reference speedup)"
cargo run -q --release --example sim_throughput_probe -- --micro --min-speedup 3.0

# Alloc-sweep smoke tier: the shared-context allocator must beat the
# cold per-point path over the full suite (recorded numbers live in
# BENCH_alloc_sweep.json; the bench asserts both paths allocate the
# same design points).
echo "== alloc sweep smoke test"
cargo bench -p crat-bench --bench alloc_sweep

# Strategy-roster smoke tier: one app optimized end to end under every
# pinnable allocator strategy plus the default roster; each run must
# succeed and report a chosen design point. Then the roster-vs-pinned
# bench (recorded numbers live in BENCH_alloc_strategies.json).
echo "== strategy roster smoke test"
for strat in roster briggs sched-briggs ssa; do
  out=$(cargo run -q --release -p crat-cli -- app BAK --grid 30 --alloc-strategy "$strat")
  echo "$out" | grep -q "CRAT" || { echo "strategy $strat produced no CRAT line"; exit 1; }
done
cargo bench -p crat-bench --bench alloc_strategies

echo "All checks passed."
