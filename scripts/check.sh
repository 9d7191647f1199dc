#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change ships.
#
#   scripts/check.sh
#
# Runs formatting, the clippy lint wall, the full offline test suite, the
# static plan linter over its sample plans (including the mutated ones,
# which must make it exit non-zero), and the dataset round trip: an
# exported on-disk batch must re-lint byte-identically to the in-memory
# analysis, at any worker count.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo build --release"
cargo build --release -q

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> p4update-lint over sample plans (must be error-free)"
cargo run -q --example p4update_lint

echo "==> p4update-lint over mutated plans (must flag errors)"
if cargo run -q --example p4update_lint -- --mutate; then
    echo "error: the lint binary accepted corrupted plans" >&2
    exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "==> dataset round trip: export ft64 batch, re-lint from disk, diff"
cargo run -q --release --example p4update_lint -- \
    --export-dataset "$tmpdir/dataset" --scale ft64 > "$tmpdir/lint-mem.txt"
cargo run -q --release --example p4update_lint -- \
    --dataset "$tmpdir/dataset" --jobs 1 > "$tmpdir/lint-disk.txt"
diff "$tmpdir/lint-mem.txt" "$tmpdir/lint-disk.txt"

echo "==> parallel lint output is byte-identical to serial (--jobs 4)"
cargo run -q --release --example p4update_lint -- \
    --dataset "$tmpdir/dataset" --jobs 4 > "$tmpdir/lint-par.txt"
cmp "$tmpdir/lint-disk.txt" "$tmpdir/lint-par.txt"

echo "==> trace corpus replays byte-exactly (release profile)"
cargo test -q --release --test corpus_replay

# The benchmark's own ft4096 workload is pinned bit-exactly as well; its
# generation takes seconds in release, so it is an ignored test run here.
if [[ "${FAST:-0}" != 1 ]]; then
    echo "==> workload fingerprints, ft4096 included (release profile)"
    cargo test -q --release -p p4update-traffic --test workload_fingerprint -- --include-ignored
else
    echo "==> ft4096 workload fingerprint skipped (FAST=1)"
fi

echo "==> heap and calendar queue backends agree on the full corpus"
cargo test -q --release --test queue_equivalence

echo "==> exploration smoke run (small budget; P4Update must stay clean)"
cargo run -q --release --example explore -- fig2-ez fig2-p4 --runs 64 --walks 32

# The byzantine corpus-replay coverage rides the corpus_replay step above
# (the v2 traces live in tests/corpus/ with the rest). The smoke below
# re-derives the headline split live: forged acks must break ez-Segway
# and P4Update must survive every vector, or the explorer exits non-zero.
if [[ "${FAST:-0}" != 1 ]]; then
    echo "==> byzantine smoke (ez-Segway breaks, P4Update survives)"
    cargo run -q --release --example explore -- --byzantine --walks 64
else
    echo "==> byzantine smoke skipped (FAST=1)"
fi

echo "==> perf smoke run (small scales; validates the emitted schema)"
cargo run -q --release --example perf -- --smoke

echo "==> perf run-sharding is deterministic (1-thread vs 4-thread smoke)"
cargo run -q --release --example perf -- --smoke --threads 1 --strip-timing --out "$tmpdir/t1.json"
cargo run -q --release --example perf -- --smoke --threads 4 --strip-timing --out "$tmpdir/t4.json"
cmp "$tmpdir/t1.json" "$tmpdir/t4.json"

# The repository benchmark (p4bench/) is a package of its own that nothing
# above builds; a one-second run of each workload proves it still compiles
# against the facade and that every one of its output checks passes (the
# analysis gate reports no error, and every pass repeats the first pass's
# event counts).
if [[ "${FAST:-0}" != 1 ]]; then
    echo "==> p4bench builds"
    cargo build --release --offline -q --manifest-path p4bench/Cargo.toml
    for workload in p4update-ft4096 central-ft4096; do
        echo "==> p4bench $workload output checks pass (1 s run)"
        cargo run --release --offline -q --manifest-path p4bench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
    done
else
    echo "==> p4bench smoke skipped (FAST=1)"
fi

echo "==> committed BENCH_p4update.json validates against the schema (v5)"
cargo run -q --release --example perf -- --check BENCH_p4update.json

echo "==> schema validation rejects superseded artifacts (v1, v2, v3, v4)"
for old in v1 v2 v3 v4; do
    sed "s/p4update-bench-v5/p4update-bench-$old/" BENCH_p4update.json > "$tmpdir/$old.json"
    if cargo run -q --release --example perf -- --check "$tmpdir/$old.json" 2>/dev/null; then
        echo "error: the validator accepted an obsolete $old artifact" >&2
        exit 1
    fi
done

# The 32768-switch scale runs on the sequential engine like every other one
# (all-pairs path tables would need ~16 GiB; the on-demand tables fill no
# row). The probe exits non-zero unless the queue drains and all 32 flows
# complete with none stranded. Skippable for quick local iteration with
# FAST=1 — CI runs it.
if [[ "${FAST:-0}" != 1 ]]; then
    echo "==> ft32768 scale smoke (32 flows, sequential engine)"
    cargo run -q --release --example perf -- --ft32768-smoke 32 > /dev/null
else
    echo "==> ft32768 scale smoke skipped (FAST=1)"
fi

# A full baseline regeneration (`cargo run --release --example perf`) is
# opt-in: absolute throughput numbers are machine-dependent, so CI only
# checks that the committed artifact is well-formed.

echo "All checks passed."
