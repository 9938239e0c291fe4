#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# Single source of truth for the clippy invocation. The hard lint wall
# (clippy::float_cmp, clippy::unwrap_used, forbid(unsafe_code)) lives in
# [workspace.lints] in Cargo.toml; this only adds the blanket -D warnings.
CLIPPY_FLAGS="-D warnings"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- ${CLIPPY_FLAGS}

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "== vod-lint (workspace invariant checker, see DESIGN.md §9/§14) =="
# The binary prints the per-rule summary table and exits non-zero on any
# unsuppressed finding. Its report carries no clock reading, so the
# committed file (schema v4, six rules, zero findings) regenerates byte
# for byte like every other gated result.
cargo run -p vod-lint --release -- --workspace --json "$scratch/LINT_REPORT.json"
cmp "$scratch/LINT_REPORT.json" results/LINT_REPORT.json
# Dogfood: the linter's own sources pass the same gate standalone.
cargo run -p vod-lint --release -- --root . crates/lint/src

echo "== cargo doc (deny rustdoc warnings, incl. broken intra-doc links) =="
# Every workspace member but the vendored offline stand-ins (vendor/):
# path dependencies inside the workspace directory are members too, and
# `proptest`'s docs do not pass the gate. A new first-party crate is
# covered without an edit here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude rand --exclude proptest --no-deps --quiet

echo "== tier-1: build + every test in the workspace =="
cargo build --release
# The tier-1 command as ROADMAP.md gives it. The root manifest's
# `default-members` makes it cover the whole workspace, not the root
# package alone: the proptests, the scan/backend equivalence
# suites, chaos_faults and the lint fixtures gate here (debug build; it
# is most of this script's wall time).
cargo test -q

echo "== benchmark/: the yardstick still compiles and its gate holds (all four workloads at --smoke size) =="
# benchmark/ is its own workspace, so nothing above builds it; a library
# API change would otherwise break it unnoticed. `--locked`: a workspace
# manifest edit that would rewrite the frozen benchmark/Cargo.lock fails
# here instead of changing it silently.
cargo test --release --locked --manifest-path benchmark/Cargo.toml

echo "== benchmark digests: every segment of the four workloads at --smoke size, seeds 42 and 2026, bit for bit =="
# `stats_digest` hashes everything a segment's run observed (see
# benchmark/README.md "Correctness gate"), so an unchanged line is a
# bitwise-unchanged run. results/SMOKE_DIGESTS.txt was taken from the
# parent of PR 14; a PR that changes behaviour on purpose regenerates it
# with this loop and says so.
for seed in 42 2026; do
  for workload in plan-catalog serve-vcr serve-storm federation; do
    out="$scratch/smoke-$workload-$seed.json"
    cargo run --release --quiet --locked --manifest-path benchmark/Cargo.toml -- \
      run --smoke --seed "$seed" --workload "$workload" --trace 0 --out "$out" >/dev/null
    awk -v run="$seed $workload" '
      /^        "[a-z]+": \{$/ { segment = $1; gsub(/[":]/, "", segment) }
      /"digest": /           { digest = $2; gsub(/[",]/, "", digest); print run, segment, digest }
    ' "$out"
  done
done >"$scratch/SMOKE_DIGESTS.txt"
cmp "$scratch/SMOKE_DIGESTS.txt" results/SMOKE_DIGESTS.txt

# Every report bin below writes to $scratch (`--out`) and must regenerate
# its committed results/ file byte for byte. Each bin exits non-zero on a
# violation of its own, and the `cmp` pins everything else the file says
# (schema, cell count, `"ok": true`, zero violations per cell).

echo "== paper figures, worked examples, reserve and catalog checks, ablations: eight text results =="
for bin in fig7 fig8 fig9 example1 example2 reserve_check catalog_sim ablations; do
  cargo run --release --quiet -p vod-bench --bin "$bin" -- --out "$scratch/$bin.txt" >/dev/null
  cmp "$scratch/$bin.txt" "results/$bin.txt"
done

echo "== the same five sweeps fanned across two threads (--threads, their one other flag): byte for byte =="
for bin in fig7 fig8 fig9 catalog_sim ablations; do
  cargo run --release --quiet -p vod-bench --bin "$bin" -- --threads 2 --out "$scratch/$bin-threads2.txt" >/dev/null
  cmp "$scratch/$bin-threads2.txt" "results/$bin.txt"
done

echo "== vodplan: the capacity plan of the catalog in src/bin/vodplan.rs's docs =="
cargo run --release --quiet --bin vodplan -- \
  --movie "thriller;l=120;w=0.5;p=0.6;dist=gamma:shape=2,scale=4" \
  --movie "classic;l=90;w=1;p=0.5;dist=exp:mean=5" \
  --streams 300 --phi 11 --vcr-rate 2 --denial 0.01 >"$scratch/vodplan.txt"
cmp "$scratch/vodplan.txt" results/vodplan.txt

echo "== cross-validation: model vs sim vs server =="
cargo run --release -p vod-bench --bin cross_validate -- --out "$scratch/CROSS_VALIDATION.json"
cmp "$scratch/CROSS_VALIDATION.json" results/CROSS_VALIDATION.json

echo "== chaos: 3-backend fault matrix (determinism + conservation, see DESIGN.md §10/§13) =="
cargo run --release -p vod-bench --bin chaos -- --out "$scratch/CHAOS_REPORT.json"
cmp "$scratch/CHAOS_REPORT.json" results/CHAOS_REPORT.json

echo "== federation: sharded-catalog chaos matrix (whole-shard outage failover, see DESIGN.md §15) =="
cargo run --release -p vod-bench --bin federation -- --out "$scratch/FEDERATION_REPORT.json"
cmp "$scratch/FEDERATION_REPORT.json" results/FEDERATION_REPORT.json

echo "== backend_compare: all three DeliveryBackends over the full catalog × load grid (see DESIGN.md §12) =="
cargo run --release -p vod-bench --bin backend_compare -- --out "$scratch/BENCH_backend_compare.json"
cmp "$scratch/BENCH_backend_compare.json" results/BENCH_backend_compare.json

echo "== scale: wheel+arena engine smoke (downscaled; the headline results/BENCH_scale.json is --sessions 1000000 --ticks 40) =="
cargo run --release -p vod-bench --bin scale -- --sessions 50000 --ticks 120 --out "$scratch/BENCH_scale.json"
echo "== scale --plan storm: all three backends under the pool-scaled fault plan, audit after every tick, five movie lengths so most sessions finish (the headline results/BENCH_scale_storm.json is --sessions 100000 --ticks 600) =="
# The bin asserts, per backend, zero violations, zero verify failures,
# at least one lease revoked by the plan (`leases_revoked > 0`: the
# revocation path ran) and that finished sessions gave their slots back
# (`resident_slots ≤ 2 × concurrent_at_end + 64`: bounded by the sessions
# still live, not by the 20 000 that passed through).
cargo run --release -p vod-bench --bin scale -- --plan storm --sessions 20000 --ticks 600 --out "$scratch/BENCH_scale_storm.json"

echo "CI OK"
