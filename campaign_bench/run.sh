#!/usr/bin/env bash
# Builds the campaign daemon and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash campaign_bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), and so do
# the run's temporary state dirs and the traced run's span files.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p ideaflow-serve --bin ideaflow_serve >&2
cargo build --release --offline --quiet --manifest-path campaign_bench/Cargo.toml >&2
# A build leaves hundreds of MB of dirty pages; writing them back during
# the measured phase would slow the daemon's queue and journal flushes.
sync
exec "$target/release/campaign_bench" \
    --serve-bin "$target/release/ideaflow_serve" \
    --work-dir "$target/campaign_bench" "$@"
