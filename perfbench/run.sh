#!/usr/bin/env bash
# Builds the gdx CLI and the benchmark from source, then runs one
# benchmark pass:
#
#   bash perfbench/run.sh --workload paper_cli --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr, so the last line
# of stdout is the result object. The benchmark runs as a child of this
# shell, not through exec, so its children's resource usage starts from
# zero instead of including the compilers.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path Cargo.toml -p gdx-cli --bin gdx 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
"$target/release/perfbench" --gdx "$target/release/gdx" "$@"
