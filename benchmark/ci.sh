#!/usr/bin/env bash
# CI entry point of the standalone benchmark crate: its unit tests, then a
# smoke run (1 s windows, every oracle on; fails if any operation fails or a
# metric declared in BENCHMARK.json is not measured by any workload).
# Run from anywhere; a later PR wires this one line into
# .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke > /dev/null
echo "benchmark smoke run: ok"
