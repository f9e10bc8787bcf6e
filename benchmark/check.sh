#!/usr/bin/env bash
# Lint and test the benchmark package itself (not the repository: its
# gate is scripts/verify.sh). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
