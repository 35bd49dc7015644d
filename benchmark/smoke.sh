#!/bin/sh
# Builds the benchmark package and runs every workload once at 1/50
# size, untraced and traced, in well under 30 s. `run --smoke` fails on
# a failed op, on a result line that does not parse, and on a metric
# name missing from one.
#
# Run from anywhere:  benchmark/smoke.sh
set -eu
cd "$(dirname "$0")"

cargo build --release --offline
cargo run --release --offline --quiet -- run --smoke --trace 1 --seed 1 --out out/smoke.json
echo "smoke: OK"
