#!/usr/bin/env bash
# Runs every example program, then the CLI sequence from the header of
# examples/unimatch_cli.cpp (synth -> stats -> train --ckpt ->
# recommend --ckpt -> target --ckpt -> eval), in a fresh temp directory
# that is removed afterwards. Exits non-zero on the first failing command.
#
# Usage: tools/run_examples.sh [BUILD_DIR]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(cd "${1:-build}/examples" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

for example in quickstart ann_serving loss_playground merchant_campaign; do
  printf '\n== example_%s\n' "$example"
  "$bin/example_$example"
done

cli="$bin/example_unimatch_cli"
printf '\n== example_unimatch_cli\n'
"$cli" synth --preset e_comp --out log.csv
"$cli" stats --data log.csv
"$cli" train --data log.csv --ckpt m.ckpt
"$cli" recommend --data log.csv --ckpt m.ckpt --user u17
"$cli" target --data log.csv --ckpt m.ckpt --item i5
"$cli" eval --data log.csv --loss infonce

printf '\nexamples: every command exited 0\n'
