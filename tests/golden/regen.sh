#!/bin/sh
# Rewrite the golden outputs in tests/golden/ through the drowsy_sweep CLI.
#
#   tests/golden/regen.sh <build-dir>
#
# Run it after a change that is meant to move simulation output, then
# review and commit the resulting diff; tests_golden byte-compares the
# library path against these files.  The file list here and the one in
# test_golden.cpp must stay in step.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
sweep_bin=$(cd "$1" && pwd)/drowsy_sweep
root=$(cd "$(dirname "$0")/../.." && pwd)
golden=$root/tests/golden
# Replay scenarios name their traces relative to the repository root.
cd "$root"

for sweep in sweeps/ci_smoke.json sweeps/netsim_storm.json \
             sweeps/replay_smoke.json sweeps/paper_catalogue.json \
             tests/golden/registry_grid.json; do
  name=$(basename "$sweep" .json)
  "$sweep_bin" run "$sweep" --csv "$golden/${name}_stats.csv" \
    --runs-csv "$golden/${name}_runs.csv" \
    --verdicts-csv "$golden/${name}_verdicts.csv" > /dev/null
  echo "regenerated $name"
done

for study in fig3-grace-ablation table1-suspend-fraction; do
  "$sweep_bin" study run "$study" --out "$golden/$study.csv" > /dev/null
  echo "regenerated $study"
done
