#!/bin/bash
# Regenerate every table and figure at full paper scale.
#
#   ./run_experiments.sh          rewrite results/ in place
#   ./run_experiments.sh --check  rerun the suite in a temp dir and diff it
#                                 against the committed results/: every CSV
#                                 byte for byte, every .txt with its `wrote`
#                                 lines removed. Prints each difference and
#                                 exits 1 if there is any.
set -e
cd "$(dirname "$0")"
export HPL_SCALE=1 N_RUNS=${N_RUNS:-3} OPI_SCALE=1
BINS=(table1 table2 table3 table4 fig1 fig2 fig3 fig4 hybrid_test overhead ablation)

if [[ "${1:-}" != "--check" ]]; then
  for bin in "${BINS[@]}"; do
    echo "--- $bin ---"
    ./target/release/$bin | tee results/${bin}.txt
  done
  exit 0
fi

# The bins write `results/...` relative to the working directory, so the
# rerun happens inside a temporary directory of its own.
cargo build --offline --release --quiet -p bench-harness --bins
repo=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/results"
start=$(date +%s)
for bin in "${BINS[@]}"; do
  echo "--- $bin ---"
  (cd "$tmp" && "$repo/target/release/$bin" > "results/${bin}.txt")
done
echo "suite took $(( $(date +%s) - start )) s"

diffs=0
names=$( (cd results && ls -- *.csv *.txt; cd "$tmp/results" && ls -- *.csv *.txt) 2>/dev/null | sort -u)
for name in $names; do
  ours="$tmp/results/$name" committed="results/$name"
  if [[ ! -f "$ours" || ! -f "$committed" ]]; then
    echo "DIFF $name: only in $([[ -f "$ours" ]] && echo the rerun || echo results/)"
    diffs=$((diffs + 1))
    continue
  fi
  if [[ "$name" == *.csv ]]; then
    out=$(diff "$committed" "$ours") || true
  else
    out=$(diff <(grep -v '^wrote ' "$committed") <(grep -v '^wrote ' "$ours")) || true
  fi
  if [[ -n "$out" ]]; then
    echo "DIFF $name:"
    echo "$out"
    diffs=$((diffs + 1))
  fi
done
if (( diffs > 0 )); then
  echo "check: $diffs file(s) differ from results/"
  exit 1
fi
echo "check: every CSV and table matches results/"
