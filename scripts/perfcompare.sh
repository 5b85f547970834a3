#!/usr/bin/env bash
# Compares the benchmark declared in BENCHMARK.json (perfbench) between a
# base commit and the working tree by paired runs, from anywhere in the
# checkout:
#
#   scripts/perfcompare.sh <base-ref> [pairs]
#
# Both sides run from fresh temporary copies made the same way, so
# neither runs from the checkout itself: the base from its commit's
# files, the head from the working tree's tracked and untracked,
# non-ignored files. Each copy builds into its own .bench_build. For
# every workload, pairs (default 3) base/head pairs run interleaved,
# each side from its own copy with
#
#   bash perfbench/run.sh --workload W --seed S --seconds <run_seconds> --trace 0
#
# where S is the pair index and the side that goes first alternates from
# pair to pair. The workloads, run_seconds and each end-to-end metric's
# bound come from BENCHMARK.json. For every workload and metric the
# script prints the base and head medians, the base's interquartile
# range, the pairs the head won, and the pairs it lost by more than the
# bound. It exits non-zero when, for any workload and metric, the head is
# worse than the base by more than the bound in a strict majority of
# pairs; when any run fails or reports correct: false; or when the head
# has more failed operations on a workload than the base.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/perfcompare.sh <base-ref> [pairs]" >&2
  exit 2
fi
pairs=${2:-3}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
  echo "perfcompare: pairs must be a positive integer, got '$pairs'" >&2
  exit 2
fi

cd "$(git rev-parse --show-toplevel)"
base_rev=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
base="$tmp/base"
head="$tmp/head"
mkdir "$base" "$head"
git archive "$base_rev" | tar -x -C "$base"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
  done | tar -c --null -T - | tar -x -C "$head"

bench=$head/BENCHMARK.json
seconds=$(jq -r '.run_seconds' "$bench")
mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")

echo "perfcompare: base $base_rev, head $(git rev-parse HEAD) (working tree), $pairs pairs, ${seconds}s runs"

# run SIDE DIR W SEED appends the run's result line to $tmp/W.SIDE.
run() {
  local side=$1 dir=$2 w=$3 seed=$4 log="$tmp/$3.$1.$4.log"
  if ! (cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace 0) > "$log" 2>&1; then
    echo "perfcompare: $side run of $w (seed $seed) failed:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
  if ! tail -n 1 "$log" | jq -e -c 'objects' >> "$tmp/$w.$side" 2>/dev/null; then
    echo "perfcompare: $side run of $w (seed $seed) printed no result line:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
}

status=0
for w in "${workloads[@]}"; do
  : > "$tmp/$w.base"
  : > "$tmp/$w.head"
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
      run base "$base" "$w" "$i"
      run head "$head" "$w" "$i"
    else
      run head "$head" "$w" "$i"
      run base "$base" "$w" "$i"
    fi
  done
  # One row per end-to-end metric, then a FAIL row per broken rule.
  jq -n -r --arg w "$w" \
    --slurpfile b "$tmp/$w.base" --slurpfile h "$tmp/$w.head" \
    --slurpfile spec "$bench" '
    def q(p): sort as $s | ($s | length) as $n | (p * ($n - 1)) as $x
      | ($x | floor) as $i
      | if $i + 1 < $n then $s[$i] + ($x - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
    ($b | length) as $n
    | ($spec[0].end_to_end[] as $m
      | [$b[].metrics[$m.name].value] as $bv
      | [$h[].metrics[$m.name].value] as $hv
      | [range($n) | select(if $m.better == "lower" then $hv[.] < $bv[.] else $hv[.] > $bv[.] end)] as $won
      | [range($n) | select(if $m.better == "lower" then $hv[.] > $bv[.] * (1 + $m.bound)
                           else $hv[.] < $bv[.] * (1 - $m.bound) end)] as $lost
      | [$w, $m.name, ($bv | q(0.5)), ($hv | q(0.5)), (($bv | q(0.75)) - ($bv | q(0.25))),
         "\($won | length)/\($n)", "\($lost | length)/\($n)",
         (if 2 * ($lost | length) > $n then "FAIL: worse by more than \($m.bound * 100 | round)% in most pairs" else "ok" end)]),
      (if ([$b[], $h[]] | any(.correct != true)) then [$w, "correct", "FAIL: a run reported correct: false"] else empty end),
      (([$b[].failed] | add) as $bf | ([$h[].failed] | add) as $hf
       | if $hf > $bf then [$w, "failed", "FAIL: head failed \($hf) operations, base \($bf)"] else empty end)
    | @tsv' > "$tmp/$w.rows"
  awk -F'\t' 'NF == 3 { printf "%-13s %-10s %s\n", $1, $2, $3; next }
    { printf "%-13s %-10s base %-10.4g head %-10.4g IQR %-10.3g won %-5s lost>bound %-5s %s\n",
        $1, $2, $3, $4, $5, $6, $7, $8 }' "$tmp/$w.rows"
  if grep -q 'FAIL' "$tmp/$w.rows"; then
    status=1
  fi
done

if ((status)); then
  echo "perfcompare: FAIL — head regresses against $base_rev (rows marked FAIL above)"
else
  echo "perfcompare: ok"
fi
exit "$status"
