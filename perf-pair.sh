#!/usr/bin/env bash
# Paired A/B of the benchmark: REV (the base) against HEAD, and a verdict on
# each end-to-end metric against its BENCHMARK.json bound.
#
# REV's tree is exported with `git archive` into perfbench/work/pair-<sha>
# (gitignored, kept for reuse, so its perfbench builds once). For each
# workload (all of BENCHMARK.json's unless named), PAIRS pairs run end to
# end (--trace 0) at SEED for run_seconds, the two sides back to back; REV
# goes first in odd pairs and HEAD in even ones, so drift over a session
# hits both sides alike.
#
# BENCH_pair.json at the repository root holds, per workload, each pair's
# values with each run's correctness, failed count and stolen_windows (the
# latency windows the hypervisor disturbed); whether every run was correct
# with none failed; and per metric the median of each side, the median
# per-pair ratio HEAD/REV, how many pairs HEAD won, and the verdict:
# "worse" when the median ratio is worse than the metric's bound, else
# "within". A run that errors aborts the script.
#
# The manifest's git_rev must name the measured HEAD, so commit first; the
# script refuses uncommitted tracked changes.
#
# Usage: ./perf-pair.sh REV [PAIRS [SEED [WORKLOAD...]]]
#        (PAIRS 5 and SEED 7 by default)

set -euo pipefail
cd "$(dirname "$0")"

[ $# -ge 1 ] || { echo "usage: ./perf-pair.sh REV [PAIRS [SEED [WORKLOAD...]]]" >&2; exit 2; }
base="$(git rev-parse --verify "$1^{commit}")"
head="$(git rev-parse HEAD)"
pairs="${2:-5}"
seed="${3:-7}"
shift $(($# < 3 ? $# : 3))
if [ -n "$(git status --porcelain --untracked-files=no -- . ':!BENCH_*.json')" ]; then
    echo "perf-pair: commit your changes first, so git_rev names the measured tree" >&2
    exit 1
fi

seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="${*:-$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)}"
# One "name better bound" line per end-to-end metric.
metrics="$(sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' BENCHMARK.json)"
[ -n "$seconds" ] && [ -n "$workloads" ] && [ -n "$metrics" ] || {
    echo "perf-pair: no run_seconds, workloads or bounds in BENCHMARK.json" >&2; exit 1; }

base_dir="perfbench/work/pair-$base"
if [ ! -f "$base_dir/perfbench/run.sh" ]; then
    rm -rf "$base_dir" && mkdir -p "$base_dir"
    git archive --format=tar "$base" | tar -x -C "$base_dir"
fi

# One end-to-end run of side $1 (base|head) as a JSON object of the values
# the pairing reads.
measure() { # side, workload
    local root=. out manifest result json name value
    [ "$1" = base ] && root="$base_dir"
    out="$(bash "$root/perfbench/run.sh" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0)"
    manifest="$(printf '%s\n' "$out" | tail -n 2 | head -n 1)"
    result="$(printf '%s\n' "$out" | tail -n 1)"
    json="\"correct\": $(sed -n 's/^{"correct": \([a-z]*\).*/\1/p' <<<"$result")"
    json+=", \"failed\": $(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$result")"
    json+=", \"stolen_windows\": $(sed -n 's/.*"stolen_windows": \([0-9]*\).*/\1/p' <<<"$manifest")"
    while read -r name _; do
        value="$(sed -n "s/.*\"$name\": {\"value\": \([^,}]*\).*/\1/p" <<<"$result")"
        json+=", \"$name\": ${value:-null}"
    done <<<"$metrics"
    printf '{%s}' "$json"
}

# Median of the numbers on stdin, one per line.
median() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "null" } else if (NR % 2) { print v[(NR + 1) / 2] }
        else { printf "%.6g\n", (v[NR / 2] + v[NR / 2 + 1]) / 2 } }'
}

value_of() { # metric, run json
    sed -n "s/.*\"$1\": \([^,}]*\).*/\1/p" <<<"$2"
}

out="{\"base\": \"$base\", \"head\": \"$head\", \"seed\": $seed, \"run_seconds\": $seconds, \"pairs\": $pairs, \"workloads\": ["
first_workload=1
for workload in $workloads; do
    runs=()
    base_runs=()
    head_runs=()
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
        for side in $order; do
            echo "perf-pair: $workload pair $pair/$pairs: $side" >&2
            if [ "$side" = base ]; then b="$(measure base "$workload")"; else h="$(measure head "$workload")"; fi
        done
        base_runs+=("$b")
        head_runs+=("$h")
        runs+=("{\"pair\": $pair, \"first\": \"${order%% *}\", \"base\": $b, \"head\": $h}")
    done

    summary=()
    while read -r name better bound; do
        ratios="" base_values="" head_values="" wins=0
        for i in "${!base_runs[@]}"; do
            bv="$(value_of "$name" "${base_runs[$i]}")"
            hv="$(value_of "$name" "${head_runs[$i]}")"
            [ "$bv" != null ] && [ "$hv" != null ] || continue
            base_values+="$bv"$'\n'
            head_values+="$hv"$'\n'
            ratios+="$(awk -v b="$bv" -v h="$hv" 'BEGIN { printf "%.6g", (b == 0 ? 1 : h / b) }')"$'\n'
            wins=$((wins + $(awk -v b="$bv" -v h="$hv" -v better="$better" \
                'BEGIN { print (better == "lower" ? h < b : h > b) }')))
        done
        ratio="$(printf '%s' "$ratios" | median)"
        verdict="$(awk -v r="$ratio" -v bound="$bound" -v better="$better" 'BEGIN {
            worse = (r == "null") || (better == "lower" ? r > 1 + bound : r < 1 - bound)
            print (worse ? "worse" : "within") }')"
        summary+=("{\"name\": \"$name\", \"better\": \"$better\", \"bound\": $bound, \"base_median\": $(printf '%s' "$base_values" | median), \"head_median\": $(printf '%s' "$head_values" | median), \"median_ratio\": $ratio, \"head_better_pairs\": $wins, \"verdict\": \"$verdict\"}")
    done <<<"$metrics"

    all_correct=true
    for run in "${base_runs[@]}" "${head_runs[@]}"; do
        [[ "$run" == '{"correct": true, "failed": 0,'* ]] || all_correct=false
    done

    [ "$first_workload" = 1 ] || out+=","
    first_workload=0
    out+=$'\n'" {\"workload\": \"$workload\", \"all_correct\": $all_correct, \"runs\": ["
    sep=""
    for run in "${runs[@]}"; do out+="$sep"$'\n'"  $run"; sep=","; done
    out+="],"$'\n'"  \"metrics\": ["
    sep=""
    for metric in "${summary[@]}"; do out+="$sep"$'\n'"  $metric"; sep=","; done
    out+="]}"
    echo "perf-pair: $workload done" >&2
done
printf '%s]}\n' "$out" >BENCH_pair.json.tmp
mv BENCH_pair.json.tmp BENCH_pair.json
echo "perf-pair: wrote BENCH_pair.json" >&2
