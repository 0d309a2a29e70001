#!/usr/bin/env bash
# Regenerate the performance ledger: one BENCH_<workload>.json at the
# repository root per workload in BENCHMARK.json.
#
# Each workload runs twice through perfbench at seed 7 for BENCHMARK.json's
# run_seconds: end to end (--trace 0) and as the traced per-layer replay
# (--trace 1). The file keeps perfbench's manifest and result lines
# unchanged:
#
#   {"end_to_end": {"manifest": {...}, "result": {...}},
#    "traced":     {"manifest": {...}, "result": {...}}}
#
# A run whose result is not correct aborts the script and writes nothing
# for that workload. The manifest's git_rev names the commit measured, so
# commit the code first; the script refuses uncommitted tracked changes.
#
# Usage: ./perf-ledger.sh     (no flags; from anywhere)

set -euo pipefail
cd "$(dirname "$0")"

if git rev-parse --git-dir >/dev/null 2>&1 \
    && [ -n "$(git status --porcelain --untracked-files=no -- . ':!BENCH_*.json')" ]; then
    echo "perf-ledger: commit your changes first, so git_rev names the measured tree" >&2
    exit 1
fi

seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)"
[ -n "$seconds" ] && [ -n "$workloads" ] || {
    echo "perf-ledger: no run_seconds or workloads in BENCHMARK.json" >&2; exit 1; }

# One perfbench run as `{"manifest": {...}, "result": {...}}`.
measure() { # workload, trace
    local out manifest result
    out="$(bash perfbench/run.sh --workload "$1" --seed 7 --seconds "$seconds" --trace "$2")"
    manifest="$(printf '%s\n' "$out" | tail -n 2 | head -n 1)"
    result="$(printf '%s\n' "$out" | tail -n 1)"
    case "$result" in
        '{"correct": true'*) ;;
        *) echo "perf-ledger: $1 --trace $2 was not correct: $result" >&2; exit 1 ;;
    esac
    # The manifest line is `{"manifest": {...}}`: drop its outer braces.
    printf '{%s, "result": %s}' "${manifest:1:${#manifest}-2}" "$result"
}

for workload in $workloads; do
    end_to_end="$(measure "$workload" 0)"
    traced="$(measure "$workload" 1)"
    printf '{"end_to_end": %s,\n "traced": %s}\n' "$end_to_end" "$traced" \
        >"BENCH_$workload.json.tmp"
    mv "BENCH_$workload.json.tmp" "BENCH_$workload.json"
    echo "perf-ledger: wrote BENCH_$workload.json"
done
